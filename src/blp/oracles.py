"""Classical three-valued reference semantics for conventional programs.

Implements the extended Gelfond-Lifschitz transform (and with it the
well-founded semantics and brute-force three-valued stable models) and
the Kripke-Kleene semantics.  These are cross-validation oracles for
the four-valued engine: they share the parser and grounder but none of
the engine's evaluation code.  Truth values live here as the integers
-1, 0, 1 with Kleene's strong tables (negation is arithmetic negation,
conjunction min, disjunction max), and a valuation under construction
is a list of them indexed by base position; rule bodies find their
atoms' positions through Base.locate.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .bilattice import F, T, TruthValue, U
from .grounder import Base, BaseMismatchError, GroundProgram
from .syntax import Atom, Binary, BinOp, Formula, NegAtom, TruthConst, walk
from .valuation import Valuation

_F3, _U3, _T3 = -1, 0, 1
_TO_TV = {_F3: F, _U3: U, _T3: T}
_OF_TV = {F: _F3, U: _U3, T: _T3}


class ConventionalityError(ValueError):
    """The program uses constructs outside the conventional fragment."""


class EnumerationCapError(ValueError):
    """The base is too large for brute-force model enumeration."""


class ThreeValuation:
    """Total map Base -> {F, U, T}; embeds into the four-valued space."""

    __slots__ = ("base", "ints")

    def __init__(self, base: Base, ints: Iterable[int]) -> None:
        self.base = base
        self.ints = tuple(ints)
        if len(self.ints) != len(base):
            raise ValueError(f"expected {len(base)} values, got {len(self.ints)}")
        if any(i not in (_F3, _U3, _T3) for i in self.ints):
            raise ValueError("three-valued valuations take values in {F, U, T}")

    @classmethod
    def all_unknown(cls, base: Base) -> "ThreeValuation":
        return cls(base, (_U3,) * len(base))

    @classmethod
    def from_valuation(cls, v: Valuation) -> "ThreeValuation":
        try:
            return cls(v.base, (_OF_TV[val] for val in v.values))
        except KeyError:
            raise ValueError(
                "valuation contains I and has no three-valued counterpart"
            ) from None

    def __getitem__(self, atom) -> TruthValue:
        try:
            return _TO_TV[self.ints[self.base.index(atom)]]
        except KeyError:
            raise BaseMismatchError(f"atom {atom} is outside the base") from None

    def to_valuation(self) -> Valuation:
        return Valuation(self.base, tuple(_TO_TV[i] for i in self.ints))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThreeValuation)
            and self.base == other.base
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.base, self.ints))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={_TO_TV[i]}" for a, i in zip(self.base.atoms, self.ints))
        return f"<ThreeValuation {inner}>"


def _require_conventional(gp: GroundProgram) -> None:
    for body in gp.rules.values():
        for f in walk(body):
            if isinstance(f, TruthConst):
                if f.value not in (T, F):
                    raise ConventionalityError(
                        f"truth constant {f.value} is outside the conventional fragment"
                    )
            elif isinstance(f, Binary):
                if f.op in (BinOp.CONSENSUS, BinOp.GULLIBILITY):
                    raise ConventionalityError(
                        f"connective {f.op.value!r} is outside the conventional fragment"
                    )
            elif not isinstance(f, (Atom, NegAtom)):
                raise ConventionalityError(
                    f"{type(f).__name__} node is outside the conventional fragment"
                )


def _kleene(body: Formula, locate, pos: list, neg) -> int:
    """The Kleene value of a conventional ground body, reading positive
    atoms from pos and negated atoms, negated, from neg (both indexed by
    base position).  Evaluates with an explicit stack: operands are
    pushed on vals, and a connective popped from todo combines the top two."""
    todo = [body]
    vals = []
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            vals.append(pos[locate(f)])
        elif isinstance(f, NegAtom):
            vals.append(-neg[locate(f)])
        elif isinstance(f, TruthConst):
            vals.append(_OF_TV[f.value])
        elif isinstance(f, Binary):
            todo += (f.op, f.right, f.left)
        else:  # the connective of a Binary whose operands are on vals
            right = vals.pop()
            left = vals.pop()
            vals.append(min(left, right) if f is BinOp.AND else max(left, right))
    return vals[0]


def _rules(gp: GroundProgram) -> list:
    """(head index, body) for every rule."""
    return [(gp.base.index(head), body) for head, body in gp.rules.items()]


def gl_transform(gp: GroundProgram, v: ThreeValuation) -> ThreeValuation:
    """Extended Gelfond-Lifschitz transform: freeze negated atoms to their
    values under v, then take the truth-least fixpoint of the positive
    consequence operator (non-heads pinned false).  Reading negated atoms
    from v while iterating is the same as freezing them first."""
    _require_conventional(gp)
    if v.base != gp.base:
        raise BaseMismatchError("valuation does not match the program's base")
    base = gp.base
    rules = _rules(gp)
    cur = [_F3] * len(base)
    for _ in range(2 * len(base) + 1):
        nxt = [_F3] * len(base)
        for i, body in rules:
            nxt[i] = _kleene(body, base.locate, cur, v.ints)
        if nxt == cur:
            return ThreeValuation(base, cur)
        cur = nxt
    raise RuntimeError("positive consequence iteration failed to converge")


def well_founded(gp: GroundProgram) -> ThreeValuation:
    """Least fixpoint of the transform, reached from the all-unknown
    valuation; this is the well-founded semantics."""
    _require_conventional(gp)
    cur = ThreeValuation.all_unknown(gp.base)
    for _ in range(2 * len(gp.base) + 1):
        nxt = gl_transform(gp, cur)
        if nxt == cur:
            return cur
        cur = nxt
    raise RuntimeError("well-founded iteration failed to converge")


def kripke_kleene(gp: GroundProgram) -> ThreeValuation:
    """Knowledge-least fixpoint of the single-valuation consequence
    operator: heads take their body's Kleene value, non-heads stay unknown."""
    _require_conventional(gp)
    base = gp.base
    rules = _rules(gp)
    cur = [_U3] * len(base)
    for _ in range(2 * len(base) + 1):
        nxt = [_U3] * len(base)
        for i, body in rules:
            nxt[i] = _kleene(body, base.locate, cur, cur)
        if nxt == cur:
            return ThreeValuation(base, cur)
        cur = nxt
    raise RuntimeError("Kripke-Kleene iteration failed to converge")


def enumerate_stable_models(gp: GroundProgram, cap: int = 10) -> list:
    """All three-valued stable models (fixpoints of the transform), by
    brute force over the 3^n candidate valuations."""
    _require_conventional(gp)
    n = len(gp.base)
    if n > cap:
        raise EnumerationCapError(
            f"base has {n} atoms; enumeration is capped at {cap}"
        )
    models = []
    for combo in product((_F3, _U3, _T3), repeat=n):
        candidate = ThreeValuation(gp.base, combo)
        if gl_transform(gp, candidate) == candidate:
            models.append(candidate)
    return models
