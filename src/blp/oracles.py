"""Classical three-valued reference semantics for conventional programs.

Implements the extended Gelfond-Lifschitz transform (and with it the
well-founded semantics and the three-valued stable models) and the
Kripke-Kleene semantics.  These are cross-validation oracles for the
four-valued engine: they share the parser and grounder but none of the
engine's evaluation code.  Truth values live here as the integers
-1, 0, 1 with Kleene's strong tables (negation is arithmetic negation,
conjunction min, disjunction max), and a valuation under construction
is a list of them indexed by base position.

Each program is checked for conventionality and compiled once, on its
first use by an oracle, into postfix code over base positions and
Kleene-int constants (see _compiled); the code is cached on the
program.  Stable models are searched only over the atoms the
well-founded semantics leaves unknown (see enumerate_stable_models).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .bilattice import F, T, TruthValue, U
from .grounder import Base, BaseMismatchError, GroundProgram
from .syntax import Atom, Binary, BinOp, NegAtom, TruthConst
from .valuation import Valuation

_F3, _U3, _T3 = -1, 0, 1
_TO_TV = {_F3: F, _U3: U, _T3: T}
_OF_TV = {F: _F3, U: _U3, T: _T3}

# instruction tags of the compiled code
_POS, _NEG, _CONST, _AND, _OR = range(5)
_TAG = {BinOp.AND: _AND, BinOp.OR: _OR}


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


def _compiled(gp: GroundProgram) -> tuple:
    """The program's rules as (head index, code) pairs, checked and
    compiled on first use and cached on the program.

    code is the rule body in postfix, a tuple of (tag, x) instructions:
    _POS and _NEG push the value of the atom at base position x, read
    positively or negated; _CONST pushes the Kleene int x; _AND and _OR
    pop x values and push their min or max.  A chain of one connective
    becomes one n-ary instruction.  The walk is iterative and preorder,
    and it raises ConventionalityError at the first node outside the
    conventional fragment; a program that fails is not cached, so every
    call on it raises.
    """
    if gp.oracle_code is not None:
        return gp.oracle_code
    locate = gp.base.locate
    rules = []
    for head, body in gp.rules.items():
        code = []
        depth = 0  # values on the stack once the code so far has run
        todo = [(body, None)]
        while todo:
            f, enclosing = todo.pop()
            if f is None:  # close the n-ary node opened at depth start
                tag, start = enclosing
                code.append((tag, depth - start))
                depth = start + 1
                continue
            if isinstance(f, Binary):
                tag = _TAG.get(f.op)
                if tag is None:
                    raise ConventionalityError(
                        f"connective {f.op.value!r} is outside the conventional fragment"
                    )
                if tag != enclosing:
                    todo.append((None, (tag, depth)))
                todo += ((f.right, tag), (f.left, tag))
                continue
            if isinstance(f, Atom):
                code.append((_POS, locate(f)))
            elif isinstance(f, NegAtom):
                code.append((_NEG, locate(f)))
            elif isinstance(f, TruthConst):
                if f.value not in (T, F):
                    raise ConventionalityError(
                        f"truth constant {f.value} is outside the conventional fragment"
                    )
                code.append((_CONST, _OF_TV[f.value]))
            else:
                raise ConventionalityError(
                    f"{type(f).__name__} node is outside the conventional fragment"
                )
            depth += 1
        rules.append((gp.base.index(head), tuple(code)))
    gp.oracle_code = tuple(rules)
    return gp.oracle_code


def _step(rules: tuple, pos, neg, rest: int) -> list:
    """The Kleene value of every rule body, at its head's position,
    reading positive atoms from pos and negated atoms, negated, from
    neg (both indexed by base position); every other atom takes rest."""
    out = [rest] * len(pos)
    stack = []
    push = stack.append
    for head, code in rules:
        for tag, x in code:
            if tag == _POS:
                push(pos[x])
            elif tag == _NEG:
                push(-neg[x])
            elif tag == _CONST:
                push(x)
            else:
                args = stack[-x:]
                del stack[-x:]
                push(min(args) if tag == _AND else max(args))
        out[head] = stack.pop()
    return out


def gl_transform(gp: GroundProgram, v: ThreeValuation) -> ThreeValuation:
    """Extended Gelfond-Lifschitz transform: freeze negated atoms to their
    values under v, then take the truth-least fixpoint of the positive
    consequence operator (non-heads pinned false).  Reading negated atoms
    from v while iterating is the same as freezing them first."""
    rules = _compiled(gp)
    if v.base != gp.base:
        raise BaseMismatchError("valuation does not match the program's base")
    cur = [_F3] * len(v.ints)
    for _ in range(2 * len(cur) + 1):
        nxt = _step(rules, cur, v.ints, _F3)
        if nxt == cur:
            return ThreeValuation(gp.base, cur)
        cur = nxt
    raise RuntimeError("positive consequence iteration failed to converge")


def well_founded(gp: GroundProgram) -> ThreeValuation:
    """Least fixpoint of the transform, reached from the all-unknown
    valuation; this is the well-founded semantics."""
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
    rules = _compiled(gp)
    cur = [_U3] * len(gp.base)
    for _ in range(2 * len(cur) + 1):
        nxt = _step(rules, cur, cur, _U3)
        if nxt == cur:
            return ThreeValuation(gp.base, cur)
        cur = nxt
    raise RuntimeError("Kripke-Kleene iteration failed to converge")


def enumerate_stable_models(gp: GroundProgram, cap: int = 10) -> list:
    """All three-valued stable models (fixpoints of the transform), in
    lexicographic order over the base positions with F < U < T.

    Only the atoms the well-founded semantics leaves U are enumerated;
    the others are held at their well-founded values.  This loses no
    model: the transform is monotone in the knowledge order, so
    iterating it from the all-U valuation, the knowledge-least one,
    reaches its knowledge-least fixpoint, which is the well-founded
    semantics.  Every fixpoint sits above that one in the knowledge
    order, so every fixpoint agrees with it on the atoms it makes T or
    F (Przymusinski 1990).  Each candidate is still checked to be a
    fixpoint.  The cap bounds the size of the base, not the number of
    atoms left open.
    """
    _compiled(gp)  # a non-conventional program fails here, before the cap
    n = len(gp.base)
    if n > cap:
        raise EnumerationCapError(
            f"base has {n} atoms; enumeration is capped at {cap}"
        )
    cells = list(well_founded(gp).ints)
    open_at = [i for i, x in enumerate(cells) if x == _U3]
    models = []
    for combo in product((_F3, _U3, _T3), repeat=len(open_at)):
        for i, x in zip(open_at, combo):
            cells[i] = x
        candidate = ThreeValuation(gp.base, cells)
        if gl_transform(gp, candidate) == candidate:
            models.append(candidate)
    return models
