"""Classical three-valued reference semantics for conventional programs.

Implements the extended Gelfond-Lifschitz transform (and with it the
well-founded semantics and the three-valued stable models) and the
Kripke-Kleene semantics.  These are cross-validation oracles for the
four-valued engine: they share the parser and grounder but none of the
engine's evaluation code.  Truth values live here as the integers
-1, 0, 1 with Kleene's strong tables (negation is arithmetic negation,
conjunction min, disjunction max), and a valuation under construction
is a list of them indexed by base position.

Each program is checked for conventionality and compiled, on its first
use by an oracle, from its ground IR (GroundProgram.ir, see grounder)
into postfix code over base positions and Kleene-int constants (see
_compiled); the code is cached on the program.  Kripke-Kleene reads
that code as it is.  The transform pins every atom that heads no rule
to F, so its code, compiled and cached separately (see _pinned), reads
each positive literal of such an atom as F and folds the constants
away: F decides a conjunction and T a disjunction.  The oracles build
their valuations from Kleene ints they computed, so they skip the
checks of the public ThreeValuation constructor.

A step of each transform loop reads only some positions: the
transform's positive iteration reads the positions the pinned code
reads positively, and the well-founded iteration, through the
transform, the positions it reads negated.  Once a step leaves its
positions unchanged, the next step would return the same valuation, so
each loop stops there rather than making that step.

Stable models are searched only over the atoms the well-founded
semantics leaves unknown, and all candidates at once: candidate L is
bit lane L of Python ints, each atom's value in a lane a pair of bits
(is it T?, is it not F?), so one pass of the same compiled code
transforms every candidate (see enumerate_stable_models and
_lane_transform).  The scalar _step stays for the other oracles: they
iterate one valuation, where a single lane costs more than a Kleene
int.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterable

from .bilattice import F, T, TruthValue, U
from .grounder import CONSTS, LIT, OPS, Base, BaseMismatchError, GroundProgram
from .syntax import BinOp
from .valuation import Valuation

_F3, _U3, _T3 = -1, 0, 1
_TO_TV = {_F3: F, _U3: U, _T3: T}
_OF_TV = {F: _F3, U: _U3, T: _T3}

# instruction tags of the compiled code
_POS, _NEG, _CONST, _AND, _OR = range(5)
_TAG = {4 + OPS.index(BinOp.AND): _AND, 4 + OPS.index(BinOp.OR): _OR}  # by IR code
_ABSORB = {_AND: _F3, _OR: _T3}  # the constant that decides each connective


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
    def _of(cls, base: Base, ints) -> "ThreeValuation":
        """The valuation of ints, unchecked: one Kleene int per atom of
        base, as the oracles compute them."""
        v = object.__new__(cls)
        v.base = base
        v.ints = tuple(ints)
        return v

    @classmethod
    def all_unknown(cls, base: Base) -> "ThreeValuation":
        return cls._of(base, (_U3,) * len(base))

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
    compiled from the ground IR on first use and cached on the program.

    code is the rule body in postfix, a tuple of (tag, x) instructions:
    _POS and _NEG push the value of the atom at base position x, read
    positively or negated; _CONST pushes the Kleene int x; _AND and _OR
    pop x values and push their min or max.  A chain of one connective
    becomes one n-ary instruction (see _compile).  A program outside
    the conventional fragment raises ConventionalityError and is not
    cached, so every call on it raises.

    gp.oracle_code maps False to these rules and True to the pinned
    form of _pinned; each is compiled when first asked for.
    """
    forms = gp.oracle_code or {}
    if False not in forms:
        forms[False] = _compile(gp, pinned=False)
        gp.oracle_code = forms
    return forms[False]


def _pinned(gp: GroundProgram) -> tuple:
    """(rules, positive, negated): the rules as _compiled gives them,
    but with every positive literal of an atom that heads no rule read
    as F and the T and F constants folded away, and the base positions
    the folded code reads positively and negated, each as a function
    giving the values of a list at those positions.  Checked, compiled
    and cached like _compiled.

    This is the code of the Gelfond-Lifschitz transform, which pins the
    atoms that head no rule to F: F absorbs a conjunction and T a
    disjunction, and the other constant is the identity of each, so
    a rule body folds to a shorter code or to a constant.  Every IR
    code is still read, so a node outside the conventional fragment
    under an absorbed operand raises as in _compiled.
    """
    forms = gp.oracle_code or {}
    if True not in forms:
        rules = _compile(gp, pinned=True)
        positive, negated = set(), set()
        for _, code in rules:
            for tag, x in code:
                if tag == _POS:
                    positive.add(x)
                elif tag == _NEG:
                    negated.add(x)
        forms[True] = rules, _reader(positive), _reader(negated)
        gp.oracle_code = forms
    return forms[True]


def _reader(positions: set):
    """A function giving the values of a list at positions, in a form
    that compares equal exactly when the values there are equal."""
    if not positions:
        return lambda values: None
    return itemgetter(*sorted(positions))


def _compile(gp: GroundProgram, pinned: bool) -> tuple:
    """The rules in the form of _compiled, pinned as _pinned says when
    pinned is set.

    Each operand on the compiler's stack is [tag of its open n-ary
    instruction or None, its operand count, its instructions so far],
    and a connective extends its left operand's list in place.  In
    pinned code a constant operand is the bare Kleene int, folded into
    the connective that takes it.
    """
    n = len(gp.base)
    leaf = [None] * LIT + [
        (tag, i) for i in range(n) for tag in (_POS, _NEG)
    ]  # leaf[c] is the instruction of IR literal code c
    for value in (T, F):
        x = _OF_TV[value]
        leaf[CONSTS.index(value)] = x if pinned else (_CONST, x)
    if pinned:
        for i in set(range(n)).difference(head for head, _ in gp.ir):
            leaf[LIT + 2 * i] = _F3
    rules = []
    for head, code in gp.ir:
        stack = []
        for c in code:
            ins = leaf[c]
            if ins is not None:
                stack.append(ins if type(ins) is int else [None, 1, [ins]])
                continue
            tag = _TAG.get(c)
            if tag is None:
                raise ConventionalityError(_outside(code))
            right = stack.pop()
            left = stack[-1]
            if type(left) is int or type(right) is int:
                const, other = (right, left) if type(right) is int else (left, right)
                stack[-1] = const if const == _ABSORB[tag] else other
                continue
            if left[0] != tag:
                if left[0] is not None:
                    left[2].append((left[0], left[1]))
                left[0], left[1] = tag, 1
            if right[0] == tag:
                left[1] += right[1]
            else:
                if right[0] is not None:
                    right[2].append((right[0], right[1]))
                left[1] += 1
            left[2] += right[2]
        root = stack[0]
        if type(root) is int:
            rules.append((head, ((_CONST, root),)))
            continue
        if root[0] is not None:
            root[2].append((root[0], root[1]))
        rules.append((head, tuple(root[2])))
    return tuple(rules)


def _outside(code: tuple) -> str:
    """The message for the first node outside the conventional fragment
    in preorder, the order of the formula's text.  In postfix a node
    comes after its subtree, which is the run of codes from the first
    leaf under it; so a later node whose run reaches back over the
    first bad node found so far is its ancestor, and precedes it."""
    starts = []  # where the subtree of each operand on the stack begins
    first = first_at = None
    for k, c in enumerate(code):
        if 4 <= c < LIT:
            starts.pop()
            start = starts[-1]
        else:
            start = k
            starts.append(k)
        if c >= LIT or c in _TAG or c < 4 and CONSTS[c] in (T, F):
            continue
        if first is None or start <= first_at:
            first, first_at = c, k
    if first < 4:
        return f"truth constant {CONSTS[first]} is outside the conventional fragment"
    return f"connective {OPS[first - 4].value!r} is outside the conventional fragment"


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
    from v while iterating is the same as freezing them first.

    A step reads its argument only at the positions the pinned code
    reads positively, so once a step leaves those unchanged the next
    would return the same list, and the iteration stops there."""
    rules, positive, _ = _pinned(gp)
    if v.base != gp.base:
        raise BaseMismatchError("valuation does not match the program's base")
    cur = [_F3] * len(v.ints)
    for _ in range(2 * len(cur) + 1):
        nxt = _step(rules, cur, v.ints, _F3)
        if positive(nxt) == positive(cur):
            return ThreeValuation._of(gp.base, nxt)
        cur = nxt
    raise RuntimeError("positive consequence iteration failed to converge")


def _lane_transform(rules: tuple, positive, cand: list, lanes: int) -> list:
    """gl_transform of many candidates at once, as bit lanes.

    Atom i of lane L is bit L of cand[i] (is it T?) and bit lanes + L
    (is it not F?): a Kleene int v is the pair (v == T, v != F).  On
    these bits min and max are & and |, and negation swaps the halves
    and complements them, so one pass of the compiled code evaluates
    every lane, and a lane's bits depend only on that lane's bits.
    Each lane therefore iterates on its own, monotonely from all-F, to
    its own least fixpoint within the bound gl_transform uses; the
    whole list stops changing once the last lane has.  It stops one
    step earlier, as gl_transform does, once a step leaves the
    positions the pinned rules read positively unchanged.
    """
    full = (1 << lanes) - 1
    both = (1 << 2 * lanes) - 1
    neg = [both ^ (c >> lanes | (c & full) << lanes) for c in cand]
    const = {_T3: both, _F3: 0}
    cur = [0] * len(cand)
    for _ in range(2 * len(cur) + 1):
        nxt = [0] * len(cur)
        stack = []
        push = stack.append
        for head, code in rules:
            for tag, x in code:
                if tag == _POS:
                    push(cur[x])
                elif tag == _NEG:
                    push(neg[x])
                elif tag == _CONST:
                    push(const[x])
                else:
                    args = stack[-x:]
                    del stack[-x:]
                    push(reduce(and_ if tag == _AND else or_, args))
            nxt[head] = stack.pop()
        if positive(nxt) == positive(cur):
            return nxt
        cur = nxt
    raise RuntimeError("positive consequence iteration failed to converge")


def well_founded(gp: GroundProgram) -> ThreeValuation:
    """Least fixpoint of the transform, reached from the all-unknown
    valuation; this is the well-founded semantics.

    The transform reads its argument only at the positions the pinned
    code reads negated, so once a transform leaves those unchanged the
    next would return the same valuation, and the iteration stops
    there."""
    negated = _pinned(gp)[2]
    cur = ThreeValuation.all_unknown(gp.base)
    for _ in range(2 * len(gp.base) + 1):
        nxt = gl_transform(gp, cur)
        if negated(nxt.ints) == negated(cur.ints):
            return nxt
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
            return ThreeValuation._of(gp.base, cur)
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
    F (Przymusinski 1990).  The cap bounds the size of the base, not
    the number of atoms left open.

    The 3^k candidates over the k open atoms are transformed at once,
    as bit lanes of Python ints: lane L is candidate L in
    itertools.product((F, U, T), repeat=k) order, so reading the
    fixpoint lanes lowest first gives the lexicographic order.  See
    _lane_transform for the encoding and why lanes cannot interact.
    """
    rules, positive, _ = _pinned(gp)  # a non-conventional program fails here, before the cap
    n = len(gp.base)
    if n > cap:
        raise EnumerationCapError(
            f"base has {n} atoms; enumeration is capped at {cap}"
        )
    cells = list(well_founded(gp).ints)
    open_at = [i for i, x in enumerate(cells) if x == _U3]
    k = len(open_at)
    lanes = 3**k
    full = (1 << lanes) - 1
    # atom i of the candidates: T-lanes in the low half, not-F-lanes in
    # the high half; settled atoms hold their value in every lane
    cand = [(0, full << lanes, full | full << lanes)[x + 1] for x in cells]
    for j, i in enumerate(open_at):
        # digit j of lane L: blocks of 3^(k-1-j) lanes of F, U and T in
        # turn, the period of three blocks repeated 3^j times
        block = 3 ** (k - 1 - j)
        ones = (1 << block) - 1
        t = ones << 2 * block
        nf = t | ones << block
        repeat = full // ((1 << 3 * block) - 1)
        cand[i] = (t | nf << lanes) * repeat
    out = _lane_transform(rules, positive, cand, lanes)
    diff = 0
    for got, want in zip(out, cand):
        diff |= got ^ want
    fixed = full & ~(diff | diff >> lanes)
    models = []
    while fixed:
        low = fixed & -fixed
        lane = low.bit_length() - 1
        fixed ^= low
        for i in reversed(open_at):
            lane, digit = divmod(lane, 3)
            cells[i] = digit - 1
        models.append(ThreeValuation._of(gp.base, cells))
    return models
