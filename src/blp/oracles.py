"""Classical three-valued reference semantics for conventional programs.

Implements the extended Gelfond-Lifschitz transform (and with it the
well-founded semantics and the three-valued stable models) and the
Kripke-Kleene semantics.  These are cross-validation oracles for the
four-valued engine: they share the parser and grounder but none of the
engine's evaluation code.  They take and return plain Valuations; a
result never has an atom at I, so its belief and doubt masks never
share an atom, and it compares and hashes equal to the engine's
valuation with the same values.

Inside, a value is a lane code: valuation L is bit lane L of a Python
int, and an atom's value in it a pair of bits (is it T?, is it not F?),
stored as (not-F lanes) << lanes | (T lanes).  On these bits Kleene's
conjunction and disjunction (min and max) are & and |, and negation
swaps the halves and complements them.  gl_transform, well_founded
and kripke_kleene iterate one valuation, one lane, where F, U and T
are 0, 2 and 3: a list of these one-lane codes, one per atom, negated
through one bytes.translate table (_NEGATE).  Codes enter and leave
once per call, at the boundary: gl_transform reads its argument's
codes from Valuation.symbols, and each result is built once, from the
loop's last codes, straight into the masks (_of_codes).  A lane's bits
depend only on that lane's bits, so the stable search transforms
every candidate at once, one lane each (see enumerate_stable_models).

One interpreter, _run, evaluates the ground IR (GroundProgram.ir, see
grounder) on lane codes, reading each leaf from a table indexed by IR
code.  Kripke-Kleene runs the IR as it is, once _check has found it
conventional.  The transform pins every atom that heads no rule to F,
so it runs on a copy of the IR (see _pinned), made on first use and
cached on the program, that reads each positive literal of such an
atom, one set of literal codes, as F and folds the constants away: F
decides a conjunction and T a disjunction.

_transform is the one transform step, on one-lane codes: gl_transform
makes one, and the well-founded loop, which also seeds the stable
search, iterates it.  A step of each transform loop reads only some
positions: the transform's positive iteration reads the positions the
pinned code reads positively, and the well-founded iteration, through
the transform, the positions it reads negated.  Once a step leaves its
positions unchanged, the next step would return the same codes, so
each loop stops there rather than making that step.
"""

from __future__ import annotations

from operator import itemgetter

from .bilattice import F, T
from .grounder import CONSTS, LIT, OPS, Base, BaseMismatchError, GroundProgram
from .syntax import BinOp
from .valuation import Valuation

# one-lane codes, and bytes.translate tables from each code to the
# code of its negation, from each symbol to its code, and from each
# code to its belief and to its doubt digit (code 1, T but F, is no
# value); _ORDER has the codes in the truth order
_F1, _U1, _T1 = 0, 2, 3
_NEGATE = bytes.maketrans(b"\0\2\3", b"\3\2\0")
_CODE = bytes.maketrans(b"FUT", b"\0\2\3")
_BELIEF = bytes.maketrans(b"\0\2\3", b"001")
_DOUBT = bytes.maketrans(b"\0\2\3", b"100")
_ORDER = (_F1, _U1, _T1)

# the most atoms the well-founded semantics may leave open for the
# stable-model search, which spans 3 to that power candidates
ENUMERATION_CAP = 10

# IR codes of the conventional fragment, and the codes outside it
_T, _F = CONSTS.index(T), CONSTS.index(F)
_AND, _OR = 4 + OPS.index(BinOp.AND), 4 + OPS.index(BinOp.OR)
_OUTSIDE = frozenset(range(LIT)).difference((_T, _F, _AND, _OR))
_ABSORB = {_AND: _F, _OR: _T}  # the constant that decides each connective


class ConventionalityError(ValueError):
    """The program uses constructs outside the conventional fragment."""


class EnumerationCapError(ValueError):
    """The well-founded semantics leaves too many atoms open for the
    brute-force model search."""


def _of_codes(base: Base, codes: list) -> Valuation:
    """The valuation of one-lane codes, one per atom of base.  Reversed,
    so that atom i is the i-th binary digit from the right, the codes'
    belief and doubt digits read in base 2 are the masks; the leading
    0 reads an empty base as 0."""
    text = b"0" + bytes(codes)[::-1]
    return Valuation.from_masks(base, int(text.translate(_BELIEF), 2),
                                int(text.translate(_DOUBT), 2))


def _check(ir: tuple) -> None:
    """Raise ConventionalityError for the first rule body of ir, in
    order, that has a node outside the conventional fragment."""
    for _, code in ir:
        if not _OUTSIDE.isdisjoint(code):
            raise ConventionalityError(_outside(code))


def _pinned(gp: GroundProgram) -> tuple:
    """(rules, positive, negated): the rules of the program's IR, with
    every positive literal of an atom that heads no rule read as F and
    the T and F constants folded away; and two functions giving the
    values of a list at the base positions the folded code reads
    positively, and at those it reads negated.  Checked and folded on
    first use and cached on the program as gp.oracle_code; a program
    outside the conventional fragment raises ConventionalityError and
    is not cached, so every call on it raises.

    This is the code of the Gelfond-Lifschitz transform, which pins the
    atoms that head no rule to F: F absorbs a conjunction and T a
    disjunction, and the other constant is the identity of each, so
    a rule body folds to a shorter code or to a constant.  The whole IR
    is checked first, so a node outside the conventional fragment under
    an absorbed operand raises as well.  pinned holds the positive
    literal code LIT + 2i of each atom i that heads no rule; the readers
    come from the sorted codes the folded rules read, in one pass: LIT
    is even, so an even literal code reads its atom positively and an
    odd one reads it negated.
    """
    if gp.oracle_code is None:
        _check(gp.ir)
        pinned = set(range(LIT, LIT + 2 * len(gp.base), 2))
        for head, _ in gp.ir:
            pinned.discard(LIT + 2 * head)
        rules = tuple((head, _fold(code, pinned)) for head, code in gp.ir)
        positions = ([], [])  # the atoms read positively, and negated
        for c in sorted(set().union(*[code for _, code in rules])):
            if c >= LIT:
                positions[c & 1].append((c - LIT) >> 1)
        gp.oracle_code = (rules, _reader(positions[0]), _reader(positions[1]))
    return gp.oracle_code


def _fold(code: tuple, pinned: set) -> tuple:
    """code with each literal code in pinned read as F and the T and F
    constants folded through & and |: postfix again, or one constant.
    A code with no constant and no pinned code is returned as it is,
    unwalked.  An operand on the stack is a constant code or a list of
    codes."""
    if _T not in code and _F not in code and pinned.isdisjoint(code):
        return code
    stack = []
    for c in code:
        if c != _AND and c != _OR:
            if c in pinned:
                c = _F
            stack.append(c if c < LIT else [c])
            continue
        right = stack.pop()
        left = stack[-1]
        if type(right) is int:
            if right == _ABSORB[c]:
                stack[-1] = right
        elif type(left) is int:
            stack[-1] = left if left == _ABSORB[c] else right
        else:
            left += right
            left.append(c)
    root = stack[0]
    return (root,) if type(root) is int else tuple(root)


def _reader(positions: list):
    """A function giving the values of a list at sorted positions, in a
    form that compares equal exactly when the values there are equal."""
    if not positions:
        return lambda values: None
    return itemgetter(*positions)


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
        if c not in _OUTSIDE:
            continue
        if first is None or start <= first_at:
            first, first_at = c, k
    if first < 4:
        return f"truth constant {CONSTS[first]} is outside the conventional fragment"
    return f"connective {OPS[first - 4].value!r} is outside the conventional fragment"


def _table(n: int, lanes: int) -> list:
    """A leaf table for _run over n atoms and lanes lanes: the T and F
    slots hold all-ones and 0, and the literal slots, table[LIT::2]
    for the atoms and table[LIT + 1::2] for their negations, are the
    caller's to fill."""
    table = [None] * (LIT + 2 * n)
    table[_T] = (1 << 2 * lanes) - 1
    table[_F] = 0
    return table


def _negated(values: list, lanes: int) -> list:
    """The negations of lane codes: their halves swapped and complemented."""
    full = (1 << lanes) - 1
    both = (1 << 2 * lanes) - 1
    return [both ^ (c >> lanes | (c & full) << lanes) for c in values]


def _run(rules: tuple, table: list, out: list) -> None:
    """Set out[head] to the value of each rule's postfix IR code.

    A leaf code c, a constant or a literal, pushes table[c]; IR & and |
    pop two values and push their bitwise and and or, which on lane
    codes are Kleene's min and max in every lane at once."""
    stack = []
    push, pop = stack.append, stack.pop
    for head, code in rules:
        for c in code:
            if c == _AND:
                x = pop()
                stack[-1] &= x
            elif c == _OR:
                x = pop()
                stack[-1] |= x
            else:
                push(table[c])
        out[head] = pop()


def _least(rules: tuple, positive, table: list, n: int) -> list:
    """The truth-least fixpoint of the pinned rules over n atoms, from
    all-F: each step writes the current values into the positive
    literal slots of table and runs the rules, and every atom that
    heads no rule stays F.  The negated slots hold the frozen values.

    A step reads its argument only at the positions the pinned code
    reads positively, so once a step leaves those unchanged the next
    would return the same list, and the iteration stops there."""
    cur = [_F1] * n
    for _ in range(2 * n + 1):
        table[LIT::2] = cur
        nxt = [_F1] * n
        _run(rules, table, nxt)
        if positive(nxt) == positive(cur):
            return nxt
        cur = nxt
    raise RuntimeError("positive consequence iteration failed to converge")


def _transform(rules: tuple, positive, table: list, codes) -> list:
    """The extended Gelfond-Lifschitz transform of one-lane codes, by the
    rules and positive reader of _pinned: the negated literal slots of
    table, a one-lane _table, take the negations of codes, and _least
    runs from all-F.  Reading negated atoms from codes while iterating
    is the same as freezing them first."""
    table[LIT + 1::2] = bytes(codes).translate(_NEGATE)
    return _least(rules, positive, table, len(codes))


def _well_founded_codes(gp: GroundProgram) -> list:
    """The one-lane codes of the well-founded semantics: _transform
    iterated from all-U.

    The transform reads its argument only at the positions the pinned
    code reads negated, so once a step leaves the codes there unchanged
    the next would return the same codes, and the iteration stops."""
    rules, positive, negated = _pinned(gp)
    n = len(gp.base)
    table = _table(n, 1)
    cur = [_U1] * n
    for _ in range(2 * n + 1):
        nxt = _transform(rules, positive, table, cur)
        if negated(nxt) == negated(cur):
            return nxt
        cur = nxt
    raise RuntimeError("well-founded iteration failed to converge")


def gl_transform(gp: GroundProgram, v: Valuation) -> Valuation:
    """Extended Gelfond-Lifschitz transform: freeze negated atoms to their
    values under v, then take the truth-least fixpoint of the positive
    consequence operator (non-heads pinned false).  v goes into one-lane
    codes and the result out of them once, around _transform.  v may be
    any valuation with no atom at I."""
    rules, positive, _ = _pinned(gp)
    if v.base != gp.base:
        raise BaseMismatchError("valuation does not match the program's base")
    if v.belief & v.doubt:
        raise ValueError("valuation contains I and has no three-valued counterpart")
    codes = v.symbols().encode().translate(_CODE)
    return _of_codes(gp.base, _transform(rules, positive, _table(len(codes), 1), codes))


def well_founded(gp: GroundProgram) -> Valuation:
    """Least fixpoint of the transform, reached from the all-unknown
    valuation; this is the well-founded semantics."""
    return _of_codes(gp.base, _well_founded_codes(gp))


def kripke_kleene(gp: GroundProgram) -> Valuation:
    """Knowledge-least fixpoint of the single-valuation consequence
    operator: heads take their body's Kleene value, non-heads stay unknown.
    It runs the program's IR as it is, in one lane."""
    _check(gp.ir)
    n = len(gp.base)
    table = _table(n, 1)
    cur = [_U1] * n
    for _ in range(2 * n + 1):
        table[LIT::2] = cur
        table[LIT + 1::2] = bytes(cur).translate(_NEGATE)
        nxt = [_U1] * n
        _run(gp.ir, table, nxt)
        if nxt == cur:
            return _of_codes(gp.base, cur)
        cur = nxt
    raise RuntimeError("Kripke-Kleene iteration failed to converge")


def enumerate_stable_models(gp: GroundProgram) -> list:
    """All three-valued stable models (fixpoints of the transform), in
    lexicographic order over the base positions with F < U < T.

    Only the atoms the well-founded semantics leaves U are enumerated;
    the others are held at their well-founded values.  This loses no
    model: the transform is monotone in the knowledge order, so
    iterating it from the all-U valuation, the knowledge-least one,
    reaches its knowledge-least fixpoint, which is the well-founded
    semantics.  Every fixpoint sits above that one in the knowledge
    order, so every fixpoint agrees with it on the atoms it makes T or
    F (Przymusinski 1990).  ENUMERATION_CAP bounds k, the number of atoms
    left open, since the search spans 3^k candidates; the base may be
    larger.

    The 3^k candidates over the k open atoms are transformed at once,
    by one run of _least in 3^k lanes: lane L is candidate L in
    itertools.product((F, U, T), repeat=k) order, so reading the
    fixpoint lanes lowest first gives the lexicographic order.  Lanes
    cannot interact, so each iterates on its own, monotonely from
    all-F, to its own least fixpoint within the bound of _least; the
    whole list stops changing once the last lane has.
    """
    rules, positive, _ = _pinned(gp)  # a non-conventional program fails here, before the cap
    n = len(gp.base)
    codes = _well_founded_codes(gp)
    open_at = [i for i, c in enumerate(codes) if c == _U1]
    k = len(open_at)
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"the well-founded semantics leaves {k} atoms open; "
            f"enumeration is capped at {ENUMERATION_CAP}"
        )
    lanes = 3**k
    full = (1 << lanes) - 1
    # atom i of the candidates: T-lanes in the low half, not-F-lanes in
    # the high half; settled atoms hold their value in every lane
    spread = {_F1: 0, _U1: full << lanes, _T1: full | full << lanes}
    cand = [spread[c] for c in codes]
    for j, i in enumerate(open_at):
        # digit j of lane L: blocks of 3^(k-1-j) lanes of F, U and T in
        # turn, the period of three blocks repeated 3^j times
        block = 3 ** (k - 1 - j)
        ones = (1 << block) - 1
        t = ones << 2 * block
        nf = t | ones << block
        repeat = full // ((1 << 3 * block) - 1)
        cand[i] = (t | nf << lanes) * repeat
    table = _table(n, lanes)
    table[LIT + 1::2] = _negated(cand, lanes)
    out = _least(rules, positive, table, n)
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
            codes[i] = _ORDER[digit]
        models.append(_of_codes(gp.base, codes))
    return models
