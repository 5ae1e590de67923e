"""Valuations: total maps from ground atoms to FOUR.

A valuation is stored as two bit masks over the base, one bit per atom
in base order: the belief mask holds the atoms valued T or I, the doubt
mask the atoms valued F or I.  This is the (belief, doubt) encoding of
FOUR in `bilattice`, so every pointwise operation is two bitwise
operations on the masks, the orderings are subset tests, and equality
is an integer compare.  symbols() and its inverse from_symbols are the
one per-atom conversion of the masks: symbols() maps them to one truth
symbol per atom through the four-character table "UTFI", and
from_symbols builds them back from such a string.  Output reads the
symbols, which to_lines and to_json_dict pair with the atom texts the
base keeps (Base.names), and the oracles read and write their lane
codes through them.  items(), values and item lookup build TruthValues;
they are library API, not output paths.

Formula evaluation comes in two independently coded flavors.
CompiledBodies compiles the ground IR of rule bodies (see grounder) into
a flat list of n-ary nodes and evaluates them against a pair of
valuations (positive atoms from the first, negated atoms from the
second); the engine and contrajoin_eval use it, the latter through
grounder.formula_code.  Each node has two literal masks, one read by its
belief and one by its doubt, each value being all or any of its
operands' as the connective says.  For each default value alpha the
compiled bodies also derive, once, a second node list in which every
atom that heads no rule reads as alpha where it is read without "~"
(CompiledBodies.at_alpha).  One application of the engine's operator,
CompiledBodies.consequence, runs it whenever its first argument holds
alpha on those atoms, and the compiled list otherwise.  Most nodes are
leaves that read such an atom and at most one other literal, and at
every alpha they merge into their parents; compile keeps the leaves of
one kind under one parent as one record, holding only the OR of their
other literals, which the derivation applies in one step.  The compiled
list itself is made only when something runs it, by compile's walk again
with nothing grouped.  The walk reads each body's IR once, from the last
code to the first, in pre-order, and takes most leaves, a connective
over two literals, in runs, one loop a run, with a table of the IR codes
telling which are guarded.  A node list is one value, (nodes, init,
outs); its outs, made with the list, hold the values of the outputs no
node writes into, so an evaluation collects only the others.
pseudo_eval reads a formula tree (a rule body of GroundProgram.rules)
against set-pair encodings using (in-true-set, in-false-set) bit logic,
with an explicit stack; bottomup uses it.  The two share no tables and
must agree everywhere; the test suite holds them against each other.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

from .bilattice import F, I, T, TruthValue, U
from .grounder import CONSTS, LIT, Base, BaseMismatchError, GroundAtom, formula_code
from .syntax import (
    Atom,
    Binary,
    BinOp,
    Const,
    Equal,
    Formula,
    NegAtom,
    NotEqual,
    Quantified,
    TruthConst,
)

# The symbol of each knowledge code belief | doubt << 1, written as a
# hex digit, for str.translate; and back, each symbol's belief bit and
# doubt bit as a binary digit, for bytes.translate.
_SYMBOL_OF_DIGIT = str.maketrans("0123", "UTFI")
_BELIEF_OF_SYMBOL = bytes.maketrans(b"UTFI", b"0101")
_DOUBT_OF_SYMBOL = bytes.maketrans(b"UTFI", b"0011")


def value_masks(value: TruthValue, mask: int):
    """The (belief, doubt) masks that give value to every atom in mask."""
    if value is T:
        return mask, 0
    if value is F:
        return 0, mask
    if value is U:
        return 0, 0
    if value is I:
        return mask, mask
    raise TypeError(f"expected a truth value, got {value!r}")


class Valuation:
    """Immutable total map Base -> FOUR, stored as (belief, doubt) masks."""

    __slots__ = ("base", "belief", "doubt")

    def __init__(self, base: Base, values: Iterable[TruthValue]) -> None:
        values = tuple(values)
        if len(values) != len(base):
            raise ValueError(f"expected {len(base)} values, got {len(values)}")
        belief = doubt = 0
        for i, value in enumerate(values):
            b, d = value_masks(value, 1 << i)
            belief |= b
            doubt |= d
        self.base = base
        self.belief = belief
        self.doubt = doubt

    @classmethod
    def from_masks(cls, base: Base, belief: int, doubt: int) -> "Valuation":
        """The valuation with these masks; bit i stands for base.atoms[i]
        and no bit may lie outside the base."""
        v = object.__new__(cls)
        v.base = base
        v.belief = belief
        v.doubt = doubt
        return v

    @classmethod
    def from_symbols(cls, base: Base, symbols: str) -> "Valuation":
        """The valuation whose symbols() is symbols, one of "UTFI" per
        atom of base: the inverse of symbols().  Reversed, so that atom
        i is the i-th binary digit from the right, each symbol's belief
        and doubt digits read in base 2 are the masks.  A text of the
        wrong length, or with any other character, is a ValueError."""
        if len(symbols) != len(base):
            raise ValueError(f"expected {len(base)} values, got {len(symbols)}")
        text = b"0" + symbols[::-1].encode()
        if text.translate(None, b"UTFI") != b"0":  # more than the leading 0 is left
            for symbol in symbols:
                TruthValue.from_symbol(symbol)  # raises at the first bad one
        return cls.from_masks(
            base,
            int(text.translate(_BELIEF_OF_SYMBOL), 2),
            int(text.translate(_DOUBT_OF_SYMBOL), 2),
        )

    @classmethod
    def from_mapping(cls, base: Base, mapping: Mapping) -> "Valuation":
        for atom in mapping:
            if atom not in base:
                raise ValueError(f"unknown atom {atom}")
        values = []
        for atom in base.atoms:
            if atom not in mapping:
                raise ValueError(f"no value given for atom {atom}")
            values.append(mapping[atom])
        return cls(base, values)

    @property
    def values(self) -> tuple:
        """The values in base order."""
        return tuple(map(TruthValue, self.symbols()))

    def symbols(self) -> str:
        """The values as one symbol per atom, in base order: character
        i is the symbol of atom i.

        Read in base 16, the binary text of a mask puts bit i at hex
        digit i; so belief spread that way, plus doubt spread and
        doubled, has atom i's knowledge code, 0-3, at hex digit i.  Its
        hex text, reversed into base order, maps through the table
        "UTFI" of the four codes' symbols; [:n] drops the one digit an
        empty base still prints.
        """
        n = len(self.base)
        codes = int(format(self.belief, "b"), 16) | int(format(self.doubt, "b"), 16) << 1
        return format(codes, f"0{n}x")[::-1][:n].translate(_SYMBOL_OF_DIGIT)

    def __getitem__(self, atom: GroundAtom) -> TruthValue:
        try:
            i = self.base.index(atom)
        except KeyError:
            raise BaseMismatchError(f"atom {atom} is outside the base") from None
        return CONSTS[(self.belief >> i & 1) | (self.doubt >> i & 1) << 1]

    def _check(self, other: "Valuation") -> None:
        if self.base != other.base:
            raise BaseMismatchError("valuations are over different bases")

    def leq_t(self, other: "Valuation") -> bool:
        self._check(other)
        return (self.belief & ~other.belief) == 0 and (other.doubt & ~self.doubt) == 0

    def leq_k(self, other: "Valuation") -> bool:
        self._check(other)
        return (self.belief & ~other.belief) == 0 and (self.doubt & ~other.doubt) == 0

    def meet_t(self, other: "Valuation") -> "Valuation":
        self._check(other)
        return Valuation.from_masks(
            self.base, self.belief & other.belief, self.doubt | other.doubt
        )

    def join_t(self, other: "Valuation") -> "Valuation":
        self._check(other)
        return Valuation.from_masks(
            self.base, self.belief | other.belief, self.doubt & other.doubt
        )

    def meet_k(self, other: "Valuation") -> "Valuation":
        self._check(other)
        return Valuation.from_masks(
            self.base, self.belief & other.belief, self.doubt & other.doubt
        )

    def join_k(self, other: "Valuation") -> "Valuation":
        self._check(other)
        return Valuation.from_masks(
            self.base, self.belief | other.belief, self.doubt | other.doubt
        )

    def negate(self) -> "Valuation":
        return Valuation.from_masks(self.base, self.doubt, self.belief)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Valuation)
            and self.base == other.base
            and self.belief == other.belief
            and self.doubt == other.doubt
        )

    def __hash__(self) -> int:
        return hash((self.base, self.belief, self.doubt))

    def items(self):
        return zip(self.base.atoms, self.values)

    def to_lines(self) -> str:
        """One atom<TAB>value line per atom, lexicographically sorted."""
        if not self.base.names:
            return ""
        return "\n".join(map("\t".join, zip(self.base.names, self.symbols()))) + "\n"

    def to_json_dict(self) -> dict:
        return dict(zip(self.base.names, self.symbols()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v}" for a, v in self.items())
        return f"<{type(self).__name__} {inner}>"


def const_valuation(base: Base, alpha: TruthValue) -> Valuation:
    """The valuation assigning alpha to every atom of the base."""
    return Valuation.from_masks(base, *value_masks(alpha, (1 << len(base)) - 1))


class Interpretation:
    """(true-set, false-set) encoding: in both means I, in neither means U."""

    __slots__ = ("base", "true_set", "false_set")

    def __init__(self, base: Base, true_set, false_set) -> None:
        self.base = base
        self.true_set = frozenset(true_set)
        self.false_set = frozenset(false_set)
        stray = [a for a in self.true_set | self.false_set if a not in base]
        if stray:
            raise ValueError(f"atoms outside the base: {sorted(map(str, stray))}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interpretation)
            and self.base == other.base
            and self.true_set == other.true_set
            and self.false_set == other.false_set
        )

    def __hash__(self) -> int:
        return hash((self.base, self.true_set, self.false_set))

    def __repr__(self) -> str:
        t = sorted(map(str, self.true_set))
        f = sorted(map(str, self.false_set))
        return f"<Interpretation true={t} false={f}>"


class PseudoInterpretation:
    """A pair of interpretations: pos feeds positive literals, neg negated ones."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Interpretation, neg: Interpretation) -> None:
        if pos.base != neg.base:
            raise BaseMismatchError("pseudo-interpretation halves differ in base")
        self.pos = pos
        self.neg = neg


def to_interpretation(v: Valuation) -> Interpretation:
    true_set = [a for a, val in v.items() if val in (T, I)]
    false_set = [a for a, val in v.items() if val in (F, I)]
    return Interpretation(v.base, true_set, false_set)


def from_interpretation(i: Interpretation) -> Valuation:
    values = []
    for atom in i.base.atoms:
        t = atom in i.true_set
        f = atom in i.false_set
        values.append(I if t and f else T if t else F if f else U)
    return Valuation(i.base, values)


# Compiled bodies.  A node holds one maximal chain of a single connective,
# flattened to n operands, and computes its value as a two-bit code.  It
# folds in one of two codes: the knowledge code, belief | doubt << 1, in
# which consensus is bitwise and and gullibility bitwise or; or the truth
# code, the knowledge code xor 2 (belief | (not doubt) << 1), in which
# conjunction is bitwise and and disjunction bitwise or.  Either way each
# of a node's two values, belief and doubt, is "all operands" or "any
# operand" of that value: & believes all and doubts any, | believes any
# and doubts all, consensus is all and all, gullibility any and any.
# The kinds are numbered as the connectives of the ground IR, whose
# constants are numbered by knowledge code.
_AND, _OR, _CONS, _GULL = range(4)
_FLIP = (2, 2, 0, 0)  # xor that turns a knowledge code into the kind's own code
_MEET = (True, False, True, False)  # folds with bitwise and, else or
_START = (1 ^ 2, 2 ^ 2, 3, 0)  # each kind's identity T, F, I, U in its own code
# at_alpha folds alpha into lists of at least this many nodes.  On 300
# seeded random programs of 4-30 atoms, folding every list against none
# made four semantics plus compare 5-8% slower below 12 nodes, where a
# closure takes a few applications of a few microseconds, as fast at
# 12-15 (median ratio 1.00) and 1-19% faster from 16 nodes on (medians
# of 4-node bins).
_FOLD_MIN_NODES = 16


class CompiledBodies:
    """Ground IR bodies compiled against one base, evaluated without recursion.

    Literals are bits of a mask of width 2n over a base of n atoms: bit
    i is atom i read positively, bit n + i atom i read negated.  Each
    node is a tuple (kind, belief mask, doubt mask, slot, parent slot,
    parent folds with and, flip), in an order in which a node runs
    after all of its children.  The belief mask holds the literals its
    belief reads, all or any of them as its kind says, and the doubt
    mask those its doubt reads; the two are equal in the nodes compiled
    here, and differ only in a list derived for one alpha (at_alpha).
    Truth constants among a node's operands are folded into the
    starting value of its slot, and a node left with no operand but
    constants into its parent's.  A node writes its value into its
    parent's slot, xor flip to convert the code.  A root writes into the
    output slot of its body, which folds like a gullibility node: in the
    knowledge code, with bitwise or, from U.  The body of head i yields bit i of the
    result masks; out_mask has every such bit and rest every other bit
    of the base.  positive has bit i for every atom i some body reads
    without "~", and negated for every atom i some body reads under "~".
    size is the number of nodes in nodes.  closures is the engine's memo of
    stability closures for these bodies; it starts empty.  A node list
    is one value (nodes, init, outs): the nodes, the start value of
    every slot, and the outs, (belief, doubt, written), the result
    masks of the output slots' start values and the (slot, bit) of every
    output some node writes into, made with the list.  An output slot
    folds with bitwise or, so evaluate reads only the written outputs;
    consequence chooses between the compiled list and at_alpha's.

    The bodies are compiled in one walk, _walk, which reads each body's
    IR code once, from the last code to the first.  Postfix read
    backwards is the tree in pre-order, a connective before its right
    and then its left operand, so a connective opens a node that stays
    open until its operands are read, and a node completes while its
    parent is still open.  A literal sets its bit in the open node's
    mask and a constant folds into its start value.  A connective of the
    open node's own kind adds its operands to that node, so a chain of
    one connective becomes one node.  A connective over two literals is
    a complete leaf, and leaves come in runs: unless a leaf was the last
    operand of the open node, a connective of the node's kind and then a
    leaf of the same kind add one operand and take it, in one loop; a
    table of the IR codes, filled once per walk, says which are guarded.
    A node takes its slot when emitted or when a child first needs it,
    so a node of constants only, which folds into its parent's start
    value, and a leaf that joins a record take none.

    Most nodes are guarded leaves: a node with no child node, its
    kind's identity as start value and a node as parent, that reads an
    atom of rest without "~" and at most one other literal, such as
    move(a,b) & ~win(b) when move(a,b) is no fact.  At every alpha
    _fold merges such a leaf into its parent, so compile keeps the
    sequence _fold walks, _seq.  In it the guarded leaves of one kind
    under one parent that read another literal, and those that do not,
    are each one record (kind, the OR of their other literals as both
    masks, None, parent slot, parent folds with and, flip), placed just
    before the parent: all that _fold reads of them.  Its other entries
    are the nodes, in post-order, with the start values of their slots
    in _starts.  A list too short for _fold, whose bodies have fewer
    connectives and lone literals than _FOLD_MIN_NODES, keeps its
    guarded leaves as nodes, and its _seq is the compiled list.
    Otherwise the compiled list is made on first use by the walk again,
    with nothing grouped, from the IR the compiled bodies keep, _ir.
    """

    __slots__ = (
        "base", "width", "outputs", "out_mask", "rest", "size", "positive", "negated",
        "closures", "_ir", "_seq", "_starts", "_list", "_forms",
    )

    def __init__(self, base: Base, bodies: Iterable[Tuple[int, tuple]]) -> None:
        n = len(base)
        self.base = base
        self.width = n
        self._ir = bodies = tuple(bodies)
        outputs = []
        out_mask = 0
        # bound >= size: a body of k connectives has 2k + 1 codes and at
        # most k nodes, a lone literal one node and a constant none
        bound = 0
        for head, code in bodies:
            outputs.append(1 << head)
            out_mask |= 1 << head
            bound += len(code) // 2 or code[0] >= LIT
        self.outputs = tuple(outputs)
        self.out_mask = out_mask
        self.rest = rest = ((1 << n) - 1) & ~out_mask
        # A list too short for _fold runs the compiled list at every
        # alpha, so it keeps its guarded leaves as nodes: grouping them
        # would cost a second walk of the bodies at once.  Without this
        # gate, 53 of the 400 corpus programs of workload seed 43 would
        # group leaves.
        seq, init, outs, records, leaves, lits = self._walk(
            rest if bound >= _FOLD_MIN_NODES else 0)
        self.size = len(seq) - records + leaves
        self._seq = seq
        self._starts = init
        self._list = None if records else (seq, init, outs)
        self.positive = lits & (1 << n) - 1
        self.negated = lits >> n
        self.closures = {}
        self._forms = [None] * 4  # at_alpha's result, by alpha's knowledge code

    def _walk(self, grouped: int):
        """One walk of the bodies' IR: (sequence, start values, outs,
        records, grouped leaves, literals read), the sequence in
        post-order with the start values of its slots, the compiled
        list's outs (no root is grouped), how many records it holds and
        how many guarded leaves they stand for, and the mask of the
        literals the bodies read.  A guarded leaf that reads an atom of
        grouped without "~", a code guard marks, goes into a record; with
        grouped 0 none does, and the sequence is the compiled list."""
        n = self.width
        at = [0] * (LIT + 2 * n)  # 1 << at[c] is the literal bit of IR code c
        at[LIT::2] = range(n)
        at[LIT + 1::2] = range(n, 2 * n)
        guard = bytearray(len(at))
        if grouped:
            guard[LIT::2] = format(grouped | 1 << n, "b")[:0:-1].encode().replace(b"0", b"\0")
        keep = ~self.rest
        init = [0] * len(self.outputs)  # the start value of every slot
        seq = []  # in post-order, each node's records just before it
        leaves = records = lits = belief = doubt = 0
        written = []  # the (slot, bit) of every output a root writes into
        for out, (bit, (_, code)) in enumerate(zip(self.outputs, self._ir)):
            i = len(code) - 1
            c = code[i]
            if c < 4:  # a constant body is its output's start value
                init[out] = c
                belief |= bit * (c & 1)
                doubt |= bit * (c >> 1)
                continue
            # The code read from the last to the first visits the tree in
            # pre-order, right operand first.  An open node is [kind,
            # literal mask, start value, slot or None, operands still to
            # read, records or None]; top is the innermost, its parent is
            # the last of stack, and the root's parent is the output.
            if c < LIT:
                top = [c - 4, 0, _START[c - 4], None, 2, None]
                i -= 1
            else:  # a lone literal is a one-operand | node
                top = [_OR, 0, _START[_OR], None, 1, None]
            stack = []
            while True:
                c = code[i]
                if c >= LIT:
                    top[1] |= 1 << at[c]
                    i -= 1
                elif c < 4:
                    c ^= _FLIP[top[0]]
                    top[2] = top[2] & c if _MEET[top[0]] else top[2] | c
                    i -= 1
                elif c - 4 == top[0]:  # its operands are top's: one chain
                    top[4] += 1
                    i -= 1
                    continue
                elif code[i - 1] >= LIT and code[i - 2] >= LIT:  # a run of leaves
                    if top[3] is None:
                        top[3] = len(init)
                        init.append(0)
                    kind, pair, groups, pslot = c - 4, top[0] + 4, top[5], top[3]
                    pmeet, pflip, start = _MEET[top[0]], _FLIP[kind] ^ _FLIP[top[0]], _START[kind]
                    while True:  # a leaf, complete
                        a, b = code[i - 1], code[i - 2]
                        i -= 3
                        mask = 1 << at[a] | 1 << at[b]
                        lits |= mask
                        if guard[a] or guard[b]:  # a non-head, at most one other: guarded
                            other = mask & keep
                            key = kind << 1 | (other != 0)
                            if groups is None:
                                groups = top[5] = {}
                            groups[key] = groups.get(key, 0) | other
                            leaves += 1
                        else:
                            seq.append((kind, mask, mask, len(init), pslot, pmeet, pflip))
                            init.append(start)
                        if (top[4] == 1 or code[i] != pair or code[i - 1] != c
                                or code[i - 2] < LIT or code[i - 3] < LIT):
                            break
                        i -= 1
                else:
                    stack.append(top)
                    top = [c - 4, 0, _START[c - 4], None, 2, None]
                    i -= 1
                    continue
                top[4] -= 1
                if top[4]:
                    continue
                node = top
                top = stack.pop() if stack else None
                while True:
                    # node is complete, and top, its parent, still open
                    kind, mask, acc, slot, _, groups = node
                    if top is None:
                        pkind, pslot = _GULL, out
                    else:
                        pkind, pslot = top[0], top[3]
                    pmeet, pflip, lits = _MEET[pkind], _FLIP[kind] ^ _FLIP[pkind], lits | mask
                    if slot is None and not mask:  # constants only
                        acc ^= pflip
                        if top is None:
                            init[out] = acc
                            belief |= bit * (acc & 1)
                            doubt |= bit * (acc >> 1)
                        else:
                            top[2] = top[2] & acc if pmeet else top[2] | acc
                    else:
                        if pslot is None:
                            pslot = top[3] = len(init)
                            init.append(0)
                        if (slot is None and mask & grouped and top is not None
                                and acc == _START[kind]
                                and not mask & keep & (mask & keep) - 1):  # a guarded leaf
                            key, pgroups = kind << 1 | (mask & keep != 0), top[5] or {}
                            pgroups[key], top[5] = pgroups.get(key, 0) | mask & keep, pgroups
                            leaves += 1
                        else:
                            if slot is None:
                                slot = len(init)
                                init.append(acc)
                            else:
                                init[slot] = acc
                            if groups:  # the records go just before their parent
                                for key, other in groups.items():
                                    ckind = key >> 1
                                    seq.append((ckind, other, other, None, slot,
                                                _MEET[kind], _FLIP[ckind] ^ _FLIP[kind]))
                                records += len(groups)
                            seq.append((kind, mask, mask, slot, pslot, pmeet, pflip))
                            if top is None:
                                written.append((out, bit))
                    if top is None:
                        break
                    top[4] -= 1
                    if top[4]:
                        break
                    node = top
                    top = stack.pop() if stack else None
                if top is None:
                    break
        return tuple(seq), init, (belief, doubt, tuple(written)), records, leaves, lits

    @property
    def nodes(self) -> tuple:
        """The nodes of the compiled list, made on first use when
        compile grouped leaves into records."""
        return (self._list or self._compiled_list())[0]

    def _compiled_list(self):
        """The compiled list of bodies compiled with records: the walk
        again, with nothing grouped."""
        self._list = self._walk(0)[:3]
        return self._list

    def at_alpha(self, alpha: TruthValue):
        """(start, rest belief, rest doubt, node list) for the default
        alpha: the valuation that gives alpha to every atom, the masks
        that give it to every atom of rest, and the node list that
        consequence runs whenever v holds alpha on every atom of rest.
        Made on first use for each alpha; the list is made by _fold,
        from _seq, when some body reads an atom of rest without "~" and
        size is at least _FOLD_MIN_NODES, and is the compiled one
        otherwise."""
        code = CONSTS.index(alpha)
        form = self._forms[code]
        if form is None:
            start = const_valuation(self.base, alpha)
            rest = self.rest
            if self.positive & rest and self.size >= _FOLD_MIN_NODES:
                node_list = self._fold(alpha)
            else:
                node_list = self._list or self._compiled_list()
            form = self._forms[code] = start, start.belief & rest, start.doubt & rest, node_list
        return form

    def consequence(self, alpha: TruthValue, v: Valuation, w: Valuation):
        """The (belief, doubt) masks of one application of the operator
        for the default alpha: every head gets its body's value, reading
        positive atoms from v and negated atoms, negated, from w, and
        every atom of rest gets alpha.  The one place that chooses the
        node list: the list of at_alpha when v holds alpha on every atom
        of rest, as every iterate of a stability closure does, and the
        compiled list otherwise, so the result is exact for any v."""
        form = self._forms[CONSTS.index(alpha)] or self.at_alpha(alpha)
        _, rest_belief, rest_doubt, node_list = form
        if (v.belief ^ rest_belief | v.doubt ^ rest_doubt) & self.rest:
            node_list = None
        belief, doubt = self.evaluate(v, w, node_list)
        return belief | rest_belief, doubt | rest_doubt

    def _fold(self, alpha: TruthValue):
        """The node list of the compiled list with every positive
        literal of an atom of rest read as alpha, made in one walk of
        _seq.

        Such a literal is the constant alpha, so it folds into its node's
        start value as compile folds a constant.  Per value, that is
        either the identity of the node's all or any, and the literal
        just goes, or its absorbing value, which settles that value and
        clears its mask.  A node whose two values are settled, or left
        with no literal and no child it keeps, folds into its parent's
        start value.  A node with no child it keeps whose each value is
        settled or reads one literal is merged into its parent: a
        settled value folds into the parent's start value, a literal
        joins the parent's mask for that value.  Every guarded leaf is
        merged so, as its parent is a node and each of its values is
        settled or reads its one other literal.  Its start is its kind's
        identity, so alpha becomes its start, and the same values are
        settled in all the leaves of one record: a record is applied in
        one step, as the merge each of its leaves would make, with the
        OR of their other literals.  A kept node left with no literal,
        its identity as start value and one kept child only passes that
        child's value on: the child writes into the node's parent in its
        place, with the two flips combined and the node's own way of
        folding into its parent, and the node goes.  Last, nodes left
        writing into a slot no kept node reads are dropped, and the
        slots are renumbered densely after the output slots.
        """
        code = CONSTS.index(alpha)  # knowledge code
        rest = self.rest
        keep = ~rest
        init = self._starts[:]
        first = len(self.outputs)  # slots below first are output slots
        add_b = [0] * len(init)  # literals merged in from children, per slot
        add_d = [0] * len(init)
        fed = [0] * len(init)  # how many kept nodes write into each slot
        feeder = [0] * len(init)  # where in kept the last of them is
        kept = []
        for kind, mb, md, s, p, pmeet, flip in self._seq:
            if s is None:  # a record: mb is the OR of its leaves' other literals
                c = code ^ _FLIP[kind]  # each leaf's start, alpha in its code
                settled = c ^ _START[kind]
                c ^= flip
                if mb:
                    if not settled & 1:
                        c = c & 2 | (1 if pmeet else 0)
                        add_b[p] |= mb
                    if not settled & 2:
                        c = c & 1 | (2 if pmeet else 0)
                        add_d[p] |= mb
                init[p] = init[p] & c if pmeet else init[p] | c
                continue
            if add_b[s] or add_d[s]:
                mb |= add_b[s]
                md |= add_d[s]
            if (mb | md) & rest:
                c = code ^ _FLIP[kind]
                init[s] = init[s] & c if _MEET[kind] else init[s] | c
                if mb is md:  # as compiled: one mask for both values
                    mb = md = mb & keep
                else:
                    mb &= keep
                    md &= keep
            settled = init[s] ^ _START[kind]  # the code bits no operand can move
            if settled & 1:
                mb = 0
            if settled & 2:
                md = 0
            if settled == 3 or (
                not fed[s] and not mb & mb - 1 and not md & md - 1
                and (p >= first or not mb | md)
            ):
                # merge: each value is settled, or one literal the parent
                # reads, and then the parent's identity in c
                c = init[s] ^ flip
                if mb:
                    c = c & 2 | (1 if pmeet else 0)
                    add_b[p] |= mb
                if md:
                    c = c & 1 | (2 if pmeet else 0)
                    add_d[p] |= md
                init[p] = init[p] & c if pmeet else init[p] | c
                continue
            if fed[s] == 1 and not mb | md and init[s] == _START[kind]:
                k = feeder[s]  # the one child, which then writes into p
                ckind, cmb, cmd, cs, _, _, cflip = kept[k]
                kept[k] = (ckind, cmb, cmd, cs, p, pmeet, cflip ^ flip)
            else:
                k = len(kept)
                kept.append((kind, mb, md, s, p, pmeet, flip))
            fed[p] += 1
            feeder[p] = k
        starts = init[:first]
        slots = {}  # old node slot: new slot
        nodes = []
        written = set()  # the output slots some kept node writes into
        for kind, mb, md, s, p, pmeet, flip in reversed(kept):  # parents first
            if p >= first:
                p = slots.get(p)
                if p is None:  # its parent was settled and not kept
                    continue
            else:
                written.add(p)
            slots[s] = len(starts)
            starts.append(init[s])
            nodes.append((kind, mb, md, slots[s], p, pmeet, flip))
        nodes.reverse()
        outputs = self.outputs
        return tuple(nodes), starts, (sum([bit for bit, c in zip(outputs, starts) if c & 1]),
                                      sum([bit for bit, c in zip(outputs, starts) if c & 2]),
                                      tuple([(s, outputs[s]) for s in sorted(written)]))

    def evaluate(self, v: Valuation, w: Valuation, node_list=None):
        """The (belief, doubt) masks of every body's value, reading
        positive atoms from v and negated atoms, negated, from w; by
        node_list, a (nodes, init, outs) of at_alpha, by default the
        compiled list."""
        nodes, init, outs = node_list or self._list or self._compiled_list()
        n = self.width
        lb = v.belief | w.doubt << n  # literals believed
        ld = v.doubt | w.belief << n  # literals doubted
        acc = init[:]
        for kind, mb, md, s, p, pmeet, flip in nodes:
            r = acc[s]
            if kind == _AND:
                if lb & mb != mb:
                    r &= 2
                if ld & md:
                    r &= 1
            elif kind == _OR:
                if lb & mb:
                    r |= 1
                if ld & md != md:
                    r |= 2
            elif kind == _CONS:
                if lb & mb != mb:
                    r &= 2
                if ld & md != md:
                    r &= 1
            else:
                if lb & mb:
                    r |= 1
                if ld & md:
                    r |= 2
            if pmeet:
                acc[p] &= r ^ flip
            else:
                acc[p] |= r ^ flip
        belief, doubt, written = outs
        for s, bit in written:
            code = acc[s]
            if code & 1:
                belief |= bit
            if code & 2:
                doubt |= bit
        return belief, doubt


def contrajoin_eval(v: Valuation, w: Valuation, body: Formula) -> TruthValue:
    """Evaluate a ground formula reading positive atoms from v and
    negated atoms, negated, from w; truth constants are themselves."""
    if v.base != w.base:
        raise BaseMismatchError("contrajoin requires both valuations over one base")
    belief, doubt = CompiledBodies(v.base, [(0, formula_code(v.base, body))]).evaluate(v, w)
    return CONSTS[belief | doubt << 1]


# pseudo_eval works on (in-true-set, in-false-set) bit pairs end to end and
# converts to a TruthValue only at the top; it shares no tables with
# CompiledBodies.
_CONST_BITS = {T: (True, False), F: (False, True), U: (False, False), I: (True, True)}


def pseudo_eval(j: PseudoInterpretation, body: Formula) -> TruthValue:
    """Evaluate a ground formula against a pseudo-interpretation:
    positive literals against j.pos, negated atoms against j.neg."""
    t, f = _pe(j, body)
    return I if t and f else T if t else F if f else U


def _pe(j, f):
    """The (in-true-set, in-false-set) bits of f under j.  Iterative: a
    binary node is visited again, as its connective, once the bits of
    both of its operands are on the value stack."""
    values = []
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is BinOp:
            t2, f2 = values.pop()
            t1, f1 = values.pop()
            if g is BinOp.AND:
                values.append((t1 and t2, f1 or f2))
            elif g is BinOp.OR:
                values.append((t1 or t2, f1 and f2))
            elif g is BinOp.CONSENSUS:
                values.append((t1 and t2, f1 and f2))
            else:
                values.append((t1 or t2, f1 or f2))
        elif isinstance(g, Binary):
            todo += (g.op, g.right, g.left)
        elif isinstance(g, Atom):
            values.append(_atom_bits(j.pos, g))
        elif isinstance(g, NegAtom):
            t, fl = _atom_bits(j.neg, g)
            values.append((fl, t))
        elif isinstance(g, TruthConst):
            values.append(_CONST_BITS[g.value])
        elif isinstance(g, (Equal, NotEqual)):
            same = _name(g.left) == _name(g.right)
            values.append((same, not same) if isinstance(g, Equal) else (not same, same))
        elif isinstance(g, Quantified):
            raise ValueError("quantifiers must be expanded by grounding before evaluation")
        else:
            raise TypeError(f"cannot evaluate {type(g).__name__} node")
    return values[0]


def _name(t) -> str:
    if not isinstance(t, Const):
        raise ValueError(f"unresolved variable {t.name} in equality")
    return t.name


def _atom_bits(interp: Interpretation, leaf):
    atom = interp.base.atoms[interp.base.locate(leaf)]
    return (atom in interp.true_set, atom in interp.false_set)
