"""Belnap's four-valued logic FOUR and finite product bilattices.

FOUR = {F, T, U, I} carries two lattice orderings.  Under the truth
ordering, meet and join generalize conjunction and disjunction; under
the knowledge ordering they are called consensus (the information two
sources agree on) and gullibility (everything either source claims).
Negation inverts the truth ordering and preserves the knowledge
ordering; conflation does the opposite.

FOUR is implemented directly with four-case tables.  No evaluator reads
them: the engine and the oracles run on bit encodings of the values
(see valuation and oracles), and the tables are the reference the tests
hold those encodings to; the parser uses negation to read ~#t.  The
generic machinery (FiniteLattice, ProductBilattice, check_bilattice_laws)
exists so the lattice and bilattice laws can be verified by exhaustion
on small carriers; the evaluation engine itself never runs on products.
"""

from __future__ import annotations

from enum import Enum
from itertools import product as _pairs
from typing import Callable, Iterable, NamedTuple


class TruthValue(Enum):
    """One of the four logical values, rendered F, T, U, I."""

    FALSE = "F"
    TRUE = "T"
    UNKNOWN = "U"
    INCONSISTENT = "I"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "TruthValue":
        try:
            return cls(symbol)
        except ValueError:
            raise ValueError(
                f"unknown truth symbol {symbol!r} (expected one of F, T, U, I)"
            ) from None


F = TruthValue.FALSE
T = TruthValue.TRUE
U = TruthValue.UNKNOWN
I = TruthValue.INCONSISTENT  # noqa: E741

# Each value doubles as a pair of (belief, doubt) bits; the four-case
# operator tables below are generated from that encoding once at import.
_BITS = {F: (0, 1), T: (1, 0), U: (0, 0), I: (1, 1)}
_OF_BITS = {bits: tv for tv, bits in _BITS.items()}


def _derive(op: Callable) -> dict:
    return {
        a: {b: _OF_BITS[op(_BITS[a], _BITS[b])] for b in TruthValue}
        for a in TruthValue
    }


_AND = _derive(lambda x, y: (min(x[0], y[0]), max(x[1], y[1])))
_OR = _derive(lambda x, y: (max(x[0], y[0]), min(x[1], y[1])))
_CONS = _derive(lambda x, y: (min(x[0], y[0]), min(x[1], y[1])))
_GULL = _derive(lambda x, y: (max(x[0], y[0]), max(x[1], y[1])))
_NOT = {F: T, T: F, U: U, I: I}
_MINUS = {U: I, I: U, F: F, T: T}


def truth_meet(a: TruthValue, b: TruthValue) -> TruthValue:
    """Greatest lower bound under the truth ordering (conjunction)."""
    return _AND[a][b]


def truth_join(a: TruthValue, b: TruthValue) -> TruthValue:
    """Least upper bound under the truth ordering (disjunction)."""
    return _OR[a][b]


def know_meet(a: TruthValue, b: TruthValue) -> TruthValue:
    """Greatest lower bound under the knowledge ordering (consensus)."""
    return _CONS[a][b]


def know_join(a: TruthValue, b: TruthValue) -> TruthValue:
    """Least upper bound under the knowledge ordering (gullibility)."""
    return _GULL[a][b]


def negation(a: TruthValue) -> TruthValue:
    """Truth-order involution: swaps F and T, fixes U and I."""
    return _NOT[a]


def conflation(a: TruthValue) -> TruthValue:
    """Knowledge-order involution: swaps U and I, fixes F and T."""
    return _MINUS[a]


def leq_t(a: TruthValue, b: TruthValue) -> bool:
    (ab, ad), (bb, bd) = _BITS[a], _BITS[b]
    return ab <= bb and bd <= ad


def leq_k(a: TruthValue, b: TruthValue) -> bool:
    (ab, ad), (bb, bd) = _BITS[a], _BITS[b]
    return ab <= bb and ad <= bd


def big_join_t(values: Iterable[TruthValue]) -> TruthValue:
    """Fold of truth-join; the empty fold is F (the truth bottom)."""
    out = F
    for v in values:
        out = _OR[out][v]
    return out


def big_meet_t(values: Iterable[TruthValue]) -> TruthValue:
    """Fold of truth-meet; the empty fold is T (the truth top)."""
    out = T
    for v in values:
        out = _AND[out][v]
    return out


def big_join_k(values: Iterable[TruthValue]) -> TruthValue:
    """Fold of gullibility; the empty fold is U (the knowledge bottom)."""
    out = U
    for v in values:
        out = _GULL[out][v]
    return out


def big_meet_k(values: Iterable[TruthValue]) -> TruthValue:
    """Fold of consensus; the empty fold is I (the knowledge top)."""
    out = I
    for v in values:
        out = _CONS[out][v]
    return out


class LatticeError(ValueError):
    """The input does not satisfy the lattice axioms."""


class FiniteLattice:
    """A finite lattice: a carrier plus a partial order, meets and joins derived.

    The order may be given as a predicate or as an iterable of (lo, hi)
    pairs (reflexive pairs may be omitted).  Construction fails with
    LatticeError unless the relation is a partial order under which
    every pair of elements has a unique meet and join.
    """

    def __init__(self, elements: Iterable, leq) -> None:
        self.elements = tuple(dict.fromkeys(elements))
        if not self.elements:
            raise LatticeError("lattice carrier must be nonempty")
        if callable(leq):
            rel = {(a, b) for a in self.elements for b in self.elements if leq(a, b)}
        else:
            rel = set(leq)
            stray = {x for pair in rel for x in pair} - set(self.elements)
            if stray:
                raise LatticeError(f"order mentions unknown elements: {sorted(map(str, stray))}")
            rel |= {(e, e) for e in self.elements}
        self._rel = frozenset(rel)
        self._validate_order()
        self._meet: dict = {}
        self._join: dict = {}
        self._derive_bounds()
        self.bottom = self._fold(self.meet)
        self.top = self._fold(self.join)

    @classmethod
    def chain(cls, n: int) -> "FiniteLattice":
        """The n-element total order 0 < 1 < ... < n-1."""
        return cls(range(n), lambda a, b: a <= b)

    def leq(self, a, b) -> bool:
        return (a, b) in self._rel

    def meet(self, a, b):
        return self._meet[a, b]

    def join(self, a, b):
        return self._join[a, b]

    def _validate_order(self) -> None:
        for a in self.elements:
            if (a, a) not in self._rel:
                raise LatticeError(f"order is not reflexive at {a!r}")
        for a, b in self._rel:
            if a != b and (b, a) in self._rel:
                raise LatticeError(f"order is not antisymmetric on {a!r}, {b!r}")
        for a, b in self._rel:
            for c in self.elements:
                if (b, c) in self._rel and (a, c) not in self._rel:
                    raise LatticeError(f"order is not transitive via {a!r} <= {b!r} <= {c!r}")

    def _derive_bounds(self) -> None:
        for a, b in _pairs(self.elements, repeat=2):
            lows = [x for x in self.elements if self.leq(x, a) and self.leq(x, b)]
            glb = [x for x in lows if all(self.leq(y, x) for y in lows)]
            highs = [x for x in self.elements if self.leq(a, x) and self.leq(b, x)]
            lub = [x for x in highs if all(self.leq(x, y) for y in highs)]
            if len(glb) != 1 or len(lub) != 1:
                raise LatticeError(f"elements {a!r}, {b!r} lack a unique meet or join")
            self._meet[a, b] = glb[0]
            self._join[a, b] = lub[0]

    def _fold(self, op):
        out = self.elements[0]
        for e in self.elements[1:]:
            out = op(out, e)
        return out

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r})"


class ProductBilattice:
    """Pairs (belief degree, doubt degree) over two factor lattices.

    Truth rises with belief and falls with doubt; knowledge rises with
    both.  The four distinguished corners play the roles of T, F, U, I.
    """

    def __init__(self, left: FiniteLattice, right: FiniteLattice) -> None:
        self.left = left
        self.right = right
        self.elements = tuple(_pairs(left.elements, right.elements))

    def leq_t(self, a, b) -> bool:
        return self.left.leq(a[0], b[0]) and self.right.leq(b[1], a[1])

    def leq_k(self, a, b) -> bool:
        return self.left.leq(a[0], b[0]) and self.right.leq(a[1], b[1])

    def meet_t(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.join(a[1], b[1]))

    def join_t(self, a, b):
        return (self.left.join(a[0], b[0]), self.right.meet(a[1], b[1]))

    def meet_k(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.meet(a[1], b[1]))

    def join_k(self, a, b):
        return (self.left.join(a[0], b[0]), self.right.join(a[1], b[1]))

    @property
    def true_element(self):
        return (self.left.top, self.right.bottom)

    @property
    def false_element(self):
        return (self.left.bottom, self.right.top)

    @property
    def unknown_element(self):
        return (self.left.bottom, self.right.bottom)

    @property
    def inconsistent_element(self):
        return (self.left.top, self.right.top)

    def __repr__(self) -> str:
        return f"ProductBilattice({len(self.elements)} elements)"


def make_product(left: FiniteLattice, right: FiniteLattice) -> ProductBilattice:
    """Build the product bilattice of two finite factor lattices."""
    if not isinstance(left, FiniteLattice) or not isinstance(right, FiniteLattice):
        raise LatticeError("make_product expects two FiniteLattice factors")
    return ProductBilattice(left, right)


class _FourOps:
    """FOUR exposed through the generic bilattice interface, for the law checker."""

    elements = tuple(TruthValue)

    @staticmethod
    def leq_t(a, b):
        return leq_t(a, b)

    @staticmethod
    def leq_k(a, b):
        return leq_k(a, b)

    meet_t = staticmethod(truth_meet)
    join_t = staticmethod(truth_join)
    meet_k = staticmethod(know_meet)
    join_k = staticmethod(know_join)


FOUR_BILATTICE = _FourOps()


class LawReport(NamedTuple):
    """Outcome of an exhaustive bilattice law check, one entry per law."""

    results: tuple

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)

    def failures(self) -> list:
        return [name for name, ok in self.results if not ok]


def check_bilattice_laws(b) -> LawReport:
    """Exhaustively verify the 12 distributive laws and the interlacing
    (monotonicity) conditions on a finite bilattice-like object.

    Accepts anything exposing elements, leq_t/leq_k, and the four meet
    and join operations, so deliberately corrupted tables can be checked
    as a falsification control.
    """
    ops = [
        ("and", b.meet_t),
        ("or", b.join_t),
        ("consensus", b.meet_k),
        ("gullibility", b.join_k),
    ]
    orders = [("truth", b.leq_t), ("knowledge", b.leq_k)]
    els = tuple(b.elements)
    results = []
    for n1, f in ops:
        for n2, g in ops:
            if n1 == n2:
                continue
            ok = all(
                f(x, g(y, z)) == g(f(x, y), f(x, z))
                for x in els
                for y in els
                for z in els
            )
            results.append((f"{n1}_distributes_over_{n2}", ok))
    for n1, f in ops:
        for n2, rel in orders:
            ok = all(
                rel(f(x1, x2), f(y1, y2))
                for x1 in els
                for y1 in els
                if rel(x1, y1)
                for x2 in els
                for y2 in els
                if rel(x2, y2)
            )
            results.append((f"{n1}_monotone_under_{n2}", ok))
    return LawReport(tuple(results))
