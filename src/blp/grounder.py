"""Grounding: instantiate clauses over the constant domain, expand
quantifiers, resolve equality guards, and merge rules head by head.

The result has exactly one body per head atom: multiple rules for the
same head are folded with disjunction, matching how the consequence
operator aggregates alternative derivations.  An existential quantifier
becomes the disjunction of its instances over all constants, a
universal the conjunction; over an empty domain they collapse to the
fold identities #f and #t.  Equalities compare constant names and are
replaced by truth constants, so no equality survives grounding.

The atom universe defaults to the atoms that occur in the instantiated
rules; the full predicate-by-constant Herbrand base is available via
base_mode="full".  Base.locate is the one map from a ground literal
node to its atom's index; every evaluator reads atoms through it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .bilattice import F, T
from .syntax import (
    Atom,
    Binary,
    BinOp,
    Clause,
    Const,
    Equal,
    Formula,
    NegAtom,
    NotEqual,
    Program,
    Quant,
    Quantified,
    TruthConst,
    Var,
    render_program,
    walk,
)


class GroundAtom:
    """A predicate applied to constants; hashable, ordered by its text form."""

    __slots__ = ("pred", "args", "_hash")

    def __init__(self, pred: str, args: Iterable[str] = ()) -> None:
        self.pred = pred
        self.args = tuple(args)
        self._hash = hash((pred, self.args))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundAtom)
            and self.pred == other.pred
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"

    def __repr__(self) -> str:
        return str(self)


class BaseMismatchError(ValueError):
    """Valuations (or a valuation and a formula) disagree on the atom universe."""


class Base:
    """Immutable, lexicographically ordered universe of ground atoms.

    Atom i is atoms[i].  The index is keyed by (predicate, constant
    names) pairs, so locate finds the atom of a ground literal node
    without building a GroundAtom.
    """

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[GroundAtom]) -> None:
        self.atoms = tuple(sorted(set(atoms), key=str))
        self._index = {(a.pred, a.args): i for i, a in enumerate(self.atoms)}

    def index(self, atom: GroundAtom) -> int:
        """The position of atom; KeyError when it is not in the base."""
        if not isinstance(atom, GroundAtom):
            raise KeyError(atom)
        return self._index[atom.pred, atom.args]

    def locate(self, leaf) -> int:
        """The position of the atom a ground Atom or NegAtom node reads.

        Raises ValueError when an argument is a variable and
        BaseMismatchError when the atom is not in the base.
        """
        key = (leaf.pred, tuple([t.name for t in leaf.args]))
        i = self._index.get(key)
        if i is None or Var in map(type, leaf.args):
            for t in leaf.args:
                if isinstance(t, Var):
                    raise ValueError(f"non-ground atom {leaf.pred}: variable {t.name}")
            raise BaseMismatchError(f"atom {GroundAtom(*key)} is outside the base")
        return i

    def __contains__(self, atom) -> bool:
        return isinstance(atom, GroundAtom) and (atom.pred, atom.args) in self._index

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Base) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Base({[str(a) for a in self.atoms]})"


class GroundProgram:
    """A ground program: one merged rule body per head, over a fixed base.

    compiled is None until the engine first evaluates the program; it
    then holds the rule bodies compiled against the base.  oracle_code
    is None until an oracle first checks and compiles the program; it
    then holds the rules in the oracles' own form.
    """

    __slots__ = ("base", "rules", "not_heads", "compiled", "oracle_code")

    def __init__(self, base: Base, rules: dict, not_heads) -> None:
        self.base = base
        self.compiled = None
        self.oracle_code = None
        self.rules = {a: rules[a] for a in base.atoms if a in rules}
        self.not_heads = frozenset(not_heads)
        if len(self.rules) != len(rules):
            raise ValueError("rule head outside the base")
        if self.not_heads | set(self.rules) != set(base.atoms) or (
            self.not_heads & set(self.rules)
        ):
            raise ValueError("rules and not_heads must partition the base")

    @property
    def heads(self):
        return self.rules.keys()

    def to_program(self) -> Program:
        clauses = [
            Clause(Atom(head.pred, tuple(Const(c) for c in head.args)), body)
            for head, body in self.rules.items()
        ]
        return Program.from_clauses(clauses)

    def render(self) -> str:
        """Concrete-syntax dump, one rule per ground atom that has one."""
        return render_program(self.to_program())

    def __repr__(self) -> str:
        return f"GroundProgram({len(self.rules)} rules, {len(self.base)} atoms)"


def _signatures(program: Program) -> dict:
    sigs = {}
    for clause in program.clauses:
        sigs[clause.head.pred] = len(clause.head.args)
        for node in walk(clause.body):
            if isinstance(node, (Atom, NegAtom)):
                sigs[node.pred] = len(node.args)
    return sigs


def herbrand_base(program: Program, extra_constants: Iterable[str] = ()) -> frozenset:
    """All ground atoms over the program's predicates and constants."""
    constants = sorted(set(program.constants) | set(extra_constants))
    out = set()
    for pred, arity in _signatures(program).items():
        for combo in product(constants, repeat=arity):
            out.add(GroundAtom(pred, combo))
    return frozenset(out)


def ground(
    program: Program,
    extra_constants: Iterable[str] = (),
    base_mode: str = "occurring",
) -> GroundProgram:
    """Instantiate, expand, resolve, and merge a program into ground form."""
    if base_mode not in ("occurring", "full"):
        raise ValueError(f"base_mode must be 'occurring' or 'full', not {base_mode!r}")
    constants = tuple(sorted(set(program.constants) | set(extra_constants)))

    merged: dict = {}
    occurring: set = set()  # (pred, names) of every instantiated literal
    for clause in program.clauses:
        head_vars = list(
            dict.fromkeys(t.name for t in clause.head.args if isinstance(t, Var))
        )
        for combo in product(constants, repeat=len(head_vars)):
            subst = dict(zip(head_vars, combo))
            head = GroundAtom(
                clause.head.pred,
                tuple(
                    subst[t.name] if isinstance(t, Var) else t.name
                    for t in clause.head.args
                ),
            )
            body = _instantiate(clause.body, subst, constants, occurring)
            if head in merged:
                merged[head] = Binary(BinOp.OR, merged[head], body)
            else:
                merged[head] = body

    atoms = set(merged)
    atoms.update(GroundAtom(pred, names) for pred, names in occurring)
    if base_mode == "full":
        atoms |= herbrand_base(program, extra_constants)
    base = Base(atoms)
    not_heads = frozenset(a for a in base.atoms if a not in merged)
    return GroundProgram(base, merged, not_heads)


def _resolve_term(t, subst) -> str:
    if isinstance(t, Const):
        return t.name
    try:
        return subst[t.name]
    except KeyError:
        raise ValueError(f"unbound variable {t.name} during grounding") from None


def _instantiate(f: Formula, subst: dict, constants: tuple, occurring: set) -> Formula:
    """f with subst applied and quantifiers expanded; adds the
    (pred, names) pair of every literal to occurring.

    A left-deep chain of one operator, as the parser builds for
    "a & b & c", is walked in a loop, so the recursion only follows
    changes of operator, parentheses and quantifier bodies, which the
    parser's nesting limit bounds.
    """
    if isinstance(f, (Atom, NegAtom)):
        names = tuple([_resolve_term(t, subst) for t in f.args])
        occurring.add((f.pred, names))
        return type(f)(f.pred, tuple(map(Const, names)))
    if isinstance(f, TruthConst):
        return f
    if isinstance(f, Equal):
        same = _resolve_term(f.left, subst) == _resolve_term(f.right, subst)
        return TruthConst(T if same else F)
    if isinstance(f, NotEqual):
        same = _resolve_term(f.left, subst) == _resolve_term(f.right, subst)
        return TruthConst(F if same else T)
    if isinstance(f, Binary):
        op = f.op
        rights = []
        while isinstance(f, Binary) and f.op is op:
            rights.append(f.right)
            f = f.left
        out = _instantiate(f, subst, constants, occurring)
        for right in reversed(rights):
            out = Binary(op, out, _instantiate(right, subst, constants, occurring))
        return out
    if isinstance(f, Quantified):
        op = BinOp.OR if f.kind == Quant.EXISTS else BinOp.AND
        folded = None
        for c in constants:
            piece = _instantiate(f.body, {**subst, f.var: c}, constants, occurring)
            folded = piece if folded is None else Binary(op, folded, piece)
        if folded is None:
            return TruthConst(F if f.kind == Quant.EXISTS else T)
        return folded
    raise TypeError(f"cannot ground {type(f).__name__} node")
