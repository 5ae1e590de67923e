"""Grounding: instantiate clauses over the constant domain, expand
quantifiers, resolve equality guards, and merge rules head by head.

The result has exactly one body per head atom: multiple rules for the
same head are folded with disjunction, matching how the consequence
operator aggregates alternative derivations.  An existential quantifier
becomes the disjunction of its instances over all constants, a
universal the conjunction; over an empty domain they collapse to the
fold identities #f and #t.  Equalities compare constant names and are
replaced by truth constants, so no equality survives grounding.

Each clause is compiled once into a template (see _template): postfix
instructions whose literal arguments are positions in an environment
that holds the head variables, the quantifier variables and the
clause's constants.  A chain of one connective is flat in the template,
a quantifier is a loop over the domain and an equality a test on the
environment.  Instantiating the template for one substitution appends
integer codes to its head's body, over atom ids interned from
(predicate, constant names) pairs; once the base is sorted the ids are
renumbered to base order.  The atom texts the sort keys on are kept on
the base as Base.names, which the output and the ground dump read, so
each text is made once per base.

The result is the ground IR, GroundProgram.ir: one (head index, code)
pair per head, in base order.  code is the merged body in postfix, a
tuple of ints with the exact tree shape of the body: 0-3 push the truth
constants U, T, F, I (CONSTS, in the knowledge code belief | doubt << 1),
4-7 apply &, |, *, + (OPS) to the two values below, LIT + 2i pushes
atom i and LIT + 2i + 1 its negation.  It is the one input of the
engine's CompiledBodies, the oracles' interpreter and
GroundProgram.render.  GroundProgram.rules is an AST view of it, built
on demand for bottomup and other readers of formulas.
`GroundProgram(base, ir)` is the one constructor, and `formula_code`
gives a hand-built formula's IR, finding each literal's atom through
Base.locate.

The atom universe defaults to the atoms that occur in the instantiated
rules; the full predicate-by-constant Herbrand base is available via
base_mode="full".
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .bilattice import F, I, T, U
from .syntax import (
    _OP_TEXT,
    _PREC,
    _TRUTH_OUT,
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
    walk,
)

# Ground IR codes (see the module docstring).
CONSTS = (U, T, F, I)
OPS = (BinOp.AND, BinOp.OR, BinOp.CONSENSUS, BinOp.GULLIBILITY)
LIT = 8
_T, _F = CONSTS.index(T), CONSTS.index(F)
_AND, _OR = 4 + OPS.index(BinOp.AND), 4 + OPS.index(BinOp.OR)


class GroundAtom(NamedTuple):
    """A predicate applied to constant names.  Equality and hashing are
    the tuple's, so an atom is the same dict key as its (pred, args)
    pair."""

    pred: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"

    __repr__ = __str__


class BaseMismatchError(ValueError):
    """Valuations (or a valuation and a formula) disagree on the atom universe."""


class Base:
    """Immutable, lexicographically ordered universe of ground atoms.

    Atom i is atoms[i] and names[i] its text, str(atoms[i]), which is
    also its sort key; the text is derived once per base, and output
    reads it from here.  The index is keyed by the atoms themselves,
    which are (predicate, constant names) pairs, so locate finds the
    atom of a ground literal node by the pair it builds from the node.
    """

    __slots__ = ("atoms", "names", "_index")

    def __init__(self, atoms: Iterable[GroundAtom]) -> None:
        atoms = tuple(sorted(set(atoms), key=str))
        self._set(atoms, tuple(map(str, atoms)))

    @classmethod
    def _sorted(cls, atoms: tuple, names: tuple) -> "Base":
        """The base of atoms that are distinct and already in order,
        with names their texts."""
        base = object.__new__(cls)
        base._set(atoms, names)
        return base

    def _set(self, atoms: tuple, names: tuple) -> None:
        self.atoms = atoms
        self.names = names
        self._index = dict(zip(atoms, range(len(atoms))))

    def index(self, atom: GroundAtom) -> int:
        """The position of atom; KeyError when it is not in the base."""
        return self._index[atom]

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
        return atom in self._index

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
        return f"Base({list(self.names)})"


class GroundProgram:
    """A ground program: one merged rule body per head, over a fixed base.

    ir holds the bodies as ground IR (see the module docstring) and
    rules as formulas, {head atom: body} in base order, built from the
    IR on first use.  compiled is None until the engine first evaluates
    the program; it then holds the rule bodies compiled against the
    base.  oracle_code is None until the oracles' transform first checks
    the program; it then holds the IR the transform runs, folded (see
    oracles._pinned).
    """

    __slots__ = ("base", "ir", "compiled", "oracle_code", "_rules")

    def __init__(self, base: Base, ir: tuple) -> None:
        self.base, self.ir = base, ir
        self.compiled = self.oracle_code = self._rules = None

    @property
    def rules(self) -> dict:
        if self._rules is None:
            self._rules = _formulas(self.base.atoms, self.ir)
        return self._rules

    def to_program(self) -> Program:
        clauses = [
            Clause(Atom(head.pred, tuple(Const(c) for c in head.args)), body)
            for head, body in self.rules.items()
        ]
        return Program.from_clauses(clauses)

    def render(self) -> str:
        """Concrete-syntax dump, one rule per ground atom that has one:
        render_program(self.to_program()), written straight from the IR."""
        return _render(self.base.names, self.ir)

    def __repr__(self) -> str:
        return f"GroundProgram({len(self.ir)} rules, {len(self.base)} atoms)"


def formula_code(base: Base, f: Formula) -> tuple:
    """The ground IR code of a ground formula over base.

    Raises ValueError for a quantifier or a variable, BaseMismatchError
    for an atom outside the base.  The walk is iterative.
    """
    code = []
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is int:  # a connective, once both operands are out
            code.append(g)
        elif isinstance(g, Binary):
            todo += (4 + OPS.index(g.op), g.right, g.left)
        elif isinstance(g, Atom):
            code.append(LIT + 2 * base.locate(g))
        elif isinstance(g, NegAtom):
            code.append(LIT + 1 + 2 * base.locate(g))
        elif isinstance(g, TruthConst):
            code.append(CONSTS.index(g.value))
        elif isinstance(g, (Equal, NotEqual)):
            same = _const_name(g.left) == _const_name(g.right)
            code.append(_T if same is isinstance(g, Equal) else _F)
        elif isinstance(g, Quantified):
            raise ValueError("quantifiers must be expanded by grounding before evaluation")
        else:
            raise TypeError(f"cannot evaluate {type(g).__name__} node")
    return tuple(code)


def _const_name(t) -> str:
    if not isinstance(t, Const):
        raise ValueError(f"unresolved variable {t.name} in equality")
    return t.name


def _formulas(atoms: tuple, ir: tuple) -> dict:
    """The bodies of ir as formulas, keyed by head atom; equal leaves
    are one shared node."""
    leaves = {}
    return {atoms[head]: _formula(code, atoms, leaves) for head, code in ir}


def _formula(code, atoms, leaves: dict) -> Formula:
    stack = []
    for c in code:
        if 4 <= c < LIT:
            right = stack.pop()
            stack[-1] = Binary(OPS[c - 4], stack[-1], right)
            continue
        leaf = leaves.get(c)
        if leaf is None:
            if c < 4:
                leaf = TruthConst(CONSTS[c])
            else:
                atom = atoms[(c - LIT) >> 1]
                kind = NegAtom if c & 1 else Atom
                leaf = kind(atom.pred, tuple(map(Const, atom.args)))
            leaves[c] = leaf
        stack.append(leaf)
    return stack[0]


_FACT = (_T,)
_TEXT = tuple(_TRUTH_OUT[v] for v in CONSTS) + tuple(_OP_TEXT[op] for op in OPS)
_OP_PREC = (None,) * 4 + tuple(_PREC[op] for op in OPS)
_LEAF_PREC = max(_PREC.values()) + 1  # a leaf is never parenthesized


def _render(names: tuple, ir: tuple) -> str:
    """render_program's text for the clauses "head <- body." of ir.

    syntax.render_formula parenthesizes a left operand whose connective
    binds more loosely than its parent's and a right operand whose
    connective binds no tighter.  The leaves come in the same order in
    postfix and in infix, so each leaf gets four pieces of output, an
    opening run of parentheses, its text, a closing run and the
    connective after it, and each connective fills them in for its two
    operands; the pieces are joined once at the end.
    """
    text = list(_TEXT)
    for name in names:
        text += (name, "~" + name)
    out = []
    for head, code in ir:
        if code == _FACT:
            out.append(f"{names[head]}.\n")
            continue
        out.append(f"{names[head]} <- ")
        stack = []  # (first piece, last piece, precedence) per operand
        for c in code:
            if 4 <= c < LIT:
                prec = _OP_PREC[c]
                rfirst, rlast, rprec = stack.pop()
                lfirst, llast, lprec = stack.pop()
                out[llast + 3] = text[c]
                if lprec < prec:
                    out[lfirst] += "("
                    out[llast + 2] += ")"
                if rprec <= prec:
                    out[rfirst] += "("
                    out[rlast + 2] += ")"
                stack.append((lfirst, rlast, prec))
            else:
                k = len(out)
                out += ("", text[c], "", "")
                stack.append((k, k, _LEAF_PREC))
        out.append(".\n")
    return "".join(out)


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

    # Atom ids: atoms[i] is the (pred, key) pair of atom i, and
    # tables[pred, arity][key] is 2i; key is the name tuple, or the one
    # name of a unary atom.
    tables: dict = {}
    atoms: list = []
    bodies: dict = {}  # 2 * head id -> merged body code
    for clause in program.clauses:
        table, head_key, k, block, env = _template(clause, tables)
        for combo in product(constants, repeat=k):
            env[:k] = combo
            key = head_key(env)
            t = table.get(key)
            if t is None:
                t = table[key] = 2 * len(atoms)
                atoms.append((clause.head.pred, key))
            out = bodies.get(t)
            if out is None:
                bodies[t] = out = []
                _emit(block, env, out, atoms, constants)
            else:
                _emit(block, env, out, atoms, constants)
                out.append(_OR)
    if base_mode == "full":
        for atom in herbrand_base(program, extra_constants):
            key = atom.args[0] if len(atom.args) == 1 else atom.args
            table = tables.setdefault((atom.pred, len(atom.args)), {})
            if key not in table:
                table[key] = 2 * len(atoms)
                atoms.append((atom.pred, key))
    return _program(atoms, bodies)


def _program(atoms: list, bodies: dict) -> GroundProgram:
    """The ground program of interned atoms and bodies, renumbered to
    base order."""
    texts = [
        f"{pred}({key})" if type(key) is str else f"{pred}({','.join(key)})" if key else pred
        for pred, key in atoms
    ]  # str of each atom's GroundAtom, its sort key in Base
    order = sorted(range(len(atoms)), key=texts.__getitem__)
    found = [atoms[i] for i in order]
    base = Base._sorted(tuple([
        GroundAtom(pred, (key,) if type(key) is str else key) for pred, key in found
    ]), tuple([texts[i] for i in order]))
    position = [0] * len(order)
    for k, i in enumerate(order):
        position[i] = k
    recode = list(range(LIT))  # recode[c] is code c over base positions
    for k in position:
        recode += (LIT + 2 * k, LIT + 2 * k + 1)
    recode = recode.__getitem__
    ir = tuple(sorted(
        (position[t >> 1], tuple(map(recode, body))) for t, body in bodies.items()
    ))
    return GroundProgram(base, ir)


# Template instructions, each a tuple whose first item is its kind:
# (_LIT, LIT or LIT + 1, table, predicate, key of the environment) emits a
# literal, interning its atom; (_EMIT, code) emits a constant or a
# connective; (_TEST, i, j, code if env[i] == env[j], code otherwise)
# resolves an equality; (_LOOP, position, block, connective, code for an
# empty domain) runs block once per constant and folds the instances.
_LIT, _EMIT, _TEST, _LOOP = range(4)


def _no_args(env) -> tuple:
    return ()


def _key(positions):
    """The function from an environment to the table key of the atom
    with arguments at positions."""
    return itemgetter(*positions) if positions else _no_args


def _template(clause: Clause, tables: dict):
    """Compile a clause once: (head table, head key, number of head
    variables k, body block, environment).  The environment holds the
    head variables at positions 0..k-1, then the clause's constants
    (their own names) and one position per quantifier.

    The walk is iterative and emits the body in postfix, so a chain of
    one connective becomes a flat run of instructions.  A quantifier
    body is compiled into the block of its loop, with the quantified
    variable bound to the loop's position.  A variable bound neither in
    the head nor by a quantifier raises ValueError.
    """
    head = clause.head
    head_vars = list(dict.fromkeys(t.name for t in head.args if isinstance(t, Var)))
    env = [None] * len(head_vars)
    at_const: dict = {}

    def position(t, scope):
        if isinstance(t, Var):
            if t.name not in scope:
                raise ValueError(f"unbound variable {t.name} during grounding")
            return scope[t.name]
        if t.name not in at_const:
            at_const[t.name] = len(env)
            env.append(t.name)
        return at_const[t.name]

    scope = {name: k for k, name in enumerate(head_vars)}
    head_key = _key([position(t, scope) for t in head.args])
    head_table = tables.setdefault((head.pred, len(head.args)), {})
    block = out = []
    todo = [clause.body]
    while todo:
        f = todo.pop()
        kind = type(f)
        if kind is Atom or kind is NegAtom:
            at = [position(t, scope) for t in f.args]
            table = tables.setdefault((f.pred, len(at)), {})
            out.append((_LIT, LIT + (kind is NegAtom), table, f.pred, _key(at)))
        elif kind is Binary:
            todo += (4 + OPS.index(f.op), f.right, f.left)
        elif kind is int:  # a connective, once both operands are out
            out.append((_EMIT, f))
        elif kind is TruthConst:
            out.append((_EMIT, CONSTS.index(f.value)))
        elif kind is tuple:  # the end of a quantifier body
            scope, out = f
        elif kind is Equal or kind is NotEqual:
            i, j = position(f.left, scope), position(f.right, scope)
            out.append((_TEST, i, j, _T, _F) if kind is Equal else (_TEST, i, j, _F, _T))
        elif kind is Quantified:
            loop: list = []
            folds = (_OR, _F) if f.kind == Quant.EXISTS else (_AND, _T)
            out.append((_LOOP, len(env), loop) + folds)
            todo += ((scope, out), f.body)
            scope, out = {**scope, f.var: len(env)}, loop
            env.append(None)
        else:
            raise TypeError(f"cannot ground {type(f).__name__} node")
    return head_table, head_key, len(head_vars), block, env


def _emit(block: list, env: list, out: list, atoms: list, constants: tuple) -> None:
    """Append the code of one instance of block to out.  Recursion
    follows only nested quantifiers, which the parser's nesting limit
    bounds."""
    for ins in block:
        kind = ins[0]
        if kind == _LIT:
            _, offset, table, pred, key_of = ins
            key = key_of(env)
            t = table.get(key)
            if t is None:
                t = table[key] = 2 * len(atoms)
                atoms.append((pred, key))
            out.append(t + offset)
        elif kind == _EMIT:
            out.append(ins[1])
        elif kind == _LOOP:
            _, at, loop, fold, empty = ins
            if not constants:
                out.append(empty)
            for n, c in enumerate(constants):
                env[at] = c
                _emit(loop, env, out, atoms, constants)
                if n:
                    out.append(fold)
        else:
            out.append(ins[3] if env[ins[1]] == env[ins[2]] else ins[4])

