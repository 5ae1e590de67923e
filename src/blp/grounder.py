"""Grounding: instantiate clauses over the constant domain, expand
quantifiers, resolve equality guards, and merge rules head by head.

The result has exactly one body per head atom: multiple rules for the
same head are folded with disjunction, matching how the consequence
operator aggregates alternative derivations.  An existential quantifier
becomes the disjunction of its instances over all constants, a
universal the conjunction; over an empty domain they collapse to the
fold identities #f and #t.  Equalities compare constant names and are
replaced by truth constants, so no equality survives grounding.

Each clause is compiled once, by one compiler, into a template (see
_template): a postfix block of codes and instructions whose literal
arguments are positions in an environment that holds the head
variables, the quantifier variables and the clause's constants.  A
chain of one connective is flat in the block, a quantifier is a loop
over the domain and an equality a test on the environment.  What needs
no variable is settled while compiling: a truth constant or a
connective is its code, and an equality between two constants its
truth constant.  A clause whose head has no variable, such as a fact or
a propositional rule, has one instance, so its head and each literal
outside a quantifier are interned at once, as (predicate, constant
names) pairs, and coded.  Its block, left with no instruction unless it
has a quantifier, is then that instance's finished code and is appended
to its head's body as it is.  Instantiating any other block for one
substitution appends integer codes to its head's body, over the same
interned atom ids.  Bodies merge in clause order, and once the base is
sorted the ids are renumbered to base order.  The atom texts the sort
keys on are kept on the base as Base.names, which the output and the
ground dump read, so each text is made once per base; the base makes
its GroundAtoms from the interned pairs only when they are first read.

A program with no variable, quantifier or equality, such as the paper's
propositional examples, is its own one instance, and ground_tokens
grounds it straight from the token list of its text, with no AST.  One
scan of the tokens first looks for a variable, a reserved word or "=",
and on finding one returns None before any clause is coded.  Otherwise
one pass over the tokens interns each atom as ground does and emits
each body's postfix codes, applying the operators by the binding powers
the parser climbs; the bodies then merge and are renumbered as
ground's.  The path accepts a strict subset of the language and raises
no error of its own: on a negated guard "~(", an arity clash, nesting
at the parser's limit, malformed structure, or more codes than
GROUND_CAP, it returns None, and the caller parses and grounds the same
tokens, so the parser and ground write every error message.

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

Before anything is expanded, ground counts what it would make: for each
clause, its instances (|constants| to the number of head variables)
times the codes of one instance, each quantifier multiplying its body
by |constants|, plus the atoms of the full base.  A program whose count
passes GROUND_CAP is rejected with a ValueError naming the largest
part, rather than filling memory for minutes.
"""

from __future__ import annotations

import re
from itertools import product
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .bilattice import F, I, T, U, negation
from .syntax import (
    _BINDING,
    _KEYWORDS,
    _MAX_NESTING,
    _OP_TEXT,
    _PREC,
    _TRUTH_OUT,
    _TRUTH_TOKENS,
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
    render_atom_text,
    walk,
)

# Ground IR codes (see the module docstring).
CONSTS = (U, T, F, I)
OPS = (BinOp.AND, BinOp.OR, BinOp.CONSENSUS, BinOp.GULLIBILITY)
LIT = 8
_T, _F = CONSTS.index(T), CONSTS.index(F)
_AND, _OR = 4 + OPS.index(BinOp.AND), 4 + OPS.index(BinOp.OR)

# Codes and atoms one call of ground may make (see the module docstring).
# The engine's compiled bodies hold a mask as wide as the base per node,
# so a program at the cap whose every atom heads a rule takes about
# 105 MB to evaluate; the tests' and benchmarks' largest makes 6001.
GROUND_CAP = 20_000


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

    A base made by ground keeps its interned (predicate, key) pairs and
    makes the atoms from them on the first use of atoms, index, locate,
    in, iteration, == or hash; the index is made on the first use of
    index, locate or in, and len reads names.  The engine and the
    oracles read positions and output reads names, so a CLI request
    makes neither.
    """

    __slots__ = ("names", "_pairs", "_atoms", "_index")

    def __init__(self, atoms: Iterable[GroundAtom]) -> None:
        atoms = tuple(sorted(set(atoms), key=str))
        self.names = tuple(map(str, atoms))
        self._pairs = self._index = None
        self._atoms = atoms

    @classmethod
    def _sorted(cls, pairs: list, names: tuple) -> "Base":
        """The base of the atoms of pairs, (predicate, key) pairs in
        ground's interning form that are distinct and already in order,
        with names their texts."""
        base = object.__new__(cls)
        base.names, base._pairs = names, pairs
        base._atoms = base._index = None
        return base

    @property
    def atoms(self) -> tuple:
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = tuple([
                GroundAtom(pred, (key,) if type(key) is str else key)
                for pred, key in self._pairs
            ])
            self._pairs = None
        return atoms

    @property
    def _lookup(self) -> dict:
        """The index, {atom: position}, made on first use."""
        index = self._index
        if index is None:
            atoms = self.atoms
            index = self._index = dict(zip(atoms, range(len(atoms))))
        return index

    def index(self, atom: GroundAtom) -> int:
        """The position of atom; KeyError when it is not in the base."""
        return self._lookup[atom]

    def locate(self, leaf) -> int:
        """The position of the atom a ground Atom or NegAtom node reads.

        Raises ValueError when an argument is a variable and
        BaseMismatchError when the atom is not in the base.
        """
        key = (leaf.pred, tuple([t.name for t in leaf.args]))
        i = self._lookup.get(key)
        if i is None or Var in map(type, leaf.args):
            for t in leaf.args:
                if isinstance(t, Var):
                    raise ValueError(f"non-ground atom {leaf.pred}: variable {t.name}")
            raise BaseMismatchError(f"atom {GroundAtom(*key)} is outside the base")
        return i

    def __contains__(self, atom) -> bool:
        return atom in self._lookup

    def __len__(self) -> int:
        return len(self.names)

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
    parts = []  # per clause, its template
    counts = []  # per clause, the codes its instances make
    n = len(constants)
    for clause in program.clauses:
        part = _template(clause, tables, atoms)
        _, k, block, env = part
        counts.append(len(block) if env is None else n ** k * _codes(block, n))
        parts.append(part)
    _check_size(program, counts, n, base_mode)
    for clause, (head, k, block, env) in zip(program.clauses, parts):
        if env is None:  # the finished code of the clause's one instance
            out = bodies.get(head)
            if out is None:
                bodies[head] = block
            else:
                out += block
                out.append(_OR)
            continue
        table, head_key = head
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


def _check_size(program: Program, counts: list, n: int, base_mode: str) -> None:
    """Raise ValueError when grounding over n constants would make more
    than GROUND_CAP codes and atoms, counts[i] of them for clause i,
    naming the largest part."""
    if base_mode == "full":
        counts = counts + [sum(n ** arity for arity in _signatures(program).values())]
    total = sum(counts)
    if total > GROUND_CAP:
        i = counts.index(max(counts))
        if i == len(program.clauses):
            part = "the full base"
        else:
            head = program.clauses[i].head
            part = f"clause {i + 1} ({render_atom_text(head.pred, head.args)})"
        raise ValueError(
            f"grounding would make {total} codes and atoms, more than the limit "
            f"of {GROUND_CAP}; {part} alone makes {counts[i]}"
        )


def _codes(block: list, n: int) -> int:
    """The codes one instance of block emits over n constants."""
    count = 0
    for ins in block:
        if type(ins) is tuple and ins[0] == _LOOP:
            count += n * _codes(ins[2], n) + n - 1 if n else 1
        else:
            count += 1
    return count


def _program(atoms: list, bodies: dict) -> GroundProgram:
    """The ground program of interned atoms and bodies, renumbered to
    base order."""
    texts = [
        f"{pred}({key})" if type(key) is str else f"{pred}({','.join(key)})" if key else pred
        for pred, key in atoms
    ]  # str of each atom's GroundAtom, its sort key in Base
    order = sorted(range(len(atoms)), key=texts.__getitem__)
    base = Base._sorted([atoms[i] for i in order], tuple([texts[i] for i in order]))
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


# A block is a list whose items are ints, codes it emits as they are,
# and instructions, tuples whose first item is their kind:
# (_LIT, LIT or LIT + 1, table, predicate, key of the environment) emits a
# literal, interning its atom; (_TEST, i, j, code if env[i] == env[j],
# code otherwise) resolves an equality; (_LOOP, position, block,
# connective, code for an empty domain) runs block once per constant and
# folds the instances.
_LIT, _TEST, _LOOP = range(3)


def _no_args(env) -> tuple:
    return ()


def _key(positions):
    """The function from an environment to the table key of the atom
    with arguments at positions."""
    return itemgetter(*positions) if positions else _no_args


def _position(t, scope: dict, env: list) -> int:
    """The environment position of term t: its variable's, from scope,
    or its constant's, appended to env when new."""
    if type(t) is Var:
        if t.name not in scope:
            raise ValueError(f"unbound variable {t.name} during grounding")
        return scope[t.name]
    if t.name not in env:
        env.append(t.name)
    return env.index(t.name)


def _template(clause: Clause, tables: dict, atoms: list):
    """Compile a clause once: (head, number of head variables k, body
    block, environment).  head is (head table, head key), and the
    environment holds the head variables at positions 0..k-1, then the
    clause's constants (their own names) and one position per
    quantifier.  A variable bound neither in the head nor by a
    quantifier raises ValueError.

    The walk is iterative and emits the body in postfix, a quantifier
    body into the block of its loop, and codes what needs no variable
    (see the module docstring).  When the head has no variable it is
    walked last, as a literal whose code is then popped, and a literal
    under a quantifier stays an instruction, since an empty domain
    drops it; a block left with no instruction is returned with head
    2 * the head's id and environment None.
    """
    head = clause.head
    once = Var not in map(type, head.args)  # the walk is in the one instance
    block = out = []
    if once:
        head_vars, env, scope = (), [], {}
        body = clause.body
        if type(body) is TruthConst:  # a fact: only the head is walked
            block.append(CONSTS.index(body.value))
            todo = [head]
        else:
            todo = [head, body]
    else:
        head_vars = list(dict.fromkeys([t.name for t in head.args if type(t) is Var]))
        env = [None] * len(head_vars)
        scope = {name: k for k, name in enumerate(head_vars)}
        todo = [clause.body]
    while todo:
        f = todo.pop()
        kind = type(f)
        if kind is Atom or kind is NegAtom:
            args = f.args
            if not once or args and Var in map(type, args):
                # a template literal; in the one instance, a variable is
                # unbound and _position says so
                at = [_position(t, scope, env) for t in args]
                table = tables.setdefault((f.pred, len(at)), {})
                out.append((_LIT, LIT + (kind is NegAtom), table, f.pred, _key(at)))
                continue
            if not args:
                key = ()
            else:
                key = args[0].name if len(args) == 1 else tuple([t.name for t in args])
            table = tables.get((f.pred, len(args)))
            if table is None:
                table = tables[f.pred, len(args)] = {}
            t = table.get(key)
            if t is None:
                t = table[key] = 2 * len(atoms)
                atoms.append((f.pred, key))
            out.append(t + LIT + (kind is NegAtom))
        elif kind is Binary:
            todo += (4 + OPS.index(f.op), f.right, f.left)
        elif kind is int:  # a connective, once both operands are out
            out.append(f)
        elif kind is TruthConst:
            out.append(CONSTS.index(f.value))
        elif kind is tuple:  # the end of a quantifier body
            scope, out, once = f
        elif kind is Equal or kind is NotEqual:
            left, right = f.left, f.right
            if type(left) is type(right) is Const:
                out.append(_T if (left.name == right.name) is (kind is Equal) else _F)
                continue
            i, j = _position(left, scope, env), _position(right, scope, env)
            out.append((_TEST, i, j, _T, _F) if kind is Equal else (_TEST, i, j, _F, _T))
        elif kind is Quantified:
            loop: list = []
            folds = (_OR, _F) if f.kind == Quant.EXISTS else (_AND, _T)
            out.append((_LOOP, len(env), loop) + folds)
            todo += ((scope, out, once), f.body)
            scope, out, once = {**scope, f.var: len(env)}, loop, False
            env.append(None)
        else:
            raise TypeError(f"cannot ground {type(f).__name__} node")
    if not head_vars:
        t = block.pop() - LIT
        if not env:  # only a quantifier gives the environment a position
            return t, 0, block, None
    head_table = tables.setdefault((head.pred, len(head.args)), {})
    head_key = _key([_position(t, scope, env) for t in head.args])
    return (head_table, head_key), len(head_vars), block, env


# A variable, a quantifier or an equality in the text " " + " ".join(tokens):
# a token that starts with an uppercase letter, or is a reserved word or "=".
# Each match starts at the blank, which the search looks for first.
_NOT_DIRECT = re.compile(r" (?:[A-Z]|(?:%s|=) )" % "|".join(_KEYWORDS))
# The codes of each truth constant, read as it is and under "~".
_TRUTH_CODES = {
    text: (CONSTS.index(v), CONSTS.index(negation(v))) for text, v in _TRUTH_TOKENS.items()
}
# Per operator token, (binding power, code); an open parenthesis binds
# more loosely than any operator.
_OP_CODES = {text: (prec, 4 + OPS.index(op)) for text, (prec, op) in _BINDING.items()}
_OPEN = (0, None)


def ground_tokens(tokens: list) -> Optional[GroundProgram]:
    """ground(parse_program(text)) for the text whose syntax._tokenize
    list is tokens, when the text is a variable-free program that the
    direct path takes (see the module docstring); None for any other
    text, the texts the parser rejects included."""
    if _NOT_DIRECT.search(" " + " ".join(tokens)):
        return None
    lits: dict = {}  # atom key -> LIT + 2 * id; a nullary atom's key is its predicate
    arities: dict = {}
    atoms: list = []  # per id, the (predicate, key) pair that ground interns
    bodies: dict = {}  # 2 * head id -> merged body code
    size = 0  # codes, as _check_size counts them
    i = 0
    while tokens[i]:  # a clause: its head, then "." or "<-" and its body
        head = None
        code: list = []
        ops: list = []  # pending operators and _OPEN, as (binding power, code)
        depth = 1  # formulas open, as the parser counts them: the body and each parenthesis
        while True:  # an operand and what follows it
            tok = tokens[i]
            i += 1
            negated = 0
            if head is not None:  # a body operand: parentheses, then "~"
                while tok == "(":
                    if depth == _MAX_NESTING:
                        return None
                    depth += 1
                    ops.append(_OPEN)
                    tok = tokens[i]
                    i += 1
                if tok == "~":
                    negated = 1
                    tok = tokens[i]
                    i += 1
            if "a" <= tok < "{":  # an atom; a reserved word was found above
                if tokens[i] == "(":
                    args = []
                    while True:
                        arg = tokens[i + 1]
                        if not "a" <= arg < "{":
                            return None
                        args.append(arg)
                        i += 2
                        if tokens[i] != ",":
                            break
                    if tokens[i] != ")":
                        return None
                    i += 1
                    arity = len(args)
                    key = (tok, args[0] if arity == 1 else tuple(args))
                else:
                    arity = 0
                    key = tok
                c = lits.get(key)
                if c is None:
                    if arities.setdefault(tok, arity) != arity:
                        return None
                    c = lits[key] = LIT + 2 * len(atoms)
                    atoms.append(key if arity else (tok, ()))
                if head is None:
                    head = c - LIT
                    tok = tokens[i]
                    i += 1
                    if tok == ".":
                        code.append(_T)
                        break
                    if tok != "<-":
                        return None
                    continue
                code.append(c + negated)
            elif head is not None and tok in _TRUTH_CODES:
                code.append(_TRUTH_CODES[tok][negated])
            else:
                return None
            # after an operand: closing parentheses, then an operator or "."
            tok = tokens[i]
            i += 1
            while tok == ")":
                if depth == 1:
                    return None
                while ops[-1] is not _OPEN:
                    code.append(ops.pop()[1])
                ops.pop()
                depth -= 1
                tok = tokens[i]
                i += 1
            binding = _OP_CODES.get(tok)
            if binding is None:
                if tok != "." or depth != 1:
                    return None
                while ops:
                    code.append(ops.pop()[1])
                break
            # the pending operators that bind at least as tightly apply
            # first, so a chain of one operator nests to the left
            prec = binding[0]
            while ops and ops[-1][0] >= prec:
                code.append(ops.pop()[1])
            ops.append(binding)
        size += len(code)
        if size > GROUND_CAP:
            return None
        out = bodies.get(head)
        if out is None:
            bodies[head] = code
        else:
            out += code
            out.append(_OR)
    return _program(atoms, bodies)


def _emit(block: list, env: list, out: list, atoms: list, constants: tuple) -> None:
    """Append the code of one instance of block to out.  Recursion
    follows only nested quantifiers, which the parser's nesting limit
    bounds."""
    for ins in block:
        if type(ins) is int:
            out.append(ins)
            continue
        kind = ins[0]
        if kind == _LIT:
            _, offset, table, pred, key_of = ins
            key = key_of(env)
            t = table.get(key)
            if t is None:
                t = table[key] = 2 * len(atoms)
                atoms.append((pred, key))
            out.append(t + offset)
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
