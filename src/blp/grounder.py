"""Grounding: instantiate clauses over the constant domain, expand
quantifiers, resolve equalities, and merge rules head by head.

The rules of one head fold with disjunction, as the consequence
operator aggregates alternative derivations.  An existential quantifier
becomes the disjunction of its instances over the constants, a
universal the conjunction, and over an empty domain #f and #t.
Equalities compare constant names and become truth constants.

Ground atoms are numbered in base order by arithmetic.  With the n
constants sorted, predicate p of arity k owns a block of n**k ids from
off_p on, the blocks in the order of the predicates' names, and the id
of p(c1..ck) is off_p + sum(index(cj) * n**(k - j)).  That is the order
of the texts str(GroundAtom): identifier characters [A-Za-z0-9_] all
sort above "(", "," and ")", and each predicate has one arity, so two
texts compare as their predicate names and then as their arguments,
name by name.  Identifier names and one arity per predicate are
preconditions: the parser enforces them and ground refuses a program
that breaks one.

Each clause is compiled once, by an iterative walk, into a template
(see _template): a postfix block of codes and instructions over an
environment of constant indices.  A literal is a linear form over the
environment, its constants folded into its offset, a quantifier a loop
over the constants and an equality a test.  What needs no variable is
coded at once, so a fact is its one instance's code.  A loop whose body
holds only codes and literals emits one column per item of its body: a
literal is range(start, stop, 2w) in the loop's variable, w the summed
weight of its positions, a code that code repeated; the columns are
zipped, with the fold after every instance but the first.  Bodies merge
in clause order.  The base is the heads and the atoms the codes read,
or every id with base_mode="full".  When they fill the id space the
codes are final; otherwise the ids are sorted as ints and recoded once.
Each text, kept as Base.names, is made once and joined, not formatted,
from pieces made once per constant, "c," for an argument before the
last and "c)" for the last: a block all in the base over the product of
the pieces, any other atom from its id's digits.  The base reads its
GroundAtoms back from the names on first use.

ground_tokens grounds a propositional program, one with no variable,
quantifier, equality or atom with arguments, such as the paper's
examples, straight from the token list of its text, with no AST.  One
scan of the tokens looks for a variable, a reserved word or "=" and on
finding one returns None.  Otherwise the atoms are numbered as ground
numbers them at arity 0, by their sorted names, and one pass emits each
body's postfix codes by the binding powers the parser climbs.  The path
raises no error of its own: on an atom with arguments, a negated guard
"~(", nesting at the parser's limit, malformed structure, or more codes
than GROUND_CAP, it returns None, and the caller parses and grounds the
same tokens, so the parser and ground write every error message.

The result is the ground IR, GroundProgram.ir: one (head index, code)
pair per head, in base order.  code is the merged body in postfix, a
tuple of ints with the exact tree shape of the body: 0-3 push the truth
constants U, T, F, I (CONSTS, in the knowledge code belief | doubt << 1),
4-7 apply &, |, *, + (OPS) to the two values below, LIT + 2i pushes
atom i and LIT + 2i + 1 its negation.  The engine's CompiledBodies, the
oracles' interpreter and GroundProgram.render read it, and
GroundProgram.rules is an AST view of it, built on demand.
`GroundProgram(base, ir)` is the one constructor, and `formula_code`
gives a hand-built formula's IR through Base.locate.

Before anything is expanded, ground counts what it would make: per
clause, its instances (|constants| to the number of head variables)
times the codes of one instance, each quantifier multiplying its body
by |constants|, plus the atoms of the full base.  A program whose count
passes GROUND_CAP is rejected with a ValueError naming the largest
part, rather than filling memory for minutes.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import chain, product, repeat
from operator import add, rshift, sub
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

# Names ground accepts: identifiers, which sort above "(", "," and ")".
_NAME = re.compile(r"\w*", re.ASCII)


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

    A base made by grounding keeps only its names, and reads its atoms
    back from them on the first use of atoms, index, locate, in,
    iteration, == or hash; the index is made on the first use of index,
    locate or in, and len reads names.  The engine and the oracles read
    positions and output reads names, so a CLI request makes neither.
    """

    __slots__ = ("names", "_atoms", "_index")

    def __init__(self, atoms: Iterable[GroundAtom]) -> None:
        atoms = tuple(sorted(set(atoms), key=str))
        self.names = tuple(map(str, atoms))
        self._atoms = atoms
        self._index = None

    @classmethod
    def _lazy(cls, names: tuple) -> "Base":
        """The base whose atoms have the texts names, distinct and in
        order.  Each name is an identifier, or one applied to
        identifiers, as ground's names are, so "(" and "," split it."""
        base = object.__new__(cls)
        base.names = names
        base._atoms = base._index = None
        return base

    @property
    def atoms(self) -> tuple:
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = tuple([
                GroundAtom(pred, tuple(args[:-1].split(",")) if args else ())
                for pred, _, args in [name.partition("(") for name in self.names]
            ])
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


def _arities(program: Program) -> dict:
    """{predicate: arity} of program's atoms, by an iterative walk;
    ValueError when a predicate has two arities."""
    arities: dict = {}
    for clause in program.clauses:
        todo = [clause.head, clause.body]
        while todo:
            f = todo.pop()
            kind = type(f)
            if kind is Atom or kind is NegAtom:
                k = arities.setdefault(f.pred, len(f.args))
                if k != len(f.args):
                    raise ValueError(
                        f"predicate {f.pred} used with arity {len(f.args)} and with arity {k}")
            elif kind is Binary:
                todo += (f.right, f.left)
            elif kind is Quantified:
                todo.append(f.body)
    return arities


def herbrand_base(program: Program, extra_constants: Iterable[str] = ()) -> frozenset:
    """All ground atoms over the program's predicates and constants."""
    constants = sorted(set(program.constants) | set(extra_constants))
    return frozenset([GroundAtom(pred, combo) for pred, arity in _arities(program).items()
                      for combo in product(constants, repeat=arity)])


def ground(
    program: Program,
    extra_constants: Iterable[str] = (),
    base_mode: str = "occurring",
) -> GroundProgram:
    """Instantiate, expand, resolve, and merge a program into ground form."""
    if base_mode not in ("occurring", "full"):
        raise ValueError(f"base_mode must be 'occurring' or 'full', not {base_mode!r}")
    constants = tuple(sorted(set(program.constants) | set(extra_constants)))
    n = len(constants)
    arities = _arities(program)
    if not _NAME.fullmatch("".join([*arities, *constants])):
        bad = next(name for name in (*arities, *constants) if not _NAME.fullmatch(name))
        raise ValueError(f"name {bad!r} has a character outside [A-Za-z0-9_]")
    offsets = {}  # predicate -> its first id, in predicate order
    space = 0  # ids in all: the atoms of the full base
    for pred in sorted(arities):
        offsets[pred] = space
        space += n ** arities[pred]
    index = dict(zip(constants, range(n)))
    parts = [_template(clause, offsets, index, n) for clause in program.clauses]
    # per clause, the codes its instances make
    counts = [len(block) if env is None else n ** k * _codes(block, n)
              for _, k, block, env in parts]
    full = base_mode == "full"
    _check_size(program, counts + [space] if full else counts)
    bodies: dict = {}  # head id -> merged body code
    for head, k, block, env in parts:
        if env is None:  # the finished code of the clause's one instance
            out = bodies.get(head)
            if out is None:
                bodies[head] = block
            else:
                out += block
                out.append(_OR)
            continue
        start, terms = head
        for combo in product(range(n), repeat=k):
            env[:k] = combo
            t = start
            for q, w in terms:
                t += env[q] * w
            out = bodies.get(t)
            if out is None:
                bodies[t] = out = []
                _emit(block, env, out, n)
            else:
                _emit(block, env, out, n)
                out.append(_OR)
    return _numbered(bodies, arities, offsets, constants, None if full else space)


def _check_size(program: Program, counts: list) -> None:
    """Raise ValueError when grounding would make more than GROUND_CAP
    codes and atoms, counts[i] of them for clause i and the last for the
    full base when it is made, naming the largest part."""
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
        if type(ins) is tuple and ins[0] >= _LOOP:
            count += n * _codes(ins[2], n) + n - 1 if n else 1
        else:
            count += 1
    return count


def _numbered(bodies: dict, arities: dict, offsets: dict, constants: tuple,
              space: Optional[int]) -> GroundProgram:
    """The ground program of bodies, keyed by head id, over the atoms
    the bodies head and read, out of space ids, or over every id when
    space is None (see the module docstring)."""
    order = None  # the base's ids, when they are not all ids
    if space is not None:
        codes = set().union(*bodies.values())
        # c >> 1 is a literal's id + 4 and below 4 for any other code
        occurring = set(map(rshift, codes, repeat(1)))
        occurring.difference_update(range(4))
        occurring.update(map(add, bodies, repeat(4)))
        if len(occurring) < space:
            order = list(map(sub, sorted(occurring), repeat(4)))
    if order is None:  # the ids are the base positions
        ir = tuple([(t, tuple(bodies[t])) for t in sorted(bodies)])
    else:
        position = dict(zip(order, range(len(order))))
        recode = {c: c if c < LIT else LIT + 2 * position[(c - LIT) >> 1] + (c & 1)
                  for c in codes}.__getitem__
        ir = tuple([(position[t], tuple(map(recode, bodies[t]))) for t in sorted(bodies)])
    n = len(constants)
    mids = [c + "," for c in constants]  # the text of each argument but the last
    ends = [c + ")" for c in constants]  # and of the last
    names = []  # per atom of the base, in order
    i = 0  # the first id of order not yet read
    for pred, start in offsets.items():
        k = arities[pred]
        ids = order
        if order is not None:
            j = bisect_left(order, start + n ** k, i)
            ids, i = order[i:j], j
        if ids is None or len(ids) == n ** k:  # the whole block
            block = product((pred + "(",), *[mids] * (k - 1), ends) if k else [(pred,)]
        else:  # each id's digits in base n
            block = [(pred + "(", *[mids[(t - start) // n ** e % n] for e in range(k - 1, 0, -1)],
                      ends[(t - start) % n]) for t in ids]
        names += map("".join, block)
    return GroundProgram(Base._lazy(tuple(names)), ir)


# A block is a list of codes, ints it emits as they are, and of
# instructions, tuples whose first item is their kind: (_LIT, code,
# ((position, weight), ...)) emits code plus the weighted sum of the
# environment; (_TEST, i, j, code if env[i] == env[j], code otherwise);
# (_LOOP, position, block, connective, code for an empty domain) folds
# block's instances over the constants; _COLUMNS is a _LOOP whose block
# holds only codes and _LIT items, emitted as one column per item.
_LIT, _TEST, _LOOP, _COLUMNS = range(4)


def _position(t, scope: dict, env: list, index: dict) -> int:
    """The environment position of term t: its variable's, from scope,
    or its constant's, appended to env when new."""
    if type(t) is Var:
        if t.name not in scope:
            raise ValueError(f"unbound variable {t.name} during grounding")
        return scope[t.name]
    c = index[t.name]
    if c not in env:
        env.append(c)
    return env.index(c)


def _form(atom, scope: dict, env: list, offsets: dict, index: dict, n: int):
    """The id of atom as a linear form over the environment: (its id
    with every variable at index 0, ((position, weight), ...)), read in
    base n by Horner's rule, its constants folded into the first."""
    start = 0
    weights: dict = {}
    for t in atom.args:
        start *= n
        for q in weights:
            weights[q] *= n
        if type(t) is Var:
            q = _position(t, scope, env, index)
            weights[q] = weights.get(q, 0) + 1
        else:
            start += index[t.name]
    return offsets[atom.pred] + start, tuple(weights.items())


def _template(clause: Clause, offsets: dict, index: dict, n: int):
    """Compile a clause once, by an iterative walk: (head, number of head
    variables k, body block in postfix, environment).  head is the
    linear form of the head's id, and the environment holds the head
    variables at positions 0..k-1, then the indices of the constants the
    equalities compare and one position per quantifier.  A clause with
    no variable and no quantifier is (its head's id, 0, its one
    instance's code, None).  A variable bound neither in the head nor
    by a quantifier raises ValueError."""
    head, body = clause.head, clause.body
    if type(body) is TruthConst and Var not in map(type, head.args):  # a fact, say
        t = 0
        for c in head.args:  # the head's id in base n, by Horner's rule
            t = t * n + index[c.name]
        return offsets[head.pred] + t, 0, [CONSTS.index(body.value)], None
    head_vars = list(dict.fromkeys([t.name for t in head.args if type(t) is Var]))
    env: list = [None] * len(head_vars)
    scope = {name: k for k, name in enumerate(head_vars)}
    block = out = []
    todo = [body]
    while todo:
        f = todo.pop()
        kind = type(f)
        if kind is Atom or kind is NegAtom:
            start, terms = _form(f, scope, env, offsets, index, n)
            code = LIT + 2 * start + (kind is NegAtom)
            out.append((_LIT, code, tuple([(q, 2 * w) for q, w in terms])) if terms else code)
        elif kind is Binary:
            todo += (4 + OPS.index(f.op), f.right, f.left)
        elif kind is int:  # a connective, once both operands are out
            out.append(f)
        elif kind is TruthConst:
            out.append(CONSTS.index(f.value))
        elif kind is tuple:  # the end of a quantifier body
            loop = out
            scope, out, at, folds = f
            nested = any(type(ins) is tuple and ins[0] != _LIT for ins in loop)
            out.append((_LOOP if nested else _COLUMNS, at, loop) + folds)
        elif kind is Equal or kind is NotEqual:
            left, right = f.left, f.right
            yes, no = (_T, _F) if kind is Equal else (_F, _T)
            if type(left) is type(right) is Const:
                out.append(yes if left.name == right.name else no)
                continue
            i, j = _position(left, scope, env, index), _position(right, scope, env, index)
            out.append(yes if i == j else (_TEST, i, j, yes, no))
        elif kind is Quantified:
            folds = (_OR, _F) if f.kind == Quant.EXISTS else (_AND, _T)
            todo += ((scope, out, len(env), folds), f.body)
            scope, out = {**scope, f.var: len(env)}, []
            env.append(None)
        else:
            raise TypeError(f"cannot ground {type(f).__name__} node")
    start, terms = _form(head, scope, env, offsets, index, n)
    if not env:  # no variable and no quantifier
        return start, 0, block, None
    return (start, terms), len(head_vars), block, env


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
    list is tokens, when the text is a propositional program that the
    direct path takes (see the module docstring); None for any other
    text, the texts the parser rejects included.

    The atoms are numbered before the pass, as ground numbers them at
    arity 0: an atom's id is its position among the sorted names.  That
    is the occurring base: the scan has declined every uppercase token
    and reserved word, the pass reads every token, and it reads a
    lowercase token only as an atom, so in a text it takes, the
    lowercase tokens are exactly the atoms, and the codes are final as
    they are emitted.  An atom followed by "(" has arguments, and the
    pass returns None on that "(", as on any token out of place.
    """
    if _NOT_DIRECT.search(" " + " ".join(tokens)):
        return None
    names = sorted({t for t in tokens if "a" <= t < "{"})
    lits = dict(zip(names, range(LIT, LIT + 2 * len(names), 2)))  # name -> LIT + 2 * id
    bodies: dict = {}  # head id -> merged body code
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
                c = lits[tok]
                if head is None:
                    head = (c - LIT) >> 1
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
    ir = tuple([(t, tuple(bodies[t])) for t in sorted(bodies)])
    return GroundProgram(Base._lazy(tuple(names)), ir)


def _emit(block: list, env: list, out: list, n: int) -> None:
    """Append the code of one instance of block over n constants to out.
    Recursion follows only nested quantifiers, which the parser's
    nesting limit bounds."""
    for ins in block:
        if type(ins) is int:
            out.append(ins)
            continue
        kind = ins[0]
        if kind == _LIT:
            c = ins[1]
            for q, w in ins[2]:
                c += env[q] * w
            out.append(c)
        elif kind == _TEST:
            out.append(ins[3] if env[ins[1]] == env[ins[2]] else ins[4])
        elif not n:
            out.append(ins[4])
        elif kind == _LOOP:
            _, at, loop, fold, _ = ins
            for v in range(n):
                env[at] = v
                _emit(loop, env, out, n)
                if v:
                    out.append(fold)
        else:  # one column per item of the loop's block, over the constants
            _, at, loop, fold, _ = ins
            columns = []
            for item in loop:
                if type(item) is int:
                    columns.append(repeat(item))
                    continue
                c, step = item[1], 0
                for q, w in item[2]:
                    if q == at:
                        step = w
                    else:
                        c += env[q] * w
                columns.append(iter(range(c, c + n * step, step)) if step else repeat(c))
            out += map(next, columns)  # the first instance, then each with the fold
            out += chain.from_iterable(zip(*columns, repeat(fold, n - 1)))
