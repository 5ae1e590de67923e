"""Parser, AST, and renderer for bilattice logic programs.

Concrete syntax (ASCII):

    program  := { clause }
    clause   := atom [ "<-" formula ] "."         a bare atom is a fact
    formula  := gull
    gull     := cons { "+" cons }                  "+"  gullibility (knowledge join)
    cons     := disj { "*" disj }                  "*"  consensus   (knowledge meet)
    disj     := conj { "|" conj }                  "|"  disjunction (truth join)
    conj     := unit { "&" unit }                  "&"  conjunction (truth meet)
    unit     := literal | truth | equality | "(" formula ")"
              | ("exists" | "forall") VAR ":" formula
    literal  := atom | "~" atom | "~" truth | "~" "(" guard ")"
    truth    := "#t" | "#f" | "#u" | "#i"
    equality := term "=" term
    atom     := IDENT_LOWER [ "(" term { "," term } ")" ]
    term     := IDENT_LOWER | VAR

Identifiers starting lowercase are constants or predicate names, those
starting uppercase are variables; "exists" and "forall" are reserved.
Binary operators are left-associative and listed loosest first; a
quantifier body extends as far right as possible.  Comments run from
"%" to end of line.  A clause body nests at most 100 formulas deep: the
body, and each parenthesis, negated guard and quantifier body in it.

Negation applies to atoms and to guards: subformulas built purely from
equalities and truth constants, which the grounder resolves away.  A
negated guard is rewritten at parse time by pushing the negation to its
leaves (sound in FOUR: negation inverts the truth order, so it swaps
"&" with "|", and preserves the knowledge order, so it distributes over
"*" and "+").  Negation over anything containing an atom other than a
bare literal, or containing a quantifier, is rejected.

The tokenizer is one regex match per token, blanks and comments skipped
inside it, and a token is a (kind, text, offset) tuple; line and column
are worked out from the offset only when a ParseError is raised.  The
binary operators are parsed by precedence climbing (Pratt, POPL 1973):
a chain of one operator is a loop, which recurses only where a tighter
operator follows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .bilattice import F, T, TruthValue, negation


class ParseError(Exception):
    """Syntax or well-formedness error, carrying source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class BinOp(Enum):
    AND = "&"
    OR = "|"
    CONSENSUS = "*"
    GULLIBILITY = "+"


class Quant(Enum):
    EXISTS = "exists"
    FORALL = "forall"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class NegAtom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class TruthConst:
    value: TruthValue


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class NotEqual:
    # Only produced by pushing "~" through a guard; resolved at ground time.
    left: Term
    right: Term


@dataclass(frozen=True)
class Binary:
    op: BinOp
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quantified:
    kind: Quant
    var: str
    body: "Formula"


Formula = Union[Atom, NegAtom, TruthConst, Equal, NotEqual, Binary, Quantified]


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: Formula


@dataclass(frozen=True)
class Program:
    clauses: tuple
    constants: frozenset

    @classmethod
    def from_clauses(cls, clauses) -> "Program":
        clauses = tuple(clauses)
        consts = set()
        for clause in clauses:
            for term in clause.head.args:
                if isinstance(term, Const):
                    consts.add(term.name)
            for node in walk(clause.body):
                if isinstance(node, (Atom, NegAtom)):
                    consts.update(t.name for t in node.args if isinstance(t, Const))
                elif isinstance(node, (Equal, NotEqual)):
                    for t in (node.left, node.right):
                        if isinstance(t, Const):
                            consts.add(t.name)
        return cls(clauses, frozenset(consts))


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield every node of a formula, preorder, at any nesting depth."""
    todo = [formula]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, Binary):
            todo += (node.right, node.left)
        elif isinstance(node, Quantified):
            todo.append(node.body)


_KEYWORDS = ("exists", "forall")

_MAX_NESTING = 100  # formulas, each a parenthesis, guard or quantifier body

_TRUTH_TOKENS = {
    "#t": TruthValue.TRUE,
    "#f": TruthValue.FALSE,
    "#u": TruthValue.UNKNOWN,
    "#i": TruthValue.INCONSISTENT,
}

# Binding power of each binary operator, loosest first: the parser climbs
# these levels and the renderer parenthesizes by them.
_PREC = {BinOp.GULLIBILITY: 1, BinOp.CONSENSUS: 2, BinOp.OR: 3, BinOp.AND: 4}
_BINDING = {op.value: (prec, op) for op, prec in _PREC.items()}

# One match per token, as (kind, text, offset) with the kind PUNCT for the
# one-character tokens.  The prefix skips blanks and comments; BAD takes
# the rest of the text from an unexpected character on, and EOF matches
# only at the end (twice when blanks or a comment end the text).
_SCAN = re.compile(
    r"""(?:[ \t\r\n]+|%[^\n]*)*
        (?: (?P<ARROW><-)
          | (?P<TRUTH>\#[tfui])
          | (?P<LIDENT>[a-z][A-Za-z0-9_]*)
          | (?P<UIDENT>[A-Z][A-Za-z0-9_]*)
          | (?P<PUNCT>[().,~&|*+=:])
          | (?P<BAD>[\s\S]+)
          | (?P<EOF>) )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list:
    tokens = [
        (m.lastgroup, m[m.lastindex], m.start(m.lastindex))
        for m in _SCAN.finditer(text)
    ]
    if len(tokens) > 1 and tokens[-2][0] == "BAD":
        offset = tokens[-2][2]
        raise ParseError(
            f"unexpected character {text[offset]!r}", *_position(text, offset)
        )
    return tokens


def _position(text: str, offset: int) -> tuple:
    """(line, column) of offset, both counted from 1."""
    return (
        text.count("\n", 0, offset) + 1,
        offset - text.rfind("\n", 0, offset),
    )


class _Parser:
    """Recursive descent over the token list; punctuation is tested by its
    text, which no other kind of token can have."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # formulas open around the current token
        self.arities: dict = {}  # predicate -> (arity, offset of first use)
        self.constants: set = set()

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def expected(self, what: str) -> ParseError:
        tok = self.tokens[self.i]
        found = tok[1] or "end of input"
        return self.error(f"expected {what}, found {found!r}", tok)

    def expect(self, text: str, what: str) -> None:
        if self.tokens[self.i][1] != text:
            raise self.expected(what)
        self.i += 1

    def program(self) -> Program:
        clauses = []
        while self.tokens[self.i][0] != "EOF":
            clauses.append(self.clause())
        return Program(tuple(clauses), frozenset(self.constants))

    def clause(self) -> Clause:
        head_tok = self.tokens[self.i]
        head = self.atom(scope=None)
        head_vars = set()
        for term in head.args:
            if type(term) is Var:
                if term.name in head_vars:
                    raise self.error(
                        f"repeated variable {term.name} in clause head", head_tok
                    )
                head_vars.add(term.name)
        if self.tokens[self.i][1] == "<-":
            self.i += 1
            body = self.formula(frozenset(head_vars))
        else:
            body = TruthConst(T)
        self.expect(".", "'.'")
        return Clause(head, body)

    def atom(self, scope) -> Atom:
        tok = self.tokens[self.i]
        if tok[0] != "LIDENT":
            raise self.expected("a predicate name")
        if tok[1] in _KEYWORDS:
            raise self.error(f"{tok[1]!r} is a reserved word", tok)
        self.i += 1
        args = ()
        if self.tokens[self.i][1] == "(":
            self.i += 1
            args = [self.term(scope)]
            while self.tokens[self.i][1] == ",":
                self.i += 1
                args.append(self.term(scope))
            self.expect(")", "')'")
            args = tuple(args)
        seen = self.arities.setdefault(tok[1], (len(args), tok[2]))
        if seen[0] != len(args):
            line, column = _position(self.text, seen[1])
            raise self.error(
                f"predicate {tok[1]} used with arity {len(args)} "
                f"but with arity {seen[0]} at line {line}, column {column}",
                tok,
            )
        return Atom(tok[1], args)

    def term(self, scope) -> Term:
        tok = kind, text, _ = self.tokens[self.i]
        if kind == "LIDENT":
            if text in _KEYWORDS:
                raise self.error(f"{text!r} is a reserved word", tok)
            self.i += 1
            self.constants.add(text)
            return Const(text)
        if kind == "UIDENT":
            self.i += 1
            if scope is not None and text not in scope:
                raise self.error(
                    f"variable {text} is free in the body "
                    "(not a head variable and not bound by a quantifier)",
                    tok,
                )
            return Var(text)
        raise self.expected("a term")

    def formula(self, scope) -> Formula:
        # every nested formula recurses through here, so bounding the
        # depth keeps the parser far from Python's recursion limit
        if self.depth == _MAX_NESTING:
            raise self.error(
                f"formula nested more than {_MAX_NESTING} levels deep",
                self.tokens[self.i - 1],
            )
        self.depth += 1
        f = self.climb(self.unit(scope), scope, 1)
        self.depth -= 1
        return f

    def climb(self, left: Formula, scope, min_prec: int) -> Formula:
        """Operator-precedence climbing: extend left with every following
        operator binding at least min_prec.  A chain of one operator is
        this loop; it recurses only to a tighter operator on the right."""
        tokens = self.tokens
        binding = _BINDING.get(tokens[self.i][1])
        while binding is not None and binding[0] >= min_prec:
            prec, op = binding
            self.i += 1
            right = self.unit(scope)
            binding = _BINDING.get(tokens[self.i][1])
            if binding is not None and binding[0] > prec:
                right = self.climb(right, scope, prec + 1)
                binding = _BINDING.get(tokens[self.i][1])
            left = Binary(op, left, right)
        return left

    def unit(self, scope) -> Formula:
        tok = kind, text, _ = self.tokens[self.i]
        if kind == "LIDENT":
            if text in _KEYWORDS:
                self.i += 1
                var_tok = self.tokens[self.i]
                if var_tok[0] != "UIDENT":
                    raise self.expected(f"a variable after {text!r}")
                self.i += 1
                self.expect(":", "':'")
                body = self.formula(frozenset(scope) | {var_tok[1]})
                kind = Quant.EXISTS if text == "exists" else Quant.FORALL
                return Quantified(kind, var_tok[1], body)
            if self.tokens[self.i + 1][1] == "=":
                left = self.term(scope)
                self.i += 1
                return Equal(left, self.term(scope))
            return self.atom(scope)
        if text == "~":
            self.i += 1
            return self.negated(scope)
        if text == "(":
            return self.parenthesized(scope)
        if kind == "TRUTH":
            self.i += 1
            return TruthConst(_TRUTH_TOKENS[text])
        if kind == "UIDENT":
            left = self.term(scope)
            self.expect("=", "'=' after a variable")
            return Equal(left, self.term(scope))
        raise self.expected("a formula")

    def parenthesized(self, scope) -> Formula:
        self.i += 1
        inner = self.formula(scope)
        self.expect(")", "')'")
        return inner

    def negated(self, scope) -> Formula:
        tok = kind, text, _ = self.tokens[self.i]
        if kind == "TRUTH":
            self.i += 1
            return TruthConst(negation(_TRUTH_TOKENS[text]))
        if kind == "LIDENT" and text not in _KEYWORDS:
            atom = self.atom(scope)
            if self.tokens[self.i][1] == "=":
                raise self.error(
                    "parenthesize an equality under '~', as in ~(x = y)", tok
                )
            return NegAtom(atom.pred, atom.args)
        if text == "(":
            return self._negate_guard(self.parenthesized(scope), tok)
        raise self.error(
            "'~' must be followed by an atom, a truth constant, "
            "or a parenthesized guard",
            tok,
        )

    def _negate_guard(self, f: Formula, tok: tuple) -> Formula:
        if isinstance(f, Atom):
            return NegAtom(f.pred, f.args)
        for node in walk(f):
            if isinstance(node, (Atom, NegAtom)):
                raise self.error(
                    "'~' applies only to atoms or to guards built from "
                    "equalities and truth constants",
                    tok,
                )
            if isinstance(node, Quantified):
                raise self.error("'~' may not apply to a quantified formula", tok)
        return _push_negation(f)


_NEGATED_OP = {
    BinOp.AND: BinOp.OR,
    BinOp.OR: BinOp.AND,
    BinOp.CONSENSUS: BinOp.CONSENSUS,
    BinOp.GULLIBILITY: BinOp.GULLIBILITY,
}


def _push_negation(f: Formula) -> Formula:
    """The guard f negated, with the negation pushed to its leaves.  A
    left-deep chain of one operator is walked in a loop, so recursion
    only follows parentheses, which the nesting limit bounds."""
    if isinstance(f, TruthConst):
        return TruthConst(negation(f.value))
    if isinstance(f, Equal):
        return NotEqual(f.left, f.right)
    if isinstance(f, NotEqual):
        return Equal(f.left, f.right)
    if isinstance(f, Binary):
        op = f.op
        rights = []
        while isinstance(f, Binary) and f.op is op:
            rights.append(f.right)
            f = f.left
        out = _push_negation(f)
        for right in reversed(rights):
            out = Binary(_NEGATED_OP[op], out, _push_negation(right))
        return out
    raise TypeError(f"cannot negate {type(f).__name__} node")


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError with line and column on failure."""
    return _Parser(text).program()


def is_conventional(program: Program, strict: bool = False) -> bool:
    """True when the program avoids the knowledge connectives, the
    universal quantifier, and the U and I constants.

    With strict=True, additionally require every body to be a
    conjunction of literals (or a bare fact).
    """
    for clause in program.clauses:
        if strict and not _literal_conjunction(clause.body):
            return False
        for node in walk(clause.body):
            if isinstance(node, Binary) and node.op in (
                BinOp.CONSENSUS,
                BinOp.GULLIBILITY,
            ):
                return False
            if isinstance(node, Quantified) and node.kind == Quant.FORALL:
                return False
            if isinstance(node, TruthConst) and node.value in (
                TruthValue.UNKNOWN,
                TruthValue.INCONSISTENT,
            ):
                return False
    return True


def _literal_conjunction(f: Formula) -> bool:
    todo = [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Binary) and f.op == BinOp.AND:
            todo += (f.left, f.right)
        elif not (
            isinstance(f, (Atom, NegAtom)) or isinstance(f, TruthConst) and f.value is T
        ):
            return False
    return True


_TRUTH_OUT = {v: k for k, v in _TRUTH_TOKENS.items()}
_OP_TEXT = {op: f" {op.value} " for op in BinOp}


def render_term(t: Term) -> str:
    return t.name


def render_atom_text(pred: str, args) -> str:
    if not args:
        return pred
    return f"{pred}({','.join(render_term(t) for t in args)})"


def render_formula(f: Formula) -> str:
    """Concrete syntax for f, parenthesized where precedence needs it.
    Renders with an explicit stack of text still to emit and (formula,
    min_prec) pairs still to expand, min_prec being the precedence its
    context needs; a node's left operand is expanded at once."""
    out = []
    todo = [(f, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, min_prec = item
        while True:
            if type(f) is Binary:
                prec = _PREC[f.op]
                if prec < min_prec:
                    out.append("(")
                    todo.append(")")
                right = f.right
                todo.append(
                    (right, prec + 1)
                    if type(right) in (Binary, Quantified)
                    else _render_leaf(right)
                )
                todo.append(_OP_TEXT[f.op])
                f, min_prec = f.left, prec
            elif type(f) is Quantified:
                wrap = min_prec > 0
                out.append(f"{'(' * wrap}{f.kind.value} {f.var}: (")
                todo.append(")" * (1 + wrap))
                f, min_prec = f.body, 0
            else:
                out.append(_render_leaf(f))
                break
    return "".join(out)


def _render_leaf(f: Formula) -> str:
    if isinstance(f, Atom):
        return render_atom_text(f.pred, f.args)
    if isinstance(f, NegAtom):
        return "~" + render_atom_text(f.pred, f.args)
    if isinstance(f, TruthConst):
        return _TRUTH_OUT[f.value]
    if isinstance(f, Equal):
        return f"{render_term(f.left)} = {render_term(f.right)}"
    if isinstance(f, NotEqual):
        return f"~({render_term(f.left)} = {render_term(f.right)})"
    raise TypeError(f"cannot render {type(f).__name__} node")


def render_clause(c: Clause) -> str:
    head = render_atom_text(c.head.pred, c.head.args)
    if c.body == TruthConst(T):
        return f"{head}."
    return f"{head} <- {render_formula(c.body)}."


def render_program(p: Program) -> str:
    """Canonical text form; parse_program(render_program(p)) equals p."""
    return "".join(render_clause(c) + "\n" for c in p.clauses)
