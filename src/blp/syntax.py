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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<WS>[ \t\r\n]+)
      | (?P<COMMENT>%[^\n]*)
      | (?P<ARROW><-)
      | (?P<TRUTH>\#[tfui])
      | (?P<LIDENT>[a-z][A-Za-z0-9_]*)
      | (?P<UIDENT>[A-Z][A-Za-z0-9_]*)
      | (?P<PUNCT>[().,~&|*+=:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("WS", "COMMENT"):
            col = pos - line_start + 1
            tokens.append(_Token(chunk if kind == "PUNCT" else kind, chunk, line, col))
        if "\n" in chunk:
            line += chunk.count("\n")
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # formulas open around the current token
        self.arities: dict = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {found!r}", tok.line, tok.col)
        return self.advance()

    def program(self) -> Program:
        clauses = []
        while self.peek().kind != "EOF":
            clauses.append(self.clause())
        return Program.from_clauses(clauses)

    def clause(self) -> Clause:
        head_tok = self.peek()
        head = self.atom(scope=None)
        head_vars = set()
        for term in head.args:
            if isinstance(term, Var):
                if term.name in head_vars:
                    raise ParseError(
                        f"repeated variable {term.name} in clause head",
                        head_tok.line,
                        head_tok.col,
                    )
                head_vars.add(term.name)
        if self.peek().kind == "ARROW":
            self.advance()
            body = self.formula(frozenset(head_vars))
        else:
            body = TruthConst(T)
        self.expect(".", "'.'")
        return Clause(head, body)

    def atom(self, scope) -> Atom:
        tok = self.expect("LIDENT", "a predicate name")
        if tok.text in _KEYWORDS:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        args: list = []
        if self.peek().kind == "(":
            self.advance()
            args.append(self.term(scope))
            while self.peek().kind == ",":
                self.advance()
                args.append(self.term(scope))
            self.expect(")", "')'")
        self._check_arity(tok, len(args))
        return Atom(tok.text, tuple(args))

    def term(self, scope) -> Term:
        tok = self.peek()
        if tok.kind == "LIDENT":
            if tok.text in _KEYWORDS:
                raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
            self.advance()
            return Const(tok.text)
        if tok.kind == "UIDENT":
            self.advance()
            if scope is not None and tok.text not in scope:
                raise ParseError(
                    f"variable {tok.text} is free in the body "
                    "(not a head variable and not bound by a quantifier)",
                    tok.line,
                    tok.col,
                )
            return Var(tok.text)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)

    def formula(self, scope) -> Formula:
        # every nested formula recurses through here, so bounding the
        # depth keeps the parser far from Python's recursion limit
        if self.depth == _MAX_NESTING:
            tok = self.tokens[self.i - 1]
            raise ParseError(
                f"formula nested more than {_MAX_NESTING} levels deep",
                tok.line,
                tok.col,
            )
        self.depth += 1
        f = self._binary(scope, 0)
        self.depth -= 1
        return f

    _LEVELS = ("+", "*", "|", "&")
    _LEVEL_OPS = {
        "+": BinOp.GULLIBILITY,
        "*": BinOp.CONSENSUS,
        "|": BinOp.OR,
        "&": BinOp.AND,
    }

    def _binary(self, scope, level: int) -> Formula:
        if level == len(self._LEVELS):
            return self.unit(scope)
        tok_text = self._LEVELS[level]
        left = self._binary(scope, level + 1)
        while self.peek().kind == tok_text:
            self.advance()
            right = self._binary(scope, level + 1)
            left = Binary(self._LEVEL_OPS[tok_text], left, right)
        return left

    def unit(self, scope) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.formula(scope)
            self.expect(")", "')'")
            return inner
        if tok.kind == "~":
            self.advance()
            return self.negated(scope)
        if tok.kind == "TRUTH":
            self.advance()
            return TruthConst(_TRUTH_TOKENS[tok.text])
        if tok.kind == "LIDENT" and tok.text in _KEYWORDS:
            self.advance()
            var_tok = self.expect("UIDENT", f"a variable after {tok.text!r}")
            self.expect(":", "':'")
            body = self.formula(frozenset(scope) | {var_tok.text})
            kind = Quant.EXISTS if tok.text == "exists" else Quant.FORALL
            return Quantified(kind, var_tok.text, body)
        if tok.kind == "LIDENT":
            if self.peek(1).kind == "=":
                left = self.term(scope)
                self.advance()
                return Equal(left, self.term(scope))
            return self.atom(scope)
        if tok.kind == "UIDENT":
            left = self.term(scope)
            self.expect("=", "'=' after a variable")
            return Equal(left, self.term(scope))
        found = tok.text or "end of input"
        raise ParseError(f"expected a formula, found {found!r}", tok.line, tok.col)

    def negated(self, scope) -> Formula:
        tok = self.peek()
        if tok.kind == "TRUTH":
            self.advance()
            return TruthConst(negation(_TRUTH_TOKENS[tok.text]))
        if tok.kind == "LIDENT" and tok.text not in _KEYWORDS:
            atom = self.atom(scope)
            if self.peek().kind == "=":
                raise ParseError(
                    "parenthesize an equality under '~', as in ~(x = y)",
                    tok.line,
                    tok.col,
                )
            return NegAtom(atom.pred, atom.args)
        if tok.kind == "(":
            self.advance()
            inner = self.formula(scope)
            self.expect(")", "')'")
            return self._negate_guard(inner, tok)
        raise ParseError(
            "'~' must be followed by an atom, a truth constant, "
            "or a parenthesized guard",
            tok.line,
            tok.col,
        )

    def _negate_guard(self, f: Formula, tok: _Token) -> Formula:
        if isinstance(f, Atom):
            return NegAtom(f.pred, f.args)
        for node in walk(f):
            if isinstance(node, (Atom, NegAtom)):
                raise ParseError(
                    "'~' applies only to atoms or to guards built from "
                    "equalities and truth constants",
                    tok.line,
                    tok.col,
                )
            if isinstance(node, Quantified):
                raise ParseError(
                    "'~' may not apply to a quantified formula", tok.line, tok.col
                )
        return _push_negation(f)

    def _check_arity(self, tok: _Token, arity: int) -> None:
        seen = self.arities.get(tok.text)
        if seen is None:
            self.arities[tok.text] = (arity, tok.line, tok.col)
        elif seen[0] != arity:
            raise ParseError(
                f"predicate {tok.text} used with arity {arity} "
                f"but with arity {seen[0]} at line {seen[1]}, column {seen[2]}",
                tok.line,
                tok.col,
            )


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
    return _Parser(_tokenize(text)).program()


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


_PREC = {BinOp.GULLIBILITY: 1, BinOp.CONSENSUS: 2, BinOp.OR: 3, BinOp.AND: 4}
_TRUTH_OUT = {v: k for k, v in _TRUTH_TOKENS.items()}
_OP_TEXT = {op: f" {op.value} " for op in BinOp}


def render_term(t: Term) -> str:
    return t.name


def render_atom_text(pred: str, args) -> str:
    if not args:
        return pred
    return f"{pred}({','.join(render_term(t) for t in args)})"


def render_formula(f: Formula, min_prec: int = 0) -> str:
    """Concrete syntax for f, parenthesized where the precedence of its
    context (min_prec) needs it.  Renders with an explicit stack of text
    still to emit and (formula, min_prec) pairs still to expand; a
    node's left operand is expanded at once."""
    out = []
    todo = [(f, min_prec)]
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
