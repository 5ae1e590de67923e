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

The tokenizer is one regex findall, blanks and comments skipped inside
it, and a token is its text: the parser reads its kind from the text.
A token's offset, and from it the line and column, is found by scanning
the text again only when a ParseError is raised.  The binary operators
are parsed by precedence climbing (Pratt, POPL 1973): a chain of one
operator is a loop, which recurses only where a tighter operator
follows.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
from operator import attrgetter
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


_set = object.__setattr__


class _Node:
    """An immutable AST node whose fields are its __slots__, in order.

    Equality, hashing, repr and pickling are those of a frozen dataclass
    with the same fields: two nodes are equal when they are of the same
    class and their field tuples are equal, and the hash is the field
    tuple's.  Each class writes its own __init__, which sets the fields
    through object.__setattr__, since assigning one raises.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)  # the tuple of the fields, or the one field
        cls._fields = staticmethod(get if len(names) > 1 else lambda node: (get(node),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Const(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


Term = Union[Var, Const]


class Atom(_Node):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()) -> None:
        _set(self, "pred", pred)
        _set(self, "args", args)


class NegAtom(_Node):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()) -> None:
        _set(self, "pred", pred)
        _set(self, "args", args)


class TruthConst(_Node):
    __slots__ = ("value",)

    def __init__(self, value: TruthValue) -> None:
        _set(self, "value", value)


class Equal(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class NotEqual(_Node):
    # Only produced by pushing "~" through a guard; resolved at ground time.
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Binary(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: BinOp, left: "Formula", right: "Formula") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Quantified(_Node):
    __slots__ = ("kind", "var", "body")

    def __init__(self, kind: Quant, var: str, body: "Formula") -> None:
        _set(self, "kind", kind)
        _set(self, "var", var)
        _set(self, "body", body)


Formula = Union[Atom, NegAtom, TruthConst, Equal, NotEqual, Binary, Quantified]


class Clause(_Node):
    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: Formula) -> None:
        _set(self, "head", head)
        _set(self, "body", body)


class Program(_Node):
    __slots__ = ("clauses", "constants")

    def __init__(self, clauses: tuple, constants: frozenset) -> None:
        _set(self, "clauses", clauses)
        _set(self, "constants", constants)

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

# The text of each token, the blanks and comments before it skipped in
# the same match, from one findall: no match object is made per token.
# The alternatives are tried in order, so where none of the others
# matches, the next to last one takes the rest of the text from the
# unexpected character on; the empty one matches only at the end, as the
# end-of-input token "" (twice when blanks or a comment end the text).
_SCAN = re.compile(
    r"""(?:[ \t\r\n]+|%[^\n]*)*
        ( <- | \#[tfui] | [A-Za-z][A-Za-z0-9_]* | [().,~&|*+=:] | [\s\S]+ | )""",
    re.VERBOSE,
)

# The tokens that are not identifiers: a token is one of these, or an
# identifier, which starts with an ASCII letter, or "" at the end.
_FIXED = frozenset(["<-", *_TRUTH_TOKENS, *"().,~&|*+=:"])


def _tokenize(text: str) -> list:
    """The token texts of text, ending in "".  The parser reads a token's
    kind from its text: "" ends the input, a lowercase first letter makes
    a constant or predicate name ("a" <= text < "{"), an uppercase one a
    variable ("A" <= text < "["), and a truth constant is a key of
    _TRUTH_TOKENS; any other token is punctuation or "<-"."""
    tokens = _SCAN.findall(text)
    rest = tokens[-2] if len(tokens) > 1 else ""
    if rest and rest not in _FIXED and not ("a" <= rest < "{" or "A" <= rest < "["):
        offset = len(text) - len(rest)
        raise ParseError(
            f"unexpected character {text[offset]!r}", *_position(text, offset)
        )
    return tokens


def _offset(text: str, i: int) -> int:
    """The offset of token i of text, found by scanning it again: only an
    error needs it."""
    return next(islice(_SCAN.finditer(text), i, None)).start(1)


def _position(text: str, offset: int) -> tuple:
    """(line, column) of offset, both counted from 1."""
    return (
        text.count("\n", 0, offset) + 1,
        offset - text.rfind("\n", 0, offset),
    )


class _Parser:
    """Recursive descent over the token texts; see _tokenize for how a
    token's kind is read from its text.  An error names the index of the
    token it is located at."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # formulas open around the current token
        self.arities: dict = {}  # predicate -> (arity, index of first use)
        self.constants: set = set()

    def error(self, message: str, at: int) -> ParseError:
        return ParseError(message, *self.position(at))

    def position(self, at: int) -> tuple:
        return _position(self.text, _offset(self.text, at))

    def expected(self, what: str) -> ParseError:
        found = self.tokens[self.i] or "end of input"
        return self.error(f"expected {what}, found {found!r}", self.i)

    def expect(self, text: str, what: str) -> None:
        if self.tokens[self.i] != text:
            raise self.expected(what)
        self.i += 1

    def program(self) -> Program:
        clauses = []
        while self.tokens[self.i]:
            clauses.append(self.clause())
        return Program(tuple(clauses), frozenset(self.constants))

    def clause(self) -> Clause:
        at = self.i
        head = self.atom(scope=None)
        head_vars = set()
        for term in head.args:
            if type(term) is Var:
                if term.name in head_vars:
                    raise self.error(f"repeated variable {term.name} in clause head", at)
                head_vars.add(term.name)
        if self.tokens[self.i] == "<-":
            self.i += 1
            body = self.formula(frozenset(head_vars))
        else:
            body = TruthConst(T)
        self.expect(".", "'.'")
        return Clause(head, body)

    def atom(self, scope, kind=Atom) -> "Atom | NegAtom":
        """An atom, built as kind: Atom, or NegAtom after a '~'."""
        at = self.i
        pred = self.tokens[at]
        if not "a" <= pred < "{":
            raise self.expected("a predicate name")
        if pred in _KEYWORDS:
            raise self.error(f"{pred!r} is a reserved word", at)
        self.i += 1
        args = ()
        if self.tokens[self.i] == "(":
            self.i += 1
            args = [self.term(scope)]
            while self.tokens[self.i] == ",":
                self.i += 1
                args.append(self.term(scope))
            self.expect(")", "')'")
            args = tuple(args)
        seen = self.arities.get(pred)
        if seen is None:
            self.arities[pred] = (len(args), at)
        elif seen[0] != len(args):
            line, column = self.position(seen[1])
            raise self.error(
                f"predicate {pred} used with arity {len(args)} "
                f"but with arity {seen[0]} at line {line}, column {column}",
                at,
            )
        return kind(pred, args)

    def term(self, scope) -> Term:
        text = self.tokens[self.i]
        if "a" <= text < "{":
            if text in _KEYWORDS:
                raise self.error(f"{text!r} is a reserved word", self.i)
            self.i += 1
            self.constants.add(text)
            return Const(text)
        if "A" <= text < "[":
            if scope is not None and text not in scope:
                raise self.error(
                    f"variable {text} is free in the body "
                    "(not a head variable and not bound by a quantifier)",
                    self.i,
                )
            self.i += 1
            return Var(text)
        raise self.expected("a term")

    def formula(self, scope) -> Formula:
        # every nested formula recurses through here, so bounding the
        # depth keeps the parser far from Python's recursion limit
        if self.depth == _MAX_NESTING:
            raise self.error(
                f"formula nested more than {_MAX_NESTING} levels deep", self.i - 1
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
        binding = _BINDING.get(tokens[self.i])
        while binding is not None and binding[0] >= min_prec:
            prec, op = binding
            self.i += 1
            right = self.unit(scope)
            binding = _BINDING.get(tokens[self.i])
            if binding is not None and binding[0] > prec:
                right = self.climb(right, scope, prec + 1)
                binding = _BINDING.get(tokens[self.i])
            left = Binary(op, left, right)
        return left

    def unit(self, scope) -> Formula:
        text = self.tokens[self.i]
        if "a" <= text < "{":
            if text in _KEYWORDS:
                self.i += 1
                var = self.tokens[self.i]
                if not "A" <= var < "[":
                    raise self.expected(f"a variable after {text!r}")
                self.i += 1
                self.expect(":", "':'")
                body = self.formula(frozenset(scope) | {var})
                kind = Quant.EXISTS if text == "exists" else Quant.FORALL
                return Quantified(kind, var, body)
            if self.tokens[self.i + 1] == "=":
                left = self.term(scope)
                self.i += 1
                return Equal(left, self.term(scope))
            return self.atom(scope)
        if text == "~":
            self.i += 1
            return self.negated(scope)
        if text == "(":
            return self.parenthesized(scope)
        if text in _TRUTH_TOKENS:
            self.i += 1
            return TruthConst(_TRUTH_TOKENS[text])
        if "A" <= text < "[":
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
        at = self.i
        text = self.tokens[at]
        if text in _TRUTH_TOKENS:
            self.i += 1
            return TruthConst(negation(_TRUTH_TOKENS[text]))
        if "a" <= text < "{" and text not in _KEYWORDS:
            literal = self.atom(scope, NegAtom)
            if self.tokens[self.i] == "=":
                raise self.error(
                    "parenthesize an equality under '~', as in ~(x = y)", at
                )
            return literal
        if text == "(":
            return self._negate_guard(self.parenthesized(scope), at)
        raise self.error(
            "'~' must be followed by an atom, a truth constant, "
            "or a parenthesized guard",
            at,
        )

    def _negate_guard(self, f: Formula, at: int) -> Formula:
        if isinstance(f, Atom):
            return NegAtom(f.pred, f.args)
        for node in walk(f):
            if isinstance(node, (Atom, NegAtom)):
                raise self.error(
                    "'~' applies only to atoms or to guards built from "
                    "equalities and truth constants",
                    at,
                )
            if isinstance(node, Quantified):
                raise self.error("'~' may not apply to a quantified formula", at)
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
    r"""Parse program text; raises ParseError with line and column on failure.

    A line ends at "\n" only, so "\r\n" ends one, but a lone "\r" is a
    blank: a % comment runs on past it, and a ParseError's line does
    not count it.  The command line reads its input with every "\r\n"
    and lone "\r" made "\n" first, so there a lone "\r" ends a line.
    Text that open() read in its default universal newlines mode has
    them made "\n" already, and parses here as the command line parses
    its file.
    """
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
