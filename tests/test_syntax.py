"""Parser, renderer, and conventionality checks."""

import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from blp import syntax
from blp.bilattice import F, I, T, TruthValue, U
from blp.syntax import (
    Atom,
    Binary,
    BinOp,
    Clause,
    Const,
    Equal,
    NegAtom,
    NotEqual,
    ParseError,
    Program,
    Quant,
    Quantified,
    TruthConst,
    Var,
    is_conventional,
    parse_program,
    render_program,
)

SUSPECT = """
charge(X) <- ~innocent(X) & suspect(X).
free(X) <- innocent(X) & suspect(X).
innocent(X) <- free(X).
suspect(john).
"""


def only_clause(text):
    program = parse_program(text)
    assert len(program.clauses) == 1
    return program.clauses[0]


def test_fact_desugars_to_true_body():
    clause = only_clause("suspect(john).")
    assert clause.head == Atom("suspect", (Const("john"),))
    assert clause.body == TruthConst(T)


def test_simple_conjunction_shape():
    clause = only_clause("a <- b & c.")
    assert clause.head == Atom("a")
    assert clause.body == Binary(BinOp.AND, Atom("b"), Atom("c"))


def test_free_variable_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(X) <- q(X,Y).")
    assert "Y" in str(err.value)
    assert err.value.line == 1


def test_precedence_loosest_to_tightest():
    clause = only_clause("x <- a + b * c | d & e.")
    assert clause.body == Binary(
        BinOp.GULLIBILITY,
        Atom("a"),
        Binary(
            BinOp.CONSENSUS,
            Atom("b"),
            Binary(BinOp.OR, Atom("c"), Binary(BinOp.AND, Atom("d"), Atom("e"))),
        ),
    )


def test_left_associativity():
    clause = only_clause("x <- a & b & c.")
    assert clause.body == Binary(
        BinOp.AND, Binary(BinOp.AND, Atom("a"), Atom("b")), Atom("c")
    )


def test_quantifier_body_extends_right():
    clause = only_clause("x <- a & exists Y: p(Y) & q(Y).")
    assert clause.body == Binary(
        BinOp.AND,
        Atom("a"),
        Quantified(
            Quant.EXISTS,
            "Y",
            Binary(BinOp.AND, Atom("p", (Var("Y"),)), Atom("q", (Var("Y"),))),
        ),
    )


def test_truth_constants_and_negated_constant():
    clause = only_clause("x <- #u + ~#t.")
    assert clause.body == Binary(
        BinOp.GULLIBILITY, TruthConst(U), TruthConst(F)
    )


def test_equality_forms():
    clause = only_clause("p(X) <- X = a & b = b.")
    assert clause.body == Binary(
        BinOp.AND,
        Equal(Var("X"), Const("a")),
        Equal(Const("b"), Const("b")),
    )


def test_negated_guard_pushes_to_leaves():
    clause = only_clause("p(X,Y) <- ~(X = a & Y = c).")
    assert clause.body == Binary(
        BinOp.OR,
        NotEqual(Var("X"), Const("a")),
        NotEqual(Var("Y"), Const("c")),
    )


def test_negated_guard_with_or_and_constants():
    clause = only_clause("p(X) <- ~(X = a | #f).")
    assert clause.body == Binary(
        BinOp.AND, NotEqual(Var("X"), Const("a")), TruthConst(T)
    )


_GUARD_LEAVES = st.one_of(
    st.sampled_from([TruthConst(v) for v in TruthValue]),
    st.builds(Equal, st.sampled_from([Var("X"), Const("a")]), st.just(Const("b"))),
    st.builds(NotEqual, st.just(Var("X")), st.sampled_from([Const("a"), Const("b")])),
)
_GUARDS = st.recursive(
    _GUARD_LEAVES,
    lambda sub: st.builds(Binary, st.sampled_from(list(BinOp)), sub, sub),
    max_leaves=40,
)
_DUAL = {BinOp.AND: BinOp.OR, BinOp.OR: BinOp.AND,
         BinOp.CONSENSUS: BinOp.CONSENSUS, BinOp.GULLIBILITY: BinOp.GULLIBILITY}


def _negated_reference(f):
    """Negation pushed to the leaves by plain structural recursion."""
    if isinstance(f, Binary):
        return Binary(_DUAL[f.op], _negated_reference(f.left), _negated_reference(f.right))
    if isinstance(f, TruthConst):
        return TruthConst({T: F, F: T}.get(f.value, f.value))
    if isinstance(f, Equal):
        return NotEqual(f.left, f.right)
    return Equal(f.left, f.right)


@given(_GUARDS)
def test_negated_guard_matches_structural_recursion(guard):
    from blp.syntax import _push_negation

    assert _push_negation(guard) == _negated_reference(guard)


def test_negation_on_parenthesized_atom():
    assert only_clause("x <- ~(a).").body == NegAtom("a")


def test_negation_on_atom_containing_formula_rejected():
    with pytest.raises(ParseError):
        parse_program("x <- ~(a & b).")
    with pytest.raises(ParseError):
        parse_program("x <- ~(~a).")


def test_negation_on_quantifier_rejected():
    with pytest.raises(ParseError):
        parse_program("x <- ~(exists Y: Y = a).")


def test_unparenthesized_equality_under_negation_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(X) <- ~ X = a.")
    assert "parenthesize" in str(err.value) or "'~'" in str(err.value)


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(a). q <- p(a,b).")
    assert "arity" in str(err.value)


def test_repeated_head_variable_rejected():
    with pytest.raises(ParseError):
        parse_program("p(X,X) <- q(X).")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a <- b\nc.")
    assert err.value.line == 2


def test_reserved_words():
    with pytest.raises(ParseError):
        parse_program("exists(a).")
    with pytest.raises(ParseError):
        parse_program("p(forall).")


_GUARD_ONLY = "'~' applies only to atoms or to guards built from equalities and truth constants"
_TILDE_FOLLOW = "'~' must be followed by an atom, a truth constant, or a parenthesized guard"
_FREE = "is free in the body (not a head variable and not bound by a quantifier)"
_TOO_DEEP = "formula nested more than 100 levels deep"

# One row per raise site in blp.syntax (several for the sites reached more
# than one way): the input and the whole str() of its ParseError, so a moved
# line or column fails as surely as a changed message.
PARSE_ERRORS = [
    # unexpected character
    ("p <- q $ r.", "line 1, column 8: unexpected character '$'"),
    ("p <- q\n  & r\t@.", "line 2, column 7: unexpected character '@'"),
    ("p <- q(\u00e9).", "line 1, column 8: unexpected character '\u00e9'"),
    ("p <- q\x00.", "line 1, column 7: unexpected character '\\x00'"),
    ("a.\r\nb <- \tc $.", "line 2, column 9: unexpected character '$'"),
    ("a.\rb $", "line 1, column 6: unexpected character '$'"),
    # reserved word: in a head, as a term, inside an atom after "~"
    ("exists(a).", "line 1, column 1: 'exists' is a reserved word"),
    ("p(forall).", "line 1, column 3: 'forall' is a reserved word"),
    ("p <- ~q(exists).", "line 1, column 9: 'exists' is a reserved word"),
    # head and body variables
    ("p(X,Y,X) <- q(X).", "line 1, column 1: repeated variable X in clause head"),
    ("p(X) <- q(X,Y).", f"line 1, column 13: variable Y {_FREE}"),
    ("p(X) <- exists Y: q(Y) & r(Z).", f"line 1, column 28: variable Z {_FREE}"),
    ("\tp(X) <-\r\n\t\tq(X, Y).", f"line 2, column 8: variable Y {_FREE}"),
    # expected a predicate name, a term, a formula
    ("X.", "line 1, column 1: expected a predicate name, found 'X'"),
    ("<- a.", "line 1, column 1: expected a predicate name, found '<-'"),
    ("p(<-).", "line 1, column 3: expected a term, found '<-'"),
    ("p(a,", "line 1, column 5: expected a term, found 'end of input'"),
    ("p <- q(a, .", "line 1, column 11: expected a term, found '.'"),
    ("p <- .", "line 1, column 6: expected a formula, found '.'"),
    ("p <- q &", "line 1, column 9: expected a formula, found 'end of input'"),
    # expected '.', ')', ':'
    ("a <- b\nc.", "line 2, column 1: expected '.', found 'c'"),
    ("a <- b", "line 1, column 7: expected '.', found 'end of input'"),
    ("% head\r\n\tp <- q\r\n% end",
     "line 3, column 6: expected '.', found 'end of input'"),
    ("p <- q % trailing comment",
     "line 1, column 26: expected '.', found 'end of input'"),
    ("p <- (a.", "line 1, column 8: expected ')', found '.'"),
    ("p <- ~(a = b.", "line 1, column 13: expected ')', found '.'"),
    ("p(a.", "line 1, column 4: expected ')', found '.'"),
    ("p <- exists X q(X).", "line 1, column 15: expected ':', found 'q'"),
    # quantifier variable, '=' after a variable
    ("p <- exists a: q.", "line 1, column 13: expected a variable after 'exists', found 'a'"),
    ("p <- forall: q.", "line 1, column 12: expected a variable after 'forall', found ':'"),
    ("p <- q(a) & forall.",
     "line 1, column 19: expected a variable after 'forall', found '.'"),
    ("p(X) <- X.", "line 1, column 10: expected '=' after a variable, found '.'"),
    ("p(X) <- X & q.", "line 1, column 11: expected '=' after a variable, found '&'"),
    # negation
    ("p(X) <- ~ a = X.",
     "line 1, column 11: parenthesize an equality under '~', as in ~(x = y)"),
    ("p <- ~ &.", f"line 1, column 8: {_TILDE_FOLLOW}"),
    ("p <- ~ X = a.", f"line 1, column 8: {_TILDE_FOLLOW}"),
    ("p <- ~exists X: q.", f"line 1, column 7: {_TILDE_FOLLOW}"),
    ("x <- ~(a & b).", f"line 1, column 7: {_GUARD_ONLY}"),
    ("x <- ~(#t & ~a).", f"line 1, column 7: {_GUARD_ONLY}"),
    ("x <- ~(exists Y: Y = a).",
     "line 1, column 7: '~' may not apply to a quantified formula"),
    ("x <- ~(a = a | forall Y: #t).",
     "line 1, column 7: '~' may not apply to a quantified formula"),
    # arity clash, naming where the predicate was first used
    ("p(a).\nq <- p(a,b).",
     "line 2, column 6: predicate p used with arity 2 but with arity 1 at line 1, column 1"),
    ("p <- q.\nr <- s & \tq(a).",
     "line 2, column 11: predicate q used with arity 1 but with arity 0 at line 1, column 6"),
    ("a <- b.\r\nc <- d(e, f).\r\nd(e) <- c.",
     "line 3, column 1: predicate d used with arity 1 but with arity 2 at line 2, column 6"),
    # nesting limit: parentheses, quantifier bodies, negated guards
    ("p <- " + "(" * 150 + "q" + ")" * 150 + ".", f"line 1, column 105: {_TOO_DEEP}"),
    ("p <- " + "exists X: " * 101 + "q.", f"line 1, column 1004: {_TOO_DEEP}"),
    ("p <- " + "~(" * 101 + "#t" + ")" * 101 + ".", f"line 1, column 205: {_TOO_DEEP}"),
]


@pytest.mark.parametrize(
    "text, message", PARSE_ERRORS, ids=[f"e{i:02d}" for i in range(len(PARSE_ERRORS))]
)
def test_parse_error_message_line_and_column(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message
    line, column = message.split(":", 1)[0].split(", ")
    assert (err.value.line, err.value.column) == (int(line[5:]), int(column[7:]))


# The tokenizer as it was with one match object per token, each token a
# (kind, text, offset) triple: the reference the findall tokenizer is
# held to.
_REFERENCE_SCAN = re.compile(
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


def _reference_tokenize(text):
    tokens = [
        (m.lastgroup, m[m.lastindex], m.start(m.lastindex))
        for m in _REFERENCE_SCAN.finditer(text)
    ]
    if len(tokens) > 1 and tokens[-2][0] == "BAD":
        offset = tokens[-2][2]
        raise ParseError(
            f"unexpected character {text[offset]!r}", *syntax._position(text, offset)
        )
    return tokens


def _kind(token):
    """A token's kind, read from its text as the parser reads it."""
    if not token:
        return "EOF"
    if "a" <= token < "{":
        return "LIDENT"
    if "A" <= token < "[":
        return "UIDENT"
    if token in syntax._TRUTH_TOKENS:
        return "TRUTH"
    return "ARROW" if token == "<-" else "PUNCT"


# Pieces of text over the grammar's alphabet, and odd ones: characters no
# token starts with, "#" and "<" that start none, and non-ASCII blanks and
# letters.  Half the texts are drawn from the first kind only, so most of
# them tokenize; the other half mostly fail, at varied positions.
_PIECES = list("abfqtuzAXZ09_().,~&|*+=:") + [
    " ", "\t", "\n", "\r", "\r\n", "<-", "#t", "#f", "#u", "#i", "exists", "forall",
    "% c\n", "%", "% \xe9 #x\n",
]
_ODD = ["<", "#", "-", "#x", "<x", "\x0b", "\x0c", "\xa0", "\xe9", "\u2028", "\U0001f600"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40),
    st.lists(st.sampled_from(_PIECES + _ODD), max_size=40),
).map("".join)


@seed(20261019)
@settings(max_examples=1500, deadline=None)
@given(_TEXTS)
def test_tokenizer_matches_the_reference(text):
    try:
        want = _reference_tokenize(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            syntax._tokenize(text)
        got = err.value
        assert (str(got), got.reason, got.line, got.column) == (
            str(exc), exc.reason, exc.line, exc.column)
        return
    tokens = syntax._tokenize(text)
    assert [(_kind(t), t) for t in tokens] == [(kind, t) for kind, t, _ in want]
    assert [syntax._offset(text, i) for i in range(len(tokens))] == [o for *_, o in want]
    # the parser locates an error at a token, found by scanning again
    try:
        parse_program(text)
    except ParseError as exc:
        assert (exc.line, exc.column) in {syntax._position(text, o) for *_, o in want}


def test_comments_ignored():
    program = parse_program("% leading\na. % trailing\n% only\n")
    assert len(program.clauses) == 1
    # a comment may end the input without a newline
    assert len(parse_program("p <- q. % no newline").clauses) == 1


def test_constants_collected_from_everywhere():
    program = parse_program("p(a) <- q(b) & exists X: X = c.")
    assert program.constants == frozenset({"a", "b", "c"})


def test_parse_is_deterministic():
    assert parse_program(SUSPECT) == parse_program(SUSPECT)


def test_render_round_trip_on_examples():
    for text in (
        SUSPECT,
        "colleague(X,Y) <- (colleague(Y,X) & ~(X=a & Y=c) & ~(Y=a & X=c))"
        " | (X=a & Y=b) | (X=b & Y=a).",
        "x <- a + b * c | d & e.",
        "p <- exists X: forall Y: q(X,Y).",
        "p <- #f.",
    ):
        program = parse_program(text)
        assert parse_program(render_program(program)) == program


def test_render_tokens():
    program = parse_program("x <- #i.")
    assert "#i" in render_program(program)
    program = parse_program("x <- exists Y: p(Y).")
    assert "exists Y: (" in render_program(program)


def test_is_conventional():
    assert is_conventional(parse_program(SUSPECT))
    assert is_conventional(parse_program(SUSPECT), strict=True)
    assert not is_conventional(parse_program("d <- ~b + #t."))
    assert not is_conventional(parse_program("d <- a * b."))
    assert not is_conventional(parse_program("d <- forall X: p(X)."))
    assert not is_conventional(parse_program("d <- #u."))
    assert not is_conventional(parse_program("d <- #i."))
    assert is_conventional(parse_program(""))
    # or/exists/equality pass the plain check but not the strict one
    mixed = parse_program("d <- a | b. e(X) <- X = a.")
    assert is_conventional(mixed)
    assert not is_conventional(mixed, strict=True)


def test_is_conventional_monotone_under_subprogram():
    program = parse_program("a <- b | c. d <- ~a & b. e <- #f.")
    assert is_conventional(program)
    clauses = program.clauses
    for k in range(len(clauses)):
        sub = Program.from_clauses(clauses[:k] + clauses[k + 1:])
        assert is_conventional(sub)


# --- generated round-trip property -------------------------------------

_SIG = (("q0", 0), ("q1", 1), ("q2", 2))
_HEAD_VARS = ("X", "Y")


def _terms(scope):
    consts = [Const(c) for c in ("a", "b", "c")]
    return st.sampled_from(consts + [Var(v) for v in scope])


def _atoms(scope, cls):
    def build(sig):
        pred, arity = sig
        if arity == 0:
            return st.just(cls(pred))
        return st.tuples(*([_terms(scope)] * arity)).map(
            lambda args: cls(pred, tuple(args))
        )

    return st.sampled_from(_SIG).flatmap(build)


def _formulas(scope, depth=3):
    leaves = st.one_of(
        _atoms(scope, Atom),
        _atoms(scope, NegAtom),
        st.sampled_from([TruthConst(v) for v in TruthValue]),
        st.tuples(_terms(scope), _terms(scope)).map(lambda p: Equal(*p)),
        st.tuples(_terms(scope), _terms(scope)).map(lambda p: NotEqual(*p)),
    )
    if depth == 0:
        return leaves
    sub = _formulas(scope, depth - 1)
    binaries = st.tuples(st.sampled_from(list(BinOp)), sub, sub).map(
        lambda t: Binary(*t)
    )
    fresh = f"Z{depth}"
    quantified = st.tuples(
        st.sampled_from(list(Quant)), _formulas(scope + (fresh,), depth - 1)
    ).map(lambda t: Quantified(t[0], fresh, t[1]))
    return st.one_of(leaves, binaries, quantified)


_clauses = st.tuples(
    st.sampled_from(("r0", "r1", "r2")), _formulas(_HEAD_VARS)
).map(lambda t: Clause(Atom(t[0], (Var("X"), Var("Y"))), t[1]))

_programs = st.lists(_clauses, min_size=0, max_size=4).map(Program.from_clauses)


@given(_programs)
def test_render_parse_round_trip(program):
    assert parse_program(render_program(program)) == program
