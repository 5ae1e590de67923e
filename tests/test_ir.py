"""The ground IR: its two producers, its renderer and the oracles' reading of it."""

import pathlib
import sys

import pytest

from blp import oracles
from blp.bilattice import F, T
from blp.grounder import CONSTS, LIT, GroundAtom, formula_code, ground
from blp.oracles import ConventionalityError
from blp.syntax import (
    Binary,
    BinOp,
    TruthConst,
    parse_program,
    render_formula,
    render_program,
    walk,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "blpbench"))
import workloads  # noqa: E402

CORPORA = ("mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus")


def workload_programs():
    """The ground programs of seeds 0-3 of every benchmark workload."""
    return [
        ground(parse_program(prog.text))
        for name in workloads.WORKLOADS
        for seed in range(4)
        for prog in workloads.build(name, seed).programs.values()
    ]


def assert_one_ir(gp):
    """The template grounder's IR is the converter's IR of gp.rules, and
    render is render_formula's text of gp.rules."""
    rules = gp.rules
    index = gp.base.index
    assert gp.ir == tuple((index(h), formula_code(gp.base, b)) for h, b in rules.items())
    assert gp.render() == render_program(gp.to_program())


@pytest.mark.parametrize("corpus", CORPORA)
def test_both_producers_give_one_ir_on_the_corpora(corpus, request):
    for gp in request.getfixturevalue(corpus):
        assert_one_ir(gp)


def test_both_producers_give_one_ir_on_the_workloads():
    gps = workload_programs()
    assert len(gps) > 1500
    for gp in gps:
        assert_one_ir(gp)


def test_render_of_ground_text_regrounds_to_the_same_ir():
    for gp in workload_programs()[::7]:
        again = ground(parse_program(gp.render()))
        assert again.base == gp.base and again.ir == gp.ir


def test_render_matches_render_formula_on_the_long_inputs():
    texts = [
        "".join(f"p <- q{i}.\n" for i in range(3000)),
        "".join(f"e(c{i}).\n" for i in range(1500)) + "p <- exists X: e(X).\n",
        "p <- " + " & ".join(f"q{i}" for i in range(3000)) + ".\n",
        "p <- q & ~(" + " & ".join(["#t"] * 3000) + ").\n",
        "p <- " + "".join(f"(q{i} & " for i in range(99)) + "q" + ")" * 99 + ".\n",
    ]
    for text in texts:
        gp = ground(parse_program(text))
        want = render_program(gp.to_program())
        assert gp.render() == want


def test_render_parenthesizes_like_render_formula():
    for text in ("a & (b | c)", "(a & b) | c", "a & (b & c)", "(a | b) & (c | d)",
                 "a * (b + c) * d", "(a + b) * (c & (d | e))", "~a | (#u & (#i * b))",
                 "exists X: r(X) & (s(X) | t(X))", "a | (b | (c | d))"):
        gp = ground(parse_program(f"h <- {text}. r(x). r(y)."))
        assert gp.render() == render_program(gp.to_program())
        body = gp.rules[next(a for a in gp.rules if str(a) == "h")]
        assert f"h <- {render_formula(body)}.\n" in gp.render()


def _pinned_code(gp, pred):
    rules = oracles._pinned(gp)[0]
    (code,) = [code for head, code in rules if gp.base.atoms[head].pred == pred]
    return code


def test_pinned_code_folds_the_pinned_atoms_and_the_constants():
    # q heads no rule, so a & q is F, which the disjunction drops, and
    # ~b & #t is ~b: the rule of h is the one literal ~b
    gp = ground(parse_program("h <- (a & q) | (~b & #t). a. b."))
    b = gp.base.index(GroundAtom("b"))
    assert _pinned_code(gp, "h") == (LIT + 2 * b + 1,)
    gp = ground(parse_program("p <- q | #t."))
    assert _pinned_code(gp, "p") == (CONSTS.index(T),)
    # a body with no constant folds too when it reads a pinned atom
    gp = ground(parse_program("h <- a & q. a <- ~h."))
    assert _pinned_code(gp, "h") == (CONSTS.index(F),)
    # and is kept as it is, the same tuple, when it reads none
    gp = ground(parse_program("h <- a & ~h. a <- ~h | h."))
    assert all(pinned is code for (_, pinned), (_, code) in zip(oracles._pinned(gp)[0], gp.ir))


def test_kripke_kleene_runs_the_ir_itself(monkeypatch):
    gp = ground(parse_program("h <- (a & q) | (~b & #t). a. b. p <- q | #t."))
    seen = []
    run = oracles._run

    def recording(rules, table, out):
        seen.append(rules)
        run(rules, table, out)

    monkeypatch.setattr(oracles, "_run", recording)
    oracles.kripke_kleene(gp)
    assert seen and all(rules is gp.ir for rules in seen)
    assert gp.oracle_code is None


def _first_outside(body):
    """The first node outside the conventional fragment, in preorder."""
    for node in walk(body):
        if isinstance(node, Binary) and node.op not in (BinOp.AND, BinOp.OR):
            return f"connective {node.op.value!r}"
        if isinstance(node, TruthConst) and str(node.value) in "UI":
            return f"truth constant {node.value}"
    return None


def test_conventionality_error_names_the_first_node_in_preorder(mixed_corpus):
    texts = ["h <- #u * a.", "h <- a & #u.", "h <- (a & #i) + (#u * b).",
             "h <- a | (b & (#u | c * d)).", "h <- a * b. g <- #u."]
    gps = [ground(parse_program(t)) for t in texts] + list(mixed_corpus)
    failing = 0
    for gp in gps:
        want = next(filter(None, map(_first_outside, gp.rules.values())), None)
        if want is None:
            oracles.kripke_kleene(gp)  # does not raise
            continue
        failing += 1
        with pytest.raises(ConventionalityError) as caught:
            oracles.well_founded(gp)
        assert str(caught.value) == f"{want} is outside the conventional fragment"
    assert failing > 100
