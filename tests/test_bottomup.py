"""The set-based path against the valuation engine."""

import pathlib

import pytest

from blp import engine
from blp.bilattice import F, I, T, U
from blp.bottomup import alpha_fixed_semantics
from blp.grounder import ground
from blp.syntax import parse_program
from blp.valuation import from_interpretation

ALPHAS = (F, T, U, I)
DATA = pathlib.Path(__file__).parent / "data"


def test_suspect_pessimistic_sets(suspect_gp):
    result = alpha_fixed_semantics(suspect_gp, F)
    assert {str(a) for a in result.true_set} == {"suspect(john)", "charge(john)"}
    assert {str(a) for a in result.false_set} == {"innocent(john)", "free(john)"}


def test_empty_program_yields_empty_sets():
    gp = ground(parse_program(""))
    result = alpha_fixed_semantics(gp, U)
    assert result.true_set == frozenset() and result.false_set == frozenset()


def test_excluded_middle_inconsistent_default(excluded_middle_gp):
    result = alpha_fixed_semantics(excluded_middle_gp, I)
    # the engine is the oracle for the set encoding; both atoms come out I,
    # so both land in both sets
    assert from_interpretation(result) == engine.fix_u(excluded_middle_gp, I)
    names = {str(a) for a in excluded_middle_gp.base}
    assert {str(a) for a in result.true_set} == names
    assert {str(a) for a in result.false_set} == names


def test_agrees_with_engine_on_examples(
    suspect_gp, mixed_ops_gp, excluded_middle_gp, colleague_single_gp, colleague_multi_gp
):
    programs = (
        suspect_gp,
        mixed_ops_gp,
        excluded_middle_gp,
        colleague_single_gp,
        colleague_multi_gp,
    )
    for gp in programs:
        for alpha in ALPHAS:
            assert from_interpretation(alpha_fixed_semantics(gp, alpha)) == \
                engine.fix_u(gp, alpha)


def test_unknown_atoms_land_in_neither_set(suspect_gp):
    result = alpha_fixed_semantics(suspect_gp, U)
    # only the fact is decided under the skeptical default
    assert {str(a) for a in result.true_set} == {"suspect(john)"}
    assert result.false_set == frozenset()


def test_long_flat_body_evaluates_without_recursion():
    gp = ground(parse_program("p <- " + " & ".join(f"q{i}" for i in range(3000)) + "."))
    for alpha in ALPHAS:
        result = from_interpretation(alpha_fixed_semantics(gp, alpha))
        assert result == engine.fix_u(gp, alpha)


def test_agrees_with_engine_on_full_bases():
    # a full base with extra constants has many atoms that head no rule,
    # the atoms bottomup pins to alpha
    texts = [path.read_text() for path in sorted(DATA.glob("*.blp"))]
    texts.append("p(X) <- exists Y: e(X,Y) & ~p(Y). e(a,b). e(b,a). q <- forall X: ~r(X).")
    pinned = 0
    for text in texts:
        gp = ground(parse_program(text), extra_constants=("z1", "z2"), base_mode="full")
        pinned += len(gp.base) - len(gp.ir)
        for alpha in ALPHAS:
            assert from_interpretation(alpha_fixed_semantics(gp, alpha)) == \
                engine.fix_u(gp, alpha)
    assert pinned > 20


def test_alpha_that_is_no_truth_value_is_refused(suspect_gp):
    for alpha in ("F", None, 1):
        with pytest.raises(ValueError, match="alpha must be a truth value"):
            alpha_fixed_semantics(suspect_gp, alpha)
