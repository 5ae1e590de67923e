"""The consequence operator, stability closure, and extremal fixpoints."""

import itertools
import random

import pytest

from blp import engine
from blp.bilattice import F, I, T, TruthValue, U
from blp.grounder import GroundAtom, ground
from blp.syntax import parse_program
from blp.valuation import Valuation, const_valuation

ALL = tuple(TruthValue)
ALPHAS = (F, T, U, I)


def by_name(valuation):
    return {str(a): v for a, v in valuation.items()}


def random_valuation(rng, base):
    return Valuation(base, [rng.choice(ALL) for _ in base])


def test_no_rules_gives_constant_alpha():
    from blp.grounder import Base, GroundProgram

    atoms = (GroundAtom("a"), GroundAtom("b"))
    rule_free = GroundProgram(Base(atoms), {}, atoms)
    rng = random.Random(5)
    for alpha in ALPHAS:
        v = random_valuation(rng, rule_free.base)
        w = random_valuation(rng, rule_free.base)
        out = engine.immediate_consequence(rule_free, alpha, v, w)
        assert out == const_valuation(rule_free.base, alpha)
    # same through grounding: a body-only atom heads no rule
    gp = ground(parse_program("p <- q."))
    for alpha in ALPHAS:
        v = const_valuation(gp.base, U)
        out = engine.immediate_consequence(gp, alpha, v, v)
        assert out[GroundAtom("q")] is alpha


def test_one_step_from_all_unknown(suspect_gp):
    v = const_valuation(suspect_gp.base, U)
    out = engine.immediate_consequence(suspect_gp, F, v, v)
    assert by_name(out) == {
        "suspect(john)": T,
        "innocent(john)": U,
        "free(john)": U,
        "charge(john)": U,
    }


def test_consequence_monotone_in_knowledge(suspect_gp, mixed_ops_gp):
    rng = random.Random(17)
    for gp in (suspect_gp, mixed_ops_gp):
        for _ in range(150):
            v1 = random_valuation(rng, gp.base)
            v2 = v1.join_k(random_valuation(rng, gp.base))  # v1 <=k v2
            w = random_valuation(rng, gp.base)
            for alpha in ALPHAS:
                a = engine.immediate_consequence(gp, alpha, v1, w)
                b = engine.immediate_consequence(gp, alpha, v2, w)
                assert a.leq_k(b)


def test_stability_on_worked_example(mixed_ops_gp):
    w = const_valuation(mixed_ops_gp.base, U)
    out = engine.stability(mixed_ops_gp, F, w)
    assert by_name(out) == {"a": F, "b": T, "c": F, "d": T, "e": U}


def test_stability_of_empty_program():
    gp = ground(parse_program(""))
    for alpha in ALPHAS:
        assert engine.stability(gp, alpha, const_valuation(gp.base, U)) == \
            const_valuation(gp.base, alpha)


def test_positive_program_ignores_negative_argument(positive_corpus):
    rng = random.Random(23)
    for gp in positive_corpus[:25]:
        w1 = random_valuation(rng, gp.base)
        w2 = random_valuation(rng, gp.base)
        for alpha in ALPHAS:
            assert engine.stability(gp, alpha, w1) == engine.stability(gp, alpha, w2)


def test_stability_monotonicity(mixed_corpus):
    rng = random.Random(31)
    for gp in mixed_corpus[:40]:
        v1 = random_valuation(rng, gp.base)
        v2 = v1.join_k(random_valuation(rng, gp.base))
        t1 = random_valuation(rng, gp.base)
        t2 = t1.join_t(random_valuation(rng, gp.base))  # t1 <=t t2
        for alpha in ALPHAS:
            assert engine.stability(gp, alpha, v1).leq_k(
                engine.stability(gp, alpha, v2)
            )
            assert engine.stability(gp, alpha, t2).leq_t(
                engine.stability(gp, alpha, t1)
            )


def test_suspect_fixpoints_all_defaults(suspect_gp):
    expected = {
        F: {"suspect(john)": T, "innocent(john)": F, "free(john)": F, "charge(john)": T},
        T: {"suspect(john)": T, "innocent(john)": T, "free(john)": T, "charge(john)": F},
        U: {"suspect(john)": T, "innocent(john)": U, "free(john)": U, "charge(john)": U},
        I: {"suspect(john)": T, "innocent(john)": I, "free(john)": I, "charge(john)": I},
    }
    for alpha, row in expected.items():
        assert by_name(engine.fix_u(suspect_gp, alpha)) == row


def test_excluded_middle_oscillation(excluded_middle_gp):
    gp = excluded_middle_gp
    low, high = engine.fix_f_t(gp, F)
    assert by_name(low) == {"a": T, "b": F}
    assert by_name(high) == {"a": T, "b": F}
    assert low.meet_k(high) == engine.fix_u(gp, F)


def test_positive_program_four_fixpoints_coincide(positive_corpus):
    for gp in positive_corpus[:25]:
        for alpha in ALPHAS:
            r = engine.semantics(gp, alpha)
            assert r.fix_u == r.fix_i == r.fix_f == r.fix_t


def test_consensus_examples(suspect_gp, excluded_middle_gp):
    em = engine.consensus_semantics(excluded_middle_gp)
    assert by_name(em.valuation) == {"a": T, "b": U}
    sus = engine.consensus_semantics(suspect_gp)
    assert by_name(sus.valuation) == {
        "suspect(john)": T,
        "innocent(john)": U,
        "free(john)": U,
        "charge(john)": U,
    }


def test_consensus_on_positive_programs_is_both_fixpoints(positive_corpus):
    for gp in positive_corpus[:25]:
        cons = engine.consensus_semantics(gp)
        # pessimistic and optimistic coincide only sometimes; when they do,
        # the consensus is exactly that shared fixpoint
        pess = engine.fix_u(gp, F)
        opt = engine.fix_u(gp, T)
        if pess == opt:
            assert cons.valuation == pess
            assert cons.fixed_under_pessimistic and cons.fixed_under_optimistic


def test_is_alpha_fixed_model(suspect_gp):
    for alpha in ALPHAS:
        assert engine.is_alpha_fixed_model(
            suspect_gp, alpha, engine.fix_u(suspect_gp, alpha)
        )
    assert not engine.is_alpha_fixed_model(
        suspect_gp, F, const_valuation(suspect_gp.base, U)
    )


def test_fixed_models_satisfy_operator_model_property(tiny_corpus):
    for gp in tiny_corpus[:12]:
        vals = [
            Valuation(gp.base, combo)
            for combo in itertools.product(ALL, repeat=len(gp.base))
        ]
        for alpha in ALPHAS:
            for v in vals:
                if engine.is_alpha_fixed_model(gp, alpha, v):
                    assert engine.immediate_consequence(gp, alpha, v, v) == v


def test_is_model_directions(excluded_middle_gp):
    cons = engine.consensus_semantics(excluded_middle_gp).valuation
    # head T, body U: the head <=t body reading fails, the reverse holds
    assert not engine.is_model(excluded_middle_gp, cons)
    assert engine.is_model(excluded_middle_gp, cons, reverse=True)


def test_semantics_self_check_and_counts(suspect_gp):
    r = engine.semantics(suspect_gp, F)
    assert r.alpha is F
    assert set(r.iteration_counts) == {"fix_u", "fix_i", "fix_f", "fix_t"}
    for outer, inner in r.iteration_counts.values():
        assert outer >= 1 and inner >= outer


def test_compare_semantics_reports_thm_orderings(suspect_gp):
    report = engine.compare_semantics(suspect_gp)
    assert set(report.valuations) == {"F", "T", "U", "I", "consensus"}
    assert "U <=k F" in report.relations
    assert "U <=k T" in report.relations
    assert "U <=k consensus" in report.relations


def test_base_mismatch_rejected(suspect_gp, excluded_middle_gp):
    from blp.valuation import BaseMismatchError

    v = const_valuation(excluded_middle_gp.base, U)
    with pytest.raises(BaseMismatchError):
        engine.stability(suspect_gp, F, v)


def test_self_check_fires_when_the_oscillation_pair_is_off(suspect_gp, monkeypatch):
    real = engine._oscillation_pair

    def moved(gp, alpha):
        low, high, counts_low, counts_high = real(gp, alpha)
        atom = gp.base.atoms[0]
        value = {a: low[a] for a in gp.base}
        value[atom] = U if low[atom] is not U else T
        return Valuation.from_mapping(gp.base, value), high, counts_low, counts_high

    monkeypatch.setattr(engine, "_oscillation_pair", moved)
    with pytest.raises(engine.InternalInvariantError, match="decomposition"):
        engine.semantics(suspect_gp, F)
    assert engine.semantics(suspect_gp, F, self_check=False).fix_f != real(suspect_gp, F)[0]
