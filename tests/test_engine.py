"""The consequence operator, stability closure, and extremal fixpoints."""

import itertools
import random

import pytest

import proggen
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
    rule_free = GroundProgram(Base(atoms), ())
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
    # head T, body U: the head <=t body reading fails
    assert not engine.is_model(excluded_middle_gp, cons)


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

    # also on a warm memo that holds the key (F, 0, 0) of an all-U w
    _warm(suspect_gp)
    engine.stability(suspect_gp, F, const_valuation(suspect_gp.base, U))
    v = const_valuation(excluded_middle_gp.base, U)
    with pytest.raises(BaseMismatchError):
        engine.stability(suspect_gp, F, v)
    with pytest.raises(BaseMismatchError):
        engine.is_alpha_fixed_model(suspect_gp, F, v)


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
    assert engine._oscillation_pair(suspect_gp, F)[0] != real(suspect_gp, F)[0]


# -- the stability-closure memo ---------------------------------------------

# (first seed, count, keyword arguments) of the corpora in conftest.py
CORPORA = (
    (0, 500, {}),
    (1000, 200, {"conventional": True}),
    (2000, 100, {"negation_free": True}),
    (3000, 60, {"max_atoms": 4}),
)


def _plain_closure(gp, alpha, w):
    """The stability closure by naive iteration, bypassing the memo and
    _iterate: the closure and the applications made, the one that
    confirms the fixpoint included."""
    cur = const_valuation(gp.base, alpha)
    for n in range(engine._bound(gp)):
        nxt = engine.immediate_consequence(gp, alpha, cur, w)
        if nxt == cur:
            return cur, n + 1
        cur = nxt
    raise AssertionError("plain closure did not converge")


def _warm(gp):
    for alpha in ALPHAS:
        engine.semantics(gp, alpha)
    engine.compare_semantics(gp)
    return gp


def test_warm_memo_matches_plain_iteration_on_the_corpora():
    rng = random.Random(41)
    for first, count, kwargs in CORPORA:
        for seed in range(first, first + count):
            warm = _warm(proggen.random_ground_program(seed, **kwargs))
            fresh = proggen.random_ground_program(seed, **kwargs)
            neg = warm.compiled.negated
            for alpha in ALPHAS:
                # random w, and the fixpoints with every never-negated
                # atom scrambled, which the warm memo already holds
                ws = [random_valuation(rng, warm.base) for _ in range(3)]
                noise = random_valuation(rng, warm.base)
                for v in (engine.fix_u(warm, alpha), engine.fix_i(warm, alpha)):
                    ws.append(Valuation.from_masks(
                        warm.base,
                        v.belief & neg | noise.belief & ~neg,
                        v.doubt & neg | noise.doubt & ~neg,
                    ))
                for w in ws:
                    fresh_w = Valuation.from_masks(fresh.base, w.belief, w.doubt)
                    assert engine._stability_steps(warm, alpha, w) == \
                        _plain_closure(fresh, alpha, fresh_w)


def test_iteration_counts_same_on_warm_and_fresh_programs():
    for first, count, kwargs in CORPORA:
        for seed in range(first, first + count, 5):
            warm = _warm(proggen.random_ground_program(seed, **kwargs))
            for alpha in ALPHAS:
                fresh = proggen.random_ground_program(seed, **kwargs)
                assert engine.semantics(warm, alpha).iteration_counts == \
                    engine.semantics(fresh, alpha).iteration_counts


def test_memo_key_is_the_negated_atoms_belief_and_doubt():
    gp = ground(parse_program("p <- ~q & r. r <- ~s | t. q."))
    atoms = {str(a): i for i, a in enumerate(gp.base.atoms)}
    assert engine._compiled(gp).negated == (
        1 << atoms["q"] | 1 << atoms["s"]
    )
    closures = gp.compiled.closures

    def w_with(**values):
        return Valuation.from_mapping(
            gp.base, {a: values.get(str(a), U) for a in gp.base}
        )

    unknown = engine.stability(gp, F, w_with())
    assert len(closures) == 1
    # q believed, or q doubted: one bit each, a new entry each
    believed = engine.stability(gp, F, w_with(q=T))
    doubted = engine.stability(gp, F, w_with(q=F))
    assert len(closures) == 3
    assert [by_name(v)["p"] for v in (unknown, believed, doubted)] == [U, F, U]
    # p, r and t are never negated: any values there share the entry
    assert engine.stability(gp, F, w_with(p=T, r=I, t=F)) is unknown
    assert len(closures) == 3
    # the key carries alpha
    engine.stability(gp, T, w_with())
    assert len(closures) == 4


def test_positive_mask_is_the_atoms_read_without_negation():
    gp = ground(parse_program("p <- ~q & r. r <- ~s | t. q. u <- r & ~r."))
    atoms = {str(a): i for i, a in enumerate(gp.base.atoms)}
    compiled = engine._compiled(gp)
    assert compiled.positive == 1 << atoms["r"] | 1 << atoms["t"]
    assert compiled.negated == 1 << atoms["q"] | 1 << atoms["s"] | 1 << atoms["r"]


def test_closure_skips_the_confirming_application_once_no_read_atom_moves(monkeypatch):
    # from all-F: q becomes T, then p, which no body reads; naive
    # iteration needs a third application to see that nothing moves
    gp = ground(parse_program("p <- q. q."))
    w = const_valuation(gp.base, U)
    plain = _plain_closure(gp, F, w)
    assert plain[1] == 3
    calls = []
    consequence = engine.immediate_consequence

    def counting(*args):
        calls.append(args)
        return consequence(*args)

    monkeypatch.setattr(engine, "immediate_consequence", counting)
    assert engine._stability_steps(gp, F, w) == plain
    assert len(calls) == 2


def _stub_steps(base, moves):
    """A step that swaps F and T at the atoms of moves[k] on its k-th
    application and returns its argument once moves runs out, and the
    list of its calls."""
    calls = []

    def step(v):
        calls.append(v)
        k = len(calls) - 1
        if k >= len(moves):
            return v
        return Valuation.from_masks(base, v.belief ^ moves[k], v.doubt ^ moves[k])

    return step, calls


def test_iterate_stops_early_only_with_room_for_the_confirming_application():
    base = ground(parse_program("a. b.")).base
    start = const_valuation(base, F)
    a, b = 1, 2  # reads a; the last application moves only b
    step, calls = _stub_steps(base, [a, b])
    assert engine._iterate(step, start, 3, "stub", a) == (
        Valuation.from_masks(base, a | b, 0), 3
    )
    assert len(calls) == 2
    step, calls = _stub_steps(base, [a, a, b])  # the move of b is the last allowed
    with pytest.raises(engine.InternalInvariantError) as caught:
        engine._iterate(step, start, 3, "stub", a)
    assert len(calls) == 3
    assert str(caught.value) == (
        "stub did not converge within 3 applications "
        "(non-monotone update?); still moving: b"
    )
    step, calls = _stub_steps(base, [a, a, b])  # naive iteration has room at 4
    assert engine._iterate(step, start, 4, "stub", a) == (
        Valuation.from_masks(base, b, a), 4
    )
    assert len(calls) == 3


def test_iterate_names_the_atoms_still_moving_at_the_bound():
    base = ground(parse_program("".join(f"a{i}. " for i in range(8)))).base

    def flip(v):  # every atom but a0 and a7 swaps F and T on each application
        moving = ((1 << 7) - 1) & ~1
        return Valuation.from_masks(base, v.belief ^ moving, v.doubt ^ moving)

    start = Valuation.from_masks(base, 0, (1 << 8) - 1)
    with pytest.raises(engine.InternalInvariantError) as caught:
        engine._iterate(flip, start, 4, "test iteration")
    assert str(caught.value) == (
        "test iteration did not converge within 4 applications "
        "(non-monotone update?); still moving: a1, a2, a3, a4, a5 and 1 more"
    )


def test_self_check_names_the_atoms_of_each_failed_identity(suspect_gp):
    import dataclasses

    # one atom off in one field: innocent(john), F everywhere, made I in fixU
    r = engine.semantics(suspect_gp, F)
    atom = suspect_gp.base.atoms[2]
    assert {r.fix_u[atom], r.fix_i[atom], r.fix_f[atom], r.fix_t[atom]} == {F}
    moved = {a: r.fix_u[a] for a in suspect_gp.base}
    moved[atom] = I
    bad = dataclasses.replace(r, fix_u=Valuation.from_mapping(suspect_gp.base, moved))
    with pytest.raises(engine.InternalInvariantError) as caught:
        engine._check_decomposition(bad)
    assert str(caught.value) == (
        "fixpoint decomposition identities violated: "
        f"knowledge-least = consensus of the oscillation pair (at {atom}); "
        f"truth-greatest oscillation = disjunction of the knowledge extremes (at {atom}); "
        f"knowledge extremes ordered (at {atom})"
    )
    # orderings that fail in the doubt mask alone, then in the belief mask alone
    suspect = suspect_gp.base.atoms[3]
    assert r.fix_f[suspect] is T and r.fix_t[suspect] is T
    for field, at, failed in (
        ("fix_i", atom, ("knowledge-greatest = gullibility of the oscillation pair",
                         "truth-greatest oscillation = disjunction of the knowledge extremes",
                         "knowledge extremes ordered")),
        ("fix_f", atom, ("knowledge-least = consensus of the oscillation pair",
                         "truth-least oscillation = conjunction of the knowledge extremes",
                         "oscillation pair ordered")),
        ("fix_t", suspect, ("knowledge-least = consensus of the oscillation pair",
                            "truth-greatest oscillation = disjunction of the knowledge extremes",
                            "oscillation pair ordered")),
    ):
        moved = {a: getattr(r, field)[a] for a in suspect_gp.base}
        moved[at] = U
        bad = dataclasses.replace(
            r, **{field: Valuation.from_mapping(suspect_gp.base, moved)})
        with pytest.raises(engine.InternalInvariantError) as caught:
            engine._check_decomposition(bad)
        assert str(caught.value) == "fixpoint decomposition identities violated: " + (
            "; ".join(f"{name} (at {at})" for name in failed))
    # every atom off: five named, the rest counted
    gp = ground(parse_program("".join(f"a{i}. " for i in range(8))))
    r = engine.semantics(gp, F)
    bad = dataclasses.replace(r, fix_t=const_valuation(gp.base, F))
    with pytest.raises(engine.InternalInvariantError) as caught:
        engine._check_decomposition(bad)
    atoms = "a0, a1, a2, a3, a4 and 3 more"
    assert str(caught.value) == (
        "fixpoint decomposition identities violated: "
        f"knowledge-least = consensus of the oscillation pair (at {atoms}); "
        f"knowledge-greatest = gullibility of the oscillation pair (at {atoms}); "
        f"truth-greatest oscillation = disjunction of the knowledge extremes (at {atoms}); "
        f"oscillation pair ordered (at {atoms})"
    )
