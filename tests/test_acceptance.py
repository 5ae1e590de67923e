"""End-to-end acceptance suite.

One test per criterion: the reference tables of the bundled example
programs, the algebraic identities connecting the four extremal
fixpoints, the classical-semantics correspondences on conventional
programs, exhaustive small-space oracles, and equality of the two
independently coded computation paths.  All comparisons are exact; the
value space is discrete and there is no tolerance anywhere.
"""

import itertools

from blp import engine
from blp.bilattice import (
    F,
    FOUR_BILATTICE,
    FiniteLattice,
    I,
    T,
    TruthValue,
    U,
    check_bilattice_laws,
    conflation,
    know_join,
    know_meet,
    leq_k,
    leq_t,
    make_product,
    negation,
    truth_join,
    truth_meet,
)
from blp.bottomup import alpha_fixed_semantics
from blp.grounder import GroundAtom
from blp.oracles import enumerate_stable_models, kripke_kleene, well_founded
from blp.valuation import Valuation, const_valuation, from_interpretation

ALPHAS = (F, T, U, I)
ALL = tuple(TruthValue)


def by_name(valuation):
    return {str(a): v for a, v in valuation.items()}


def test_c01_crime_example_reference_rows(suspect_gp):
    expected = {
        F: {"suspect(john)": T, "innocent(john)": F, "free(john)": F, "charge(john)": T},
        T: {"suspect(john)": T, "innocent(john)": T, "free(john)": T, "charge(john)": F},
        U: {"suspect(john)": T, "innocent(john)": U, "free(john)": U, "charge(john)": U},
        I: {"suspect(john)": T, "innocent(john)": I, "free(john)": I, "charge(john)": I},
    }
    for alpha in ALPHAS:
        assert by_name(engine.fix_u(suspect_gp, alpha)) == expected[alpha]


def test_c02_inner_closure_worked_example(mixed_ops_gp):
    w = const_valuation(mixed_ops_gp.base, U)
    out = engine.stability(mixed_ops_gp, F, w)
    assert by_name(out) == {"a": F, "b": T, "c": F, "d": T, "e": U}


def test_c03_excluded_middle_table(excluded_middle_gp):
    gp = excluded_middle_gp
    assert by_name(engine.fix_u(gp, F)) == {"a": T, "b": F}
    assert by_name(engine.fix_u(gp, T)) == {"a": T, "b": T}
    assert by_name(engine.fix_u(gp, U)) == {"a": U, "b": U}
    assert by_name(engine.consensus_semantics(gp).valuation) == {"a": T, "b": U}


def _colleague(name_pairs):
    return [GroundAtom("colleague", pair) for pair in name_pairs]


_PUBLISHED_PAIRS = (
    ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("b", "c"), ("c", "b"),
)


def test_c04_colleague_single_clause_table(colleague_single_gp):
    report = engine.compare_semantics(colleague_single_gp)
    atoms = _colleague(_PUBLISHED_PAIRS)
    published = {
        "F": (T, T, F, F, F, F),
        "T": (T, T, F, F, T, T),
        "U": (T, T, F, F, U, U),
        "I": (T, T, F, F, I, I),
    }
    for name, row in published.items():
        got = tuple(report.valuations[name][a] for a in atoms)
        assert got == row, (name, got)
    # the pinned pair is false in every row, the floating pair tracks alpha
    for name in published:
        v = report.valuations[name]
        assert v[GroundAtom("colleague", ("a", "c"))] is F
        assert v[GroundAtom("colleague", ("c", "a"))] is F


def test_c04_colleague_multi_clause_regression(colleague_multi_gp):
    # With disjunctive merging, the negative fact is absorbed and the
    # a/c pair floats with the default instead of staying pinned false.
    # Expected values verified by an independent brute-force fixpoint
    # computation over all nine atoms.
    gp = colleague_multi_gp
    pairs = [(x, y) for x in "abc" for y in "abc"]
    expected = {
        F: {p: (T if p in (("a", "b"), ("b", "a")) else F) for p in pairs},
        T: {p: T for p in pairs},
        U: {p: (T if p in (("a", "b"), ("b", "a")) else U) for p in pairs},
        I: {p: (T if p in (("a", "b"), ("b", "a")) else I) for p in pairs},
    }
    for alpha in ALPHAS:
        got = engine.fix_u(gp, alpha)
        for pair in pairs:
            assert got[GroundAtom("colleague", pair)] is expected[alpha][pair]
        # cross-check through the independent set-based path
        assert from_interpretation(alpha_fixed_semantics(gp, alpha)) == got
        assert engine.is_alpha_fixed_model(gp, alpha, got)
    # the published pinned-false pair diverges under the non-pessimistic defaults
    for alpha in (T, U, I):
        assert engine.fix_u(gp, alpha)[GroundAtom("colleague", ("a", "c"))] is not F


def test_c05_fixpoint_decomposition_identities(mixed_corpus, mixed_results):
    assert len(mixed_corpus) >= 500
    for per_alpha in mixed_results:
        for alpha in ALPHAS:
            r = per_alpha[alpha]
            assert r.fix_u == r.fix_f.meet_k(r.fix_t)
            assert r.fix_i == r.fix_f.join_k(r.fix_t)
            assert r.fix_f == r.fix_u.meet_t(r.fix_i)
            assert r.fix_t == r.fix_u.join_t(r.fix_i)


def test_c06_conventional_oracle_correspondence(conventional_corpus):
    assert len(conventional_corpus) >= 200
    for gp in conventional_corpus:
        assert well_founded(gp) == engine.fix_u(gp, F)
        assert kripke_kleene(gp) == engine.fix_u(gp, U)
        for model in enumerate_stable_models(gp):
            assert engine.is_alpha_fixed_model(gp, F, model)


def test_c07_knowledge_ordering_bounds(mixed_results, positive_corpus):
    for per_alpha in mixed_results:
        skeptical = per_alpha[U].fix_u
        pessimistic = per_alpha[F].fix_u
        optimistic = per_alpha[T].fix_u
        assert skeptical.leq_k(pessimistic)
        assert skeptical.leq_k(optimistic)
        assert skeptical.leq_k(pessimistic.meet_k(optimistic))
    for gp in positive_corpus:
        consensus = engine.fix_u(gp, F).meet_k(engine.fix_u(gp, T))
        assert engine.fix_u(gp, U) == consensus


def test_c08_exhaustive_small_space_oracle(tiny_corpus):
    for gp in tiny_corpus:
        assert len(gp.base) <= 4
        valuations = [
            Valuation(gp.base, combo)
            for combo in itertools.product(ALL, repeat=len(gp.base))
        ]
        for alpha in ALPHAS:
            image = {v: engine.stability(gp, alpha, v) for v in valuations}
            fixpoints = [v for v, s in image.items() if s == v]
            ku = engine.fix_u(gp, alpha)
            ki = engine.fix_i(gp, alpha)
            assert ku in fixpoints and ki in fixpoints
            for fp in fixpoints:
                assert ku.leq_k(fp) and fp.leq_k(ki)
                # every fixpoint is a model of the one-step operator
                assert engine.immediate_consequence(gp, alpha, fp, fp) == fp
            low, high = engine.fix_f_t(gp, alpha)
            oscillating = [v for v in valuations if image[image[v]] == v]
            for v in oscillating:
                assert low.leq_t(v) and v.leq_t(high)


def test_c09_algebra_suite(mixed_corpus):
    # quoted operator-table facts
    assert truth_meet(U, I) is F and truth_join(U, I) is T
    assert know_meet(F, T) is U and know_join(F, T) is I
    assert negation(T) is F and negation(F) is T
    assert negation(U) is U and negation(I) is I
    assert conflation(U) is I and conflation(I) is U
    assert conflation(F) is F and conflation(T) is T
    # recovery identity and chain inequalities, exhausted over all triples
    for x in ALL:
        assert know_join(truth_meet(x, U), truth_join(x, U)) is x
    for a, b, c in itertools.product(ALL, repeat=3):
        if leq_t(a, b) and leq_t(b, c):
            assert leq_k(know_meet(a, c), b)
            assert leq_k(b, know_join(a, c))
            assert leq_k(know_meet(truth_meet(a, U), truth_join(c, U)), U)
            assert leq_k(know_meet(truth_join(a, U), c), b)
            assert leq_k(know_meet(truth_meet(a, U), truth_meet(c, U)), b)
        if leq_k(a, b) and leq_k(b, c):
            assert leq_t(truth_meet(a, c), b)
            assert leq_t(b, truth_join(a, c))
    # distributivity and interlacing on FOUR and on a 9-element product
    assert check_bilattice_laws(FOUR_BILATTICE).all_pass
    three = FiniteLattice.chain(3)
    assert check_bilattice_laws(make_product(three, three)).all_pass
    # the stability closure and its square share their knowledge-least fixpoint
    for gp in mixed_corpus:
        for alpha in ALPHAS:
            cur = const_valuation(gp.base, U)
            for _ in range(2 * len(gp.base) + 2):
                nxt = engine.stability(gp, alpha, engine.stability(gp, alpha, cur))
                if nxt == cur:
                    break
                cur = nxt
            else:
                raise AssertionError("squared closure failed to converge")
            assert cur == engine.fix_u(gp, alpha)


def test_c10_path_equivalence(
    mixed_corpus,
    mixed_results,
    suspect_gp,
    mixed_ops_gp,
    excluded_middle_gp,
    colleague_single_gp,
    colleague_multi_gp,
):
    for gp, per_alpha in zip(mixed_corpus, mixed_results):
        for alpha in ALPHAS:
            sets = alpha_fixed_semantics(gp, alpha)
            assert from_interpretation(sets) == per_alpha[alpha].fix_u
    for gp in (
        suspect_gp,
        mixed_ops_gp,
        excluded_middle_gp,
        colleague_single_gp,
        colleague_multi_gp,
    ):
        for alpha in ALPHAS:
            assert from_interpretation(alpha_fixed_semantics(gp, alpha)) == \
                engine.fix_u(gp, alpha)
