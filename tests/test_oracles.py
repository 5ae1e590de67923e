"""Three-valued reference semantics against the four-valued engine."""

import ast
import pathlib
import random
import sys
from itertools import product

import pytest

import proggen
from blp import engine, oracles
from blp.bilattice import F, T, U
from blp.grounder import Base, GroundAtom, ground
from blp.oracles import (
    ConventionalityError,
    EnumerationCapError,
    ThreeValuation,
    enumerate_stable_models,
    gl_transform,
    kripke_kleene,
    well_founded,
)
from blp.syntax import parse_program
from blp.valuation import Interpretation, PseudoInterpretation, Valuation, pseudo_eval

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "blpbench"))
import workloads  # noqa: E402


def by_name(tv):
    return {str(a): tv[a] for a in tv.base}


def three(gp, mapping):
    ints = {"F": -1, "U": 0, "T": 1}
    return ThreeValuation(
        gp.base, (ints[mapping[str(a)]] for a in gp.base.atoms)
    )


def test_gl_transform_two_steps(suspect_gp):
    v = three(
        suspect_gp,
        {"suspect(john)": "U", "innocent(john)": "F", "free(john)": "T", "charge(john)": "U"},
    )
    out = gl_transform(suspect_gp, v)
    assert by_name(out) == {
        "suspect(john)": T,
        "innocent(john)": F,
        "free(john)": F,
        "charge(john)": T,
    }


def test_gl_transform_constant_on_negation_free_programs():
    gp = ground(parse_program("a <- b | c. b. c <- #f."))
    seen = set()
    import itertools

    for combo in itertools.product((-1, 0, 1), repeat=len(gp.base)):
        seen.add(gl_transform(gp, ThreeValuation(gp.base, combo)))
    assert len(seen) == 1


def test_well_founded_is_gl_fixpoint(suspect_gp):
    wf = well_founded(suspect_gp)
    assert gl_transform(suspect_gp, wf) == wf


def test_well_founded_suspect_row(suspect_gp):
    assert by_name(well_founded(suspect_gp)) == {
        "suspect(john)": T,
        "innocent(john)": F,
        "free(john)": F,
        "charge(john)": T,
    }


def test_well_founded_default_negation():
    gp = ground(parse_program("a <- ~b. b <- #f."))
    wf = well_founded(gp)
    assert wf[GroundAtom("b")] is F and wf[GroundAtom("a")] is T
    gp2 = ground(parse_program("a <- ~b. c <- b."))
    wf2 = well_founded(gp2)
    assert wf2[GroundAtom("b")] is F and wf2[GroundAtom("a")] is T


def test_kripke_kleene_suspect_row(suspect_gp):
    assert by_name(kripke_kleene(suspect_gp)) == {
        "suspect(john)": T,
        "innocent(john)": U,
        "free(john)": U,
        "charge(john)": U,
    }


def test_kripke_kleene_self_loop():
    gp = ground(parse_program("a <- a."))
    assert kripke_kleene(gp)[GroundAtom("a")] is U


def test_oracles_match_engine_on_corpus(conventional_corpus):
    for gp in conventional_corpus:
        assert well_founded(gp).to_valuation() == engine.fix_u(gp, F)
        assert kripke_kleene(gp).to_valuation() == engine.fix_u(gp, U)


def test_kripke_kleene_below_well_founded(conventional_corpus):
    for gp in conventional_corpus:
        assert kripke_kleene(gp).to_valuation().leq_k(
            well_founded(gp).to_valuation()
        )


def test_stable_models_suspect(suspect_gp):
    models = enumerate_stable_models(suspect_gp)
    assert len(models) == 1
    assert models[0] == well_founded(suspect_gp)


def test_stable_models_even_loop():
    gp = ground(parse_program("a <- ~b. b <- ~a."))
    models = enumerate_stable_models(gp)
    rows = sorted(
        (str(m[GroundAtom("a")]), str(m[GroundAtom("b")])) for m in models
    )
    assert rows == [("F", "T"), ("T", "F"), ("U", "U")]
    wf = well_founded(gp)
    assert wf in models
    assert all(wf.to_valuation().leq_k(m.to_valuation()) for m in models)


def test_stable_models_empty_program():
    gp = ground(parse_program(""))
    models = enumerate_stable_models(gp)
    assert len(models) == 1
    assert models[0].ints == ()


# shaped like the benchmark's stable programs: one atom true by a fact,
# one its negation, the rest in cycles through negated atoms
STABLE_SHAPED = (
    "a0 <- ~a1 & ~a0. a1 <- ~a5 & ~a1. a2 <- ~a1 & ~a0. "
    "a3 <- ~a4. a4 <- #t. a5 <- ~a0 & ~a5.",
    "t <- #t. f <- ~t. a <- ~b & ~f. b <- ~a & ~f. c <- ~d & ~b. d <- ~c & ~a.",
    "t <- #t. f <- ~t. a <- ~b & ~t. b <- ~c & ~f. c <- ~a & ~b.",
    "t <- #t. f <- ~t. a <- ~a | f.",
    "t <- #t. f <- ~t.",
)


def brute_force_stable_models(gp):
    candidates = (
        ThreeValuation(gp.base, combo)
        for combo in product((-1, 0, 1), repeat=len(gp.base))
    )
    return [c for c in candidates if gl_transform(gp, c) == c]


def test_search_transforms_only_open_candidates(monkeypatch):
    gp = ground(parse_program(STABLE_SHAPED[0]))
    calls = []
    transform = oracles.gl_transform

    def counting(gp, v):
        calls.append(v)
        return transform(gp, v)

    monkeypatch.setattr(oracles, "gl_transform", counting)
    wf = well_founded(gp)
    wfs_steps = len(calls)
    assert wf.ints.count(0) == 4 and wfs_steps == 2
    del calls[:]
    models = enumerate_stable_models(gp)
    # the 3^4 candidates are transformed as lanes, not one call each
    assert len(calls) == wfs_steps
    assert models and all(m.ints[3:5] == wf.ints[3:5] == (-1, 1) for m in models)


def test_lane_search_matches_brute_force_on_stable_workload():
    gps = [
        ground(parse_program(prog.text))
        for seed in range(4)
        for prog in workloads.build("stable", seed).programs.values()
    ]
    assert len(gps) == 400
    for gp in gps:
        assert enumerate_stable_models(gp) == brute_force_stable_models(gp)


def test_lane_search_at_the_cap_with_every_atom_open():
    text = " ".join(f"a{i} <- ~b{i}. b{i} <- ~a{i}." for i in range(5))
    gp = ground(parse_program(text))
    assert len(gp.base) == 10 and well_founded(gp).ints == (0,) * 10
    models = enumerate_stable_models(gp)
    assert len(models) == 3**5
    assert [m.ints for m in models] == sorted(m.ints for m in models)
    assert models == brute_force_stable_models(gp)


# -- an independent reference for the transform ------------------------------

_KLEENE = {F: -1, U: 0, T: 1}


def _interpretation(base, ints):
    atoms = base.atoms
    return Interpretation(
        base,
        [a for a, x in zip(atoms, ints) if x == 1],
        [a for a, x in zip(atoms, ints) if x == -1],
    )


def reference_transform(gp, v):
    """The extended GL transform of v by its definition, sharing no code
    with the oracles: from all-F, each head takes the pseudo_eval value
    of its body in gp.rules, positive literals read from the current
    valuation and negated ones from v, and every atom that heads no
    rule stays F, until nothing changes."""
    atoms, rules = gp.base.atoms, gp.rules
    neg = _interpretation(gp.base, v.ints)
    cur = [-1] * len(atoms)
    for _ in range(2 * len(atoms) + 1):
        j = PseudoInterpretation(_interpretation(gp.base, cur), neg)
        nxt = [_KLEENE[pseudo_eval(j, rules[a])] if a in rules else -1 for a in atoms]
        if nxt == cur:
            return ThreeValuation(gp.base, cur)
        cur = nxt
    raise AssertionError("the reference transform did not converge")


def reference_well_founded(gp):
    """The reference transform iterated from all-U until it repeats."""
    chain = [ThreeValuation.all_unknown(gp.base)]
    while len(chain) <= 2 * len(gp.base) + 1:
        nxt = reference_transform(gp, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise AssertionError("the reference well-founded iteration did not converge")


def reference_kripke_kleene(gp):
    """Kripke-Kleene by its definition, sharing no code with the
    oracles: from all-U, each head takes the pseudo_eval value of its
    body in gp.rules, with both halves of the pseudo-interpretation the
    current valuation, and every atom that heads no rule stays U, until
    nothing changes."""
    atoms, rules = gp.base.atoms, gp.rules
    cur = [0] * len(atoms)
    for _ in range(2 * len(atoms) + 1):
        i = _interpretation(gp.base, cur)
        j = PseudoInterpretation(i, i)
        nxt = [_KLEENE[pseudo_eval(j, rules[a])] if a in rules else 0 for a in atoms]
        if nxt == cur:
            return ThreeValuation(gp.base, cur)
        cur = nxt
    raise AssertionError("the reference Kripke-Kleene iteration did not converge")


def _reference_checks(gp, candidates):
    """Hold well_founded and gl_transform to the reference, on the
    reference well-founded chain and on candidates; the candidates the
    reference transform fixes, in their order."""
    chain = reference_well_founded(gp)
    assert well_founded(gp) == chain[-1]
    for v in chain:
        assert gl_transform(gp, v) == reference_transform(gp, v)
    fixed = []
    for v in candidates:
        want = reference_transform(gp, v)
        assert gl_transform(gp, v) == want
        if want == v:
            fixed.append(v)
    return fixed


def test_restricted_search_matches_brute_force(conventional_corpus):
    # every candidate, transformed by the reference as well
    shaped = [ground(parse_program(text)) for text in STABLE_SHAPED]
    for gp in list(conventional_corpus) + shaped:
        every = [ThreeValuation(gp.base, c) for c in product((-1, 0, 1), repeat=len(gp.base))]
        assert enumerate_stable_models(gp) == _reference_checks(gp, every)


def test_oracles_match_the_reference_on_the_stable_workload():
    """Seed 0 of the stable workload, searched over the candidates that
    keep the reference well-founded values of its settled atoms: every
    stable model does (see enumerate_stable_models)."""
    for prog in workloads.build("stable", 0).programs.values():
        gp = ground(parse_program(prog.text))
        wf = reference_well_founded(gp)[-1].ints
        choices = [(-1, 0, 1) if x == 0 else (x,) for x in wf]
        candidates = [ThreeValuation(gp.base, c) for c in product(*choices)]
        assert enumerate_stable_models(gp) == _reference_checks(gp, candidates)


def test_oracles_match_the_reference_on_the_winmove_workload():
    rng = random.Random(9)
    gps = [
        ground(parse_program(prog.text))
        for seed in (0, 1)
        for prog in workloads.build("winmove", seed).programs.values()
    ]
    assert len(gps) == 32
    for gp in gps:
        candidates = [
            ThreeValuation(gp.base, (rng.choice((-1, 0, 1)) for _ in gp.base.atoms))
            for _ in range(2)
        ]
        _reference_checks(gp, candidates)


def test_kripke_kleene_matches_the_reference(conventional_corpus):
    wide = [  # the wide corpus of scripts/dump_outputs.py
        proggen.random_ground_program(4000 + seed, conventional=True, max_atoms=10)
        for seed in range(30)
    ]
    winmove = [
        ground(parse_program(prog.text))
        for seed in (0, 1)
        for prog in workloads.build("winmove", seed).programs.values()
    ]
    corpus = [
        ground(parse_program(prog.text))
        for name, prog in workloads.build("corpus", 0).programs.items()
        if name.startswith("v")
    ]
    assert len(winmove) == 32 and len(corpus) == 200
    for gp in list(conventional_corpus) + wide + winmove + corpus:
        assert kripke_kleene(gp) == reference_kripke_kleene(gp)


def test_oracles_import_no_other_evaluator():
    # the engine, bottomup and the oracles keep separate evaluation code
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert {"grounder", "GroundProgram"} <= names
    banned = {"engine", "bottomup", "CompiledBodies", "contrajoin_eval", "pseudo_eval"}
    assert not names & banned


@pytest.mark.parametrize("text, message", [
    ("p <- q & (r + s). r. s.", "connective '+' is outside the conventional fragment"),
    ("p <- #f & (r * s). r. s.", "connective '*' is outside the conventional fragment"),
])
def test_folded_code_still_rejects_what_it_absorbs(text, message):
    # q heads no rule, so the transform reads it as F, which absorbs the
    # conjunction exactly as #f does; the node under it still counts
    gp = ground(parse_program(text))
    v = ThreeValuation.all_unknown(gp.base)
    calls = (
        lambda: gl_transform(gp, v),
        lambda: well_founded(gp),
        lambda: kripke_kleene(gp),
        lambda: enumerate_stable_models(gp),
    )
    for _ in range(2):
        for call in calls:
            with pytest.raises(ConventionalityError) as caught:
                call()
            assert str(caught.value) == message
    assert gp.oracle_code is None


def test_enumeration_cap_counts_open_atoms_not_the_base():
    # 11 facts and an 11-atom chain: the WFS settles every atom, so the
    # search has one candidate and the base size does not matter
    for text in (" ".join(f"p{i}." for i in range(11)),
                 "a0. " + " ".join(f"a{i} <- a{i - 1}." for i in range(1, 11))):
        gp = ground(parse_program(text))
        assert [m.ints for m in enumerate_stable_models(gp)] == [(1,) * 11]


def test_enumeration_cap(monkeypatch):
    # 11 atoms in odd loops p_i <- ~p_i, each left open by the WFS
    gp = ground(parse_program(" ".join(f"p{i} <- ~p{i}." for i in range(11))))
    with pytest.raises(EnumerationCapError) as caught:
        enumerate_stable_models(gp)
    assert str(caught.value) == (
        "the well-founded semantics leaves 11 atoms open; enumeration is capped at 10"
    )
    monkeypatch.setattr(oracles, "ENUMERATION_CAP", 11)
    assert [m.ints for m in enumerate_stable_models(gp)] == [(0,) * 11]


def test_non_conventional_inputs_rejected():
    # mixed_ops.blp, ground afresh so that the first calls here are its first
    gp = ground(parse_program("a <- b & c. d <- ~b + #t. e <- a * ~d. b <- #t."))
    v = ThreeValuation.all_unknown(gp.base)
    for _ in range(2):
        with pytest.raises(ConventionalityError, match="'\\+'"):
            gl_transform(gp, v)
        with pytest.raises(ConventionalityError):
            well_founded(gp)
        with pytest.raises(ConventionalityError):
            kripke_kleene(gp)
        with pytest.raises(ConventionalityError):
            enumerate_stable_models(gp)
    assert gp.oracle_code is None
    conventional = ground(parse_program("a <- ~b. b <- #f."))
    well_founded(conventional)
    assert conventional.oracle_code is not None


def test_conventionality_checked_before_cap():
    gp = ground(parse_program(" ".join(f"p{i}." for i in range(11)) + " q <- #u."))
    for _ in range(2):
        with pytest.raises(ConventionalityError, match="truth constant"):
            enumerate_stable_models(gp)


def test_three_valuation_embedding_rejects_inconsistency(excluded_middle_gp):
    from blp.valuation import const_valuation
    from blp.bilattice import I

    with pytest.raises(ValueError):
        ThreeValuation.from_valuation(
            const_valuation(excluded_middle_gp.base, I)
        )


def test_three_valuation_constructor_checks_its_values():
    base = ground(parse_program("a. b.")).base
    assert ThreeValuation(base, (1, -1)).ints == (1, -1)
    with pytest.raises(ValueError, match=r"values in \{F, U, T\}"):
        ThreeValuation(base, (1, 2))
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        ThreeValuation(base, (1,))
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        ThreeValuation(base, (1, 0, -1))
    # the oracles' own results, built unchecked, equal checked ones
    gp = ground(parse_program("a <- ~b. b <- ~a. c <- a & ~c."))
    for v in [well_founded(gp), kripke_kleene(gp)] + enumerate_stable_models(gp):
        assert v == ThreeValuation(v.base, v.ints)


# -- three-valued results are Valuations -------------------------------------


def test_oracle_results_are_the_engine_valuations(conventional_corpus):
    winmove = [
        ground(parse_program(prog.text))
        for seed in (0, 1)
        for prog in workloads.build("winmove", seed).programs.values()
    ]
    for gp in list(conventional_corpus) + winmove:
        for got, want in ((well_founded(gp), engine.fix_u(gp, F)),
                          (kripke_kleene(gp), engine.fix_u(gp, U))):
            assert isinstance(got, Valuation)
            assert got == want and want == got
            assert hash(got) == hash(want)


def test_gl_transform_takes_any_valuation_without_i(conventional_corpus):
    rng = random.Random(5)
    for gp in conventional_corpus:
        full = (1 << len(gp.base)) - 1
        for _ in range(3):
            belief = rng.getrandbits(len(gp.base)) & full
            doubt = rng.getrandbits(len(gp.base)) & full & ~belief
            v = Valuation.from_masks(gp.base, belief, doubt)
            three = ThreeValuation.from_valuation(v)
            assert type(three) is ThreeValuation and three == v
            assert gl_transform(gp, v) == gl_transform(gp, three)


def test_a_valuation_with_i_has_no_three_valued_counterpart(suspect_gp):
    text = "valuation contains I and has no three-valued counterpart"
    v = Valuation.from_symbols(suspect_gp.base, "TIFU")
    with pytest.raises(ValueError) as caught:
        ThreeValuation.from_valuation(v)
    assert str(caught.value) == text
    with pytest.raises(ValueError) as caught:
        gl_transform(suspect_gp, v)
    assert str(caught.value) == text


def test_three_valuation_ints_view_and_repr():
    assert ThreeValuation(Base(()), ()).ints == ()
    assert ThreeValuation.all_unknown(Base(())).ints == ()
    base = ground(parse_program("a. b. c.")).base
    for ints in product((-1, 0, 1), repeat=3):
        v = ThreeValuation(base, ints)
        assert v.ints == ints
        assert v.to_valuation() == v and type(v.to_valuation()) is Valuation
    assert repr(ThreeValuation(base, (1, -1, 0))) == "<ThreeValuation a=T, b=F, c=U>"
    assert repr(ThreeValuation(base, (1, -1, 0)).to_valuation()) == "<Valuation a=T, b=F, c=U>"
