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
from blp.grounder import GroundAtom, ground
from blp.oracles import (
    ConventionalityError,
    EnumerationCapError,
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
    return Valuation.from_symbols(gp.base, "".join(mapping[str(a)] for a in gp.base.atoms))


def every_three_valued(base):
    """Every valuation over base with no atom at I, in lexicographic
    order over the base positions with F < U < T."""
    return [Valuation.from_symbols(base, "".join(combo))
            for combo in product("FUT", repeat=len(base))]


# str.translate table under which symbols texts sort with F < U < T
TRUTH_ORDER = str.maketrans("FUT", "012")


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
    seen = {gl_transform(gp, v) for v in every_three_valued(gp.base)}
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
        assert well_founded(gp) == engine.fix_u(gp, F)
        assert kripke_kleene(gp) == engine.fix_u(gp, U)


def test_kripke_kleene_below_well_founded(conventional_corpus):
    for gp in conventional_corpus:
        assert kripke_kleene(gp).leq_k(well_founded(gp))


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
    assert all(wf.leq_k(m) for m in models)


def test_stable_models_empty_program():
    gp = ground(parse_program(""))
    models = enumerate_stable_models(gp)
    assert len(models) == 1
    assert models[0].symbols() == ""


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
    return [c for c in every_three_valued(gp.base) if gl_transform(gp, c) == c]


def test_search_transforms_only_open_candidates(monkeypatch):
    gp = ground(parse_program(STABLE_SHAPED[0]))
    calls = []
    transform = oracles._transform

    def counting(rules, positive, table, codes):
        calls.append(codes)
        return transform(rules, positive, table, codes)

    monkeypatch.setattr(oracles, "_transform", counting)
    wf = well_founded(gp)
    wfs_steps = len(calls)
    assert wf.symbols().count("U") == 4 and wfs_steps == 2
    del calls[:]
    models = enumerate_stable_models(gp)
    # the 3^4 candidates are transformed as lanes, not one call each
    assert len(calls) == wfs_steps
    assert models and all(m.symbols()[3:5] == wf.symbols()[3:5] == "FT" for m in models)


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
    assert len(gp.base) == 10 and well_founded(gp).symbols() == "U" * 10
    models = enumerate_stable_models(gp)
    assert len(models) == 3**5
    # lexicographic with F < U < T, not the alphabetical F < T < U
    texts = [m.symbols() for m in models]
    assert texts == sorted(texts, key=lambda s: s.translate(TRUTH_ORDER))
    assert texts != sorted(texts)
    assert models == brute_force_stable_models(gp)


def public_well_founded(gp):
    """The public gl_transform iterated from all-U until it repeats."""
    cur = Valuation.from_symbols(gp.base, "U" * len(gp.base))
    for _ in range(2 * len(gp.base) + 2):
        nxt = gl_transform(gp, cur)
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("the public transform did not reach a fixpoint")


def test_well_founded_loop_matches_the_public_transform(conventional_corpus):
    # the loop on lane codes, which stops once the negated positions
    # settle, against whole valuations through the boundary wrapper
    workload = [
        ground(parse_program(prog.text))
        for name, seeds in (("stable", range(4)), ("corpus", range(4)), ("winmove", [0]))
        for seed in seeds
        for key, prog in workloads.build(name, seed).programs.items()
        if name != "corpus" or key.startswith("v")  # the conventional ones
    ]
    assert len(workload) == 400 + 800 + 16
    for gp in list(conventional_corpus) + workload:
        assert well_founded(gp) == public_well_founded(gp)


# -- an independent reference for the transform ------------------------------


def _interpretation(base, symbols):
    atoms = base.atoms
    return Interpretation(
        base,
        [a for a, s in zip(atoms, symbols) if s == "T"],
        [a for a, s in zip(atoms, symbols) if s == "F"],
    )


def reference_transform(gp, v):
    """The extended GL transform of v by its definition, sharing no code
    with the oracles: from all-F, each head takes the pseudo_eval value
    of its body in gp.rules, positive literals read from the current
    valuation and negated ones from v, and every atom that heads no
    rule stays F, until nothing changes."""
    atoms, rules = gp.base.atoms, gp.rules
    neg = _interpretation(gp.base, v.symbols())
    cur = "F" * len(atoms)
    for _ in range(2 * len(atoms) + 1):
        j = PseudoInterpretation(_interpretation(gp.base, cur), neg)
        nxt = "".join(pseudo_eval(j, rules[a]).value if a in rules else "F" for a in atoms)
        if nxt == cur:
            return Valuation.from_symbols(gp.base, cur)
        cur = nxt
    raise AssertionError("the reference transform did not converge")


def reference_well_founded(gp):
    """The reference transform iterated from all-U until it repeats."""
    chain = [Valuation.from_symbols(gp.base, "U" * len(gp.base))]
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
    cur = "U" * len(atoms)
    for _ in range(2 * len(atoms) + 1):
        i = _interpretation(gp.base, cur)
        j = PseudoInterpretation(i, i)
        nxt = "".join(pseudo_eval(j, rules[a]).value if a in rules else "U" for a in atoms)
        if nxt == cur:
            return Valuation.from_symbols(gp.base, cur)
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
        every = every_three_valued(gp.base)
        assert enumerate_stable_models(gp) == _reference_checks(gp, every)


def test_oracles_match_the_reference_on_the_stable_workload():
    """Seed 0 of the stable workload, searched over the candidates that
    keep the reference well-founded values of its settled atoms: every
    stable model does (see enumerate_stable_models)."""
    for prog in workloads.build("stable", 0).programs.values():
        gp = ground(parse_program(prog.text))
        wf = reference_well_founded(gp)[-1].symbols()
        choices = ["FUT" if s == "U" else s for s in wf]
        candidates = [Valuation.from_symbols(gp.base, "".join(c)) for c in product(*choices)]
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
            Valuation.from_symbols(gp.base, "".join(rng.choice("FUT") for _ in gp.base.atoms))
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
    v = Valuation.from_symbols(gp.base, "U" * len(gp.base))
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
        assert [m.symbols() for m in enumerate_stable_models(gp)] == ["T" * 11]


def test_enumeration_cap(monkeypatch):
    # 11 atoms in odd loops p_i <- ~p_i, each left open by the WFS
    gp = ground(parse_program(" ".join(f"p{i} <- ~p{i}." for i in range(11))))
    with pytest.raises(EnumerationCapError) as caught:
        enumerate_stable_models(gp)
    assert str(caught.value) == (
        "the well-founded semantics leaves 11 atoms open; enumeration is capped at 10"
    )
    monkeypatch.setattr(oracles, "ENUMERATION_CAP", 11)
    assert [m.symbols() for m in enumerate_stable_models(gp)] == ["U" * 11]


def test_non_conventional_inputs_rejected():
    # mixed_ops.blp, ground afresh so that the first calls here are its first
    gp = ground(parse_program("a <- b & c. d <- ~b + #t. e <- a * ~d. b <- #t."))
    v = Valuation.from_symbols(gp.base, "U" * len(gp.base))
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


def test_from_symbols_checks_its_text():
    # the checks the tests' three-valued inputs rely on: a text of the
    # wrong length or with a character outside "UTFI" is refused
    base = ground(parse_program("a. b. c.")).base
    assert Valuation.from_symbols(base, "TFU").symbols() == "TFU"
    for text, message in (
        ("TT", "expected 3 values, got 2"),
        ("TTTT", "expected 3 values, got 4"),
        ("", "expected 3 values, got 0"),
        ("T0F", "unknown truth symbol '0' (expected one of F, T, U, I)"),
        ("T1F", "unknown truth symbol '1' (expected one of F, T, U, I)"),
        ("TXF", "unknown truth symbol 'X' (expected one of F, T, U, I)"),
        ("tXF", "unknown truth symbol 't' (expected one of F, T, U, I)"),
    ):
        with pytest.raises(ValueError) as caught:
            Valuation.from_symbols(base, text)
        assert str(caught.value) == message, text
    # the oracles' results read back to themselves
    gp = ground(parse_program("a <- ~b. b <- ~a. c <- a & ~c."))
    for v in [well_founded(gp), kripke_kleene(gp)] + enumerate_stable_models(gp):
        assert Valuation.from_symbols(v.base, v.symbols()) == v


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
            assert gl_transform(gp, v) == reference_transform(gp, v)


def test_a_valuation_with_i_has_no_three_valued_counterpart(suspect_gp):
    text = "valuation contains I and has no three-valued counterpart"
    v = Valuation.from_symbols(suspect_gp.base, "TIFU")
    with pytest.raises(ValueError) as caught:
        gl_transform(suspect_gp, v)
    assert str(caught.value) == text


def test_oracle_results_are_plain_valuations(suspect_gp, conventional_corpus):
    for gp in [suspect_gp] + conventional_corpus:
        wf = well_founded(gp)
        results = [wf, kripke_kleene(gp), gl_transform(gp, wf)]
        results += enumerate_stable_models(gp)
        assert all(type(x) is Valuation for x in results)
