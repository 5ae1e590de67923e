"""Valuations, the pointwise orderings, and the two evaluation routes."""

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from blp.bilattice import (
    F,
    I,
    T,
    TruthValue,
    U,
    know_meet,
    leq_k,
    leq_t,
)
from blp.grounder import Base, GroundAtom
from blp.syntax import (
    Atom,
    Binary,
    BinOp,
    Const,
    NegAtom,
    Quant,
    Quantified,
    TruthConst,
    Var,
)
from blp.valuation import (
    BaseMismatchError,
    Interpretation,
    PseudoInterpretation,
    Valuation,
    const_valuation,
    contrajoin_eval,
    from_interpretation,
    pseudo_eval,
    to_interpretation,
)

ATOMS = tuple(GroundAtom(p) for p in ("a", "b", "c"))
BASE = Base(ATOMS)
ALL = tuple(TruthValue)


def all_valuations(base):
    return [Valuation(base, combo) for combo in itertools.product(ALL, repeat=len(base))]


def test_const_valuations_are_bounds():
    bottom_k = const_valuation(BASE, U)
    top_k = const_valuation(BASE, I)
    bottom_t = const_valuation(BASE, F)
    top_t = const_valuation(BASE, T)
    for v in all_valuations(BASE):
        assert bottom_k.leq_k(v) and v.leq_k(top_k)
        assert bottom_t.leq_t(v) and v.leq_t(top_t)


def test_empty_base_valuation():
    empty = Base(())
    v = const_valuation(empty, T)
    assert len(v.values) == 0
    assert v == const_valuation(empty, F).join_t(const_valuation(empty, T))


def test_pointwise_ops_and_meet_property():
    small = Base(ATOMS[:2])
    vals = all_valuations(small)
    for v, w in itertools.product(vals, repeat=2):
        m = v.meet_k(w)
        for atom in small:
            assert m[atom] is know_meet(v[atom], w[atom])
        assert m.leq_k(v) and m.leq_k(w)
        assert v.leq_t(w) == all(leq_t(v[a], w[a]) for a in small)


def test_valuation_lattice_bounds_pointwise():
    small = Base(ATOMS[:1])
    vals = all_valuations(small)
    for v, w in itertools.product(vals, repeat=2):
        assert v.meet_t(w).leq_t(v) and v.leq_t(v.join_t(w))
        assert v.meet_k(w).leq_k(w) and w.leq_k(v.join_k(w))


def test_base_mismatch_is_an_error():
    other = Base(ATOMS[:2])
    v = const_valuation(BASE, U)
    w = const_valuation(other, U)
    with pytest.raises(BaseMismatchError):
        v.leq_k(w)
    with pytest.raises(BaseMismatchError):
        v.meet_t(w)
    with pytest.raises(BaseMismatchError):
        v[GroundAtom("zzz")]


def test_from_mapping_errors():
    with pytest.raises(ValueError):
        Valuation.from_mapping(BASE, {GroundAtom("a"): T})
    with pytest.raises(ValueError):
        Valuation.from_mapping(
            BASE,
            {GroundAtom(p): T for p in ("a", "b", "c", "d")},
        )


def test_contrajoin_reads_positive_from_v_negative_from_w():
    base = Base((GroundAtom("innocent"),))
    v = Valuation(base, (T,))
    w = Valuation(base, (U,))
    assert contrajoin_eval(v, w, Atom("innocent")) is T
    assert contrajoin_eval(v, w, NegAtom("innocent")) is U


def test_contrajoin_constants_fixed():
    v = const_valuation(BASE, F)
    w = const_valuation(BASE, T)
    assert contrajoin_eval(v, w, TruthConst(I)) is I


def test_contrajoin_collapses_when_arguments_equal():
    rng = random.Random(3)
    body = Binary(
        BinOp.GULLIBILITY,
        Binary(BinOp.AND, Atom("a"), NegAtom("b")),
        Binary(BinOp.CONSENSUS, NegAtom("a"), TruthConst(U)),
    )

    def single_eval(v, f):
        # independent one-valuation evaluator for the collapse check
        if isinstance(f, Atom):
            return v[GroundAtom(f.pred)]
        if isinstance(f, NegAtom):
            from blp.bilattice import negation

            return negation(v[GroundAtom(f.pred)])
        if isinstance(f, TruthConst):
            return f.value
        from blp.bilattice import know_join, know_meet, truth_join, truth_meet

        fn = {
            BinOp.AND: truth_meet,
            BinOp.OR: truth_join,
            BinOp.CONSENSUS: know_meet,
            BinOp.GULLIBILITY: know_join,
        }[f.op]
        return fn(single_eval(v, f.left), single_eval(v, f.right))

    for _ in range(100):
        v = Valuation(BASE, [rng.choice(ALL) for _ in BASE])
        assert contrajoin_eval(v, v, body) is single_eval(v, body)


def test_contrajoin_rejects_quantifiers_and_unknown_atoms():
    v = const_valuation(BASE, U)
    with pytest.raises(ValueError):
        contrajoin_eval(v, v, Quantified(Quant.EXISTS, "X", Atom("a")))
    with pytest.raises(BaseMismatchError):
        contrajoin_eval(v, v, Atom("zzz"))
    with pytest.raises(ValueError):
        contrajoin_eval(v, v, Atom("p", (Var("X"),)))


def _contrajoin(v, body):
    return contrajoin_eval(v, v, body)


def _pseudo(v, body):
    i = to_interpretation(v)
    return pseudo_eval(PseudoInterpretation(i, i), body)


@pytest.mark.parametrize("evaluate", [_contrajoin, _pseudo], ids=["contrajoin", "pseudo"])
@pytest.mark.parametrize("leaf", [Atom, NegAtom], ids=["atom", "negated"])
def test_literal_lookup_errors(evaluate, leaf):
    v = const_valuation(BASE, U)
    with pytest.raises(BaseMismatchError, match="zzz"):
        evaluate(v, leaf("zzz"))
    # a variable argument is a grounding fault, not a foreign base, even
    # when its name spells an atom of the base
    with_pa = const_valuation(Base(ATOMS + (GroundAtom("p", ("a",)),)), U)
    for w, var in ((v, "X"), (with_pa, "a")):
        with pytest.raises(ValueError, match=f"variable {var}") as info:
            evaluate(w, leaf("p", (Var(var),)))
        assert not isinstance(info.value, BaseMismatchError)


def test_interpretation_round_trip():
    for v in all_valuations(Base(ATOMS[:2])):
        assert from_interpretation(to_interpretation(v)) == v


def test_interpretation_encoding():
    v = Valuation(BASE, (I, U, T))
    interp = to_interpretation(v)
    a, b, c = ATOMS
    assert a in interp.true_set and a in interp.false_set
    assert b not in interp.true_set and b not in interp.false_set
    assert c in interp.true_set and c not in interp.false_set
    assert to_interpretation(const_valuation(BASE, U)) == Interpretation(BASE, (), ())


def test_interpretation_rejects_stray_atoms():
    with pytest.raises(ValueError):
        Interpretation(BASE, {GroundAtom("zzz")}, ())


def test_pseudo_eval_negative_side():
    base = Base((GroundAtom("b"),))
    j = PseudoInterpretation(
        Interpretation(base, {GroundAtom("b")}, ()),  # pos: b true
        Interpretation(base, (), ()),  # neg: b unknown
    )
    assert pseudo_eval(j, NegAtom("b")) is U
    # negated-side b unknown, gullibility with true
    body = Binary(BinOp.GULLIBILITY, NegAtom("b"), TruthConst(T))
    assert pseudo_eval(j, body) is T


def random_ground_formula(rng, preds, depth):
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.4:
            return Atom(rng.choice(preds))
        if roll < 0.8:
            return NegAtom(rng.choice(preds))
        return TruthConst(rng.choice(ALL))
    return Binary(
        rng.choice(tuple(BinOp)),
        random_ground_formula(rng, preds, depth - 1),
        random_ground_formula(rng, preds, depth - 1),
    )


def test_pseudo_eval_agrees_with_contrajoin_on_random_pairs():
    # two independently coded evaluation routes, 1000 random (j, body) pairs
    rng = random.Random(99)
    preds = tuple(a.pred for a in ATOMS)
    for _ in range(1000):
        v = Valuation(BASE, [rng.choice(ALL) for _ in BASE])
        w = Valuation(BASE, [rng.choice(ALL) for _ in BASE])
        body = random_ground_formula(rng, preds, rng.randint(0, 3))
        j = PseudoInterpretation(to_interpretation(v), to_interpretation(w))
        assert pseudo_eval(j, body) is contrajoin_eval(v, w, body)


_vals = st.tuples(*([st.sampled_from(ALL)] * len(ATOMS))).map(
    lambda t: Valuation(BASE, t)
)


@st.composite
def _ground_formulas(draw, depth=3):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_ground_formula(rng, tuple(a.pred for a in ATOMS), depth)


@given(_vals, _vals, _vals, _vals, _ground_formulas())
def test_contrajoin_cross_monotonicity(v1, dv, w1, dw, body):
    # knowledge: raising either argument raises the value
    v2 = v1.join_k(dv)
    w2 = w1.join_k(dw)
    assert leq_k(contrajoin_eval(v1, w1, body), contrajoin_eval(v2, w2, body))
    # truth: raising the positive source while lowering the negative one
    t2 = v1.join_t(dv)
    s2 = w1.join_t(dw)
    assert leq_t(contrajoin_eval(v1, s2, body), contrajoin_eval(t2, w1, body))


def test_serialization_forms():
    v = Valuation(BASE, (I, U, T))
    assert v.to_lines() == "a\tI\nb\tU\nc\tT\n"
    assert json.loads(json.dumps(v.to_json_dict())) == {"a": "I", "b": "U", "c": "T"}


def test_from_symbols_inverts_symbols():
    # every valuation over up to 4 atoms, read back through item lookup
    for n in range(5):
        base = Base(GroundAtom(f"p{i}") for i in range(n))
        for v in all_valuations(base):
            text = v.symbols()
            assert text == "".join(str(v[a]) for a in base.atoms)
            w = Valuation.from_symbols(base, text)
            assert (w.belief, w.doubt) == (v.belief, v.doubt)
            assert w.symbols() == text
    # and seeded random masks over 300 atoms
    rng = random.Random(12)
    base = Base(GroundAtom("p", (f"c{i}",)) for i in range(300))
    for _ in range(50):
        belief, doubt = rng.getrandbits(300), rng.getrandbits(300)
        v = Valuation.from_masks(base, belief, doubt)
        w = Valuation.from_symbols(base, v.symbols())
        assert (w.belief, w.doubt) == (belief, doubt)
