"""The compiled body evaluator and the (belief, doubt) mask valuations."""

import itertools
import random

import pytest

from blp import engine
from blp.bilattice import (
    F,
    I,
    T,
    TruthValue,
    U,
    know_join,
    know_meet,
    leq_k,
    leq_t,
    negation,
    truth_join,
    truth_meet,
)
from blp.grounder import Base, GroundAtom, formula_code
from blp.syntax import Atom, Binary, BinOp, NegAtom, TruthConst, parse_program
from blp.valuation import (
    CompiledBodies,
    PseudoInterpretation,
    Valuation,
    pseudo_eval,
    to_interpretation,
)

ALL = tuple(TruthValue)
ALPHAS = (F, T, U, I)
_FN = {
    BinOp.AND: truth_meet,
    BinOp.OR: truth_join,
    BinOp.CONSENSUS: know_meet,
    BinOp.GULLIBILITY: know_join,
}


def random_valuation(rng, base):
    return Valuation(base, [rng.choice(ALL) for _ in base])


def compiled_value(base, body, v, w):
    belief, doubt = CompiledBodies(base, [(0, formula_code(base, body))]).evaluate(v, w)
    return {(0, 0): U, (1, 0): T, (0, 1): F, (1, 1): I}[belief, doubt]


def assert_agrees_with_pseudo_eval(gp, rng, pairs):
    for _ in range(pairs):
        v = random_valuation(rng, gp.base)
        w = random_valuation(rng, gp.base)
        j = PseudoInterpretation(to_interpretation(v), to_interpretation(w))
        for alpha in ALPHAS:
            out = engine.immediate_consequence(gp, alpha, v, w)
            for atom in gp.base:
                body = gp.rules.get(atom)
                want = alpha if body is None else pseudo_eval(j, body)
                assert out[atom] is want, (gp.render(), atom, alpha)


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_compiled_program_agrees_with_pseudo_eval_on_corpora(corpus, request):
    rng = random.Random(41)
    for gp in request.getfixturevalue(corpus):
        assert_agrees_with_pseudo_eval(gp, rng, 3)


def _exhaustive(base, body):
    """Compare with pseudo_eval on every pair of valuations over base."""
    vals = [Valuation(base, combo) for combo in itertools.product(ALL, repeat=len(base))]
    for v, w in itertools.product(vals, repeat=2):
        j = PseudoInterpretation(to_interpretation(v), to_interpretation(w))
        assert compiled_value(base, body, v, w) is pseudo_eval(j, body), (v, w)


A, B = GroundAtom("a"), GroundAtom("b")
AB = Base((A, B))


def _body(text):
    return parse_program(f"h <- {text}.").clauses[0].body


def test_same_connective_chains_flatten_into_one_node():
    for op in "&|*+":
        body = _body(f" {op} ".join(["a", "~b", "b", "~a", "a"]))
        compiled = CompiledBodies(AB, [(0, formula_code(AB, body))])
        assert len(compiled.nodes) == 1
        # one bit per distinct literal: a, b positive; a, b negated
        assert compiled.nodes[0][1] == 0b1111
        _exhaustive(AB, body)


def test_truth_constants_fold_inside_and_and_consensus():
    for text in ("a & #u & ~b", "#i & a & ~b", "a * #i * ~b", "#u * ~a * b",
                 "(a | #u) & (~b * #i)", "#i & #u", "#u * #t", "(#t * #f) | a"):
        body = _body(text)
        compiled = CompiledBodies(AB, [(0, formula_code(AB, body))])
        # no node is left holding only constants
        assert all(node[1] or any(other[3] == node[2] for other in compiled.nodes)
                   for node in compiled.nodes)
        _exhaustive(AB, body)


def test_atom_positive_and_negated_in_one_node():
    for op in "&|*+":
        body = _body(f"a {op} ~a")
        assert len(CompiledBodies(AB, [(0, formula_code(AB, body))]).nodes) == 1
        _exhaustive(AB, body)


def test_left_deep_chain_of_5000_nodes():
    # alternating connectives, so nothing flattens: 5000 nested nodes
    rng = random.Random(5)
    atoms = [GroundAtom(f"p{i}") for i in range(50)]
    base = Base(atoms)
    ops = tuple(BinOp)
    leaves = []
    for _ in range(5001):
        roll = rng.random()
        atom = rng.choice(atoms)
        if roll < 0.45:
            leaves.append(Atom(atom.pred))
        elif roll < 0.9:
            leaves.append(NegAtom(atom.pred))
        else:
            leaves.append(TruthConst(rng.choice(ALL)))
    chain_ops = [ops[k % 4] for k in range(5000)]
    body = leaves[0]
    for op, leaf in zip(chain_ops, leaves[1:]):
        body = Binary(op, body, leaf)
    for _ in range(5):
        v = random_valuation(rng, base)
        w = random_valuation(rng, base)

        def leaf_value(leaf):
            if isinstance(leaf, Atom):
                return v[GroundAtom(leaf.pred)]
            if isinstance(leaf, NegAtom):
                return negation(w[GroundAtom(leaf.pred)])
            return leaf.value

        want = leaf_value(leaves[0])
        for op, leaf in zip(chain_ops, leaves[1:]):
            want = _FN[op](want, leaf_value(leaf))
        assert compiled_value(base, body, v, w) is want


def test_mask_valuation_ops_match_the_bilattice_tables():
    atom = GroundAtom("a")
    one = Base((atom,))
    for a, b in itertools.product(ALL, repeat=2):
        va, vb = Valuation(one, (a,)), Valuation(one, (b,))
        assert va.meet_t(vb)[atom] is truth_meet(a, b)
        assert va.join_t(vb)[atom] is truth_join(a, b)
        assert va.meet_k(vb)[atom] is know_meet(a, b)
        assert va.join_k(vb)[atom] is know_join(a, b)
        assert va.negate()[atom] is negation(a)
        assert va.leq_t(vb) == leq_t(a, b)
        assert va.leq_k(vb) == leq_k(a, b)
        assert (va == vb) == (a is b)
    # two positions never interfere
    vals = [Valuation(AB, combo) for combo in itertools.product(ALL, repeat=2)]
    for v, w in itertools.product(vals, repeat=2):
        pairs = list(zip(v.values, w.values))
        assert v.meet_t(w).values == tuple(truth_meet(x, y) for x, y in pairs)
        assert v.join_k(w).values == tuple(know_join(x, y) for x, y in pairs)
        assert v.leq_t(w) == all(leq_t(x, y) for x, y in pairs)
        assert v.leq_k(w) == all(leq_k(x, y) for x, y in pairs)
        assert Valuation.from_masks(AB, v.belief, v.doubt) == v
        assert hash(Valuation(AB, v.values)) == hash(v)
        assert v.negate().values == tuple(map(negation, v.values))


def test_values_decode_in_base_order():
    v = Valuation(Base(GroundAtom(f"x{i}") for i in range(10)), [I, U, T, F] * 2 + [T, U])
    assert v.values == (I, U, T, F, I, U, T, F, T, U)
    assert [v[a] for a in v.base] == list(v.values)
    assert Valuation.constant(v.base, I).values == (I,) * 10
    assert Valuation(Base(()), ()).values == ()
