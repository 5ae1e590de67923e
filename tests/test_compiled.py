"""The compiled body evaluator and the (belief, doubt) mask valuations."""

import itertools
import random
from collections import Counter

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
from blp.grounder import Base, GroundAtom, formula_code, ground
from blp.syntax import Atom, Binary, BinOp, NegAtom, TruthConst, parse_program
from blp.valuation import (
    _START,
    CompiledBodies,
    PseudoInterpretation,
    Valuation,
    const_valuation,
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
        # one bit per distinct literal: a, b positive; a, b negated,
        # read by both the belief and the doubt of the node
        assert compiled.nodes[0][1:3] == (0b1111, 0b1111)
        _exhaustive(AB, body)


def test_truth_constants_fold_inside_and_and_consensus():
    for text in ("a & #u & ~b", "#i & a & ~b", "a * #i * ~b", "#u * ~a * b",
                 "(a | #u) & (~b * #i)", "#i & #u", "#u * #t", "(#t * #f) | a"):
        body = _body(text)
        compiled = CompiledBodies(AB, [(0, formula_code(AB, body))])
        # no node is left holding only constants: each reads a literal
        # or is the parent of another node
        fed = {parent for _, _, _, _, parent, _, _ in compiled.nodes}
        assert all(mb or md or slot in fed for _, mb, md, slot, _, _, _ in compiled.nodes)
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
    assert const_valuation(v.base, I).values == (I,) * 10
    assert Valuation(Base(()), ()).values == ()


# The node list derived for one alpha (CompiledBodies.at_alpha) against the
# compiled one.

def game(seed, n):
    """A win-move game of n positions on a seeded random digraph."""
    rng = random.Random(seed)
    moves = {(i, rng.randrange(n)) for i in range(n) for _ in range(rng.randint(0, 2))}
    text = "".join(f"move(p{i},p{j}).\n" for i, j in sorted(moves))
    return ground(parse_program(text + "win(X) <- exists Y: move(X,Y) & ~win(Y).\n"))


def closure(n):
    """Transitive closure over a ring of n nodes."""
    text = "".join(f"e(n{i},n{(i + 1) % n}).\n" for i in range(n))
    return ground(parse_program(
        text + "path(X,Y) <- e(X,Y) | (exists Z: e(X,Z) & path(Z,Y)).\n"))


FOLDED = [game(seed, n) for seed, n in enumerate((6, 8, 10, 12, 14))] + \
    [closure(n) for n in (3, 4, 5)]


def at_alpha_on_rest(rng, compiled, alpha):
    """A random valuation holding alpha on every atom of compiled.rest."""
    start = compiled.at_alpha(alpha)[0]
    v = random_valuation(rng, start.base)
    rest = compiled.rest
    return Valuation.from_masks(
        start.base, v.belief & ~rest | start.belief & rest, v.doubt & ~rest | start.doubt & rest)


def pass_through_nodes(nodes, init):
    """The nodes of a list that have no literal, their kind's identity
    as start value and one node writing into their slot, so that they
    only pass that node's value on."""
    writers = Counter(p for _, _, _, _, p, _, _ in nodes)
    return [node for node in nodes
            if not node[1] | node[2] and init[node[3]] == _START[node[0]]
            and writers[node[3]] == 1]


def assert_folds_agree(gp, rng, pairs):
    compiled = engine._compiled(gp)
    for alpha in ALPHAS:
        # the folded list, and the one the engine runs, which is the
        # compiled list itself for a short one
        lists = [compiled._fold(alpha), compiled.at_alpha(alpha)[3:]]
        assert pass_through_nodes(*lists[0]) == [], (gp.render(), alpha)
        for _ in range(pairs):
            v = at_alpha_on_rest(rng, compiled, alpha)
            w = random_valuation(rng, gp.base)
            want = compiled.evaluate(v, w)
            for nodes, init in lists:
                assert compiled.evaluate(v, w, nodes, init) == want, (gp.render(), alpha)


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_alpha_lists_agree_with_the_compiled_list_on_corpora(corpus, request):
    rng = random.Random(43)
    for gp in request.getfixturevalue(corpus):
        assert_folds_agree(gp, rng, 3)


def test_alpha_lists_agree_with_the_compiled_list_on_games_and_closures():
    rng = random.Random(47)
    for gp in FOLDED:
        assert_folds_agree(gp, rng, 20)


def test_alpha_lists_of_games_and_closures_read_no_non_head_positively():
    for gp in FOLDED:
        compiled = engine._compiled(gp)
        assert compiled.positive & compiled.rest
        for alpha in ALPHAS:
            nodes = compiled.at_alpha(alpha)[3]
            assert len(nodes) < len(compiled.nodes)
            assert all(not (mb | md) & compiled.rest for _, mb, md, _, _, _, _ in nodes)


def test_consequence_off_alpha_on_a_non_head_runs_the_compiled_list():
    rng = random.Random(53)
    for gp in FOLDED:
        compiled = engine._compiled(gp)
        for alpha in ALPHAS:
            start = compiled.at_alpha(alpha)[0]
            for _ in range(10):
                v = random_valuation(rng, gp.base)
                w = random_valuation(rng, gp.base)
                if not (v.belief ^ start.belief | v.doubt ^ start.doubt) & compiled.rest:
                    continue
                belief, doubt = compiled.evaluate(v, w)
                rest = compiled.rest
                assert engine.immediate_consequence(gp, alpha, v, w) == Valuation.from_masks(
                    gp.base, belief | start.belief & rest, doubt | start.doubt & rest)


def test_a_node_settled_by_alpha_drops_the_nodes_below_it():
    # r heads no rule; at F the & is F whatever its other operand is
    gp = ground(parse_program("p. q. h <- r & ((p * ~q) | (~p * q))."))
    compiled = engine._compiled(gp)
    nodes, init = compiled._fold(F)
    assert len(compiled.nodes) == 4 and nodes == ()
    h = gp.base.names.index("h")
    assert compiled.evaluate(const_valuation(gp.base, F), const_valuation(gp.base, U),
                             nodes, init)[1] >> h & 1
    # at T, r is the identity of &, which then only passes the value of
    # the | below it on: the | writes into the output slot in its place
    nodes, init = compiled._fold(T)
    assert len(nodes) == 3 and nodes[-1][0] == 1 and nodes[-1][4] < len(compiled.outputs)
    for v in (const_valuation(gp.base, T), Valuation.from_symbols(gp.base, "TFUT")):
        for w in (const_valuation(gp.base, U), Valuation.from_symbols(gp.base, "FTUI")):
            assert compiled.evaluate(v, w, nodes, init) == compiled.evaluate(v, w)
