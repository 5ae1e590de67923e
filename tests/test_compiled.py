"""The compiled body evaluator and the (belief, doubt) mask valuations."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

import proggen
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
from blp.grounder import LIT, Base, GroundAtom, formula_code, ground
from blp.syntax import Atom, Binary, BinOp, NegAtom, TruthConst, parse_program
from blp.valuation import (
    _FOLD_MIN_NODES,
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
    # a two-literal operand of the chain's own connective is not a leaf
    # of its own, on either side and at any depth
    abc = Base((A, B, GroundAtom("c")))
    for text, mask in (("(a & b) & ~c", 0b100011), ("a | b | c", 0b111),
                       ("~c * (a * b)", 0b100011), ("(a + ~b) + (c + a)", 0b010101),
                       ("((a & b) & (b & ~c)) & (~a & c)", 0b101111)):
        compiled = CompiledBodies(abc, [(0, formula_code(abc, _body(text)))])
        assert [node[1:3] for node in compiled.nodes] == [(mask, mask)], text


def test_truth_constants_fold_inside_and_and_consensus():
    for text in ("a & #u & ~b", "#i & a & ~b", "a * #i * ~b", "#u * ~a * b",
                 "(a | #u) & (~b * #i)", "#i & #u", "#u * #t", "(#t * #f) | a",
                 "((#t * #f) | #u) & a", "(((#t + #f) & #i) * #u) | ~b"):
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

def game(seed, n, body="move(X,Y) & ~win(Y)"):
    """A win-move game of n positions on a seeded random digraph."""
    rng = random.Random(seed)
    moves = {(i, rng.randrange(n)) for i in range(n) for _ in range(rng.randint(0, 2))}
    text = "".join(f"move(p{i},p{j}).\n" for i, j in sorted(moves))
    return ground(parse_program(text + f"win(X) <- exists Y: {body}.\n"))


def closure(n):
    """Transitive closure over a ring of n nodes."""
    text = "".join(f"e(n{i},n{(i + 1) % n}).\n" for i in range(n))
    return ground(parse_program(
        text + "path(X,Y) <- e(X,Y) | (exists Z: e(X,Z) & path(Z,Y)).\n"))


# The leaves of the game with #u read a constant too, so none of them
# is a guarded leaf: their start is not their kind's identity.  In the
# last program r and s head no rule, so r & ~q passes ~q on at T while
# r & s is T: two records of & under one |.
FOLDED = [game(seed, n) for seed, n in enumerate((6, 8, 10, 12, 14))] + \
    [closure(n) for n in (3, 4, 5)] + [game(5, 10, "move(X,Y) & ~win(Y) & #u")] + \
    [ground(parse_program("q <- ~q.\n" + "".join(
        f"h{i} <- (r & ~q) | (r & s) | (s & ~h{i}).\n" for i in range(4))))]
# Wider random programs over all four connectives and constants: 18 of
# them are long enough to fold, and 21 group guarded leaves, of every
# kind, into records; two more have guarded leaves but fewer than
# _FOLD_MIN_NODES nodes, and keep them as nodes.
WIDE = [proggen.random_ground_program(4000 + seed, max_atoms=16, max_depth=5)
        for seed in range(40)]


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


def reference_outs(compiled, nodes, init):
    """The outs of a node list, from its nodes: the result masks of the
    output slots' start values and the (slot, bit) of every output some
    node writes into."""
    parents = {node[4] for node in nodes}
    belief = doubt = 0
    for s, bit in enumerate(compiled.outputs):
        belief |= bit * (init[s] & 1)
        doubt |= bit * (init[s] >> 1 & 1)
    return belief, doubt, tuple((s, bit) for s, bit in enumerate(compiled.outputs)
                                if s in parents)


def folded_list(compiled, alpha):
    """The node list _fold makes for alpha, its outs checked."""
    node_list = compiled._fold(alpha)
    assert node_list[2] == reference_outs(compiled, *node_list[:2])
    return node_list


def assert_folds_agree(gp, rng, pairs):
    compiled = engine._compiled(gp)
    for alpha in ALPHAS:
        # the folded list, and the one the engine runs, which is the
        # compiled list itself for a short one
        lists = [folded_list(compiled, alpha), compiled.at_alpha(alpha)[3]]
        assert pass_through_nodes(*lists[0][:2]) == [], (gp.render(), alpha)
        for _ in range(pairs):
            v = at_alpha_on_rest(rng, compiled, alpha)
            w = random_valuation(rng, gp.base)
            want = compiled.evaluate(v, w)
            for node_list in lists:
                assert compiled.evaluate(v, w, node_list) == want, (gp.render(), alpha)


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_alpha_lists_agree_with_the_compiled_list_on_corpora(corpus, request):
    rng = random.Random(43)
    for gp in request.getfixturevalue(corpus):
        assert_folds_agree(gp, rng, 3)


def test_alpha_lists_agree_with_the_compiled_list_on_games_and_closures():
    rng = random.Random(47)
    for gp in FOLDED + WIDE:
        assert_folds_agree(gp, rng, 20)


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_the_walk_makes_the_outs_of_the_compiled_list(corpus, request):
    # the outs compile's walk makes as it goes are what reference_outs
    # finds from the nodes, whether the walk groups leaves into records or not
    for gp in request.getfixturevalue(corpus) + FOLDED + WIDE:
        compiled = CompiledBodies(gp.base, gp.ir)
        for grouped in (0, compiled.rest):
            nodes, init, outs = compiled._walk(grouped)[:3]
            assert outs == reference_outs(compiled, nodes, init), gp.render()
        assert compiled.nodes is compiled._list[0]
        assert compiled._list[2] == reference_outs(compiled, *compiled._list[:2])


def test_alpha_lists_of_games_and_closures_read_no_non_head_positively():
    for gp in FOLDED:
        compiled = engine._compiled(gp)
        assert compiled.positive & compiled.rest
        for alpha in ALPHAS:
            nodes = compiled.at_alpha(alpha)[3][0]
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
                want = belief | start.belief & rest, doubt | start.doubt & rest
                assert compiled.consequence(alpha, v, w) == want
                assert engine.immediate_consequence(gp, alpha, v, w) == Valuation.from_masks(
                    gp.base, *want)


def test_a_node_settled_by_alpha_drops_the_nodes_below_it():
    # r heads no rule; at F the & is F whatever its other operand is
    gp = ground(parse_program("p. q. h <- r & ((p * ~q) | (~p * q))."))
    compiled = engine._compiled(gp)
    node_list = folded_list(compiled, F)
    assert len(compiled.nodes) == 4 and node_list[0] == ()
    h = gp.base.names.index("h")
    assert compiled.evaluate(const_valuation(gp.base, F), const_valuation(gp.base, U),
                             node_list)[1] >> h & 1
    # at T, r is the identity of &, which then only passes the value of
    # the | below it on: the | writes into the output slot in its place
    node_list = folded_list(compiled, T)
    nodes = node_list[0]
    assert len(nodes) == 3 and nodes[-1][0] == 1 and nodes[-1][4] < len(compiled.outputs)
    for v in (const_valuation(gp.base, T), Valuation.from_symbols(gp.base, "TFUT")):
        for w in (const_valuation(gp.base, U), Valuation.from_symbols(gp.base, "FTUI")):
            assert compiled.evaluate(v, w, node_list) == compiled.evaluate(v, w)


def assert_alpha_lists_agree_with_pseudo_eval(gp, rng, pairs):
    compiled = engine._compiled(gp)
    for alpha in ALPHAS:
        node_list = compiled.at_alpha(alpha)[3]
        for _ in range(pairs):
            v = at_alpha_on_rest(rng, compiled, alpha)
            w = random_valuation(rng, gp.base)
            out = Valuation.from_masks(gp.base, *compiled.evaluate(v, w, node_list))
            j = PseudoInterpretation(to_interpretation(v), to_interpretation(w))
            for atom, body in gp.rules.items():
                assert out[atom] is pseudo_eval(j, body), (gp.render(), atom, alpha)


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_alpha_lists_agree_with_pseudo_eval_on_corpora(corpus, request):
    rng = random.Random(61)
    for gp in request.getfixturevalue(corpus):
        assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 3)


def test_alpha_lists_agree_with_pseudo_eval_on_games_and_closures():
    rng = random.Random(67)
    for gp in FOLDED + WIDE:
        assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 10)


def guarded_leaves(compiled):
    """The guarded leaves of the compiled list of a list long enough to
    group them, per (parent slot, kind, reads another literal, parent
    folds with and, flip): [how many, the OR of their other literals];
    and the list's other nodes, in order.  A guarded leaf has no node
    writing into its slot, its kind's identity as start value and a node
    as parent, and reads an atom of rest without "~" and at most one
    other literal."""
    nodes, init, _ = compiled._list or compiled._compiled_list()
    rest = compiled.rest
    # the gate counts an upper bound of size, so a list of records may
    # have fewer nodes than _FOLD_MIN_NODES
    grouped = has_records(compiled) or compiled.size >= _FOLD_MIN_NODES
    writers = Counter(node[4] for node in nodes)
    groups = {}
    others = []
    for node in nodes:
        kind, mask, _, slot, parent, pmeet, flip = node
        other = mask & ~rest
        if (grouped and slot not in writers
                and init[slot] == _START[kind] and parent >= len(compiled.outputs)
                and mask & rest and not other & other - 1):
            group = groups.setdefault((parent, kind, bool(other), pmeet, flip), [0, 0])
            group[0] += 1
            group[1] |= other
        else:
            others.append(node)
    return groups, others


def assert_sequence_groups_the_guarded_leaves(compiled):
    """compiled._seq is the compiled list with the guarded leaves of
    one kind under one parent that read another literal, and those that
    read none, each one record just before its parent, holding the OR of
    their other literals; its other entries are the list's other nodes,
    in order."""
    groups, others = guarded_leaves(compiled)
    seq = compiled._seq
    nodes = [entry for entry in seq if entry[3] is not None]
    assert [node[:3] + node[5:] for node in nodes] == [node[:3] + node[5:] for node in others]
    # the slot in the compiled list of each slot of the sequence
    slot_of = dict(enumerate(range(len(compiled.outputs))))
    slot_of.update((entry[3], node[3]) for entry, node in zip(nodes, others))
    assert [slot_of[entry[4]] for entry in nodes] == [node[4] for node in others]
    where = {entry[3]: k for k, entry in enumerate(seq) if entry[3] is not None}
    records = {}
    for k, (kind, mb, md, slot, parent, pmeet, flip) in enumerate(seq):
        if slot is None:
            assert where[parent] > k and mb == md
            key = (slot_of[parent], kind, bool(mb), pmeet, flip)
            assert key not in records
            records[key] = mb
    assert records == {key: other for key, (_, other) in groups.items()}
    leaves = sum(count for count, _ in groups.values())
    assert len(compiled.nodes) == compiled.size == len(nodes) + leaves
    return groups


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_node_sequence_groups_the_guarded_leaves_on_corpora(corpus, request):
    for gp in request.getfixturevalue(corpus):
        assert_sequence_groups_the_guarded_leaves(engine._compiled(gp))


def has_records(compiled):
    return any(slot is None for _, _, _, slot, _, _, _ in compiled._seq)


def test_node_sequence_groups_the_guarded_leaves_of_games_and_closures():
    for gp in FOLDED + WIDE:
        assert_sequence_groups_the_guarded_leaves(engine._compiled(gp))
    # all but the game whose leaves read #u
    assert [has_records(engine._compiled(gp)) for gp in FOLDED] == [True] * 8 + [False, True]
    assert sum(has_records(engine._compiled(gp)) for gp in WIDE) == 21


def rule_bound_holds(compiled, v):
    """is_model's test, on the compiled list."""
    belief, doubt = compiled.evaluate(v, v)
    heads = compiled.out_mask
    return v.belief & heads & ~belief == 0 and doubt & ~(v.doubt & heads) == 0


def test_is_model_agrees_with_the_compiled_list():
    rng = random.Random(71)
    outcomes = Counter()
    for gp in FOLDED + WIDE:
        compiled = engine._compiled(gp)
        rest = compiled.rest
        for _ in range(20):
            v = random_valuation(rng, gp.base)
            # heads F, then each head given its body's value there: a
            # valuation near the bound, so that is_model can go either way
            heads = compiled.out_mask
            low = Valuation.from_masks(gp.base, v.belief & rest, v.doubt & rest | heads)
            belief, doubt = compiled.evaluate(low, low)
            near = Valuation.from_masks(gp.base, low.belief | belief, low.doubt & rest | doubt)
            for x in (v, near):
                # and the same with U on every non-head, as in a consensus
                for y in (x, Valuation.from_masks(gp.base, x.belief & ~rest, x.doubt & ~rest)):
                    want = rule_bound_holds(compiled, y)
                    assert engine.is_model(gp, y) is want, (gp.render(), y)
                    outcomes[want, y is x] += 1
    assert len(outcomes) == 4, outcomes


def literal_atoms(gp):
    """The masks of the atoms gp.ir reads without "~" and under "~":
    even literal codes read their atom positively, odd ones negated."""
    positive = negated = 0
    for _, code in gp.ir:
        for c in code:
            if c >= LIT:
                if (c - LIT) & 1:
                    negated |= 1 << (c - LIT >> 1)
                else:
                    positive |= 1 << (c - LIT >> 1)
    return positive, negated


@pytest.mark.parametrize(
    "corpus", ["mixed_corpus", "conventional_corpus", "positive_corpus", "tiny_corpus"]
)
def test_positive_and_negated_are_the_literals_of_the_ir_on_corpora(corpus, request):
    for gp in request.getfixturevalue(corpus):
        compiled = CompiledBodies(gp.base, gp.ir)
        assert (compiled.positive, compiled.negated) == literal_atoms(gp), gp.render()


def test_positive_and_negated_are_the_literals_of_the_ir_of_games_and_closures():
    for gp in FOLDED + WIDE:
        compiled = CompiledBodies(gp.base, gp.ir)
        assert (compiled.positive, compiled.negated) == literal_atoms(gp), gp.render()


_OPS = "&|*+"


def two_literal_leaves():
    """A program whose bodies hold two-literal leaves of each kind under
    a parent of each other kind.  r and t head no rule, so the leaves
    that read one of them without "~" are guarded, among them r & r
    and r & ~r; those over q, s and ~h are not."""
    rules = ["q <- ~s.", "s <- ~q | t."]
    for k, leaf in enumerate(_OPS):
        for m, parent in enumerate(_OPS):
            if m != k:
                operands = ["r {} ~q", "t {} r", "r {} r", "r {} ~r", "q {} ~q", "q {} q",
                            f"s {{}} ~h{k}{m}"]
                body = f" {parent} ".join("(" + text.format(leaf) + ")" for text in operands)
                rules.append(f"h{k}{m} <- {body}.")
    return ground(parse_program("\n".join(rules) + "\n"))


def assert_compiled_list_agrees_with_pseudo_eval(gp, rng, pairs):
    compiled = engine._compiled(gp)
    for _ in range(pairs):
        v = random_valuation(rng, gp.base)
        w = random_valuation(rng, gp.base)
        out = Valuation.from_masks(gp.base, *compiled.evaluate(v, w))
        j = PseudoInterpretation(to_interpretation(v), to_interpretation(w))
        for atom, body in gp.rules.items():
            assert out[atom] is pseudo_eval(j, body), (gp.render(), atom)


def test_two_literal_leaves_of_every_kind_under_every_other_kind():
    gp = two_literal_leaves()
    compiled = engine._compiled(gp)
    assert compiled.size >= _FOLD_MIN_NODES
    groups = assert_sequence_groups_the_guarded_leaves(compiled)
    # the guarded leaves of one body form two records of two leaves each:
    # r & ~q and r & ~r read another literal, t & r and r & r do not; the
    # other three are nodes
    kinds = {node[3]: node[0] for node in compiled.nodes}
    records = Counter((kind, kinds[p], reads, count)
                      for (p, kind, reads, _, _), (count, _) in groups.items())
    assert records == Counter({(leaf, parent, reads, 2): 1 for leaf in range(4)
                               for parent in range(4) if parent != leaf
                               for reads in (False, True)})
    parents = {entry[3]: entry[0] for entry in compiled._seq if entry[3] is not None}
    leaves = Counter((kind, parents[p]) for kind, _, _, slot, p, _, _ in compiled._seq
                     if slot is not None and p >= len(compiled.outputs))
    assert leaves == Counter({(leaf, parent): 3 for leaf in range(4)
                              for parent in range(4) if parent != leaf})
    rng = random.Random(73)
    assert_compiled_list_agrees_with_pseudo_eval(gp, rng, 40)
    assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 40)
    assert_folds_agree(gp, rng, 40)


def test_a_body_that_is_one_two_literal_leaf_is_a_root():
    # r heads no rule and the program is long enough to group leaves,
    # but h's body is a root, writing into h's output slot
    gp = ground(parse_program("h <- r & b.\nk <- r | ~b.\nb <- ~k.\n" + "".join(
        f"b{i} <- (r & ~b{i + 1}) | (b & ~b{i}).\n" for i in range(8))))
    compiled = engine._compiled(gp)
    assert compiled.size >= _FOLD_MIN_NODES and has_records(compiled)
    for atom in ("h", "k"):
        out = gp.base.names.index(atom)
        slot = [s for s, bit in enumerate(compiled.outputs) if bit == 1 << out]
        assert [(entry[0], entry[3] is not None) for entry in compiled._seq
                if entry[4] in slot] == [(0 if atom == "h" else 1, True)]
    assert_sequence_groups_the_guarded_leaves(compiled)
    rng = random.Random(79)
    assert_compiled_list_agrees_with_pseudo_eval(gp, rng, 20)
    assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 20)


def test_a_program_of_few_nodes_keeps_its_guarded_leaves_as_nodes():
    # a and c head no rule, so a & f0 and c & ~h are guarded leaves; the
    # facts make no node, and the three nodes of h's body are too few to
    # fold, so the leaves stay nodes and the compiled list is made with
    # the compiled bodies
    gp = ground(parse_program(
        "".join(f"f{i}.\n" for i in range(20)) + "h <- (a & f0) | (c & ~h).\n"))
    compiled = CompiledBodies(gp.base, gp.ir)
    assert compiled.size == 3 < _FOLD_MIN_NODES
    assert not has_records(compiled) and compiled._list is not None
    assert_sequence_groups_the_guarded_leaves(compiled)
    rng = random.Random(83)
    assert_compiled_list_agrees_with_pseudo_eval(gp, rng, 20)
    assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 20)


def test_records_hold_less_than_the_compiled_list_they_stand_for():
    # a record holds the OR of its leaves' other literals, not a mask per
    # leaf, so compiled bodies of records hold far less memory than the
    # compiled list, made only when something runs it (on closure(16),
    # under Python 3.11: 180 kB against 954 kB; 517 kB when records kept
    # their leaves' masks)
    gp = closure(16)
    tracemalloc.start()
    try:
        compiled = CompiledBodies(gp.base, gp.ir)
        held = tracemalloc.get_traced_memory()[0]
        assert has_records(compiled) and compiled._list is None
        nodes = compiled.nodes
        listed = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert len(nodes) == compiled.size and 2 * held < listed, (held, listed)


def test_a_run_of_leaves_ends_with_the_last_operand_of_its_node():
    # read from the last code, ~d | a is the last operand of its & node;
    # the & and a | ~c read next belong to the parent |, and must not be
    # taken as one more leaf of the run under the & node
    rng = random.Random(89)
    body = "p <- (a + b) & (a | ~c) | (~d | a) & ~b.\n"
    for text in (body, body + "a <- ~d.\n"):
        gp = ground(parse_program(text))
        assert_compiled_list_agrees_with_pseudo_eval(gp, rng, 200)
        assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 200)


def test_a_run_of_leaves_mixes_guarded_leaves_of_both_records():
    # r and t head no rule: in h's chain of leaves, r & ~q and t & ~h read
    # another literal, r & t and t & t do not, and q & ~q and h & q are
    # not guarded; they alternate along one run
    leaves = ["r & ~q", "r & t", "q & ~q", "t & ~h", "t & t", "h & q"] * 3
    gp = ground(parse_program(
        "q <- ~q.\nh <- " + " | ".join(f"({leaf})" for leaf in leaves) + ".\n"))
    compiled = engine._compiled(gp)
    assert compiled.size >= _FOLD_MIN_NODES
    groups = assert_sequence_groups_the_guarded_leaves(compiled)
    assert sorted((reads, count) for (_, _, reads, _, _), (count, _) in groups.items()) == [
        (False, 6), (True, 6)]
    rng = random.Random(97)
    assert_compiled_list_agrees_with_pseudo_eval(gp, rng, 40)
    assert_alpha_lists_agree_with_pseudo_eval(gp, rng, 40)
    assert_folds_agree(gp, rng, 40)
