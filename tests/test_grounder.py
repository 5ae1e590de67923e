"""Grounding: instantiation, quantifier expansion, merging, base modes."""

import random

import pytest

from blp.bilattice import F, T, TruthValue, U, big_join_t, big_meet_t
from blp.grounder import Base, GroundAtom, ground, herbrand_base
from blp.syntax import (
    Atom,
    Binary,
    BinOp,
    Const,
    Equal,
    NotEqual,
    TruthConst,
    parse_program,
    walk,
)
from blp.valuation import Valuation, contrajoin_eval


def test_suspect_program_grounds_to_four_rules(suspect_gp):
    assert len(suspect_gp.base) == 4
    assert set(suspect_gp.rules) == set(suspect_gp.base.atoms)
    assert set(suspect_gp.base).difference(suspect_gp.rules) == set()


def test_single_rule_base_and_not_heads():
    gp = ground(parse_program("a <- b."))
    assert set(map(str, gp.base)) == {"a", "b"}
    assert gp.rules[GroundAtom("a")] == Atom("b")
    assert set(gp.base).difference(gp.rules) == {GroundAtom("b")}


def test_exists_expands_to_disjunction_over_domain():
    gp = ground(parse_program("p <- exists X: q(X)."), extra_constants=("c1", "c2"))
    assert gp.rules[GroundAtom("p")] == Binary(
        BinOp.OR, Atom("q", (Const("c1"),)), Atom("q", (Const("c2"),))
    )


def test_forall_expands_to_conjunction():
    gp = ground(parse_program("p <- forall X: q(X). r(c1). r(c2)."))
    assert gp.rules[GroundAtom("p")] == Binary(
        BinOp.AND, Atom("q", (Const("c1"),)), Atom("q", (Const("c2"),))
    )


def test_quantifiers_over_empty_domain_collapse_to_identities():
    gp = ground(parse_program("p <- exists X: q(X). r <- forall X: q(X)."))
    assert gp.rules[GroundAtom("p")] == TruthConst(F)
    assert gp.rules[GroundAtom("r")] == TruthConst(T)


def test_variable_clause_with_empty_domain_grounds_away():
    gp = ground(parse_program("p(X) <- q(X)."))
    assert len(gp.base) == 0
    assert not gp.rules


def test_equalities_resolved_at_ground_time():
    gp = ground(parse_program("p(X) <- X = a & ~(X = b). p(X) <- q(X)."),
                extra_constants=("a", "b"))
    for body in gp.rules.values():
        for node in walk(body):
            assert not isinstance(node, (Equal, NotEqual))
    # p(a): (T and not-F) or q(a); p(b): (F and not-T) or q(b)
    pa = gp.rules[GroundAtom("p", ("a",))]
    assert pa == Binary(
        BinOp.OR,
        Binary(BinOp.AND, TruthConst(T), TruthConst(T)),
        Atom("q", (Const("a"),)),
    )


def test_nested_quantifier_shadowing():
    gp = ground(
        parse_program("p <- exists X: q(X) & exists X: r(X)."),
        extra_constants=("c",),
    )
    assert gp.rules[GroundAtom("p")] == Binary(
        BinOp.AND, Atom("q", (Const("c"),)), Atom("r", (Const("c"),))
    )
    # a quantifier may shadow a head variable; the inner binding wins
    gp2 = ground(parse_program("p(X) <- q(X) & exists X: r(X)."),
                 extra_constants=("c1", "c2"))
    assert gp2.rules[GroundAtom("p", ("c1",))] == Binary(
        BinOp.AND,
        Atom("q", (Const("c1"),)),
        Binary(BinOp.OR, Atom("r", (Const("c1"),)), Atom("r", (Const("c2"),))),
    )


def test_herbrand_base_binary_predicate():
    program = parse_program(
        "colleague(X,Y) <- colleague(Y,X). colleague(a,b). colleague(a,c) <- #f."
    )
    assert len(herbrand_base(program)) == 9


def test_herbrand_base_propositional_and_empty():
    assert set(map(str, herbrand_base(parse_program("a <- b.")))) == {"a", "b"}
    assert herbrand_base(parse_program("")) == frozenset()


def test_full_vs_occurring_base():
    program = parse_program("likes(a,b).")
    occ = ground(program)
    full = ground(program, base_mode="full")
    assert len(occ.base) == 1
    assert len(full.base) == 4
    assert set(full.base).difference(full.rules) == set(
        a for a in full.base if str(a) != "likes(a,b)"
    )


def test_merge_folds_bodies_with_disjunction():
    gp = ground(parse_program("a <- b. a <- c. a <- #f."))
    assert gp.rules[GroundAtom("a")] == Binary(
        BinOp.OR, Binary(BinOp.OR, Atom("b"), Atom("c")), TruthConst(F)
    )


def test_merge_matches_pointwise_disjunction_of_bodies():
    rng = random.Random(7)
    bodies = [Atom("b"), Binary(BinOp.AND, Atom("c"), TruthConst(U)), Atom("d")]
    gp = ground(parse_program("a <- b. a <- c & #u. a <- d."))
    merged = gp.rules[GroundAtom("a")]
    for _ in range(200):
        v = Valuation(gp.base, [rng.choice(tuple(TruthValue)) for _ in gp.base])
        w = Valuation(gp.base, [rng.choice(tuple(TruthValue)) for _ in gp.base])
        expected = big_join_t(contrajoin_eval(v, w, b) for b in bodies)
        assert contrajoin_eval(v, w, merged) is expected


def test_quantifier_expansion_matches_fold_semantics():
    rng = random.Random(11)
    program = parse_program("p <- exists X: q(X). r <- forall X: q(X). q(c1). q(c2). q(c3).")
    gp = ground(program)
    qs = [GroundAtom("q", (c,)) for c in ("c1", "c2", "c3")]
    for _ in range(200):
        v = Valuation(gp.base, [rng.choice(tuple(TruthValue)) for _ in gp.base])
        w = Valuation(gp.base, [rng.choice(tuple(TruthValue)) for _ in gp.base])
        assert contrajoin_eval(v, w, gp.rules[GroundAtom("p")]) is big_join_t(
            v[q] for q in qs
        )
        assert contrajoin_eval(v, w, gp.rules[GroundAtom("r")]) is big_meet_t(
            v[q] for q in qs
        )


def test_ground_is_idempotent_through_rendering(colleague_single_gp, suspect_gp):
    for gp in (colleague_single_gp, suspect_gp):
        regrounded = ground(parse_program(gp.render()))
        assert regrounded.base == gp.base
        assert set(regrounded.rules) == set(gp.rules)
        assert regrounded.rules == gp.rules


def test_ground_atom_ordering_and_text():
    atoms = [GroundAtom("p", ("b",)), GroundAtom("p", ("a",)), GroundAtom("a")]
    base = Base(atoms)
    assert [str(a) for a in base.atoms] == ["a", "p(a)", "p(b)"]
    assert str(GroundAtom("q", ("x", "y"))) == "q(x,y)"


def test_base_names_are_the_atom_texts(colleague_single_gp):
    program = parse_program(
        "p(X) <- exists Y: q(X,Y) & ~r. q(a,b). s(b,c,a) <- #f. t. u(X) <- u(X)."
    )
    bases = [Base([GroundAtom("p", ("b",)), GroundAtom("p", ("a",)), GroundAtom("a"),
                   GroundAtom("q", ("x", "y"))]), Base([]), colleague_single_gp.base]
    for mode in ("occurring", "full"):
        for extra in ((), ("c1", "b", "z9")):
            bases.append(ground(program, extra, mode).base)
    assert len(bases[-1]) > len(bases[-3]) > 1
    for base in bases:
        assert base.names == tuple(map(str, base.atoms))


def test_base_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ground(parse_program("a."), base_mode="weird")


def test_extra_constants_enlarge_domain():
    gp = ground(parse_program("p(X) <- q(X). q(a)."), extra_constants=("b",))
    assert set(map(str, gp.rules)) == {"p(a)", "p(b)", "q(a)"}


def test_head_constants_and_variables_mix():
    gp = ground(parse_program("p(a,X) <- q(X)."), extra_constants=("b",))
    heads = set(map(str, gp.rules))
    assert heads == {"p(a,a)", "p(a,b)"}


def test_same_clause_colliding_instances_merge():
    gp = ground(parse_program("p(a,X) <- q(X). p(X,b) <- r(X)."),
                extra_constants=("a", "b"))
    merged = gp.rules[GroundAtom("p", ("a", "b"))]
    assert merged == Binary(BinOp.OR, Atom("q", (Const("b"),)), Atom("r", (Const("a"),)))


def _instantiated_reference(f, subst, constants, occurring):
    """Instantiation by plain structural recursion, for comparison."""
    from blp.syntax import NegAtom, Quant, Quantified

    if isinstance(f, (Atom, NegAtom)):
        names = tuple(subst.get(t.name, t.name) for t in f.args)
        occurring.add((f.pred, names))
        return type(f)(f.pred, tuple(map(Const, names)))
    if isinstance(f, Binary):
        return Binary(
            f.op,
            _instantiated_reference(f.left, subst, constants, occurring),
            _instantiated_reference(f.right, subst, constants, occurring),
        )
    if isinstance(f, Quantified):
        op = BinOp.OR if f.kind == Quant.EXISTS else BinOp.AND
        pieces = [
            _instantiated_reference(f.body, {**subst, f.var: c}, constants, occurring)
            for c in constants
        ]
        folded = pieces[0]
        for piece in pieces[1:]:
            folded = Binary(op, folded, piece)
        return folded
    if isinstance(f, Equal):
        return TruthConst(T if subst[f.left.name] == f.right.name else F)
    return f


def test_instantiate_matches_structural_recursion():
    # each formula is the body of h(X) <- f., ground over the constants a, b
    from blp.syntax import Clause, NegAtom, Program, Quant, Quantified, Var

    rng = random.Random(13)
    ops = list(BinOp)

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([
                Atom("p", (Var("X"),)), NegAtom("q", (Var("X"), Const("a"))),
                TruthConst(rng.choice(list(TruthValue))), Equal(Var("X"), Const("b")),
            ])
        if rng.random() < 0.1:
            return Quantified(rng.choice(list(Quant)), "X", formula(depth - 1))
        # mostly left-deep chains of one operator, as the parser builds them
        op = rng.choice(ops)
        f = formula(depth - 1)
        for _ in range(rng.randint(1, 4)):
            f = Binary(op if rng.random() < 0.8 else rng.choice(ops), f, formula(depth - 1))
        return f

    constants = ("a", "b")
    heads = {GroundAtom("h", (c,)) for c in constants}
    for _ in range(300):
        f = formula(4)
        program = Program.from_clauses([Clause(Atom("h", (Var("X"),)), f)])
        gp = ground(program, extra_constants=constants)
        occurring = set()
        for c in constants:
            want = _instantiated_reference(f, {"X": c}, constants, occurring)
            assert gp.rules[GroundAtom("h", (c,))] == want
        assert set(gp.base) == heads | {GroundAtom(*key) for key in occurring}
