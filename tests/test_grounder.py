"""Grounding: instantiation, quantifier expansion, merging, base modes."""

import random

import pytest

from blp import grounder
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


_SIGNATURES = {"p": 0, "q": 1, "r": 2, "s": 1, "t": 3}


def _random_program_text(rng) -> str:
    """Clauses over p/0, q/1, r/2, s/1 and t/3 whose bodies read the
    head variables, a quantified Z and the constants a, b and c1."""

    def atom(names):
        pred = rng.choice(list(_SIGNATURES))
        args = [rng.choice(names) for _ in range(_SIGNATURES[pred])]
        return f"{pred}({','.join(args)})" if args else pred

    clauses = []
    for _ in range(rng.randint(1, 4)):
        pred = rng.choice(list(_SIGNATURES))
        head_vars = ["X", "Y", "W"][:_SIGNATURES[pred]]
        names = head_vars + ["a", "b", "c1"]
        head = f"{pred}({','.join(head_vars)})" if head_vars else pred
        literals = [("~" if rng.random() < 0.3 else "") + atom(names)
                    for _ in range(rng.randint(1, 3))]
        body = " & ".join(literals)
        if rng.random() < 0.3:
            body = f"exists Z: {atom(names + ['Z'])} | {body}"
        clauses.append(f"{head} <- {body}.\n")
    return "".join(clauses)


def test_lazy_base_agrees_with_an_eager_base():
    # ground makes a base whose atoms and index wait for their first use;
    # every member, used first on a fresh base, must read as Base(atoms)
    from blp.grounder import BaseMismatchError
    from blp.syntax import NegAtom, Var

    outside = (GroundAtom("zz"), GroundAtom("q", ("a", "b")))

    def literals(atoms):
        return [kind(a.pred, tuple(map(Const, a.args)))
                for a in atoms for kind in (Atom, NegAtom)]

    def raised(call, *args):
        try:
            call(*args)
        except (KeyError, ValueError) as exc:
            return type(exc), str(exc)

    members = {  # name: what the member reads on a base of atoms
        "atoms": lambda base, atoms: base.atoms,
        "names": lambda base, atoms: base.names,
        "index": lambda base, atoms: [base.index(a) for a in atoms],
        "index outside": lambda base, atoms: raised(base.index, outside[0]),
        "locate": lambda base, atoms: [base.locate(f) for f in literals(atoms)],
        "locate outside": lambda base, atoms: raised(base.locate, Atom("zz")),
        "locate variable": lambda base, atoms: raised(
            base.locate, Atom("q", (Var("X"),))),
        "in": lambda base, atoms: [a in base for a in atoms + outside],
        "in a pair": lambda base, atoms: [tuple(a) in base for a in atoms],
        "==": lambda base, atoms: (base == Base(atoms), Base(atoms) == base,
                                   base != Base(atoms), base == Base(outside)),
        "hash": lambda base, atoms: hash(base),
        "iteration": lambda base, atoms: list(base),
        "repr": lambda base, atoms: repr(base),
        "len": lambda base, atoms: len(base),
    }
    rng = random.Random(29)
    for _ in range(60):
        program = parse_program(_random_program_text(rng))
        for mode in ("occurring", "full"):
            atoms = list(ground(program, base_mode=mode).base.atoms)
            rng.shuffle(atoms)
            eager = Base(atoms)
            atoms = eager.atoms
            assert eager.names == tuple(map(str, atoms))
            assert raised(eager.locate, Atom("zz"))[0] is BaseMismatchError
            for name, member in members.items():
                lazy = ground(program, base_mode=mode).base
                assert lazy._atoms is None and lazy._index is None
                assert member(lazy, atoms) == member(eager, atoms), (name, mode)
            for name, member in members.items():  # and once all are made
                assert member(lazy, atoms) == member(eager, atoms), (name, mode)


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
        if not pieces:  # over an empty domain, the fold's identity
            return TruthConst(F if f.kind == Quant.EXISTS else T)
        folded = pieces[0]
        for piece in pieces[1:]:
            folded = Binary(op, folded, piece)
        return folded
    if isinstance(f, (Equal, NotEqual)):
        names = [subst.get(t.name, t.name) for t in (f.left, f.right)]
        return TruthConst(T if (names[0] == names[1]) is isinstance(f, Equal) else F)
    return f


def test_instantiate_matches_structural_recursion():
    # each formula is the body of h(X) <- f., ground over the constants a, b;
    # leaves that read no variable are coded while compiling, also in
    # clauses with head variables and under quantifiers
    from blp.syntax import Clause, NegAtom, Program, Quant, Quantified, Var

    rng = random.Random(13)
    ops = list(BinOp)

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([
                Atom("p", (Var("X"),)), NegAtom("q", (Var("X"), Const("a"))),
                TruthConst(rng.choice(list(TruthValue))), Equal(Var("X"), Const("b")),
                Atom("r"), NegAtom("p", (Const("a"),)), Equal(Const("a"), Const("b")),
                NotEqual(Const("b"), Const("b")),
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


def _ground_reference(program, constants=(), full=False):
    """(ir, base names) of program by the structural-recursion reference:
    each clause instance in clause order, then in the order of its head
    variables' substitutions, folded into its head's body with |; over
    the Herbrand base when full."""
    from itertools import product

    from blp.grounder import formula_code
    from blp.syntax import Var

    constants = sorted(set(program.constants) | set(constants))
    occurring, bodies = set(), {}
    for clause in program.clauses:
        head_vars = [t.name for t in clause.head.args if isinstance(t, Var)]
        for combo in product(constants, repeat=len(head_vars)):
            subst = dict(zip(head_vars, combo))
            head = GroundAtom(clause.head.pred,
                              tuple(subst.get(t.name, t.name) for t in clause.head.args))
            body = _instantiated_reference(clause.body, subst, constants, occurring)
            bodies[head] = Binary(BinOp.OR, bodies[head], body) if head in bodies else body
    atoms = set(bodies) | {GroundAtom(*key) for key in occurring}
    base = Base(atoms | herbrand_base(program, constants) if full else atoms)
    ir = tuple(sorted((base.index(head), formula_code(base, body))
                      for head, body in bodies.items()))
    return ir, base.names


_VARIABLE_FREE_LEAVES = [
    "p(a)", "p(b)", "~p(a)", "q(a,b)", "~q(a,b)", "~q(b,a)", "r", "~r", "s",
    "#t", "#f", "#u", "#i", "~#u", "a = b", "b = b", "~(a = a)", "~(a = b)",
]


def _variable_free_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_VARIABLE_FREE_LEAVES)
    # mostly chains of one operator, some nested in parentheses
    ops = "& | * +".split()
    op = rng.choice(ops)
    parts = [_variable_free_formula(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    text = parts[0]
    for part in parts[1:]:
        text += f" {op if rng.random() < 0.8 else rng.choice(ops)} {part}"
    return f"({text})"


def test_variable_free_programs_match_structural_recursion():
    # heads are drawn from a few atoms, so several rules share a head
    rng = random.Random(19)
    heads = ["h", "p(a)", "p(c)", "q(b,b)", "r", "t"]
    for _ in range(300):
        clauses = []
        for _ in range(rng.randint(1, 6)):
            head = rng.choice(heads)
            if rng.random() < 0.2:
                clauses.append(f"{head}.\n")
            elif rng.random() < 0.1:
                clauses.append(f"{head} <- {rng.choice(['#t', '#f', '#u', '#i'])}.\n")
            else:
                clauses.append(f"{head} <- {_variable_free_formula(rng, 3)}.\n")
        program = parse_program("".join(clauses))
        gp = ground(program)
        assert (gp.ir, gp.base.names) == _ground_reference(program), clauses


_FREE_LEAVES = [  # over _SIGNATURES, with no variable
    "p", "~p", "q(a)", "~q(b)", "r(a,c1)", "~r(b,b)", "s(c1)", "t(b,a,c1)", "#t", "#u", "#i",
    "a = b", "~(b = b)", "exists Z: q(Z) & ~s(a)", "(forall Z: r(Z,b)) | q(c1)",
]


def test_variable_free_clauses_mixed_with_templates_match_structural_recursion():
    # variable-free clauses, some with a quantifier, among clauses with
    # head variables, heads shared, over 0-2 extra constants
    rng = random.Random(37)
    heads = ["p", "q(a)", "q(c1)", "r(a,b)", "s(b)"]
    for _ in range(200):
        clauses = _random_program_text(rng).splitlines(keepends=True)
        for _ in range(rng.randint(1, 4)):
            head = rng.choice(heads)
            if rng.random() < 0.2:
                clauses.append(f"{head}.\n")
                continue
            body = rng.choice(_FREE_LEAVES)
            for _ in range(rng.randint(0, 3)):
                body += f" {rng.choice('&|*+')} {rng.choice(_FREE_LEAVES)}"
            clauses.append(f"{head} <- {body}.\n")
        rng.shuffle(clauses)
        program = parse_program("".join(clauses))
        extra = ("d", "e")[:rng.randint(0, 2)]
        gp = ground(program, extra)
        assert (gp.ir, gp.base.names) == _ground_reference(program, extra), clauses
        # the full base: every block whole, t's joined over two middles
        names = ground(program, extra, "full").base.names
        assert names == tuple(sorted(map(str, herbrand_base(program, extra)))), clauses


def test_variable_free_rules_merge_with_instances_in_clause_order():
    texts = [
        "h(a) <- p. h(X) <- q(X).",
        "h(X) <- q(X). h(a) <- p.",
        "h(a) <- p. h(X) <- q(X). h(a) <- ~r & #u. h(b).",
        "h(b). h(X) <- q(X) & exists Y: q(Y). h(a) <- p. h(X) <- X = a.",
    ]
    for text in texts:
        program = parse_program(text)
        for extra in ((), ("b",), ("b", "c")):
            gp = ground(program, extra)
            assert (gp.ir, gp.base.names) == _ground_reference(program, extra), text
    first, second = (ground(parse_program(text)).rules[GroundAtom("h", ("a",))]
                     for text in texts[:2])
    q_a = Atom("q", (Const("a"),))
    assert first == Binary(BinOp.OR, Atom("p"), q_a)
    assert second == Binary(BinOp.OR, q_a, Atom("p"))


def test_quantifier_in_a_variable_free_rule_keeps_the_base():
    # the walk may meet q before the quantifier: q is in the base, and
    # r(X) has no instance over an empty domain
    program = parse_program("p <- q & exists X: r(X).")
    gp = ground(program)
    assert gp.base.names == ("p", "q")
    assert gp.rules[GroundAtom("p")] == Binary(BinOp.AND, Atom("q"), TruthConst(F))
    gp = ground(program, ("c", "d"))
    assert gp.base.names == ("p", "q", "r(c)", "r(d)")
    assert gp.rules[GroundAtom("p")] == Binary(
        BinOp.AND, Atom("q"),
        Binary(BinOp.OR, Atom("r", (Const("c"),)), Atom("r", (Const("d"),))))
    # a quantifier body extends right, so here q is inside it
    assert ground(parse_program("p <- exists X: r(X) & q.")).base.names == ("p",)
    # a head variable has no instance over an empty domain, so q is not
    assert ground(parse_program("p(X) <- q & ~r(X) | s.")).base.names == ()
    for text in ("p <- q & exists X: r(X).", "p <- (exists X: r(X)) & q.",
                 "p <- exists X: r(X) & q.", "p <- ~q | forall X: ~r(X) * s(a)."):
        program = parse_program(text)
        for extra in ((), ("c",), ("c", "d")):
            gp = ground(program, extra)
            assert (gp.ir, gp.base.names) == _ground_reference(program, extra), text


def test_free_variables_of_a_hand_built_clause_are_refused():
    from blp.syntax import Clause, NegAtom, Program, Var

    x = Var("X")
    for body in (Atom("q", (x,)), NegAtom("q", (Const("a"), x)), Equal(x, Const("a")),
                 Binary(BinOp.AND, Atom("q", (Const("a"),)), NotEqual(Const("a"), x))):
        with pytest.raises(ValueError, match="^unbound variable X during grounding$"):
            ground(Program.from_clauses([Clause(Atom("p"), body)]))


# -- the size estimate made before anything is expanded

def test_oversized_head_is_rejected_before_expanding():
    # 20^6 instances of p: grounding them would run for minutes
    text = "p(A,B,C,D,E,F2) <- q(A).\n" + "".join(f"q(c{i}).\n" for i in range(20))
    with pytest.raises(ValueError) as caught:
        ground(parse_program(text))
    assert str(caught.value) == (
        "grounding would make 64000020 codes and atoms, more than the limit of "
        f"{grounder.GROUND_CAP}; clause 1 (p(A,B,C,D,E,F2)) alone makes 64000000"
    )


def test_nested_quantifiers_are_counted_before_expanding():
    # 60 nested exists over 2 constants: 2^60 instances of q(X59)
    text = "p <- " + "".join(f"exists X{i}: " for i in range(60)) + "q(X59).\nq(a). q(b).\n"
    with pytest.raises(ValueError) as caught:
        ground(parse_program(text))
    leaves = 2 ** 60
    assert str(caught.value) == (
        f"grounding would make {2 * leaves - 1 + 2} codes and atoms, more than the "
        f"limit of {grounder.GROUND_CAP}; clause 1 (p) alone makes {2 * leaves - 1}"
    )


def test_full_base_is_counted_before_expanding():
    constants = ",".join(f"c{i}" for i in range(8))
    program = parse_program(f"s({constants[:14]}).\n")
    assert len(ground(program, constants.split(",")).base) == 1
    with pytest.raises(ValueError) as caught:
        ground(program, constants.split(","), "full")
    assert str(caught.value) == (
        f"grounding would make {8 ** 5 + 1} codes and atoms, more than the limit of "
        f"{grounder.GROUND_CAP}; the full base alone makes {8 ** 5}"
    )


def test_size_estimate_is_exactly_what_grounding_makes(monkeypatch):
    # h(X) <- f. over a, b has one instance per head, so nothing merges
    # and the estimate is the length of the IR, plus the atoms of the
    # full base; the cap admits exactly that many
    # g's rule has no variable outside its quantifiers
    rng = random.Random(14)
    leaves = ["p(X)", "~q(X,a)", "#u", "X = b", "~(X = a)", "r"]
    free_leaves = ["p(a)", "~q(b,a)", "#i", "a = b", "~(b = a)", "r", "h(a)"]

    def formula(depth, leaves):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        if rng.random() < 0.2:
            return f"({rng.choice(['exists', 'forall'])} X: {formula(depth - 1, leaves)})"
        op = rng.choice(" & | * + ".split())
        return "(" + f" {op} ".join(
            formula(depth - 1, leaves) for _ in range(rng.randint(2, 4))) + ")"

    for _ in range(100):
        program = parse_program(
            f"h(X) <- {formula(4, leaves)}.\nh(b).\nr.\ng <- {formula(4, free_leaves)}.\n"
        )
        for mode, extra in (("occurring", 0), ("full", len(herbrand_base(program, "a")))):
            gp = ground(program, ("a",), mode)
            merges = 1  # h(b) has two bodies
            size = sum(len(code) for _, code in gp.ir) - merges + extra
            monkeypatch.setattr(grounder, "GROUND_CAP", size)
            assert ground(program, ("a",), mode).ir == gp.ir
            monkeypatch.setattr(grounder, "GROUND_CAP", size - 1)
            with pytest.raises(ValueError, match=f"would make {size} codes"):
                ground(program, ("a",), mode)
            monkeypatch.undo()


# -- the arithmetic numbering of ground atoms

_ADVERSARIAL_CONSTANTS = "a ab a_ aZ a0 a9b b bA zz z_1".split()
_ADVERSARIAL_PREDICATES = "p pa p_ p0 pZ q qq".split()
_BETWEEN = ("a1", "aa", "b_")  # extra constants that sort between those above


def _adversarial_program(rng) -> str:
    """Clauses over names that are prefixes of each other or hold
    digits, "_" or uppercase letters, of arity 0-3, with quantifiers,
    equalities and negated guards."""
    constants = rng.sample(_ADVERSARIAL_CONSTANTS, rng.randint(1, 5))
    arities = {pred: rng.randint(0, 3)
               for pred in rng.sample(_ADVERSARIAL_PREDICATES, rng.randint(2, 5))}
    preds = list(arities)

    def atom(names):
        pred = rng.choice(preds)
        args = [rng.choice(names) for _ in range(arities[pred])]
        return f"{pred}({','.join(args)})" if args else pred

    def formula(names, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(["", "~"]) + atom(names)
        if roll < 0.4:
            guard = f"{rng.choice(names)} = {rng.choice(names)}"
            return f"~({guard})" if rng.random() < 0.3 else guard
        if roll < 0.6:
            var = f"V{depth}"
            kind = rng.choice(["exists", "forall"])
            return f"({kind} {var}: {formula(names + [var], depth - 1)})"
        return f"({formula(names, depth - 1)} {rng.choice('&|*+')} {formula(names, depth - 1)})"

    clauses = []
    for _ in range(rng.randint(1, 5)):
        pred = rng.choice(preds)
        args = [rng.choice([f"X{j}"] + constants) for j in range(arities[pred])]
        head = f"{pred}({','.join(args)})" if args else pred
        names = [a for a in args if a[0].isupper()] + constants
        clauses.append(f"{head}.\n" if rng.random() < 0.2 else
                       f"{head} <- {formula(names, 3)}.\n")
    return "".join(clauses)


def test_numbering_is_base_order_on_adversarial_names():
    # ids count the constants' indices in base n per predicate block, so
    # the base they give must be the text-sorted base of the reference,
    # its names sorted and its atoms those names, with and without extra
    # constants and over the occurring and the full base
    rng = random.Random(29)
    for _ in range(300):
        text = _adversarial_program(rng)
        program = parse_program(text)
        for mode in ("occurring", "full"):
            for extra in ((), _BETWEEN):
                gp = ground(program, extra, mode)
                names = gp.base.names
                assert list(names) == sorted(names), (text, mode, extra)
                assert tuple(map(str, gp.base.atoms)) == names
                assert (gp.ir, names) == _ground_reference(
                    program, extra, mode == "full"), (text, mode, extra)


def test_one_predicate_at_two_arities_is_refused():
    # the parser refuses it too; a hand-built program reaches ground
    from blp.syntax import Clause, Program

    program = Program.from_clauses([
        Clause(Atom("p"), TruthConst(T)),
        Clause(Atom("q"), Binary(BinOp.AND, Atom("r"), Atom("p", (Const("a"),)))),
    ])
    for call in (ground, herbrand_base):
        with pytest.raises(ValueError, match="^predicate p used with arity 1 and with arity 0$"):
            call(program)


def test_a_name_outside_the_identifier_characters_is_refused():
    # "a b" would sort after "a" as a constant but before "a,b" in a text,
    # so ids would not be in base order; a hand-built program reaches ground
    from blp.syntax import Clause, Program

    def fact(pred, *names):
        return Clause(Atom(pred, tuple(map(Const, names))), TruthConst(T))

    for clauses, extra, bad in (
        ([fact("p", "a", "a b"), fact("p", "a b", "a")], (), "a b"),
        ([fact("p(", "a")], (), "p("), ([fact("p", "a")], ("b,c",), "b,c"),
    ):
        program = Program.from_clauses(clauses)
        with pytest.raises(ValueError) as info:
            ground(program, extra)
        assert str(info.value) == f"name {bad!r} has a character outside [A-Za-z0-9_]"


def test_a_sparse_id_space_is_never_allocated():
    # f's block holds 40^6 (about 4e9) ids, of which 40 occur; a time
    # bound far above the grounding's guards against allocating the block
    import time

    names = [f"c{i}" for i in range(40)]
    facts = "".join(f"f({','.join(names[(i + j) % 40] for j in range(6))}).\n"
                    for i in range(40))
    program = parse_program(facts + "g(X) <- f(X,X,X,X,X,c0) | ~f(c1,c2,c3,c4,c5,X).\n")
    began = time.perf_counter()
    gp = ground(program)
    assert time.perf_counter() - began < 5
    assert len(gp.base) == 40 + 40 + 80 - 1  # facts, g, and f(c1,...,c6) twice
    assert (gp.ir, gp.base.names) == _ground_reference(program)
    assert tuple(map(str, gp.base.atoms)) == gp.base.names


def test_closures_and_games_at_scale_equal_the_reference(monkeypatch):
    monkeypatch.setattr(grounder, "GROUND_CAP", 10 ** 6)
    ring = "".join(f"e(n{i},n{(i + 1) % 16}).\n" for i in range(16))
    moves = "".join(f"move(p{i},p{(i + d) % 60}).\n" for i in range(60) for d in (1, 7))
    for text in (ring + "path(X,Y) <- e(X,Y) | (exists Z: e(X,Z) & path(Z,Y)).\n",
                 moves + "win(X) <- exists Y: move(X,Y) & ~win(Y).\n"):
        program = parse_program(text)
        gp = ground(program)
        assert (gp.ir, gp.base.names) == _ground_reference(program)
