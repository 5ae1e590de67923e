"""The AST node classes keep the fields, defaults, equality, hash, repr
and immutability they had as frozen dataclasses."""

import copy
import pickle

import pytest

from blp.bilattice import T, U
from blp.syntax import (
    Atom,
    Binary,
    BinOp,
    Clause,
    Const,
    Equal,
    NegAtom,
    NotEqual,
    Program,
    Quant,
    Quantified,
    TruthConst,
    Var,
    parse_program,
)

X, JOHN = Var("X"), Const("john")
FACT = Clause(Atom("a"), TruthConst(T))

# class: (field names, one node, the repr the dataclass gave it)
NODES = {
    Var: (("name",), X, "Var(name='X')"),
    Const: (("name",), JOHN, "Const(name='john')"),
    Atom: (("pred", "args"), Atom("p", (X, JOHN)),
           "Atom(pred='p', args=(Var(name='X'), Const(name='john')))"),
    NegAtom: (("pred", "args"), NegAtom("q", (JOHN,)),
              "NegAtom(pred='q', args=(Const(name='john'),))"),
    TruthConst: (("value",), TruthConst(U), "TruthConst(value=U)"),
    Equal: (("left", "right"), Equal(X, JOHN),
            "Equal(left=Var(name='X'), right=Const(name='john'))"),
    NotEqual: (("left", "right"), NotEqual(JOHN, X),
               "NotEqual(left=Const(name='john'), right=Var(name='X'))"),
    Binary: (("op", "left", "right"), Binary(BinOp.AND, Atom("a"), NegAtom("b")),
             "Binary(op=<BinOp.AND: '&'>, left=Atom(pred='a', args=()), "
             "right=NegAtom(pred='b', args=()))"),
    Quantified: (("kind", "var", "body"),
                 Quantified(Quant.EXISTS, "Y", Atom("r", (Var("Y"),))),
                 "Quantified(kind=<Quant.EXISTS: 'exists'>, var='Y', "
                 "body=Atom(pred='r', args=(Var(name='Y'),)))"),
    Clause: (("head", "body"), FACT,
             "Clause(head=Atom(pred='a', args=()), body=TruthConst(value=T))"),
    Program: (("clauses", "constants"), Program((FACT,), frozenset()),
              "Program(clauses=(Clause(head=Atom(pred='a', args=()), "
              "body=TruthConst(value=T)),), constants=frozenset())"),
}


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_fields_equality_hash_and_repr(cls):
    fields, node, text = NODES[cls]
    assert type(node) is cls and cls.__slots__ == fields == cls.__match_args__
    values = tuple(getattr(node, name) for name in fields)
    assert repr(node) == text
    twin = cls(*values)
    assert twin == node and not twin != node and twin is not node
    assert hash(twin) == hash(node) == hash(values)
    assert cls(**dict(zip(fields, values))) == node
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_nodes_are_immutable(cls):
    fields, node, _ = NODES[cls]
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert repr(node) == NODES[cls][2]


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    node = NODES[cls][1]
    for twin in (copy.copy(node), copy.deepcopy(node),
                 *(pickle.loads(pickle.dumps(node, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is cls and twin == node and hash(twin) == hash(node)


def test_defaults_and_inequality_across_classes():
    assert Atom("p") == Atom("p", ()) and Atom("p").args == ()
    assert NegAtom("p") == NegAtom("p", ()) and NegAtom("p").args == ()
    assert Atom("p") != NegAtom("p") and not Atom("p") == NegAtom("p")
    assert Var("x") != Const("x") and Equal(X, JOHN) != NotEqual(X, JOHN)
    assert Atom("p") != ("p", ()) and Var("X") != "X"
    assert len({Atom("p"), NegAtom("p"), Atom("p", ())}) == 2
    for cls, (fields, _, _) in NODES.items():
        required = len(fields) - (cls in (Atom, NegAtom))
        with pytest.raises(TypeError):
            cls(*[None] * (required - 1))
        with pytest.raises(TypeError):
            cls(*[None] * (len(fields) + 1))


def test_parsed_program_equals_and_hashes_as_built():
    program = parse_program("a <- exists Y: r(Y) & ~(Y = john).\nr(john).\n")
    built = Program(
        (Clause(Atom("a"), Quantified(Quant.EXISTS, "Y", Binary(
            BinOp.AND, Atom("r", (Var("Y"),)), NotEqual(Var("Y"), JOHN)))),
         Clause(Atom("r", (JOHN,)), TruthConst(T))),
        frozenset({"john"}),
    )
    assert program == built and hash(program) == hash(built)
    assert pickle.loads(pickle.dumps(program)) == program
