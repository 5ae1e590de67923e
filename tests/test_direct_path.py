"""The command line's direct path for propositional programs: it gives
what ground(parse_program(text)) gives, or the same error, and takes
only the programs it can ground alone."""

import importlib.util
import pathlib
import random
from types import SimpleNamespace

import pytest

from blp import cli, syntax
from blp.grounder import GROUND_CAP, ground, ground_tokens
from blp.syntax import ParseError, parse_program

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def _dump_module():
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "scripts" / "dump_outputs.py"
    )
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    return dump


def _outcome(load):
    """What load() gives: the base's names and atoms and the IR, or the
    type and message of the error it raises."""
    try:
        gp = load()
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return gp.base.names, gp.base.atoms, gp.ir


def _check_loader(monkeypatch, text):
    """Assert that the CLI's loader and ground(parse_program(text)) agree
    on text; True when the direct path grounded it."""
    monkeypatch.setattr(cli, "_read_input", lambda path: text)
    args = SimpleNamespace(file="p.blp", base="occurring", strict_conventional=False, const="")
    assert _outcome(lambda: cli._load_ground_program(args)) == _outcome(
        lambda: ground(parse_program(text))
    ), text
    try:
        return ground_tokens(syntax._tokenize(text)) is not None
    except ParseError:
        return False


def test_loader_matches_the_full_path_on_the_corpora_and_their_variants(monkeypatch):
    dump = _dump_module()
    progs = [(name, text) for name, text, _ in dump.programs()
             if not name.startswith(("winmove-", "closure-"))]
    assert {name.split("-")[0] for name, _ in progs} >= {"proggen", "corpus", "stable"}
    progs += [(path.name, path.read_text()) for path in sorted(DATA.glob("*.blp"))]
    for name, text in progs:
        for i, variant in enumerate(dump.variants(name, text)):
            direct = _check_loader(monkeypatch, variant)
            # every corpus program is propositional, so takes the path
            if i == 0 and not name.startswith(("colleague", "suspect")):
                assert direct, name


_NULLARY = ("p", "q", "r", "s", "t", "aB_1")
_MIXED = ("p", "q", "r(a)", "r(b)", "s(a,b)", "s(b,a)", "t(a,b,c)", "aB_1")
_TRUTHS = ("#t", "#f", "#u", "#i")
_STRAY = ("(", ")", "~", "~(", "X", "=", "a = b", "exists", ":", ",", ".", "<-", "r",
          "p(a)", "%c\n", "&", "+", "#u")


def _soup(rng, atoms):
    """A seeded program of clauses over atoms, all four connectives and
    parentheses, then up to two tokens inserted, replaced or deleted."""
    def formula(depth):
        if depth <= 0 or rng.random() < 0.35:
            return rng.choice(("", "", "~")) + rng.choice(atoms + _TRUTHS)
        f = f"{formula(depth - 1)} {rng.choice('&|*+')} {formula(depth - 1)}"
        return f"({f})" if rng.random() < 0.5 else f

    clauses = [rng.choice(atoms) + (f" <- {formula(rng.randint(0, 4))}"
                                     if rng.random() < 0.8 else "") + "."
               for _ in range(rng.randint(0, 6))]
    tokens = " ".join(clauses).split(" ")
    for _ in range(rng.choice((0, 1, 2))):
        pos = rng.randrange(len(tokens) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            tokens.insert(pos, rng.choice(_STRAY))
        elif pos < len(tokens):
            tokens[pos:pos + 1] = [rng.choice(_STRAY + atoms)] if kind == 1 else []
    return " ".join(tokens)


def _holds_an_nary_atom(text):
    tokens = syntax._tokenize(text)
    return any("a" <= t < "{" and u == "(" for t, u in zip(tokens, tokens[1:]))


def test_loader_matches_the_full_path_on_seeded_token_soups(monkeypatch):
    rng = random.Random(0)
    taken = sum(_check_loader(monkeypatch, _soup(rng, _NULLARY)) for _ in range(3000))
    assert 1000 < taken < 2500
    # the path takes no atom with arguments: the parser grounds those
    for _ in range(3000):
        text = _soup(rng, _MIXED)
        if _check_loader(monkeypatch, text):
            assert not _holds_an_nary_atom(text), text


def test_variable_free_programs_skip_the_parser(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise RuntimeError("the parser ran")

    monkeypatch.setattr(syntax, "_Parser", refuse)
    assert cli.main(["compare", str(DATA / "mixed_ops.blp")]) == 0
    assert capsys.readouterr().err == ""
    with_arguments = tmp_path / "p.blp"
    with_arguments.write_text("likes(a,b). p <- ~likes(a,b) | q.\n")
    for argv in (["compare", str(DATA / "suspect.blp")],
                 ["compare", str(with_arguments)],
                 ["compare", "--base", "full", str(DATA / "mixed_ops.blp")],
                 ["compare", "--strict-conventional", str(DATA / "mixed_ops.blp")]):
        with pytest.raises(RuntimeError, match="the parser ran"):
            cli.main(argv)


def run(capsys, tmp_path, text, *argv):
    src = tmp_path / "p.blp"
    src.write_text(text)
    code = cli.main([*argv, str(src)])
    out = capsys.readouterr()
    return code, out.out, out.err


VARIABLE_FREE = "likes(a,b). p <- ~likes(a,b) | q.\nq <- p * #u.\n"
PROPOSITIONAL = "likes. p <- ~likes | q.\nq <- p * #u.\n"


@pytest.mark.parametrize("text, message", [
    ("p.\n" * (GROUND_CAP + 1),
     "error: grounding would make 20001 codes and atoms, more than the limit of 20000; "
     "clause 1 (p) alone makes 1"),
    *[("p <- " + "(" * depth + "q" + ")" * depth + ".\n",
       "parse error: line 1, column 105: formula nested more than 100 levels deep")
      for depth in (100, 101)],
    ("p. p(a).\n",
     "parse error: line 1, column 4: predicate p used with arity 1 "
     "but with arity 0 at line 1, column 1"),
    ("exists.\n", "parse error: line 1, column 1: 'exists' is a reserved word"),
], ids=["over-cap", "nesting-100", "nesting-101", "arity", "reserved"])
def test_variable_free_errors_are_the_parsers_and_grounders(capsys, tmp_path, text, message):
    assert run(capsys, tmp_path, text, "ground") == (1, "", message + "\n")


@pytest.mark.parametrize("text, dump", [
    ("p.\n" * GROUND_CAP, "p <- " + " | ".join(["#t"] * GROUND_CAP) + ".\n"),
    ("p <- a = b.\nq <- ~(a = b) & a = a.\n", "p <- #f.\nq <- #t & #t.\n"),
    ("p <- ~#u.\n", "p <- #u.\n"),
], ids=["at-cap", "equalities", "negated-u"])
def test_variable_free_edge_programs_ground_as_before(capsys, tmp_path, text, dump):
    assert run(capsys, tmp_path, text, "ground") == (0, dump, "")


def test_const_is_validated_on_variable_free_programs(capsys, tmp_path):
    message = "error: invalid constant name 'Bad'\n"
    assert run(capsys, tmp_path, PROPOSITIONAL, "ground", "--const", "Bad") == (1, "", message)
    # checked before the cap, as on the full path
    assert run(capsys, tmp_path, "p.\n" * (GROUND_CAP + 1), "ground",
               "--const", "c,Bad") == (1, "", message)
    assert run(capsys, tmp_path, PROPOSITIONAL, "ground", "--const", "c") == (
        0, "likes.\np <- ~likes | q.\nq <- p * #u.\n", "")


def test_full_base_and_strict_conventional_on_variable_free_programs(capsys, tmp_path):
    assert run(capsys, tmp_path, VARIABLE_FREE, "compare", "--format", "tsv",
               "--base", "full") == (0, (
                   "atom\tF\tT\tU\tI\tconsensus\n"
                   "likes(a,a)\tF\tT\tU\tI\tU\n"
                   "likes(a,b)\tT\tT\tT\tT\tT\n"
                   "likes(b,a)\tF\tT\tU\tI\tU\n"
                   "likes(b,b)\tF\tT\tU\tI\tU\n"
                   "p\tU\tU\tU\tU\tU\n"
                   "q\tU\tU\tU\tU\tU\n"), "")
    assert run(capsys, tmp_path, VARIABLE_FREE, "ground", "--strict-conventional") == (
        1, "", "error: program is not strict-conventional "
               "(bodies must be conjunctions of literals)\n")
    assert run(capsys, tmp_path, "p <- q & ~r.\nq.\nr.\n", "ground",
               "--strict-conventional") == (0, "p <- q & ~r.\nq.\nr.\n", "")
