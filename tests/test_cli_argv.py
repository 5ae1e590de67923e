"""The argv reader of blp.cli against argparse, and output against an
items()-based reference."""

import contextlib
import io
import json
import sys
from types import SimpleNamespace

from hypothesis import given, seed, settings, strategies as st

from blp import cli, engine, oracles
from blp.cli import COMMANDS, CliError, _read_argv, build_parser, main
from blp.grounder import Base
from blp.valuation import Valuation

OPTIONS = {opt for _, _, options in COMMANDS.values() for opt in options}
FLAGS = sorted((o for o in OPTIONS if o.flag.startswith("-")),
               key=lambda o: (o.flag, o.required))
FILES = ["prog.blp"] * 6 + ["dir/p q.blp", "", "-", "-x", "-1", "--", "eval"]


def _argparse(argv):
    """vars() of argparse's Namespace, or None when argparse fails or exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except (CliError, SystemExit):
            return None


@st.composite
def flag_tokens(draw, opt=None):
    """One flag with its value, mostly well-formed, else in a shape the
    reader leaves to argparse; opt None draws the flag of any table."""
    if opt is None:
        opt = draw(st.sampled_from(FLAGS))
    good = (draw(st.sampled_from(opt.choices)) if opt.choices
            else draw(st.sampled_from(["c1,c2", "m.tsv", "", "x y"])))
    shape = draw(st.sampled_from(
        ["plain"] * 20 + ["equals", "abbrev", "dash", "bad", "missing"]
    ))
    if opt.default is False:  # a switch
        return [opt.flag] if shape != "abbrev" else [opt.flag[:4]]
    if shape == "equals":
        return [f"{opt.flag}={good}"]
    if shape == "abbrev":
        return [opt.flag[:draw(st.integers(3, len(opt.flag) - 1))], good]
    if shape == "dash":
        return [opt.flag, draw(st.sampled_from(["-", "-x", "-1", "--tsv"]))]
    if shape == "bad":
        return [opt.flag, "X" if opt.choices else "-"]
    if shape == "missing":
        return [opt.flag]
    return [opt.flag, good]


@st.composite
def argvs(draw):
    """A subcommand, some of its flags (the required ones mostly), now
    and then any table's flag or -h, -- or an unknown flag, and files,
    in any order."""
    command = draw(st.sampled_from(list(COMMANDS) * 6 + ["bogus", "-h", "--help", "--"]))
    own = [o for o in COMMANDS.get(command, ("", None, ()))[2] if o.flag.startswith("-")]
    groups = [draw(flag_tokens(o)) for o in own
              if draw(st.integers(0, 9)) < (9 if o.required else 5)]
    if draw(st.integers(0, 3)) == 0:
        groups.append(draw(flag_tokens()))
    if draw(st.integers(0, 7)) == 0:
        groups.append([draw(st.sampled_from(["-h", "--help", "--", "--bogus"]))])
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
        groups.append([draw(st.sampled_from(FILES))])
    tokens = [t for group in draw(st.permutations(groups)) for t in group]
    return [command] + tokens


@seed(20261018)
@settings(max_examples=500, deadline=None)
@given(argvs())
def test_reader_returns_argparse_namespace_or_hands_off(argv):
    read = _read_argv(argv)
    assert read is None or vars(read) == _argparse(argv)


def test_reader_reads_every_plain_shape():
    path = "prog.blp"
    plain = [
        ["eval", "--alpha", "F", "--semantics", "fixU", "--format", "tsv", path],
        ["eval", "--semantics", "stable-enum", "--format", "json", path],
        ["eval", path, "--semantics", "fixT", "--alpha", "I", "--base", "full"],
        ["eval", "--semantics", "wfs"],
        ["compare", "--format", "table", "--const", "c", "--strict-conventional", path],
        ["compare"],
        ["check", "--alpha", "U", "--model", "m.tsv", "--format", "tsv", path],
        ["check", path, "--model", "m.tsv", "--alpha", "T"],
        ["ground", "--base", "full", path],
    ]
    for argv in plain:
        read = _read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _argparse(argv)
    for argv in (["compare", "--format=tsv", path], ["compare", "--form", "tsv", path],
                 ["ground", "-"], ["eval", "--semantics", "fixU", "--semantics", "wfs"],
                 ["check", "--alpha", "F", path], ["eval", "-h"], [], ["Eval"]):
        assert _read_argv(argv) is None, argv


def test_main_reads_sys_argv(capsys, monkeypatch, tmp_path):
    program = tmp_path / "p.blp"
    program.write_text("a <- ~b.\nb.\n")
    for argv in (["eval", "--semantics", "wfs", "--format", "tsv", str(program)],
                 ["eval", "--form", "tsv", "--semantics", "wfs", str(program)],
                 ["eval", "--semantics", "nope", str(program)]):
        expected = main(argv), capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["blp"] + argv)
        assert (main(), capsys.readouterr()) == expected
    assert expected[0] == 1 and "invalid choice: 'nope'" in expected[1].err


# -- output from the masks against the items()-based output it replaced

def _reference_columns(rows, header=None) -> str:
    table = ([header] if header else []) + [list(map(str, r)) for r in rows]
    if not table or not rows and header is None:
        return ""
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    return "".join(
        " ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in table
    )


def _reference(v: Valuation, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({str(a): str(x) for a, x in v.items()}, indent=2,
                          sort_keys=True) + "\n"
    if fmt == "tsv":
        return "".join(f"{a}\t{x}\n" for a, x in v.items())
    return _reference_columns(list(v.items()))


def _reference_models(models, fmt: str) -> str:
    valuations = sorted(models, key=lambda v: "".join(f"{a}\t{x}\n" for a, x in v.items()))
    if fmt == "json":
        return json.dumps([{str(a): str(x) for a, x in v.items()} for v in valuations],
                          indent=2, sort_keys=True) + "\n"
    if not valuations:
        return ""
    header = ["atom"] + [f"model{i + 1}" for i in range(len(valuations))]
    rows = [[str(a)] + [str(v[a]) for v in valuations] for a in valuations[0].base.atoms]
    if fmt == "tsv":
        return "".join("\t".join(r) + "\n" for r in [header] + rows)
    return _reference_columns(rows, header)


def _printed(emit, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(*args)
    return out.getvalue()


def _eval_printed(monkeypatch, semantics, fmt, base, result) -> str:
    """What cmd_eval prints for --semantics consensus or stable-enum
    when that semantics gives result, the valuation or the model list,
    over base."""
    monkeypatch.setattr(cli, "_load_ground_program", lambda args: SimpleNamespace(base=base))
    monkeypatch.setattr(engine, "consensus_semantics",
                        lambda gp: SimpleNamespace(valuation=result))
    monkeypatch.setattr(oracles, "enumerate_stable_models", lambda gp: result)
    args = SimpleNamespace(semantics=semantics, alpha=None, format=fmt)
    return _printed(cli.cmd_eval, args)


def test_output_matches_items_reference(mixed_corpus, mixed_results, conventional_corpus,
                                        monkeypatch):
    empty = Base([])
    valuations = [Valuation(empty, [])]
    for results in mixed_results:
        for r in results.values():
            valuations += (r.fix_u, r.fix_i, r.fix_f, r.fix_t)
    for gp in mixed_corpus:
        valuations.append(engine.consensus_semantics(gp).valuation)
    model_sets = [(empty, [])] + [
        (gp.base, oracles.enumerate_stable_models(gp)) for gp in conventional_corpus
    ]
    assert any(len(models) > 2 for _, models in model_sets)
    for fmt in ("table", "tsv", "json"):
        for v in valuations:
            assert (_eval_printed(monkeypatch, "consensus", fmt, v.base, v)
                    == _reference(v, fmt))
    for fmt in ("table", "tsv", "json"):
        for base, models in model_sets:
            assert (_eval_printed(monkeypatch, "stable-enum", fmt, base, models)
                    == _reference_models(models, fmt))
