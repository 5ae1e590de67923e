"""Command-line behavior: formats, exit codes, determinism."""

import json
import pathlib

from blp.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_pessimistic_suspect(capsys):
    code, out, err = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU", str(DATA / "suspect.blp")
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "charge(john)   T",
        "free(john)     F",
        "innocent(john) F",
        "suspect(john)  T",
    ]


def test_eval_empty_program_prints_nothing(capsys):
    code, out, err = run(
        capsys, "eval", "--alpha", "U", "--semantics", "fixU", str(DATA / "empty.blp")
    )
    assert code == 0 and out == "" and err == ""


def test_eval_consensus_excluded_middle(capsys):
    code, out, _ = run(
        capsys, "eval", "--semantics", "consensus", str(DATA / "excluded_middle.blp")
    )
    assert code == 0
    assert out.splitlines() == ["a T", "b U"]


def test_eval_tsv_and_json_encode_same_valuation(capsys):
    code, tsv, _ = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU",
        "--format", "tsv", str(DATA / "suspect.blp")
    )
    assert code == 0
    code, js, _ = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU",
        "--format", "json", str(DATA / "suspect.blp")
    )
    assert code == 0
    from_tsv = dict(line.split("\t") for line in tsv.splitlines())
    assert from_tsv == json.loads(js)


def test_eval_oracle_semantics(capsys):
    code, wfs, _ = run(
        capsys, "eval", "--semantics", "wfs", "--format", "tsv", str(DATA / "suspect.blp")
    )
    code2, fixu, _ = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU",
        "--format", "tsv", str(DATA / "suspect.blp")
    )
    assert code == code2 == 0
    assert wfs == fixu
    code, kk, _ = run(
        capsys, "eval", "--semantics", "kk", "--format", "tsv", str(DATA / "suspect.blp")
    )
    assert code == 0
    assert "charge(john)\tU" in kk


def test_eval_stable_enum(capsys, tmp_path):
    program = tmp_path / "even_loop.blp"
    program.write_text("a <- ~b.\nb <- ~a.\n")
    code, out, _ = run(capsys, "eval", "--semantics", "stable-enum",
                       "--format", "json", str(program))
    assert code == 0
    models = json.loads(out)
    assert sorted((m["a"], m["b"]) for m in models) == [
        ("F", "T"), ("T", "F"), ("U", "U")
    ]


def test_alpha_flag_validation(capsys):
    code, _, err = run(
        capsys, "eval", "--semantics", "fixU", str(DATA / "suspect.blp")
    )
    assert code == 1 and "requires --alpha" in err
    code, _, err = run(
        capsys, "eval", "--alpha", "F", "--semantics", "wfs", str(DATA / "suspect.blp")
    )
    assert code == 1 and "does not take --alpha" in err


def test_parse_error_exit_and_position(capsys, tmp_path):
    bad = tmp_path / "bad.blp"
    bad.write_text("p(X) <- q(X,Y).\n")
    code, _, err = run(capsys, "eval", "--alpha", "F", "--semantics", "fixU", str(bad))
    assert code == 1
    assert "line 1" in err and "Y" in err


def test_compare_table_and_json(capsys):
    code, out, _ = run(capsys, "compare", str(DATA / "excluded_middle.blp"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["atom", "F", "T", "U", "I", "consensus"]
    assert lines[1].split() == ["a", "T", "T", "U", "I", "T"]
    assert lines[2].split() == ["b", "F", "T", "U", "I", "U"]
    assert "  U <=k F" in lines
    code, js, _ = run(capsys, "compare", "--format", "json",
                      str(DATA / "excluded_middle.blp"))
    assert code == 0
    payload = json.loads(js)
    assert set(payload) == {"F", "T", "U", "I", "consensus"}
    assert payload["consensus"] == {"a": "T", "b": "U"}


def test_compare_colleague_table_rows(capsys):
    code, out, _ = run(capsys, "compare", str(DATA / "colleague_single.blp"))
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.startswith("colleague")}
    assert rows["colleague(a,b)"] == ["T", "T", "T", "T", "T"]
    assert rows["colleague(a,c)"] == ["F", "F", "F", "F", "F"]
    assert rows["colleague(b,c)"] == ["F", "T", "U", "I", "U"]
    assert rows["colleague(c,b)"] == ["F", "T", "U", "I", "U"]


def test_check_pessimistic_row(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text(
        "charge(john)\tT\nfree(john)\tF\ninnocent(john)\tF\nsuspect(john)\tT\n"
    )
    code, out, _ = run(
        capsys, "check", "--alpha", "F", "--model", str(model), str(DATA / "suspect.blp")
    )
    assert code == 0
    assert out.splitlines() == [
        "alpha-fixed-model   yes",
        "operator-model      yes",
        "three-valued-stable yes",
    ]


def test_check_all_unknown_not_fixed(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text(
        "charge(john)\tU\nfree(john)\tU\ninnocent(john)\tU\nsuspect(john)\tU\n"
    )
    code, out, _ = run(
        capsys, "check", "--alpha", "F", "--model", str(model), str(DATA / "suspect.blp")
    )
    assert code == 0
    assert "alpha-fixed-model   no" in out


def test_check_missing_and_unknown_atoms(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text("charge(john)\tT\n")
    code, _, err = run(
        capsys, "check", "--alpha", "F", "--model", str(model), str(DATA / "suspect.blp")
    )
    assert code == 1 and "missing atom" in err and "free(john)" in err

    model.write_text(
        "charge(john)\tT\nfree(john)\tF\ninnocent(john)\tF\nsuspect(john)\tT\n"
        "ghost\tT\n"
    )
    code, _, err = run(
        capsys, "check", "--alpha", "F", "--model", str(model), str(DATA / "suspect.blp")
    )
    assert code == 1 and "unknown atom ghost" in err

    model.write_text(
        "charge(john)\tX\nfree(john)\tF\ninnocent(john)\tF\nsuspect(john)\tT\n"
    )
    code, _, err = run(
        capsys, "check", "--alpha", "F", "--model", str(model), str(DATA / "suspect.blp")
    )
    assert code == 1 and "truth symbol" in err


def test_check_inconsistent_model_skips_stable(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text(
        "charge(john)\tI\nfree(john)\tI\ninnocent(john)\tI\nsuspect(john)\tT\n"
    )
    code, out, _ = run(
        capsys, "check", "--alpha", "I", "--model", str(model),
        "--format", "json", str(DATA / "suspect.blp")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_fixed_model"] is True
    assert payload["three_valued_stable"] is None


def test_ground_dump_reparses(capsys):
    code, out, _ = run(capsys, "ground", str(DATA / "colleague_single.blp"))
    assert code == 0
    from blp.grounder import ground
    from blp.syntax import parse_program

    original = ground(parse_program((DATA / "colleague_single.blp").read_text()))
    regrounded = ground(parse_program(out))
    assert regrounded.rules == original.rules
    assert regrounded.base == original.base


def test_ground_dump_facts_form(capsys, tmp_path):
    src = tmp_path / "p.blp"
    src.write_text("a.\nb <- a.\n")
    code, out, _ = run(capsys, "ground", str(src))
    assert code == 0
    assert out == "a.\nb <- a.\n"


def test_const_flag_extends_domain(capsys, tmp_path):
    src = tmp_path / "p.blp"
    src.write_text("p(X) <- q(X).\n")
    code, out, _ = run(capsys, "ground", "--const", "c1,c2", str(src))
    assert code == 0
    assert "p(c1) <- q(c1)." in out and "p(c2) <- q(c2)." in out
    code, _, err = run(capsys, "ground", "--const", "c1,Bad", str(src))
    assert code == 1 and "invalid constant" in err


def test_base_flag(capsys, tmp_path):
    src = tmp_path / "p.blp"
    src.write_text("likes(a,b).\n")
    code, occ, _ = run(capsys, "eval", "--alpha", "F", "--semantics", "fixU",
                       "--format", "tsv", str(src))
    assert code == 0 and len(occ.splitlines()) == 1
    code, full, _ = run(capsys, "eval", "--alpha", "F", "--semantics", "fixU",
                        "--format", "tsv", "--base", "full", str(src))
    assert code == 0 and len(full.splitlines()) == 4


def test_strict_conventional_flag(capsys):
    code, _, err = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU",
        "--strict-conventional", str(DATA / "mixed_ops.blp")
    )
    assert code == 1 and "strict-conventional" in err
    code, _, err = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU",
        "--strict-conventional", str(DATA / "suspect.blp")
    )
    assert code == 0


def test_wfs_on_non_conventional_is_user_error(capsys):
    code, _, err = run(
        capsys, "eval", "--semantics", "wfs", str(DATA / "mixed_ops.blp")
    )
    assert code == 1 and "conventional" in err


def test_output_is_deterministic(capsys):
    args = ("compare", str(DATA / "colleague_single.blp"))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_flag_is_user_error(capsys):
    code, _, err = run(capsys, "eval", "--semantics", "bogus", str(DATA / "suspect.blp"))
    assert code == 1


def test_internal_invariant_failure_exits_two(capsys, monkeypatch):
    from blp import cli, engine

    def boom(*args, **kwargs):
        raise engine.InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli.engine, "semantics", boom)
    code, _, err = run(
        capsys, "eval", "--alpha", "F", "--semantics", "fixU", str(DATA / "suspect.blp")
    )
    assert code == 2 and "synthetic failure" in err


def _tsv_value(out, atom):
    return dict(line.split("\t", 1) for line in out.splitlines())[atom]


def _deep_inputs(tmp_path):
    # each merges into one body thousands of nodes deep
    many_rules = tmp_path / "many_rules.blp"
    many_rules.write_text("".join(f"p <- q{i}.\n" for i in range(3000)))
    wide_exists = tmp_path / "wide_exists.blp"
    wide_exists.write_text(
        "".join(f"e(c{i}).\n" for i in range(1500)) + "p <- exists X: e(X).\n"
    )
    return many_rules, wide_exists


def test_deep_merged_bodies_evaluate_without_recursion(capsys, tmp_path):
    many_rules, wide_exists = _deep_inputs(tmp_path)
    # p is the disjunction of 3000 atoms heading no rule, so it takes alpha
    code, out, err = run(capsys, "eval", "--alpha", "F", "--semantics", "fixU",
                         "--format", "tsv", str(many_rules))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3001 and _tsv_value(out, "p") == "F"
    code, out, err = run(capsys, "eval", "--semantics", "consensus",
                         "--format", "tsv", str(many_rules))
    assert code == 0 and _tsv_value(out, "p") == "U" and _tsv_value(out, "q7") == "U"
    code, out, err = run(capsys, "compare", "--format", "tsv", str(many_rules))
    assert code == 0 and _tsv_value(out, "p") == "F\tT\tU\tI\tU"
    code, out, err = run(capsys, "eval", "--semantics", "wfs",
                         "--format", "tsv", str(many_rules))
    assert code == 0 and _tsv_value(out, "p") == "F"
    code, out, err = run(capsys, "eval", "--semantics", "kk",
                         "--format", "tsv", str(many_rules))
    assert code == 0 and _tsv_value(out, "p") == "U"
    all_false = tmp_path / "all_false.tsv"
    all_false.write_text("p\tF\n" + "".join(f"q{i}\tF\n" for i in range(3000)))
    code, out, err = run(capsys, "check", "--alpha", "F", "--model", str(all_false),
                         "--format", "tsv", str(many_rules))
    assert code == 0 and err == ""
    assert out == "alpha-fixed-model\tyes\noperator-model\tyes\nthree-valued-stable\tyes\n"
    # p is the disjunction of 1500 facts
    code, out, err = run(capsys, "eval", "--alpha", "F", "--semantics", "fixU",
                         "--format", "tsv", str(wide_exists))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1501 and set(out.split()[1::2]) == {"T"}
    code, out, err = run(capsys, "eval", "--semantics", "consensus",
                         "--format", "tsv", str(wide_exists))
    assert code == 0 and _tsv_value(out, "p") == "T"
    code, out, err = run(capsys, "compare", "--format", "tsv", str(wide_exists))
    assert code == 0 and _tsv_value(out, "p") == "T\tT\tT\tT\tT"
    for name in ("wfs", "kk"):
        code, out, err = run(capsys, "eval", "--semantics", name,
                             "--format", "tsv", str(wide_exists))
        assert code == 0 and _tsv_value(out, "p") == "T"
    code, out, err = run(capsys, "ground", str(many_rules))
    assert code == 0 and err == ""
    assert out == "p <- " + " | ".join(f"q{i}" for i in range(3000)) + ".\n"
    code, out, err = run(capsys, "ground", str(wide_exists))
    assert code == 0 and err == ""
    facts = sorted(f"e(c{i})" for i in range(1500))
    assert out == "".join(f"{a}.\n" for a in facts) + f"p <- {' | '.join(facts)}.\n"


def test_long_flat_bodies_ground_and_evaluate_without_recursion(capsys, tmp_path):
    flat = tmp_path / "flat.blp"
    flat.write_text("p <- " + " & ".join(f"q{i}" for i in range(3000)) + ".\n")
    guard = tmp_path / "guard.blp"
    guard.write_text("p <- q & ~(" + " & ".join(["#t"] * 3000) + ").\n")
    for strict in ((), ("--strict-conventional",)):
        code, out, err = run(capsys, "ground", *strict, str(flat))
        assert code == 0 and err == ""
        assert out == "p <- " + " & ".join(f"q{i}" for i in range(3000)) + ".\n"
    code, out, err = run(capsys, "ground", str(guard))
    assert code == 0 and err == ""
    assert out == "p <- q & (" + " | ".join(["#f"] * 3000) + ").\n"
    for path, atoms in ((flat, 3001), (guard, 2)):
        for argv in (("eval", "--semantics", "wfs"),
                     ("eval", "--alpha", "F", "--semantics", "fixU")):
            code, out, err = run(capsys, *argv, "--format", "tsv", str(path))
            assert code == 0 and err == ""
            assert len(out.splitlines()) == atoms
            assert set(out.split()[1::2]) == {"F"}


def test_deep_parentheses_are_a_located_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.blp"
    deep.write_text("p <- " + "(" * 2000 + "q" + ")" * 2000 + ".\n")
    code, out, err = run(capsys, "eval", "--semantics", "wfs", str(deep))
    assert code == 1 and out == ""
    assert err == "parse error: line 1, column 105: formula nested more than 100 levels deep\n"
    # just inside the limit, a right-nested body parses, grounds and renders
    nested = tmp_path / "nested.blp"
    body = "".join(f"(q{i} & " for i in range(99)) + "q" + ")" * 99
    nested.write_text(f"p <- {body}.\n")
    code, out, err = run(capsys, "ground", str(nested))
    assert code == 0 and err == "" and out.startswith("p <- q0 & (q1 & (q2")
    code, out, err = run(capsys, "eval", "--semantics", "wfs", "--format", "tsv", str(nested))
    assert code == 0 and _tsv_value(out, "p") == "F"


def test_invalid_utf8_is_a_located_read_error(capsys, tmp_path, monkeypatch):
    import io
    import sys

    bad = tmp_path / "bad.blp"
    bad.write_bytes(b"p <- \xff\xfe.\n")
    code, out, err = run(capsys, "eval", "--semantics", "wfs", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: cannot read {bad}: not valid UTF-8 (byte 0xff at offset 5)\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"p.\nq <- \xc3("),
                                                       encoding="utf-8"))
    code, out, err = run(capsys, "ground", "-")
    assert code == 1 and out == ""
    assert err == "error: cannot read standard input: not valid UTF-8 (byte 0xc3 at offset 8)\n"
    model = tmp_path / "model.tsv"
    model.write_bytes(b"p\tT\n\x80")
    code, out, err = run(capsys, "check", "--alpha", "F", "--model", str(model),
                         str(DATA / "empty.blp"))
    assert code == 1 and out == ""
    assert err == f"error: cannot read {model}: not valid UTF-8 (byte 0x80 at offset 4)\n"
    # valid input on stdin still reads
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"p.\n"), encoding="utf-8"))
    assert run(capsys, "ground", "-") == (0, "p.\n", "")


def test_files_with_cr_line_ends_read_as_their_lf_version(capsys, tmp_path):
    # CRLF, lone CR, and a % comment ended by a lone CR, which must not
    # take the next line into the comment
    def variants(text):
        yield text
        yield text.replace("\n", "\r\n")
        yield text.replace("\n", "\r")
        lines = text.split("\n")
        yield "".join(line + ("\r" if line.startswith("%") or " %" in line else "\n")
                      for line in lines[:-1]) + lines[-1]

    program = ("% the suspect program\ncharge(X) <- ~innocent(X) & suspect(X).\n"
               "free(X) <- innocent(X) & suspect(X). % a note\n"
               "innocent(X) <- free(X).\n%\nsuspect(john).\n")
    model = "% a model\n" + MODEL_OK.replace("\n", " \n%\n", 1)
    bad_program = "p <- q. % a note\n%\nr <- q &\n  $ s.\n"
    bad_model = "% a model\ncharge(john)\tT\n%\nfree(john\tF\n"
    src, tsv = tmp_path / "p.blp", tmp_path / "m.tsv"
    calls = [
        ["eval", "--alpha", "F", "--semantics", "fixU", "--format", "tsv", str(src)],
        ["ground", str(src)],
        ["check", "--alpha", "F", "--model", str(tsv), "--format", "tsv", str(src)],
    ]
    for texts in ((program, model), (bad_program, model), (program, bad_model)):
        outcomes = []
        for program_text, model_text in zip(*map(variants, texts)):
            src.write_bytes(program_text.encode())
            tsv.write_bytes(model_text.encode())
            outcomes.append([run(capsys, *argv) for argv in calls])
        assert len(outcomes) == 4 and outcomes[1:] == outcomes[:1] * 3, texts
    assert outcomes[0][2] == (1, "", f"error: {tsv}:4: malformed atom 'free(john'\n")
    src.write_bytes(bad_program.encode())
    assert run(capsys, "ground", str(src)) == (
        1, "", "parse error: line 4, column 3: unexpected character '$'\n")
    src.write_bytes(program.encode())
    assert run(capsys, *calls[0])[1].endswith("suspect(john)\tT\n")


def _run_on_stdin(data: bytes, *argv, **env):
    """(exit code, stdout, stderr) of python -m blp with argv, run in a
    fresh interpreter that finds this blp, with data on its real
    standard input and env added to its environment."""
    import os
    import subprocess
    import sys

    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    done = subprocess.run([sys.executable, "-m", "blp", *argv], input=data,
                          capture_output=True, env={**base, **env,
                                                    "PYTHONPATH": os.pathsep.join(sys.path)})
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_standard_input_is_read_as_utf8_bytes_whatever_the_locale(capsys, tmp_path):
    # the same bytes in a file and on standard input give the same
    # message, under UTF-8 mode and under a Latin-1 standard input
    src = tmp_path / "p.blp"
    for data in (b"p.\n% \xff\n", b"p \xff.\n"):
        src.write_bytes(data)
        code, out, err = run(capsys, "ground", str(src))
        assert code == 1 and out == "" and "not valid UTF-8" in err
        want = (1, "", err.replace(str(src), "standard input"))
        for env in ({"PYTHONUTF8": "1"}, {"PYTHONIOENCODING": "latin-1"}):
            assert _run_on_stdin(data, "ground", "-", **env) == want, (data, env)


def test_cr_line_ends_on_standard_input_read_as_their_lf_version():
    program = ("% the suspect program\ncharge(X) <- ~innocent(X) & suspect(X).\n"
               "% a note\nsuspect(john).\n")
    want = _run_on_stdin(program.encode(), "ground", "-")
    assert want[0] == 0 and want[1].count("\n") == 2
    for end in ("\r\n", "\r"):
        assert _run_on_stdin(program.replace("\n", end).encode(), "ground", "-") == want


def test_closed_or_failing_standard_input_is_a_user_error(capsys, monkeypatch):
    import errno
    import io
    import os
    import sys

    class Failing(io.RawIOBase):
        def readable(self):
            return True

        def readinto(self, buffer):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    closed = "error: cannot read standard input: it is closed\n"
    failing = f"error: cannot read standard input: {os.strerror(errno.EIO)}\n"
    broken = io.TextIOWrapper(io.BufferedReader(Failing()))
    for stdin, message in ((None, closed), (broken, failing)):
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(capsys, "ground", "-") == (1, "", message)
        assert run(capsys, "check", "--alpha", "F", "--model", "-",
                   str(DATA / "suspect.blp")) == (1, "", message)


def test_oversized_grounding_is_a_user_error(capsys, tmp_path):
    program = tmp_path / "wide.blp"
    program.write_text("p(A,B,C,D,E,F2) <- q(A).\n" + "".join(f"q(c{i}).\n" for i in range(20)))
    for argv in (["ground"], ["eval", "--alpha", "F", "--semantics", "fixU"], ["compare"]):
        code, out, err = run(capsys, *argv, str(program))
        assert code == 1 and out == ""
        assert err == (
            "error: grounding would make 64000020 codes and atoms, more than the limit "
            "of 20000; clause 1 (p(A,B,C,D,E,F2)) alone makes 64000000\n"
        )


MODEL_OK = "charge(john)\tT\nfree(john)\tF\ninnocent(john)\tF\nsuspect(john)\tT\n"


def test_model_file_skips_comments_and_blank_lines(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text("% a comment\n\n" + MODEL_OK.replace("\n", "\n   \n", 1) + "%\n")
    code, out, err = run(capsys, "check", "--alpha", "F", "--model", str(model),
                         "--format", "tsv", str(DATA / "suspect.blp"))
    assert (code, err) == (0, "")
    assert out == "alpha-fixed-model\tyes\noperator-model\tyes\nthree-valued-stable\tyes\n"


def test_model_file_errors_are_located(capsys, tmp_path):
    model = tmp_path / "model.tsv"
    cases = [
        # a wrong field count, then a malformed atom: each on line 2
        ("charge(john)\tT\nfree(john) F x\n", "2: expected 'atom<TAB>value', "
         "got 'free(john) F x'"),
        ("charge(john)\tT\n\tfree(john)\n", "2: expected 'atom<TAB>value', got '\\tfree(john)'"),
        ("charge(john)\tT\nfree(john\tF\n", "2: malformed atom 'free(john'"),
        ("charge(john)\tT\nFree\tF\n", "2: malformed atom 'Free'"),
        # the checks run in order: malformed, unknown, bad value, duplicate
        ("% c\nghost\tX\n", "2: unknown atom ghost"),
        ("charge(john)\tT\n\ncharge(john)\tF\n", "3: duplicate atom charge(john)"),
        ("charge(john)\tT\ncharge(john)\tX\n",
         "2: unknown truth symbol 'X' (expected one of F, T, U, I)"),
    ]
    for text, message in cases:
        model.write_text(text)
        code, out, err = run(capsys, "check", "--alpha", "F", "--model", str(model),
                             str(DATA / "suspect.blp"))
        assert (code, out, err) == (1, "", f"error: {model}:{message}\n"), text
    # a missing atom is reported last, by the first one in base order
    model.write_text("suspect(john)\tT\ncharge(john)\tT\n")
    assert run(capsys, "check", "--alpha", "F", "--model", str(model),
               str(DATA / "suspect.blp")) == (1, "", "error: model file is missing atom "
                                                     "free(john)\n")


def test_const_rejects_reserved_words(capsys, tmp_path):
    src = tmp_path / "p.blp"
    src.write_text("q(a). p(X) <- q(X).\n")
    for raw, name in (("exists,forall", "exists"), ("c,forall", "forall")):
        assert run(capsys, "ground", "--const", raw, str(src)) == (
            1, "", f"error: invalid constant name {name!r}\n")


def test_check_refuses_model_and_program_both_on_stdin(capsys, tmp_path, monkeypatch):
    import io
    import sys

    refused = (1, "", "error: --model - and the program cannot both be read "
                      "from standard input\n")
    for text in (b"a. b <- ~a.\n", b""):
        for file_args in ((), ("-",)):
            stdin = io.BytesIO(text)
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
            assert run(capsys, "check", "--alpha", "F", "--model", "-", *file_args) == refused
            assert stdin.tell() == 0  # nothing was read
    # the model alone on standard input still reads
    program = tmp_path / "p.blp"
    program.write_text("a. b <- ~a.\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a\tT\nb\tF\n"),
                                                       encoding="utf-8"))
    assert run(capsys, "check", "--alpha", "F", "--model", "-", "--format", "tsv",
               str(program)) == (0, "alpha-fixed-model\tyes\noperator-model\tyes\n"
                                    "three-valued-stable\tyes\n", "")


def test_model_errors_on_stdin_name_standard_input(capsys, monkeypatch):
    import io
    import sys

    cases = [
        ("ghost\tT\n", "standard input:1: unknown atom ghost"),
        ("charge(john)\tT\nfree(john\tF\n", "standard input:2: malformed atom 'free(john'"),
        ("charge(john)\tT\n\ncharge(john)\tF\n",
         "standard input:3: duplicate atom charge(john)"),
        ("suspect(john)\tT\ncharge(john)\tT\n",
         "standard input is missing atom free(john)"),
    ]
    for text, message in cases:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode()),
                                                           encoding="utf-8"))
        assert run(capsys, "check", "--alpha", "F", "--model", "-",
                   str(DATA / "suspect.blp")) == (1, "", f"error: {message}\n"), text


def test_no_subcommand_makes_the_base_atoms_or_index(capsys, monkeypatch, tmp_path):
    # output reads Base.names and the engine and oracles read positions,
    # so a request never needs the GroundAtoms or the index of its base
    from blp import cli

    bases = []

    def ground(*args):
        gp = real_ground(*args)
        bases.append(gp.base)
        return gp

    real_ground = cli.ground
    monkeypatch.setattr(cli, "ground", ground)
    model = tmp_path / "model.tsv"
    model.write_text(MODEL_OK)
    suspect = str(DATA / "suspect.blp")
    argvs = [["eval", "--semantics", s, "--alpha", a]
             for s in ("fixU", "fixI", "fixF", "fixT") for a in "FTUI"]
    argvs += [["eval", "--semantics", s] for s in ("consensus", "wfs", "kk", "stable-enum")]
    argvs += [["compare"], ["check", "--alpha", "F", "--model", str(model)]]
    for argv in argvs:
        for fmt in ("table", "tsv", "json"):
            for base in ("occurring", "full"):
                assert run(capsys, *argv, "--format", fmt, "--base", base, suspect)[0] == 0
    for base in ("occurring", "full"):
        assert run(capsys, "ground", "--base", base, suspect)[0] == 0
    assert len(bases) == len(argvs) * 6 + 2
    for base in bases:
        assert base._atoms is None and base._index is None
