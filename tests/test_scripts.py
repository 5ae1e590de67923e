"""The scripts under scripts/ run to completion."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


# consensus_survey.py exits 1 if a negation-free program's consensus
# differs from its skeptical semantics, so exit 0 also checks that.
@pytest.mark.parametrize("argv", [["consensus_survey.py", "100"]], ids=lambda a: a[0])
def test_script_exits_cleanly(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout


def test_dump_outputs_is_deterministic_on_a_smoke_subset(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "dump_outputs", SCRIPTS / "dump_outputs.py"
    )
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    # every 150th program: proggen corpora and benchmark workloads, some
    # with model files
    progs = dump.programs()[::150]
    assert any(model is not None for _, _, model in progs)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    lines = dump.write_dump(first, progs)
    assert dump.write_dump(second, progs) == lines
    text = first.read_text()
    assert text == second.read_text()
    rows = [line.split("\t") for line in text.splitlines()]
    assert rows == sorted(rows, key=lambda r: "\t".join(r))
    counts = [r for r in rows if r[0].startswith('["counts"')]
    assert len(counts) == len(progs)
    parses = [r for r in rows if r[0].startswith('["parse"')]
    assert len(parses) == len(progs) * (dump.VARIANTS + 1)
    assert all(len(r) == 2 and r[1].startswith(("ok ", "error line ")) for r in parses)
    # each unmutated program parses, and some variants do not
    assert all(r[1].startswith("ok ") for r in parses if r[0].endswith(", 0]"))
    assert any(r[1].startswith("error ") for r in parses)
    calls = [r for r in rows if not r[0].startswith(('["counts"', '["parse"'))]
    assert all(len(r) == 4 and r[1] in ("0", "1") for r in calls)
    assert str(tmp_path) not in text
