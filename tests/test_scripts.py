"""The scripts under scripts/ run to completion."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


# consensus_survey.py exits 1 if a negation-free program's consensus
# differs from its skeptical semantics, so exit 0 also checks that.
@pytest.mark.parametrize(
    "argv", [["consensus_survey.py", "100"], ["semantics_report.py"]], ids=lambda a: a[0]
)
def test_script_exits_cleanly(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout
