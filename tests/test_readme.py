"""The README's library example prints what its comment says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (expected,) = re.findall(r"^# (\{.*\})$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == expected + "\n"
