"""Fuzzing the command line: no input makes blp.cli.main raise or exit 2."""

import contextlib
import io
import pathlib

from hypothesis import given, seed, settings, strategies as st

import proggen
from blp.cli import main
from blp.syntax import ParseError, parse_program

DATA = pathlib.Path(__file__).parent / "data"

SOURCES = [p.read_bytes() for p in sorted(DATA.glob("*.blp"))]
SOURCES += [proggen.random_ground_program(s).render().encode() for s in range(20)]
SOURCES += [
    b"win(X) <- exists Y: move(X,Y) & ~win(Y).\nmove(a,b). move(b,a). move(b,c).\n",
    b"path(X,Y) <- e(X,Y) | (exists Z: e(X,Z) & path(Z,Y)).\ne(a,b). e(b,a).\n",
    b"p(X) <- forall Y: ~(X = Y) | q(Y) * #u. q(a) <- ~q(b) + #i. % end",
]
# grammar characters, blanks, comments and bytes that are not UTF-8
PIECES = [bytes([c]) for c in b"()~.,&|*+=:<-#%aqXYZ \t\r\n$"]
PIECES += [b"exists X: ", b"forall ", b"<- ", b"#t", b"\xff", b"\xc3", b"\xc3\xa9"]

ARGVS = [
    ["eval", "--alpha", "F", "--semantics", "fixU", "--format", "tsv"],
    ["eval", "--alpha", "I", "--semantics", "fixT", "--format", "json"],
    ["eval", "--semantics", "wfs"],
    ["eval", "--semantics", "stable-enum", "--format", "tsv"],
    ["compare", "--format", "tsv", "--const", "c"],
    ["ground", "--base", "full"],
    ["check", "--alpha", "U", "--model", "MODEL"],
]


@st.composite
def mutated(draw):
    """A seeded program, truncated and with pieces inserted or removed."""
    data = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("truncate", "insert", "delete", "replace")))
        if kind == "truncate":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + draw(st.sampled_from(PIECES)) + data[pos:]
        else:
            piece = draw(st.sampled_from(PIECES)) if kind == "replace" else b""
            data = data[:pos] + piece + data[pos + draw(st.integers(1, 3)):]
    return data


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@seed(20240601)
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(mutated(), st.binary(max_size=120)),
    st.sampled_from(ARGVS),
    st.sampled_from([b"p0\tT\n", b"p0\tF\np1\tU\n", b"\xff"]),
)
def test_cli_exits_cleanly_on_mutated_programs_and_random_bytes(
    tmp_path_factory, data, argv, model
):
    workdir = tmp_path_factory.getbasetemp()
    program, model_path = workdir / "fuzz.blp", workdir / "fuzz.model.tsv"
    program.write_bytes(data)
    model_path.write_bytes(model)
    argv = [str(model_path) if a == "MODEL" else a for a in argv]
    code, out, err = _call(argv + [str(program)])
    assert code in (0, 1), err
    try:
        # read as the CLI reads it, with universal newlines
        parse_program(program.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        assert code == 1 and err.startswith(f"error: cannot read {program}: not valid UTF-8")
    except ParseError as exc:
        assert (code, out, err) == (1, "", f"parse error: {exc}\n")
    else:
        assert not err.startswith("parse error")
