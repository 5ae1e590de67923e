#!/usr/bin/env python3
"""Dump a digest of everything blp prints, for checking that a change
keeps every answer.

Runs blp.cli.main in-process, with every subcommand, on the seeded
programs of tests/proggen.py (the test corpora and a corpus of
conventional programs of up to 10 atoms), on seeded programs of five
even loops, whose stable-model search spans 3^10 candidates, and, when
blpbench is importable, on the programs of seeds 0-3 of every benchmark
workload.
Each program is run with argv in several shapes: every flag spelled out,
--format left out, flags in another order, the file before the flags,
--format=tsv and an abbreviated --form.
Writes one line per call: the argv (with program file names relative to
a temporary directory), the exit code, and the SHA-256 of stdout and of
stderr.  It also writes, per program, engine.semantics(...).iteration_counts
at all four defaults, taken after compare_semantics has run on the same
ground program, and the parse outcome of the program and of seeded
truncations and one-character mutations of it: the SHA-256 of the
rendered program, or the str() of the ParseError.  Lines are sorted, so
two dumps compare with diff.

Usage: python3 scripts/dump_outputs.py OUT
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

from blp import engine  # noqa: E402
from blp.bilattice import F, I, T, U  # noqa: E402
from blp.cli import main as blp_main  # noqa: E402
from blp.grounder import ground  # noqa: E402
from blp.syntax import ParseError, parse_program, render_program  # noqa: E402
from proggen import random_ground_program  # noqa: E402

ALPHAS = "FTUI"
FIXPOINTS = ("fixU", "fixI", "fixF", "fixT")
FORMATS = ("table", "tsv", "json")
WORKLOAD_SEEDS = range(4)
VARIANTS = 8  # truncations and one-character mutations parsed per program
MUTATION_CHARS = "()~.,&|*+=:<-#%tfaqXZ \t\n\r$\u00e9"

# (kind, first seed, count, keyword arguments): the corpora of tests/conftest.py
CORPORA = (
    ("mixed", 0, 500, {}),
    ("conventional", 1000, 200, {"conventional": True}),
    ("positive", 2000, 100, {"negation_free": True}),
    ("tiny", 3000, 60, {"max_atoms": 4}),
    ("wide", 4000, 30, {"conventional": True, "max_atoms": 10}),
)
LOOP_SEEDS = range(5000, 5006)  # seeds of the even-loop programs


def loop_program(seed: int) -> str:
    """Five even loops a_i <- ~b_i. b_i <- ~a_i., some bodies widened by
    a seeded literal: the well-founded semantics leaves all 10 atoms
    unknown, so the stable-model search spans 3^10 candidates, which
    the proggen corpora rarely reach."""
    rng = random.Random(seed)
    atoms = [f"{x}{i}" for i in range(5) for x in "ab"]
    clauses = []
    for i in range(5):
        for head, other in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}")):
            body = f"~{other}"
            roll = rng.random()
            if roll < 0.6:
                lit = rng.choice(("", "~")) + rng.choice(atoms)
                body += (" & " if roll < 0.3 else " | ") + lit
            clauses.append(f"{head} <- {body}.\n")
    return "".join(clauses)


def programs():
    """(name, program text, model text or None) for every dumped program."""
    out = []
    for kind, first, count, kwargs in CORPORA:
        for seed in range(first, first + count):
            text = random_ground_program(seed, **kwargs).render()
            out.append((f"proggen-{kind}-{seed:04d}", text, None))
    for seed in LOOP_SEEDS:
        out.append((f"loops-{seed:04d}", loop_program(seed), None))
    try:
        from blpbench import workloads
    except ImportError:
        return out
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for prog in workloads.build(name, seed).programs.values():
                out.append((f"{name}-{seed}-{prog.name}", prog.text, prog.model))
    return out


def _argvs(path, models):
    """Every call made on one program file; models are model file paths."""
    for sem in FIXPOINTS:
        for alpha in ALPHAS:
            yield ["eval", "--alpha", alpha, "--semantics", sem, "--format", "tsv", path]
    for fmt in FORMATS:
        yield ["eval", "--alpha", "F", "--semantics", "fixU", "--format", fmt, path]
        yield ["eval", "--semantics", "stable-enum", "--format", fmt, path]
        yield ["compare", "--format", fmt, path]
    for sem in ("consensus", "wfs", "kk"):
        for fmt in FORMATS:
            yield ["eval", "--semantics", sem, "--format", fmt, path]
    yield ["ground", path]
    # argv in other shapes: --format left out, flags in another order,
    # the file before the flags, --flag=value and an abbreviated flag
    yield ["eval", "--alpha", "T", "--semantics", "fixF", path]
    yield ["eval", "--semantics", "stable-enum", path]
    yield ["compare", path]
    yield ["eval", path, "--format", "tsv", "--semantics", "fixT", "--alpha", "I"]
    yield ["compare", "--format=tsv", path]
    yield ["eval", "--form", "tsv", "--semantics", "fixI", "--alpha", "U", path]
    for model in models:
        for alpha in ALPHAS:
            yield ["check", "--alpha", alpha, "--model", model, "--format", "tsv", path]
        for fmt in ("table", "json"):
            yield ["check", "--alpha", "F", "--model", model, "--format", fmt, path]
        yield ["check", path, "--model", model, "--alpha", "T"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def variants(name: str, text: str):
    """The program text, then seeded truncations and mutations of it."""
    rng = random.Random(name)
    out = [text]
    for i in range(VARIANTS):
        pos = rng.randrange(len(text) + 1)
        if i % 2 == 0:
            out.append(text[:pos])
        else:
            kind = rng.randrange(3)  # insert, replace or delete one character
            insert = rng.choice(MUTATION_CHARS) if kind < 2 else ""
            out.append(text[:pos] + insert + text[pos + (kind > 0):])
    return out


def _parse_outcome(text: str) -> str:
    try:
        return "ok " + _sha(render_program(parse_program(text)))
    except ParseError as exc:
        return f"error {exc}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = blp_main(argv)
    return code, out.getvalue(), err.getvalue()


def _counts(text: str) -> str:
    """iteration_counts at every default on one warm ground program."""
    gp = ground(parse_program(text))
    engine.compare_semantics(gp)
    counts = {
        str(alpha): sorted(engine.semantics(gp, alpha).iteration_counts.items())
        for alpha in (F, T, U, I)
    }
    return json.dumps(counts, sort_keys=True)


def records(progs, workdir: pathlib.Path):
    """The dump lines for progs, unsorted; program files go to workdir."""
    prefix = str(workdir) + "/"
    lines = []
    for name, text, model in progs:
        path = workdir / f"{name}.blp"
        path.write_text(text, encoding="utf-8")
        models = []
        code, out, _ = _run(["eval", "--alpha", "F", "--semantics", "fixU",
                             "--format", "tsv", str(path)])
        if code == 0:
            models.append(workdir / f"{name}.fixU-F.tsv")
            models[-1].write_text(out, encoding="utf-8")
        if model is not None:
            models.append(workdir / f"{name}.model.tsv")
            models[-1].write_text(model, encoding="utf-8")
        for argv in _argvs(str(path), [str(m) for m in models]):
            code, out, err = _run(argv)
            shown = json.dumps([a.replace(prefix, "") for a in argv])
            lines.append(f"{shown}\t{code}\t{_sha(out)}\t{_sha(err)}")
        lines.append(f'["counts", "{name}.blp"]\t{_counts(text)}')
        for i, variant in enumerate(variants(name, text)):
            lines.append(f'["parse", "{name}.blp", {i}]\t{_parse_outcome(variant)}')
    return lines


def write_dump(out_path, progs) -> int:
    """Write the sorted dump of progs to out_path; returns the line count."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = sorted(records(progs, pathlib.Path(tmp)))
    pathlib.Path(out_path).write_text("".join(line + "\n" for line in lines),
                                      encoding="utf-8")
    return len(lines)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.rstrip().rsplit("\n", 1)[-1], file=sys.stderr)
        return 1
    progs = programs()
    lines = write_dump(argv[0], progs)
    print(f"{lines} lines for {len(progs)} programs written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
