"""Seeded workload generators for the blp benchmark.

Every workload is a list of programs (with model files for `check`) and a
request stream over them.  The same seed always gives the same programs and
the same stream.  The generators are the benchmark's own: they share no code
with the repository's test or survey generators, so the workloads do not
shift when those change.

Sizes come from fixed lists in a seeded order rather than being drawn at
random, and the closure and stable programs have a fixed shape, so that two
seeds give workloads of the same cost profile that differ in structure.
Latency percentiles over about a hundred requests otherwise move with the
one or two most expensive programs a seed happens to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("winmove", "closure", "corpus", "stable")

WIN_RULE = "win(X) <- exists Y: move(X,Y) & ~win(Y).\n"
PATH_RULE = "path(X,Y) <- e(X,Y) | (exists Z: e(X,Z) & path(Z,Y)).\n"


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    model: str | None = None  # model file text for `check` requests


@dataclass(frozen=True)
class Request:
    program: str
    kind: str  # fixU, wfs, kk, consensus, stable-enum, compare, check, ground
    alpha: str | None = None

    @property
    def label(self) -> str:
        return f"{self.program} {self.kind}" + (f" {self.alpha}" if self.alpha else "")

    def argv(self, workdir: Path) -> list:
        path = str(workdir / f"{self.program}.blp")
        if self.kind == "fixU":
            return ["eval", "--alpha", self.alpha, "--semantics", "fixU",
                    "--format", "tsv", path]
        if self.kind in ("wfs", "kk", "consensus", "stable-enum"):
            return ["eval", "--semantics", self.kind, "--format", "tsv", path]
        if self.kind == "compare":
            return ["compare", "--format", "tsv", path]
        if self.kind == "check":
            model = str(workdir / f"{self.program}.model.tsv")
            return ["check", "--alpha", self.alpha, "--model", model,
                    "--format", "tsv", path]
        if self.kind == "ground":
            return ["ground", path]
        raise ValueError(f"unknown request kind {self.kind!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    programs: dict  # name -> Program
    requests: list  # of Request

    def write(self, workdir: Path) -> None:
        """Write every program (and model file) into workdir."""
        workdir.mkdir(parents=True, exist_ok=True)
        for prog in self.programs.values():
            (workdir / f"{prog.name}.blp").write_text(prog.text, encoding="utf-8")
            if prog.model is not None:
                (workdir / f"{prog.name}.model.tsv").write_text(prog.model, encoding="utf-8")


def game_text(rng: random.Random, n: int) -> str:
    """A win-move game on a near-DAG of n positions: each non-terminal
    position gets one or two moves, about one in ten of them backwards."""
    edges = set()
    for i in range(n - 1):  # position n-1 is terminal
        for _ in range(rng.randint(1, 2)):
            if i > 0 and rng.random() < 0.1:
                edges.add((i, rng.randrange(i)))
            else:
                edges.add((i, rng.randint(i + 1, n - 1)))
    return "".join(f"move(p{i},p{j}).\n" for i, j in sorted(edges)) + WIN_RULE


def digraph_text(rng: random.Random, n: int) -> str:
    """Transitive closure over a sparse digraph: a cycle through all n nodes
    in a seeded order, plus one chord.  Every node reaches every other, so
    the closure needs long chains of inner steps."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[k], order[(k + 1) % n]) for k in range(n)}
    while len(edges) == n:
        edges.add(tuple(rng.sample(range(n), 2)))
    return "".join(f"e(n{i},n{j}).\n" for i, j in sorted(edges)) + PATH_RULE


def _literal(rng, atoms, used, consts):
    roll = rng.random()
    if roll < 0.45:
        atom = rng.choice(atoms)
        used.add(atom)
        return atom
    if roll < 0.8:
        atom = rng.choice(atoms)
        used.add(atom)
        return "~" + atom
    return "#" + rng.choice(consts)


def _formula(rng, atoms, used, ops, consts, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _literal(rng, atoms, used, consts)
    op = rng.choice(ops)
    left = _formula(rng, atoms, used, ops, consts, depth - 1)
    right = _formula(rng, atoms, used, ops, consts, depth - 1)
    return f"({left} {op} {right})"


def mixed_program(rng: random.Random, name: str) -> Program:
    """A propositional program over at most six atoms using all four
    connectives and all four truth constants, with a seeded random model
    over its atoms for `check`.  The first rule always uses a knowledge
    connective, so the program is never conventional."""
    atoms = [f"a{i}" for i in range(rng.randint(2, 6))]
    used = set()
    ops, consts = ("&", "|", "*", "+"), "tfui"
    lines = []
    heads = [a for a in atoms if rng.random() < 0.7] or [atoms[0]]
    for k, head in enumerate(heads):
        used.add(head)
        if k == 0:
            left = _formula(rng, atoms, used, ops, consts, 1)
            right = _formula(rng, atoms, used, ops, consts, 1)
            body = f"{left} {rng.choice('*+')} {right}"
        else:
            body = _formula(rng, atoms, used, ops, consts, 2)
        lines.append(f"{head} <- {body}.\n")
    if rng.random() < 0.25:  # a second rule for one head exercises merging
        lines.append(f"{rng.choice(heads)} <- {_formula(rng, atoms, used, ops, consts, 2)}.\n")
    model = "".join(f"{a}\t{rng.choice('FTUI')}\n" for a in sorted(used))
    return Program(name, "".join(lines), model=model)


def negative_program(rng: random.Random, name: str, n_atoms: int) -> Program:
    """A conventional program over n_atoms atoms, two of which the
    well-founded semantics settles: one atom is true (`<- #t`) and one is its
    negation, so false.  Each of the other atoms has one rule whose body is
    the conjunction of two negated atoms among those others, so they stay
    undefined in the WFS and only a search finds the stable models.  Every
    body is constants or negated atoms, so freezing the negated atoms leaves
    only constants and every transform costs the same; which atoms are
    settled and the stable models found differ between programs."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    true_atom, false_atom, *open_atoms = rng.sample(atoms, n_atoms)
    bodies = {true_atom: "#t", false_atom: f"~{true_atom}"}
    for head in open_atoms:
        first, second = rng.sample(open_atoms, 2)
        bodies[head] = f"~{first} & ~{second}"
    return Program(name, "".join(f"{head} <- {bodies[head]}.\n" for head in atoms))


def conventional_program(rng: random.Random, name: str, n_atoms: int) -> Program:
    """A propositional program over exactly n_atoms atoms whose bodies are
    conjunctions (sometimes disjunctions) of literals and #t/#f."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    used = set()
    lines = []
    for head in atoms:
        if rng.random() >= 0.8:
            continue
        used.add(head)
        lits = [_literal(rng, atoms, used, "tf") for _ in range(rng.randint(1, 3))]
        joiner = " | " if rng.random() < 0.2 else " & "
        lines.append(f"{head} <- {joiner.join(lits)}.\n")
    for atom in atoms:  # every atom occurs, so the base has n_atoms atoms
        if atom not in used:
            lines.append(f"{atom} <- ~{rng.choice(atoms)}.\n")
            used.add(atom)
    return Program(name, "".join(lines))


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload `name` for `seed`; smoke=True gives a tiny version."""
    rng = random.Random(f"blpbench/{name}/{seed}")
    programs = {}
    requests = []
    if name == "winmove":
        sizes = [6, 8, 8] if smoke else [12] * 8 + [16] * 8
        rng.shuffle(sizes)
        for k, n in enumerate(sizes):
            prog = Program(f"g{k:02d}", game_text(rng, n))
            programs[prog.name] = prog
            requests += [Request(prog.name, "fixU", a) for a in "FTUI"]
            requests += [Request(prog.name, kind) for kind in ("compare", "wfs", "kk")]
    elif name == "closure":
        sizes = [3, 3, 4] if smoke else [4] * 13 + [6] * 12
        rng.shuffle(sizes)
        for k, n in enumerate(sizes):
            prog = Program(f"c{k:02d}", digraph_text(rng, n))
            programs[prog.name] = prog
            requests += [Request(prog.name, "fixU", a) for a in "FU"]
            requests += [Request(prog.name, kind) for kind in ("compare", "ground")]
    elif name == "corpus":
        # 400 programs give 1000 requests, so even a slow run holds five
        # passes and each request's median drops a stalled execution
        count = 8 if smoke else 400
        kinds = [True, False] * (count // 2)
        rng.shuffle(kinds)
        for k, mixed in enumerate(kinds):
            pname = f"m{k:03d}" if mixed else f"v{k:03d}"
            if mixed:
                prog = mixed_program(rng, pname)
                alpha = rng.choice("FTUI")
                requests += [Request(pname, "fixU", alpha), Request(pname, "consensus"),
                             Request(pname, "check", rng.choice("FTUI"))]
            else:
                prog = conventional_program(rng, pname, rng.randint(2, 6))
                requests += [Request(pname, "wfs"), Request(pname, "kk")]
            programs[pname] = prog
    elif name == "stable":
        for k in range(3 if smoke else 100):
            prog = negative_program(rng, f"s{k:03d}", 4 if smoke else 6)
            programs[prog.name] = prog
            requests.append(Request(prog.name, "stable-enum"))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, programs, requests)
