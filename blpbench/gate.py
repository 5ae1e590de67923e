"""Correctness gate for captured CLI outputs.

Every output is checked against a reference computed by a route other than
the one under test:

* `eval fixU` at each alpha must equal the set-based bottom-up computation
  (`blp.bottomup.alpha_fixed_semantics`), rendered here, byte for byte;
* `wfs` must equal that reference under F and `kk` the one under U, so
  both equal the engine's fixU output at that alpha byte for byte (the
  paper's correspondence on conventional programs);
* each `compare` column must equal the reference for its alpha, and its
  consensus column the knowledge meet of its F and T columns;
* `eval consensus` must equal the knowledge meet of the F and T references;
* `check` must agree with a stability closure computed here with
  `pseudo_eval` (the set-pair evaluator the engine does not use);
* every `stable-enum` model must be an alpha-fixed model under F and sit
  above the well-founded model in the knowledge order, and the well-founded
  model must be among them;
* `ground` output must equal the gate's own grounding of the program, and
  re-parse and re-ground to the same text.

Four-valued truth values are handled here as (belief, doubt) bit pairs with
the gate's own tables, not blp's.
"""

from __future__ import annotations

from time import perf_counter

from blp.bilattice import TruthValue
from blp.bottomup import alpha_fixed_semantics
from blp.engine import is_alpha_fixed_model
from blp.grounder import ground
from blp.syntax import Binary, BinOp, TruthConst, parse_program
from blp.valuation import Interpretation, PseudoInterpretation, Valuation, pseudo_eval

_BITS = {"T": (True, False), "F": (False, True), "U": (False, False), "I": (True, True)}
_SYMBOL = {bits: sym for sym, bits in _BITS.items()}


def meet_k(a: str, b: str) -> str:
    (t1, f1), (t2, f2) = _BITS[a], _BITS[b]
    return _SYMBOL[t1 and t2, f1 and f2]


def leq_k(a: str, b: str) -> bool:
    (t1, f1), (t2, f2) = _BITS[a], _BITS[b]
    return (not t1 or t2) and (not f1 or f2)


def _symbol(interp: Interpretation, atom) -> str:
    return _SYMBOL[atom in interp.true_set, atom in interp.false_set]


class Reference:
    """Reference results for one program, computed on demand."""

    def __init__(self, text: str) -> None:
        self.gp = ground(parse_program(text))
        self.atoms = [str(a) for a in self.gp.base.atoms]
        self._fix_u = {}
        self.bottomup_s = 0.0

    def fix_u(self, alpha: str) -> list:
        """Knowledge-least fixpoint under alpha, one symbol per atom, via bottomup."""
        if alpha not in self._fix_u:
            start = perf_counter()
            interp = alpha_fixed_semantics(self.gp, TruthValue.from_symbol(alpha))
            self.bottomup_s += perf_counter() - start
            self._fix_u[alpha] = [_symbol(interp, a) for a in self.gp.base.atoms]
        return self._fix_u[alpha]

    def tsv(self, symbols) -> str:
        return "".join(f"{a}\t{s}\n" for a, s in zip(self.atoms, symbols))

    def _interp(self, symbols) -> Interpretation:
        atoms = self.gp.base.atoms
        return Interpretation(self.gp.base,
                              [a for a, s in zip(atoms, symbols) if _BITS[s][0]],
                              [a for a, s in zip(atoms, symbols) if _BITS[s][1]])

    def _step(self, alpha: str, pos: Interpretation, neg: Interpretation) -> list:
        pair = PseudoInterpretation(pos, neg)
        rules = self.gp.rules
        return [str(pseudo_eval(pair, rules[a])) if a in rules else alpha
                for a in self.gp.base.atoms]

    def check_lines(self, alpha: str, model: list) -> str:
        """Expected `check --format tsv` output for a model (symbols per atom)."""
        w = self._interp(model)
        cur = [alpha] * len(self.atoms)
        for _ in range(2 * len(self.atoms) + 2):
            nxt = self._step(alpha, self._interp(cur), w)
            if nxt == cur:
                break
            cur = nxt
        else:
            raise GateError("reference stability closure did not converge")
        operator = self._step(alpha, w, w) == model
        if "I" not in model and self._conventional():
            raise GateError("no independent reference for three-valued stability here")
        return (f"alpha-fixed-model\t{_yn(cur == model)}\n"
                f"operator-model\t{_yn(operator)}\n"
                "three-valued-stable\tn/a\n")

    def _conventional(self) -> bool:
        for body in self.gp.rules.values():
            todo = [body]
            while todo:
                node = todo.pop()
                if isinstance(node, Binary):
                    if node.op in (BinOp.CONSENSUS, BinOp.GULLIBILITY):
                        return False
                    todo += (node.left, node.right)
                elif isinstance(node, TruthConst) and str(node.value) in "UI":
                    return False
        return True


class GateError(Exception):
    """An output disagrees with its reference."""


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _table(out: str, atoms: list, header: list) -> list:
    """Rows of a tsv table whose first column is the atom, checked for shape."""
    lines = out.splitlines()
    if not lines or lines[0].split("\t") != header:
        raise GateError(f"bad header {lines[:1]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    if [r[0] for r in rows] != atoms or any(len(r) != len(header) for r in rows):
        raise GateError("rows do not match the base")
    return [r[1:] for r in rows]


def _check_one(ref: Reference, req, out: str, model_text: str | None) -> None:
    kind = req.kind
    if kind in ("fixU", "wfs", "kk", "consensus"):
        if kind == "consensus":
            want = [meet_k(f, t) for f, t in zip(ref.fix_u("F"), ref.fix_u("T"))]
        else:
            want = ref.fix_u({"fixU": req.alpha, "wfs": "F", "kk": "U"}[kind])
        if out != ref.tsv(want):
            raise GateError("valuation differs from the bottom-up reference")
    elif kind == "compare":
        names = ["F", "T", "U", "I", "consensus"]
        rows = _table(out, ref.atoms, ["atom"] + names)
        for k, alpha in enumerate(names[:4]):
            if [r[k] for r in rows] != ref.fix_u(alpha):
                raise GateError(f"compare column {alpha} differs from the reference")
        if [r[4] for r in rows] != [meet_k(r[0], r[1]) for r in rows]:
            raise GateError("compare consensus column is not the meet of F and T")
    elif kind == "check":
        model = dict(line.split("\t") for line in model_text.splitlines())
        if out != ref.check_lines(req.alpha, [model[a] for a in ref.atoms]):
            raise GateError("check verdicts differ from the reference")
    elif kind == "stable-enum":
        if not out:
            raise GateError("no stable models, but the well-founded model is one")
        count = len(out.splitlines()[0].split("\t")) - 1
        rows = _table(out, ref.atoms, ["atom"] + [f"model{i + 1}" for i in range(count)])
        wfs = ref.fix_u("F")
        models = [[r[k] for r in rows] for k in range(count)]
        for model in models:
            v = Valuation.from_mapping(ref.gp.base, {
                a: TruthValue.from_symbol(s) for a, s in zip(ref.gp.base.atoms, model)})
            if not is_alpha_fixed_model(ref.gp, TruthValue.from_symbol("F"), v):
                raise GateError("a stable model is not alpha-fixed under F")
            if not all(map(leq_k, wfs, model)):
                raise GateError("a stable model is not above the well-founded model")
        if wfs not in models:
            raise GateError("the well-founded model is missing")
    elif kind == "ground":
        if out != ref.gp.render():
            raise GateError("ground output differs from grounding the program here")
        if ground(parse_program(out)).render() != out:
            raise GateError("ground output does not re-ground to itself")
    else:
        raise GateError(f"no reference for request kind {kind}")


def check(workload, results) -> tuple:
    """Check one pass of results, a list of (exit status, stdout, stderr)
    in request order.  Returns ({request index: reason}, {program: Reference})."""
    refs = {}
    failures = {}
    for i, (req, (status, out, err)) in enumerate(zip(workload.requests, results)):
        if status != 0:
            failures[i] = f"exit status {status}: {err.strip()[:200]}"
            continue
        prog = workload.programs[req.program]
        if req.program not in refs:
            refs[req.program] = Reference(prog.text)
        try:
            _check_one(refs[req.program], req, out, prog.model)
        except (GateError, LookupError, ValueError) as exc:
            failures[i] = str(exc)
    return failures, refs

