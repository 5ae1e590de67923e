"""Command-line front end.

Subcommands: eval (one semantics), compare (all defaults side by side),
check (test a candidate model from a file), ground (dump the ground
program).  Output is deterministic: atoms are sorted lexicographically
and formats are byte-stable for identical inputs and flags.

Exit status: 0 on success, 1 on user errors (unreadable input, syntax,
arity, bad model files, bad flags), 2 when a computed result violates
an internal algebraic invariant, which indicates a bug rather than bad
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import engine, oracles
from .bilattice import TruthValue
from .grounder import GroundProgram, ground
from .oracles import ThreeValuation
from .syntax import ParseError, is_conventional, parse_program
from .valuation import Valuation

SEMANTICS_CHOICES = (
    "fixU",
    "fixI",
    "fixF",
    "fixT",
    "consensus",
    "wfs",
    "kk",
    "stable-enum",
)
_ALPHA_FREE = ("consensus", "wfs", "kk", "stable-enum")
_CONST_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_ATOM_RE = re.compile(r"([a-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?\Z")


class CliError(Exception):
    """User-level error; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit status 1
        raise CliError(f"{self.prog}: {message}")


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blp", description="Four-valued logic program semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", nargs="?", default="-",
                       help="program file (.blp), or - for stdin")
        p.add_argument("--base", choices=("occurring", "full"), default="occurring",
                       help="atom universe: atoms occurring in rules, or the full "
                            "predicate-by-constant base")
        p.add_argument("--const", default="",
                       help="comma-separated extra domain constants")
        p.add_argument("--strict-conventional", action="store_true",
                       help="reject programs whose bodies are not conjunctions "
                            "of literals")

    def formatted(p):
        p.add_argument("--format", choices=("table", "tsv", "json"), default="table")

    p_eval = sub.add_parser("eval", help="compute one semantics")
    p_eval.add_argument("--alpha", choices=("F", "T", "U", "I"),
                        help="default value for atoms heading no rule")
    p_eval.add_argument("--semantics", required=True, choices=SEMANTICS_CHOICES)
    formatted(p_eval)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="all four defaults plus consensus")
    formatted(p_cmp)
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="check a candidate model from a file")
    p_chk.add_argument("--alpha", required=True, choices=("F", "T", "U", "I"))
    p_chk.add_argument("--model", required=True,
                       help="file of atom<TAB>value lines covering the base")
    formatted(p_chk)
    common(p_chk)
    p_chk.set_defaults(func=cmd_check)

    p_gnd = sub.add_parser("ground", help="dump the ground program")
    common(p_gnd)
    p_gnd.set_defaults(func=cmd_ground)

    return parser


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise CliError(
            f"cannot read {name}: not valid UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def _extra_constants(raw: str):
    names = [c for c in raw.split(",") if c]
    for name in names:
        if not _CONST_RE.match(name):
            raise CliError(f"invalid constant name {name!r}")
    return tuple(names)


def _load_ground_program(args) -> GroundProgram:
    program = parse_program(_read_input(args.file))
    if args.strict_conventional and not is_conventional(program, strict=True):
        raise CliError(
            "program is not strict-conventional "
            "(bodies must be conjunctions of literals)"
        )
    return ground(program, _extra_constants(args.const), args.base)


def _print_columns(rows, header=None) -> None:
    table = ([header] if header else []) + [list(map(str, r)) for r in rows]
    if not table or not rows and header is None:
        return
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for row in table:
        cells = [c.ljust(w) for c, w in zip(row, widths)]
        print(" ".join(cells).rstrip())


def _emit_valuation(v: Valuation, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(v.to_json_dict(), indent=2, sort_keys=True))
    elif fmt == "tsv":
        sys.stdout.write(v.to_lines())
    else:
        _print_columns(list(v.items()))


def _emit_model_set(models, fmt: str) -> None:
    valuations = sorted((m.to_valuation() for m in models), key=Valuation.to_lines)
    if fmt == "json":
        print(json.dumps([v.to_json_dict() for v in valuations],
                         indent=2, sort_keys=True))
        return
    if not valuations:
        return
    atoms = valuations[0].base.atoms
    names = [f"model{i + 1}" for i in range(len(valuations))]
    rows = [[str(a)] + [str(v[a]) for v in valuations] for a in atoms]
    if fmt == "tsv":
        print("\t".join(["atom"] + names))
        for row in rows:
            print("\t".join(row))
    else:
        _print_columns(rows, header=["atom"] + names)


def cmd_eval(args) -> int:
    gp = _load_ground_program(args)
    name = args.semantics
    if name in _ALPHA_FREE:
        if args.alpha is not None:
            raise CliError(f"--semantics {name} does not take --alpha")
    elif args.alpha is None:
        raise CliError(f"--semantics {name} requires --alpha")
    else:
        alpha = TruthValue.from_symbol(args.alpha)

    if name in ("fixU", "fixI", "fixF", "fixT"):
        # computing all four keeps the decomposition self-check armed
        r = engine.semantics(gp, alpha)
        result = {"fixU": r.fix_u, "fixI": r.fix_i,
                  "fixF": r.fix_f, "fixT": r.fix_t}[name]
    elif name == "consensus":
        result = engine.consensus_semantics(gp).valuation
    elif name == "wfs":
        result = oracles.well_founded(gp).to_valuation()
    elif name == "kk":
        result = oracles.kripke_kleene(gp).to_valuation()
    else:
        _emit_model_set(oracles.enumerate_stable_models(gp), args.format)
        return 0
    _emit_valuation(result, args.format)
    return 0


def cmd_compare(args) -> int:
    gp = _load_ground_program(args)
    report = engine.compare_semantics(gp)
    names = ["F", "T", "U", "I", "consensus"]
    if args.format == "json":
        payload = {n: report.valuations[n].to_json_dict() for n in names}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [str(a)] + [str(report.valuations[n][a]) for n in names]
        for a in gp.base.atoms
    ]
    if args.format == "tsv":
        print("\t".join(["atom"] + names))
        for row in rows:
            print("\t".join(row))
        return 0
    _print_columns(rows, header=["atom"] + names)
    print()
    print("orderings between semantics (columns named by default value):")
    for rel in report.relations:
        print(f"  {rel}")
    cons = report.consensus
    print(f"consensus fixed under pessimistic default: {_yn(cons.fixed_under_pessimistic)}")
    print(f"consensus fixed under optimistic default: {_yn(cons.fixed_under_optimistic)}")
    print(f"consensus satisfies the rule truth bound: {_yn(cons.rule_bound_holds)}")
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _parse_model_file(path: str, gp: GroundProgram) -> Valuation:
    text = _read_input(path)
    by_name = {str(atom): atom for atom in gp.base.atoms}
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(f"{path}:{lineno}: expected 'atom<TAB>value', got {raw!r}")
        atom_text, value_text = parts
        if not _ATOM_RE.match(atom_text):
            raise CliError(f"{path}:{lineno}: malformed atom {atom_text!r}")
        atom = by_name.get(atom_text)
        if atom is None:
            raise CliError(f"{path}:{lineno}: unknown atom {atom_text}")
        try:
            value = TruthValue.from_symbol(value_text)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if atom in mapping:
            raise CliError(f"{path}:{lineno}: duplicate atom {atom_text}")
        mapping[atom] = value
    missing = [str(a) for a in gp.base.atoms if a not in mapping]
    if missing:
        raise CliError(f"model file is missing atom {missing[0]}")
    return Valuation.from_mapping(gp.base, mapping)


def cmd_check(args) -> int:
    gp = _load_ground_program(args)
    alpha = TruthValue.from_symbol(args.alpha)
    v = _parse_model_file(args.model, gp)
    fixed = engine.is_alpha_fixed_model(gp, alpha, v)
    operator_model = engine.immediate_consequence(gp, alpha, v, v) == v
    stable = None
    try:
        three = ThreeValuation.from_valuation(v)
        stable = oracles.gl_transform(gp, three) == three
    except ValueError:  # includes ConventionalityError
        stable = None
    results = [
        ("alpha-fixed-model", _yn(fixed)),
        ("operator-model", _yn(operator_model)),
        ("three-valued-stable", "n/a" if stable is None else _yn(stable)),
    ]
    if args.format == "json":
        payload = {
            "alpha_fixed_model": fixed,
            "operator_model": operator_model,
            "three_valued_stable": stable,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "tsv":
        for key, val in results:
            print(f"{key}\t{val}")
    else:
        _print_columns(results)
    return 0


def cmd_ground(args) -> int:
    gp = _load_ground_program(args)
    sys.stdout.write(gp.render())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except engine.InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
