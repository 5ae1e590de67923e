"""Command-line front end.

Subcommands: eval (one semantics), compare (all defaults side by side),
check (test a candidate model from a file), ground (dump the ground
program).  Output is deterministic: atoms are sorted lexicographically
and formats are byte-stable for identical inputs and flags.

Exit status: 0 on success, 1 on user errors (unreadable input, syntax,
arity, bad model files, bad flags), 2 when a computed result violates
an internal algebraic invariant, which indicates a bug rather than bad
input.

Each subcommand's options are one table, COMMANDS: flag, choices,
default, whether required, help.  build_parser builds argparse from it,
and _read_argv reads the plain argv, the subcommand and then its flags,
each once with a value, and the file, in any order, into a namespace
with the attributes argparse would set, without building the parser.
Any other argv, help and every error included, goes to argparse, which
is therefore the one source of usage and error text; argparse is
imported only then.

A command loads its program in this order: the file is read and
tokenized once.  Unless --base full or --strict-conventional is given,
grounder.ground_tokens grounds a propositional program straight from
the tokens, and --const is then only validated, since such a program
has no variable or quantifier to range over the domain.  Any other
program, and any the direct path declines, is parsed from the same
tokens by parse_program, checked for --strict-conventional, and
grounded by ground over the --const constants, which applies the size
cap.  Either way the checks keep their order: tokens, syntax,
--strict-conventional, --const, then the cap.

A command imports what only it needs when it runs: the oracles for
wfs, kk, stable-enum and check, json for --format json.

Output is written from the masks: Valuation.symbols gives one symbol per
atom, and the atom texts come from Base.names.  Every table goes through
one writer, _write, which branches only on the format; eval's tsv and
json go through Valuation.to_lines and to_json_dict.  A model file is
read into one symbol per atom and built with Valuation.from_symbols.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import engine
from .bilattice import TruthValue
from .grounder import GroundProgram, ground, ground_tokens
from .syntax import _KEYWORDS, ParseError, _tokenize, is_conventional, parse_program
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


def _input_name(path: str) -> str:
    """How messages name the input at path; "-" is standard input."""
    return "standard input" if path == "-" else path


def _read_input(path: str) -> str:
    r"""The text at path, or on standard input for "-", decoded as
    UTF-8 whatever the locale, its line ends made "\n" as in universal
    newlines mode: a lone "\r" ends a % comment too."""
    try:
        if path != "-":
            with open(path, "rb", buffering=0) as handle:
                data = handle.read()
        elif sys.stdin is None:
            raise CliError("cannot read standard input: it is closed")
        else:
            data = sys.stdin.buffer.read()
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return text
    except OSError as exc:
        raise CliError(f"cannot read {_input_name(path)}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(
            f"cannot read {_input_name(path)}: not valid UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def _extra_constants(raw: str):
    names = [c for c in raw.split(",") if c]
    for name in names:
        if not _CONST_RE.match(name) or name in _KEYWORDS:
            raise CliError(f"invalid constant name {name!r}")
    return tuple(names)


def _load_ground_program(args) -> GroundProgram:
    text = _read_input(args.file)
    tokens = _tokenize(text)
    if args.base == "occurring" and not args.strict_conventional:
        gp = ground_tokens(tokens)
        if gp is not None:
            _extra_constants(args.const)  # validated; a propositional program ignores them
            return gp
    program = parse_program(text, tokens)
    if args.strict_conventional and not is_conventional(program, strict=True):
        raise CliError(
            "program is not strict-conventional "
            "(bodies must be conjunctions of literals)"
        )
    return ground(program, _extra_constants(args.const), args.base)


def _write(fmt: str, payload, rows, header=None, footer: str = "") -> None:
    """Write one table to stdout in format fmt: json dumps payload; tsv
    writes header, if any, and rows as tab-separated lines; table writes
    them as left-aligned columns, one space apart, followed by footer.
    Rows are sequences of strings."""
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if fmt == "tsv":
        lines = ["\t".join(header)] if header else []
        lines += map("\t".join, rows)
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")
        return
    table = [header] if header else []
    table += rows
    if table:
        widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
        sys.stdout.write("".join(
            " ".join([c.ljust(w) for c, w in zip(row, widths)]).rstrip() + "\n"
            for row in table
        ))
    sys.stdout.write(footer)


def cmd_eval(args) -> int:
    gp = _load_ground_program(args)
    name, fmt = args.semantics, args.format
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
    else:
        from . import oracles

        if name == "wfs":
            result = oracles.well_founded(gp)
        elif name == "kk":
            result = oracles.kripke_kleene(gp)
        else:
            # sorted as the models' to_lines texts: over one base those
            # first differ at the first atom whose values differ, as
            # their symbols do
            columns = sorted(m.symbols() for m in oracles.enumerate_stable_models(gp))
            names = gp.base.names
            payload = [dict(zip(names, c)) for c in columns] if fmt == "json" else None
            header = ["atom"] + [f"model{i + 1}" for i in range(len(columns))]
            _write(fmt, payload, zip(names, *columns) if columns else (),
                   header if columns else None)
            return 0
    if fmt == "tsv":
        sys.stdout.write(result.to_lines())
    else:
        _write(fmt, result.to_json_dict() if fmt == "json" else None,
               zip(result.base.names, result.symbols()))
    return 0


def cmd_compare(args) -> int:
    gp = _load_ground_program(args)
    report = engine.compare_semantics(gp)
    names = list(report.valuations)
    valuations = list(report.valuations.values())
    cons = report.consensus
    footer = "".join(line + "\n" for line in (
        "",
        "orderings between semantics (columns named by default value):",
        *[f"  {rel}" for rel in report.relations],
        f"consensus fixed under pessimistic default: {_yn(cons.fixed_under_pessimistic)}",
        f"consensus fixed under optimistic default: {_yn(cons.fixed_under_optimistic)}",
        f"consensus satisfies the rule truth bound: {_yn(cons.rule_bound_holds)}",
    ))
    payload = ({n: v.to_json_dict() for n, v in zip(names, valuations)}
               if args.format == "json" else None)
    rows = zip(gp.base.names, *[v.symbols() for v in valuations])
    _write(args.format, payload, rows, ["atom"] + names, footer)
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _parse_model_file(path: str, gp: GroundProgram) -> Valuation:
    text = _read_input(path)
    where = _input_name(path)
    names = gp.base.names
    by_name = {name: i for i, name in enumerate(names)}
    symbols = [None] * len(names)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(f"{where}:{lineno}: expected 'atom<TAB>value', got {raw!r}")
        atom_text, value_text = parts
        if not _ATOM_RE.match(atom_text):
            raise CliError(f"{where}:{lineno}: malformed atom {atom_text!r}")
        i = by_name.get(atom_text)
        if i is None:
            raise CliError(f"{where}:{lineno}: unknown atom {atom_text}")
        try:
            symbol = TruthValue.from_symbol(value_text).value
        except ValueError as exc:
            raise CliError(f"{where}:{lineno}: {exc}") from None
        if symbols[i] is not None:
            raise CliError(f"{where}:{lineno}: duplicate atom {atom_text}")
        symbols[i] = symbol
    if None in symbols:
        source = "model file" if path != "-" else where
        raise CliError(f"{source} is missing atom {names[symbols.index(None)]}")
    return Valuation.from_symbols(gp.base, "".join(symbols))


def cmd_check(args) -> int:
    from . import oracles

    if args.model == "-" and args.file == "-":
        raise CliError("--model - and the program cannot both be read from standard input")
    gp = _load_ground_program(args)
    alpha = TruthValue.from_symbol(args.alpha)
    v = _parse_model_file(args.model, gp)
    fixed = engine.is_alpha_fixed_model(gp, alpha, v)
    operator_model = engine.immediate_consequence(gp, alpha, v, v) == v
    try:
        stable = oracles.gl_transform(gp, v) == v
    except ValueError:  # a value I, or a ConventionalityError
        stable = None
    _write(args.format, {
        "alpha_fixed_model": fixed,
        "operator_model": operator_model,
        "three_valued_stable": stable,
    }, [
        ("alpha-fixed-model", _yn(fixed)),
        ("operator-model", _yn(operator_model)),
        ("three-valued-stable", "n/a" if stable is None else _yn(stable)),
    ])
    return 0


def cmd_ground(args) -> int:
    gp = _load_ground_program(args)
    sys.stdout.write(gp.render())
    return 0


class Option(NamedTuple):
    """One entry of a subcommand's option table.  A flag without a
    leading "-" is the positional argument.  choices None takes any
    value.  A flag whose default is False is a switch: it takes no value
    and sets True."""

    flag: str
    choices: Optional[tuple] = None
    default: object = None
    required: bool = False
    help: Optional[str] = None


_ALPHAS = ("F", "T", "U", "I")
_FORMAT = Option("--format", ("table", "tsv", "json"), "table")
_COMMON = (
    Option("file", default="-", help="program file (.blp), or - for stdin"),
    Option("--base", ("occurring", "full"), "occurring",
           help="atom universe: atoms occurring in rules, or the full "
                "predicate-by-constant base"),
    Option("--const", default="", help="comma-separated extra domain constants"),
    Option("--strict-conventional", default=False,
           help="reject programs whose bodies are not conjunctions of literals"),
)

# name: (help, function, options in the order argparse lists them)
COMMANDS = {
    "eval": ("compute one semantics", cmd_eval, (
        Option("--alpha", _ALPHAS, help="default value for atoms heading no rule"),
        Option("--semantics", SEMANTICS_CHOICES, required=True),
        _FORMAT,
    ) + _COMMON),
    "compare": ("all four defaults plus consensus", cmd_compare, (_FORMAT,) + _COMMON),
    "check": ("check a candidate model from a file", cmd_check, (
        Option("--alpha", _ALPHAS, required=True),
        Option("--model", required=True,
               help="file of atom<TAB>value lines covering the base"),
        _FORMAT,
    ) + _COMMON),
    "ground": ("dump the ground program", cmd_ground, _COMMON),
}


def _dest(flag: str) -> str:
    """The Namespace attribute of flag, as argparse names it."""
    return flag.lstrip("-").replace("-", "_")


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # route argparse failures to exit status 1
            raise CliError(f"{self.prog}: {message}")

        def _print_message(self, message, file=None):  # a failing write raises
            if message:
                (file or sys.stderr).write(message)

        def exit(self, status=0, message=None):  # -h: a failing flush of the help raises
            sys.stdout.flush()
            super().exit(status, message)

    parser = _Parser(prog="blp", description="Four-valued logic program semantics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in options:
            if not opt.flag.startswith("-"):
                p.add_argument(opt.flag, nargs="?", default=opt.default, help=opt.help)
            elif opt.default is False:
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, choices=opt.choices, default=opt.default,
                               required=opt.required, help=opt.help)
        p.set_defaults(func=func)
    return parser


def _reader_tables() -> dict:
    """name: (function, {flag: (dest, choices, is a switch)}, positional
    dest, defaults, required dests), from COMMANDS."""
    tables = {}
    for name, (_, func, options) in COMMANDS.items():
        flags = {o.flag: (_dest(o.flag), o.choices, o.default is False)
                 for o in options if o.flag[0] == "-"}
        positional = next(o.flag for o in options if o.flag[0] != "-")
        defaults = {_dest(o.flag): o.default for o in options}
        required = frozenset(_dest(o.flag) for o in options if o.required)
        tables[name] = (func, flags, positional, defaults, required)
    return tables


_READER = _reader_tables()


def _read_argv(argv) -> Optional[SimpleNamespace]:
    """The attributes of the Namespace build_parser().parse_args(argv)
    returns, for plain argv: a subcommand, then, in any order, flags of
    its table, each given once, exactly, and followed by a value that
    does not start with "-" and is one of the flag's choices, and at
    most one file that does not start with "-"; every required flag is
    there.

    None for any other argv, which argparse then reads: -h, --,
    --flag=value, an abbreviated, unknown or repeated flag, a value or
    file that starts with "-", a bad choice or a missing required flag.
    Within the plain shape argparse matches a flag only exactly and
    takes any other string as a value or the positional, so both read
    plain argv alike.
    """
    if not argv:
        return None
    table = _READER.get(argv[0])
    if table is None:
        return None
    func, flags, positional, defaults, required = table
    values = {}
    args = iter(argv[1:])
    for arg in args:
        if arg[:1] != "-":
            if positional in values:
                return None
            values[positional] = arg
            continue
        entry = flags.get(arg)
        if entry is None or entry[0] in values:
            return None
        dest, choices, switch = entry
        if switch:
            values[dest] = True
            continue
        value = next(args, None)
        if value is None or value[:1] == "-" or choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], func=func, **{**defaults, **values})


def _stdout_to_devnull() -> None:
    """Point file descriptor 1 at the null device, so that the
    interpreter's last flush of standard output, at exit, cannot fail
    again on what is still buffered."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    except (OSError, ValueError):  # no descriptor behind sys.stdout
        pass


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if sys.stdout is None:
            raise CliError("cannot write standard output: it is closed")
        args = _read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except engine.InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # input errors are CliErrors, so this is a write
        _stdout_to_devnull()
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
