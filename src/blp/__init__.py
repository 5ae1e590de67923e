"""Logic programs over Belnap's four-valued bilattice.

Parse a program, ground it, and compute its fixpoint semantics
parameterized by a default value for atoms the rules say nothing about:
F (pessimistic), T (optimistic), U (skeptical), or I (inconsistent).
The package also provides the consensus of the pessimistic and
optimistic semantics, an independent set-based computation path, and
classical three-valued oracles (well-founded, Kripke-Kleene, stable
models) for cross-validation on conventional programs.

The names of the oracles and of the set-based path are resolved on
first use (PEP 562), so that importing the package, or the command line
front end, loads neither module until something asks for it.
"""

from .bilattice import (
    TruthValue,
    big_join_k,
    big_join_t,
    big_meet_k,
    big_meet_t,
    check_bilattice_laws,
    conflation,
    know_join,
    know_meet,
    leq_k,
    leq_t,
    make_product,
    negation,
    truth_join,
    truth_meet,
)
from .engine import (
    InternalInvariantError,
    SemanticsResult,
    compare_semantics,
    consensus_semantics,
    fix_f_t,
    fix_i,
    fix_u,
    immediate_consequence,
    is_alpha_fixed_model,
    is_model,
    semantics,
    stability,
)
from .grounder import Base, GroundAtom, GroundProgram, ground, herbrand_base
from .syntax import ParseError, Program, is_conventional, parse_program, render_program
from .valuation import (
    BaseMismatchError,
    Interpretation,
    PseudoInterpretation,
    Valuation,
    const_valuation,
    contrajoin_eval,
    from_interpretation,
    pseudo_eval,
    to_interpretation,
)

__version__ = "0.1.0"

# name: the module that defines it, resolved on first use; the two
# modules themselves are among the names
_LAZY = {
    "bottomup": "bottomup",
    "alpha_fixed_semantics": "bottomup",
    "oracles": "oracles",
    "ConventionalityError": "oracles",
    "enumerate_stable_models": "oracles",
    "gl_transform": "oracles",
    "kripke_kleene": "oracles",
    "well_founded": "oracles",
}


def __getattr__(name: str):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
