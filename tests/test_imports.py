"""What importing the command line front end loads, and the names the
package gives."""

import os
import subprocess
import sys

import blp

# the modules every subcommand runs, and those only some need or none
EAGER = ("blp.bilattice", "blp.engine", "blp.grounder", "blp.syntax", "blp.valuation")
DEFERRED = ("argparse", "blp.bottomup", "blp.oracles", "dataclasses", "inspect", "json")

# every public name of the package when it imported all of its modules
PUBLIC = (
    "Base BaseMismatchError ConventionalityError GroundAtom GroundProgram "
    "InternalInvariantError Interpretation ParseError Program PseudoInterpretation "
    "SemanticsResult TruthValue Valuation alpha_fixed_semantics "
    "big_join_k big_join_t big_meet_k big_meet_t bilattice bottomup "
    "check_bilattice_laws compare_semantics conflation consensus_semantics "
    "const_valuation contrajoin_eval engine enumerate_stable_models fix_f_t fix_i "
    "fix_u from_interpretation gl_transform ground grounder herbrand_base "
    "immediate_consequence is_alpha_fixed_model is_conventional is_model "
    "know_join know_meet kripke_kleene leq_k leq_t make_product negation oracles "
    "parse_program pseudo_eval render_program semantics stability syntax "
    "to_interpretation truth_join truth_meet valuation well_founded"
).split()


def _fresh(code: str, *args) -> str:
    """The stdout of code run in a fresh interpreter that finds this blp."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, env=env).stdout


def test_cli_import_loads_only_what_every_subcommand_runs():
    loaded = _fresh("import sys, blp.cli\n"
                    "print(*[m for m in sys.argv[1:] if m in sys.modules])",
                    *EAGER, *DEFERRED)
    assert loaded.split() == list(EAGER)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(blp, name) is not None, name
    assert set(PUBLIC) <= set(dir(blp))
    out = _fresh("from blp import well_founded, alpha_fixed_semantics\n"
                 "import blp.oracles, blp.bottomup\n"
                 "print(well_founded is blp.oracles.well_founded,\n"
                 "      alpha_fixed_semantics is blp.bottomup.alpha_fixed_semantics)")
    assert out == "True True\n"
    try:
        blp.no_such_name
    except AttributeError as exc:
        assert str(exc) == "module 'blp' has no attribute 'no_such_name'"
    else:
        raise AssertionError("blp.no_such_name resolved")
