#!/usr/bin/env python3
"""How often is the consensus of the pessimistic and optimistic
semantics itself a fixed model?

Samples the seeded random ground programs of tests/proggen.py, the
generator of the test corpora, and tallies how often the consensus
valuation is a fixpoint under either default and how often it satisfies
the rule truth bound, split by whether the program uses negation.  The combination is always knowledge-above the skeptical
semantics; whether it is a model is program-dependent, which is what
this sweep measures.

Usage: python3 scripts/consensus_survey.py [count] [seed-offset]
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from blp import consensus_semantics, fix_u  # noqa: E402
from blp.bilattice import U  # noqa: E402
from blp.grounder import LIT  # noqa: E402
from proggen import random_ground_program  # noqa: E402


def uses_negation(gp) -> bool:
    """Whether some body reads an atom under "~": in the ground IR, a
    negated literal is an odd literal code."""
    return any(c >= LIT and c & 1 for _, code in gp.ir for c in code)


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    offset = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    tallies = {True: [0, 0, 0, 0], False: [0, 0, 0, 0]}
    for seed in range(offset, offset + count):
        gp = random_ground_program(seed)
        cons = consensus_semantics(gp)
        negated = uses_negation(gp)
        tallies[negated][0] += 1
        tallies[negated][1] += cons.fixed_under_pessimistic
        tallies[negated][2] += cons.fixed_under_optimistic
        tallies[negated][3] += cons.rule_bound_holds
        equal = cons.valuation == fix_u(gp, U)
        if not negated and not equal:
            print(f"unexpected: seed {seed} is negation-free but consensus != skeptical")
            return 1
    for negated, (n, fix_f, fix_t, bound) in sorted(tallies.items()):
        kind = "with negation" if negated else "negation-free"
        if not n:
            continue
        print(
            f"{kind}: {n} programs | consensus fixed under F: {fix_f / n:.1%}"
            f" | under T: {fix_t / n:.1%} | rule bound: {bound / n:.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
