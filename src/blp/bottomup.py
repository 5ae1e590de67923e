"""Bottom-up, set-based computation of the parameterized semantics.

This is a second, independently coded route to the knowledge-least
fixpoint: it manipulates (true-set, false-set) pairs and evaluates rule
bodies through pseudo-interpretations instead of valuations, and shares
no evaluation code with the fixpoint engine.  The test suite holds the
two paths against each other across all defaults and programs.

The outer loop accumulates the result sets by union; since the
knowledge ordering on set pairs is componentwise inclusion and the
iterated values only ever grow, the union is exactly the next iterate.
"""

from __future__ import annotations

from .bilattice import F, I, T, TruthValue
from .engine import InternalInvariantError
from .grounder import GroundProgram
from .valuation import Interpretation, PseudoInterpretation, pseudo_eval


def alpha_fixed_semantics(gp: GroundProgram, alpha: TruthValue) -> Interpretation:
    """Compute the knowledge-least fixpoint as a (true-set, false-set) pair."""
    atoms = frozenset(gp.base.atoms)
    empty = frozenset()
    rest = atoms.difference(gp.rules)  # the atoms that head no rule
    if not isinstance(alpha, TruthValue):
        raise ValueError(f"alpha must be a truth value, not {alpha!r}")
    # alpha puts every atom in the true set when T or I, in the false
    # set when F or I
    true, false = alpha in (T, I), alpha in (F, I)
    init_true, init_false = atoms if true else empty, atoms if false else empty
    nh_true, nh_false = rest if true else empty, rest if false else empty

    limit = 2 * len(gp.base) + 2
    res_true: frozenset = empty
    res_false: frozenset = empty
    prev_res = None
    outer = 0
    while (res_true, res_false) != prev_res:
        outer += 1
        if outer > limit:
            raise InternalInvariantError("set-based outer loop failed to stabilize")
        prev_res = (res_true, res_false)
        iter_true, iter_false = init_true, init_false
        prev_iter = None
        inner = 0
        while (iter_true, iter_false) != prev_iter:
            inner += 1
            if inner > limit:
                raise InternalInvariantError("set-based inner loop failed to stabilize")
            prev_iter = (iter_true, iter_false)
            image_true = set()
            image_false = set()
            image_both = set()
            j = PseudoInterpretation(
                Interpretation(gp.base, iter_true, iter_false),
                Interpretation(gp.base, res_true, res_false),
            )
            for head, body in gp.rules.items():
                value = pseudo_eval(j, body)
                if value is T:
                    image_true.add(head)
                elif value is F:
                    image_false.add(head)
                elif value is I:
                    image_both.add(head)
            iter_true = frozenset(image_true | image_both) | nh_true
            iter_false = frozenset(image_false | image_both) | nh_false
        res_true = res_true | iter_true
        res_false = res_false | iter_false
    return Interpretation(gp.base, res_true, res_false)
