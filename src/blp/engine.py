"""The fixpoint engine.

Everything is built from one two-argument consequence operator over a
ground program: rule heads take the contrajoin value of their body
(positive atoms from the first argument, negated atoms from the
second), atoms heading no rule take the default value alpha.  Fixing
the second argument and iterating from the all-alpha valuation yields
the stability closure; iterating *that* from the all-U (respectively
all-I) valuation reaches its knowledge-least and knowledge-greatest
fixpoints, and iterating its square from all-F and all-T reaches the
extreme oscillation pair under the truth ordering.

The four extremal fixpoints determine each other through the bilattice
operations; semantics() recomputes those identities after every run and
refuses to return a result that violates them, naming the atoms at
which each failed identity breaks.

Valuations are (belief, doubt) bit masks over the base.  The rule bodies
of a ground program are compiled once, on its first evaluation, from
its ground IR (GroundProgram.ir, see grounder) into a flat list of
n-ary nodes (valuation.CompiledBodies) that is cached on the program;
one application of the operator runs that list once.  The engine never
reads the formula trees of GroundProgram.rules.

Inside a stability closure every atom that heads no rule holds alpha:
the start is all-alpha, and each application gives those atoms alpha
again.  So for each alpha the compiled bodies derive, once, a node
list in which those atoms, read without "~", are the constant alpha
(CompiledBodies.at_alpha).  Which list an application runs is chosen
in one place, CompiledBodies.consequence: that list whenever the first
argument holds alpha on every such atom, and the compiled list
otherwise, so the operator is exact for any arguments.  On a win-move
game most bodies read a move atom that is no fact, and at every alpha
the derived list keeps about an eighth of the nodes.  is_model applies
the operator at U, so it runs the list derived for U when its
valuation holds U on every such atom, as every consensus does.  So
semantics, compare and consensus build the compiled list
(CompiledBodies.nodes) only where at_alpha returns it, for a list too
short to fold.

Each stability closure is computed once per program.  A body reads the
second argument only at the atoms it negates, so the closure depends on
alpha and on the second argument restricted to those atoms; the
compiled bodies keep a memo under exactly that key (see
_stability_steps).  The memo holds closures of the operator, never
fixpoints: fixU, fixI and the oscillation pair are each still iterated
from their own start values.

Likewise a body reads the first argument only at the atoms it reads
without "~" (CompiledBodies.positive).  The closure loop therefore stops
as soon as an application moves none of those atoms: the next
application would return the same valuation, so it is counted, as
naive iteration counts it, but not made (see _iterate).  The outer and
squared loops confirm every fixpoint with a real application, so their
counts, and the inner counts those applications add, stay those of
naive iteration.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Tuple

from .bilattice import F, I, T, TruthValue, U
from .grounder import GroundProgram
from .valuation import (
    BaseMismatchError,
    CompiledBodies,
    Valuation,
    const_valuation,
)

Alpha = TruthValue


class InternalInvariantError(RuntimeError):
    """An algebraic invariant the engine relies on failed.

    Signals a bug in the engine (or a corrupted ground program), never
    bad user input; the CLI maps it to exit status 2.
    """


def _compiled(gp: GroundProgram) -> CompiledBodies:
    """The program's rule bodies, compiled on first use."""
    if gp.compiled is None:
        gp.compiled = CompiledBodies(gp.base, gp.ir)
    return gp.compiled


def immediate_consequence(
    gp: GroundProgram, alpha: Alpha, v: Valuation, w: Valuation
) -> Valuation:
    """One step: heads get their body's contrajoin value, non-heads get
    alpha.  CompiledBodies.consequence chooses the node list it runs."""
    base = gp.base
    if v.base is not base and v.base != base or w.base is not base and w.base != base:
        raise BaseMismatchError("valuations do not match the program's base")
    return Valuation.from_masks(base, *_compiled(gp).consequence(alpha, v, w))


_NAMED = 5  # atoms named in an invariant failure; the rest are counted


def _atom_names(base, mask: int) -> str:
    """The atoms of mask in base order: the first _NAMED by name, then
    how many more there are."""
    names = [name for i, name in enumerate(base.names) if mask >> i & 1]
    shown = ", ".join(names[:_NAMED])
    if len(names) > _NAMED:
        shown += f" and {len(names) - _NAMED} more"
    return shown


def _iterate(step, start: Valuation, max_apps: int, label: str, reads: int = -1):
    """Apply step from start until it returns its argument: the fixpoint
    and the applications naive iteration makes, the confirming one
    included.

    step must read its argument only at the atoms of the mask reads.
    Once an application moves none of them, the next one would return
    the same valuation, so it is counted but not made, provided naive
    iteration has room for it within max_apps; otherwise the loop goes
    on and raises as naive iteration does.
    """
    prev = cur = start
    for n in range(max_apps):
        nxt = step(cur)
        moved = _moved(cur, nxt)
        if not moved:
            return cur, n + 1
        if not moved & reads and n + 2 <= max_apps:
            return nxt, n + 2
        prev, cur = cur, nxt
    raise InternalInvariantError(
        f"{label} did not converge within {max_apps} applications "
        f"(non-monotone update?); still moving: {_atom_names(cur.base, _moved(prev, cur))}"
    )


def _moved(a: Valuation, b: Valuation) -> int:
    """The mask of the atoms on which a and b differ."""
    return (a.belief ^ b.belief) | (a.doubt ^ b.doubt)


def _bound(gp: GroundProgram) -> int:
    # Each atom can move at most twice along a monotone chain in FOUR.
    return 2 * len(gp.base) + 1


def _stability_steps(gp: GroundProgram, alpha: Alpha, w: Valuation):
    """The stability closure for w and the applications it took,
    computed once per key (alpha, w.belief & neg, w.doubt & neg), where
    neg has a bit for every atom some body reads under "~".

    The key is exact.  Every application on the way from the all-alpha
    start is immediate_consequence(gp, alpha, x, w), and the non-heads
    get alpha, so w enters only through CompiledBodies.evaluate.  That
    reads w through literal bits n + i, and only an atom i under a
    NegAtom has such a bit in any node mask, so only the neg bits of w
    reach any result.  Two w that agree there therefore produce the
    same iterates, hence the same closure and the same count.

    The list derived for alpha (CompiledBodies.at_alpha) reads only
    literals the compiled list reads, so this holds for it too.

    By the same argument an application reads x only at the atoms some
    body reads without "~" (CompiledBodies.positive), so _iterate stops
    one application early once none of those has moved.
    """
    if w.base != gp.base:
        raise BaseMismatchError("valuations do not match the program's base")
    compiled = _compiled(gp)
    neg = compiled.negated
    key = (alpha, w.belief & neg, w.doubt & neg)
    found = compiled.closures.get(key)
    if found is None:
        found = compiled.closures[key] = _iterate(
            lambda x: immediate_consequence(gp, alpha, x, w),
            compiled.at_alpha(alpha)[0],
            _bound(gp),
            "inner consequence iteration",
            compiled.positive,
        )
    return found


def stability(gp: GroundProgram, alpha: Alpha, w: Valuation) -> Valuation:
    """Fix the negated atoms by w, then close the positive consequences:
    iterate the consequence operator from the all-alpha valuation."""
    return _stability_steps(gp, alpha, w)[0]


def _fix_from(gp: GroundProgram, alpha: Alpha, start: TruthValue):
    inner_total = 0

    def step(x: Valuation) -> Valuation:
        nonlocal inner_total
        val, n = _stability_steps(gp, alpha, x)
        inner_total += n
        return val

    val, outer = _iterate(
        step, const_valuation(gp.base, start), _bound(gp), "outer fixpoint iteration"
    )
    return val, outer, inner_total


def fix_u(gp: GroundProgram, alpha: Alpha) -> Valuation:
    """Knowledge-least fixpoint of the stability closure."""
    return _fix_from(gp, alpha, U)[0]


def fix_i(gp: GroundProgram, alpha: Alpha) -> Valuation:
    """Knowledge-greatest fixpoint of the stability closure."""
    return _fix_from(gp, alpha, I)[0]


def _oscillation_pair(gp: GroundProgram, alpha: Alpha):
    inner_total = 0

    def squared(x: Valuation) -> Valuation:
        nonlocal inner_total
        mid, n1 = _stability_steps(gp, alpha, x)
        out, n2 = _stability_steps(gp, alpha, mid)
        inner_total += n1 + n2
        return out

    low, outer_low = _iterate(
        squared, const_valuation(gp.base, F), _bound(gp), "squared-map iteration"
    )
    inner_low = inner_total
    inner_total = 0
    high, outer_high = _iterate(
        squared, const_valuation(gp.base, T), _bound(gp), "squared-map iteration"
    )
    inner_high = inner_total
    moved = _moved(stability(gp, alpha, low), high) | _moved(stability(gp, alpha, high), low)
    if moved:
        raise InternalInvariantError(
            "extreme fixpoints of the squared map fail to oscillate "
            f"(at {_atom_names(gp.base, moved)})"
        )
    return low, high, (outer_low, inner_low), (outer_high, inner_high)


def fix_f_t(gp: GroundProgram, alpha: Alpha) -> Tuple[Valuation, Valuation]:
    """Truth-extreme oscillation pair of the stability closure: the
    least and greatest fixpoints of its square under the truth ordering."""
    low, high, _, _ = _oscillation_pair(gp, alpha)
    return low, high


class SemanticsResult(NamedTuple):
    """The four extremal fixpoints for one default value alpha.

    iteration_counts maps each fixpoint name to (outer applications,
    total inner applications).
    """

    alpha: Alpha
    fix_u: Valuation
    fix_i: Valuation
    fix_f: Valuation
    fix_t: Valuation
    iteration_counts: Mapping[str, tuple]


def semantics(gp: GroundProgram, alpha: Alpha) -> SemanticsResult:
    """Compute all four extremal fixpoints and verify the decomposition
    identities connecting them."""
    ku, outer_u, inner_u = _fix_from(gp, alpha, U)
    ki, outer_i, inner_i = _fix_from(gp, alpha, I)
    low, high, counts_low, counts_high = _oscillation_pair(gp, alpha)
    result = SemanticsResult(
        alpha=alpha,
        fix_u=ku,
        fix_i=ki,
        fix_f=low,
        fix_t=high,
        iteration_counts={
            "fix_u": (outer_u, inner_u),
            "fix_i": (outer_i, inner_i),
            "fix_f": counts_low,
            "fix_t": counts_high,
        },
    )
    _check_decomposition(result)
    return result


def _check_decomposition(r: SemanticsResult) -> None:
    u, i, f, t = r.fix_u, r.fix_i, r.fix_f, r.fix_t
    # each check is the mask of the atoms at which its identity fails
    checks = [
        ("knowledge-least = consensus of the oscillation pair", _moved(u, f.meet_k(t))),
        ("knowledge-greatest = gullibility of the oscillation pair", _moved(i, f.join_k(t))),
        ("truth-least oscillation = conjunction of the knowledge extremes",
         _moved(f, u.meet_t(i))),
        ("truth-greatest oscillation = disjunction of the knowledge extremes",
         _moved(t, u.join_t(i))),
        ("knowledge extremes ordered", u.belief & ~i.belief | u.doubt & ~i.doubt),
        ("oscillation pair ordered", f.belief & ~t.belief | t.doubt & ~f.doubt),
    ]
    bad = [f"{name} (at {_atom_names(u.base, mask)})" for name, mask in checks if mask]
    if bad:
        raise InternalInvariantError(
            "fixpoint decomposition identities violated: " + "; ".join(bad)
        )


def is_alpha_fixed_model(gp: GroundProgram, alpha: Alpha, v: Valuation) -> bool:
    """True when v is a fixpoint of the stability closure for this alpha."""
    return stability(gp, alpha, v) == v


def is_model(gp: GroundProgram, v: Valuation) -> bool:
    """Rule-wise truth bound: head <=t body for every rule.

    The bodies' values are one application of the operator at U, which
    gives every non-head U, so only the heads are compared;
    CompiledBodies.consequence chooses the node list it runs.
    """
    if v.base != gp.base:
        raise BaseMismatchError("valuation does not match the program's base")
    compiled = _compiled(gp)
    belief, doubt = compiled.consequence(U, v, v)
    heads = compiled.out_mask
    head_belief, head_doubt = v.belief & heads, v.doubt & heads
    return head_belief & ~belief == 0 and doubt & ~head_doubt == 0


class ConsensusResult(NamedTuple):
    """The consensus of the pessimistic and optimistic semantics, with
    flags saying how model-like the combination turned out to be."""

    valuation: Valuation
    fixed_under_pessimistic: bool
    fixed_under_optimistic: bool
    rule_bound_holds: bool


def consensus_semantics(gp: GroundProgram) -> ConsensusResult:
    """Pointwise consensus of the pessimistic- and optimistic-default
    knowledge-least fixpoints."""
    return _consensus(gp, fix_u(gp, F), fix_u(gp, T))


def _consensus(gp: GroundProgram, pess: Valuation, opt: Valuation) -> ConsensusResult:
    val = pess.meet_k(opt)
    return ConsensusResult(
        valuation=val,
        fixed_under_pessimistic=is_alpha_fixed_model(gp, F, val),
        fixed_under_optimistic=is_alpha_fixed_model(gp, T, val),
        rule_bound_holds=is_model(gp, val),
    )


class ComparisonReport(NamedTuple):
    """Side-by-side knowledge-least fixpoints for all four defaults plus
    the consensus, and every pointwise ordering that holds among them."""

    valuations: Mapping[str, Valuation]
    relations: tuple
    consensus: ConsensusResult


_COMPARE_NAMES = ("F", "T", "U", "I", "consensus")


def compare_semantics(gp: GroundProgram) -> ComparisonReport:
    vals = {str(alpha): fix_u(gp, alpha) for alpha in (F, T, U, I)}
    cons = _consensus(gp, vals["F"], vals["T"])
    vals["consensus"] = cons.valuation
    relations = []
    for n1 in _COMPARE_NAMES:
        for n2 in _COMPARE_NAMES:
            if n1 == n2:
                continue
            if vals[n1].leq_k(vals[n2]):
                relations.append(f"{n1} <=k {n2}")
            if vals[n1].leq_t(vals[n2]):
                relations.append(f"{n1} <=t {n2}")
    # the atoms at which the skeptical semantics is not knowledge-below
    # the pessimistic, optimistic or consensus semantics
    skeptical = vals["U"]
    above = 0
    for name in ("F", "T", "consensus"):
        above |= skeptical.belief & ~vals[name].belief | skeptical.doubt & ~vals[name].doubt
    if above:
        raise InternalInvariantError(
            "the skeptical semantics must sit below the pessimistic, optimistic, and "
            f"consensus semantics in the knowledge ordering (at {_atom_names(gp.base, above)})"
        )
    return ComparisonReport(vals, tuple(relations), cons)
