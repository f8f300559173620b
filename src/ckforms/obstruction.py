"""Obstruction engine for standard compact quotients of G/H.

Enumerates every catalog configuration of a reductive subgroup compatible
with the rank and dimension budgets, and decides whether the cocompactness
equality d(L) = d(G) - d(H) is achievable by any of them.  The engine only
ever answers NoStandardForm or Inconclusive: the budgets are necessary
conditions, never proofs of embeddability, so it never claims existence.
"""

from collections import namedtuple

from .catalog import (
    ReductiveDescriptor,
    SimpleRealForm,
    derived_invariants,
    scan_forms,
)
from .errors import SpaceObstruction

NO_STANDARD_FORM = "NoStandardForm"
INCONCLUSIVE = "Inconclusive"
TOP_CANDIDATES = 10   # candidates a verdict lists, by upper end of their d interval


# how much of one budget a candidate uses (`used`, int) against its `limit`
# (int), and a BudgetUse per budget
BudgetUse = namedtuple("BudgetUse", "used limit")
Budgets = namedtuple("Budgets", "ahyp rank maxcompact dim")


class CandidateReport(namedtuple("CandidateReport", "derived_parts d_interval budgets")):
    """One multiset of simple parts (`derived_parts`, a tuple of
    SimpleRealForm) together with the d values it can reach (`d_interval`,
    a pair of int) and its `budgets` (Budgets).

    The interval is [sum of dim_p, same + c_max] where c_max is the split
    center dimension still allowed by the rank budget.
    """

    __slots__ = ()


# `witnesses` and `top_candidates` are tuples of CandidateReport
StandardFormVerdict = namedtuple("StandardFormVerdict", "required_d verdict max_achievable "
                                 "witnesses top_candidates")


def _budget_limits(g: SimpleRealForm, h: ReductiveDescriptor):
    hi = derived_invariants(h)
    if hi.ahyp > g.ahyp or hi.rank_R > g.real_rank:
        raise SpaceObstruction(
            f"G/H itself violates the rank conditions: ahyp {hi.ahyp} vs "
            f"{g.ahyp}, rank {hi.rank_R} vs {g.real_rank}"
        )
    if hi.d > g.dim_p:
        raise SpaceObstruction(
            f"H cannot embed reductively in G: d(H) = {hi.d} exceeds d(G) = {g.dim_p}"
        )
    return {
        "ahyp": g.ahyp - hi.ahyp,
        "rank": g.real_rank - hi.rank_R,
        "maxcompact": g.rank_maxcompact,
        "dim": g.dim_p - hi.d,
        "dim_g": g.dim_g,
    }


def candidate_simple_parts(g: SimpleRealForm, h: ReductiveDescriptor) -> list[SimpleRealForm]:
    """Catalog simple forms that fit the per-part budgets: a-hyperbolic rank
    and real rank within the leftover of G over H, maximal compact rank and
    total dimension within G's, dim p within d(G) - d(H).

    The catalog scan stops on the cheap budgets (each invariant grows with
    every family parameter); the a-hyperbolic rank is read last, so forms
    outside them never compute it."""
    lim = _budget_limits(g, h)
    parts = scan_forms(lambda s: s.dim_g <= lim["dim_g"]
                       and s.restricted_rank <= lim["rank"]
                       and s.rank_maxcompact <= lim["maxcompact"]
                       and s.dim_p <= lim["dim"])
    return [s for s in parts if s.ahyp <= lim["ahyp"]]


def candidate_combinations(g: SimpleRealForm, h: ReductiveDescriptor) -> list[CandidateReport]:
    """All multisets of candidate parts (including the empty one, i.e. a
    compact or trivial derived algebra) whose summed invariants respect the
    budgets, each with its achievable d interval."""
    lim = _budget_limits(g, h)
    parts = candidate_simple_parts(g, h)
    reports: list[CandidateReport] = []

    def rec(start, chosen, ahyp, rank, maxc, dim, dim_g):
        reports.append(CandidateReport(
            derived_parts=chosen,
            d_interval=(dim, dim + lim["rank"] - rank),
            budgets=Budgets(
                ahyp=BudgetUse(ahyp, lim["ahyp"]),
                rank=BudgetUse(rank, lim["rank"]),
                maxcompact=BudgetUse(maxc, lim["maxcompact"]),
                dim=BudgetUse(dim, lim["dim"]),
            ),
        ))
        for i in range(start, len(parts)):
            s = parts[i]
            na, nr = ahyp + s.ahyp, rank + s.restricted_rank
            nm, nd = maxc + s.rank_maxcompact, dim + s.dim_p
            ng = dim_g + s.dim_g
            if (na <= lim["ahyp"] and nr <= lim["rank"] and nm <= lim["maxcompact"]
                    and nd <= lim["dim"] and ng <= lim["dim_g"]):
                rec(i, chosen + (s,), na, nr, nm, nd, ng)

    rec(0, (), 0, 0, 0, 0, 0)
    return reports


def standard_form_verdict(g: SimpleRealForm, h: ReductiveDescriptor) -> StandardFormVerdict:
    """Decide whether d(G) - d(H) is achievable by any budget-compatible
    candidate.  NoStandardForm means no candidate interval contains the
    required value; Inconclusive lists the candidates whose interval does."""
    required = g.dim_p - derived_invariants(h).d
    combos = candidate_combinations(g, h)
    witnesses = tuple(c for c in combos if c.d_interval[0] <= required <= c.d_interval[1])
    max_achievable = max(c.d_interval[1] for c in combos)
    return StandardFormVerdict(
        required_d=required,
        verdict=INCONCLUSIVE if witnesses else NO_STANDARD_FORM,
        max_achievable=max_achievable,
        witnesses=witnesses,
        # a stable sort: ties keep the search order
        top_candidates=tuple(sorted(combos, key=lambda c: -c.d_interval[1])[:TOP_CANDIDATES]),
    )
