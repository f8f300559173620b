"""Obstruction engine for standard compact quotients of G/H.

Enumerates every catalog configuration of a reductive subgroup compatible
with the rank and dimension budgets, and decides whether the cocompactness
equality d(L) = d(G) - d(H) is achievable by any of them.  The engine only
ever answers NoStandardForm or Inconclusive: the budgets are necessary
conditions, never proofs of embeddability, so it never claims existence.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import (
    ReductiveDescriptor,
    SimpleRealForm,
    derived_invariants,
    scan_forms,
)
from .errors import SpaceObstruction

NO_STANDARD_FORM = "NoStandardForm"
INCONCLUSIVE = "Inconclusive"


class BudgetUse(NamedTuple):
    used: int
    limit: int

    @property
    def ok(self) -> bool:
        return self.used <= self.limit


class Budgets(NamedTuple):
    ahyp: BudgetUse
    rank: BudgetUse
    maxcompact: BudgetUse
    dim: BudgetUse


class CandidateReport(NamedTuple):
    """One multiset of simple parts together with the d values it can reach.

    The interval is [sum of dim_p, same + c_max] where c_max is the split
    center dimension still allowed by the rank budget.
    """

    derived_parts: tuple[SimpleRealForm, ...]
    d_interval: tuple[int, int]
    budgets: Budgets


class StandardFormVerdict(NamedTuple):
    required_d: int
    verdict: str
    max_achievable: int
    witnesses: tuple[CandidateReport, ...]
    top_candidates: tuple[CandidateReport, ...]


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

    def emit(chosen: tuple[SimpleRealForm, ...], ahyp, rank, maxc, dim):
        c_max = lim["rank"] - rank
        lo = dim
        reports.append(CandidateReport(
            derived_parts=chosen,
            d_interval=(lo, lo + c_max),
            budgets=Budgets(
                ahyp=BudgetUse(ahyp, lim["ahyp"]),
                rank=BudgetUse(rank, lim["rank"]),
                maxcompact=BudgetUse(maxc, lim["maxcompact"]),
                dim=BudgetUse(dim, lim["dim"]),
            ),
        ))

    def rec(start, chosen, ahyp, rank, maxc, dim, dim_g):
        emit(chosen, ahyp, rank, maxc, dim)
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


def standard_form_verdict(
    g: SimpleRealForm, h: ReductiveDescriptor, top: int = 10
) -> StandardFormVerdict:
    """Decide whether d(G) - d(H) is achievable by any budget-compatible
    candidate.  NoStandardForm means no candidate interval contains the
    required value; Inconclusive lists the candidates whose interval does."""
    required = g.dim_p - derived_invariants(h).d
    combos = candidate_combinations(g, h)
    witnesses = tuple(c for c in combos if c.d_interval[0] <= required <= c.d_interval[1])
    max_achievable = max(c.d_interval[1] for c in combos)
    ranked = sorted(enumerate(combos), key=lambda t: (-t[1].d_interval[1], t[0]))
    return StandardFormVerdict(
        required_d=required,
        verdict=INCONCLUSIVE if witnesses else NO_STANDARD_FORM,
        max_achievable=max_achievable,
        witnesses=witnesses,
        top_candidates=tuple(c for _, c in ranked[:top]),
    )
