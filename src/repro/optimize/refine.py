"""Shared plumbing of the refinement tier: cost model, schedules, results.

**Cost.**  The objective both variants minimise is the DFF-equivalent
test-hardware area

    cost = Σ  +  0.01 · |cuts|  +  2.3 · |uncovered cuts|

where Σ = Σ p_k·n_k is the CBIT catalogue cost (Eq. 4).  A *covered*
cut shares a retimed existing DFF, so it costs (almost) nothing — the
ε = 0.01 term only breaks ties inside catalogue plateaus so Σ-neutral
walks don't silently bloat the cut set.  A cut the retiming could
*not* cover pays a full MUXed A_CELL (0.9 + 1.4 = 2.3 DFF
equivalents) — the same per-cell areas the BIST inserter charges.

**Budget → schedule.**  ``optimize_budget`` (seconds) is converted into
a move-schedule length by a fixed calibration formula over the circuit
size only, so the schedule — and therefore the result — is a pure
function of ``(netlist, config)``: byte-identical on any host, at any
``--jobs``, cacheable under :func:`repro.exec.hashing.point_key`.  The
budget is advisory; a slow host overshoots the wall clock instead of
changing the answer.

**Re-retiming contract.**  One exact solve
(:func:`~repro.retiming.solve.solve_cut_retiming` with a precomputed
``register_weighted_edges`` list — the warm-start hook the incremental
solver exposes) runs at the start, at deterministic mid-run
checkpoints the budget can afford (:func:`estimate_retime_seconds`),
and once on the final best state, so every *reported* number is exact.
Between checkpoints the uncovered term is estimated pessimistically:
any current cut the last solve did not prove covered (or
unconstrained) is charged as uncovered, so the walk can only be
surprised favourably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..partition.clusters import Partition

__all__ = [
    "ACELL_DFF",
    "CUT_EPSILON",
    "MUX_PREMIUM_DFF",
    "UNCOVERED_DFF",
    "OptimizeResult",
    "estimate_retime_seconds",
    "refine_cost",
    "schedule_steps",
]

#: DFF-equivalent area of one A_CELL test register.
ACELL_DFF = 0.9
#: Extra DFF equivalents for the MUXed A_CELL an uncovered cut keeps.
MUX_PREMIUM_DFF = 1.4
#: Full area charge of an uncovered cut (MUXed A_CELL).
UNCOVERED_DFF = ACELL_DFF + MUX_PREMIUM_DFF
#: Plateau tie-breaker per constrained cut (covered cuts are otherwise
#: free — they share a retimed existing DFF).
CUT_EPSILON = 0.01


def refine_cost(sigma: float, n_cuts: int, n_dropped: int) -> float:
    """Total DFF-equivalent test area of a refinement state."""
    return sigma + CUT_EPSILON * n_cuts + UNCOVERED_DFF * n_dropped


def schedule_steps(budget_seconds: float, n_nodes: int, n_cuts: int) -> int:
    """Deterministic move-schedule length for a wall-clock budget.

    Calibrated cost of one proposal on a reference host: two cluster
    input-net recounts plus (amortised) one warm-started re-retime —
    linear in circuit size and cut count.  Clamped so tiny circuits
    still explore and huge ones cannot run away.
    """
    per_move = 2.5e-4 + 1.5e-6 * (n_nodes + 8 * n_cuts)
    return max(64, min(50_000, int(budget_seconds / per_move)))


def estimate_retime_seconds(n_edges: int, n_cuts: int) -> float:
    """Deterministic wall-clock estimate of one cut-retiming solve.

    Calibrated on the bundled ISCAS'89 circuits (s510 ≈ 1.1 s at
    454 edges / 105 cuts, s1423 ≈ 10 s at 1368 / 337): the greedy
    drop loop re-solves feasibility per dropped cut, so cost scales
    with ``edges × cuts``.  Used to decide how many *exact* re-retimes
    the ``optimize_budget`` can afford — the schedule itself stays a
    pure function of circuit size, never of measured time.
    """
    return 2e-5 * n_edges * max(1, n_cuts)


@dataclass
class OptimizeResult:
    """Outcome of one refinement pass (either variant).

    ``partition`` is the best legal state found — never worse than the
    greedy seed under Σ (the seed itself is the fallback).  All counters
    are deterministic; ``stats()`` is the payload slice the sweep farm
    and the service report.
    """

    method: str
    partition: Partition
    sigma_before: float
    sigma_after: float
    cuts_before: int
    cuts_after: int
    uncovered_before: int
    uncovered_after: int
    n_steps: int
    n_proposed: int
    n_accepted: int
    n_retimes: int

    @property
    def improved(self) -> bool:
        return (
            self.sigma_after < self.sigma_before
            or self.cost_after < self.cost_before
        )

    @property
    def cost_before(self) -> float:
        return refine_cost(
            self.sigma_before, self.cuts_before, self.uncovered_before
        )

    @property
    def cost_after(self) -> float:
        return refine_cost(
            self.sigma_after, self.cuts_after, self.uncovered_after
        )

    def stats(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (no wall-clock times)."""
        return {
            "method": self.method,
            "sigma_before": round(self.sigma_before, 4),
            "sigma_after": round(self.sigma_after, 4),
            "sigma_delta": round(self.sigma_after - self.sigma_before, 4),
            "cuts_before": self.cuts_before,
            "cuts_after": self.cuts_after,
            "uncovered_before": self.uncovered_before,
            "uncovered_after": self.uncovered_after,
            "cost_before": round(self.cost_before, 4),
            "cost_after": round(self.cost_after, 4),
            "n_steps": self.n_steps,
            "n_proposed": self.n_proposed,
            "n_accepted": self.n_accepted,
            "n_retimes": self.n_retimes,
        }


def unchanged_result(
    method: str,
    partition: Partition,
    sigma: float,
    n_cuts: int,
    uncovered: int,
    n_steps: int,
    n_proposed: int = 0,
    n_retimes: int = 1,
) -> OptimizeResult:
    """An :class:`OptimizeResult` reporting the seed state untouched."""
    return OptimizeResult(
        method=method,
        partition=partition,
        sigma_before=sigma,
        sigma_after=sigma,
        cuts_before=n_cuts,
        cuts_after=n_cuts,
        uncovered_before=uncovered,
        uncovered_after=uncovered,
        n_steps=n_steps,
        n_proposed=n_proposed,
        n_accepted=0,
        n_retimes=n_retimes,
    )
