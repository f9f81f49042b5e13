"""Solver-independent verification of a cut-retiming drop set.

:func:`verify_drop_set` checks a :class:`~repro.retiming.solve.RetimingSolution`
against the **cover** contract from the constraint system alone, without
re-running the solver — the oracle the fuzz ``solver`` check and the
benchmark's artifact checks apply to every solve:

* the retiming is legal (``w_ρ(e) ≥ 0`` on every edge);
* ``covered ⊎ dropped ⊎ unconstrained`` partitions the requested cut
  universe (no cut is lost, none double-counted);
* **cover** — every covered cut holds ≥ 1 register on *each* of its
  requirement edges under the solver's own lags;
* **minimal** (optional) — no dropped cut is already fully registered
  under the final lags (such a cut could be covered for free, so
  reporting it dropped would overstate the MUXed A_CELL cost).

The greedy drop loop of :mod:`repro.retiming.solve` keeps its
negative-cycle victims dropped even when the final lags incidentally
register them, so its callers pass ``minimal=False`` and accept the
(sound, conservative) victim set.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..graphs.digraph import CircuitGraph
from ..graphs.paths import WeightedEdge, register_weighted_edges
from .model import retimed_weight

__all__ = ["verify_drop_set"]


def verify_drop_set(
    graph: Optional[CircuitGraph],
    cut_nets: Iterable[str],
    solution,
    edges: Optional[Sequence[WeightedEdge]] = None,
    minimal: bool = True,
) -> Optional[str]:
    """Check ``solution`` against the legal-minimal-cover contract.

    Args:
        graph: circuit graph the solve ran on; may be ``None`` when
            ``edges`` is given (the weighted edge list fully determines
            the constraint system).
        cut_nets: the cut universe that was submitted to the solver.
        solution: a :class:`~repro.retiming.solve.RetimingSolution`.
        edges: precomputed ``register_weighted_edges(graph)`` to reuse
            (the warm-start hook shared with the solver).
        minimal: also require that no dropped cut is fully registered
            under the final lags.  Pass ``False`` for
            :func:`~repro.retiming.solve.solve_cut_retiming`, whose
            victim set is chosen mid-loop and deliberately kept.

    Returns:
        ``None`` when the contract holds, else a human-readable
        description of the first violation.
    """
    if edges is None:
        if graph is None:
            raise ValueError("verify_drop_set needs a graph or an edge list")
        edges = register_weighted_edges(graph)
    universe = set(cut_nets)
    covered = set(solution.covered_cuts)
    dropped = set(solution.dropped_cuts)
    unconstrained = set(solution.unconstrained_cuts)

    if covered | dropped | unconstrained != universe:
        return "covered/dropped/unconstrained do not partition the universe"
    overlap = (covered & dropped) | (covered & unconstrained) | (
        dropped & unconstrained
    )
    if overlap:
        return f"cut classes overlap on {sorted(overlap)[:4]}"

    try:
        solution.retiming.assert_legal()
    except Exception as exc:
        return f"retiming illegal: {exc}"

    rho = solution.retiming.rho
    # A cut's requirement edges are exactly the weighted edges whose
    # first via net is the cut — the same indexing rule the solver uses.
    fully_registered = {}  # dropped net → every requirement edge ≥ 1 so far
    for e in edges:
        net = e.via_nets[0]
        if net in covered:
            if retimed_weight(e, rho) < 1:
                return (
                    f"cut {net!r} claimed covered but edge "
                    f"{e.tail}->{e.head} holds no register"
                )
        elif net in dropped:
            ok = retimed_weight(e, rho) >= 1
            fully_registered[net] = fully_registered.get(net, True) and ok
        elif net in unconstrained:
            return (
                f"cut {net!r} claimed unconstrained but generates a "
                f"requirement on edge {e.tail}->{e.head}"
            )
    if minimal:
        free = sorted(n for n, sat in fully_registered.items() if sat)
        if free:
            return (
                f"drop set is not minimal: {free[:4]} already hold a "
                "register on every requirement edge under the final lags"
            )
    return None
