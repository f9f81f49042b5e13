"""Timing-aware greedy refinement — the cheap ``--optimize fast`` tier.

No RNG and no hill climbing: deterministic sweeps over the current cut
nets, trying for each the two relocations that could absorb the cut
(pull the source into a comb sink's cluster, or a comb sink into the
source's cluster) and keeping a move only when it *strictly* improves
``(Σ, |cuts|)`` lexicographically.  Illegal or non-improving moves are
undone through the engine, so the state after every sweep is legal
under Eq. 5/6 by construction.

*Timing-aware ordering*: cuts whose net lies inside an SCC are tried
first (smallest Eq. 6 slack first) — those sit on sequential feedback
cycles where an absorbed cut both frees scarce χ(λ) budget and removes
an A_CELL from the cycle's timing path; acyclic cuts follow in name
order.  The proposal budget comes from the same deterministic
:func:`~repro.optimize.refine.schedule_steps` calibration the annealer
uses, and the loop stops early once a full sweep keeps nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from ..config import MercedConfig
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.paths import WeightedEdge, register_weighted_edges
from ..graphs.scc import SCCIndex
from ..partition.clusters import Partition
from ..retiming.solve import solve_cut_retiming
from .engine import MoveEngine
from .refine import OptimizeResult, schedule_steps

__all__ = ["fast_refine"]


def fast_refine(
    graph: CircuitGraph,
    scc_index: SCCIndex,
    partition: Partition,
    config: MercedConfig,
    name: str = "",
    edges: Optional[Sequence[WeightedEdge]] = None,
    locked: Optional[Set[str]] = None,
    audit: bool = False,
) -> OptimizeResult:
    """Greedy cut-absorption sweeps; strictly improving moves only.

    Same signature as :func:`~repro.optimize.anneal.anneal_refine` so
    the dispatcher can treat the two variants interchangeably (``name``
    is unused — there is no RNG to seed).
    """
    del name  # no RNG in the fast tier
    if edges is None:
        edges = register_weighted_edges(graph)
    engine = MoveEngine(
        graph, scc_index, partition, beta=config.beta, locked=locked
    )

    sigma0 = engine.sigma
    cuts0 = engine.n_cuts
    solution = solve_cut_retiming(graph, engine.cut_nets(), edges=edges)
    uncovered0 = len(solution.dropped_cuts)
    n_retimes = 1
    max_proposals = schedule_steps(
        config.optimize_budget, len(engine.owner), cuts0
    )

    n_proposed = 0
    n_accepted = 0
    changed_since_retime = False
    while n_proposed < max_proposals:
        kept_this_sweep = 0
        for net_name in _sweep_order(engine, scc_index):
            if n_proposed >= max_proposals:
                break
            for node, to_cid in _absorption_moves(engine, graph, net_name):
                if n_proposed >= max_proposals:
                    break
                before = (engine.sigma, engine.n_cuts)
                record = engine.try_move(node, to_cid)
                n_proposed += 1
                if record is None:
                    continue
                after = (engine.sigma, engine.n_cuts)
                if after < before:
                    n_accepted += 1
                    kept_this_sweep += 1
                    changed_since_retime = changed_since_retime or bool(
                        record.flips
                    )
                    if audit:
                        engine.assert_consistent()
                    break  # cut handled; next cut
                engine.undo(record)
        if kept_this_sweep == 0:
            break

    if changed_since_retime:
        solution = solve_cut_retiming(graph, engine.cut_nets(), edges=edges)
        n_retimes += 1
    refined = engine.export_partition(scc_index=scc_index)
    return OptimizeResult(
        method="fast",
        partition=refined,
        sigma_before=sigma0,
        sigma_after=engine.sigma,
        cuts_before=cuts0,
        cuts_after=engine.n_cuts,
        uncovered_before=uncovered0,
        uncovered_after=len(solution.dropped_cuts),
        n_steps=max_proposals,
        n_proposed=n_proposed,
        n_accepted=n_accepted,
        n_retimes=n_retimes,
    )


def _sweep_order(engine: MoveEngine, scc_index: SCCIndex):
    """Current cuts, SCC-internal first by remaining Eq. 6 slack."""
    on_scc = []
    acyclic = []
    for net_name in engine.cut_nets():
        info = scc_index.scc_of_net(net_name)
        if info is None:
            acyclic.append(net_name)
        else:
            slack = engine.scc_budget[info.scc_id] - engine.scc_cuts.get(
                info.scc_id, 0
            )
            on_scc.append((slack, net_name))
    on_scc.sort()
    return [name for _slack, name in on_scc] + acyclic


def _absorption_moves(engine: MoveEngine, graph: CircuitGraph, net_name: str):
    """Candidate relocations that could make ``net_name`` internal."""
    if net_name not in engine.cut:  # absorbed by an earlier move
        return
    net = graph.net(net_name)
    src_cid = engine.owner.get(net.source)
    comb_sinks = sorted(
        s
        for s in net.sinks
        if graph.kind(s) is NodeKind.COMB
        and engine.owner.get(s) != src_cid
    )
    for sink in comb_sinks:
        yield net.source, engine.owner[sink]
    if src_cid is not None:
        for sink in comb_sinks:
            yield sink, src_cid
