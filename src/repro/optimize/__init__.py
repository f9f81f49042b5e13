"""Post-``Assign_CBIT`` partition refinement (``--optimize`` tier).

The greedy construction (:func:`repro.partition.assign_cbit`) is a
single forward pass: once a node lands in a cluster it never moves,
even when a later cluster could absorb it and delete a cut (plus its
A_CELL) or shrink a CBIT type.  This package revisits that result with
legality-preserving local search:

* :func:`fast_refine` — deterministic greedy cut-absorption sweeps,
  strictly improving moves only (cheap; no RNG);
* :func:`anneal_refine` — seeded simulated annealing over membership
  swaps and cut relocations with Metropolis acceptance on the total
  DFF-equivalent test area.

Both run on the :class:`MoveEngine`, which prechecks every proposal
against Eq. 5 (ι ≤ l_k) and the Eq. 6 per-SCC cut budgets and keeps
Σ (Eq. 4), the live cut set, and the per-SCC charges incrementally.
Accepted cut-set changes are re-retimed through the warm-started
solver so the uncovered-cut term is exact.  The returned partition is
guaranteed ``Σ ≤ Σ_greedy`` (the seed is the fallback).

Entry point: :func:`optimize_partition`, dispatching on
``config.optimize`` (``"fast"`` / ``"anneal"``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from ..config import ConfigError, MercedConfig
from ..graphs.digraph import CircuitGraph
from ..graphs.paths import WeightedEdge, register_weighted_edges
from ..graphs.scc import SCCIndex
from ..partition.clusters import Partition
from .anneal import anneal_refine
from .engine import MoveEngine, MoveRecord
from .fast import fast_refine
from .refine import (
    ACELL_DFF,
    MUX_PREMIUM_DFF,
    OptimizeResult,
    refine_cost,
    schedule_steps,
)

__all__ = [
    "ACELL_DFF",
    "MUX_PREMIUM_DFF",
    "MoveEngine",
    "MoveRecord",
    "OptimizeResult",
    "anneal_refine",
    "fast_refine",
    "optimize_partition",
    "refine_cost",
    "schedule_steps",
]

_VARIANTS = {"fast": fast_refine, "anneal": anneal_refine}


def optimize_partition(
    graph: CircuitGraph,
    scc_index: SCCIndex,
    partition: Partition,
    config: MercedConfig,
    name: str = "",
    edges: Optional[Sequence[WeightedEdge]] = None,
    locked: Optional[Set[str]] = None,
    audit: bool = False,
) -> OptimizeResult:
    """Run the refinement variant selected by ``config.optimize``.

    Raises:
        ConfigError: ``config.optimize`` is ``None`` or unknown — the
            caller should gate on ``config.optimize`` before calling.
    """
    variant = _VARIANTS.get(config.optimize or "")
    if variant is None:
        raise ConfigError(
            f"optimize_partition called with config.optimize="
            f"{config.optimize!r}; expected one of {sorted(_VARIANTS)}"
        )
    if edges is None:
        edges = register_weighted_edges(graph)
    return variant(
        graph,
        scc_index,
        partition,
        config,
        name=name,
        edges=edges,
        locked=locked,
        audit=audit,
    )
