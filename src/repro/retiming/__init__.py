"""Legal retiming: algebra, feasibility solving, application, verification."""

from .model import (
    Retiming,
    illegal_edges,
    is_legal,
    retimed_path_registers,
    retimed_weight,
)
from .solve import (
    RetimingSolution,
    bellman_ford_constraints,
    solve_cut_retiming,
    solve_cut_retiming_reference,
)
from .verify import verify_drop_set
from .apply import RetimedCircuit, apply_retiming, trace_to_driver
from .legality import connection_deltas, infer_retiming, verify_retiming
from .initial_state import check_equivalence, find_equivalent_initial_state

__all__ = [
    "Retiming",
    "illegal_edges",
    "is_legal",
    "retimed_path_registers",
    "retimed_weight",
    "RetimingSolution",
    "bellman_ford_constraints",
    "solve_cut_retiming",
    "solve_cut_retiming_reference",
    "verify_drop_set",
    "RetimedCircuit",
    "apply_retiming",
    "trace_to_driver",
    "connection_deltas",
    "infer_retiming",
    "verify_retiming",
    "check_equivalence",
    "find_equivalent_initial_state",
]
