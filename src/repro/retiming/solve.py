"""Retiming feasibility solver for cut-net register placement.

Given the cut nets chosen by the partitioner, we want a legal retiming
that leaves **at least one register on every cut net** (so the A_CELL can
be built from a functional DFF instead of a fresh register + MUX).

Each requirement ``w_ρ(e) ≥ r(e)`` with ``w_ρ(e) = w(e) + ρ(head) − ρ(tail)``
is the difference constraint ``ρ(tail) − ρ(head) ≤ w(e) − r(e)``, solvable
by Bellman–Ford on the constraint graph; a negative cycle certifies
infeasibility, and — by Corollary 2 — negative cycles appear exactly when
some circuit cycle is asked to hold more registers than it owns
(``χ(λ) > f(λ)``).  When that happens the solver drops requirements on
the offending cycle one at a time (those cuts keep their MUXed A_CELLs)
until the system is feasible.

The compiled solve path interns the constraint graph to integer arrays
once and treats the round loop as an *incremental* sequence of solves:

* **Cycle-deficit certificate.**  Dropping a victim raises the cost of
  its edges by exactly 1, so the total cost of the previous round's
  negative cycle is trivially maintained across the drop.  While that
  sum stays negative the same cycle is still negative in the new system
  — the round is provably infeasible and the solver skips the
  feasibility attempt entirely, going straight to the canonical replay.
  On the BENCH circuits almost every round is certified this way, which
  removes the dominant cost of the old loop (a full budget-tripping
  feasibility attempt per infeasible round).
* **Vectorized relaxation sweeps.**  When feasibility is genuinely in
  question the round is solved by numpy Jacobi sweeps over the interned
  ``con_u``/``con_v`` arrays (:func:`_jacobi_feasible`); initialising
  every variable to 0 makes the fixed point the shortest-path tree from
  an implicit super-source, which is unique — so the feasible
  assignment is bit-identical to :func:`bellman_ford_constraints`
  regardless of relaxation order.
* **Canonical replay with in-history fast-forward.**  Infeasible (or
  capped) rounds are resolved by :func:`_bf_rounds`, an interned replay
  of the reference Bellman–Ford that fires the same updates in the same
  order but fast-forwards analytically through the periodic tail — so
  the *canonical* negative cycle (and hence the dropped-cut choice) is
  unchanged, without simulating every dense pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import RetimingError
from ..graphs.digraph import CircuitGraph
from ..graphs.paths import WeightedEdge, register_weighted_edges
from ..perf import count as perf_count
from .model import Retiming, retimed_weight

__all__ = [
    "RetimingSolution",
    "solve_cut_retiming",
    "solve_cut_retiming_reference",
    "bellman_ford_constraints",
]

#: Passes of firing history the replay retains for periodicity detection.
#: Bounds memory on huge SCCs; periods observed on the BENCH circuits are
#: dozens of passes, far below the cap.
_RING_LIMIT = 1024


@dataclass
class RetimingSolution:
    """Result of :func:`solve_cut_retiming`.

    ``covered_cuts`` are cut nets the solved retiming *guarantees* a
    register on; ``dropped_cuts`` sat on register-starved cycles and
    keep their MUXed A_CELLs; ``unconstrained_cuts`` never generated a
    constraint at all (their net heads no register-weighted edge — e.g.
    dangling or mid-via-only nets), so the solver neither covered nor
    dropped them.  They were historically folded into ``covered_cuts``,
    inflating :attr:`coverage`; they are now reported separately.
    """

    retiming: Retiming
    covered_cuts: Set[str]  # cut nets guaranteed a register (A_CELL at 0.9)
    dropped_cuts: Set[str]  # cut nets needing MUXed A_CELLs (2.3)
    iterations: int
    unconstrained_cuts: Set[str] = field(default_factory=set)

    @property
    def coverage(self) -> float:
        """Fraction of *constrained* cuts the retiming covers."""
        total = len(self.covered_cuts) + len(self.dropped_cuts)
        return len(self.covered_cuts) / total if total else 1.0


def bellman_ford_constraints(
    nodes: Sequence[str],
    constraints: Sequence[Tuple[str, str, int]],
) -> Tuple[Optional[Dict[str, int]], Optional[List[int]]]:
    """Solve ``x_u − x_v ≤ c`` difference constraints.

    Args:
        nodes: all variables.
        constraints: triples ``(u, v, c)`` meaning ``x_u − x_v ≤ c``
            (a constraint-graph edge ``v → u`` of weight ``c``).

    Returns:
        ``(solution, None)`` on feasibility (a minimal-violation-free
        assignment), or ``(None, cycle_constraint_indices)`` where the
        indices identify constraints on one negative cycle.
    """
    dist: Dict[str, int] = {n: 0 for n in nodes}
    if not constraints:
        return dist, None
    pred: Dict[str, Optional[int]] = {n: None for n in nodes}  # constraint idx
    n = len(nodes)
    updated_node: Optional[str] = None
    for it in range(n):
        updated_node = None
        for idx, (u, v, c) in enumerate(constraints):
            if dist[v] + c < dist[u]:
                dist[u] = dist[v] + c
                pred[u] = idx
                updated_node = u
        if updated_node is None:
            return dist, None
    # negative cycle: walk predecessors n times to land on the cycle
    node = updated_node
    for _ in range(n):
        idx = pred[node]
        assert idx is not None
        node = constraints[idx][1]
    cycle: List[int] = []
    start = node
    while True:
        idx = pred[node]
        assert idx is not None
        cycle.append(idx)
        node = constraints[idx][1]
        if node == start:
            break
    return None, cycle


def _jacobi_prep(con_u: List[int]):
    """Precompute the segmented-minimum layout for :func:`_jacobi_feasible`.

    Sorts constraints by target node once per solve; the per-round sweep
    then reduces each target's candidate bounds with one
    ``minimum.reduceat``.  Returns ``None`` when there are no
    constraints.
    """
    if not con_u:
        return None
    cu = np.asarray(con_u, dtype=np.int64)
    order = np.argsort(cu, kind="stable")
    cu_ord = cu[order]
    seg_nodes, seg_starts = np.unique(cu_ord, return_index=True)
    return order, seg_nodes, seg_starts


def _jacobi_feasible(
    n: int,
    con_v: List[int],
    cost: List[int],
    prep,
    max_sweeps: int,
) -> Tuple[Optional[List[int]], int]:
    """Vectorized Jacobi sweeps over the interned constraint arrays.

    Each sweep computes every constraint's bound ``dist[v] + c`` in one
    shot and lowers each target to the minimum of its incoming bounds
    (``minimum.reduceat`` over the target-sorted layout from
    :func:`_jacobi_prep`).  A sweep with no change is a fixed point —
    all constraints satisfied — and the all-zero-start fixed point of a
    difference-constraint system is unique, so the result is
    bit-identical to :func:`bellman_ford_constraints` on feasible
    systems.  Feasible systems converge within ``n`` sweeps (shortest
    paths have < ``n`` hops); returns ``(None, relaxations)`` when
    ``max_sweeps`` is exhausted — the caller resolves those rounds
    exactly with :func:`_bf_rounds`, so a tight cap costs time on deep
    feasible systems, never correctness.
    """
    order, seg_nodes, seg_starts = prep
    cv_ord = np.asarray(con_v, dtype=np.int64)[order]
    cost_ord = np.asarray(cost, dtype=np.int64)[order]
    dist = np.zeros(n, dtype=np.int64)
    relaxations = 0
    for _ in range(max_sweeps):
        bounds = dist[cv_ord] + cost_ord
        mins = np.minimum.reduceat(bounds, seg_starts)
        old = dist[seg_nodes]
        new = np.minimum(old, mins)
        if np.array_equal(new, old):
            return [int(x) for x in dist], relaxations
        relaxations += int(np.count_nonzero(new < old))
        dist[seg_nodes] = new
    return None, relaxations


def _bf_rounds(
    n: int,
    con_u: List[int],
    con_v: List[int],
    cost: List[int],
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """Interned replay of :func:`bellman_ford_constraints`.

    Runs the reference's dense Gauss–Seidel passes on integer arrays —
    same constraint order, same in-pass updates, so ``dist``/``pred``
    evolve identically — but *fast-forwards* through the periodic tail
    that dominates infeasible systems.  Once negative cycles are the
    only thing still relaxing, the firing pattern repeats with some
    period ``P`` (set by how the relaxation wavefront rotates around the
    starved cycles) and every ``dist`` shifts by a constant per-period
    delta.

    Every pass appends its firing sequence and firing deltas to a
    history ring, so when a sequence hash recurs ``P`` passes later the
    replay verifies periodicity *immediately from history* — the two
    most recent periods must fire identical sequences and produce
    identical per-node deltas — instead of simulating 2·``P`` further
    recording passes the way earlier revisions did.  Every scan-time
    value is an affine function (unit coefficient) of the period-start
    ``dist``, so all margins move linearly per period: the replay caps
    the jump at the first period where any margin would change firing
    sign and advances ``dist`` analytically by whole periods.  Fired
    margins come straight from the ring; idle constraints are screened
    by their per-period drift (``Δdist[v] − Δdist[u]``, almost always
    ≥ 0) and only the drifting-negative few have their exact scan-time
    margins reconstructed by replaying one period of firing events.
    ``pred`` and the last-updated node are unchanged across jumped
    periods because every one of them fires the recorded pattern.  The
    final ``pred`` state, the canonical negative cycle walked from it,
    and any feasible assignment are therefore bit-identical to the
    reference without simulating all ``n`` passes.

    ``counters`` (optional) accumulates ``"firings"`` and ``"jumps"``
    for perf accounting.
    """
    m = len(cost)
    dist = [0] * n
    pred = [-1] * n
    updated = -1
    it = 0
    # (v, c, u, idx) per constraint: one flat tuple unpack per scan beats
    # indexed array reads (and enumerate's nested unpack) in the pass
    # loop, which dominates runtime
    quads = list(zip(con_v, cost, con_u, range(m)))
    seq_ring: List[List[int]] = []  # firing index list per retained pass
    mg_ring: List[List[int]] = []  # firing deltas, aligned with seq_ring
    base = 1  # pass number of seq_ring[0]; passes are numbered from 1
    last_seen: Dict[int, int] = {}  # firing-sequence hash → latest pass
    next_try = 0  # skip re-verification until this pass after a miss
    firings = 0
    jumps = 0
    skipped = 0  # passes fast-forwarded rather than simulated
    tracking = True  # ring bookkeeping; disabled when jumping stops paying
    while it < n:
        if tracking and it > n // 2 and jumps == 0:
            # quasi-periodic tail (many interacting cycles, no exact
            # recurrence): drop the per-firing history bookkeeping and
            # finish with bare reference passes
            tracking = False
            seq_ring.clear()
            mg_ring.clear()
            last_seen.clear()
        if not tracking:
            updated = -1
            nfire = 0
            for v, c, u, idx in quads:
                nv = dist[v] + c
                if nv < dist[u]:
                    dist[u] = nv
                    pred[u] = idx
                    nfire += 1
                    updated = u
            it += 1
            if updated < 0:
                if counters is not None:
                    counters["firings"] = counters.get("firings", 0) + firings
                    counters["jumps"] = counters.get("jumps", 0) + jumps
                    counters["passes"] = (
                        counters.get("passes", 0) + (it - skipped)
                    )
                return dist, None
            firings += nfire
            continue
        seq: List[int] = []
        mgs: List[int] = []
        fire = seq.append
        dmg = mgs.append
        updated = -1
        for v, c, u, idx in quads:
            nv = dist[v] + c
            if nv < dist[u]:
                dmg(nv - dist[u])
                dist[u] = nv
                pred[u] = idx
                fire(idx)
                updated = u
        it += 1
        if updated < 0:
            if counters is not None:
                counters["firings"] = counters.get("firings", 0) + firings
                counters["jumps"] = counters.get("jumps", 0) + jumps
                counters["passes"] = counters.get("passes", 0) + (it - skipped)
            return dist, None
        firings += len(seq)
        if len(seq_ring) >= _RING_LIMIT:
            del seq_ring[: _RING_LIMIT // 4]
            del mg_ring[: _RING_LIMIT // 4]
            base += _RING_LIMIT // 4
        seq_ring.append(seq)
        mg_ring.append(mgs)
        h = hash(tuple(seq))
        prev = last_seen.get(h, 0)
        last_seen[h] = it
        if prev < base:
            continue
        period = it - prev
        top = len(seq_ring)  # ring index of pass ``it`` is top − 1
        if 2 * period > top:
            continue  # need two full periods of retained history
        if n - it <= period or it < next_try:
            continue  # nothing worth jumping, or cooling down after a miss
        # verify exact repetition: passes (it−2P, it−P] vs (it−P, it]
        ok = True
        for o in range(1, period + 1):
            if seq_ring[top - o] != seq_ring[top - period - o]:
                ok = False
                break
        if not ok:
            continue  # transient still in window; recurrences keep coming
        delta: Dict[int, int] = {}  # per-node dist delta over last period
        for q in range(top - period, top):
            sq = seq_ring[q]
            mq = mg_ring[q]
            for j in range(len(sq)):
                u = con_u[sq[j]]
                delta[u] = delta.get(u, 0) + mq[j]
        prev_delta: Dict[int, int] = {}
        for q in range(top - 2 * period, top - period):
            sq = seq_ring[q]
            mq = mg_ring[q]
            for j in range(len(sq)):
                u = con_u[sq[j]]
                prev_delta[u] = prev_delta.get(u, 0) + mq[j]
        if delta != prev_delta:
            next_try = it + period
            continue
        # margins move linearly per period: jump whole periods to just
        # before the first firing-sign flip (or to pass n)
        t = (n - it) // period
        # (A) fired constraints: ring margins, aligned by the verified
        # identical sequences; a rising margin stops firing at mg+t·d ≥ 0
        for o in range(1, period + 1):
            if t <= 0:
                break
            lm = mg_ring[top - o]
            pm = mg_ring[top - period - o]
            if lm == pm:  # C-speed: no fired margin moved at this offset
                continue
            for mg, p in zip(lm, pm):
                if mg > p:
                    safe = (-mg - 1) // (mg - p)
                    if safe < t:
                        t = safe
        # (B) idle constraints: only those whose margin drifts negative
        # (delta[v] − delta[u] < 0) can start firing; reconstruct their
        # exact scan-time margins by replaying the period's firing events
        if t > 0 and delta:
            cands: List[Tuple[int, int]] = []
            for j in range(m):
                d = delta.get(con_v[j], 0) - delta.get(con_u[j], 0)
                if d < 0:
                    cands.append((j, d))
            if cands:
                t = _idle_flip_cap(
                    t, period, top, seq_ring, mg_ring,
                    dist, delta, cands, con_u, con_v, cost,
                )
        if t > 0:
            for x, d in delta.items():
                dist[x] += t * d
            it += t * period
            skipped += t * period
            jumps += 1
            seq_ring.clear()
            mg_ring.clear()
            base = it + 1
            last_seen.clear()
            next_try = 0
        else:
            next_try = it + period
    # negative cycle: walk predecessors n times to land on the cycle
    if counters is not None:
        counters["firings"] = counters.get("firings", 0) + firings
        counters["jumps"] = counters.get("jumps", 0) + jumps
        counters["passes"] = counters.get("passes", 0) + (it - skipped)
    node = updated
    for _ in range(n):
        node = con_v[pred[node]]
    cycle: List[int] = []
    start_node = node
    while True:
        idx = pred[node]
        cycle.append(idx)
        node = con_v[idx]
        if node == start_node:
            break
    return None, cycle


def _idle_flip_cap(
    t: int,
    period: int,
    top: int,
    seq_ring: List[List[int]],
    mg_ring: List[List[int]],
    dist: List[int],
    delta: Dict[int, int],
    cands: List[Tuple[int, int]],
    con_u: List[int],
    con_v: List[int],
    cost: List[int],
) -> int:
    """Cap the period jump at the first idle-constraint sign flip.

    ``cands`` holds ``(constraint, drift)`` pairs with negative
    per-period margin drift.  Walks the last period's passes once,
    merging the (index-ordered) firing events with the (index-ordered)
    candidates, so each candidate's *scan-time* margin — the value the
    dense reference would have computed mid-pass — is reconstructed
    exactly.  An idle margin ``mg ≥ 0`` drifting by ``d < 0`` per period
    first fires after ``mg // (−d)`` more periods.  Only nodes in
    ``delta`` ever move during a verified period, so all other operands
    read the (end-of-period) ``dist`` directly.
    """
    cur = {x: dist[x] - d for x, d in delta.items()}  # period-start values
    for q in range(top - period, top):
        fired = seq_ring[q]
        margins = mg_ring[q]
        fired_set = set(fired)
        ei = 0
        ne = len(fired)
        for j, d in cands:
            while ei < ne and fired[ei] < j:
                u = con_u[fired[ei]]
                cur[u] = cur[u] + margins[ei]
                ei += 1
            if j in fired_set:
                continue  # fired offsets are handled from the ring
            v = con_v[j]
            u = con_u[j]
            mg = (
                (cur[v] if v in cur else dist[v])
                + cost[j]
                - (cur[u] if u in cur else dist[u])
            )
            safe = mg // (-d)
            if safe < t:
                t = safe
                if t <= 0:
                    return 0
        while ei < ne:
            u = con_u[fired[ei]]
            cur[u] = cur[u] + margins[ei]
            ei += 1
    return t


def solve_cut_retiming(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    max_iterations: int = 100000,
    pin_io: bool = False,
    use_compiled: bool = True,
) -> RetimingSolution:
    """Find a legal retiming registering as many cut nets as possible.

    Args:
        graph: the circuit graph (used to collapse registers into edge
            weights unless ``edges`` is given).
        cut_nets: nets that should carry a register after retiming.
        edges: precomputed register-weighted edges (performance hook).
        pin_io: force every primary input and virtual PO sink to share one
            lag (the Leiserson–Saxe host condition), so the retimed
            circuit is cycle-accurate I/O equivalent to the original.
            The paper's accounting leaves this off — it accepts latency
            shifts on input/output paths in exchange for covering more
            cuts (Eq. 1 "registers can be added arbitrarily").
        use_compiled: solve each round over the interned edge arrays with
            certificate-skipped warm-started rounds (default); ``False``
            runs the reference dense Bellman–Ford every round.  Results
            (lags, covered/dropped cuts, iteration count) are
            bit-identical.

    Returns:
        A :class:`RetimingSolution`; its ``retiming`` is legal, every
        edge carrying a covered cut holds ≥ 1 register, and dropped cuts
        are exactly those whose requirements sat on register-starved (or,
        with ``pin_io``, latency-pinned) paths.  Cut nets that never
        generate a constraint are reported in ``unconstrained_cuts``.
    """
    from ..graphs.build import is_po_node

    if edges is None:
        edges = register_weighted_edges(graph)
    cut_set = set(cut_nets)
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    io_constraints: List[Tuple[str, str, int]] = []
    if pin_io:
        host = "__host__"
        while host in nodes:  # pragma: no cover - pathological name clash
            host += "_"
        nodes.append(host)
        from ..graphs.digraph import NodeKind

        for n in nodes[:-1]:
            is_io = is_po_node(n) or (
                graph.has_node(n) and graph.kind(n) is NodeKind.INPUT
            )
            if is_io:
                io_constraints.append((n, host, 0))
                io_constraints.append((host, n, 0))

    # requirement per edge: 1 when the edge's first via-net is a cut
    required: Dict[int, int] = {}
    cut_edges: Dict[str, List[int]] = {}
    for i, e in enumerate(edges):
        first = e.via_nets[0]
        if first in cut_set:
            required[i] = 1
            cut_edges.setdefault(first, []).append(i)

    # interned constraint graph, built once: tails/heads are fixed across
    # rounds, only the per-edge costs change when a requirement is dropped
    n_vars = len(nodes)
    node_idx = {name: i for i, name in enumerate(nodes)}
    con_u: List[int] = []  # constraint target (the u of x_u − x_v ≤ c)
    con_v: List[int] = []  # constraint relax source
    for e in edges:
        con_u.append(node_idx[e.tail])
        con_v.append(node_idx[e.head])
    for u, v, _c in io_constraints:
        con_u.append(node_idx[u])
        con_v.append(node_idx[v])
    io_costs = [c for _u, _v, c in io_constraints]

    # incremental cost array: rebuilt never, bumped by 1 per dropped edge
    cost = [e.weight - required.get(i, 0) for i, e in enumerate(edges)]
    cost += io_costs
    jprep = _jacobi_prep(con_u) if use_compiled else None
    jacobi_cap = min(n_vars + 1, 257)

    dropped: Set[str] = set()
    iterations = 0
    total_relaxations = 0
    cert_skips = 0
    skip_feasible = False  # certificate: last cycle still provably negative
    replay_counters: Dict[str, int] = {"firings": 0, "jumps": 0}
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise RetimingError(
                f"cut-retiming failed to converge after {iterations - 1} "
                f"rounds: {len(dropped)} cuts dropped so far, "
                f"{len(required)} edge requirements remaining"
            )
        if use_compiled:
            dist = None
            if jprep is None:
                # no constraints at all: every lag stays 0
                rho = dict.fromkeys(nodes, 0)
                break
            if skip_feasible:
                cert_skips += 1
            else:
                dist, relaxations = _jacobi_feasible(
                    n_vars, con_v, cost, jprep, jacobi_cap
                )
                total_relaxations += relaxations
                if dist is not None:
                    rho = dict(zip(nodes, dist))
                    break
            # infeasible (certified or suspected): re-derive the
            # *canonical* negative cycle via the sparse reference replay,
            # so the victim choice matches bellman_ford_constraints
            # exactly; if a feasibility cap tripped on a feasible system
            # the replay's assignment is that same unique fixed point
            dist, cycle = _bf_rounds(
                n_vars, con_u, con_v, cost, counters=replay_counters
            )
            if dist is not None:
                rho = dict(zip(nodes, dist))
                break
        else:
            constraints = [
                (e.tail, e.head, e.weight - required.get(i, 0))
                for i, e in enumerate(edges)
            ] + io_constraints
            solution, cycle = bellman_ford_constraints(nodes, constraints)
            if solution is not None:
                rho = solution
                break
        # drop one required cut on the offending cycle
        req_on_cycle = [i for i in cycle if required.get(i, 0) > 0]
        if not req_on_cycle:
            raise RetimingError(
                "negative cycle without register requirements: the circuit "
                "has a combinational cycle or inconsistent edge weights"
            )
        victim_edge = req_on_cycle[0]
        victim_net = edges[victim_edge].via_nets[0]
        dropped.add(victim_net)
        victims = [i for i in cut_edges.get(victim_net, ()) if i in required]
        if use_compiled:
            # cycle-deficit certificate: the drop raises each victim
            # edge's cost by 1, so the cycle's new total is its old total
            # plus the overlap — still negative means the next round is
            # provably infeasible and can skip the feasibility attempt
            deficit = sum(cost[i] for i in cycle)
            cyc_set = set(cycle)
            deficit += sum(1 for i in victims if i in cyc_set)
            skip_feasible = deficit < 0
            for i in victims:
                cost[i] += 1
        for i in victims:
            required.pop(i, None)

    total_relaxations += replay_counters["firings"]
    perf_count("bf_relaxations", total_relaxations)
    perf_count("retiming_rounds", iterations)
    perf_count("retiming_cert_skips", cert_skips)
    perf_count("retiming_replay_jumps", replay_counters["jumps"])
    retiming = Retiming(edges=tuple(edges), rho=rho)
    retiming.assert_legal()
    covered: Set[str] = set()
    for net, idxs in cut_edges.items():
        if net in dropped:
            continue
        if all(retimed_weight(edges[i], rho) >= 1 for i in idxs):
            covered.add(net)
        else:  # pragma: no cover - defensive; solver should guarantee this
            dropped.add(net)
    # cuts whose net never appears as a via head (e.g. dangling) generated
    # no constraint: neither covered nor dropped — reported separately
    unconstrained = cut_set - covered - dropped
    return RetimingSolution(
        retiming=retiming,
        covered_cuts=covered,
        dropped_cuts=dropped,
        iterations=iterations,
        unconstrained_cuts=unconstrained,
    )


def solve_cut_retiming_reference(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    max_iterations: int = 100000,
    pin_io: bool = False,
) -> RetimingSolution:
    """Reference twin of :func:`solve_cut_retiming`.

    Solves every round with the dense :func:`bellman_ford_constraints`
    instead of the certificate-skipped incremental rounds; results are
    bit-identical (the kernel-equivalence suite asserts this end to end).
    """
    return solve_cut_retiming(
        graph,
        cut_nets,
        edges=edges,
        max_iterations=max_iterations,
        pin_io=pin_io,
        use_compiled=False,
    )
