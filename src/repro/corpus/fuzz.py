"""Differential fuzzing across the whole Merced pipeline.

The repo carries several pairs of implementations that claim agreement:

* compiled CSR kernels (Tarjan, ``Make_Set``, ``make_group``,
  ``assign_cbit``, Jacobi retiming) vs their ``*_reference``
  twins — **bit-identical** by contract;
* the cut-retiming solver's drop set vs the independent
  :func:`~repro.retiming.verify.verify_drop_set` oracle — legal lags,
  covered ⊎ dropped ⊎ unconstrained is the requested cut universe, and
  every covered cut actually registered;
* ``merced serve`` vs an inline :class:`~repro.core.merced.Merced` run —
  **byte-identical payloads** (the service is a transport, not a
  different compiler).

This module turns those contracts into a continuous fuzz loop over
random :class:`~repro.corpus.spec.CorpusSpec` circuits.  Any mismatch is
shrunk to a minimal failing spec by greedy knob reduction (each
candidate is regenerated and re-checked — specs, not netlists, are the
shrink unit, so reproducers stay valid as the generator evolves) and
archived as a ``.bench`` file plus a JSON sidecar with the spec and the
mismatch description.  ``scripts/fuzz_differential.py`` is the CLI
driver; ``tests/corpus/test_fuzz.py`` pins the harness itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import MercedConfig
from ..graphs import (
    SCCIndex,
    build_circuit_graph,
    strongly_connected_components,
    strongly_connected_components_reference,
)
from ..graphs.paths import register_weighted_edges
from ..netlist.bench import write_bench
from ..netlist.netlist import Netlist
from ..partition import assign_cbit, make_group
from ..partition.assign_cbit import assign_cbit_reference
from ..retiming.solve import solve_cut_retiming, solve_cut_retiming_reference
from .spec import CorpusSpec
from .topology import generate_corpus_circuit

__all__ = [
    "CHECKS",
    "FuzzReport",
    "Mismatch",
    "check_pipeline",
    "check_scc",
    "check_service",
    "check_solvers",
    "pipeline_fingerprint",
    "random_spec",
    "run_fuzz",
    "shrink_spec",
]

#: Check names in the order one fuzz round runs them.  ``service`` is
#: opt-in (needs a live ``merced serve`` thread).
CHECKS: Tuple[str, ...] = ("scc", "pipeline", "solver", "service")


# ---------------------------------------------------------------------------
# fingerprints and checks — each returns None (agree) or a description
# ---------------------------------------------------------------------------
def pipeline_fingerprint(
    netlist: Netlist,
    lk: int = 16,
    beta: int = 1,
    use_compiled: bool = True,
    seed: int = 1996,
) -> Dict[str, object]:
    """Canonical observable state of one make_group → assign_cbit →
    solve_cut_retiming run.

    Every field is order-normalized, so two fingerprints compare with
    ``==`` key by key.  The compiled and reference paths must produce
    *identical* fingerprints — that is the bit-identity contract the
    kernel equivalence tests and the fuzzer both enforce.
    """
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(seed=seed, lk=lk, beta=beta, min_visit=5)
    group = make_group(
        graph, scc_index, config, strict=False, use_compiled=use_compiled
    )
    if use_compiled:
        merged = assign_cbit(group.partition)
        cuts = merged.partition.cut_nets()
        solution = solve_cut_retiming(graph, cuts)
    else:
        merged = assign_cbit_reference(group.partition)
        cuts = merged.partition.cut_nets()
        solution = solve_cut_retiming_reference(graph, cuts)
    return {
        "n_splits": group.n_splits,
        "cut": sorted(group.cut_state.cut),
        "forced": sorted(group.cut_state.forced),
        "budget_exhaustions": group.cut_state.budget_exhaustions,
        "infeasible": [
            tuple(sorted(c.nodes)) for c in group.infeasible_clusters
        ],
        "clusters": [
            (c.cluster_id, tuple(sorted(c.nodes)), tuple(sorted(c.input_nets)))
            for c in group.partition.clusters
        ],
        "merged": [
            (c.cluster_id, tuple(sorted(c.nodes)), tuple(sorted(c.input_nets)))
            for c in merged.partition.clusters
        ],
        "cost_dff": merged.cost_dff,
        "n_merges": merged.n_merges,
        "cut_nets": cuts,
        "rho": solution.retiming.rho,
        "covered": sorted(solution.covered_cuts),
        "dropped": sorted(solution.dropped_cuts),
        "unconstrained": sorted(solution.unconstrained_cuts),
        "iterations": solution.iterations,
    }


def check_scc(netlist: Netlist) -> Optional[str]:
    """Compiled Tarjan vs string-keyed reference: same comps, same order."""
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    compiled = strongly_connected_components(graph)
    reference = strongly_connected_components_reference(graph)
    if compiled != reference:
        return (
            f"SCC divergence: compiled {len(compiled)} comps, "
            f"reference {len(reference)} comps"
        )
    return None


def check_pipeline(
    netlist: Netlist, lk: int = 16, beta: int = 1
) -> Optional[str]:
    """Compiled vs reference full pipeline: bit-identical fingerprints."""
    compiled = pipeline_fingerprint(netlist, lk, beta, use_compiled=True)
    reference = pipeline_fingerprint(netlist, lk, beta, use_compiled=False)
    for key in compiled:
        if compiled[key] != reference[key]:
            return f"pipeline field {key!r} diverges"
    return None


def check_solvers(
    netlist: Netlist, lk: int = 16, beta: int = 1
) -> Optional[str]:
    """Cut-retiming drop set vs the :func:`verify_drop_set` oracle.

    The solver's solution must satisfy the cover contract of
    :func:`repro.retiming.verify.verify_drop_set`: legal lags, the
    three-way covered/dropped/unconstrained split partitions the cut
    universe, and every covered cut is registered on all of its
    requirement edges.  Minimality is not demanded (``minimal=False``):
    the greedy loop keeps its negative-cycle victims dropped even when
    the final lags happen to register them.
    """
    from ..retiming.verify import verify_drop_set

    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(seed=1996, lk=lk, beta=beta, min_visit=5)
    group = make_group(graph, scc_index, config, strict=False)
    cuts = assign_cbit(group.partition).partition.cut_nets()
    edges = register_weighted_edges(graph)

    solution = solve_cut_retiming(graph, cuts, edges=edges)
    return verify_drop_set(graph, cuts, solution, edges=edges, minimal=False)


def check_service(
    netlist: Netlist,
    client,
    lk: int = 16,
    beta: int = 1,
    seed: int = 1996,
) -> Optional[str]:
    """Service vs inline ``Merced.run``: byte-identical payload JSON.

    The agreement contract covers *failures* too: a circuit the strict
    pipeline rejects (e.g. an SCC-welded cluster over ``l_k``) must be
    rejected identically — inline raise and degraded service row with
    the same exception type — not compiled by one side only.
    """
    from ..core.merced import Merced
    from ..errors import ReproError
    from ..exec.task import merced_payload

    config = MercedConfig(seed=seed, lk=lk, beta=beta)
    inline = None
    inline_error: Optional[str] = None
    try:
        inline = merced_payload(Merced(config).run(netlist.copy()))
    except ReproError as exc:
        inline_error = type(exc).__name__
    row = client.compile_point(
        circuit=netlist.name,
        bench=write_bench(netlist),
        lk=lk,
        beta=beta,
        seed=seed,
    )
    if not row.get("ok"):
        if inline_error is None:
            return (
                f"service degraded ({row.get('error_type')!r}) but the "
                "inline run compiled"
            )
        if row.get("error_type") != inline_error:
            return (
                f"divergent failures: inline {inline_error}, "
                f"service {row.get('error_type')!r}"
            )
        return None
    if inline_error is not None:
        return f"inline run raised {inline_error} but the service compiled"
    a = json.dumps(inline, sort_keys=True)
    b = json.dumps(row["value"], sort_keys=True)
    if a != b:
        keys = [
            k
            for k in inline
            if json.dumps(inline[k]) != json.dumps(row["value"].get(k))
        ]
        return f"service payload differs from inline run: fields {keys}"
    return None


# ---------------------------------------------------------------------------
# random specs and shrinking
# ---------------------------------------------------------------------------
def random_spec(
    rng: random.Random, round_index: int, max_gates: int = 640
) -> CorpusSpec:
    """Draw one fuzz spec; every knob region gets regular traffic."""
    n_gates = rng.randrange(48, max(64, max_gates))
    return CorpusSpec(
        name=f"fuzz-{round_index}",
        seed=rng.randrange(1, 2**31),
        n_gates=n_gates,
        register_density=rng.uniform(0.02, 0.2),
        scc_register_fraction=rng.choice([0.0, 0.2, 0.4, 0.6]),
        scc_depth=rng.randrange(1, 5),
        max_ring_size=rng.randrange(1, 7),
        chord_prob=rng.choice([0.0, 0.15, 0.4]),
        scc_coupling=rng.choice([0.0, 0.1, 0.3]),
        inverter_fraction=rng.uniform(0.0, 0.15),
        fanout_hub_fraction=rng.uniform(0.0, 0.02),
        fanout_hub_bias=rng.uniform(0.0, 0.35),
        recency_bias=rng.uniform(0.3, 0.9),
        fanin3_prob=rng.uniform(0.0, 0.4),
        n_stages=rng.randrange(2, 7),
    )


#: Knob-reduction moves tried (in order) by :func:`shrink_spec`.  Each
#: maps a spec to a strictly "smaller" candidate, or None when already
#: minimal along that axis.
_SHRINK_MOVES: Sequence[Callable[[CorpusSpec], Optional[CorpusSpec]]] = (
    lambda s: s.with_(n_gates=s.n_gates // 2) if s.n_gates >= 96 else None,
    lambda s: s.with_(n_gates=s.n_gates - 16) if s.n_gates >= 64 else None,
    lambda s: s.with_(scc_coupling=0.0) if s.scc_coupling else None,
    lambda s: s.with_(chord_prob=0.0) if s.chord_prob else None,
    lambda s: s.with_(fanout_hub_bias=0.0) if s.fanout_hub_bias else None,
    lambda s: s.with_(scc_register_fraction=0.0)
    if s.scc_register_fraction
    else None,
    lambda s: s.with_(scc_depth=1) if s.scc_depth > 1 else None,
    lambda s: s.with_(max_ring_size=s.max_ring_size - 1)
    if s.max_ring_size > 1
    else None,
    lambda s: s.with_(inverter_fraction=0.0) if s.inverter_fraction else None,
    lambda s: s.with_(register_density=s.register_density / 2)
    if s.register_density > 0.02
    else None,
    lambda s: s.with_(n_stages=2)
    if (s.n_stages or s.resolved_stages) > 2
    else None,
    lambda s: s.with_(fanin3_prob=0.0) if s.fanin3_prob else None,
    lambda s: s.with_(recency_bias=0.0) if s.recency_bias else None,
)


def shrink_spec(
    spec: CorpusSpec,
    still_fails: Callable[[CorpusSpec], bool],
    max_attempts: int = 64,
) -> CorpusSpec:
    """Greedy spec-level shrink: smallest spec that still fails.

    Repeatedly tries each reduction move; a candidate is kept when the
    check still fails on the regenerated circuit.  Stops at a fixpoint
    or after ``max_attempts`` regenerations (shrinking is best-effort —
    the unshrunk reproducer is still a reproducer).
    """
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for move in _SHRINK_MOVES:
            candidate = move(spec)
            if candidate is None:
                continue
            attempts += 1
            try:
                failed = still_fails(candidate)
            except Exception:
                failed = False  # reductions must keep the circuit valid
            if failed:
                spec = candidate
                progress = True
            if attempts >= max_attempts:
                break
    return spec


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Mismatch:
    """One confirmed disagreement, already shrunk and archived."""

    check: str
    detail: str
    spec: CorpusSpec
    bench_path: Optional[str] = None
    spec_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of a :func:`run_fuzz` session."""

    rounds: int = 0
    checks_run: Dict[str, int] = field(default_factory=dict)
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "checks_run": dict(sorted(self.checks_run.items())),
            "ok": self.ok,
            "mismatches": [
                {
                    "check": m.check,
                    "detail": m.detail,
                    "spec": m.spec.as_dict(),
                    "bench_path": m.bench_path,
                    "spec_path": m.spec_path,
                }
                for m in self.mismatches
            ],
        }


def _archive(
    archive_dir: Path, check: str, spec: CorpusSpec, detail: str
) -> Tuple[str, str]:
    """Write the shrunk reproducer: ``.bench`` + JSON sidecar."""
    archive_dir.mkdir(parents=True, exist_ok=True)
    stem = f"repro-{check}-s{spec.seed}-g{spec.n_gates}"
    bench_path = archive_dir / f"{stem}.bench"
    spec_path = archive_dir / f"{stem}.json"
    netlist = generate_corpus_circuit(spec)
    bench_path.write_text(write_bench(netlist))
    spec_path.write_text(
        json.dumps(
            {"check": check, "detail": detail, "spec": spec.as_dict()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return str(bench_path), str(spec_path)


def run_fuzz(
    rounds: int,
    seed: int,
    archive_dir,
    lk: int = 16,
    beta: int = 1,
    max_gates: int = 640,
    with_service: bool = False,
    checks: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``rounds`` differential fuzz rounds; archive every mismatch.

    Each round draws one :func:`random_spec`, generates the circuit, and
    runs the enabled checks.  A failing check is re-confirmed through
    :func:`shrink_spec` (which regenerates from candidate specs), then
    archived under ``archive_dir``.  Deterministic: same ``seed`` and
    ``rounds`` replay the same specs.

    Args:
        rounds: number of random circuits to draw.
        seed: session RNG seed (spec seeds derive from it).
        archive_dir: directory for ``.bench``/``.json`` reproducers.
        lk: cut budget for the partition stages.
        beta: redundancy factor.
        max_gates: upper bound for drawn circuit sizes.
        with_service: also run the service-vs-inline check (boots a
            ``merced serve`` thread for the session).
        checks: restrict to a subset of :data:`CHECKS`.
        log: optional progress sink (e.g. ``print``).
    """
    enabled = list(checks) if checks is not None else list(CHECKS)
    unknown = set(enabled) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown fuzz check(s): {sorted(unknown)}")
    if not with_service and "service" in enabled:
        enabled.remove("service")

    archive_dir = Path(archive_dir)
    rng = random.Random(seed)
    report = FuzzReport()
    say = log or (lambda _msg: None)

    handle = None
    client = None
    try:
        if "service" in enabled:
            import tempfile

            from ..service import ServiceClient, ServiceConfig, ServiceThread

            handle = ServiceThread(
                ServiceConfig(
                    host="127.0.0.1",
                    port=0,
                    workers=2,
                    queue_capacity=16,
                    timeout=120.0,
                    cache_dir=tempfile.mkdtemp(prefix="fuzz-cache-"),
                )
            ).start()
            client = ServiceClient(port=handle.port)
            client.wait_ready()

        for i in range(rounds):
            spec = random_spec(rng, i, max_gates=max_gates)
            netlist = generate_corpus_circuit(spec)
            report.rounds += 1
            for check in enabled:
                detail = _run_check(check, netlist, client, lk, beta)
                report.checks_run[check] = (
                    report.checks_run.get(check, 0) + 1
                )
                if detail is None:
                    continue
                say(
                    f"round {i}: {check} mismatch on {spec.name} "
                    f"(seed {spec.seed}, {spec.n_gates} gates) — shrinking"
                )

                def still_fails(candidate: CorpusSpec) -> bool:
                    nl = generate_corpus_circuit(candidate)
                    return _run_check(check, nl, client, lk, beta) is not None

                shrunk = shrink_spec(spec, still_fails)
                final_detail = (
                    _run_check(
                        check, generate_corpus_circuit(shrunk), client, lk, beta
                    )
                    or detail
                )
                bench_path, spec_path = _archive(
                    archive_dir, check, shrunk, final_detail
                )
                say(f"  archived {bench_path}")
                report.mismatches.append(
                    Mismatch(
                        check=check,
                        detail=final_detail,
                        spec=shrunk,
                        bench_path=bench_path,
                        spec_path=spec_path,
                    )
                )
            if log and (i + 1) % 10 == 0:
                say(f"{i + 1}/{rounds} rounds, {len(report.mismatches)} mismatches")
    finally:
        if handle is not None:
            handle.stop()
    return report


def _run_check(
    check: str, netlist: Netlist, client, lk: int, beta: int
) -> Optional[str]:
    if check == "scc":
        return check_scc(netlist)
    if check == "pipeline":
        return check_pipeline(netlist, lk, beta)
    if check == "solver":
        return check_solvers(netlist, lk, beta)
    if check == "service":
        return check_service(netlist, client, lk, beta)
    raise ValueError(f"unknown fuzz check {check!r}")
