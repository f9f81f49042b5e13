"""Compile workloads: inputs, timed compiles, output checks, traced run.

The timed compiles call ``repro.core.merced.compile_circuit`` with no
trace active.  The traced run calls the same layers one by one, in
``compile_circuit``'s order, with a span around each call, and must
reproduce the untraced artifacts exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import MercedConfig
from repro.analysis.lint import lint_gate
from repro.cbit.assemble import assemble_cbits
from repro.cbit.insert import insert_test_hardware
from repro.core.cost import compare_cbit_area
from repro.core.merced import CompilationArtifacts, compile_circuit
from repro.core.result import MercedReport, PartitionRow
from repro.exec.task import merced_payload
from repro.flow.saturate import saturate_network
from repro.graphs.build import build_circuit_graph
from repro.graphs.scc import SCCIndex
from repro.partition.assign_cbit import assign_cbit
from repro.partition.make_group import make_group
from repro.retiming.apply import apply_retiming
from repro.retiming.legality import verify_retiming
from repro.retiming.solve import solve_cut_retiming
from repro.retiming.verify import verify_drop_set

from hostspeed import REF_SECONDS, HostSpeed
from spans import Tracer

#: ``compile_circuit``'s BIST insertion arguments (its defaults).
BIST_KWARGS = dict(
    include_scan=True,
    include_primary_inputs=True,
    include_primary_outputs=True,
    dual_mode_controls=True,
)

ISCAS_COMPILE = ["s820", "s832", "s838.1"]
ISCAS_ANNEAL = ["s510", "s641", "s713"]
ANNEAL_BUDGET = 20.0
#: corpus-scale: the corpus-50k shape knobs at this many gates.
CORPUS_GATES = 2000
#: reference-workload samples before each timed compile and after the last
HOST_SAMPLES = 3


class Circuit:
    """One workload input: a netlist and the config it compiles with."""

    def __init__(self, name: str, netlist, config: MercedConfig):
        self.name = name
        self.netlist = netlist
        self.config = config


def trend_config(netlist) -> MercedConfig:
    """``scripts/bench_trend.py``'s size-scaled config."""
    stats = netlist.stats()
    size = stats.n_dffs + stats.n_gates + stats.n_inverters
    return MercedConfig(
        lk=16,
        seed=1996,
        max_sources=None if size < 800 else 1200,
        min_visit=20 if size < 800 else 5,
    )


def load_inputs(workload: str, seed: int, tracer: Optional[Tracer] = None):
    """The workload's circuits, in a seed-chosen order.

    With a tracer, generation and parsing are recorded as spans.
    """
    from contextlib import nullcontext

    def span(name, item):
        return tracer.span(name, item) if tracer else nullcontext()

    rng = random.Random(seed)
    if workload == "corpus-scale":
        from repro.corpus import TREND_SPECS, generate_corpus_circuit
        from repro.netlist.bench import parse_bench, write_bench

        spec = dataclasses.replace(
            TREND_SPECS["corpus-50k"],
            name=f"corpus-scale-{seed}",
            seed=50_000 + seed,
            n_gates=CORPUS_GATES,
        )
        with span("corpus.generate", spec.name):
            generated = generate_corpus_circuit(spec)
        text = write_bench(generated)
        with span("netlist.parse", spec.name):
            netlist = parse_bench(text, name=spec.name)
        return [Circuit(spec.name, netlist, trend_config(netlist))]

    from repro.circuits.generator import generate_circuit
    from repro.circuits.profiles import profile_by_name

    if workload == "iscas-compile":
        names, config = list(ISCAS_COMPILE), MercedConfig()
    elif workload == "iscas-anneal":
        names = list(ISCAS_ANNEAL)
        config = MercedConfig(optimize="anneal", optimize_budget=ANNEAL_BUDGET)
    else:
        raise ValueError(f"not a compile workload: {workload}")
    rng.shuffle(names)
    out = []
    for name in names:
        # load_circuit's uncached path, so every set-up pays for it
        with span("circuits.generate", name):
            netlist = generate_circuit(profile_by_name(name))
        out.append(Circuit(name, netlist, config))
    return out


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def quality(arts) -> Dict[str, object]:
    """The deterministic outputs one compile must repeat exactly."""
    cuts = sorted(arts.report.partition.cut_nets())
    return {
        "cuts_sha": hashlib.sha256("\n".join(cuts).encode()).hexdigest()[:16],
        "sigma_dff": arts.report.cost_dff,
        "covered_cuts": len(arts.retiming.covered_cuts),
        "table12_pct": arts.report.area.pct_with_retiming,
        "bist_added_units": arts.bist.added_area_units,
    }


def check_artifacts(circuit: Circuit, arts) -> List[str]:
    """Independent checks of one compile's outputs; returns the failures."""
    problems = []
    netlist, config = circuit.netlist, circuit.config
    if arts.report.partition.max_input_count() > config.lk:
        problems.append(
            f"{circuit.name}: partition input count "
            f"{arts.report.partition.max_input_count()} > l_k {config.lk}"
        )
    graph = build_circuit_graph(netlist, with_po_nodes=True)
    cuts = arts.report.partition.cut_nets()
    # auto is the greedy solver, which keeps its victims dropped
    bad = verify_drop_set(graph, cuts, arts.retiming, minimal=False)
    if bad is not None:
        problems.append(f"{circuit.name}: drop set: {bad}")
    try:
        verify_retiming(netlist, arts.retimed.netlist)
    except Exception as exc:  # any failure of the oracle is a failed check
        problems.append(f"{circuit.name}: verify_retiming: {exc}")
    return problems


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# timed compiles (tracing off)
# ----------------------------------------------------------------------
def timed_compiles(
    circuits: List[Circuit],
    seconds: float,
    log: Callable,
    max_compiles: Optional[int] = None,
    host: Optional[HostSpeed] = None,
):
    """Compile each circuit once, then again in turn while time is left.

    After the first pass a circuit is compiled again only if its last
    compile time fits in what is left of ``seconds``.  At least one
    circuit is compiled twice, so the check that a repeated compile
    gives identical outputs always runs.  With ``host``, the reference
    workload is timed before every compile and after the last, and each
    compile is taken at the reference host's speed by the samples on
    either side of it.  Returns ``(times, payloads, failures, attempted,
    qualities)``: ``times`` holds each circuit's compile seconds (raw
    without ``host``), ``payloads`` its ``merced_payload`` as sorted
    JSON.  No artifacts outlive their checks, so every compile starts
    from the same memory.
    """
    times: Dict[str, List[float]] = {c.name: [] for c in circuits}
    failures: List[str] = []
    qualities: Dict[str, Dict[str, object]] = {}
    payloads: Dict[str, str] = {}
    attempted = 0
    #: reference samples before each compile, and after the last
    groups: List[List[float]] = []
    #: (circuit, raw seconds, index in ``groups`` of the samples before)
    timed: List[Tuple[str, float, int]] = []
    start = time.perf_counter()

    def compile_one(circuit: Circuit) -> None:
        nonlocal attempted
        attempted += 1
        if host is not None:
            groups.append(host.sample(HOST_SAMPLES))
        netlist = circuit.netlist.copy()
        t0 = time.perf_counter()
        try:
            arts = compile_circuit(netlist, circuit.config)
        except Exception as exc:  # a failed compile is a failed op
            failures.append(f"{circuit.name}: compile raised {exc!r}")
            return
        times[circuit.name].append(time.perf_counter() - t0)
        timed.append((circuit.name, times[circuit.name][-1], len(groups) - 1))
        failures.extend(check_artifacts(circuit, arts))
        q = quality(arts)
        if qualities.setdefault(circuit.name, q) != q:
            failures.append(f"{circuit.name}: outputs differ between compiles")
        payloads[circuit.name] = json.dumps(
            merced_payload(arts.report), sort_keys=True
        )

    def room() -> bool:
        return max_compiles is None or attempted < max_compiles

    for circuit in circuits:
        compile_one(circuit)
    repeats = 0
    while room():
        left = seconds - (time.perf_counter() - start)
        done = [c for c in circuits if times[c.name]]
        fits = [c for c in done if times[c.name][-1] <= left]
        if not fits and not repeats:
            # too little time left: repeat the quickest one all the same
            fits = sorted(done, key=lambda c: times[c.name][-1])[:1]
        if not fits:
            break
        compile_one(min(fits, key=lambda c: len(times[c.name])))
        repeats += 1

    def show(label: str, by_circuit: Dict[str, List[float]]) -> None:
        if len(circuits) <= 8:
            log(label + ", ".join(
                f"{name} " + "/".join(f"{t:.3f}" for t in ts)
                for name, ts in by_circuit.items()
            ) + " s")

    show("compiles: ", times)
    if host is not None:
        groups.append(host.sample(HOST_SAMPLES))
        times = {c.name: [] for c in circuits}
        for name, raw, g in timed:
            around = statistics.median(groups[g] + groups[g + 1])
            times[name].append(raw * REF_SECONDS / around)
        show("compiles at reference speed: ", times)
    return times, payloads, failures, attempted, qualities


def quality_metrics(qualities: Dict[str, Dict[str, object]]):
    """The compile-quality end-to-end metrics, over a workload's circuits."""
    def total(key):
        return sum(q[key] for q in qualities.values())

    return {
        "sigma_dff": (total("sigma_dff"), "DFF"),
        "covered_cuts": (total("covered_cuts"), "cuts"),
        "table12_pct": (
            statistics.mean(q["table12_pct"] for q in qualities.values()), "%"
        ),
        "bist_added_units": (total("bist_added_units"), "units"),
    }


def end_to_end(circuits, seconds: float, log: Callable, host: HostSpeed):
    """Every end-to-end metric of a compile workload, tracing off.

    A compile workload is one closed-loop caller whose requests are
    single-circuit compiles.  A request's latency is its circuit's
    compile time, taken as the median of that circuit's compiles in the
    run, so each latency figure rests on every compile of its circuit
    rather than on one.  One caller never queues, so the latency is the
    same at any offered load: the ``.lo`` and ``.hi`` latencies are the
    same figures.  Every compile is taken at the reference host's speed
    by the ``host`` samples on either side of it.
    """
    times, _, failures, attempted, qualities = timed_compiles(
        circuits, seconds, log, host=host
    )
    per_circuit = [statistics.median(ts) for ts in times.values() if ts]
    compile_s = sum(per_circuit)
    p50_ms = statistics.median(per_circuit) * 1e3
    p99_ms = percentile(per_circuit, 99) * 1e3
    metrics = {
        "compile_s": (compile_s, "s"),
        **quality_metrics(qualities),
        "req_p50_ms.lo": (p50_ms, "ms"),
        "req_p99_ms.lo": (p99_ms, "ms"),
        "req_p50_ms.hi": (p50_ms, "ms"),
        "req_p99_ms.hi": (p99_ms, "ms"),
        "max_rps_at_slo": (len(per_circuit) / compile_s, "req/s"),
    }
    log(f"{attempted} compile(s) of {len(circuits)} circuit(s)")
    return metrics, failures, attempted, qualities


# ----------------------------------------------------------------------
# traced run: compile_circuit, one layer at a time
# ----------------------------------------------------------------------
def compile_layers(netlist, config: MercedConfig, tracer: Tracer, item: str):
    """``compile_circuit(netlist, config)`` as separate layer calls.

    ``Saturate_Network`` runs on its own and ``make_group`` reuses its
    distances (``presaturated=True``), so no layer's time is inside
    another's span.  Returns the artifacts and the report's
    ``merced_payload`` as sorted JSON.
    """
    if not config.merge_clusters:
        raise ValueError("the traced run follows the merge_clusters path")
    with tracer.span("compile", item):
        with tracer.span("netlist.validate"):
            netlist.validate()
        with tracer.span("graphs.build"):
            graph = build_circuit_graph(netlist, with_po_nodes=False)
        with tracer.span("graphs.scc"):
            scc = SCCIndex(graph)
        with tracer.span("analysis.lint"):
            lint_gate(netlist, config, graph=graph, scc_index=scc)
        with tracer.span("flow.saturate"):
            saturation = saturate_network(graph, config)
        with tracer.span("partition.make_group") as sp:
            group = make_group(graph, scc, config, presaturated=True)
            sp.counters["splits"] = group.n_splits
        with tracer.span("partition.assign_cbit") as sp:
            assigned = assign_cbit(group.partition)
            sp.counters["merges"] = assigned.n_merges
        partition, cost_dff = assigned.partition, assigned.cost_dff
        optimize_stats = None
        if config.optimize is not None:
            from repro.optimize import optimize_partition

            with tracer.span("optimize") as sp:
                refined = optimize_partition(
                    graph, scc, partition, config, name=netlist.name
                )
                sp.counters["n_proposed"] = refined.n_proposed
                sp.counters["n_accepted"] = refined.n_accepted
                sp.counters["n_retimes"] = refined.n_retimes
            partition, cost_dff = refined.partition, refined.sigma_after
            optimize_stats = refined.stats()
        cut_nets = partition.cut_nets()
        stats = netlist.stats()
        with tracer.span("core.area"):
            area = compare_cbit_area(
                circuit=stats.name,
                lk=config.lk,
                circuit_area_units=stats.area_units,
                cut_nets=cut_nets,
                scc_index=scc,
            )
        with tracer.span("cbit.assemble"):
            plan = assemble_cbits(partition)
        report = MercedReport(
            circuit_stats=stats,
            config=config,
            partition=partition,
            plan=plan,
            area=area,
            row=PartitionRow(
                circuit=stats.name,
                n_dffs=stats.n_dffs,
                n_dffs_on_scc=scc.registers_on_sccs(),
                n_cut_nets_on_scc=area.n_cut_nets_on_scc,
                n_cut_nets=area.n_cut_nets,
                cpu_seconds=0.0,
            ),
            n_merges=assigned.n_merges,
            n_splits=group.n_splits,
            saturation_sources=saturation.n_sources,
            cost_dff=cost_dff,
            optimize=optimize_stats,
        )
        with tracer.span("graphs.build"):
            graph_po = build_circuit_graph(netlist, with_po_nodes=True)
        with tracer.span("retiming.solve") as sp:
            retiming = solve_cut_retiming(graph_po, cut_nets)
            sp.counters["covered"] = len(retiming.covered_cuts)
            sp.counters["cuts"] = len(cut_nets)
        with tracer.span("retiming.apply"):
            retimed = apply_retiming(netlist, retiming.retiming.rho)
        with tracer.span("cbit.insert"):
            bist = insert_test_hardware(netlist, partition, **BIST_KWARGS)
        with tracer.span("core.payload"):
            payload = json.dumps(merced_payload(report), sort_keys=True)
    return CompilationArtifacts(report, retiming, retimed, bist), payload


#: per-layer self-time metric → span name
LAYER_SECONDS = {
    "flow.saturate_s": "flow.saturate",
    "partition.make_group_s": "partition.make_group",
    "partition.assign_cbit_s": "partition.assign_cbit",
    "retiming.solve_s": "retiming.solve",
    "retiming.apply_s": "retiming.apply",
    "optimize.s": "optimize",
    "graphs.build_s": "graphs.build",
    "graphs.scc_s": "graphs.scc",
    "analysis.lint_s": "analysis.lint",
    "corpus.generate_s": "corpus.generate",
    "circuits.generate_s": "circuits.generate",
    "netlist.parse_s": "netlist.parse",
    "netlist.validate_s": "netlist.validate",
    "cbit.assemble_s": "cbit.assemble",
    "cbit.insert_s": "cbit.insert",
    "core.area_s": "core.area",
    "core.payload_s": "core.payload",
}

#: per-layer count metric → (span name, counter on that span)
LAYER_COUNTERS = {
    "flow.dijkstra_runs": ("flow.saturate", "dijkstra_runs"),
    "flow.relaxations": ("flow.saturate", "relaxations"),
    "partition.dfs_visits": ("partition.make_group", "dfs_visits"),
    "partition.splits": ("partition.make_group", "splits"),
    "partition.gain_evals": ("partition.assign_cbit", "gain_evals"),
    "retiming.bf_relaxations": ("retiming.solve", "bf_relaxations"),
    "retiming.rounds": ("retiming.solve", "retiming_rounds"),
    "optimize.n_retimes": ("optimize", "n_retimes"),
}

RSS_LAYERS = [
    "flow", "partition", "retiming", "optimize", "graphs", "analysis",
    "cbit", "core",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans: self seconds, counters, RSS."""
    selfs = tracer.self_by_name()
    out: Dict[str, Tuple[float, str]] = {}
    for metric, name in LAYER_SECONDS.items():
        out[metric] = (selfs.get(name, 0.0), "s")
    for metric, (name, key) in LAYER_COUNTERS.items():
        out[metric] = (tracer.counter(name, key), "count")
    out["partition.merge_ratio"] = (
        _ratio(
            tracer.counter("partition.assign_cbit", "merges"),
            tracer.counter("partition.assign_cbit", "merge_attempts"),
        ),
        "ratio",
    )
    out["retiming.cover_ratio"] = (
        _ratio(
            tracer.counter("retiming.solve", "covered"),
            tracer.counter("retiming.solve", "cuts"),
        ),
        "ratio",
    )
    out["optimize.accept_ratio"] = (
        _ratio(
            tracer.counter("optimize", "n_accepted"),
            tracer.counter("optimize", "n_proposed"),
        ),
        "ratio",
    )
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_hwm_mb"] = (tracer.rss_hwm(layer), "MB")
    return out


def unaccounted(tracer: Tracer) -> float:
    """Largest share of a compile span that no layer span covers."""
    kids = tracer.children()
    return max(
        (
            tracer.self_seconds(top, kids) / top.seconds
            for top in tracer.spans
            if top.name == "compile" and top.seconds
        ),
        default=0.0,
    )


def traced_run(circuits: List[Circuit], tracer: Tracer, bound: float, log):
    """Untraced compile, then the layer-by-layer compile of each circuit.

    Returns ``(metrics, failures, attempted, payloads)``, ``payloads``
    being each circuit's ``merced_payload`` as sorted JSON.  The traced
    compile must give the same cut set, Σ, covered cuts, BIST area and
    payload as the untraced one, and the layer spans must account for
    their parent's duration within ``bound``.
    """
    failures: List[str] = []
    untraced = 0.0
    reference = {}
    for circuit in circuits:
        t0 = time.perf_counter()
        arts = compile_circuit(circuit.netlist.copy(), circuit.config)
        untraced += time.perf_counter() - t0
        reference[circuit.name] = (
            quality(arts),
            json.dumps(merced_payload(arts.report), sort_keys=True),
        )
    traced = 0.0
    for circuit in circuits:
        t0 = time.perf_counter()
        arts, payload = compile_layers(
            circuit.netlist.copy(), circuit.config, tracer, circuit.name
        )
        traced += time.perf_counter() - t0
        want_quality, want_payload = reference[circuit.name]
        if quality(arts) != want_quality:
            failures.append(
                f"{circuit.name}: traced outputs {quality(arts)} differ from "
                f"untraced {want_quality}"
            )
        if payload != want_payload:
            failures.append(f"{circuit.name}: traced payload differs")
        failures.extend(check_artifacts(circuit, arts))
    residual = unaccounted(tracer)
    if residual > bound:
        failures.append(
            f"layer spans leave {residual:.1%} of a compile unaccounted "
            f"(bound {bound:.0%})"
        )
    metrics = layer_metrics(tracer)
    metrics["trace.compile_s"] = (traced, "s")
    metrics["trace.untraced_compile_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.unaccounted_frac"] = (residual, "ratio")
    log(f"traced compile {traced:.3f} s, untraced {untraced:.3f} s")
    payloads = {name: payload for name, (_, payload) in reference.items()}
    return metrics, failures, 2 * len(circuits), payloads
