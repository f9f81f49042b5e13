"""``merced`` command-line entry point.

Examples::

    merced s27 --lk 3
    merced s5378 --lk 16 --max-sources 1500
    merced --bench mydesign.bench --lk 24 --selftest
    merced sweep s27 s510 --lk 16 24 --jobs 4 --cache ~/.merced-cache
    merced sweep s510 --beta 1 5 50 --jobs 2
    merced sweep s27 --seeds 1 2 3 4 5 --stats-json stats.json
    merced lint s5378 --lk 16 --json
    merced lint examples/s27.bench --suppress NET004 --min-severity warning
    merced lint-code src/ --json
    merced serve --port 8356 --cache ~/.merced-cache --workers 4
    merced submit s27 s510 --lk 16 24 --url http://127.0.0.1:8356
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence, Tuple

from ..circuits.library import available_circuits, load_circuit
from ..config import MercedConfig
from ..errors import ReproError
from ..netlist.bench import parse_bench_file

__all__ = [
    "main",
    "build_parser",
    "build_sweep_parser",
    "sweep_main",
    "build_lint_parser",
    "lint_main",
]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``merced`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="merced",
        description=(
            "Merced BIST compiler: partition a synchronous circuit for "
            "pipelined pseudo-exhaustive testing with retiming "
            "(Liou/Lin/Cheng, DAC 1996)."
        ),
        epilog=(
            "Subcommands: 'merced sweep --help' runs parameter grids "
            "through the parallel execution farm with result caching; "
            "'merced lint --help' runs the static circuit/DFT linter; "
            "'merced lint-code --help' runs the concurrency + kernel "
            "static analyzer over Python sources; "
            "'merced serve --help' starts the long-running HTTP compile "
            "service; 'merced submit --help' posts work to it; "
            "'merced corpus --help' generates deterministic synthetic "
            "circuits and manages the committed corpus."
        ),
    )
    parser.add_argument(
        "circuit",
        nargs="?",
        help=f"benchmark name ({', '.join(available_circuits()[:4])}, ...)",
    )
    parser.add_argument("--bench", help="load an ISCAS89 .bench file instead")
    parser.add_argument("--lk", type=int, default=16, help="CUT input bound l_k")
    parser.add_argument("--beta", type=int, default=50, help="SCC cut budget factor (Eq. 6)")
    parser.add_argument("--seed", type=int, default=1996, help="flow RNG seed")
    parser.add_argument(
        "--max-sources",
        type=int,
        default=None,
        help="cap Saturate_Network Dijkstra sources (speed/fidelity knob)",
    )
    parser.add_argument(
        "--solver",
        action="store_true",
        help="use the exact retiming solver for retimability accounting",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="also simulate the PPET self-test session (small circuits)",
    )
    parser.add_argument(
        "--bist-out",
        metavar="FILE",
        help="emit the test-ready netlist (A_CELLs + scan) to FILE (.bench)",
    )
    parser.add_argument(
        "--verilog-out",
        metavar="FILE",
        help="emit the circuit (or, with --bist-out, the BIST netlist) as "
        "structural Verilog",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available benchmark circuits and exit",
    )
    parser.add_argument(
        "--retime",
        action="store_true",
        help="solve and apply the cut retiming; report the register moves",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        metavar="FILE",
        help="collect per-stage timers and hot-path counters "
        "(Dijkstra runs, relaxations, nets cut, merge attempts) and emit "
        "the JSON trace to FILE, or to stdout when no FILE is given",
    )
    _add_optimize_args(parser)
    return parser


def _add_optimize_args(parser: argparse.ArgumentParser) -> None:
    """The refinement-tier flags, shared by main/sweep/submit parsers."""
    parser.add_argument(
        "--optimize",
        choices=["fast", "anneal"],
        default=None,
        help="refine the Assign_CBIT partition by legality-checked "
        "local search: 'fast' (deterministic greedy cut-absorption "
        "sweeps) or 'anneal' (seeded simulated annealing over "
        "membership swaps and cut relocations); the result never "
        "exceeds the greedy Σ",
    )
    parser.add_argument(
        "--optimize-budget",
        type=float,
        default=5.0,
        metavar="SEC",
        help="advisory wall-clock budget for --optimize; converted to a "
        "deterministic move schedule, so results are byte-identical on "
        "any host (default: 5.0)",
    )


def build_sweep_parser() -> argparse.ArgumentParser:
    """Construct the ``merced sweep`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="merced sweep",
        description=(
            "Run a (circuit × l_k × β × seed) sweep grid through the "
            "parallel execution farm, with optional on-disk result "
            "caching keyed by (netlist, config, code version)."
        ),
    )
    parser.add_argument("circuits", nargs="*", help="benchmark names")
    parser.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="FILE",
        help="also sweep an ISCAS89 .bench file (repeatable)",
    )
    parser.add_argument(
        "--lk",
        type=int,
        nargs="+",
        default=None,
        metavar="L",
        help="l_k grid (default: 16 24 when no --beta/--seeds given)",
    )
    parser.add_argument(
        "--beta",
        type=int,
        nargs="+",
        default=None,
        metavar="B",
        help="β grid (partition-only study, strict=False)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="S",
        help="flow-seed grid (seed-stability study)",
    )
    parser.add_argument("--seed", type=int, default=1996, help="base RNG seed")
    parser.add_argument(
        "--min-visit", type=int, default=None, help="fairness threshold override"
    )
    parser.add_argument(
        "--max-sources", type=int, default=None, help="Dijkstra source cap"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = inline; results are identical either way)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="on-disk result cache directory (created if missing)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-point wall-clock budget; overruns degrade to error rows",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts per failing point before degrading its row",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        help="write run statistics (cache hits/misses, timings) as JSON",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        metavar="FILE",
        help="aggregate per-stage perf traces across workers to FILE/stdout",
    )
    _add_optimize_args(parser)
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    """Construct the ``merced lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="merced lint",
        description=(
            "Static circuit/DFT linter: netlist hygiene, combinational "
            "loops, dangling cones, retiming-legality preconditions "
            "(Corollary 2) and Eq. 5/6 budget-feasibility prechecks, "
            "run before any pipeline stage."
        ),
        epilog=(
            "Exit status: 0 clean (or warnings only), 1 when any "
            "error-severity diagnostic survives filtering."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="+",
        metavar="CIRCUIT|FILE.bench",
        help="benchmark names and/or ISCAS89 .bench files",
    )
    parser.add_argument(
        "--lk", type=int, default=16, help="CUT input bound l_k"
    )
    parser.add_argument(
        "--beta", type=int, default=50, help="SCC cut budget factor (Eq. 6)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report(s) as JSON"
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="RULE[,RULE...]",
        help="drop findings of these rule ids (repeatable)",
    )
    parser.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="hide findings below this severity (default: info)",
    )
    return parser


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``merced lint``; returns the exit code."""
    from ..analysis.lint import lint_bench_file, lint_circuit

    args = build_lint_parser().parse_args(argv)
    config = MercedConfig(lk=args.lk, beta=args.beta)
    suppress = [
        r for chunk in args.suppress for r in chunk.split(",") if r
    ]
    reports = []
    for target in args.targets:
        try:
            if target.endswith(".bench"):
                report = lint_bench_file(
                    target,
                    config,
                    suppress=suppress,
                    min_severity=args.min_severity,
                )
            else:
                report = lint_circuit(
                    load_circuit(target),
                    config,
                    suppress=suppress,
                    min_severity=args.min_severity,
                )
        except (OSError, ReproError, KeyError) as exc:
            print(f"error: {target}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print(report.render_text())
    return 1 if any(r.has_errors for r in reports) else 0


def sweep_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``merced sweep``; returns the exit code."""
    args = build_sweep_parser().parse_args(argv)
    if not args.circuits and not args.bench:
        print("error: give benchmark names and/or --bench FILE", file=sys.stderr)
        return 2
    try:
        return _run_sweep(args)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_sweep(args) -> int:
    from ..exec.cache import ResultCache
    from ..exec.pool import SweepFarm
    from ..exec.task import SweepPoint
    from ..netlist.bench import write_bench
    from .report import render_seed_stability, render_sweep_beta, render_sweep_lk
    from .sweep import (
        beta_row_from_result,
        lk_row_from_result,
        stability_from_results,
    )

    netlists = [load_circuit(name) for name in args.circuits]
    netlists += [parse_bench_file(path) for path in args.bench]
    base_kwargs = dict(seed=args.seed, max_sources=args.max_sources)
    if args.min_visit is not None:
        base_kwargs["min_visit"] = args.min_visit
    if args.optimize is not None:
        # the optimize axis widens point_key automatically (it folds the
        # full canonical config), so cached non-optimized points survive
        base_kwargs["optimize"] = args.optimize
        base_kwargs["optimize_budget"] = args.optimize_budget
    base = MercedConfig(**base_kwargs)

    lks = args.lk
    if lks is None and args.beta is None and args.seeds is None:
        lks = [16, 24]

    # one flat point list across circuits and studies → one farm.map()
    # call, so the whole grid shares the worker pool.
    points: List[SweepPoint] = []
    labels: List[Tuple[str, str, int]] = []  # (mode, circuit, coordinate)
    for netlist in netlists:
        bench = write_bench(netlist)
        for lk in lks or []:
            points.append(
                SweepPoint("merced", netlist.name, bench, base.with_lk(lk))
            )
            labels.append(("lk", netlist.name, lk))
        for beta in args.beta or []:
            points.append(
                SweepPoint("beta", netlist.name, bench, base.with_beta(beta))
            )
            labels.append(("beta", netlist.name, beta))
        for seed in args.seeds or []:
            points.append(
                SweepPoint("merced", netlist.name, bench, base.with_seed(seed))
            )
            labels.append(("seed", netlist.name, seed))

    cache = ResultCache(args.cache) if args.cache else None
    farm = SweepFarm(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        cache=cache,
    )

    trace = None
    if args.profile:
        from ..perf import PerfTrace, activate

        trace = activate(PerfTrace(label="sweep"))
    t0 = time.perf_counter()
    try:
        results = farm.map(points)
    finally:
        if trace is not None:
            from ..perf import deactivate

            deactivate()
    elapsed = time.perf_counter() - t0

    lk_pairs = []
    beta_pairs = []
    seed_results: dict = {}
    for (mode, circuit, coord), result in zip(labels, results):
        if mode == "lk":
            lk_pairs.append((circuit, lk_row_from_result(coord, result)))
        elif mode == "beta":
            beta_pairs.append((circuit, beta_row_from_result(coord, result)))
        else:
            seed_results.setdefault(circuit, []).append((coord, result))

    if lk_pairs:
        print(render_sweep_lk(lk_pairs))
    if beta_pairs:
        if lk_pairs:
            print()
        print(render_sweep_beta(beta_pairs))
    if seed_results:
        if lk_pairs or beta_pairs:
            print()
        stability_pairs = [
            (
                circuit,
                stability_from_results(
                    [s for s, _ in items], [r for _, r in items]
                ),
            )
            for circuit, items in seed_results.items()
        ]
        print(render_seed_stability(stability_pairs))

    n_failed = sum(1 for r in results if not r.ok)
    n_hits = sum(1 for r in results if r.cache_hit)
    print()
    print(
        f"sweep: {len(results)} point(s) in {elapsed:.2f}s "
        f"(jobs={args.jobs}, {n_hits} cached, {n_failed} failed)"
    )
    if cache is not None:
        s = cache.stats
        print(
            f"cache: {s.hits} hit(s), {s.misses} miss(es), "
            f"{s.stores} store(s), hit rate {s.hit_rate:.0%} ({args.cache})"
        )
    if args.stats_json:
        failures = [
            {
                "circuit": circuit,
                "mode": mode,
                "coordinate": coord,
                "error": result.error,
                "error_type": result.error_type,
                "stage": result.stage,
                "attempts": result.attempts,
                "diagnostics": list(result.diagnostics or ()),
            }
            for (mode, circuit, coord), result in zip(labels, results)
            if not result.ok
        ]
        stats = {
            "n_points": len(results),
            "n_failed": n_failed,
            "n_cache_hits": n_hits,
            "elapsed_seconds": elapsed,
            "jobs": args.jobs,
            "cache": cache.stats.as_dict() if cache is not None else None,
            "failures": failures,
        }
        with open(args.stats_json, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        print(f"stats written to {args.stats_json}")
    if trace is not None:
        if args.profile == "-":
            print()
            print(trace.to_json())
        else:
            trace.write(args.profile)
            print(f"perf trace written to {args.profile}")
    return 1 if results and n_failed == len(results) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``merced`` console script; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "lint-code":
        from ..analysis.concurrency.engine import lint_code_main

        return lint_code_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from ..service.cli import submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "corpus":
        from ..corpus.cli import corpus_main

        return corpus_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        from ..circuits.profiles import TABLE9_PROFILES

        print("s27 (exact ISCAS89)")
        for name, p in TABLE9_PROFILES.items():
            print(
                f"{name} (synthetic: {p.n_inputs} PI, {p.n_dffs} DFF, "
                f"{p.n_gates + p.n_inverters} gates, area {p.paper_area})"
            )
        return 0
    if not args.circuit and not args.bench:
        print("error: give a benchmark name or --bench FILE", file=sys.stderr)
        return 2
    try:
        if args.bench:
            netlist = parse_bench_file(args.bench)
        else:
            netlist = load_circuit(args.circuit)
        config = MercedConfig(
            lk=args.lk,
            beta=args.beta,
            seed=args.seed,
            max_sources=args.max_sources,
            optimize=args.optimize,
            optimize_budget=args.optimize_budget,
        )
        from .merced import Merced

        trace = None
        if args.profile:
            from ..perf import PerfTrace, activate

            trace = activate(PerfTrace(label=netlist.name))
        try:
            report = Merced(config).run(
                netlist,
                retimable_method="solver" if args.solver else "scc-budget",
            )
        finally:
            if trace is not None:
                from ..perf import deactivate

                deactivate()
        print(report.render())
        if args.selftest:
            from ..perf import activate as perf_activate
            from ..perf import deactivate as perf_deactivate
            from ..ppet.session import PPETSession

            if trace is not None:
                perf_activate(trace)
            try:
                session = PPETSession(netlist, report.partition, report.plan)
                print()
                print(session.run().render())
            finally:
                if trace is not None:
                    perf_deactivate()
        if args.retime:
            from ..graphs.build import build_circuit_graph
            from ..perf import activate as perf_activate
            from ..perf import deactivate as perf_deactivate
            from ..perf import stage as perf_stage
            from ..retiming.apply import apply_retiming
            from ..retiming.solve import solve_cut_retiming

            if trace is not None:
                perf_activate(trace)
            try:
                graph = build_circuit_graph(netlist, with_po_nodes=True)
                with perf_stage("retime"):
                    solution = solve_cut_retiming(
                        graph, report.partition.cut_nets()
                    )
            finally:
                if trace is not None:
                    perf_deactivate()
            retimed = apply_retiming(netlist, solution.retiming.rho)
            print()
            print(
                f"retiming: {len(solution.covered_cuts)} cut(s) covered by "
                f"functional DFFs, {len(solution.dropped_cuts)} need MUXed "
                f"A_CELLs, {len(solution.unconstrained_cuts)} "
                f"unconstrained; registers {retimed.n_registers_before} -> "
                f"{retimed.n_registers_after}"
            )
        emitted = netlist
        if args.bist_out:
            from ..cbit.insert import insert_test_hardware
            from ..netlist.bench import write_bench_file

            bist = insert_test_hardware(
                netlist, report.partition, include_scan=True
            )
            write_bench_file(bist.netlist, args.bist_out)
            emitted = bist.netlist
            print()
            print(
                f"BIST netlist written to {args.bist_out}: "
                f"{len(bist.cut_cells)} A_CELLs, "
                f"{bist.added_area_units} units of test hardware"
            )
        if args.verilog_out:
            from ..netlist.verilog import write_verilog_file

            write_verilog_file(emitted, args.verilog_out)
            print(f"Verilog written to {args.verilog_out}")
        if trace is not None:
            if args.profile == "-":
                print()
                print(trace.to_json())
            else:
                trace.write(args.profile)
                print()
                print(f"perf trace written to {args.profile}")
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
