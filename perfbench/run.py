"""End-to-end and layer-by-layer benchmark of the Merced compiler.

Run from the repository root:

    python3 perfbench/run.py --workload iscas-compile --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric (tracing off); ``--trace 1``
runs the layer-by-layer traced compile and prints every per-layer
metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Output checks that
fail are counted in ``failed`` and make the exit code 1.  Workloads,
metrics and their bounds are listed in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each measures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
COMPILE_WORKLOADS = ("iscas-compile", "corpus-scale", "iscas-anneal")
WORKLOADS = COMPILE_WORKLOADS + ("serve-mixed",)
#: set-up repetitions: this process plus probe subprocesses
SETUP_PROBES = 2
#: reference-workload samples after each process's set-up
SETUP_HOST_SAMPLES = 3
#: end-to-end times, divided by the host factor, and rates, multiplied
TIMES = ("compile_s", "req_p50_ms.lo", "req_p99_ms.lo", "req_p50_ms.hi",
         "req_p99_ms.hi")
RATES = ("max_rps_at_slo",)
#: Every process of a run (this one, the probes and the server) runs on
#: this one CPU.  The shared host slows its CPUs separately (a reference
#: loop timed on both at once did not correlate), so the host-speed
#: reference only follows work on the CPU it runs on.
BENCH_CPU = min(os.sched_getaffinity(0))
#: one hash seed for every process of a run (this one, the probes and
#: the server): set and dict order does not change a compile's result,
#: but it changes its time from process to process by up to 1.3x
HASH_SEED = "0"

#: per-layer metrics only the serve-mixed workload produces
SERVE_LAYER = {
    "exec.disk_hit_ratio": "ratio",
    "service.hot_hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.hot_evictions": "count",
    "service.hot_bytes": "bytes",
    "service.request_s": "s",
    "exec.execute_s": "s",
    "service.self_s": "s",
    "service.hit_ms": "ms",
    "service.miss_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.backlog_end": "count",
    "gen.invalid_steps": "count",
}


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: time one set-up in a fresh process and exit",
    )
    return p.parse_args(argv)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def setup_inputs(workload: str, seed: int, tracer=None):
    """Imports and input load/generate/parse; the set-up a user pays."""
    if workload == "serve-mixed":
        import serve

        if tracer is None:
            return serve.Pool(seed)
        with tracer.span("corpus.generate", "serve-pool"):
            return serve.Pool(seed)
    import pipeline

    return pipeline.load_inputs(workload, seed, tracer)


def setup_at_reference_speed(seconds: float) -> float:
    """A process's set-up time over the host factor timed right after it."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample(SETUP_HOST_SAMPLES)
    return seconds / host.factor()


def at_reference_speed(metrics: dict, host) -> dict:
    """The end-to-end times and rates at the reference host's speed, by
    the run's host factor."""
    factor = host.factor()
    log(host.describe())
    out = dict(metrics)
    for name in TIMES:
        value, unit = out[name]
        log(f"{name} raw {value:.6g} {unit}")
        out[name] = (value / factor, unit)
    for name in RATES:
        value, unit = out[name]
        log(f"{name} raw {value:.6g} {unit}")
        out[name] = (value * factor, unit)
    return out


def setup_seconds(args, own: float) -> float:
    """Median set-up time, at the reference host's speed, over this
    process and fresh probe processes."""
    times = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    log("set-up runs at reference speed: "
        + ", ".join(f"{t:.3f} s" for t in times))
    return statistics.median(times)


def code_version() -> str:
    """Hash of the program's and the benchmark's sources in this checkout."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def check_quality(workload: str, seed: int, quality: dict) -> list:
    """Quality outputs must repeat exactly across runs of one code at one
    seed.  The fingerprint is keyed by the sources' hash, so a change that
    moves the quality on purpose starts a fresh fingerprint."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(
        STATE, f"quality-{workload}-{seed}-{code_version()}.json"
    )
    text = json.dumps(quality, sort_keys=True)
    if os.path.exists(path):
        with open(path) as fh:
            if fh.read() != text:
                return [f"quality outputs differ from an earlier run at seed {seed}"]
        return []
    with open(path, "w") as fh:
        fh.write(text)
    return []


def compile_workload(args, inputs, setup_own, tracer):
    import pipeline
    from hostspeed import HostSpeed
    from spans import rss_hwm_mb

    if tracer is not None:
        metrics, failures, attempted, _ = pipeline.traced_run(
            inputs, tracer, bounds()["compile_s"], log
        )
        for name in SERVE_LAYER:
            metrics[name] = (0.0, SERVE_LAYER[name])
        write_trace(args, tracer)
        return metrics, failures, attempted
    host = HostSpeed()
    metrics, failures, attempted, qualities = pipeline.end_to_end(
        inputs, args.seconds, log, host
    )
    log(host.describe())
    metrics["peak_rss_mb"] = (rss_hwm_mb(), "MB")
    metrics["setup_s"] = (setup_seconds(args, setup_own), "s")
    failures += check_quality(args.workload, args.seed, qualities)
    return metrics, failures, attempted


def serve_workload(args, pool, setup_own, tracer):
    import pipeline
    import serve
    from hostspeed import HostSpeed
    from repro import MercedConfig
    from repro.netlist.bench import parse_bench

    host = HostSpeed()
    bench = serve.ServeMixed(ROOT, args.seed, pool, log)
    try:
        boot = bench.setup()
        # the seed's hot and disk circuits, compiled here while the server
        # is idle: the reference payloads for the check, and the compile
        # metrics of the workload.  Untraced, a share is compiled after
        # each round of the load, so the compiles meet the host at every
        # part of the run.
        circuits = []
        for name in pool.hot + pool.disk:
            with tracer.span("netlist.parse", name) if tracer else nullcontext():
                netlist = parse_bench(pool.bench(name), name=name)
            circuits.append(
                pipeline.Circuit(name, netlist, MercedConfig(lk=serve.LK))
            )
        times, payloads, failures, qualities = {}, {}, [], {}

        def idle(round_index: int) -> None:
            if tracer is not None:
                return
            share = circuits[round_index::serve.ROUNDS]
            t, p, f, _, q = pipeline.timed_compiles(
                share, 0.0, log, max_compiles=len(share)
            )
            times.update(t)
            payloads.update(p)
            failures.extend(f)
            qualities.update(q)

        gen, steps, lo, hi, best, server_side = bench.drive(
            args.seconds, host, idle
        )
        if tracer is not None:
            layer, failures, _, payloads = pipeline.traced_run(
                circuits, tracer, bounds()["compile_s"], log
            )
        bench.failures += failures
        reference = {(name, serve.LK): p for name, p in payloads.items()}
        distinct = bench.check(gen, reference)
    finally:
        server_rss = bench.close()
    log(f"{len(gen.requests)} requests, {distinct} distinct points checked")
    attempted = len(gen.requests) + len(circuits)
    if tracer is not None:
        metrics = dict(layer)
        for name, value in server_side.items():
            metrics[name] = (value, SERVE_LAYER[name])
        metrics["service.self_s"] = (
            server_side["service.request_s"] - server_side["exec.execute_s"],
            "s",
        )

        def p50(outcome):
            lat = [(r.done - r.sent) * 1e3 for r in gen.requests
                   if r.outcome == outcome]
            return statistics.median(lat) if lat else 0.0

        metrics["service.hit_ms"] = (p50("hot"), "ms")
        metrics["service.miss_ms"] = (p50("miss"), "ms")
        metrics["gen.late_p99_ms"] = (max(s.late_p99 for s in steps), "ms")
        metrics["gen.backlog_end"] = (max(lo.backlog, hi.backlog), "count")
        metrics["gen.invalid_steps"] = (sum(not s.valid for s in steps), "count")
        for req in gen.requests:
            item = f"{req.rid}:{req.name}:{req.lk}"
            top = tracer.add("request", req.due, req.done, item=item,
                             counters={"status": req.status})
            tracer.add("gen.queue", req.due, req.sent, item, top.sid)
            tracer.add(f"service.{req.outcome}", req.sent, req.done, item,
                       top.sid)
        write_trace(args, tracer)
        return metrics, bench.failures, attempted
    failures = bench.failures + check_quality(args.workload, args.seed, qualities)
    metrics = at_reference_speed({
        "compile_s": (sum(t for ts in times.values() for t in ts), "s"),
        **pipeline.quality_metrics(qualities),
        "req_p50_ms.lo": (lo.p50, "ms"),
        "req_p99_ms.lo": (lo.p99, "ms"),
        "req_p50_ms.hi": (hi.p50, "ms"),
        "req_p99_ms.hi": (hi.p99, "ms"),
        "max_rps_at_slo": (best, "req/s"),
    }, host)
    metrics["peak_rss_mb"] = (server_rss, "MB")
    metrics["setup_s"] = (
        setup_seconds(args, setup_own) + boot / host.factor(), "s"
    )
    return metrics, failures, attempted


def write_trace(args, tracer) -> None:
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, f"spans-{args.workload}-{args.seed}.json")
    tracer.write(path)
    selfs = sorted(tracer.self_by_name().items(), key=lambda kv: -kv[1])
    log("largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in selfs[:6]))
    log(f"spans written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no Merced sources under {ROOT}/src", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script] + sys.argv[1:], env)
    os.sched_setaffinity(0, {BENCH_CPU})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    inputs = setup_inputs(args.workload, args.seed, tracer)
    setup_raw = time.perf_counter() - T_START
    setup_own = setup_at_reference_speed(setup_raw) if not args.trace else 0.0
    if args.setup_probe:
        print(setup_own)
        return 0
    log(f"workload {args.workload} seed {args.seed}: set-up {setup_raw:.3f} s")
    if args.workload == "serve-mixed":
        run = serve_workload
    else:
        run = compile_workload
    metrics, failures, attempted = run(args, inputs, setup_own, tracer)
    for problem in failures:
        log(f"FAILED: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        log(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
