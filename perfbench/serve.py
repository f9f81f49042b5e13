"""serve-mixed: an open-loop load generator against ``merced serve``.

The service runs as its own process (default ``ServiceConfig``, a
temporary ``--cache`` directory inside the checkout), on the one CPU the
run is pinned to, as is the generator in this process.  The generator
uses ``CONNS`` connections.  Its open-loop steps send on a fixed
schedule and time each request from when it was due, so a stall also
charges the requests queued behind it; its closed-loop windows keep
``CONNS`` requests in flight and measure the rate served.

Traffic classes, in the shares of the repo's recorded fleet replay
(97% hot; the replay's 3% never-seen share split four ways):

* ``hot``    uniform repeats of 48 hot circuits (hot-tier hits);
* ``disk``   circuits compiled before the last server restart, so the
  first request reads the on-disk cache;
* ``new``    never-seen circuits (compile plus a disk-cache write); all
  are one fixed netlist under fresh names, so every miss costs the same
  compile on every seed;
* ``lkvar``  the latest never-seen circuit again at another l_k (the
  service's parsed-circuit cache hits, its result caches miss);
* ``dup``    a never-seen circuit sent twice at once (coalescing).

The seed picks the hot and disk circuits, the names, and the order of
the classes within each block of sends.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from pipeline import percentile

#: The mix follows the repo's recorded service traffic, the fleet replay
#: of ``benchmarks/bench_service_fleet.py`` (``BENCH_service_fleet.json``
#: ``_meta``): 97% of requests draw uniformly from 48 hot circuits of 64
#: gates, compiled at l_k 8.
GATES = 64
LK = 8
HOT_N = 48
#: l_k of an ``lkvar`` request
LK_VAR = 10
#: CorpusSpec seed of the never-seen circuits' common netlist
BASE_SEED = 4242
#: The replay's other 3% are never-seen circuits.  Here they are split
#: among the four non-hot classes: every block of ``BLOCK`` requests
#: holds one of each special send (``dup`` is two requests), in seeded
#: order and evenly spaced, so misses do not arrive in chance bursts.
SPECIAL = ("disk", "new", "new", "lkvar", "dup")
BLOCK = 200
#: one ``disk`` send per block: enough disk circuits for a 30 s run
DISK_N = 32
#: fixed offered rates (req/s): about a fifth and two fifths of the
#: closed-loop rate (380-450 req/s raw on the reference host).
#: Closer to it, the p50 flips between a fast and a slow mode from run
#: to run.
RATE_LO = 90.0
RATE_HI = 180.0
#: p99 latency limit for ``max_rps_at_slo``
SLO_MS = 150.0
#: ``max_rps_at_slo`` comes from closed-loop windows, each keeping
#: ``CONNS`` requests in flight, so no backlog can grow.  An open-loop
#: search for the rate where p99 crosses the limit proved bistable near
#: the knee on the reference host: one rate gave p50 3 ms in one run and
#: 250 ms in the next, and over five seeds the crossing spread 0.43
#: (IQR / median).  The closed-loop rate has no such mode.
#:
#: The load runs in ``ROUNDS`` rounds of a lo step, a hi step and a
#: window (shares of ``--seconds`` each), then a fifth of the hot and
#: disk circuits compiled in the benchmark process, so a slow spell of
#: the host touches every figure a little instead of one figure wholly.
#: At ``--seconds 25`` the rounds give each of lo and hi about 730
#: samples and the windows 8.75 s; the compiles take the rest.
ROUNDS = 5
WARM_SHARE = 0.03
LO_SHARE = 0.065
HI_SHARE = 0.0325
WINDOW_SHARE = 0.07
#: reference-workload samples between two phases of the load
HOST_SAMPLES = 1
#: a step whose sends ran later than this behind schedule (p99) is
#: the generator's fault, not the server's, and is marked invalid
GEN_LATE_LIMIT_MS = 10.0
#: runs of one step, when the generator fell behind on the earlier ones
STEP_TRIES = 3
#: connections (and so load) from the generator: at most ``nproc``
#: (the machine's CPUs, not the one CPU the run pins itself to)
CONNS = min(2, os.cpu_count() or 1)
SETUPS = 3


class Pool:
    """The seed's circuits as ``.bench`` text."""

    def __init__(self, seed: int):
        from repro.corpus import generate_corpus_circuit
        from repro.corpus.spec import CorpusSpec
        from repro.netlist.bench import write_bench

        def make(name: str, spec_seed: int) -> str:
            spec = CorpusSpec(name=name, seed=spec_seed, n_gates=GATES)
            return write_bench(generate_corpus_circuit(spec))

        self.seed = seed
        self.hot = [f"sm{seed}-h{k}" for k in range(HOT_N)]
        self.disk = [f"sm{seed}-d{k}" for k in range(DISK_N)]
        self._bench = {
            name: make(name, seed * 1000 + k)
            for k, name in enumerate(self.hot + self.disk)
        }
        self.base = make("sm-base", BASE_SEED)

    def new_name(self, k: int) -> str:
        return f"sm{self.seed}-n{k}"

    def bench(self, name: str) -> str:
        return self._bench.get(name, self.base)


class Traffic:
    """The seeded stream of sends; each send is 1 request or a dup pair."""

    def __init__(self, pool: Pool, seed: int):
        self.pool = pool
        self.rng = random.Random(seed)
        self.disk = list(pool.disk)
        self.n_new = 0
        self.last_new: Optional[str] = None
        self.block: List[str] = []

    def _new(self, kind: str):
        self.last_new = self.pool.new_name(self.n_new)
        self.n_new += 1
        return (kind, self.last_new, LK)

    def next(self) -> List[Tuple[str, str, int]]:
        if not self.block:
            special = list(SPECIAL)
            self.rng.shuffle(special)
            n_hot = BLOCK - len(SPECIAL) - SPECIAL.count("dup")
            for i, kind in enumerate(special):
                run = (i + 1) * n_hot // len(special) - i * n_hot // len(special)
                self.block += ["hot"] * run + [kind]
        kind = self.block.pop()
        if kind == "disk" and self.disk:
            return [("disk", self.disk.pop(0), LK)]
        if kind == "new":
            return [self._new("new")]
        if kind == "lkvar" and self.last_new is not None:
            name, self.last_new = self.last_new, None
            return [("lkvar", name, LK_VAR)]
        if kind == "dup":
            one = self._new("dup")
            return [one, one]
        return [("hot", self.pool.hot[self.rng.randrange(HOT_N)], LK)]


def submission(pool: Pool, name: str, lk: int) -> bytes:
    body = json.dumps(
        {"kind": "merced", "circuit": name, "bench": pool.bench(name), "lk": lk},
        sort_keys=True,
    ).encode()
    head = (
        "POST /v1/compile HTTP/1.1\r\nHost: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    return head + body


async def http(port: int, data: bytes) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else {}


def get(port: int, path: str) -> dict:
    data = f"GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    return asyncio.run(http(port, data.encode()))[1]


class Request:
    __slots__ = ("rid", "kind", "name", "lk", "due", "late", "sent", "done",
                 "status", "body")

    def __init__(self, rid, kind, name, lk, due, late):
        self.rid, self.kind, self.name, self.lk = rid, kind, name, lk
        self.due, self.late = due, late
        self.sent = self.done = 0.0
        self.status = 0
        self.body: dict = {}

    @property
    def outcome(self) -> str:
        if self.status != 200 or not self.body.get("ok"):
            return "failed"
        if self.body.get("hot"):
            return "hot"
        if self.body.get("coalesced"):
            return "coalesced"
        if self.body.get("cache_hit"):
            return "disk"
        return "miss"


class Step:
    """One fixed-rate step of the open loop and its health."""

    def __init__(self, label: str, rate: float, requests: List[Request],
                 t0: float, t_end: float):
        self.label, self.rate, self.requests = label, rate, requests
        lat = [(r.done - r.due) * 1e3 for r in requests]
        self.p50 = statistics.median(lat)
        self.p99 = percentile(lat, 99)
        self.late_p99 = percentile([r.late * 1e3 for r in requests], 99)
        self.backlog = sum(1 for r in requests if r.due <= t_end < r.done)
        mid = (t0 + t_end) / 2
        self.backlog_mid = sum(1 for r in requests if r.due <= mid < r.done)
        self.failed = sum(1 for r in requests if r.outcome == "failed")
        self.valid = self.late_p99 <= GEN_LATE_LIMIT_MS

    def describe(self) -> str:
        return (
            f"step {self.label} {self.rate:.1f} req/s: n={len(self.requests)} "
            f"p50 {self.p50:.2f} ms p99 {self.p99:.2f} ms gen_late_p99 "
            f"{self.late_p99:.2f} ms backlog {self.backlog_mid}->{self.backlog}"
            f" failed {self.failed} {'valid' if self.valid else 'INVALID'}"
        )


class Level:
    """The steps of one offered rate, pooled."""

    def __init__(self, steps: List[Step]):
        lat = [(r.done - r.due) * 1e3 for s in steps for r in s.requests]
        self.p50 = statistics.median(lat)
        self.p99 = percentile(lat, 99)
        self.backlog = max(s.backlog for s in steps)


class Generator:
    """Sends the traffic stream over ``CONNS`` connections."""

    def __init__(self, port: int, pool: Pool, traffic: Traffic):
        self.port, self.pool, self.traffic = port, pool, traffic
        self.requests: List[Request] = []

    async def _step(self, rate: float, seconds: float):
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        n = max(1, int(rate * seconds))
        t0 = loop.time() + 0.01
        mine: List[Request] = []

        async def dispatch():
            for i in range(n):
                due = t0 + i / rate
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late = loop.time() - due
                for kind, name, lk in self.traffic.next():
                    req = Request(len(self.requests), kind, name, lk, due, late)
                    self.requests.append(req)
                    mine.append(req)
                    queue.put_nowait(req)
            for _ in range(CONNS):
                queue.put_nowait(None)

        async def worker():
            while True:
                req = await queue.get()
                if req is None:
                    return
                await self._send(req)

        tasks = [asyncio.create_task(dispatch())]
        tasks += [asyncio.create_task(worker()) for _ in range(CONNS)]
        for task in tasks:
            await task
        return mine, t0, t0 + n / rate

    async def _send(self, req: Request) -> None:
        loop = asyncio.get_running_loop()
        req.sent = loop.time()
        try:
            req.status, req.body = await http(
                self.port, submission(self.pool, req.name, req.lk)
            )
        except (OSError, ValueError) as exc:
            req.status, req.body = 0, {"error": repr(exc)}
        req.done = loop.time()

    async def _closed(self, seconds: float):
        """Keep ``CONNS`` requests in flight for ``seconds``."""
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(CONNS)
        mine: List[Request] = []
        tasks = []

        async def send(req: Request) -> None:
            try:
                await self._send(req)
            finally:
                slots.release()

        t0 = loop.time()
        while loop.time() < t0 + seconds:
            for kind, name, lk in self.traffic.next():
                await slots.acquire()
                now = loop.time()
                req = Request(len(self.requests), kind, name, lk, now, 0.0)
                self.requests.append(req)
                mine.append(req)
                tasks.append(asyncio.create_task(send(req)))
        await asyncio.gather(*tasks)
        return mine, t0

    def step(self, label: str, rate: float, seconds: float) -> Step:
        mine, t0, t_end = asyncio.run(self._step(rate, seconds))
        return Step(label, rate, mine, t0, t_end)

    def window(self, seconds: float) -> "Window":
        mine, t0 = asyncio.run(self._closed(seconds))
        return Window(mine, t0)


class Window:
    """One closed-loop window: the rate served and its p99 latency."""

    def __init__(self, requests: List[Request], t0: float):
        self.requests = requests
        self.seconds = max(r.done for r in requests) - t0
        self.rate = len(requests) / self.seconds
        self.p99 = percentile([(r.done - r.sent) * 1e3 for r in requests], 99)
        self.failed = sum(1 for r in requests if r.outcome == "failed")
        self.meets_slo = self.p99 <= SLO_MS and not self.failed

    def describe(self) -> str:
        return (
            f"closed-loop window: n={len(self.requests)} {self.rate:.1f} req/s"
            f" p99 {self.p99:.2f} ms failed {self.failed}"
            f"{'' if self.meets_slo else ' MISSES the limit'}"
        )


class Server:
    """``merced serve --port 0`` in its own process."""

    def __init__(self, root: str, cache_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             "--cache", cache_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=root,
            text=True,
        )
        self.maxrss_mb = 0.0
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.boot_s = time.perf_counter() - t0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, and keep the process's peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        pid = 0
        while not pid and time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if not pid:
                time.sleep(0.02)
        if not pid:
            self.proc.kill()
            pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = status
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()


def warm(port: int, pool: Pool, names: List[str]) -> List[str]:
    """Request each circuit once (CONNS at a time); returns failures."""

    async def go():
        sem = asyncio.Semaphore(CONNS)

        async def one(name):
            async with sem:
                return name, await http(port, submission(pool, name, LK))

        return await asyncio.gather(*(one(n) for n in names))

    return [
        f"warm-up {name}: status {status}"
        for name, (status, body) in asyncio.run(go())
        if status != 200 or not body.get("ok")
    ]


def metrics_delta(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer figures from two ``/metrics`` documents."""

    def num(doc, *path):
        for key in path:
            doc = doc.get(key, {}) if isinstance(doc, dict) else {}
        return float(doc) if isinstance(doc, (int, float)) else 0.0

    def d(*path):
        return num(after, *path) - num(before, *path)

    def ratio(hits, lookups):
        return hits / lookups if lookups else 0.0

    return {
        "exec.disk_hit_ratio": ratio(
            d("cache", "hits"), d("cache", "hits") + d("cache", "misses")
        ),
        "service.hot_hit_ratio": ratio(
            d("hot_cache", "hits"),
            d("hot_cache", "hits") + d("hot_cache", "misses"),
        ),
        "service.coalesced": d("counters", "coalesced"),
        "service.rejected": d("counters", "rejected_backpressure")
        + d("counters", "rejected_draining")
        + d("counters", "rejected_lint_queue"),
        "service.hot_evictions": d("hot_cache", "evictions"),
        "service.hot_bytes": num(after, "hot_cache", "payload_bytes"),
        "service.request_s": d("perf", "stages", "request", "seconds"),
        "exec.execute_s": d("perf", "stages", "execute", "seconds"),
    }


def inline_payload(bench: str, name: str, lk: int) -> str:
    """``merced_payload(Merced.run(...))`` of one point, as sorted JSON."""
    from repro import Merced, MercedConfig
    from repro.exec.task import merced_payload
    from repro.netlist.bench import parse_bench

    report = Merced(MercedConfig(lk=lk)).run(parse_bench(bench, name=name))
    return json.dumps(merced_payload(report), sort_keys=True)


class ServeMixed:
    """Set up (several times), drive the load, check every response."""

    def __init__(self, root: str, seed: int, pool: Pool, log):
        self.root, self.seed, self.pool, self.log = root, seed, pool, log
        self.failures: List[str] = []
        self.cache_dir = os.path.join(
            root, ".perfbench", f"serve-cache-{seed}-{os.getpid()}"
        )
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.server: Optional[Server] = None

    def setup(self) -> float:
        """Boot + warm ``SETUPS`` times on one cache; keep the last server.

        The first boot compiles the hot and disk sets; the later ones
        warm the hot set from the disk cache.  Returns the median.
        """
        times = []
        for i in range(SETUPS):
            if self.server is not None:
                self.server.stop()
            t0 = time.perf_counter()
            self.server = Server(self.root, self.cache_dir)
            names = self.pool.hot + (self.pool.disk if i == 0 else [])
            self.failures += warm(self.server.port, self.pool, names)
            times.append(time.perf_counter() - t0)
            self.log(
                f"set-up {i + 1}: boot {self.server.boot_s:.3f} s, "
                f"boot+warm {times[-1]:.3f} s"
            )
        return statistics.median(times)

    def drive(self, seconds: float, host, idle: Callable[[int], None]):
        """``ROUNDS`` rounds of the open-loop lo and hi steps and a
        closed-loop window.

        ``idle(i)`` runs after round ``i`` while the server is idle.
        ``host`` times the reference workload before and after every
        step, window and ``idle``; the caller takes the figures to the
        reference host's speed by the run's host factor.

        A step the generator fell behind on measured the host, not the
        service: it is logged and run again, up to ``STEP_TRIES`` times.
        ``max_rps_at_slo`` is the requests the windows served per second,
        a window whose p99 misses the limit counting as serving none.
        """
        port = self.server.port
        gen = Generator(port, self.pool, Traffic(self.pool, self.seed))
        steps: List[Step] = []

        def step(label: str, rate: float, length: float) -> Step:
            for _ in range(STEP_TRIES):
                s = gen.step(label, rate, length)
                self.log(s.describe())
                steps.append(s)
                if s.valid:
                    break
            return s

        # lazy first-use paths (coalescing, disk reads) finish here
        step("warm", RATE_LO, WARM_SHARE * seconds)
        before = get(port, "/metrics")
        los, his, windows = [], [], []
        host.sample(HOST_SAMPLES)
        for i in range(ROUNDS):
            los.append(step("lo", RATE_LO, LO_SHARE * seconds))
            host.sample(HOST_SAMPLES)
            his.append(step("hi", RATE_HI, HI_SHARE * seconds))
            host.sample(HOST_SAMPLES)
            windows.append(gen.window(WINDOW_SHARE * seconds))
            self.log(windows[-1].describe())
            host.sample(HOST_SAMPLES)
            idle(i)
            host.sample(HOST_SAMPLES)
        served = sum(len(w.requests) for w in windows if w.meets_slo)
        best = served / sum(w.seconds for w in windows)
        self.log(f"max_rps_at_slo {best:.1f} req/s")
        after = get(port, "/metrics")
        lo, hi = Level(los), Level(his)
        return gen, steps, lo, hi, best, metrics_delta(before, after)

    def check(self, gen: Generator, reference: Dict[Tuple[str, int], str]):
        """Each response byte-equal to an inline compile of its point.

        ``reference`` holds the hot and disk points.  Never-seen points
        share one netlist under different names, so their expected
        payload is the base compile with the name substituted; the
        first two are also compiled in full, which checks that the
        result does not depend on the name.
        """
        expected = dict(reference)
        base: Dict[int, dict] = {}
        full_checks = 0
        for req in gen.requests:
            key = (req.name, req.lk)
            if req.outcome == "failed":
                self.failures.append(
                    f"request {req.rid} ({req.kind} {req.name} lk={req.lk}): "
                    f"status {req.status} {str(req.body)[:120]}"
                )
                continue
            if key not in expected:
                if req.lk not in base:
                    base[req.lk] = json.loads(
                        inline_payload(self.pool.base, "sm-base", req.lk)
                    )
                want = dict(base[req.lk], circuit=req.name)
                expected[key] = json.dumps(want, sort_keys=True)
                if full_checks < 2:
                    full_checks += 1
                    if inline_payload(self.pool.base, req.name, req.lk) != (
                        expected[key]
                    ):
                        self.failures.append(
                            f"{req.name}: compile result depends on the name"
                        )
            if json.dumps(req.body["value"], sort_keys=True) != expected[key]:
                self.failures.append(
                    f"request {req.rid}: payload differs from inline compile"
                )
        return len(expected)

    def close(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return self.server.maxrss_mb if self.server else 0.0
