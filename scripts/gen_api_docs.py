"""Generate docs/API.md from the package's docstrings.

Walks ``repro``'s subpackages and emits a markdown reference: one section
per module with its docstring summary and the signatures + first
docstring lines of its public (``__all__``) items.

Run:
    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parents[1] / "docs" / "API.md"

# Hand-written preamble kept here (not in API.md) so regeneration
# preserves it.
PREAMBLE = """\
## Installation & running the examples

The package is pure Python; its one runtime dependency is numpy.
Install it editable for development (`pip install -e .`), or skip
installation entirely: every `examples/*.py` script bootstraps `src/`
onto `sys.path` relative to its own location, so
`python examples/quickstart.py` works from a fresh clone, from any
working directory. For the test suite and the CLI without installing,
use `PYTHONPATH=src` (e.g. `PYTHONPATH=src python -m pytest -x -q`).

## Profiling

`merced CIRCUIT --profile [FILE]` emits a JSON trace of per-stage
wall-clock timers and hot-path counters (Dijkstra runs, relaxations,
flow injections, merge attempts, nets cut, faults graded) to `FILE`, or
to stdout when no file is given; combined with `--selftest` the PPET
session is traced too. Programmatically, wrap any code in
`repro.perf.profiled(label)` to get a `PerfTrace`, or call
`activate`/`deactivate` for explicit control; `repro.perf.stage(name)`
and `repro.perf.count(name, n)` are the no-op-when-inactive probes the
library's hot paths use. See `repro.perf.trace` below for the full
surface.

## Parallel sweep farm

`merced sweep CIRCUITS... [--lk L...] [--beta B...] [--seeds S...]
--jobs N --cache DIR` shards a parameter grid across worker processes
with an on-disk result cache. The building blocks live in `repro.exec`:
a `SweepPoint` is one self-contained grid point (canonical `.bench`
text + full config, seed included), `SweepFarm.map` executes a list of
points with per-point timeouts, bounded retries, and dead-worker
recovery (failures degrade to error rows instead of sinking the sweep),
and `ResultCache` stores successful payloads keyed by
`point_key` — the SHA-256 of (netlist bytes, config, `code_version()`),
so any source change invalidates the cache key-side. Results are
bit-identical at any `--jobs` count and across cache round-trips; the
sweeps in `repro.core.sweep` (`sweep_lk`, `sweep_beta`,
`seed_stability`) all accept a `farm=` argument.

Per-point timeouts are enforced by `repro.exec.watchdog.deadline`:
`SIGALRM` on the main thread, a timer-driven async-exception watchdog
on worker threads — so `timeout=` means the same thing in a threaded
embedder as it does in the CLI, and platforms where neither mechanism
exists surface a `timeouts_unenforced` counter instead of failing
silently.

## Compile service

`merced serve` exposes the farm as a long-running HTTP/JSON service
(`repro.service`, stdlib `asyncio` only): concurrent identical
submissions are coalesced onto one execution keyed by `point_key`,
admission is bounded with `429`-style backpressure (`Retry-After`
included), per-request deadlines are enforced off the main thread by
the watchdog, `SIGTERM` drains gracefully (finish in-flight, reject new
with `503`, flush cache temp files), and `GET /metrics` aggregates the
service counters, `PerfTrace` stage timers, queue depth, `CacheStats`,
and watchdog stats. `merced submit` is the matching client CLI built on
`repro.service.ServiceClient`; `ServiceThread` embeds the service in a
daemon thread for blocking callers. Payloads are bit-identical to
inline `Merced.run` results.

## Compiled graph kernels

The hot partition/retiming kernels do not run on the string-keyed
`CircuitGraph` directly: `repro.graphs.csr.compile_graph(graph)`
returns a `CompiledGraph` that interns every node and net name to a
dense integer id (ids follow insertion order, so iterating ids *is*
iterating the reference ordering) and lays the topology out as CSR
arrays — out-/in-adjacency per node, sink lists and source per net,
deduplicated successor rows for Tarjan, plus mirrors of per-net
distance and kind/boundary flags in flat lists and bytearrays.
Membership tests use epoch-stamped scratch arrays (`next_epoch()`
bumps a counter instead of reallocating visited sets), which is what
lets `Make_Set` re-run its DFS thousands of times without per-split
set churn. The compiled view is built lazily once per circuit and
cached on the graph keyed by its `topo_version`: structural mutation
(`add_node`/`add_net`) invalidates it, while mutable per-net flow
state does not — kernels refresh distances with `reload_dist()`.
One `CompiledGraph` is therefore shared by Tarjan SCC, `Make_Group`,
`Assign_CBIT`, `FlowIndex`, and consecutive sweep points on the same
circuit; `rebind(graph)` re-targets the arrays at a structurally
identical graph object without rebuilding. Every compiled kernel is
bit-identical to its reference counterpart (`make_set_reference`,
`strongly_connected_components_reference`, `use_compiled=False`
paths), which the equivalence suites in `tests/graphs/` and
`tests/partition/` enforce on random and bundled circuits.

## Static analysis

`repro.analysis` is the two-front static diagnostics engine. The
circuit/DFT linter (`merced lint CIRCUIT|FILE.bench [--lk N] [--beta N]
[--json] [--suppress RULE[,RULE]] [--min-severity LEVEL]`) runs the full
rule catalog below over a netlist before any pipeline stage; `Merced.run`
executes the same catalog as a hard entry gate (error findings abort with
the rendered report on the exception and machine-readable payloads in
`exc.lint_diagnostics`; feasibility-class errors — `BUD001`, `BUD003` —
raise `InfeasiblePartitionError`, structural errors raise
`AnalysisError`; warnings become perf counters under `--profile`). The
kernel-invariant linter (`python scripts/lint_kernels.py src/
[--tests-dir DIR] [--json] [--suppress RULE]`) walks source ASTs for the
`KRN` rules. Suppress a finding inline with `# lint: disable=RULE`
(comma-separated ids, or `all`) on the flagged line, per-run with
`--suppress`, and filter with `--min-severity info|warning|error`.
"""


def rule_table() -> str:
    """Markdown table of every lint rule id, severity and title."""
    from repro.analysis.kernel_lint import KERNEL_RULES
    from repro.analysis.rules import rule_catalog

    rows = [
        "### Lint rule catalog",
        "",
        "| Rule | Severity | Title | Paper ref |",
        "|---|---|---|---|",
    ]
    for r in tuple(rule_catalog()) + KERNEL_RULES:
        rows.append(
            f"| `{r.rule_id}` | {r.severity} | {r.title} "
            f"| {r.paper_ref or '—'} |"
        )
    return "\n".join(rows)


def first_paragraph(doc: str) -> str:
    if not doc:
        return "*(undocumented)*"
    lines = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def constant_repr(obj) -> str:
    """Deterministic repr: stable set ordering, no memory addresses."""
    if isinstance(obj, (set, frozenset)):
        body = ", ".join(sorted(constant_repr(x) for x in obj))
        return f"{type(obj).__name__}({{{body}}})"
    return re.sub(r" at 0x[0-9a-f]+", "", repr(obj))


def describe(obj, name: str = "") -> str:
    if inspect.isclass(obj):
        try:
            sig = str(inspect.signature(obj))
        except (ValueError, TypeError):
            sig = "(...)"
        return f"class `{obj.__name__}{sig}`"
    if inspect.isfunction(obj):
        try:
            sig = str(inspect.signature(obj))
        except (ValueError, TypeError):
            sig = "(...)"
        return f"`{obj.__name__}{sig}`"
    return f"constant `{name} = {constant_repr(obj)}`"


def iter_modules():
    prefix = repro.__name__ + "."
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix), key=lambda i: i.name
    ):
        if info.name.endswith("__init__"):
            continue
        yield importlib.import_module(info.name)


def main() -> None:
    out = [
        "# API reference",
        "",
        "*Generated by `scripts/gen_api_docs.py` — do not edit by hand.*",
        "",
        PREAMBLE,
        "",
        rule_table(),
        "",
    ]
    for module in iter_modules():
        public = getattr(module, "__all__", None)
        if not public:
            continue
        out.append(f"## `{module.__name__}`")
        out.append("")
        out.append(first_paragraph(module.__doc__ or ""))
        out.append("")
        for name in public:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            home = getattr(obj, "__module__", module.__name__)
            if callable(obj) and home != module.__name__:
                continue  # re-export; documented at its home module
            if not callable(obj):
                out.append(f"- {describe(obj, name)}")
                continue
            summary = first_paragraph(getattr(obj, "__doc__", "") or "")
            out.append(f"- {describe(obj, name)} — {summary}")
        out.append("")
    OUT.write_text("\n".join(out) + "\n")
    print(f"wrote {OUT} ({len(out)} lines)")


if __name__ == "__main__":
    main()
