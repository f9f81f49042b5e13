"""The ``merced serve`` compile service: HTTP/JSON over the sweep farm.

One long-running asyncio server puts the sweep farm
(:mod:`repro.exec`), which already hardens per-point execution, behind
a network front-end so work can arrive from *outside* the process:

* :mod:`repro.service.protocol` — a minimal stdlib HTTP/1.1 codec
  (JSON in, JSON out, ``Content-Length`` framing, hard size limits);
* :mod:`repro.service.server` — :class:`CompileService`: request
  coalescing keyed by :func:`~repro.exec.hashing.point_key`, a bounded
  admission queue with ``429`` backpressure, per-request deadlines
  enforced off the main thread by :mod:`repro.exec.watchdog`, an
  in-memory hot tier of serialized payloads, graceful SIGTERM drain,
  and a ``/metrics`` endpoint;
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  blocking client the ``merced submit`` CLI and the tests share, with
  ``Retry-After``-honoring busy retries;
* :mod:`repro.service.cli` — the ``merced serve`` / ``merced submit``
  subcommand entry points.

Payloads returned over the wire are bit-identical to inline
:class:`~repro.core.merced.Merced` runs: the service executes the same
:func:`~repro.exec.task.run_point` kinds through the same farm and
cache, and its responses are JSON-stable (sorted keys) so equality is
byte equality.
"""

from .client import ServiceClient
from .server import CompileService, ServiceConfig, ServiceMetrics, ServiceThread

__all__ = [
    "ServiceClient",
    "CompileService",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceThread",
]
