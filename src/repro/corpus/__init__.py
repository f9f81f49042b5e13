"""Scalable circuit corpus + continuous differential fuzzing.

The Table 9 generator (:mod:`repro.circuits.generator`) reproduces the
*paper's* benchmark statistics exactly — but its largest circuit is
s5378-sized, far below the scale the compiled kernels, incremental
retiming solver, and compile service claim to handle.  This package
closes that gap:

* :mod:`repro.corpus.spec` — :class:`CorpusSpec`, the constrained random
  topology description: gate count (tested up to 500k), SCC depth and
  ring size, fanout distribution, register density, pipeline depth.
* :mod:`repro.corpus.topology` — the O(n) generator that realises a
  spec as a lint-clean :class:`~repro.netlist.netlist.Netlist`, plus
  :func:`describe_netlist` for structural summaries.
* :mod:`repro.corpus.registry` — named specs: the committed seed corpus
  under ``benchmarks/corpus/`` and the large trend-bench circuits.
* :mod:`repro.corpus.fuzz` — the differential fuzz harness: runs
  compiled-vs-reference kernels, the retiming drop-set oracle, and
  service-vs-inline ``Merced.run`` on random corpus circuits, shrinks
  any mismatch to a minimal reproducer and archives it as a regression
  ``.bench`` file (driven by ``scripts/fuzz_differential.py``).
* :mod:`repro.corpus.cli` — the ``merced corpus`` subcommand
  (``generate`` / ``seed`` / ``describe``).
"""

from .spec import CorpusSpec
from .topology import describe_netlist, generate_corpus_circuit
from .registry import (
    SEED_CORPUS_SPECS,
    TREND_SPECS,
    corpus_spec_names,
    load_corpus_circuit,
    spec_by_name,
)

__all__ = [
    "CorpusSpec",
    "generate_corpus_circuit",
    "describe_netlist",
    "SEED_CORPUS_SPECS",
    "TREND_SPECS",
    "corpus_spec_names",
    "load_corpus_circuit",
    "spec_by_name",
]
