"""The drop-set verifier: the cut-retiming solution vs its cover contract.

:func:`repro.retiming.verify.verify_drop_set` is the oracle the fuzz
``solver`` check and the benchmark's artifact checks run against every
solve: legal lags, covered ⊎ dropped ⊎ unconstrained is the requested
cut universe, and every covered cut actually registered.  These tests
pin it on corpus circuits with real ring structure, and make sure it
rejects misclassified solutions instead of only accepting real ones.
"""

from dataclasses import replace

import pytest

from repro.config import MercedConfig
from repro.corpus import load_corpus_circuit
from repro.corpus.fuzz import check_solvers
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import assign_cbit, make_group
from repro.retiming.solve import solve_cut_retiming
from repro.retiming.verify import verify_drop_set


@pytest.mark.parametrize("name", ["corpus-ff400", "corpus-ring600"])
def test_solver_check_corpus(name):
    assert check_solvers(load_corpus_circuit(name)) is None


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["corpus-chord800", "corpus-coupled1k", "corpus-hub1k"]
)
def test_solver_check_corpus_slow(name):
    assert check_solvers(load_corpus_circuit(name)) is None


def test_verify_drop_set_flags_bad_classifications():
    """The verifier rejects misclassified solutions, not just real ones."""
    netlist = load_corpus_circuit("corpus-ring600")
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(seed=1996, lk=16, beta=1, min_visit=5)
    group = make_group(graph, scc_index, config, strict=False)
    cuts = assign_cbit(group.partition).partition.cut_nets()
    sol = solve_cut_retiming(graph, cuts)
    assert sol.covered_cuts, "ring600 should cover cuts"
    assert verify_drop_set(graph, cuts, sol, minimal=True) is None

    # relabel one covered cut as dropped → not a minimal drop set
    victim = sorted(sol.covered_cuts)[0]
    bad = replace(
        sol,
        covered_cuts=set(sol.covered_cuts) - {victim},
        dropped_cuts=set(sol.dropped_cuts) | {victim},
    )
    assert verify_drop_set(graph, cuts, bad, minimal=True) is not None
    # ... but it still passes the non-minimal contract
    assert verify_drop_set(graph, cuts, bad, minimal=False) is None
    # losing a cut from the universe split fails either way
    lost = replace(sol, covered_cuts=set(sol.covered_cuts) - {victim})
    assert verify_drop_set(graph, cuts, lost, minimal=False) is not None
