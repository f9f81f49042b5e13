"""Merced — the BIST compiler (Table 2 of the paper).

STEP 1  build ``G(V, E)`` from the netlist;
STEP 2  identify the strongly connected components;
STEP 3  ``Assign_CBIT(G, Δ, α, l_k)`` honouring Eq. 6 — which internally
        saturates the network (Table 3) and clusters it (Tables 4–7);
STEP 4  return the partition ``P`` and its cost.

On top of the paper's steps, the report carries the Table 10/11 row
(cut-net statistics + CPU time) and the Table 12 area comparison.
With ``config.optimize`` set, the STEP 3 result is additionally refined
by the local-search tier (:mod:`repro.optimize`) before costing, and the
report's ``optimize`` field records the before/after deltas.
"""

from __future__ import annotations

import time
from typing import Optional, Set

from ..analysis.lint import lint_circuit, lint_gate
from ..cbit.assemble import assemble_cbits
from ..errors import AnalysisError, NetlistError
from ..circuits.library import load_circuit
from ..config import MercedConfig
from ..graphs.build import build_circuit_graph
from ..graphs.scc import SCCIndex
from ..netlist.netlist import Netlist
from ..partition.assign_cbit import assign_cbit
from ..partition.make_group import make_group
from ..perf import count as perf_count
from ..perf import current_trace
from ..perf import stage as perf_stage
from .cost import compare_cbit_area
from .result import MercedReport, PartitionRow

__all__ = ["Merced", "CompilationArtifacts", "compile_circuit"]


class Merced:
    """Compile a synchronous netlist into a PPET-testable partition.

    Example:
        >>> from repro import Merced, MercedConfig, load_circuit
        >>> report = Merced(MercedConfig(lk=3, seed=7)).run(load_circuit("s27"))
        >>> report.n_partitions
        4
    """

    def __init__(self, config: Optional[MercedConfig] = None):
        self.config = config or MercedConfig()

    def run(
        self,
        netlist: Netlist,
        locked: Optional[Set[str]] = None,
        retimable_method: str = "scc-budget",
        graph=None,
        scc_index: Optional[SCCIndex] = None,
    ) -> MercedReport:
        """Run STEPs 1–4 on ``netlist`` and return the full report.

        Args:
            netlist: a validated synchronous circuit.
            locked: cell names Merced must not regroup (Table 5 option).
            retimable_method: ``"scc-budget"`` (paper accounting) or
                ``"solver"`` (exact retiming feasibility).
            graph: a prebuilt circuit graph of ``netlist`` (built with
                ``with_po_nodes=False``) to reuse across runs — e.g.
                consecutive sweep points on the same circuit.  The run
                resets its flow state, so sharing is safe; the compiled
                CSR arrays and SCC structure carry over unchanged.
            scc_index: the matching prebuilt :class:`SCCIndex`.

        Raises:
            AnalysisError: the entry lint gate found structural errors
                (undriven nets, combinational loops, ...); the rendered
                report is the message and the raw findings ride on
                ``exc.lint_diagnostics``.
            InfeasiblePartitionError: the gate's Eq. 5/6 prechecks prove
                the ``(l_k, β)`` point infeasible, or ``make_group``
                discovers it dynamically.
        """
        try:
            netlist.validate()
        except NetlistError as exc:
            # Re-diagnose through the linter so the abort carries a
            # structured report (undriven signals, combinational loops,
            # empty interface) instead of the first hard check's message.
            report = lint_circuit(netlist, self.config, locked=locked)
            if report.has_errors:
                gate_exc = AnalysisError(
                    "circuit lint failed:\n" + report.render_text()
                )
                gate_exc.lint_diagnostics = [
                    d.as_dict() for d in report.diagnostics
                ]
                raise gate_exc from exc
            raise
        trace = current_trace()
        if trace is not None:
            trace.set_meta(
                circuit=netlist.name,
                lk=self.config.lk,
                beta=self.config.beta,
                seed=self.config.seed,
            )
        t0 = time.perf_counter()
        if graph is None:
            with perf_stage("build_graph"):
                graph = build_circuit_graph(  # STEP 1
                    netlist, with_po_nodes=False
                )
        if scc_index is None:
            with perf_stage("scc"):
                scc_index = SCCIndex(graph)  # STEP 2
        with perf_stage("lint"):
            # Hard gate: structural errors raise AnalysisError,
            # (l_k, β)-infeasibility raises InfeasiblePartitionError
            # before any pipeline stage burns time on a doomed point.
            # Reuses graph/scc_index (and the CompiledGraph cached on
            # the graph), so no second graph build happens here.
            lint_gate(
                netlist,
                self.config,
                graph=graph,
                scc_index=scc_index,
                locked=locked,
            )
        with perf_stage("make_group"):
            group = make_group(  # STEP 3 (Tables 3-7)
                graph, scc_index, self.config, locked=locked
            )
        perf_count("splits", group.n_splits)
        if self.config.merge_clusters:
            with perf_stage("assign_cbit"):
                assigned = assign_cbit(group.partition)  # STEP 3 (Table 8)
            partition = assigned.partition
            cost_dff = assigned.cost_dff
            n_merges = assigned.n_merges
        else:
            from ..cbit.types import cbit_cost_for_inputs

            partition = group.partition
            cost_dff = sum(
                cbit_cost_for_inputs(c.input_count)[0]
                for c in partition.clusters
            )
            n_merges = 0
        perf_count("merges", n_merges)

        optimize_stats = None
        if self.config.optimize is not None:
            from ..optimize import optimize_partition

            with perf_stage("optimize"):
                refined = optimize_partition(
                    graph,
                    scc_index,
                    partition,
                    self.config,
                    name=netlist.name,
                    locked=locked,
                )
            partition = refined.partition
            cost_dff = refined.sigma_after
            optimize_stats = refined.stats()
            perf_count("optimize_moves", refined.n_accepted)
        cpu = time.perf_counter() - t0

        cut_nets = partition.cut_nets()
        perf_count("nets_cut", len(cut_nets))
        stats = netlist.stats()
        with perf_stage("area_accounting"):
            area = compare_cbit_area(
                circuit=stats.name,
                lk=self.config.lk,
                circuit_area_units=stats.area_units,
                cut_nets=cut_nets,
                scc_index=scc_index,
                method=retimable_method,
                graph=graph if retimable_method == "solver" else None,
            )
        row = PartitionRow(
            circuit=stats.name,
            n_dffs=stats.n_dffs,
            n_dffs_on_scc=scc_index.registers_on_sccs(),
            n_cut_nets_on_scc=area.n_cut_nets_on_scc,
            n_cut_nets=area.n_cut_nets,
            cpu_seconds=cpu,
        )
        with perf_stage("assemble_cbits"):
            plan = assemble_cbits(partition)
        return MercedReport(
            circuit_stats=stats,
            config=self.config,
            partition=partition,
            plan=plan,
            area=area,
            row=row,
            n_merges=n_merges,
            n_splits=group.n_splits,
            saturation_sources=group.saturation.n_sources,
            cost_dff=cost_dff,
            optimize=optimize_stats,
        )

    def run_named(self, name: str, **kwargs) -> MercedReport:
        """Convenience: :func:`repro.circuits.load_circuit` then :meth:`run`."""
        return self.run(load_circuit(name), **kwargs)


class CompilationArtifacts:
    """Everything :meth:`Merced.compile` produces in one call.

    Attributes:
        report: the partition/cost report (STEP 4 of Table 2).
        retiming: the cut-retiming solution (which cuts existing DFFs can
            cover), or ``None`` when ``retime=False``.
        retimed: the retimed netlist wrapper, or ``None``.
        bist: the emitted test-ready netlist, or ``None`` when
            ``emit_bist=False``.
    """

    def __init__(self, report, retiming=None, retimed=None, bist=None):
        self.report = report
        self.retiming = retiming
        self.retimed = retimed
        self.bist = bist

    def summary(self) -> str:
        lines = [self.report.render()]
        if self.retiming is not None:
            lines.append(
                f"retiming: {len(self.retiming.covered_cuts)} covered, "
                f"{len(self.retiming.dropped_cuts)} muxed, "
                f"{len(self.retiming.unconstrained_cuts)} unconstrained"
            )
        if self.bist is not None:
            lines.append(
                f"BIST netlist: {self.bist.netlist.name} "
                f"(+{self.bist.added_area_units} units)"
            )
        return "\n".join(lines)


def compile_circuit(
    netlist,
    config: Optional[MercedConfig] = None,
    retime: bool = True,
    emit_bist: bool = True,
    pin_io: bool = False,
    bist_kwargs: Optional[dict] = None,
) -> CompilationArtifacts:
    """One-call BIST compilation: partition, retime, emit hardware.

    Args:
        netlist: the circuit to compile.
        config: Merced parameters.
        retime: solve the cut retiming and apply it (the paper's area
            optimization); the *original* netlist is what the BIST
            inserter modifies — retiming results are reported alongside
            so a flow can choose which netlist to take forward.
        emit_bist: insert the test hardware (dual-mode, scan).
        pin_io: strict I/O-latency-preserving retiming (host condition).
        bist_kwargs: forwarded to
            :func:`repro.cbit.insert.insert_test_hardware`.

    Example:
        >>> from repro import load_circuit, MercedConfig
        >>> from repro.core.merced import compile_circuit
        >>> arts = compile_circuit(
        ...     load_circuit("s27"), MercedConfig(lk=3, seed=7)
        ... )
        >>> arts.report.n_partitions >= 3 and arts.bist is not None
        True
    """
    merced = Merced(config)
    report = merced.run(netlist)
    retiming = retimed = bist = None
    if retime:
        from ..retiming.apply import apply_retiming
        from ..retiming.solve import solve_cut_retiming

        graph = build_circuit_graph(netlist, with_po_nodes=True)
        retiming = solve_cut_retiming(
            graph,
            report.partition.cut_nets(),
            pin_io=pin_io,
        )
        retimed = apply_retiming(netlist, retiming.retiming.rho)
    if emit_bist:
        from ..cbit.insert import insert_test_hardware

        kwargs = dict(
            include_scan=True,
            include_primary_inputs=True,
            include_primary_outputs=True,
            dual_mode_controls=True,
        )
        kwargs.update(bist_kwargs or {})
        bist = insert_test_hardware(netlist, report.partition, **kwargs)
    return CompilationArtifacts(
        report=report, retiming=retiming, retimed=retimed, bist=bist
    )
