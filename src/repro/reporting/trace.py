"""Reporting for recorded solve traces: per-phase breakdown tables.

The tracing subsystem (:mod:`repro.obs.trace`) answers "where did the
wall clock go" for one solve; this module turns that answer into the
same plain-text tables the paper's experiment drivers emit.  The
``repro-fpga trace`` CLI drives :func:`traced_runtime_rows` -- the nine
(case, method) rows of the runtime table, each solved cold under a
trace -- and renders one :func:`span_breakdown_table` per row plus the
:func:`traced_runtime_table` summary.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..core.discretize import discretization_cache_clear
from ..core.exact import ExactSettings
from ..core.gp_step import gp_step_cache_clear
from ..core.heuristic import allocation_cache_clear
from ..core.solvers import solve
from ..minlp.binpacking import shared_packing_memos_clear
from ..obs.trace import SolveTrace, start_trace
from .experiments import case_study
from .tables import TextTable

#: The runtime-table grid (Section V of the paper): three case studies,
#: three methods, R = 70%.
RUNTIME_CASES = ("alex-16", "alex-32", "vgg-16")
RUNTIME_METHODS = ("gp+a", "minlp", "minlp+g")


def cold_solver_caches() -> None:
    """Drop every cross-call memo tier the solvers share.

    Traced rows are solved cold so the spans measure real work, not memo
    lookups (mirroring the perf-gate benchmark's cache discipline).
    """
    shared_packing_memos_clear()
    discretization_cache_clear()
    gp_step_cache_clear()
    allocation_cache_clear()


def traced_runtime_rows(
    cases: Sequence[str] = RUNTIME_CASES,
    methods: Sequence[str] = RUNTIME_METHODS,
    resource_constraint: float = 70.0,
    exact_settings: ExactSettings = ExactSettings(max_nodes=8, time_limit_seconds=120.0),
) -> list[dict[str, Any]]:
    """Solve every (case, method) row cold under a trace.

    Returns ``[{"case", "method", "trace", "wall_seconds"}, ...]`` with
    the :class:`~repro.obs.trace.SolveTrace` objects still live (callers
    serialise via ``trace.as_dict()`` / ``traces_to_jsonl``).
    """
    rows: list[dict[str, Any]] = []
    for case in cases:
        problem = case_study(case, resource_limit_percent=resource_constraint)
        for method in methods:
            cold_solver_caches()
            with start_trace("solve", case=case, method=method) as trace:
                solve(problem, method=method, exact_settings=exact_settings)
            rows.append(
                {
                    "case": case,
                    "method": method,
                    "trace": trace,
                    "wall_seconds": trace.duration_seconds,
                }
            )
    return rows


def span_breakdown_table(
    trace: "SolveTrace | Mapping[str, Any]", title: str | None = None
) -> TextTable:
    """Per-phase breakdown of one trace (direct children of the root).

    Accepts a live :class:`SolveTrace` or its ``as_dict`` payload (the
    document served by ``GET /trace/<fingerprint>``).
    """
    if not isinstance(trace, SolveTrace):
        trace = SolveTrace.from_dict(trace)
    wall = trace.duration_seconds
    table = TextTable(
        headers=["Phase", "Count", "Seconds", "% of wall"],
        title=title or f"Trace: {trace.name}",
    )
    for phase, entry in sorted(
        trace.breakdown().items(), key=lambda item: -item[1]["seconds"]
    ):
        share = 100.0 * entry["seconds"] / wall if wall > 0 else 0.0
        table.add_row(phase, int(entry["count"]), f"{entry['seconds']:.4f}", f"{share:.1f}%")
    table.add_row("(wall clock)", "", f"{wall:.4f}", f"{100.0 * trace.coverage():.1f}% covered")
    return table


def _top_phases(trace: SolveTrace, limit: int = 3) -> str:
    wall = trace.duration_seconds
    parts = []
    for phase, entry in sorted(
        trace.breakdown().items(), key=lambda item: -item[1]["seconds"]
    )[:limit]:
        share = 100.0 * entry["seconds"] / wall if wall > 0 else 0.0
        parts.append(f"{phase} {share:.0f}%")
    return ", ".join(parts)


def traced_runtime_table(rows: Sequence[Mapping[str, Any]]) -> TextTable:
    """Summary of :func:`traced_runtime_rows`: wall, coverage, top phases."""
    table = TextTable(
        headers=["Case", "Method", "Wall (s)", "Coverage", "Top phases"],
        title="Traced runtime table (cold caches, per-phase spans)",
    )
    for row in rows:
        trace = row["trace"]
        if not isinstance(trace, SolveTrace):
            trace = SolveTrace.from_dict(trace)
        table.add_row(
            row["case"],
            row["method"],
            f"{trace.duration_seconds:.3f}",
            f"{100.0 * trace.coverage():.1f}%",
            _top_phases(trace),
        )
    return table
