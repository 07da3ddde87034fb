"""Reporting for the allocation service: cache and batch counters as tables.

The service's ``/stats`` endpoint and :class:`~repro.service.store.CacheStats`
carry raw counters; these helpers render them in the same plain-text table
format as the paper's experiment drivers, so CLI output, logs and CI smoke
jobs all read the same way.
"""

from __future__ import annotations

from typing import Any, Mapping

from .tables import TextTable


def cache_stats_table(stats: Mapping[str, Any], title: str = "Result cache") -> TextTable:
    """Render cache tier counters (``CacheStats.as_dict()`` or ``/stats['cache']``)."""
    table = TextTable(headers=["counter", "value"], title=title)
    for counter in (
        "memory_hits",
        "disk_hits",
        "misses",
        "puts",
        "evictions",
        "disk_evictions",
        "ttl_evictions",
        "lookups",
    ):
        if counter in stats:
            table.add_row(counter, int(stats[counter]))
    if "hit_rate" in stats:
        table.add_row("hit_rate", f"{100.0 * float(stats['hit_rate']):.1f}%")
    return table


#: Solver work counters rendered by :func:`solver_stats_table`, in display
#: order: the exact paths' instrumentation (bin-packer search nodes and the
#: packing memo of ``minlp``, the candidates and split-search nodes of
#: ``minlp+g``).
SOLVER_COUNTERS = (
    "packs",
    "packer_search_nodes",
    "packer_completion_nodes",
    "packer_exact_searches",
    "packing_memo_hits",
    "packing_memo_misses",
    "candidates_considered",
    "candidates_visited",
    "split_search_nodes",
)


def solver_stats_table(
    counters: Mapping[str, Any], title: str = "Solver work counters"
) -> TextTable:
    """Render solver work counters (``/stats['solver']``, outcome counters or
    a batch report's ``solver_counters``)."""
    table = TextTable(headers=["counter", "value"], title=title)
    for counter in SOLVER_COUNTERS:
        if counter in counters:
            table.add_row(counter, int(counters[counter]))
    for counter in sorted(set(counters) - set(SOLVER_COUNTERS)):
        table.add_row(counter, int(counters[counter]))
    return table


def service_stats_table(stats: Mapping[str, Any]) -> TextTable:
    """Render a full ``/stats`` document (service + cache + jobs + solver)."""
    table = TextTable(headers=["counter", "value"], title="Allocation service")
    service = stats.get("service", {})
    for counter in ("requests", "batches", "solves"):
        if counter in service:
            table.add_row(counter, int(service[counter]))
    if "uptime_seconds" in service:
        table.add_row("uptime_seconds", f"{float(service['uptime_seconds']):.1f}")
    for tier, size in stats.get("cache_sizes", {}).items():
        table.add_row(f"{tier}_entries", int(size))
    for tier, size in stats.get("cache_bytes", {}).items():
        table.add_row(f"{tier}_bytes", int(size))
    cache = stats.get("cache", {})
    for counter in ("evictions", "disk_evictions", "ttl_evictions"):
        if cache.get(counter):
            table.add_row(f"cache_{counter}", int(cache[counter]))
    jobs = stats.get("jobs", {})
    for counter in ("submitted", "completed", "failed", "queued", "running"):
        if jobs.get(counter):
            table.add_row(f"jobs_{counter}", int(jobs[counter]))
    for counter, value in stats.get("solver", {}).items():
        table.add_row(f"solver_{counter}", int(value))
    return table


def batch_report_table(report: Mapping[str, Any]) -> TextTable:
    """Render a ``BatchReport.as_dict()`` (or ``/solve_batch['report']``)."""
    table = TextTable(headers=["counter", "value"], title="Batch solve report")
    for counter in ("total", "unique", "duplicates", "memory_hits", "disk_hits", "solves"):
        if counter in report:
            table.add_row(counter, int(report[counter]))
    if "runtime_seconds" in report:
        table.add_row("runtime_seconds", f"{float(report['runtime_seconds']):.3f}")
    return table
