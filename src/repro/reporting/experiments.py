"""Per-experiment drivers: one function per table / figure of the paper.

Every driver returns plain data (a :class:`~repro.reporting.tables.TextTable`
or :class:`~repro.reporting.series.FigureData`) so it can be reused by the
benchmark harness, the CLI and the tests.  The drivers accept the knobs that
control runtime (constraint grids, exact-solver settings) so the benchmark
suite can run a faithful-but-bounded configuration and record it in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.objective import PAPER_WEIGHTS, default_weights
from ..core.problem import AllocationProblem
from ..core.solvers import solve
from ..explore.compare import ComparisonSettings, compare_methods_over, speedup_summary
from ..explore.executor import SweepExecutor
from ..explore.runtime import runtime_comparison, speedups
from ..explore.sweep import t_parameter_sweep
from ..platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from ..platform.presets import XCVU9P, aws_f1
from ..platform.resources import ResourceVector
from ..workloads.alexnet import ALEX16_TABLE, ALEX32_TABLE, alexnet_fp32, alexnet_fx16
from ..workloads.vgg import VGG16_TABLE, vgg16_fx16
from .series import FigureData, Series
from .tables import TextTable

#: The three case studies of Section 4, keyed by short name.
CASE_STUDIES: dict[str, tuple[str, int]] = {
    "alex-16": ("alex-16", 2),
    "alex-32": ("alex-32", 4),
    "vgg-16": ("vgg-16", 8),
}


def case_study(name: str, resource_limit_percent: float = 100.0) -> AllocationProblem:
    """Build one of the paper's three case studies with its Table 4 weights."""
    if name == "alex-16":
        pipeline, fpgas = alexnet_fx16(), 2
    elif name == "alex-32":
        pipeline, fpgas = alexnet_fp32(), 4
    elif name == "vgg-16":
        pipeline, fpgas = vgg16_fx16(), 8
    else:
        raise ValueError(f"unknown case study {name!r}; options: {sorted(CASE_STUDIES)}")
    return AllocationProblem(
        pipeline=pipeline,
        platform=aws_f1(num_fpgas=fpgas, resource_limit_percent=resource_limit_percent),
        weights=default_weights(pipeline.name, fpgas),
    )


# --------------------------------------------------------------------------- #
# Tables 2-4
# --------------------------------------------------------------------------- #
def table2() -> TextTable:
    """Table 2: characterisation of the Alex-32 and Alex-16 kernels."""
    table = TextTable(
        headers=[
            "Kernel",
            "A32 BRAM%", "A32 DSP%", "A32 BW%", "A32 WCET(ms)",
            "A16 BRAM%", "A16 DSP%", "A16 BW%", "A16 WCET(ms)",
        ],
        title="Table 2: AlexNet kernel characterisation (per single CU)",
    )
    a16 = {row[0]: row[1:] for row in ALEX16_TABLE}
    for name, bram, dsp, bw, wcet in ALEX32_TABLE:
        bram16, dsp16, bw16, wcet16 = a16[name]
        table.add_row(name, bram, dsp, bw, wcet, bram16, dsp16, bw16, wcet16)
    alex32, alex16 = alexnet_fp32(), alexnet_fx16()
    table.add_row(
        "SUM",
        alex32.total_resources().bram, alex32.total_resources().dsp,
        alex32.total_bandwidth(), alex32.total_wcet_ms(),
        alex16.total_resources().bram, alex16.total_resources().dsp,
        alex16.total_bandwidth(), alex16.total_wcet_ms(),
    )
    return table


def table3() -> TextTable:
    """Table 3: characterisation of the VGG-16 kernels."""
    table = TextTable(
        headers=["Kernels", "BRAM%", "DSP%", "BW%", "WCET(ms)"],
        title="Table 3: VGG kernel characterisation (per single CU)",
    )
    for names, bram, dsp, bw, wcet in VGG16_TABLE:
        table.add_row(", ".join(names), bram, dsp, bw, wcet)
    vgg = vgg16_fx16()
    table.add_row(
        "SUM", vgg.total_resources().bram, vgg.total_resources().dsp,
        vgg.total_bandwidth(), vgg.total_wcet_ms(),
    )
    return table


def table4() -> TextTable:
    """Table 4: spreading-function weights per case study."""
    table = TextTable(
        headers=["Application", "FPGAs", "alpha", "beta"],
        title="Table 4: parameters for the spreading function",
    )
    for (application, fpgas), weights in sorted(PAPER_WEIGHTS.items()):
        table.add_row(application, fpgas, weights.alpha, weights.beta)
    return table


# --------------------------------------------------------------------------- #
# Figure 2: T-parameter sweep for Alex-16 on 2 FPGAs
# --------------------------------------------------------------------------- #
def figure2(
    constraints: Sequence[float] = tuple(range(40, 91, 5)),
    t_values: Sequence[float] = (0.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    executor: SweepExecutor | None = None,
) -> FigureData:
    """Figure 2: Alex-16 on 2 FPGAs, II vs resource constraint for several T."""
    problem = case_study("alex-16")
    figure = FigureData(
        name="figure2",
        x_label="resource constraint (%)",
        y_label="initiation interval (ms)",
        caption="Alex-16 on 2 FPGAs; GP+A heuristic with varying T (delta = 1%)",
    )
    sweeps = t_parameter_sweep(problem, constraints, t_values=t_values, executor=executor)
    for t_value, points in sweeps.items():
        xs = [p.resource_constraint for p in points]
        ys = [p.initiation_interval for p in points]
        figure.add_series(Series.from_xy(f"T{t_value:g}", xs, ys))
    return figure


# --------------------------------------------------------------------------- #
# Figures 3-5: GP+A vs MINLP vs MINLP+G
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MethodComparisonFigure:
    """The (a) and (b) panels of one of Figures 3-5 plus the raw outcomes."""

    name: str
    versus_constraint: FigureData
    versus_utilization: FigureData
    speedup: Mapping[str, Mapping[str, float]]


def _comparison_figure(
    figure_name: str,
    case: str,
    constraints: Sequence[float],
    exact_settings: ExactSettings,
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    executor: SweepExecutor | None = None,
) -> MethodComparisonFigure:
    problem = case_study(case)
    settings = ComparisonSettings(
        methods=tuple(methods),
        heuristic=HeuristicSettings(),
        exact=exact_settings,
    )
    points = compare_methods_over(problem, constraints, settings, executor=executor)

    panel_a = FigureData(
        name=f"{figure_name}a",
        x_label="resource constraint (%)",
        y_label="initiation interval (ms)",
        caption=f"{case} -- II vs per-FPGA resource constraint",
    )
    panel_b = FigureData(
        name=f"{figure_name}b",
        x_label="average resource (%)",
        y_label="initiation interval (ms)",
        caption=f"{case} -- II vs average FPGA utilisation",
    )
    for method in methods:
        xs_a, ys_a, xs_b, ys_b = [], [], [], []
        for point in points:
            outcome = point.outcomes[method]
            if not outcome.succeeded:
                continue
            xs_a.append(point.resource_constraint)
            ys_a.append(outcome.initiation_interval)
            xs_b.append(point.average_utilization(method))
            ys_b.append(outcome.initiation_interval)
        label = {"gp+a": "GP+A", "minlp": "MINLP", "minlp+g": "MINLP+G"}.get(method, method)
        panel_a.add_series(Series.from_xy(label, xs_a, ys_a))
        panel_b.add_series(Series.from_xy(label, xs_b, ys_b))

    speedup = {
        "minlp": speedup_summary(points, baseline="gp+a", reference="minlp"),
        "minlp+g": speedup_summary(points, baseline="gp+a", reference="minlp+g"),
    }
    return MethodComparisonFigure(
        name=figure_name,
        versus_constraint=panel_a,
        versus_utilization=panel_b,
        speedup=speedup,
    )


def figure3(
    constraints: Sequence[float] = (55, 60, 65, 70, 75, 80, 85),
    exact_settings: ExactSettings = ExactSettings(max_nodes=8, time_limit_seconds=60.0),
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    executor: SweepExecutor | None = None,
) -> MethodComparisonFigure:
    """Figure 3: AlexNet 16-bit fixed point on 2 FPGAs."""
    return _comparison_figure("figure3", "alex-16", constraints, exact_settings, methods, executor=executor)


def figure4(
    constraints: Sequence[float] = (65, 67, 70, 72, 75),
    exact_settings: ExactSettings = ExactSettings(max_nodes=8, time_limit_seconds=60.0),
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    executor: SweepExecutor | None = None,
) -> MethodComparisonFigure:
    """Figure 4: AlexNet 32-bit floating point on 4 FPGAs."""
    return _comparison_figure("figure4", "alex-32", constraints, exact_settings, methods, executor=executor)


def figure5(
    constraints: Sequence[float] = (55, 61, 65, 70, 75, 80),
    exact_settings: ExactSettings = ExactSettings(max_nodes=4, time_limit_seconds=90.0),
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    executor: SweepExecutor | None = None,
) -> MethodComparisonFigure:
    """Figure 5: VGG 16-bit fixed point on 8 FPGAs."""
    return _comparison_figure("figure5", "vgg-16", constraints, exact_settings, methods, executor=executor)


# --------------------------------------------------------------------------- #
# Figure 6: per-FPGA resource distribution for VGG at 61 %
# --------------------------------------------------------------------------- #
def skew_platform(
    skew_percent: float,
    base_constraint: float = 70.0,
    num_full: int = 1,
    num_derated: int = 1,
) -> MultiFPGAPlatform:
    """A two-class platform whose second class is derated by ``skew_percent``.

    At zero skew the two classes share one capacity (the homogeneous case,
    canonicalising to the plain ``aws_f1`` platform); growing skew widens the
    gap between the full-capacity and the derated FPGAs while keeping the
    aggregate capacity shrinking linearly -- the knob of the hetero-skew
    benchmark.
    """
    if skew_percent < 0 or skew_percent >= base_constraint:
        raise ValueError("skew must be in [0, base_constraint)")
    classes = (
        DeviceClass(XCVU9P, num_full, ResourceVector.full(base_constraint), 100.0),
        DeviceClass(
            XCVU9P, num_derated, ResourceVector.full(base_constraint - skew_percent), 100.0
        ),
    )
    return MultiFPGAPlatform.from_classes(classes, name=f"skew-{skew_percent:g}")


def hetero_skew(
    skews: Sequence[float] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
    methods: Sequence[str] = ("gp+a", "minlp"),
    base_constraint: float = 70.0,
    executor: SweepExecutor | None = None,
) -> FigureData:
    """Class-skew sweep: Alex-16 on a full + derated two-FPGA fleet.

    Sweeps the capacity gap between the two device classes (the paper's
    alex-16 platform with one die derated by the skew) and solves every
    point with the heuristic and the exact method; the emerging gap between
    the curves shows the solvers diverging on heterogeneous instances
    exactly as they do on the paper's homogeneous resource-constraint
    sweeps (Figs. 3-5).
    """
    from ..explore.executor import DEFAULT_EXECUTOR, SolveTask, run_solve_task

    executor = executor or DEFAULT_EXECUTOR
    pipeline = alexnet_fx16()
    figure = FigureData(
        name="hetero-skew",
        x_label="class skew (%)",
        y_label="initiation interval (ms)",
        caption=(
            f"Alex-16 on 1 full + 1 derated FPGA (R={base_constraint:g}%); "
            "derated class at R - skew"
        ),
    )
    tasks = [
        SolveTask(
            problem=AllocationProblem(
                pipeline=pipeline,
                platform=skew_platform(skew, base_constraint=base_constraint),
                weights=default_weights(pipeline.name, 2),
            ),
            method=method,
            tag=(method, skew),
        )
        for method in methods
        for skew in skews
    ]
    outcomes = executor.map(run_solve_task, tasks)
    for method in methods:
        xs, ys = [], []
        for task, outcome in zip(tasks, outcomes):
            if task.tag[0] != method:
                continue
            xs.append(task.tag[1])
            ys.append(outcome.initiation_interval)
        figure.add_series(Series.from_xy(method, xs, ys))
    return figure


def figure6(
    resource_constraint: float = 61.0,
    exact_settings: ExactSettings = ExactSettings(max_nodes=4, time_limit_seconds=90.0),
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
) -> dict[str, TextTable]:
    """Figure 6: how VGG kernels occupy the 8 FPGAs at a 61 % constraint.

    Returns one table per method; rows are kernels (plus SLACK), columns are
    the FPGAs, cells are the percentage of the binding (DSP) resource used.
    """
    problem = case_study("vgg-16", resource_limit_percent=resource_constraint)
    tables: dict[str, TextTable] = {}
    for method in methods:
        outcome = solve(problem, method=method, exact_settings=exact_settings)
        label = {"gp+a": "GP+A", "minlp": "MINLP", "minlp+g": "MINLP+G"}.get(method, method)
        table = TextTable(
            headers=["Kernel"] + [f"F{f + 1}" for f in range(problem.num_fpgas)],
            title=f"Figure 6 ({label}): VGG DSP utilisation per FPGA at R={resource_constraint:g}%",
        )
        if not outcome.succeeded or outcome.solution is None:
            table.add_row("(infeasible)", *["-"] * problem.num_fpgas)
            tables[method] = table
            continue
        solution = outcome.solution
        for name in problem.kernel_names:
            row = [
                problem.resource_of(name).dsp * solution.counts[name][f]
                for f in range(problem.num_fpgas)
            ]
            table.add_row(name, *row)
        slack = [
            max(0.0, 100.0 - solution.fpga_resource_usage(f).dsp)
            for f in range(problem.num_fpgas)
        ]
        table.add_row("SLACK", *slack)
        tables[method] = table
    return tables


# --------------------------------------------------------------------------- #
# Runtime comparison (Section 4, text)
# --------------------------------------------------------------------------- #
def runtime_table(
    cases: Sequence[str] = ("alex-16", "alex-32", "vgg-16"),
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    resource_constraint: float = 70.0,
    repetitions: int = 1,
    exact_settings: ExactSettings = ExactSettings(max_nodes=8, time_limit_seconds=120.0),
    executor: SweepExecutor | None = None,
) -> TextTable:
    """CPU-time comparison of the three methods on the three case studies."""
    problems = [
        (case, case_study(case, resource_limit_percent=resource_constraint)) for case in cases
    ]
    measurements = runtime_comparison(
        problems, methods=methods, repetitions=repetitions, exact_settings=exact_settings,
        executor=executor,
    )
    by_case_speedup = speedups(measurements, baseline_method="gp+a")
    table = TextTable(
        headers=["Case", "Method", "Runtime (s)", "Speedup of GP+A"],
        title=f"Solver CPU time at R={resource_constraint:g}% (paper: GP+A 0.78-4.4 s, MINLP 1 min-hours)",
    )
    for measurement in measurements:
        speedup = ""
        if measurement.method != "gp+a":
            value = by_case_speedup.get(measurement.case, {}).get(measurement.method)
            speedup = f"{value:.1f}x" if value else ""
        table.add_row(measurement.case, measurement.method, measurement.median_seconds, speedup)
    return table

