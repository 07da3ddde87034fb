"""Design-space exploration: sweeps, method comparisons, runtime measurement.

All sweep/comparison/runtime entry points execute through the
:class:`~repro.explore.executor.SweepExecutor` engine, which runs tasks in
deterministic serial chunks by default and fans out over a process pool when
configured (``ExecutorSettings(parallel=True, max_workers=N)``).
"""

from .compare import (
    ComparisonPoint,
    ComparisonSettings,
    compare_methods_over,
    speedup_summary,
)
from .executor import (
    DEFAULT_EXECUTOR,
    ExecutorSettings,
    SolveTask,
    SweepExecutor,
    available_workers,
    run_solve_task,
)
from .runtime import (
    RuntimeMeasurement,
    measure_method_runtime,
    runtime_comparison,
    speedups,
    time_callable,
)
from .sweep import (
    SweepPoint,
    default_constraint_range,
    fpga_count_sweep,
    t_parameter_sweep,
)

__all__ = [
    "ComparisonPoint",
    "ComparisonSettings",
    "DEFAULT_EXECUTOR",
    "ExecutorSettings",
    "RuntimeMeasurement",
    "SolveTask",
    "SweepExecutor",
    "SweepPoint",
    "available_workers",
    "compare_methods_over",
    "default_constraint_range",
    "fpga_count_sweep",
    "measure_method_runtime",
    "run_solve_task",
    "runtime_comparison",
    "speedup_summary",
    "speedups",
    "t_parameter_sweep",
    "time_callable",
]
