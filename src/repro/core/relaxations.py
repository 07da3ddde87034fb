"""Convex node relaxations for the exact (MINLP) allocation solver.

At every branch-and-bound node the integer variables ``n_kf`` have box bounds
``l <= n <= u``.  The continuous relaxation of the paper's problem
(eqs. 5-10) restricted to that box is convex once the concave spreading terms
``n/(1+n)`` are replaced by their secants over ``[l, u]`` (see
:mod:`repro.minlp.secant`):

* for a *fixed* initiation interval ``II`` the remaining problem is a linear
  program (minimise the relaxed spreading ``phi``),
* the optimal value ``g(II) = alpha * II + beta * phi*(II)`` is convex in
  ``II`` (LP value convex in its right-hand side composed with the convex,
  coordinate-wise decreasing coverage requirement ``max(1, WCET_k / II)``),

so the node bound is obtained by a scalar convex search over ``II`` with one
LP solve per probe.  The LPs run on persistent HiGHS models through scipy's
vendored bindings (``scipy.optimize._highspy._core``, scipy >= 1.15), loaded
on the first LP.

The hot path is engineered to keep both the per-LP cost and the LP count per
node low:

* **Incremental assembly** -- the constraint matrix is built once per
  relaxation instance; per node only the secant rows (bound-box-dependent)
  and the variable bounds are patched, and per probe only the coverage
  right-hand side (II-dependent).  Nothing is re-allocated in the loop.
* **One-LP feasibility** -- the smallest feasible II of a box is the optimum
  of a single auxiliary LP (maximise ``t`` subject to
  ``sum_f n_kf >= WCET_k * t``), replacing the former 60-step feasibility
  bisection; a child box that still contains the point its parent's
  feasibility LP found takes the parent's answer without an LP.
* **Tangent-cut II search** -- in ``s = 1/II`` the relaxed spreading is
  convex and piecewise linear, so each probe LP yields a tangent cut (its
  value plus a subgradient read off the coverage-row duals).  The next probe
  is the minimiser of the cut model -- the stationary point of one piece or
  the kink where two tangents meet -- and the search stops once a probe
  certifies the model minimum, which is the node bound: never above the
  relaxation's true minimum and within ``ii_search_tolerance`` of it.
  Nodes typically need one to three probes.

Every LP solve and probe is counted (:meth:`counters`), so callers
can assert LP-solves-per-node budgets end to end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..minlp.bounds import VariableBounds
from ..minlp.branch_and_bound import RelaxationResult
from ..obs.trace import span
from .objective import ObjectiveWeights
from .problem import AllocationProblem

#: Oldest scipy that vendors the pybind11 HiGHS core the LPs run on.
SCIPY_FLOOR = "1.15"

#: Safety margin subtracted from node bounds so that the inexactness of the
#: scalar search can never prune the true optimum.
BOUND_SAFETY = 1e-7

#: Probe LPs after which the II search returns its (still valid) cut-model
#: bound uncertified; it converges in a handful.
_MAX_PROBES = 40


@functools.cache
def _highs():
    """scipy's vendored HiGHS bindings (``scipy.optimize._highspy._core``).

    Loaded on the first LP, never at import: a server that answers only
    GP+A requests never pays SciPy's import time or memory.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError as error:
        raise ImportError(
            f"the MINLP relaxation needs scipy>={SCIPY_FLOOR}, which vendors "
            "the HiGHS bindings as scipy.optimize._highspy._core"
        ) from error
    return _core


def highspy_available() -> bool:
    """Whether scipy's vendored HiGHS bindings load in this process.

    The name predates the vendored bindings; the benchmark's environment
    stamp (``perfbench/harness.py``) imports it.
    """
    try:
        _highs()
    except ImportError:
        return False
    return True


class _PersistentHighsLP:
    """One HiGHS model kept hot across solves (rows are ``A x <= b``).

    The model is passed to HiGHS once; afterwards only the row right-hand
    sides, the variable bounds and (for the goal LP) the secant coefficients
    are hot-swapped, so repeated solves skip the assembly and restart from
    the previous basis.
    """

    def __init__(self, cost: np.ndarray, matrix: np.ndarray, rhs: np.ndarray, bounds: np.ndarray):
        highs = _highs()
        num_rows, num_cols = matrix.shape
        self._num_cols = num_cols
        self._col_index = np.arange(num_cols, dtype=np.int32)
        self._optimal = highs.HighsModelStatus.kOptimal
        self._inf = highs.kHighsInf
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        # These LPs are tiny (tens of rows); presolve costs more than it
        # saves and discards the basis that makes re-solves after an RHS
        # hot-swap nearly free.
        solver.setOptionValue("presolve", "off")
        lp = highs.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.col_cost_ = np.asarray(cost, dtype=np.float64)
        lp.col_lower_ = np.asarray(bounds[:, 0], dtype=np.float64)
        lp.col_upper_ = np.asarray(bounds[:, 1], dtype=np.float64)
        lp.row_lower_ = np.full(num_rows, -self._inf)
        lp.row_upper_ = np.asarray(rhs, dtype=np.float64)
        # Column-wise sparse assembly: the Fortran-order ravel lists the
        # entries column by column, rows ascending; a boolean mask scans
        # faster than floats, and the bindings copy lists faster than arrays.
        flat = matrix.ravel(order="F")
        entries = np.flatnonzero(flat != 0)
        a_matrix = lp.a_matrix_
        a_matrix.format_ = highs.MatrixFormat.kColwise
        a_matrix.start_ = np.searchsorted(
            entries, np.arange(0, num_rows * num_cols + 1, num_rows)
        ).tolist()
        a_matrix.index_ = (entries % num_rows).tolist()
        a_matrix.value_ = flat[entries].tolist()
        if solver.passModel(lp) == highs.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the LP model")
        self._solver = solver
        self._matrix = np.array(matrix, dtype=np.float64)
        self._last_rhs = np.asarray(rhs, dtype=np.float64).copy()
        self._last_bounds = np.asarray(bounds, dtype=np.float64).copy()

    def sync(self, rhs: np.ndarray, bounds: np.ndarray) -> None:
        """Push the current right-hand sides and variable bounds.

        The bindings set row bounds one row at a time, so changed rows are
        detected against the last pushed right-hand side and patched
        individually; column bounds go through the index-set setter.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        for row in np.nonzero(rhs != self._last_rhs)[0]:
            self._solver.changeRowBounds(int(row), -self._inf, float(rhs[row]))
        self._last_rhs = rhs.copy()
        bounds = np.asarray(bounds, dtype=np.float64)
        if not np.array_equal(bounds, self._last_bounds):
            self._solver.changeColsBounds(
                self._num_cols,
                self._col_index,
                np.ascontiguousarray(bounds[:, 0]),
                np.ascontiguousarray(bounds[:, 1]),
            )
            self._last_bounds = bounds.copy()

    def set_coefficients(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Hot-swap individual matrix coefficients (the secant rows).

        Only coefficients that differ from the model's are pushed: a branch
        moves one variable's bounds, so most secant slopes stay put.
        """
        changed = np.nonzero(self._matrix[rows, cols] != values)[0]
        for index in changed:
            self._solver.changeCoeff(int(rows[index]), int(cols[index]), float(values[index]))
        self._matrix[rows, cols] = values

    def solve(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """Solve; returns ``(x, row_duals)`` or ``None`` when not optimal."""
        self._solver.run()
        if self._solver.getModelStatus() != self._optimal:
            return None
        solution = self._solver.getSolution()
        return (
            np.asarray(solution.col_value, dtype=np.float64),
            np.asarray(solution.row_dual, dtype=np.float64),
        )


def variable_name(kernel: str, fpga: int) -> str:
    """Canonical name of the integer variable ``n_{k,f}`` (0-based FPGA)."""
    return f"{kernel}|f{fpga}"


def variable_names(problem: AllocationProblem) -> tuple[str, ...]:
    """Every ``n_{k,f}`` name, kernel-major (the (K, F) grid flattened).

    Memoized on the frozen problem, so the root bounds of a search and the
    relaxation's model share one tuple.
    """
    names = problem.__dict__.get("_cached_variable_names")
    if names is None:
        names = tuple(
            variable_name(kernel, fpga)
            for kernel in problem.kernel_names
            for fpga in range(problem.num_fpgas)
        )
        object.__setattr__(problem, "_cached_variable_names", names)
    return names


class _RelaxationModel:
    """Preassembled LP data shared by every node of one relaxation.

    Holds two constraint systems over the flat variable vector
    ``[n_11, ..., n_KF, extra]``:

    * the *goal LP* (``extra`` = phi): coverage rows (RHS patched per II
      probe), capacity rows (static), secant rows (coefficients patched per
      bound box) and symmetry rows (static);
    * the *feasibility LP* (``extra`` = t): fully static rows, only variable
      bounds are patched per box.
    """

    def __init__(self, relaxation: "AllocationRelaxation"):
        problem = relaxation.problem
        self.names = problem.kernel_names
        self.num_fpgas = problem.num_fpgas
        num_k = len(self.names)
        num_f = self.num_fpgas
        num_n = num_k * num_f
        self.num_k, self.num_n = num_k, num_n
        self.var_names = variable_names(problem)
        self.wcet = np.array([problem.wcet[name] for name in self.names])
        self.ii_high = float(self.wcet.max())

        dimensions = problem.capacity_dimensions()
        weights = np.array(
            [[dim.weights.get(name, 0.0) for name in self.names] for dim in dimensions]
        ).reshape(len(dimensions), num_k)
        # Per-FPGA capacity rows: one row per (dimension, FPGA).  On a
        # heterogeneous platform the right-hand side varies per class; the
        # one-class case degenerates to the uniform cap repeated F times.
        fpga_capacities = np.array(
            [dim.fpga_capacities(num_f) for dim in dimensions]
        ).reshape(len(dimensions), num_f)

        symmetry_dim = relaxation._symmetry_dimension() if (
            relaxation.symmetry_breaking and num_f > 1
        ) else None
        sym_weights = (
            np.array([symmetry_dim.weights.get(name, 0.0) for name in self.names])
            if symmetry_dim is not None
            else None
        )
        # FPGAs are interchangeable only when identically sized, so the
        # symmetry-breaking ordering applies to adjacent pairs with equal
        # capacity columns (platform FPGA order is class-major, so every
        # class -- and every run of equal-capacity classes -- is contiguous;
        # capacity equality also covers distinct classes with equal caps,
        # e.g. the zero-skew endpoint of the skew sweep).
        sym_pairs = (
            [
                f
                for f in range(num_f - 1)
                if np.array_equal(fpga_capacities[:, f], fpga_capacities[:, f + 1])
            ]
            if sym_weights is not None
            else []
        )
        num_sym = len(sym_pairs)

        def static_rows(matrix: np.ndarray, offset: int) -> int:
            """Fill capacity + symmetry rows into ``matrix`` starting at ``offset``."""
            for dim_index in range(len(dimensions)):
                for fpga in range(num_f):
                    matrix[offset, fpga:num_n:num_f] = weights[dim_index]
                    offset += 1
            if sym_weights is not None:
                for fpga in sym_pairs:
                    matrix[offset, fpga:num_n:num_f] -= sym_weights
                    matrix[offset, fpga + 1 : num_n : num_f] += sym_weights
                    offset += 1
            return offset

        num_cap = len(dimensions) * num_f

        # --- goal LP: [n..., phi], rows: coverage | capacity | symmetry | secant
        goal_rows = num_k + num_cap + num_sym + num_k
        self.goal_a = np.zeros((goal_rows, num_n + 1))
        self.goal_b = np.zeros(goal_rows)
        for k in range(num_k):
            self.goal_a[k, k * num_f : (k + 1) * num_f] = -1.0
        end = static_rows(self.goal_a, num_k)
        self.goal_b[num_k : num_k + num_cap] = fpga_capacities.reshape(-1)
        self.secant_offset = end
        secant_rows = np.repeat(np.arange(num_k), num_f) + end
        self.secant_index = (secant_rows, np.arange(num_n))
        self.goal_a[end : end + num_k, -1] = -1.0
        self.goal_cost = np.zeros(num_n + 1)
        self.goal_cost[-1] = 1.0
        self.goal_bounds = np.zeros((num_n + 1, 2))
        self.goal_bounds[-1] = (0.0, float(num_f * num_k))

        # --- feasibility LP: [n..., t], rows: coverage-t | min-one | capacity | symmetry
        feas_rows = 2 * num_k + num_cap + num_sym
        self.feas_a = np.zeros((feas_rows, num_n + 1))
        self.feas_b = np.zeros(feas_rows)
        for k in range(num_k):
            self.feas_a[k, k * num_f : (k + 1) * num_f] = -1.0
            self.feas_a[k, -1] = self.wcet[k]
            self.feas_a[num_k + k, k * num_f : (k + 1) * num_f] = -1.0
            self.feas_b[num_k + k] = -1.0
        static_rows(self.feas_a, 2 * num_k)
        self.feas_b[2 * num_k : 2 * num_k + num_cap] = fpga_capacities.reshape(-1)
        self.feas_cost = np.zeros(num_n + 1)
        self.feas_cost[-1] = -1.0  # maximise t
        self.feas_bounds = np.zeros((num_n + 1, 2))
        self.feas_bounds[-1] = (0.0, np.inf)


@dataclass(frozen=True)
class AllocationRelaxation:
    """LP-based convex relaxation of the allocation MINLP over a bound box.

    Each instance keeps one persistent HiGHS model per LP (goal and
    feasibility), built on first use; nodes and probes only hot-swap its
    right-hand sides, variable bounds and secant coefficients.
    ``ii_search_tolerance`` is the relative gap between the best probed goal
    and the cut-model minimum at which the II search stops.
    """

    problem: AllocationProblem
    weights: ObjectiveWeights
    symmetry_breaking: bool = True
    ii_search_tolerance: float = 1e-6

    # ------------------------------------------------------------------ #
    # Cached state on the frozen instance
    # ------------------------------------------------------------------ #
    @property
    def _model(self) -> _RelaxationModel:
        model = self.__dict__.get("_cached_model")
        if model is None:
            model = _RelaxationModel(self)
            object.__setattr__(self, "_cached_model", model)
        return model

    @property
    def _counters(self) -> dict[str, int]:
        counters = self.__dict__.get("_cached_counters")
        if counters is None:
            counters = {
                "lp_solves": 0,
                "feasibility_lps": 0,
                "probe_lps": 0,
                "node_solves": 0,
            }
            object.__setattr__(self, "_cached_counters", counters)
        return counters

    def counters(self) -> dict[str, int]:
        """Snapshot of the instrumentation counters."""
        return dict(self._counters)

    def _highs_lp(self, which: str) -> _PersistentHighsLP:
        """The persistent goal (``"goal"``) or feasibility (``"feas"``) model."""
        attribute = f"_cached_highs_{which}"
        lp = self.__dict__.get(attribute)
        if lp is None:
            model = self._model
            if which == "goal":
                lp = _PersistentHighsLP(
                    model.goal_cost, model.goal_a, model.goal_b, model.goal_bounds
                )
            else:
                lp = _PersistentHighsLP(
                    model.feas_cost, model.feas_a, model.feas_b, model.feas_bounds
                )
            object.__setattr__(self, attribute, lp)
        return lp

    # ------------------------------------------------------------------ #
    # Public entry point (plugs into the branch-and-bound engine)
    # ------------------------------------------------------------------ #
    def solve(
        self, bounds: VariableBounds, parent: RelaxationResult | None = None
    ) -> RelaxationResult:
        """Lower bound + fractional solution for a node's box bounds.

        ``bounds`` must range over :func:`variable_names` of the problem, in
        that order; the returned ``values`` follow it too.  ``parent`` (the
        enclosing node's relaxation, passed by the branch-and-bound engine)
        may spare the feasibility LP: see :meth:`_min_feasible_ii`.
        """
        with span("relaxation"):
            model = self._model
            if bounds.names is not model.var_names and bounds.names != model.var_names:
                raise ValueError("bounds do not range over the problem's variables in order")
            counters = self._counters
            counters["node_solves"] += 1
            lower = bounds.lower.astype(np.float64)
            upper = bounds.upper.astype(np.float64)

            feasibility = self._min_feasible_ii(lower, upper, parent)
            ii_min, feasible_point = feasibility
            if ii_min is None:
                return RelaxationResult.infeasible()

            if not self.weights.spreading_enabled:
                # Pure II objective: phi is irrelevant and the feasibility
                # LP's point already satisfies coverage at ii_min -- zero
                # further LPs.
                return RelaxationResult(
                    feasible=True,
                    objective=self.weights.alpha * ii_min - BOUND_SAFETY,
                    values=feasible_point,
                    metadata={"feasibility": feasibility},
                )

            self._patch_box(lower, upper)
            evaluations: dict[float, tuple[np.ndarray, float]] = {}

            def probe(ii: float) -> "tuple[float, float] | None":
                solved = self._solve_goal_lp(ii)
                if solved is None:
                    return None
                values, phi, slope = solved
                evaluations[ii] = (values, phi)
                return phi, slope

            bound = self._certified_minimum(probe, ii_min, model.ii_high)
            if bound is None:
                return RelaxationResult.infeasible()
            best_ii = min(
                evaluations, key=lambda ii: self.weights.goal(ii, evaluations[ii][1])
            )
            return RelaxationResult(
                feasible=True,
                objective=bound - BOUND_SAFETY,
                values=evaluations[best_ii][0],
                metadata={"feasibility": feasibility},
            )

    # ------------------------------------------------------------------ #
    # Minimum feasible II (at most one LP)
    # ------------------------------------------------------------------ #
    def _min_feasible_ii(
        self, lower: np.ndarray, upper: np.ndarray, parent: RelaxationResult | None = None
    ) -> "tuple[float, np.ndarray] | tuple[None, None]":
        """Smallest II for which the box admits a feasible point, plus one
        such point; ``(None, None)`` if the box is infeasible outright.

        A child box lies inside its parent's, so when the parent's
        feasibility-LP point also lies inside the child box it attains the
        parent's optimum ``t*`` there too, and the parent's answer is the
        child's -- no LP needed.
        """
        model = self._model
        counters = self._counters
        inherited = parent.metadata.get("feasibility") if parent is not None else None
        # Cheap screen: every kernel must be able to reach one CU in total.
        totals_upper = upper.reshape(model.num_k, model.num_fpgas).sum(axis=1)
        if np.any(totals_upper < 1.0 - 1e-9):
            return None, None
        if (
            inherited is not None
            and np.all(lower <= inherited[1])
            and np.all(inherited[1] <= upper)
        ):
            return inherited
        ii_floor = float(np.max(model.wcet / np.maximum(totals_upper, 1e-12)))
        ii_floor = max(ii_floor, 1e-9)
        model.feas_bounds[: model.num_n, 0] = lower
        model.feas_bounds[: model.num_n, 1] = upper
        counters["lp_solves"] += 1
        counters["feasibility_lps"] += 1
        solved = self._solve_lp("feas", model.feas_b, model.feas_bounds)
        if solved is None:
            return None, None
        values, _ = solved
        t_value = float(values[-1])
        if t_value <= 0.0:
            return None, None
        ii_min = max(ii_floor, 1.0 / t_value)
        return min(ii_min, model.ii_high), values[: model.num_n]

    # ------------------------------------------------------------------ #
    # Scalar search: tangent cuts of the convex spreading in s = 1/II
    # ------------------------------------------------------------------ #
    def _certified_minimum(self, probe, ii_low: float, ii_high: float) -> float | None:
        """Certified lower bound on the goal's minimum over ``[ii_low, ii_high]``.

        ``probe(ii)`` solves the goal LP and returns ``(phi, slope)``, or
        ``None`` when it is infeasible.  The search works in ``s = 1/II``,
        where the relaxed spreading ``phi(s)`` is convex: the LP value is
        convex and nondecreasing in the coverage right-hand sides
        ``max(1, WCET_k * s)``, which are convex in ``s``.  ``slope`` (from
        the coverage-row duals) is a subgradient of ``phi`` at the probe, so
        the tangent ``phi_i + slope_i * (s - s_i)`` lies below ``phi``
        everywhere.  Hence the cut model
        ``M(s) = alpha / s + beta * max_i tangent_i(s)`` lies below the goal
        ``G(s) = alpha / s + beta * phi(s)`` on the whole bracket, and
        ``min M`` is a valid lower bound on ``min G`` whatever the probes
        were.  ``M`` is convex, so its minimiser is an endpoint, the
        stationary point ``sqrt(alpha / (beta * slope_i))`` of a tangent
        piece, or the intersection of two tangents (a kink of ``phi``); all
        of them are enumerated and the best is the next probe.  The search
        stops once the best probed goal is within ``ii_search_tolerance``
        (relative) of ``min M``: then ``min M <= min G <= min M + tol``, and
        ``min M`` is the bound returned.  ``phi`` is piecewise linear, so
        a probe on the optimal piece, or on both sides of the optimal kink,
        makes the model exact there; the gap then closes to rounding noise.
        """
        alpha, beta = self.weights.alpha, self.weights.beta
        probed = probe(ii_low)
        if probed is None:
            # The feasibility LP and the goal LP disagree within solver
            # tolerance; nudge upward once before declaring infeasibility.
            ii_low = min(ii_low * (1.0 + 1e-9) + 1e-12, ii_high)
            probed = probe(ii_low)
            if probed is None:
                return None
        s_low, s_high = 1.0 / ii_high, 1.0 / ii_low
        points, phis, slopes = [s_high], [probed[0]], [probed[1]]
        best_goal = alpha * ii_low + beta * probed[0]
        for _ in range(_MAX_PROBES):
            bound, s_next = _cut_model_minimum(alpha, beta, s_low, s_high, points, phis, slopes)
            if best_goal - bound <= self.ii_search_tolerance * max(1.0, abs(bound)):
                break
            probed = probe(1.0 / s_next)
            if probed is None:  # pragma: no cover - should stay feasible
                break
            points.append(s_next)
            phis.append(probed[0])
            slopes.append(probed[1])
            best_goal = min(best_goal, alpha / s_next + beta * probed[0])
        return bound

    # ------------------------------------------------------------------ #
    # The fixed-II linear program (patched, never rebuilt)
    # ------------------------------------------------------------------ #
    def _patch_box(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Write a node's secant rows and variable bounds into the goal LP."""
        model = self._model
        # Vectorized chords of the concave spreading term n/(1+n) on [l, u].
        h_lower = lower / (1.0 + lower)
        h_upper = upper / (1.0 + upper)
        widths = upper - lower
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.where(widths > 0.0, (h_upper - h_lower) / widths, 0.0)
        intercepts = h_lower - slopes * lower
        model.goal_a[model.secant_index] = slopes
        offset = model.secant_offset
        model.goal_b[offset : offset + model.num_k] = -intercepts.reshape(
            model.num_k, model.num_fpgas
        ).sum(axis=1)
        model.goal_bounds[: model.num_n, 0] = lower
        model.goal_bounds[: model.num_n, 1] = upper
        self._highs_lp("goal").set_coefficients(
            model.secant_index[0], model.secant_index[1], slopes
        )

    def _solve_lp(
        self, which: str, rhs: np.ndarray, bounds: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Solve one patched LP; returns ``(x, row_duals)`` or ``None``.

        Re-syncs the right-hand sides and variable bounds into the persistent
        model; its matrix was already patched by :meth:`_patch_box`.
        """
        lp = self._highs_lp(which)
        lp.sync(rhs, bounds)
        return lp.solve()

    def _solve_goal_lp(self, ii: float) -> "tuple[np.ndarray, float, float] | None":
        """Minimise relaxed spreading at fixed II; ``None`` if infeasible.

        Returns the variable values, phi and a subgradient of phi in
        ``s = 1/II`` at this probe (from the coverage-row duals).
        """
        model = self._model
        counters = self._counters
        requirements = np.maximum(1.0, model.wcet / ii)
        model.goal_b[: model.num_k] = -requirements
        counters["lp_solves"] += 1
        counters["probe_lps"] += 1
        solved = self._solve_lp("goal", model.goal_b, model.goal_bounds)
        if solved is None:
            return None
        full_values, duals = solved
        values = full_values[: model.num_n]
        phi = float(full_values[-1])
        # d(phi)/ds = -sum_k dual_k * WCET_k over the kernels whose
        # coverage requirement WCET_k * s is still above 1 (the row duals of
        # A x <= b are nonpositive, so the slope is >= 0).
        marginals = duals[: model.num_k]
        active = model.wcet > ii
        slope = -float(np.sum(marginals[active] * model.wcet[active]))
        return values, phi, slope

    def _symmetry_dimension(self):
        """Dimension used for the symmetry-breaking ordering (largest demand)."""
        dimensions = self.problem.capacity_dimensions()
        if not dimensions:
            return None
        return max(dimensions, key=lambda d: sum(d.weights.values()) / max(d.capacity, 1e-9))


def _cut_model_minimum(
    alpha: float,
    beta: float,
    s_low: float,
    s_high: float,
    points: list[float],
    phis: list[float],
    slopes: list[float],
) -> tuple[float, float]:
    """Minimum and minimiser of ``M(s) = alpha / s + beta * max_i tangent_i(s)``
    over ``[s_low, s_high]``, for the tangents ``phi_i + slope_i * (s - s_i)``.

    The candidates are, in this order, the bracket ends, each tangent's
    stationary point ``sqrt(alpha / (beta * slope_i))`` and the crossing of
    every ordered pair of tangents; the first candidate with the smallest
    model value wins.  The search keeps a handful of tangents, so this runs
    on Python floats: NumPy's per-call dispatch would cost more than the
    arithmetic.  A non-positive ``beta * slope_i`` has no stationary point
    and parallel tangents do not cross.
    """
    offsets = [phi - slope * s for phi, slope, s in zip(phis, slopes, points)]
    candidates = [s_low, s_high]
    for slope in slopes:
        scaled = beta * slope
        if scaled > 0.0:
            candidates.append(math.sqrt(alpha / scaled))
    for offset_i, slope_i in zip(offsets, slopes):
        for offset_j, slope_j in zip(offsets, slopes):
            if slope_j != slope_i:
                candidates.append((offset_i - offset_j) / (slope_j - slope_i))
    best: "tuple[float, float] | None" = None
    for s in candidates:
        if not s_low <= s <= s_high:
            continue
        value = alpha / s + beta * max(
            offset + slope * s for offset, slope in zip(offsets, slopes)
        )
        if best is None or value < best[0]:
            best = (value, s)
    assert best is not None  # s_low is always a candidate
    return best
