"""An environment probe, kept only for the benchmark's environment stamp.

No solver uses this module: the exact solvers run on NumPy and plain
Python.  ``perfbench/harness.py`` imports :func:`highspy_available` to
record the ``lp_backend`` of the host it measures on.
"""


def highspy_available() -> bool:
    """Whether scipy's vendored HiGHS bindings import in this process."""
    try:
        from scipy.optimize._highspy import _core  # noqa: F401
    except ImportError:
        return False
    return True
