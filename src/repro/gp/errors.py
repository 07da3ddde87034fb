"""Exceptions raised by the geometric programming package."""

from __future__ import annotations


class GPError(Exception):
    """Base class for all geometric-programming errors."""


class InfeasibleError(GPError):
    """Raised when the solver proves infeasibility."""
