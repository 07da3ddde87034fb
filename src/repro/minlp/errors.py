"""Exceptions raised by the MINLP package."""

from __future__ import annotations


class MINLPError(Exception):
    """Base class for MINLP solver errors."""


class InfeasibleProblemError(MINLPError):
    """Raised when the root relaxation (or the whole problem) is infeasible."""
