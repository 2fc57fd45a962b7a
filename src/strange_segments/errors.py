"""Exception types shared across the package.

Validation failures name the violated invariant so the CLI can emit a
machine-readable error record; numerical failures carry whatever tolerance
was actually achieved.
"""

from __future__ import annotations


class StrangeSegmentsError(Exception):
    """Base class for all package errors."""


class ModelValidationError(StrangeSegmentsError):
    """An input model or configuration violates a documented invariant."""

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(message)

    def __reduce__(self):  # so the error crosses a process pool intact
        return type(self), (self.invariant, self.args[0])


class NumericalError(StrangeSegmentsError):
    """A numerical routine failed to converge to its requested tolerance."""


class QuadratureError(NumericalError):
    """Adaptive quadrature stopped before reaching the target error."""

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.args[0], self.achieved)


class BracketError(NumericalError):
    """Root bracketing failed; with a valid steep model this cannot happen."""


class SteepnessWarning(UserWarning):
    """The numerical spot check of log-MGF steepness did not pass."""
