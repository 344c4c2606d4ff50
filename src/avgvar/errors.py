"""Exception types shared across the package.

Validation problems carry machine-readable codes (``E_*``) so the CLI can
print one line per violation and scripts can grep for them. A path that
fails at run time raises nothing of its own: ``run_ensemble`` flags it, and
only more failures than the budget end in ``FailureBudgetExceeded``.
"""


class AvgVarError(Exception):
    """Base class for all package errors."""


class ConfigError(AvgVarError):
    """Config is unreadable or has the wrong shape: a missing key, a value of
    the wrong type, or an unknown choice."""


class ValidationError(AvgVarError):
    """Model parameters or run settings violate one or more assumptions.

    ``violations`` is a nonempty list of (code, message) pairs; every violated
    assumption is reported, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{code}: {msg}" for code, msg in self.violations)
        super().__init__(f"validation failed: {lines}")


class InvalidGrid(AvgVarError):
    """Time grid is unusable (nonpositive horizon or fewer than 2 steps)."""


class EmptyEnsemble(AvgVarError):
    """An operation that needs at least one sample received none."""


class TooFewSamples(AvgVarError):
    """Not enough samples for the requested estimator (KDE needs >= 100)."""


class GridTooCoarse(AvgVarError):
    """Density x-grid has fewer than the minimum 21 points."""


class FailureBudgetExceeded(AvgVarError):
    """More than 0.1% of paths in an ensemble failed runtime guards."""
