"""Exception hierarchy.

Validation failures (bad config, bad parameters, rejected inputs) map to CLI
exit code 2, as does an OSError (a path that cannot be read or written);
numerical aborts discovered mid-run map to exit code 3.
"""


class M3LabError(Exception):
    """Base class for all package errors."""


class ConfigError(M3LabError):
    """Malformed or inconsistent run configuration."""


class ParameterError(M3LabError):
    """Model parameters violate a constraint (e.g. vanishing denominator)."""


class FieldError(M3LabError):
    """Field data rejected (wrong shape, non-finite entries)."""


class NumericalError(M3LabError):
    """Numerical abort during a run."""


class UnstableStepError(NumericalError):
    """Time step rejected: it ended non-finite, or its renormalization
    correction exceeded the bound."""


class DegenerateFieldError(NumericalError):
    """Frame construction or kinematic decomposition degenerate on too much of the grid."""


class IdentificationError(NumericalError):
    """Coefficient identification fixed-point failed to converge."""
