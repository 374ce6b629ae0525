"""Exception types shared across the package."""


class NetwakeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NetwakeError):
    """Raised when a configuration document cannot be parsed or validated.

    Carries the offending key and line number when known, so CLI users can
    locate the problem in their config file.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        parts = []
        if key is not None:
            parts.append(f"key '{key}'")
        if line is not None:
            parts.append(f"line {line}")
        suffix = f" ({', '.join(parts)})" if parts else ""
        super().__init__(message + suffix)
        self.key = key
        self.line = line


class SeedingError(NetwakeError):
    """Raised when the requested seed set cannot be drawn from a network."""


class LinkSamplingError(NetwakeError):
    """Raised when the links do not fit: fewer free node pairs remain than
    links asked for, a cutoff d_c does not exceed the radio range, no pair
    beyond the radio range has positive weight, or an exact count finds
    too few free pairs of positive weight."""


class ExperimentInfeasibleError(NetwakeError):
    """Raised when every replicate of an experiment is infeasible."""

    def __init__(self, message: str, failure_count: int):
        super().__init__(f"{message} ({failure_count} failed replicates)")
        self.failure_count = failure_count


class EstimationError(NetwakeError):
    """Raised when a crossing or fit cannot be extracted from sweep results."""
