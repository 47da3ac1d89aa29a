"""Shared exception types for the toolkit."""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-contract input data."""


class ConvergenceError(RuntimeError):
    """A numerical solve or training run failed to produce a finite result.

    ``residual`` carries the final (relative) residual when known; a solve
    that produced non-finite values reports ``inf``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
