"""Shared exception types for the toolkit."""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-contract input data."""


class ConvergenceError(RuntimeError):
    """A numerical solve or training run failed to produce a finite result."""
