"""Shared exception types for the toolkit, and ``whole``, the check of its integer inputs."""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-contract input data."""


class ConvergenceError(RuntimeError):
    """A numerical solve or training run failed to produce a finite result."""


def whole(value, message: str, low: int = 0, high: float = float("inf")) -> int:
    """``value`` as an int if it is a whole number in [low, high], else ``DataError(message)``.

    Ints, numpy ints and whole-valued floats such as 21.0 pass; bools, None,
    strings, nan and inf do not.
    """
    try:
        ok = not isinstance(value, bool) and int(value) == value and low <= value <= high
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DataError(message)
    return int(value)
