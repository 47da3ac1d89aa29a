"""Shared exception types, and ``real`` and ``whole``, the checks of numeric inputs."""

import math
import numbers


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-contract input data."""


class ConvergenceError(RuntimeError):
    """A numerical solve or training run failed to produce a finite result."""


def real(value, rule: str, valid=lambda x: True) -> float:
    """``value`` as a float if it is a finite number that ``valid`` accepts.

    Ints, floats and numpy numbers pass; bools (Python or numpy), None,
    strings, nan and inf do not.  A value that fails raises
    ``DataError(f"{rule}, got {value}")``, which is only formatted then.
    """
    try:  # the float test first, as the ABC check costs ten times more
        ok = ((type(value) is float or isinstance(value, numbers.Real)
               and not isinstance(value, bool)) and math.isfinite(value) and valid(value))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise DataError(f"{rule}, got {value}")
    return float(value)


def whole(value, rule: str, low: int = 0, high: float = float("inf")) -> int:
    """``value`` as an int if it is a whole number in [low, high].

    Ints, numpy ints and whole-valued floats such as 21.0 pass; what
    :func:`real` rejects does not, and raises as it does.
    """
    real(value, rule, lambda x: int(x) == x and low <= x <= high)
    return int(value)
