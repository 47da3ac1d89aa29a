"""Quasi-reversibility extrapolation of option prices.

Running the pricing PDE du/dtau = (sigma^2/2) s^2 d2u/ds2 in the forecast
direction is unstable, so instead of time-stepping we minimize the Tikhonov
functional

    J_beta(u) = || D_tau u - (sigma^2/2) s^2 D_ss u ||^2  +  beta || u - F ||^2

over a small space-time rectangle, where F is the quoted data continued onto
the grid.  The tau = 0 row of F is today's option mid at every stock node,
the low/high stock edges are the option bid/ask extended linearly in tau at
the rate they moved since the previous day, and interior rows interpolate
linearly between the edges.  The tau = 0 row and both stock edges are imposed
exactly; only interior nodes are unknowns, so the normal-equation matrix
A^T A + beta I is symmetric positive definite and the minimizer is unique.

Discretization: first-order forward differences in tau, second-order central
differences in s, on an n_s x n_tau grid covering two forecast days.  The
stock axis is centered on today's stock mid with half-width
max(half bid/ask spread, sigma * sqrt(2 * horizon) * stock mid), i.e. at
least the two-day diffusion scale, and is assembled in stock-mid units (the
s^2 d2/ds2 operator is invariant under that scaling).

Solve: the operator is held as its coefficients, kappa_i = sigma^2 s_i^2 /
(2 ds^2) per interior stock node and d = 1/dtau.  With the unknowns grouped by
tau column the normal matrix is block tridiagonal with n_tau - 1 blocks of
size n_s - 2: diagonal blocks d^2 I + T^T T + beta I (the last one
(d^2 + beta) I) and off-diagonal blocks d T^T, where
T = tridiag(-kappa_i, 2 kappa_i - d, -kappa_i) holds kappa_i in row i.  Block
forward elimination and back-substitution solve it directly for the
correction u - F, whose right-hand side is A^T(-R(F)) with R the PDE
residual, so data that already satisfy the PDE come back unchanged.

The days of a series are assembled and eliminated together in blocks: each
tau step makes one stacked solve and one stacked Schur update for every day
of the block.  Back-substitution keeps every coupling block C_k, which is
(n_tau - 1)(n_s - 2)^2 floats per day, so the block size is the number of
days whose coupling blocks fit in a fixed 1 MiB, and at least one day (36
days on the 21 x 11 grid, one on 81 x 41).  A single solve is a block of
one day.  Every operation acts on each day separately, so a day's result is
bit-identical whichever days share its block, and an error names the
earliest failing day, as solving day by day would.

The forecast EST is the solved surface at the central stock node one trading
day ahead; odd grid sizes guarantee both indices exist exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError
from .market_data import TRADING_DAY_YEARS, QuoteRecord

__all__ = [
    "AssembledSystem",
    "Minimizer",
    "QrmConfig",
    "QrmGrid",
    "assemble_system",
    "estimate_series",
    "solve_qrm",
]

# Bytes the coupling blocks C_k of one block of days may take; the block
# size follows from it and the grid, and is at least one day.
_COUPLING_BUDGET = 1 << 20


@dataclass(frozen=True)
class QrmConfig:
    """Grid and regularization parameters."""

    n_s: int = 21
    n_tau: int = 11
    beta: float = 0.01
    horizon: float = TRADING_DAY_YEARS

    def __post_init__(self) -> None:
        for name in ("n_s", "n_tau"):
            v = getattr(self, name)
            if int(v) != v or v < 3 or v % 2 == 0:
                raise DataError(f"{name} must be an odd integer >= 3, got {v}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DataError(f"beta must be > 0, got {self.beta}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DataError(f"horizon must be > 0, got {self.horizon}")


@dataclass(frozen=True)
class QrmGrid:
    """Solution rectangle: stock nodes (currency), tau nodes (years), surface u."""

    s_values: np.ndarray
    tau_values: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        n_s, n_tau = len(self.s_values), len(self.tau_values)
        if self.u.shape != (n_s, n_tau):
            raise DataError(f"surface shape {self.u.shape} does not match grid {(n_s, n_tau)}")
        _check_grids(np.atleast_2d(self.s_values), self.tau_values, self.u[None])

    @classmethod
    def _checked(cls, s_values: np.ndarray, tau_values: np.ndarray, u: np.ndarray) -> "QrmGrid":
        """A grid whose axes and surface have passed :func:`_check_grids` already."""
        grid = object.__new__(cls)
        grid.__dict__.update(s_values=s_values, tau_values=tau_values, u=u)
        return grid


def _check_grids(s_values: np.ndarray, tau_values: np.ndarray, u: np.ndarray) -> None:
    """:class:`QrmGrid`'s checks for a stack of days at once.

    ``s_values`` is (days, n_s), ``tau_values`` the shared (n_tau,) axis and
    ``u`` (days, n_s, n_tau).  Raises the ``DataError`` that the earliest
    failing day's grid raises.
    """
    bad_axes = np.any(np.diff(s_values, axis=-1) <= 0, axis=-1) | np.any(np.diff(tau_values) <= 0)
    bad_surface = ~np.all(np.isfinite(u), axis=(-2, -1))
    bad = bad_axes | bad_surface
    if bad.any():
        if bad_axes[np.argmax(bad)]:
            raise DataError("grid axes must be strictly increasing")
        raise DataError("surface contains non-finite values")


@dataclass(frozen=True)
class Minimizer:
    """Regularized solution plus the one-day-ahead estimate read from it.

    ``residual`` is the PDE misfit ||R(u)||^2 and ``regularization`` the data
    term beta ||u - F||^2; their sum is J_beta at the solution.
    """

    grid: QrmGrid
    est: float
    residual: float
    regularization: float

    def to_json(self) -> dict:
        return {
            "est": self.est,
            "residual": self.residual,
            "regularization": self.regularization,
            "n_s": len(self.grid.s_values),
            "n_tau": len(self.grid.tau_values),
        }


@dataclass(frozen=True)
class AssembledSystem:
    """Least-squares pieces of J_beta over the interior unknowns.

    The PDE operator is held as its coefficients: ``kappa`` per interior stock
    node and ``inv_dtau``.  ``f_surface`` is the full n_s x n_tau data
    surface.  The unknowns are the interior nodes u[1:-1, 1:], flattened
    s-major (the order of ``~known_mask``); the dense matrices below use that
    order and are meant for small-grid diagnostics.

    The solver holds a block of days in the same fields, with a leading day
    axis on ``kappa``, ``f_surface`` and ``s_values`` (``pde_residual`` works
    on either form); the dense diagnostics read the single day that
    :func:`assemble_system` returns.
    """

    kappa: np.ndarray
    inv_dtau: float
    f_surface: np.ndarray
    s_values: np.ndarray
    tau_values: np.ndarray
    beta: float

    @property
    def n_unknowns(self) -> int:
        return self.kappa.size * (len(self.tau_values) - 1)

    @property
    def known_mask(self) -> np.ndarray:
        """Imposed nodes in the flattened (s-major) node ordering."""
        known = np.ones(self.f_surface.shape, dtype=bool)
        known[1:-1, 1:] = False
        return known.reshape(-1)

    @property
    def f_interior(self) -> np.ndarray:
        return self.f_surface[1:-1, 1:].reshape(-1)

    def pde_residual(self, u: np.ndarray) -> np.ndarray:
        """R(u) for a full surface: one row per interior stock node, one column per tau step."""
        return self.inv_dtau * (u[..., 1:-1, 1:] - u[..., 1:-1, :-1]) + self.kappa[..., None] * (
            2.0 * u[..., 1:-1, :-1] - u[..., 2:, :-1] - u[..., :-2, :-1]
        )

    def pde_matrix(self) -> np.ndarray:
        """Dense A: R(u) = A x - b with x the unknowns, rows ordered as ``pde_residual``.

        Residual column j is d x_j + T x_(j-1), x_(-1) being the imposed
        tau = 0 row, which is a Kronecker product in s-major order.
        """
        m = len(self.tau_values) - 1
        return self.inv_dtau * np.eye(self.n_unknowns) + np.kron(
            _stencil(self.kappa, self.inv_dtau), np.eye(m, k=-1)
        )

    def apply_normal(self, x: np.ndarray) -> np.ndarray:
        """(A^T A + beta I) x."""
        a = self.pde_matrix()
        return a.T @ (a @ x) + self.beta * x

    def normal_rhs(self) -> np.ndarray:
        """A^T b + beta F, where b = -R(imposed nodes only) moves them to the right."""
        known = self.f_surface.copy()
        known[1:-1, 1:] = 0.0
        b = -self.pde_residual(known).reshape(-1)
        return self.pde_matrix().T @ b + self.beta * self.f_interior

    def normal_matrix(self) -> np.ndarray:
        """Dense A^T A + beta I."""
        a = self.pde_matrix()
        return a.T @ a + self.beta * np.eye(self.n_unknowns)


class _DayFailure(Exception):
    """The earliest failing day of a block: its index there and the error it raises."""

    def __init__(self, index: int, error: DataError | ConvergenceError) -> None:
        super().__init__(index, error)
        self.index = index
        self.error = error


def _stencil(kappa: np.ndarray, inv_dtau: float) -> np.ndarray:
    """T = tridiag(-kappa_i, 2 kappa_i - 1/dtau, -kappa_i) per day, row i holding kappa_i."""
    n = kappa.shape[-1]
    i = np.arange(n)
    t = np.zeros(kappa.shape + (n,))
    t[..., i, i] = 2.0 * kappa - inv_dtau
    # 0 - kappa rather than -kappa, so a zero coefficient stays +0.0.
    t[..., i[1:], i[:-1]] = 0.0 - kappa[..., 1:]
    t[..., i[:-1], i[1:]] = 0.0 - kappa[..., :-1]
    return t


def _linspace(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(start[i], stop[i], num)`` for every day i, on a new axis 1.

    One ``np.linspace`` over the stack would take its zero-step branch for
    every day once a single day has a zero step; here each day takes its own
    branch, so no day's axis depends on the other days of its block.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    ramp = np.arange(num, dtype=np.float64).reshape((num,) + (1,) * (start.ndim - 1))
    y = ramp * step[:, None]
    zero = np.any((step == 0).reshape(len(step), -1), axis=1)
    if zero.any():
        y[zero] = ramp / div * delta[zero][:, None]
    y += start[:, None]
    y[:, -1] = stop
    return y


def _assemble(records: Sequence[QuoteRecord], config: QrmConfig) -> AssembledSystem:
    """The day pairs (records[i], records[i + 1]) as one system with a leading day axis.

    Raises ``DataError`` for fewer than two records and ``_DayFailure`` for
    the first day whose stock axis would collapse.
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records to assemble, got {len(records)}")
    quotes = np.array([
        (r.option_bid, r.option_ask, r.option_mid, r.stock_bid, r.stock_ask, r.stock_mid,
         r.implied_vol)
        for r in records
    ])
    prev_bid, prev_ask = quotes[:-1, 0], quotes[:-1, 1]
    bid, ask, mid, stock_bid, stock_ask, s_mid, sigma = quotes[1:].T
    half_width = np.maximum(
        0.5 * (stock_ask - stock_bid), sigma * math.sqrt(2.0 * config.horizon) * s_mid
    )
    collapsed = np.flatnonzero(half_width <= 0.0)
    if collapsed.size:
        raise _DayFailure(int(collapsed[0]), DataError(
            "collapsed stock grid: zero bid/ask spread and zero volatility leave no interval"
        ))

    # Stock axes in stock-mid units; s^2 d2/ds2 is invariant under the scaling.
    scaled_half = half_width / s_mid
    s_scaled = _linspace(1.0 - scaled_half, 1.0 + scaled_half, config.n_s)
    tau_values = np.linspace(0.0, 2.0 * config.horizon, config.n_tau)
    tau_values.flags.writeable = False  # shared by every day's grid
    ds = s_scaled[:, 1] - s_scaled[:, 0]
    days_ahead = tau_values / config.horizon
    f_surface = _linspace(bid[:, None] + days_ahead * (bid - prev_bid)[:, None],
                          ask[:, None] + days_ahead * (ask - prev_ask)[:, None], config.n_s)
    f_surface[:, :, 0] = mid[:, None]
    # A vol whose square overflows leaves kappa non-finite, and the solve then
    # fails that day with a ConvergenceError; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = (0.5 * sigma * sigma)[:, None] * s_scaled[:, 1:-1] ** 2 / (ds * ds)[:, None]
    return AssembledSystem(
        kappa=kappa,
        inv_dtau=1.0 / (tau_values[1] - tau_values[0]),
        f_surface=f_surface,
        s_values=s_scaled * s_mid[:, None],
        tau_values=tau_values,
        beta=config.beta,
    )


def assemble_system(records: Sequence[QuoteRecord], config: QrmConfig) -> AssembledSystem:
    """Build the discrete functional from the last two records.

    The diffusion coefficient uses the latest record's implied volatility.
    Raises ``DataError`` when fewer than two records are given or when the
    stock axis would collapse (zero spread and zero volatility).
    """
    try:
        days = _assemble(records[-2:], config)
    except _DayFailure as fail:
        raise fail.error from None
    return replace(days, kappa=days.kappa[0], f_surface=days.f_surface[0],
                   s_values=days.s_values[0])


def _days_per_block(config: QrmConfig) -> int:
    coupling_bytes = (config.n_tau - 1) * (config.n_s - 2) ** 2 * 8
    return max(1, _COUPLING_BUDGET // coupling_bytes)


def _solve(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked ``np.linalg.solve``; a singular block raises ``_DayFailure`` for its day."""
    try:
        return np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError as exc:
        for day in range(len(s)):
            try:
                np.linalg.solve(s[day], rhs[day])
            except np.linalg.LinAlgError:
                break
        error = ConvergenceError(f"direct solve failed: {exc}", residual=math.inf)
        raise _DayFailure(day, error) from exc


def _eliminate(days: AssembledSystem) -> np.ndarray:
    """u - F at the unknowns of every day, as a (days, n_s - 2, n_tau - 1) stack.

    Block forward elimination over the tau columns, all days at once:
    S_k = D_k - L C_(k-1) is the Schur complement,
    [C_k | y_k] = S_k^-1 [U | g_k - L y_(k-1)], then back-substitution
    overwrites y_k with x_k = y_k - C_k x_(k+1).  U = d T^T and L = d T are
    the off-diagonal blocks.  Raises ``_DayFailure`` for the first day with a
    singular block or a non-finite solution.
    """
    d, beta = days.inv_dtau, days.beta
    t = _stencil(days.kappa, d)
    t_trans = np.swapaxes(t, -1, -2)
    n_days, n = days.kappa.shape
    m = len(days.tau_values) - 1
    r = -days.pde_residual(days.f_surface)
    g = d * r
    g[..., :-1] += t_trans @ r[..., 1:]
    lower = d * t
    upper = np.swapaxes(lower, -1, -2)
    last = (d * d + beta) * np.eye(n)
    inner = last + t_trans @ t
    coupling = np.empty((m, n_days, n, n))
    y = np.empty((n_days, n, m))
    for k in range(m):
        s = inner if k < m - 1 else last
        h = g[..., k]
        if k:
            s = s - lower @ coupling[k - 1]
            h = h - (lower @ y[..., k - 1, None])[..., 0]
        sol = _solve(s, np.concatenate([upper, h[..., None]], axis=-1))
        coupling[k] = sol[..., :n]
        y[..., k] = sol[..., n]
    for k in range(m - 2, -1, -1):
        y[..., k] -= (coupling[k] @ y[..., k + 1, None])[..., 0]
    finite = np.isfinite(y).all(axis=(1, 2))
    if not finite.all():
        error = ConvergenceError("direct solve produced non-finite values", residual=math.inf)
        raise _DayFailure(int(np.argmin(finite)), error)
    return y


def _solve_days(records: Sequence[QuoteRecord], config: QrmConfig) -> list[Minimizer]:
    """Minimize J_beta for every day pair (records[i], records[i + 1]) together.

    Raises ``_DayFailure`` for the earliest failing day, the one a day-by-day
    solve would have stopped at.
    """
    try:
        days = _assemble(records, config)
        correction = _eliminate(days)
    except _DayFailure as fail:
        if fail.index:
            _solve_days(records[: fail.index + 1], config)  # an earlier day fails first
        raise
    surface = days.f_surface.copy()
    surface[:, 1:-1, 1:] += correction
    misfit = days.pde_residual(surface)
    residual = np.sum(misfit * misfit, axis=(1, 2))
    regularization = np.sum((surface - days.f_surface) ** 2, axis=(1, 2))
    est = surface[:, (config.n_s - 1) // 2, (config.n_tau - 1) // 2]
    _check_grids(days.s_values, days.tau_values, surface)
    return [
        Minimizer(
            grid=QrmGrid._checked(days.s_values[i], days.tau_values, surface[i]),
            est=float(est[i]),
            residual=float(residual[i]),
            regularization=config.beta * float(regularization[i]),
        )
        for i in range(len(surface))
    ]


def solve_qrm(records: Sequence[QuoteRecord], config: QrmConfig | None = None) -> Minimizer:
    """Minimize J_beta for the last two records and read off the estimate.

    Deterministic: identical inputs produce a bit-identical result.
    """
    try:
        return _solve_days(records[-2:], config or QrmConfig())[0]
    except _DayFailure as fail:
        raise fail.error from fail.__cause__


def estimate_series(
    records: Sequence[QuoteRecord], config: QrmConfig | None = None
) -> list[Minimizer | None]:
    """One solve per record pair, aligned to the records.

    Element k (k >= 1) is the solve on records k-1 and k; element 0 is None
    since no prior day exists.  The days are solved together in blocks sized
    to a fixed memory budget; each result is bit-identical to
    ``solve_qrm(records[k-1 : k+1], config)``.  Errors are re-raised with the
    index and date of the earliest failing day.
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records, got {len(records)}")
    config = config or QrmConfig()
    block = _days_per_block(config)
    out: list[Minimizer | None] = [None]
    for first in range(1, len(records), block):
        try:
            out += _solve_days(records[first - 1 : first + block], config)
        except _DayFailure as fail:
            k = first + fail.index
            where = f"day {k} ({records[k].day.isoformat()})"
            if isinstance(fail.error, ConvergenceError):
                raise ConvergenceError(
                    f"{where}: {fail.error}", residual=fail.error.residual
                ) from fail.error
            raise DataError(f"{where}: {fail.error}") from fail.error
    return out
