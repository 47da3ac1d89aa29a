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

The days of a series are assembled and eliminated together in blocks.  The
normal matrix depends on a day only through its kappa row, so the days of a
block are grouped by the bits of that row and each distinct system is
factored once per tau step: its solve takes U and, as extra columns, the
right-hand side of every day that shares it, and one Schur update serves
them all.  With a constant implied vol every day of a block shares one
system; with a vol that changes daily each day has its own, and each step
makes one stacked solve with a matrix per day.  The block size is counted in
days: back-substitution keeps the coupling blocks C_k, (n_tau - 1)(n_s - 2)^2
floats per system, and a block holds the number of days whose coupling
blocks would fit in a fixed 1 MiB if every day differed, and at least one
day (36 days on the 21 x 11 grid, one on 81 x 41).  A single solve is a
block of one day.  The products L y and C x stay one matrix-vector product
per day, and the BLAS in use (OpenBLAS, measured with one thread) gives each
right-hand-side column of a solve the same bits whatever the column count;
LAPACK does not promise this, and the exact-equality tests in
``tests/test_qrm.py`` catch a BLAS where it fails.  So a day's result is
bit-identical whichever days share its block or its system, and a failed
block is solved again one day at a time to name its earliest failing day.

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

# Bytes the coupling blocks C_k of one block of days may take when every day
# has a system of its own; the block size follows from it and the grid, and
# is at least one day.
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
        span = 2.0 * self.horizon
        if not (math.isfinite(span) and math.isfinite((self.n_tau - 1) / span)):
            raise DataError(f"horizon {self.horizon} leaves the tau grid or 1/dtau non-finite")


@dataclass(frozen=True)
class QrmGrid:
    """Solution rectangle: stock nodes (currency), tau nodes (years), surface u.

    The solver makes them, each block of days after one :func:`_check_grids`.
    """

    s_values: np.ndarray
    tau_values: np.ndarray
    u: np.ndarray


def _check_grids(s_values: np.ndarray, tau_values: np.ndarray, u: np.ndarray) -> None:
    """The checks every solved :class:`QrmGrid` has passed, for a stack of days at once.

    ``s_values`` is (days, n_s), ``tau_values`` the shared (n_tau,) axis and
    ``u`` (days, n_s, n_tau); the axes are checked before the surfaces.
    """
    if not (np.all(np.diff(s_values, axis=-1) > 0) and np.all(np.diff(tau_values) > 0)):
        raise DataError("grid axes must be strictly increasing")
    if not np.all(np.isfinite(u)):
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


@dataclass(frozen=True)
class AssembledSystem:
    """Least-squares pieces of J_beta over the interior unknowns.

    The PDE operator is held as its coefficients: ``kappa`` per interior stock
    node and ``inv_dtau``.  ``f_surface`` is the full n_s x n_tau data
    surface.  The unknowns are the interior nodes u[1:-1, 1:], flattened
    s-major; the dense oracle below (``pde_matrix``, ``apply_normal``,
    ``normal_rhs``) uses that order and is meant for small-grid diagnostics.

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
        return self.pde_matrix().T @ b + self.beta * self.f_surface[1:-1, 1:].reshape(-1)


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

    Raises ``DataError`` for fewer than two records or when any day's stock
    axis would collapse.
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
    if not np.all(half_width > 0.0):  # NaN too: zero vol times an infinite stock mid
        raise DataError(
            "collapsed stock grid: zero bid/ask spread and zero volatility leave no interval"
        )

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
    days = _assemble(records[-2:], config)
    return replace(days, kappa=days.kappa[0], f_surface=days.f_surface[0],
                   s_values=days.s_values[0])


def _days_per_block(config: QrmConfig) -> int:
    coupling_bytes = (config.n_tau - 1) * (config.n_s - 2) ** 2 * 8
    return max(1, _COUPLING_BUDGET // coupling_bytes)


def _systems(kappa: np.ndarray) -> list[np.ndarray]:
    """The days of a block grouped by the bits of their ``kappa`` row.

    The normal matrix depends on a day only through that row, so each group
    is one system.  Returns one (systems, c) index array per number c of
    days a system has: each row holds one system's days in order, and the
    rows are in order of their first day.
    """
    raw = kappa.tobytes()
    width = len(raw) // len(kappa)
    keys = [raw[i : i + width] for i in range(0, len(raw), width)]
    systems: dict[bytes, list[int]] = {}
    for day, key in enumerate(keys):
        systems.setdefault(key, []).append(day)
    by_size: dict[int, list[list[int]]] = {}
    for members in systems.values():
        by_size.setdefault(len(members), []).append(members)
    return [np.array(members) for members in by_size.values()]


def _eliminate(days: AssembledSystem) -> np.ndarray:
    """u - F at the unknowns of every day, as a (days, n_s - 2, n_tau - 1) stack.

    Each distinct system is eliminated once for all of its days; the systems
    with the same number of days go through :func:`_eliminate_systems`
    together.  Raises ``ConvergenceError`` for a singular block or a
    non-finite solution.
    """
    r = -days.pde_residual(days.f_surface)
    y = np.empty_like(r)
    for members in _systems(days.kappa):
        y[members.T] = _eliminate_systems(days.kappa[members[:, 0]], r[members.T],
                                          days.inv_dtau, days.beta)
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("direct solve produced non-finite values", residual=math.inf)
    return y


def _eliminate_systems(kappa: np.ndarray, r: np.ndarray, d: float, beta: float) -> np.ndarray:
    """u - F for c days of each of J systems, in the layout of ``r``.

    ``kappa`` holds one row per system.  ``r`` holds -R(F) per day, as (c, J,
    n_s - 2, n_tau - 1) with day i of system j at [i, j].  Block forward
    elimination over the tau columns: S_k = D_k - L C_(k-1) is the Schur
    complement, and one solve per system and tau step,
    [C_k | y_k(day 1) | ... | y_k(day c)] = S_k^-1 [U | h_k(day 1) | ... | h_k(day c)]
    with h_k = g_k - L y_(k-1), gives the coupling block and every day's
    y_k.  Back-substitution overwrites y_k with x_k = y_k - C_k x_(k+1).
    U = d T^T and L = d T are the off-diagonal blocks.  L y and C x stay
    one matrix-vector product per day, with the system's matrix broadcast
    over its days, and the BLAS in use solves each right-hand-side column
    to the same bits whatever the column count (a measured property, not a
    LAPACK guarantee); so each day is bit-identical to its one-day solve.
    """
    n_systems, n = kappa.shape
    t = _stencil(kappa, d)
    t_trans = t.swapaxes(-1, -2)
    m = r.shape[-1]
    g = d * r
    g[..., :-1] += t_trans @ r[..., 1:]
    lower = d * t
    upper = lower.swapaxes(-1, -2)
    last = (d * d + beta) * np.eye(n)
    inner = last + t_trans @ t
    coupling = np.empty((m, n_systems, n, n))
    y = np.empty_like(r)
    for k in range(m):
        s = inner if k < m - 1 else last
        h = g[..., k]
        if k:
            s = s - lower @ coupling[k - 1]
            h = h - (lower @ y[..., k - 1, None])[..., 0]
        columns = h.reshape(-1, n_systems, n).transpose(1, 2, 0)
        try:
            sol = np.linalg.solve(s, np.concatenate([upper, columns], axis=-1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"direct solve failed: {exc}", residual=math.inf) from exc
        coupling[k] = sol[..., :n]
        y[..., k] = sol[..., n:].transpose(2, 0, 1)
    for k in range(m - 2, -1, -1):
        y[..., k] -= (coupling[k] @ y[..., k + 1, None])[..., 0]
    return y


def _solve_days(records: Sequence[QuoteRecord], config: QrmConfig) -> list[Minimizer]:
    """Minimize J_beta for every day pair (records[i], records[i + 1]) together.

    Raises ``DataError`` or ``ConvergenceError`` when any day fails, without
    naming the day; :func:`estimate_series` finds it.
    """
    # Inputs near the float64 limit overflow in the assembly, the solve or
    # J_beta; the non-finite checks fail that day, and numpy's warnings would
    # only repeat the error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        days = _assemble(records, config)
        correction = _eliminate(days)
        surface = days.f_surface.copy()
        surface[:, 1:-1, 1:] += correction
        misfit = days.pde_residual(surface)
        residual = np.sum(misfit * misfit, axis=(1, 2))
        regularization = config.beta * np.sum((surface - days.f_surface) ** 2, axis=(1, 2))
    if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(regularization))):
        raise ConvergenceError("objective J_beta is not finite", residual=math.inf)
    est = surface[:, (config.n_s - 1) // 2, (config.n_tau - 1) // 2]
    _check_grids(days.s_values, days.tau_values, surface)
    return [
        Minimizer(
            grid=QrmGrid(days.s_values[i], days.tau_values, surface[i]),
            est=float(est[i]),
            residual=float(residual[i]),
            regularization=float(regularization[i]),
        )
        for i in range(len(surface))
    ]


def solve_qrm(records: Sequence[QuoteRecord], config: QrmConfig | None = None) -> Minimizer:
    """Minimize J_beta for the last two records and read off the estimate.

    Deterministic: identical inputs produce a bit-identical result.
    """
    return _solve_days(records[-2:], config or QrmConfig())[0]


def estimate_series(
    records: Sequence[QuoteRecord], config: QrmConfig | None = None
) -> list[Minimizer | None]:
    """One solve per record pair, aligned to the records.

    Element k (k >= 1) is the solve on records k-1 and k; element 0 is None
    since no prior day exists.  The days are solved together in blocks sized
    to a fixed memory budget; each result is bit-identical to
    ``solve_qrm(records[k-1 : k+1], config)``.  When a block fails, its days
    are solved again one at a time, and the first day that fails alone,
    the earliest failing day, is named with its index and date.
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records, got {len(records)}")
    config = config or QrmConfig()
    block = _days_per_block(config)
    out: list[Minimizer | None] = [None]
    for first in range(1, len(records), block):
        try:
            out += _solve_days(records[first - 1 : first + block], config)
        except (DataError, ConvergenceError):
            for k in range(first, min(first + block, len(records))):
                try:
                    _solve_days(records[k - 1 : k + 1], config)
                except (DataError, ConvergenceError) as exc:
                    message = f"day {k} ({records[k].day.isoformat()}): {exc}"
                    if isinstance(exc, ConvergenceError):
                        raise ConvergenceError(message, residual=exc.residual) from exc
                    raise DataError(message) from exc
            raise
    return out
