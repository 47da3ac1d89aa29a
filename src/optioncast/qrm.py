"""Quasi-reversibility extrapolation of option prices.

The quotes are smoothed toward the PDE du/dtau = h sigma^2 s^2 d2u/ds2, with
tau running forward in calendar time, by minimizing the Tikhonov functional

    J_beta(u) = || D_tau u - h sigma^2 s^2 D_ss u ||^2  +  beta || u - F ||^2

over a small space-time rectangle, where F is the quoted data continued onto
the grid.  The tau = 0 row of F is today's option mid at every stock node,
the low/high stock edges are the option bid/ask extended linearly in tau at
the rate they moved since the previous day, and interior rows interpolate
linearly between the edges.  The tau = 0 row and both stock edges are imposed
exactly; only interior nodes are unknowns, so the normal-equation matrix
A^T A + beta I is symmetric positive definite and the minimizer is unique.
With tau running forward the PDE is the heat equation in its well-posed
direction (README step 3 has the measurements that keep this sign).

Time scale: tau is measured in forecast windows of two trading days, each
h = 1/252 years, so tau runs over [0, 1] and tomorrow is tau = 1/2.  With
t the time in years, u_t = (sigma^2/2) s^2 u_ss becomes, for tau = t/(2h),
u_tau = 2h u_t = h sigma^2 s^2 u_ss: the coefficient is kappa' = 2h kappa.
The residual scales by 2h too, so J_beta here equals (2h)^2 times the
year-unit functional with beta/(2h)^2, that is beta ~= 158.76 in year units
at the default beta = 0.01.  In year units the PDE term outweighed beta by
about 1e8 and cond(A^T A + beta I) was about 6.3e10; here it is about 4e6.

Discretization: first-order forward differences in tau, second-order central
differences in s, on an n_s x n_tau grid covering the window.  The stock
axis is centered on today's stock mid with half-width max(half bid/ask
spread, sigma * sqrt(2h) * stock mid), i.e. at least the two-day diffusion
scale, and is assembled in stock-mid units (the s^2 d2/ds2 operator is
invariant under that scaling).

Linear filter: F is linear in the day's quotes.  With c_i = (2i - (n_s - 1))
/ (n_s - 1) the s coordinate, exactly 0 on the centre line, and a = 2 tau the
days ahead,

    F = mid + half F_half + dmid F_dmid + dhalf F_dhalf,

where F_half = c off the tau = 0 row, F_dmid = a and F_dhalf = c a are the
direction surfaces of the config, and q = (half, dmid, dhalf) is the option's
half-spread, its one-day mid move and its half-spread move.  The correction
u - F is linear in -R(F), and a constant has R = 0, so u - F = sum_j q_j Y_j
with Y_j the correction of F_j.  Each day's forecast is therefore a fixed
filter of its quotes, EST = mid + sum_j tap_j q_j, whose taps are the
direction solutions F_j + Y_j at the centre node one day out.

Solve: the operator is held as its coefficients, kappa_i = h sigma^2 s_i^2 /
ds^2 per interior stock node and d = 1/dtau.  With the unknowns grouped by
tau column the normal matrix is block tridiagonal with n_tau - 1 blocks of
size n_s - 2: diagonal blocks d^2 I + T^T T + beta I (the last one
(d^2 + beta) I) and off-diagonal blocks d T^T, where
T = tridiag(-kappa_i, 2 kappa_i - d, -kappa_i) holds kappa_i in row i.  Block
forward elimination and back-substitution solve it directly for a
correction, whose right-hand side is A^T(-R(F)) with R the PDE residual, so
data that already satisfy the PDE come back unchanged.

The days of a series are assembled and solved together in blocks.  The
normal matrix and the Y_j depend on a day only through its kappa row, so
each distinct row of a block is eliminated once, with the three -R(F_j) as
its right-hand sides, and each day adds sum_j q_j Y_j of its system to its
own data surface.  A system's solve has the same operands whichever days
share it, so a day's result is bit-identical to its one-day solve, and a
failed block is solved again one day at a time to name its earliest failing
day.  The block size is counted in days: back-substitution keeps the
coupling blocks C_k, (n_tau - 1)(n_s - 2)^2 floats per system, and a block
holds the number of days whose coupling blocks would fit in a fixed 1 MiB if
every day differed, and at least one day (36 days on the 21 x 11 grid, one
on 81 x 41).  A single solve is a block of one day.

The forecast EST is the solved surface at the central stock node one trading
day ahead; odd grid sizes guarantee both indices exist exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, real, whole
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

    def __post_init__(self) -> None:
        for name in ("n_s", "n_tau"):
            rule = f"{name} must be an odd integer >= 3"
            n = whole(getattr(self, name), rule, 3)
            if n % 2 == 0:
                raise DataError(f"{rule}, got {getattr(self, name)}")
            object.__setattr__(self, name, n)
        object.__setattr__(self, "beta", real(self.beta, "beta must be > 0", lambda x: x > 0))


@dataclass(frozen=True)
class QrmGrid:
    """Solution rectangle: stock nodes (currency), tau nodes (two-day windows), surface u."""

    s_values: np.ndarray
    tau_values: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class Minimizer:
    """Regularized solution plus the one-day-ahead estimate read from it.

    ``residual`` is the PDE misfit ||R(u)||^2 and ``regularization`` the data
    term beta ||u - F||^2; their sum is J_beta at the solution.  ``taps`` are
    the weights of the day's (half, dmid, dhalf) in EST = mid + taps . q, read
    from the direction solutions; EST itself is the surface node.
    """

    grid: QrmGrid
    est: float
    residual: float
    regularization: float
    taps: tuple[float, float, float]


@dataclass(frozen=True)
class AssembledSystem:
    """Least-squares pieces of J_beta over the interior unknowns.

    The PDE operator is held as its coefficients: ``kappa`` per interior stock
    node and ``inv_dtau``.  ``f_surface`` is the full n_s x n_tau data
    surface: mid plus the direction surfaces weighted by ``quotes``, the
    day's (half, dmid, dhalf).  The unknowns are the interior nodes
    u[1:-1, 1:], flattened s-major; the dense oracle below (``pde_matrix``,
    ``apply_normal``, ``normal_rhs``) uses that order and is meant for
    small-grid diagnostics.

    The solver holds a block of days in the same fields, with a leading day
    axis on ``kappa``, ``f_surface``, ``s_values`` and ``quotes``
    (``pde_residual`` works on either form); the dense diagnostics read the
    single day that :func:`assemble_system` returns.
    """

    kappa: np.ndarray
    inv_dtau: float
    f_surface: np.ndarray
    s_values: np.ndarray
    tau_values: np.ndarray
    beta: float
    quotes: np.ndarray

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


@functools.lru_cache(maxsize=8)
def _directions(config: QrmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The s coordinate, the tau nodes and the direction surfaces F_half, F_dmid, F_dhalf."""
    coordinate = (2.0 * np.arange(config.n_s) - (config.n_s - 1)) / (config.n_s - 1)
    tau_values = np.linspace(0.0, 1.0, config.n_tau)
    c, days_ahead = coordinate[:, None], 2.0 * tau_values
    directions = np.stack(np.broadcast_arrays(c, days_ahead, c * days_ahead))
    directions[0, :, 0] = 0.0
    for shared in (coordinate, tau_values, directions):  # by every day of this config
        shared.flags.writeable = False
    return coordinate, tau_values, directions


def _along(q: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
    """sum_j q[:, j] surfaces[j] per day, term by term, so no day's bits depend on its block."""
    total = q[:, 0, None, None] * surfaces[0]
    for j in (1, 2):
        total += q[:, j, None, None] * surfaces[j]
    return total


def _assemble(records: Sequence[QuoteRecord], config: QrmConfig) -> AssembledSystem:
    """The day pairs (records[i], records[i + 1]) as one system with a leading day axis.

    Raises ``DataError`` for fewer than two records or when any day's stock
    axis would collapse.
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records to assemble, got {len(records)}")
    quotes = np.array([(r.option_mid, 0.5 * (r.option_ask - r.option_bid), r.stock_bid,
                        r.stock_ask, r.stock_mid, r.implied_vol) for r in records])
    mid, half, stock_bid, stock_ask, s_mid, sigma = quotes[1:].T
    half_width = np.maximum(
        0.5 * (stock_ask - stock_bid), sigma * math.sqrt(2.0 * TRADING_DAY_YEARS) * s_mid
    )
    if not np.all(half_width > 0.0):  # NaN too: zero vol times an infinite stock mid
        raise DataError(
            "collapsed stock grid: zero bid/ask spread and zero volatility leave no interval"
        )

    coordinate, tau_values, directions = _directions(config)
    # Stock axes in stock-mid units; s^2 d2/ds2 is invariant under the scaling.
    s_scaled = 1.0 + (half_width / s_mid)[:, None] * coordinate
    ds = s_scaled[:, 1] - s_scaled[:, 0]
    q = np.stack([half, *np.diff(quotes[:, :2], axis=0).T], axis=1)
    # A vol whose square overflows leaves kappa non-finite, and quotes near the
    # float64 limit overflow F; the solve then fails that day with a
    # ConvergenceError, and numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = ((TRADING_DAY_YEARS * sigma * sigma)[:, None] * s_scaled[:, 1:-1] ** 2
                 / (ds * ds)[:, None])
        f_surface = mid[:, None, None] + _along(q, directions)
    return AssembledSystem(
        kappa=kappa,
        inv_dtau=1.0 / (tau_values[1] - tau_values[0]),
        f_surface=f_surface,
        s_values=s_scaled * s_mid[:, None],
        tau_values=tau_values,
        beta=config.beta,
        quotes=q,
    )


def assemble_system(records: Sequence[QuoteRecord], config: QrmConfig) -> AssembledSystem:
    """Build the discrete functional from the last two records.

    The diffusion coefficient uses the latest record's implied volatility.
    Raises ``DataError`` when fewer than two records are given or when the
    stock axis would collapse (zero spread and zero volatility).
    """
    days = _assemble(records[-2:], config)
    return replace(days, kappa=days.kappa[0], f_surface=days.f_surface[0],
                   s_values=days.s_values[0], quotes=days.quotes[0])


def _days_per_block(config: QrmConfig) -> int:
    coupling_bytes = (config.n_tau - 1) * (config.n_s - 2) ** 2 * 8
    return max(1, _COUPLING_BUDGET // coupling_bytes)


def _systems(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``kappa`` rows of a block by their bits, each one system.

    Returns the first day of each system, in order, and each day's system.
    """
    systems: dict[bytes, int] = {}
    inverse = np.array([systems.setdefault(row.tobytes(), len(systems)) for row in kappa])
    return np.unique(inverse, return_index=True)[1], inverse


def _eliminate_systems(kappa: np.ndarray, r: np.ndarray, d: float, beta: float) -> np.ndarray:
    """u - F for c surfaces F under each of J systems, in the layout of ``r``.

    ``kappa`` holds one row per system.  ``r`` holds -R(F) as (c, J, n_s - 2,
    n_tau - 1), with surface i under system j at [i, j].  Block forward
    elimination over the tau columns: S_k = D_k - L C_(k-1) is the Schur
    complement, and one solve per system and tau step,
    [C_k | y_k(1) | ... | y_k(c)] = S_k^-1 [U | h_k(1) | ... | h_k(c)]
    with h_k = g_k - L y_(k-1) and g = A^T r, gives the coupling block and
    every surface's y_k.  Back-substitution overwrites y_k with
    x_k = y_k - C_k x_(k+1).  U = d T^T and L = d T are the off-diagonal
    blocks.
    """
    n_systems, n = kappa.shape
    t = _stencil(kappa, d)
    t_trans = t.swapaxes(-1, -2)
    g = d * r
    g[..., :-1] += t_trans @ r[..., 1:]
    g = g.transpose(3, 1, 2, 0)  # tau step, system, stock node, surface
    m = len(g)
    lower = d * t
    upper = lower.swapaxes(-1, -2)
    last = (d * d + beta) * np.eye(n)
    inner = last + t_trans @ t
    coupling = np.empty((m, n_systems, n, n))
    y = np.empty(g.shape)
    for k in range(m):
        s = inner if k < m - 1 else last
        h = g[k]
        if k:
            s = s - lower @ coupling[k - 1]
            h = h - lower @ y[k - 1]
        try:
            sol = np.linalg.solve(s, np.concatenate([upper, h], axis=-1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"direct solve failed: {exc}") from exc
        coupling[k] = sol[..., :n]
        y[k] = sol[..., n:]
    for k in range(m - 2, -1, -1):
        y[k] -= coupling[k] @ y[k + 1]
    return y.transpose(3, 1, 2, 0)


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
        directions = _directions(config)[2]
        first, inverse = _systems(days.kappa)
        systems = replace(days, kappa=days.kappa[first])
        solved = _eliminate_systems(systems.kappa, -systems.pde_residual(directions[:, None]),
                                    days.inv_dtau, days.beta)
        # A direct solve of the day's own data -R(F) would eliminate it through
        # normal blocks with entries up to (d + 4 kappa)^2; quotes near the
        # float64 limit overflow there, which the directions alone cannot see.
        scale = (days.inv_dtau + 4.0 * np.max(days.kappa, axis=1)) ** 2
        data = scale[:, None, None] * days.pde_residual(days.f_surface)
        if not (np.all(np.isfinite(solved)) and np.all(np.isfinite(data))):
            raise ConvergenceError("direct solve produced non-finite values")
        surface = days.f_surface.copy()
        surface[:, 1:-1, 1:] += _along(days.quotes, solved[:, inverse])
        misfit = days.pde_residual(surface)
        residual = np.sum(misfit * misfit, axis=(1, 2))
        regularization = config.beta * np.sum((surface - days.f_surface) ** 2, axis=(1, 2))
    if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(regularization))):
        raise ConvergenceError("objective J_beta is not finite")
    if not np.all(np.diff(days.s_values, axis=-1) > 0):
        raise DataError("grid axes must be strictly increasing")
    centre, one_day = (config.n_s - 1) // 2, (config.n_tau - 1) // 2
    taps = directions[:, centre, one_day, None] + solved[:, :, centre - 1, one_day - 1]
    columns = zip(days.s_values, surface, surface[:, centre, one_day].tolist(), residual.tolist(),
                  regularization.tolist(), taps[:, inverse].T.tolist())
    return [Minimizer(QrmGrid(s_values, days.tau_values, u), est, pde, fit, tuple(day_taps))
            for s_values, u, est, pde, fit, day_taps in columns]


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
                    raise type(exc)(f"day {k} ({records[k].day.isoformat()}): {exc}") from exc
            raise
    return out
