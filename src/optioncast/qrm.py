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

The forecast EST is the solved surface at the central stock node one trading
day ahead; odd grid sizes guarantee both indices exist exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if np.any(np.diff(self.s_values) <= 0) or np.any(np.diff(self.tau_values) <= 0):
            raise DataError("grid axes must be strictly increasing")
        if not np.all(np.isfinite(self.u)):
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
        return self.inv_dtau * (u[1:-1, 1:] - u[1:-1, :-1]) + self.kappa[:, None] * (
            2.0 * u[1:-1, :-1] - u[2:, :-1] - u[:-2, :-1]
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


def _stencil(kappa: np.ndarray, inv_dtau: float) -> np.ndarray:
    """T = tridiag(-kappa_i, 2 kappa_i - 1/dtau, -kappa_i), row i holding kappa_i."""
    return np.diag(2.0 * kappa - inv_dtau) - np.diag(kappa[1:], -1) - np.diag(kappa[:-1], 1)


def _data_surface(prev: QuoteRecord, today: QuoteRecord, tau_values: np.ndarray,
                  n_s: int, horizon: float) -> np.ndarray:
    lo = today.option_bid + (tau_values / horizon) * (today.option_bid - prev.option_bid)
    hi = today.option_ask + (tau_values / horizon) * (today.option_ask - prev.option_ask)
    f = np.linspace(lo, hi, n_s)
    f[:, 0] = today.option_mid
    return f


def assemble_system(records: Sequence[QuoteRecord], config: QrmConfig) -> AssembledSystem:
    """Build the discrete functional from the last two records.

    The diffusion coefficient uses the latest record's implied volatility.
    Raises ``DataError`` when fewer than two records are given or when the
    stock axis would collapse (zero spread and zero volatility).
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records to assemble, got {len(records)}")
    prev, today = records[-2], records[-1]
    sigma = today.implied_vol
    s_mid = today.stock_mid
    half_spread = 0.5 * (today.stock_ask - today.stock_bid)
    half_width = max(half_spread, sigma * math.sqrt(2.0 * config.horizon) * s_mid)
    if half_width <= 0.0:
        raise DataError(
            "collapsed stock grid: zero bid/ask spread and zero volatility leave no interval"
        )

    n_s, n_tau = config.n_s, config.n_tau
    # Stock axis in stock-mid units; s^2 d2/ds2 is invariant under the scaling.
    scaled_half = half_width / s_mid
    s_scaled = np.linspace(1.0 - scaled_half, 1.0 + scaled_half, n_s)
    tau_values = np.linspace(0.0, 2.0 * config.horizon, n_tau)
    ds = s_scaled[1] - s_scaled[0]
    dtau = tau_values[1] - tau_values[0]
    return AssembledSystem(
        kappa=0.5 * sigma * sigma * s_scaled[1:-1] ** 2 / ds ** 2,
        inv_dtau=1.0 / dtau,
        f_surface=_data_surface(prev, today, tau_values, n_s, config.horizon),
        s_values=s_scaled * s_mid,
        tau_values=tau_values,
        beta=config.beta,
    )


def _block_solve(system: AssembledSystem) -> np.ndarray:
    """u - F at the unknowns, as an (n_s - 2) x (n_tau - 1) array.

    Block forward elimination over the tau columns: S_k = D_k - L C_(k-1) is
    the Schur complement, [C_k | y_k] = S_k^-1 [U | g_k - L y_(k-1)], then
    back-substitution overwrites y_k with x_k = y_k - C_k x_(k+1).  U = d T^T
    and L = d T are the off-diagonal blocks.  Raises ``ConvergenceError`` on a
    singular block or a non-finite solution.
    """
    d, beta = system.inv_dtau, system.beta
    t = _stencil(system.kappa, d)
    n, m = t.shape[0], len(system.tau_values) - 1
    r = -system.pde_residual(system.f_surface)
    g = d * r
    g[:, :-1] += t.T @ r[:, 1:]
    lower = d * t
    upper = lower.T
    last = (d * d + beta) * np.eye(n)
    inner = last + t.T @ t
    coupling = np.empty((m, n, n))
    y = np.empty((n, m))
    for k in range(m):
        s = inner if k < m - 1 else last
        h = g[:, k]
        if k:
            s = s - lower @ coupling[k - 1]
            h = h - lower @ y[:, k - 1]
        try:
            sol = np.linalg.solve(s, np.column_stack([upper, h]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"direct solve failed: {exc}", residual=math.inf) from exc
        coupling[k] = sol[:, :n]
        y[:, k] = sol[:, n]
    for k in range(m - 2, -1, -1):
        y[:, k] -= coupling[k] @ y[:, k + 1]
    if not np.all(np.isfinite(y)):
        raise ConvergenceError("direct solve produced non-finite values", residual=math.inf)
    return y


def solve_qrm(records: Sequence[QuoteRecord], config: QrmConfig | None = None) -> Minimizer:
    """Minimize J_beta for the last two records and read off the estimate.

    Deterministic: identical inputs produce a bit-identical result.
    """
    config = config or QrmConfig()
    system = assemble_system(records, config)
    surface = system.f_surface.copy()
    surface[1:-1, 1:] += _block_solve(system)
    grid = QrmGrid(s_values=system.s_values, tau_values=system.tau_values, u=surface)
    misfit = system.pde_residual(surface)
    n_s, n_tau = config.n_s, config.n_tau
    return Minimizer(
        grid=grid,
        est=float(surface[(n_s - 1) // 2, (n_tau - 1) // 2]),
        residual=float(np.sum(misfit * misfit)),
        regularization=config.beta * float(np.sum((surface - system.f_surface) ** 2)),
    )


def estimate_series(
    records: Sequence[QuoteRecord], config: QrmConfig | None = None
) -> list[Minimizer | None]:
    """One solve per record pair, aligned to the records.

    Element k (k >= 1) is the solve on records k-1 and k; element 0 is None
    since no prior day exists.  Errors are re-raised with the day index.
    """
    if len(records) < 2:
        raise DataError(f"need at least 2 records, got {len(records)}")
    config = config or QrmConfig()
    out: list[Minimizer | None] = [None]
    for k in range(1, len(records)):
        try:
            out.append(solve_qrm(records[k - 1 : k + 1], config))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"day {k} ({records[k].day.isoformat()}): {exc}", residual=exc.residual
            ) from exc
        except DataError as exc:
            raise DataError(f"day {k} ({records[k].day.isoformat()}): {exc}") from exc
    return out
