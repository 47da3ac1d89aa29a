import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import make_record, make_series
from optioncast import qrm
from optioncast.errors import ConvergenceError, DataError
from optioncast.market_data import TRADING_DAY_YEARS, SyntheticSpec, generate_gbm
from optioncast.qrm import (
    Minimizer,
    QrmConfig,
    assemble_system,
    estimate_series,
    solve_qrm,
)


def constant_pair(option_bid=4.9, option_ask=5.1, implied_vol=0.0, **kwargs):
    rec = make_record(implied_vol=implied_vol, option_bid=option_bid,
                      option_ask=option_ask, **kwargs)
    nxt = make_record(offset=1, implied_vol=implied_vol, option_bid=option_bid,
                      option_ask=option_ask, **kwargs)
    return [rec, nxt]


def blown_up_pair():
    # Loader-valid, but sigma^2 overflows, so the diffusion coefficients are
    # not finite and the solve cannot produce a finite surface.
    return [make_record(implied_vol=1e160), make_record(offset=1, implied_vol=1e160)]


def drifting_series(n_days=80, seed=5):
    """Implied vol, stock spread and option quotes that change every day.

    Days alternate at random between a wide stock spread with a small vol,
    where the spread sets the stock half-width, and a large vol with a tight
    spread, where the diffusion scale does.  About one day in four quotes the
    option with no spread, so its data surface has a zero linspace step.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    stock, option = 100.0, 20.0
    records = []
    for k in range(n_days):
        stock *= math.exp(0.01 * rng.standard_normal())
        option = max(1.0, option + 0.4 * rng.standard_normal())
        if rng.random() < 0.5:
            vol, spread = rng.uniform(0.001, 0.02), rng.uniform(0.5, 3.0)
        else:
            vol, spread = rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.2)
        option_spread = 0.0 if rng.random() < 0.25 else rng.uniform(0.01, 0.4)
        records.append(make_record(
            offset=k, option_bid=option, option_ask=option + option_spread,
            stock_bid=stock - spread / 2, stock_ask=stock + spread / 2, implied_vol=vol,
        ))
    return records


def mixed_series(n_days=80, seed=8):
    """Runs of days that share their normal matrix, between days that do not.

    Days k with k % 9 < 4 quote the stock at 100 +/- 0.1 with an implied vol
    of 0.25 on every third run and 0.4 on the others, so each run shares one
    ``kappa`` row with the other runs of its vol, and the two shared systems
    of a block have different numbers of days.  The other days draw vol and
    stock afresh.  The option quotes move every day.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    option = 10.0
    records = []
    for k in range(n_days):
        option = max(1.0, option + 0.3 * rng.standard_normal())
        if k % 9 < 4:
            vol, stock = (0.25, 0.4, 0.4)[(k // 9) % 3], 100.0
        else:
            vol, stock = rng.uniform(0.1, 0.5), 100.0 * math.exp(0.02 * rng.standard_normal())
        records.append(make_record(
            offset=k, option_bid=option, option_ask=option + 0.2,
            stock_bid=stock - 0.1, stock_ask=stock + 0.1, implied_vol=vol,
        ))
    return records


def spread_sets_half_width(record):
    diffusion = record.implied_vol * math.sqrt(2.0 * TRADING_DAY_YEARS) * record.stock_mid
    return 0.5 * (record.stock_ask - record.stock_bid) > diffusion


def blown_up(k):
    return make_record(offset=k, implied_vol=1e160)


def collapsed(k):
    # Zero stock spread and zero vol leave the stock axis no width.
    return make_record(offset=k, implied_vol=0.0, stock_bid=100.0, stock_ask=100.0)


def with_days(records, replacements):
    """A copy of ``records`` with day k replaced by ``replacements[k](k)``."""
    return [replacements[k](k) if k in replacements else r for k, r in enumerate(records)]


def report_non_finite_as_singular(monkeypatch):
    """Make ``np.linalg.solve`` in qrm raise LinAlgError for non-finite matrices.

    LAPACK reports a singular block only for exactly zero pivots, which the
    data cannot reach; this stands in for it.
    """
    real_solve = np.linalg.solve

    def strict_solve(a, b):
        if not np.all(np.isfinite(a)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(qrm.np.linalg, "solve", strict_solve)


def assert_same_solve(a, b):
    assert a.est == b.est
    assert a.residual == b.residual
    assert a.regularization == b.regularization
    assert np.array_equal(a.grid.u, b.grid.u)
    assert np.array_equal(a.grid.s_values, b.grid.s_values)


def objective(system, u):
    """J_beta(u) = ||R(u)||^2 + beta ||u - F||^2 on a full surface."""
    misfit = system.pde_residual(u)
    return float(np.sum(misfit**2)) + system.beta * float(np.sum((u - system.f_surface) ** 2))


def bs_series(n_days=60, sigma=0.2, seed=7, spread_bp=0.0):
    spec = SyntheticSpec(s0=100.0, sigma=sigma, mu=0.05, rate=0.02,
                         n_days=n_days, seed=seed, spread_bp=spread_bp)
    return generate_gbm(spec)


class TestAssemble:
    def test_data_surface_tau_zero_row_is_todays_mid(self):
        records = bs_series(n_days=12)[:2]
        system = assemble_system(records, QrmConfig())
        mid = records[-1].option_mid
        assert np.all(system.f_surface[:, 0] == mid)

    def test_tiny_system_normal_matrix_is_spd(self):
        # Dense eigenvalue oracle on the smallest legal grid.
        records = bs_series(n_days=12)[:2]
        system = assemble_system(records, QrmConfig(n_s=3, n_tau=3))
        eigvals = np.linalg.eigvalsh(system.apply_normal(np.eye(system.n_unknowns)))
        assert np.all(eigvals > 0)

    def test_default_grid_normal_matrix_is_spd(self):
        records = bs_series(n_days=12)[:2]
        system = assemble_system(records, QrmConfig())
        eigvals = np.linalg.eigvalsh(system.apply_normal(np.eye(system.n_unknowns)))
        assert np.all(eigvals > 0)
        # beta floors the spectrum, up to rounding in forming the dense A^T A
        assert eigvals.min() >= 0.01 * (1.0 - 1e-4)

    def test_zero_vol_operator_is_pure_time_difference(self):
        system = assemble_system(constant_pair(implied_vol=0.0), QrmConfig())
        dtau = system.tau_values[1] - system.tau_values[0]
        for row in system.pde_matrix():
            nonzero = row[row != 0.0]
            assert len(nonzero) <= 2
            assert np.allclose(np.abs(nonzero), 1.0 / dtau)

    def test_insufficient_history(self):
        with pytest.raises(DataError, match="at least 2"):
            assemble_system([make_record()], QrmConfig())

    def test_collapsed_grid(self):
        records = constant_pair(implied_vol=0.0, stock_bid=100.0, stock_ask=100.0)
        with pytest.raises(DataError, match="collapsed"):
            assemble_system(records, QrmConfig())

    def test_rayleigh_quotients_positive(self):
        rng = np.random.Generator(np.random.PCG64(42))
        series = bs_series(n_days=12, spread_bp=15.0)
        for k in (1, 5, 11):
            system = assemble_system(series[k - 1 : k + 1], QrmConfig())
            for _ in range(100):
                v = rng.standard_normal(system.n_unknowns)
                assert float(v @ system.apply_normal(v)) > 0.0


class TestSolve:
    def test_zero_vol_flat_data_solution_is_constant(self):
        # Equal option bid/ask makes the whole data surface one constant.
        records = constant_pair(option_bid=5.0, option_ask=5.0, implied_vol=0.0)
        result = solve_qrm(records, QrmConfig())
        assert result.est == 5.0
        assert np.all(result.grid.u == 5.0)
        assert result.residual == 0.0

    def test_zero_vol_center_line_is_exactly_the_mid(self):
        # With zero diffusion the stock lines decouple and the center line's
        # data column is the constant mid, so EST matches it exactly.
        records = constant_pair(option_bid=4.9, option_ask=5.1, implied_vol=0.0)
        result = solve_qrm(records, QrmConfig())
        assert result.est == records[-1].option_mid == 5.0
        center = (len(result.grid.s_values) - 1) // 2
        assert np.all(result.grid.u[center, :] == 5.0)

    def test_boundary_values_equal_data_surface(self):
        records = bs_series(n_days=12, spread_bp=20.0)[:2]
        config = QrmConfig()
        system = assemble_system(records, config)
        result = solve_qrm(records, config)
        assert np.array_equal(result.grid.u[:, 0], system.f_surface[:, 0])
        assert np.array_equal(result.grid.u[0, :], system.f_surface[0, :])
        assert np.array_equal(result.grid.u[-1, :], system.f_surface[-1, :])

    def test_large_beta_pins_solution_to_data(self):
        # Direct dense solve as oracle on a 5x5 grid with gentle day-to-day
        # movement, then the data term dominates the minimizer.
        records = [
            make_record(option_bid=49.98, option_ask=50.02, stock_bid=99.5, stock_ask=100.5),
            make_record(offset=1, option_bid=50.03, option_ask=50.07,
                        stock_bid=99.6, stock_ask=100.6),
        ]
        config = QrmConfig(n_s=5, n_tau=5, beta=1e6)
        system = assemble_system(records, config)
        normal = system.apply_normal(np.eye(system.n_unknowns))
        dense = np.linalg.solve(normal, system.normal_rhs())
        result = solve_qrm(records, config)
        solved_interior = result.grid.u[1:-1, 1:].reshape(-1)
        assert np.allclose(solved_interior, dense, rtol=1e-8, atol=1e-10)
        f_inf = np.max(np.abs(system.f_surface))
        interior_data = system.f_surface[1:-1, 1:].reshape(-1)
        assert np.max(np.abs(solved_interior - interior_data)) <= 1e-3 * f_inf

    def test_pde_misfit_monotone_in_beta(self):
        records = bs_series(n_days=12, spread_bp=20.0)[:2]
        misfits = [
            solve_qrm(records, QrmConfig(beta=beta)).residual
            for beta in (1.0, 0.1, 0.01, 0.001)
        ]
        for larger, smaller in zip(misfits, misfits[1:]):
            assert smaller <= larger + 1e-12

    def test_grid_refinement_changes_estimate_under_one_percent(self):
        records = bs_series(n_days=12)[:2]
        coarse = solve_qrm(records, QrmConfig(n_s=21, n_tau=11))
        fine = solve_qrm(records, QrmConfig(n_s=41, n_tau=21))
        assert abs(fine.est - coarse.est) <= 0.01 * abs(coarse.est)

    def test_deterministic_bit_identical(self):
        records = bs_series(n_days=12, spread_bp=10.0)[:2]
        a = solve_qrm(records, QrmConfig())
        b = solve_qrm(records, QrmConfig())
        assert a.est == b.est
        assert a.residual == b.residual
        assert a.regularization == b.regularization
        assert np.array_equal(a.grid.u, b.grid.u)

    def test_nonconvergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_qrm(blown_up_pair(), QrmConfig())
        assert excinfo.value.residual is not None
        assert excinfo.value.residual > 0

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_block_solve_matches_dense_oracle(self, k):
        # At beta = 1e3 cond(A^T A + beta I) is about 6e5, so the dense solve
        # pins the minimizer far below 1e-8.  At the default beta it is about
        # 6e10: there two solves whose normal residuals are both ~1e-15 differ
        # by up to ~1e-3 per node, so no solve can serve as a 1e-8 oracle.
        records = bs_series(n_days=12, spread_bp=20.0)[k - 1 : k + 1]
        config = QrmConfig(beta=1e3)
        system = assemble_system(records, config)
        normal = system.apply_normal(np.eye(system.n_unknowns))
        dense = np.linalg.solve(normal, system.normal_rhs())
        solved = solve_qrm(records, config).grid.u[1:-1, 1:].reshape(-1)
        assert np.allclose(solved, dense, rtol=1e-8, atol=0.0)

    def test_fine_grid_solve_lowers_the_objective(self):
        records = bs_series(n_days=12, spread_bp=20.0)[:2]
        config = QrmConfig(n_s=81, n_tau=41)
        system = assemble_system(records, config)
        result = solve_qrm(records, config)
        j_beta = result.residual + result.regularization
        assert np.all(np.isfinite(result.grid.u))
        assert j_beta == pytest.approx(objective(system, result.grid.u), rel=1e-12)
        assert j_beta <= objective(system, system.f_surface)

    def test_single_solve_tracks_exact_next_day_price(self):
        # One representative day pair from an exactly priced path; the
        # next-day closed-form repricing is the oracle.
        records = bs_series(n_days=30, sigma=0.2, seed=7, spread_bp=0.0)
        result = solve_qrm(records[8:10], QrmConfig())
        truth = records[10].option_mid
        assert abs(result.est - truth) / truth <= 0.02


class TestEstimateSeries:
    def test_two_records_one_estimate(self):
        series = estimate_series(bs_series(n_days=12)[:2], QrmConfig())
        assert len(series) == 2
        assert series[0] is None
        assert isinstance(series[1], Minimizer)

    def test_zero_vol_constant_series_estimates_the_mid(self):
        records = make_series([5.0] * 6, spread=0.2, implied_vol=0.0)
        series = estimate_series(records, QrmConfig())
        assert all(m.est == 5.0 for m in series[1:])

    def test_oracle_recovery_on_exact_bs_path(self):
        # Next-day repricing of the generated path is the oracle.
        records = bs_series(n_days=60, sigma=0.2, seed=7, spread_bp=0.0)
        series = estimate_series(records, QrmConfig())
        errors = [
            abs(series[k].est - records[k + 1].option_mid) / records[k + 1].option_mid
            for k in range(1, len(records) - 1)
        ]
        assert sum(errors) / len(errors) <= 0.03

    def test_errors_carry_day_index(self):
        with pytest.raises(ConvergenceError, match="day 1"):
            estimate_series(blown_up_pair(), QrmConfig())

    def test_days_per_block_follow_the_coupling_budget(self):
        assert qrm._days_per_block(QrmConfig()) == 36
        assert qrm._days_per_block(QrmConfig(n_s=81, n_tau=41)) == 1

    def test_blocks_equal_the_single_day_solve_on_days_that_differ(self):
        # 79 days span three blocks of 36, the last one partial.  A block
        # that mixed up two days' kappa or quotes would differ from the
        # one-day solve, which sees no other day.
        records = drifting_series(n_days=80)
        branches = [spread_sets_half_width(r) for r in records[1:]]
        assert any(branches) and not all(branches)
        config = QrmConfig()
        series = estimate_series(records, config)
        assert len(series) == len(records)
        for k in range(1, len(records)):
            assert_same_solve(series[k], solve_qrm(records[k - 1 : k + 1], config))

    def test_blocks_that_mix_shared_and_distinct_systems(self):
        # Runs of days with one vol and one stock quote share their normal
        # matrix; the days between change both daily.  The first two blocks
        # hold two shared systems of different sizes, interleaved with days
        # of their own; the option quotes differ on every day.
        records = mixed_series(n_days=80)
        config = QrmConfig()
        days_per_system = {1: [1] * 20 + [7, 9], 37: [1] * 20 + [4, 12], 73: [1] * 4 + [3]}
        for first, sizes in days_per_system.items():
            kappa = qrm._assemble(records[first - 1 : first + 36], config).kappa
            assert sorted(Counter(row.tobytes() for row in kappa).values()) == sizes
        series = estimate_series(records, config)
        for k in range(1, len(records)):
            assert_same_solve(series[k], solve_qrm(records[k - 1 : k + 1], config))

    def test_days_that_share_a_failing_system_name_the_earlier(self, monkeypatch):
        records = with_days(mixed_series(n_days=80), {40: blown_up, 50: blown_up})
        kappa = qrm._assemble(records[39:51], QrmConfig()).kappa
        assert kappa[0].tobytes() == kappa[10].tobytes()
        with pytest.raises(ConvergenceError, match=r"^day 40 .*non-finite"):
            estimate_series(records, QrmConfig())
        report_non_finite_as_singular(monkeypatch)
        with pytest.raises(ConvergenceError, match=r"^day 40 .*direct solve failed: Singular"):
            estimate_series(records, QrmConfig())

    def test_fine_grid_equals_the_single_day_solve(self):
        records = drifting_series(n_days=5, seed=6)
        config = QrmConfig(n_s=81, n_tau=41)
        series = estimate_series(records, config)
        for k in range(1, len(records)):
            assert_same_solve(series[k], solve_qrm(records[k - 1 : k + 1], config))

    def test_error_names_a_day_beyond_the_first_block(self):
        records = drifting_series(n_days=80)
        day_50 = r"^day 50 \(2021-02-23\): "
        with pytest.raises(ConvergenceError, match=day_50 + "direct solve") as excinfo:
            estimate_series(with_days(records, {50: blown_up}), QrmConfig())
        assert excinfo.value.residual == math.inf
        with pytest.raises(DataError, match=day_50 + "collapsed"):
            estimate_series(with_days(records, {50: collapsed}), QrmConfig())

    def test_earliest_failing_day_wins_within_a_block(self):
        # Days 45 and 50 share the second block, and a collapsed grid is found
        # while assembling, before any solve; still day 45 fails first.
        records = drifting_series(n_days=80)
        with pytest.raises(ConvergenceError, match=r"^day 45 "):
            estimate_series(with_days(records, {45: blown_up, 50: collapsed}), QrmConfig())
        with pytest.raises(DataError, match=r"^day 45 "):
            estimate_series(with_days(records, {45: collapsed, 50: blown_up}), QrmConfig())

    def test_singular_block_names_its_day(self, monkeypatch):
        # The stacked call fails for the whole block, and the error must
        # still name day 50 alone.
        report_non_finite_as_singular(monkeypatch)
        records = with_days(drifting_series(n_days=80), {50: blown_up})
        with pytest.raises(ConvergenceError, match=r"^day 50 .*direct solve failed: Singular"):
            estimate_series(records, QrmConfig())
        with pytest.raises(ConvergenceError, match=r"^direct solve failed: Singular"):
            solve_qrm(records[49:51], QrmConfig())

    @pytest.mark.parametrize("k, date", [(73, "2021-03-18"), (79, "2021-03-24")])
    @pytest.mark.parametrize("bad_day, error", [(blown_up, ConvergenceError), (collapsed, DataError)])
    def test_error_names_a_day_of_the_last_partial_block(self, k, date, bad_day, error):
        # Day 79 is the series' last: the one-day replay must reach it.
        records = with_days(drifting_series(n_days=80), {k: bad_day})
        with pytest.raises(error, match=rf"^day {k} \({date}\): "):
            estimate_series(records, QrmConfig())

    def test_a_failed_block_is_replayed_day_by_day_up_to_its_failure(self, monkeypatch):
        records = with_days(drifting_series(n_days=80), {50: blown_up})
        index = {r.day: k for k, r in enumerate(records)}
        real_solve_days = qrm._solve_days
        solved = []

        def recording_solve_days(pairs, config):
            solved.append((index[pairs[1].day], index[pairs[-1].day]))
            return real_solve_days(pairs, config)

        monkeypatch.setattr(qrm, "_solve_days", recording_solve_days)
        with pytest.raises(ConvergenceError, match=r"^day 50 "):
            estimate_series(records, QrmConfig())
        assert solved == [(1, 36), (37, 72)] + [(k, k) for k in range(37, 51)]

    def test_errors_chain_to_their_cause(self, monkeypatch):
        report_non_finite_as_singular(monkeypatch)
        records = blown_up_pair()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_qrm(records, QrmConfig())
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        with pytest.raises(ConvergenceError) as excinfo:
            estimate_series(records, QrmConfig())
        cause = excinfo.value.__cause__
        assert type(cause) is ConvergenceError
        assert str(excinfo.value) == f"day 1 ({records[1].day.isoformat()}): {cause}"
        assert cause.residual == excinfo.value.residual == math.inf

    def test_a_year_takes_one_stacked_solve_per_step_and_block(self, monkeypatch):
        # A silent fall back to one solve per day, or one unbounded stack,
        # would only show in the benchmark's spread; both show here.
        records = bs_series(n_days=252, spread_bp=20.0)
        config = QrmConfig()
        real_solve = np.linalg.solve
        calls = []

        def counting_solve(a, b):
            calls.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(qrm.np.linalg, "solve", counting_solve)
        tracemalloc.start()
        try:
            series = estimate_series(records, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 252
        blocks = math.ceil(251 / qrm._days_per_block(config))
        assert len(calls) == (config.n_tau - 1) * blocks == 70
        # Every day of the year has the same normal matrix, so each step
        # factors one system for the whole block.
        assert all(shape[0] == 1 for shape in calls)
        assert peak <= 2 * 2**20
        # Where every day differs, each step still stacks one matrix per day.
        calls.clear()
        estimate_series(drifting_series(n_days=80), config)
        assert [shape[0] for shape in calls] == [36] * 10 + [36] * 10 + [7] * 10

    def test_requires_two_records(self):
        with pytest.raises(DataError):
            estimate_series([make_record()], QrmConfig())


class TestConfigAndGrid:
    def test_config_validation(self):
        with pytest.raises(DataError):
            QrmConfig(n_s=4)
        with pytest.raises(DataError):
            QrmConfig(n_tau=2)
        with pytest.raises(DataError):
            QrmConfig(beta=0.0)
        with pytest.raises(DataError):
            QrmConfig(horizon=0.0)

    def test_grid_validation(self):
        # The solver runs these checks once per block of days, on the stack,
        # before it builds the block's grids; here the second day is bad.
        increasing, flat = np.array([1.0, 2.0, 3.0]), np.zeros((2, 3, 2))
        for s_values, tau_values in (
            (np.array([1.0, 0.5, 2.0]), np.array([0.0, 1.0])),
            (increasing, np.array([1.0, 1.0])),
            (np.array([0.0, np.nan, 1.0]), np.array([0.0, 0.5])),
        ):
            with pytest.raises(DataError, match="strictly increasing"):
                qrm._check_grids(np.stack([increasing, s_values]), tau_values, flat)
        for bad in (np.nan, np.inf):
            u = flat.copy()
            u[1, 1, 1] = bad
            with pytest.raises(DataError, match="non-finite"):
                qrm._check_grids(np.stack([increasing, increasing]), np.array([0.0, 1.0]), u)

    def test_grid_covers_at_least_the_quoted_spread(self):
        records = bs_series(n_days=12, spread_bp=500.0)[:2]
        system = assemble_system(records, QrmConfig())
        today = records[-1]
        assert system.s_values[0] <= today.stock_bid + 1e-9
        assert system.s_values[-1] >= today.stock_ask - 1e-9
