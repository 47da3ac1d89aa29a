"""Acceptance suite: one test per release gate, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from helpers import make_series, separable_dataset
from optioncast import cli, lstm
from optioncast.binomial import (
    BinomialSpec,
    enumerate_tree,
    expected_wealth,
    martingale_check,
)
from optioncast.bs_core import call_price
from optioncast.fusion import joint_precision
from optioncast.market_data import SyntheticSpec, generate_gbm
from optioncast.qrm import QrmConfig, assemble_system, estimate_series
from optioncast.trading import backtest


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS [{name}]: {detail}")


def test_01_fusion_formula_reproduction():
    value = joint_precision(0.56, 0.59)
    assert abs(value - 0.647) <= 5e-4
    _report("fusion formula", f"joint_precision(0.56, 0.59) = {value:.6f} within 5e-4 of 0.647")


def test_02_binomial_one_day_expectation():
    spec = BinomialSpec(p=0.56, ror=2.0, rol=0.5, initial=1.0, days=1)
    value = expected_wealth(spec)
    assert abs(value - 1.34) <= 1e-12
    _report("binomial one-day", f"expected wealth {value!r} within 1e-12 of 1.34")


def test_03_binomial_oracle_equivalence():
    # Full 2^k path walk, recombining enumeration, and the closed form must
    # agree within 1e-9 relative for 100 random specs with k <= 12.
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(100):
        spec = BinomialSpec(
            p=float(rng.uniform(0.05, 0.95)),
            ror=float(rng.uniform(1.01, 3.0)),
            rol=float(rng.uniform(0.2, 0.99)),
            initial=float(rng.uniform(0.1, 10.0)),
            days=int(rng.integers(0, 13)),
        )
        path_expectation = 0.0
        for path in itertools.product((0, 1), repeat=spec.days):
            ups = sum(path)
            wealth = spec.initial * spec.ror**ups * spec.rol ** (spec.days - ups)
            path_expectation += wealth * spec.p**ups * (1.0 - spec.p) ** (spec.days - ups)
        closed = expected_wealth(spec)
        tree = enumerate_tree(spec).expectation
        worst = max(
            worst,
            abs(closed - path_expectation) / abs(path_expectation),
            abs(tree - path_expectation) / abs(path_expectation),
        )
    assert worst <= 1e-9
    _report("binomial oracle", f"100 random specs, worst relative disagreement {worst:.2e}")


def test_04_martingale_diagnostic():
    report = martingale_check(BinomialSpec(p=2.0 / 3.0, ror=2.0, rol=0.5))
    assert abs(report.per_step_growth - 1.5) <= 1e-12
    assert report.is_martingale is False
    _report(
        "martingale diagnostic",
        f"p=2/3, ror=2, rol=0.5 gives growth {report.per_step_growth} "
        "and is_martingale=False",
    )


def test_05_lstm_gradient_audit():
    eps = 1e-5
    worst = 0.0
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        params = lstm.init_params(4, rng)
        window = rng.standard_normal((10, 13))
        label = float(seed % 2)
        _, cache = lstm.forward(params, window)
        analytic = lstm.params_to_vector(lstm.backward(cache, label))
        vec = lstm.params_to_vector(params)
        for i in range(len(vec)):
            bumped = vec.copy()
            bumped[i] += eps
            up, _ = lstm.forward(lstm.vector_to_params(bumped, 4), window)
            bumped[i] -= 2 * eps
            down, _ = lstm.forward(lstm.vector_to_params(bumped, 4), window)
            fd = (lstm.loss(up, label) - lstm.loss(down, label)) / (2 * eps)
            rel = abs(analytic[i] - fd) / max(1e-8, abs(analytic[i]) + abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-4, f"seed {seed}, parameter {i}"
    _report("lstm gradients", f"5 seeds x 437 parameters, worst relative error {worst:.2e}")


def test_06_lstm_learning_sanity():
    config = lstm.TrainConfig(hidden=16, batch=64, epochs=12, learning_rate=0.2, seed=7)
    result = lstm.train(separable_dataset(n=2000, seed=123), config)
    assert result.best_val_accuracy >= 0.90
    assert result.best_epoch <= 30

    permuted = lstm.train(separable_dataset(n=2000, seed=123, permute=True), config)
    final_acc = permuted.history[-1].val.accuracy
    assert 0.4 <= final_acc <= 0.6
    assert 0.4 <= permuted.best_val_accuracy <= 0.6
    _report(
        "lstm learning",
        f"separable best val accuracy {result.best_val_accuracy:.4f} "
        f"(epoch {result.best_epoch}); permuted-label accuracy {final_acc:.4f}",
    )


def _bs_oracle_series(sigma=0.2, n_days=250, seed=7, spread_bp=0.0):
    spec = SyntheticSpec(
        s0=100.0, sigma=sigma, mu=0.05, rate=0.02,
        n_days=n_days, seed=seed, spread_bp=spread_bp,
    )
    return generate_gbm(spec)


def test_07_qrm_oracle_recovery():
    records = _bs_oracle_series()
    series = estimate_series(records, QrmConfig())
    errors = [
        abs(series[k].est - records[k + 1].option_mid) / records[k + 1].option_mid
        for k in range(1, len(records) - 1)
    ]
    mean_error = sum(errors) / len(errors)
    assert mean_error <= 0.03

    flat = make_series([5.0] * 4, spread=0.2, implied_vol=0.0)
    degenerate = estimate_series(flat, QrmConfig())
    for minimizer in degenerate[1:]:
        assert abs(minimizer.est - 5.0) <= 1e-10
    _report(
        "qrm oracle",
        f"250-day mean relative error {mean_error:.4%} <= 3%; "
        "zero-vol case returns the mid to 1e-10",
    )


def test_08_qrm_well_posedness():
    records = _bs_oracle_series(n_days=30)
    config = QrmConfig()
    rng = np.random.Generator(np.random.PCG64(99))
    for k in range(1, len(records)):
        system = assemble_system(records[k - 1 : k + 1], config)
        for _ in range(100):
            v = rng.standard_normal(system.n_unknowns)
            assert float(v @ system.apply_normal(v)) > 0.0
    series = estimate_series(records, config)
    worst = 0.0
    for k in range(1, len(records)):
        system = assemble_system(records[k - 1 : k + 1], config)
        u = series[k].grid.u
        rhs = system.normal_rhs()
        x = u[1:-1, 1:].reshape(-1)
        relative = np.linalg.norm(system.apply_normal(x) - rhs) / np.linalg.norm(rhs)
        worst = max(worst, relative)
        assert relative <= 1e-10
        data_misfit = system.pde_residual(system.f_surface)
        assert series[k].residual + series[k].regularization <= float(np.sum(data_misfit**2))
    _report(
        "qrm well-posedness",
        f"29 systems x 100 Rayleigh quotients positive; normal-equation residual "
        f"<= {worst:.1e} relative; J_beta(u) <= J_beta(F) every day",
    )


def test_09_black_scholes_bounds_and_boundary():
    rng = np.random.Generator(np.random.PCG64(31337))
    n = 100_000
    s = rng.uniform(0.2, 400.0, n)
    k = rng.uniform(0.2, 400.0, n)
    sigma = rng.uniform(0.01, 1.5, n)
    tau = rng.uniform(0.0, 3.0, n)
    rate = rng.uniform(0.0, 0.12, n)
    for i in range(n):
        price = call_price(s[i], tau[i], k[i], sigma[i], rate[i])
        lower = max(s[i] - k[i] * math.exp(-rate[i] * tau[i]), 0.0)
        assert lower - 1e-9 <= price <= s[i] + 1e-9
    checked = 0
    for i in range(2000):
        if abs(s[i] - k[i]) < 1e-3:
            continue
        assert abs(call_price(s[i], 1e-12, k[i], sigma[i], rate[i]) - max(s[i] - k[i], 0.0)) <= 1e-6
        checked += 1
    _report(
        "black-scholes bounds",
        f"100000 random inputs inside no-arbitrage bounds; "
        f"{checked} near-expiry payoff checks within 1e-6",
    )


def test_10_backtest_accounting():
    rng = np.random.Generator(np.random.PCG64(555))
    for trial in range(100):
        spec = SyntheticSpec(
            s0=float(rng.uniform(20.0, 200.0)),
            sigma=float(rng.uniform(0.05, 0.6)),
            mu=float(rng.uniform(-0.2, 0.3)),
            n_days=int(rng.integers(12, 30)),
            seed=int(rng.integers(0, 2**32)),
            spread_bp=float(rng.uniform(0.0, 100.0)),
        )
        records = generate_gbm(spec)
        signals = [r.option_mid * (1.0 + 0.03 * rng.standard_normal()) for r in records]
        full = backtest(records, signals, mode="qrm")
        total = sum(d.pnl for d in full.decisions if d.pnl is not None)
        assert abs(full.final_pnl - total) <= 1e-9
        cut = int(rng.integers(2, len(records)))
        truncated = backtest(records[:cut], signals[:cut], mode="qrm")
        assert truncated.equity_curve == full.equity_curve[: cut - 1]

    wide = generate_gbm(
        SyntheticSpec(s0=100.0, sigma=0.0, mu=0.0, n_days=15, seed=0, spread_bp=200.0)
    )
    adversarial = backtest(wide, [r.option_ask for r in wide], mode="qrm")
    for k, decision in enumerate(adversarial.decisions):
        quoted_spread = wide[k].option_ask - wide[k].option_bid
        assert decision.pnl == -quoted_spread
    _report(
        "backtest accounting",
        "100 random series pass truncation and equity-sum checks; "
        "wide-spread series loses exactly the quoted spread per trade",
    )


def test_11_end_to_end_determinism(tmp_path):
    def pipeline(root: Path) -> dict[str, bytes]:
        root.mkdir(parents=True, exist_ok=True)
        data = root / "series.csv"
        assert cli.main([
            "synth", "--s0", "100", "--sigma", "0.2", "--mu", "0.05",
            "--days", "120", "--seed", "7", "--spread-bp", "20",
            "--out", str(data),
        ]) == 0
        assert cli.main([
            "qrm", "--input", str(data), "--out-dir", str(root / "qrm"),
        ]) == 0
        assert cli.main([
            "train", "--input", str(data), "--out-dir", str(root / "train"),
            "--hidden", "8", "--epochs", "2", "--batch", "8", "--seed", "3",
        ]) == 0
        assert cli.main([
            "backtest", "--input", str(data), "--out-dir", str(root / "backtest"),
            "--mode", "classifier",
            "--checkpoint", str(root / "train" / "checkpoint.json"),
        ]) == 0
        payload = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                payload[str(path.relative_to(root))] = path.read_bytes()
        return payload

    # identical invocations into the same location: everything byte-identical
    first = pipeline(tmp_path / "run")
    second = pipeline(tmp_path / "run")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between reruns"

    # a separate location: artifacts still byte-identical (manifests may
    # differ only in the configured paths they record)
    elsewhere = pipeline(tmp_path / "elsewhere")
    for name in first:
        if not name.endswith("manifest.json"):
            assert first[name] == elsewhere[name], f"artifact {name} is path-dependent"

    # replaying from the recorded manifests reproduces the same bytes again
    rerun_dir = tmp_path / "rerun_qrm"
    assert cli.main([
        "rerun", "--manifest", str(tmp_path / "run" / "qrm" / "manifest.json"),
        "--out-dir", str(rerun_dir),
    ]) == 0
    qrm_manifest = json.loads((tmp_path / "run" / "qrm" / "manifest.json").read_text())
    rerun_manifest = json.loads((rerun_dir / "manifest.json").read_text())
    assert qrm_manifest["artifacts"] == rerun_manifest["artifacts"]
    _report(
        "end-to-end determinism",
        f"synth->qrm->train->backtest twice: {len(first)} artifacts byte-identical; "
        "manifest replay reproduces the hashes",
    )
