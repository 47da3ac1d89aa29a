"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Each workload turns the ``--seed`` into its inputs once per set-up
(:meth:`make_inputs`), runs one closed-loop pass over them
(:meth:`run_pass`, the timed part, returning stage times in seconds), and
then checks what the pass produced (:meth:`check`, not timed).  A check is an
``(operation, ok)`` pair; every one counts as an attempted operation.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from optioncast import cli, lstm, market_data, qrm
from optioncast.errors import ConvergenceError

MRE_GATE = 0.03  # the acceptance gate on QRM extrapolation error
SEPARABLE_MIN_ACCURACY = 0.90
CHANCE_BAND = (0.4, 0.6)

# The 252-day series every QRM workload uses; only its seed varies.
SERIES = {"s0": 100.0, "sigma": 0.2, "mu": 0.05, "n_days": 252, "spread_bp": 20.0}


@dataclasses.dataclass
class Outcome:
    """What a pass produced, as read back after it finished."""

    quality: dict[str, float]
    digest: str
    checks: list[tuple[str, bool]]


def series_seed(seed: int) -> int:
    return seed % 2**64


def forecast_errors(mids: list[float], ests: dict[int, float]) -> dict[str, float]:
    """Mean relative error of EST and of persistence against the next-day mid.

    ``ests[k]`` is the forecast made on day k for day k + 1.  Persistence
    ("tomorrow = today's mid") is scored on the same days, so
    ``qrm_skill = 1 - qrm_mre / persistence_mre`` compares like with like.
    """
    days = [k for k in sorted(ests) if k + 1 < len(mids)]
    est_err = [abs(ests[k] - mids[k + 1]) / mids[k + 1] for k in days]
    naive_err = [abs(mids[k] - mids[k + 1]) / mids[k + 1] for k in days]
    mre = math.fsum(est_err) / len(days)
    persistence = math.fsum(naive_err) / len(days)
    return {"qrm_mre": mre, "persistence_mre": persistence, "qrm_skill": 1.0 - mre / persistence}


def digest(*objects) -> str:
    """sha256 over the arrays and scalars reachable from ``objects``."""
    h = hashlib.sha256()

    def feed(obj, depth: int) -> None:
        if depth > 12:
            return
        if isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif obj is None or isinstance(obj, (bool, int, float, str, np.generic)):
            h.update(repr(obj).encode())
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item, depth + 1)
        elif isinstance(obj, dict):
            for key in sorted(obj, key=str):
                h.update(str(key).encode())
                feed(obj[key], depth + 1)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                h.update(f.name.encode())
                feed(getattr(obj, f.name), depth + 1)
        elif hasattr(obj, "__dict__"):
            feed(vars(obj), depth + 1)
        else:
            h.update(type(obj).__name__.encode())

    for obj in objects:
        feed(obj, 0)
    return h.hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_series(path: Path) -> tuple[list[str], list[float], list[float]]:
    """Dates, bids and asks of a quote CSV, read without the library's loader."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return (
        [r["date"] for r in rows],
        [float(r["option_bid"]) for r in rows],
        [float(r["option_ask"]) for r in rows],
    )


class Pipeline252d:
    """The CLI path, stage after stage, through ``cli.main`` in-process."""

    name = "pipeline_252d"

    def make_inputs(self, seed: int) -> dict:
        return {"seed": series_seed(seed)}

    def _stages(self, inputs: dict, out: Path) -> list[tuple[str, list[str]]]:
        series = str(out / "series.csv")
        return [
            ("synth", [
                "synth", "--s0", str(SERIES["s0"]), "--sigma", str(SERIES["sigma"]),
                "--mu", str(SERIES["mu"]), "--days", str(SERIES["n_days"]),
                "--seed", str(inputs["seed"]), "--spread-bp", str(SERIES["spread_bp"]),
                "--out", series,
            ]),
            ("qrm", ["qrm", "--input", series, "--out-dir", str(out / "qrm")]),
            ("train", ["train", "--input", series, "--out-dir", str(out / "train")]),
            ("backtest_qrm", [
                "backtest", "--input", series, "--out-dir", str(out / "backtest_qrm"),
                "--mode", "qrm",
            ]),
            ("backtest_classifier", [
                "backtest", "--input", series, "--out-dir", str(out / "backtest_classifier"),
                "--mode", "classifier", "--checkpoint", str(out / "train" / "checkpoint.json"),
            ]),
            ("fuse", ["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", str(out / "fuse")]),
            ("binomial", [
                "binomial", "--p", "0.56", "--ror", "2", "--rol", "0.5", "--days", "30",
                "--out-dir", str(out / "binomial"),
            ]),
        ]

    def run_pass(self, inputs: dict, out: Path, tracer) -> tuple[dict[str, float], dict]:
        times: dict[str, float] = {}
        exit_codes: dict[str, int | None] = {}
        for stage, argv in self._stages(inputs, out):
            start = time.perf_counter()
            try:
                # The CLI's progress lines would bury the benchmark's own output.
                with tracer.stage(stage, f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                    exit_codes[stage] = cli.main(argv)
            except Exception:  # a crash is a failed stage; keep measuring the rest
                traceback.print_exc(file=sys.stderr)
                exit_codes[stage] = None
            times[stage] = time.perf_counter() - start
        return times, exit_codes

    def check(self, inputs: dict, out: Path, exit_codes: dict) -> Outcome:
        checks = [(f"stage {stage} exits 0", code == 0) for stage, code in exit_codes.items()]
        quality: dict[str, float] = {}
        artifacts: dict[str, dict] = {}
        try:
            hashes_ok = True
            for manifest in sorted(out.rglob("*manifest.json")):
                listed = json.loads(manifest.read_text())["artifacts"]
                artifacts[str(manifest.relative_to(out))] = listed
                for name, sha in listed.items():
                    hashes_ok &= _sha256(manifest.parent / name) == sha
            checks.append(("artifacts match their manifest hashes", hashes_ok and len(artifacts) == 7))

            dates, bids, asks = _read_series(out / "series.csv")
            mids = [0.5 * (b + a) for b, a in zip(bids, asks)]
            day_of = {d: k for k, d in enumerate(dates)}
            with open(out / "qrm" / "estimates.csv", newline="") as fh:
                ests = {day_of[r["date"]]: float(r["est"]) for r in csv.DictReader(fh)}
            finite = all(math.isfinite(v) for v in ests.values())
            checks.append(("one finite EST per day after the first", finite and len(ests) == len(dates) - 1))
            quality.update(forecast_errors(mids, ests))
            checks.append((f"qrm_mre <= {MRE_GATE}", quality["qrm_mre"] <= MRE_GATE))

            # Independent P&L: buy at today's ask when EST >= ask, sell at tomorrow's bid.
            oracle = 0.0
            for k in range(len(dates) - 1):
                if k in ests and ests[k] >= asks[k]:
                    oracle += bids[k + 1] - asks[k]
            summary = json.loads((out / "backtest_qrm" / "summary.json").read_text())
            quality["pnl_qrm"] = summary["final_pnl"]
            checks.append(("QRM backtest P&L matches the recomputation",
                           abs(summary["final_pnl"] - oracle) <= 1e-9 * max(1.0, abs(oracle))))
            train = json.loads((out / "train" / "summary.json").read_text())
            quality["val_accuracy"] = train["best_val_accuracy"]
        except (OSError, KeyError, ValueError) as exc:
            print(f"pipeline output check failed: {exc!r}", file=sys.stderr)
            checks.append(("pipeline outputs readable", False))
        return Outcome(quality=quality, digest=digest(artifacts), checks=checks)


def separable_set(n: int, seed: int) -> tuple[list, list]:
    """Windows labelled by the sign of feature 9's window mean, plus a control.

    Feature 9 gets a +/-1 shift per window, so the label is learnable exactly;
    the other features are noise.  The control keeps the windows and permutes
    the labels, which leaves nothing to learn.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n_features = len(market_data.FEATURE_NAMES)
    windows = rng.standard_normal((n, market_data.WINDOW_LENGTH, n_features))
    shift = rng.choice([-1.0, 1.0], size=n)
    windows[:, :, 9] += shift[:, None]
    means = windows[:, :, 9].mean(axis=1)
    keep = means != 0.0
    windows = windows[keep]
    labels = (means[keep] > 0).astype(int)
    permuted = rng.permutation(labels)

    def samples(ys):
        return [
            market_data.SequenceSample(window=windows[i], label=int(ys[i]), end_index=i)
            for i in range(len(ys))
        ]

    return samples(labels), samples(permuted)


class LstmSeparable:
    """``lstm.train`` on the separable set, then on its permuted-label control."""

    name = "lstm_separable"
    n_samples = 2000

    def make_inputs(self, seed: int) -> dict:
        separable, permuted = separable_set(self.n_samples, series_seed(seed))
        return {
            "separable": separable,
            "permuted": permuted,
            "config": lstm.TrainConfig(hidden=16, batch=64, epochs=12, learning_rate=0.2, seed=7),
        }

    def run_pass(self, inputs: dict, out: Path, tracer) -> tuple[dict[str, float], dict]:
        times: dict[str, float] = {}
        results: dict = {}
        for stage in ("separable", "permuted"):
            start = time.perf_counter()
            try:
                with tracer.stage(stage, f"bench.{stage}"):
                    results[stage] = lstm.train(inputs[stage], inputs["config"])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                results[stage] = None
            times[f"train_{stage}"] = time.perf_counter() - start
        return times, results

    def check(self, inputs: dict, out: Path, results: dict) -> Outcome:
        checks = [(f"train {stage} completes", r is not None) for stage, r in results.items()]
        quality: dict[str, float] = {}
        separable, permuted = results.get("separable"), results.get("permuted")
        lo, hi = CHANCE_BAND
        if separable is not None:
            quality["val_accuracy"] = separable.best_val_accuracy
            checks.append((f"separable best val accuracy >= {SEPARABLE_MIN_ACCURACY}",
                           separable.best_val_accuracy >= SEPARABLE_MIN_ACCURACY))
        if permuted is not None:
            final = permuted.history[-1].val.accuracy
            quality["permuted_val_accuracy"] = final
            checks.append((f"permuted control accuracy in [{lo}, {hi}]",
                           lo <= final <= hi and lo <= permuted.best_val_accuracy <= hi))
        return Outcome(quality=quality, digest=digest(separable, permuted), checks=checks)


class QrmFineGrid:
    """``qrm.estimate_series`` on the 81x41 grid over the series' first days."""

    name = "qrm_fine_grid"
    n_days = 13

    def make_inputs(self, seed: int) -> dict:
        spec = market_data.SyntheticSpec(seed=series_seed(seed), **SERIES)
        return {
            "records": market_data.generate_gbm(spec)[: self.n_days],
            "config": qrm.QrmConfig(n_s=81, n_tau=41),
        }

    def run_pass(self, inputs: dict, out: Path, tracer) -> tuple[dict[str, float], dict]:
        start = time.perf_counter()
        try:
            with tracer.stage("estimate_series", "bench.estimate_series"):
                series = qrm.estimate_series(inputs["records"], inputs["config"])
        except ConvergenceError as exc:
            print(f"qrm_fine_grid: {exc}", file=sys.stderr)
            series = None
        return {"qrm": time.perf_counter() - start}, {"series": series}

    def check(self, inputs: dict, out: Path, result: dict) -> Outcome:
        records, series = inputs["records"], result["series"]
        if series is None:
            return Outcome(quality={}, digest="", checks=[("estimate_series converges", False)])
        solved = {k: m.est for k, m in enumerate(series) if m is not None}
        checks = [(f"solve day {k}", math.isfinite(est)) for k, est in solved.items()]
        checks.append(("one solve per day after the first", len(solved) == len(records) - 1))
        quality = {}
        if all(ok for _, ok in checks):
            quality = forecast_errors([r.option_mid for r in records], solved)
            checks.append((f"qrm_mre <= {MRE_GATE}", quality["qrm_mre"] <= MRE_GATE))
        return Outcome(quality=quality, digest=digest(sorted(solved.items())), checks=checks)


WORKLOADS = {w.name: w for w in (Pipeline252d(), LstmSeparable(), QrmFineGrid())}
