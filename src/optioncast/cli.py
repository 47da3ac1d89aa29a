"""Command-line entry point wiring the library into reproducible experiments.

Subcommands: synth, qrm, train, backtest, fuse, binomial, rerun.  Every run
writes its artifacts plus a ``manifest.json`` recording the command, the
fully resolved configuration, the seed, and a sha256 per artifact, so any
run can be replayed byte-for-byte with ``rerun``.

Option precedence is flags > ``--config`` JSON file > built-in defaults.
Exit codes: 0 success, 2 usage, 3 data/validation error, 4 numerical
failure (non-finite solve or diverged training).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import binomial as binomial_mod
from . import fusion as fusion_mod
from . import lstm as lstm_mod
from . import market_data, qrm, trading
from .errors import ConvergenceError, DataError

MANIFEST_SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGENCE = 4


class _UsageError(Exception):
    """Missing required options; maps to the usage exit code."""


_DEFAULTS: dict[str, dict] = {
    "synth": {
        "s0": None,
        "sigma": None,
        "mu": 0.0,
        "rate": 0.0,
        "days": None,
        "seed": 0,
        "spread_bp": 0.0,
        "out": "synth.csv",
    },
    "qrm": {
        "input": None,
        "out_dir": None,
        "n_s": 21,
        "n_tau": 11,
        "beta": 0.01,
        "horizon": market_data.TRADING_DAY_YEARS,
    },
    "train": {
        "input": None,
        "out_dir": None,
        "hidden": 32,
        "batch": 8,
        "epochs": 20,
        "lr": 0.05,
        "train_frac": 0.8,
        "optimizer": "sgd",
        "seed": 0,
    },
    "backtest": {
        "input": None,
        "out_dir": None,
        "mode": "qrm",
        "checkpoint": None,
    },
    "fuse": {
        "p1": None,
        "p2": None,
        "out_dir": None,
    },
    "binomial": {
        "p": None,
        "ror": None,
        "rol": None,
        "days": 1,
        "capital": 1.0,
        "out_dir": None,
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "synth": ("s0", "sigma", "days"),
    "qrm": ("input", "out_dir"),
    "train": ("input", "out_dir"),
    "backtest": ("input", "out_dir"),
    "fuse": ("p1", "p2", "out_dir"),
    "binomial": ("p", "ror", "out_dir"),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(path: Path, command: str, config: dict, seed, artifacts: list[Path]) -> None:
    _write_json(
        path,
        {
            "schema": MANIFEST_SCHEMA,
            "command": command,
            "config": config,
            "seed": seed,
            "artifacts": {p.name: _sha256(p) for p in artifacts},
        },
    )


def _resolve(command: str, flags: dict, config_path: str | None) -> dict:
    resolved = dict(_DEFAULTS[command])
    if config_path is not None:
        with open(config_path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise DataError(f"{config_path}: config file must hold a JSON object")
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise DataError(f"{config_path}: unknown config keys {sorted(unknown)}")
        resolved.update(file_cfg)
    for key, value in flags.items():
        if value is not None:
            resolved[key] = value
    missing = [k for k in _REQUIRED[command] if resolved.get(k) is None]
    if missing:
        raise _UsageError(f"missing required options for {command}: {', '.join(missing)}")
    return resolved


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(cfg: dict) -> int:
    spec = market_data.SyntheticSpec(
        s0=cfg["s0"],
        sigma=cfg["sigma"],
        mu=cfg["mu"],
        rate=cfg["rate"],
        n_days=int(cfg["days"]),
        seed=int(cfg["seed"]),
        spread_bp=cfg["spread_bp"],
    )
    records = market_data.generate_gbm(spec)
    out = Path(cfg["out"])
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    market_data.save_csv(records, out, seed=spec.seed)
    manifest = out.with_name(out.name + ".manifest.json")
    _write_manifest(manifest, "synth", cfg, spec.seed, [out])
    print(f"wrote {len(records)} rows to {out}")
    return EXIT_OK


def _load_records(cfg: dict) -> list[market_data.QuoteRecord]:
    return market_data.load_csv(cfg["input"])


def _qrm_config(cfg: dict) -> qrm.QrmConfig:
    return qrm.QrmConfig(
        n_s=int(cfg.get("n_s", 21)),
        n_tau=int(cfg.get("n_tau", 11)),
        beta=cfg.get("beta", 0.01),
        horizon=cfg.get("horizon", market_data.TRADING_DAY_YEARS),
    )


def _estimates_with_backfill(
    records, config: qrm.QrmConfig
) -> tuple[list[qrm.Minimizer | None], list[float]]:
    """Series estimates plus a dense estimate list (day 0 backfilled with its mid)."""
    series = qrm.estimate_series(records, config)
    dense = [
        records[0].option_mid if m is None else m.est for m in series
    ]
    return series, dense


def cmd_qrm(cfg: dict) -> int:
    records = _load_records(cfg)
    series = qrm.estimate_series(records, _qrm_config(cfg))
    out = _out_dir(cfg)
    est_csv = out / "estimates.csv"
    with open(est_csv, "w") as fh:
        fh.write("date,est,real0,residual\n")
        for rec, minimizer in zip(records, series):
            if minimizer is None:
                continue
            fh.write(
                f"{rec.day.isoformat()},{minimizer.est!r},"
                f"{rec.option_ask!r},{minimizer.residual!r}\n"
            )
    rel_errors = [
        abs(m.est - records[k + 1].option_mid) / records[k + 1].option_mid
        for k, m in enumerate(series)
        if m is not None and k + 1 < len(records) and records[k + 1].option_mid > 0
    ]
    summary = {
        "n_days": len(records),
        "n_estimates": sum(1 for m in series if m is not None),
        "mean_rel_error_vs_next_mid": (
            sum(rel_errors) / len(rel_errors) if rel_errors else None
        ),
    }
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    _write_manifest(out / "manifest.json", "qrm", cfg, None, [est_csv, summary_path])
    mre = summary["mean_rel_error_vs_next_mid"]
    print(
        f"qrm: {summary['n_estimates']} estimates; "
        f"mean relative error vs next-day mid: "
        + (f"{mre:.4%}" if mre is not None else "n/a")
    )
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    records = _load_records(cfg)
    _, dense = _estimates_with_backfill(records, _qrm_config(cfg))
    samples = market_data.build_sequences(records, dense)
    frac = float(cfg["train_frac"])
    config = lstm_mod.TrainConfig(
        hidden=int(cfg["hidden"]),
        batch=int(cfg["batch"]),
        epochs=int(cfg["epochs"]),
        learning_rate=cfg["lr"],
        seed=int(cfg["seed"]),
        split=(frac, 1.0 - frac),
        optimizer=cfg["optimizer"],
    )
    result = lstm_mod.train(samples, config)
    out = _out_dir(cfg)
    ckpt = out / "checkpoint.json"
    lstm_mod.save_checkpoint(ckpt, result, config)
    history_csv = out / "history.csv"
    with open(history_csv, "w") as fh:
        fh.write("epoch,train_loss,val_accuracy,val_precision,val_recall,best_val_accuracy\n")
        for row in result.history:
            fh.write(
                f"{row.epoch},{row.train_loss!r},{row.val.accuracy!r},"
                f"{row.val.precision!r},{row.val.recall!r},{row.best_val_accuracy!r}\n"
            )
    summary_path = out / "summary.json"
    _write_json(
        summary_path,
        {
            "n_samples": len(samples),
            "best_epoch": result.best_epoch,
            "best_val_accuracy": result.best_val_accuracy,
        },
    )
    _write_manifest(
        out / "manifest.json", "train", cfg, config.seed, [ckpt, history_csv, summary_path]
    )
    print(
        f"train: {len(samples)} samples, best val accuracy "
        f"{result.best_val_accuracy:.4f} at epoch {result.best_epoch}"
    )
    return EXIT_OK


def cmd_backtest(cfg: dict) -> int:
    records = _load_records(cfg)
    mode = cfg["mode"]
    signals: list[float | None]
    if mode == "qrm":
        series = qrm.estimate_series(records, _qrm_config(cfg))
        signals = [None if m is None else m.est for m in series]
    elif mode == "classifier":
        if cfg.get("checkpoint") is None:
            raise DataError("classifier mode requires --checkpoint")
        params, stats, _ = lstm_mod.load_checkpoint(cfg["checkpoint"])
        _, dense = _estimates_with_backfill(records, _qrm_config(cfg))
        samples = market_data.build_sequences(records, dense)
        standardized = market_data.standardize_samples(samples, stats)
        signals = [None] * len(records)
        if standardized:
            windows = np.stack([s.window for s in standardized])
            probs, _ = lstm_mod.forward_batch(params, windows)
            for sample, prob in zip(standardized, probs):
                signals[sample.end_index] = float(prob)
    else:
        raise DataError(f"mode must be 'qrm' or 'classifier', got {mode!r}")
    result = trading.backtest(records, signals, mode=mode)
    out = _out_dir(cfg)
    plot_csv = out / "equity.csv"
    trading.emit_plot_data(result, plot_csv)
    summary_path = out / "summary.json"
    _write_json(summary_path, result.to_json())
    _write_manifest(out / "manifest.json", "backtest", cfg, None, [plot_csv, summary_path])
    print(
        f"backtest[{mode}]: {result.n_trades} trades, hit rate {result.hit_rate:.3f}, "
        f"final pnl {result.final_pnl:.6f}"
    )
    return EXIT_OK


def cmd_fuse(cfg: dict) -> int:
    joint = fusion_mod.joint_precision(cfg["p1"], cfg["p2"])
    out = _out_dir(cfg)
    report_path = out / "fusion.json"
    _write_json(report_path, {"p1": cfg["p1"], "p2": cfg["p2"], "joint_precision": joint})
    _write_manifest(out / "manifest.json", "fuse", cfg, None, [report_path])
    print(f"joint precision({cfg['p1']}, {cfg['p2']}) = {joint:.6f}")
    return EXIT_OK


def cmd_binomial(cfg: dict) -> int:
    spec = binomial_mod.BinomialSpec(
        p=cfg["p"],
        ror=cfg["ror"],
        rol=cfg["rol"],
        initial=cfg["capital"],
        days=int(cfg["days"]),
    )
    expectation = binomial_mod.expected_wealth(spec)
    report = binomial_mod.martingale_check(spec)
    out = _out_dir(cfg)
    artifacts = []
    if spec.days <= binomial_mod.ENUMERATION_LIMIT:
        dist = binomial_mod.enumerate_tree(spec)
        dist_csv = out / "distribution.csv"
        dist.write_csv(dist_csv)
        artifacts.append(dist_csv)
    summary_path = out / "summary.json"
    _write_json(
        summary_path,
        {
            "expectation": expectation,
            "growth": report.per_step_growth,
            "is_martingale": report.is_martingale,
        },
    )
    artifacts.append(summary_path)
    _write_manifest(out / "manifest.json", "binomial", cfg, None, artifacts)
    note = "" if report.is_martingale else (
        f" (not a martingale: per-step growth {report.per_step_growth:g} != 1)"
    )
    print(f"expected wealth after {spec.days} day(s): {expectation:.6f}{note}")
    return EXIT_OK


def cmd_rerun(manifest_path: str, out_dir: str | None) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise DataError(f"unsupported manifest schema {manifest.get('schema')!r}")
    command = manifest.get("command")
    if command not in _COMMANDS:
        raise DataError(f"manifest names unknown command {command!r}")
    cfg = dict(_DEFAULTS[command])
    cfg.update(manifest.get("config", {}))
    missing = [k for k in _REQUIRED[command] if cfg.get(k) is None]
    if missing:
        raise DataError(f"manifest config is missing {', '.join(missing)}")
    if out_dir is not None:
        if command == "synth":
            cfg["out"] = str(Path(out_dir) / Path(cfg["out"]).name)
        else:
            cfg["out_dir"] = out_dir
    return _COMMANDS[command](cfg)


_COMMANDS = {
    "synth": cmd_synth,
    "qrm": cmd_qrm,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "fuse": cmd_fuse,
    "binomial": cmd_binomial,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optioncast",
        description="Option forecasting experiments: synthetic data, PDE extrapolation, "
        "LSTM training, fusion diagnostics, backtests, and binomial projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of option defaults (flags win)")

    p = sub.add_parser("synth", help="generate a synthetic GBM quote series CSV")
    p.add_argument("--s0", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--days", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spread-bp", dest="spread_bp", type=float)
    p.add_argument("--out")
    add_common(p)

    p = sub.add_parser("qrm", help="one-day-ahead price extrapolation over a series")
    p.add_argument("--input")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-s", dest="n_s", type=int)
    p.add_argument("--n-tau", dest="n_tau", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--horizon", type=float)
    add_common(p)

    p = sub.add_parser("train", help="train the direction classifier on a series")
    p.add_argument("--input")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--hidden", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.add_argument("--optimizer", choices=["sgd", "adam"])
    p.add_argument("--seed", type=int)
    add_common(p)

    p = sub.add_parser("backtest", help="run the threshold strategy over a series")
    p.add_argument("--input")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--mode", choices=["qrm", "classifier"])
    p.add_argument("--checkpoint")
    add_common(p)

    p = sub.add_parser("fuse", help="joint precision of two independent classifiers")
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    add_common(p)

    p = sub.add_parser("binomial", help="binomial wealth expectation and distribution")
    p.add_argument("--p", type=float)
    p.add_argument("--ror", type=float)
    p.add_argument("--rol", type=float)
    p.add_argument("--days", type=int)
    p.add_argument("--capital", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    add_common(p)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "rerun":
            return cmd_rerun(args.manifest, args.out_dir)
        flags = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "config")
        }
        cfg = _resolve(args.command, flags, args.config)
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
