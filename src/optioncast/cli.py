"""Command-line entry point wiring the library into reproducible experiments.

Subcommands: synth, qrm, train, backtest, fuse, binomial, rerun.  Every run
writes its artifacts plus a ``manifest.json`` recording the command, the
fully resolved configuration, the seed, and a sha256 per file read and per
artifact, so any run can be replayed byte-for-byte with ``rerun``, which
refuses to replay once an input file has changed.

Each ``cmd_*`` only computes: it returns ``(artifacts, message)``, where
``artifacts`` maps file names, in write order, to a dict (written as JSON) or
a writer called with the path; every CSV table, a report or a quote series,
is written by ``market_data.write_table``.  One runner, ``_run``, writes them
and then the manifest, and prints the message.  It writes nothing until the
command has returned, so a failed run writes nothing.  The manifest's seed
is the command's ``seed`` option, null for a command without one.

Option precedence is flags > ``--config`` JSON file > built-in defaults.
Exit codes: 0 success, 2 usage, 3 data/validation error, 4 numerical
failure (non-finite solve or diverged training).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import binomial as binomial_mod
from . import fusion as fusion_mod
from . import lstm as lstm_mod
from . import market_data, qrm, trading
from .errors import ConvergenceError, DataError

MANIFEST_SCHEMA = 2
# The options that name a file the command reads; the manifest hashes each one set.
_INPUTS = ("input", "checkpoint")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGENCE = 4


class _UsageError(Exception):
    """Missing required options; maps to the usage exit code."""


# Marks an option that has no default: a flag, a config file or a manifest
# must set it.
_NO_DEFAULT = object()

# command -> option -> (converter or allowed strings, default).  The flag of
# option ``out_dir`` is ``--out-dir``; a config file or a manifest takes the
# option names as keys.  Defaults the library defines are read from it.
_OPTIONS: dict[str, dict[str, tuple]] = {
    "synth": {
        "s0": (float, _NO_DEFAULT),
        "sigma": (float, _NO_DEFAULT),
        "mu": (float, market_data.SyntheticSpec.mu),
        "rate": (float, market_data.SyntheticSpec.rate),
        "days": (int, _NO_DEFAULT),
        "seed": (int, market_data.SyntheticSpec.seed),
        "spread_bp": (float, market_data.SyntheticSpec.spread_bp),
        "out": (str, "synth.csv"),
    },
    "qrm": {
        "input": (str, _NO_DEFAULT),
        "out_dir": (str, _NO_DEFAULT),
        "n_s": (int, qrm.QrmConfig.n_s),
        "n_tau": (int, qrm.QrmConfig.n_tau),
        "beta": (float, qrm.QrmConfig.beta),
    },
    "train": {
        "input": (str, _NO_DEFAULT),
        "out_dir": (str, _NO_DEFAULT),
        "hidden": (int, lstm_mod.TrainConfig.hidden),
        "batch": (int, lstm_mod.TrainConfig.batch),
        "epochs": (int, lstm_mod.TrainConfig.epochs),
        "lr": (float, lstm_mod.TrainConfig.learning_rate),
        "train_frac": (float, lstm_mod.TrainConfig.train_frac),
        "optimizer": (("sgd", "adam"), lstm_mod.TrainConfig.optimizer),
        "seed": (int, lstm_mod.TrainConfig.seed),
    },
    "backtest": {
        "input": (str, _NO_DEFAULT),
        "out_dir": (str, _NO_DEFAULT),
        "mode": (("qrm", "classifier"), "qrm"),
        "checkpoint": (str, None),
    },
    "fuse": {
        "p1": (float, _NO_DEFAULT),
        "p2": (float, _NO_DEFAULT),
        "out_dir": (str, _NO_DEFAULT),
    },
    "binomial": {
        "p": (float, _NO_DEFAULT),
        "ror": (float, _NO_DEFAULT),
        "rol": (float, binomial_mod.BinomialSpec.rol),
        "days": (int, binomial_mod.BinomialSpec.days),
        "capital": (float, binomial_mod.BinomialSpec.initial),
        "out_dir": (str, _NO_DEFAULT),
    },
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(path: Path, command: str, config: dict, inputs: dict,
                    artifacts: list[Path]) -> None:
    _write_json(
        path,
        {
            "schema": MANIFEST_SCHEMA,
            "command": command,
            "config": config,
            "seed": config.get("seed"),
            "inputs": inputs,
            "artifacts": {p.name: _sha256(p) for p in artifacts},
        },
    )


def _check_inputs(cfg: dict, recorded, source: str) -> None:
    """Refuse a replay unless every input file is the one the manifest hashed."""
    if not isinstance(recorded, dict):
        raise DataError(f"{source}: manifest has no inputs object")
    for key in _INPUTS:
        path = cfg.get(key)
        if path is None:
            continue
        if key not in recorded:
            problem = "has no sha256 in the manifest"
        elif not Path(path).is_file():
            problem = "is missing"
        elif _sha256(Path(path)) != recorded[key]:
            problem = "changed since the manifest was written"
        else:
            continue
        raise DataError(f"{source}: {key} {path} {problem}; rerun replays only unchanged inputs")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _convert(source: str, key: str, kind, value):
    """A config value as its flag would parse it from the command line."""
    try:
        if isinstance(kind, tuple):
            if value in kind:
                return value
        elif type(value) in (str, int, float):
            return kind(str(value))
    except ValueError:
        pass
    expected = " or ".join(map(repr, kind)) if isinstance(kind, tuple) else kind.__name__
    raise DataError(f"{source}: config key {key!r} must be {expected}, got {value!r}")


def _resolve(command: str, file_cfg, source: str, flags: dict | None = None) -> dict:
    """Defaults, overridden by ``file_cfg`` (a config file or a manifest's
    config), overridden by the flags that were given."""
    options = _OPTIONS[command]
    if not isinstance(file_cfg, dict):
        raise DataError(f"{source}: config must be a JSON object")
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise DataError(f"{source}: unknown config keys {sorted(unknown)}")
    resolved = {key: default for key, (_, default) in options.items()}
    for key, value in file_cfg.items():
        kind, default = options[key]
        if value is not None:
            resolved[key] = _convert(source, key, kind, value)
        elif default is not None and default is not _NO_DEFAULT:
            raise DataError(f"{source}: config key {key!r} must not be null")
    resolved.update((key, value) for key, value in (flags or {}).items() if value is not None)
    missing = [key for key, value in resolved.items() if value is _NO_DEFAULT]
    if missing:
        raise _UsageError(f"missing required options for {command}: {', '.join(missing)}")
    return resolved


def _config(cls, cfg: dict, **renamed):
    """``cls`` built from the options named as its fields, or as ``renamed`` maps them."""
    return cls(**{f.name: cfg[renamed.get(f.name, f.name)] for f in dataclasses.fields(cls)})


def cmd_synth(cfg: dict) -> tuple:
    """generate a synthetic GBM quote series CSV"""
    spec = _config(market_data.SyntheticSpec, cfg, n_days="days")
    records = market_data.generate_gbm(spec)
    out = Path(cfg["out"])
    writer = functools.partial(market_data.save_csv, records, seed=spec.seed)
    return {out.name: writer}, f"wrote {len(records)} rows to {out}"


def _default_estimates(records) -> list[float]:
    """EST per day under ``lstm.FEATURE_QRM``; day 0, with no prior day, takes its mid."""
    series = qrm.estimate_series(records, lstm_mod.FEATURE_QRM)
    return [records[0].option_mid if m is None else m.est for m in series]


def cmd_qrm(cfg: dict) -> tuple:
    """one-day-ahead price extrapolation over a series"""
    records = market_data.load_csv(cfg["input"])
    series = qrm.estimate_series(records, _config(qrm.QrmConfig, cfg))
    solved = [(rec, m) for rec, m in zip(records, series) if m is not None]
    estimates = functools.partial(
        market_data.write_table,
        columns=("date", "est", "ask", "residual", "regularization", "tap_half", "tap_dmid",
                 "tap_dhalf"),
        rows=[(rec.day, m.est, rec.option_ask, m.residual, m.regularization, *m.taps)
              for rec, m in solved])
    rel_errors = [
        abs(m.est - records[k + 1].option_mid) / records[k + 1].option_mid
        for k, m in enumerate(series)
        if m is not None and k + 1 < len(records) and records[k + 1].option_mid > 0
    ]
    summary = {
        "n_days": len(records),
        "n_estimates": len(solved),
        "mean_rel_error_vs_next_mid": (
            sum(rel_errors) / len(rel_errors) if rel_errors else None
        ),
        # EST = mid + tap_half half + tap_dmid dmid + tap_dhalf dhalf, one filter per system.
        "taps": [dict(zip(("tap_half", "tap_dmid", "tap_dhalf", "days"), (*taps, n)))
                 for taps, n in collections.Counter(m.taps for _, m in solved).items()],
    }
    mre = summary["mean_rel_error_vs_next_mid"]
    message = (
        f"qrm: {summary['n_estimates']} estimates; "
        f"mean relative error vs next-day mid: "
        + (f"{mre:.4%}" if mre is not None else "n/a")
    )
    return {"estimates.csv": estimates, "summary.json": summary}, message


def cmd_train(cfg: dict) -> tuple:
    """train the direction classifier on a series"""
    records = market_data.load_csv(cfg["input"])
    samples = market_data.build_sequences(records, _default_estimates(records))
    config = _config(lstm_mod.TrainConfig, cfg, learning_rate="lr")
    result = lstm_mod.train(samples, config)
    history = functools.partial(
        market_data.write_table,
        columns=("epoch", "train_loss", "val_accuracy", "val_precision", "val_recall",
                 "best_val_accuracy"),
        rows=[(row.epoch, row.train_loss, row.val.accuracy, row.val.precision, row.val.recall,
               row.best_val_accuracy) for row in result.history])
    artifacts = {
        "checkpoint.json": functools.partial(lstm_mod.save_checkpoint, result=result,
                                             config=config),
        "history.csv": history,
        "summary.json": {
            "n_samples": len(samples),
            "best_epoch": result.best_epoch,
            "best_val_accuracy": result.best_val_accuracy,
        },
    }
    message = (
        f"train: {len(samples)} samples, best val accuracy "
        f"{result.best_val_accuracy:.4f} at epoch {result.best_epoch}"
    )
    return artifacts, message


def cmd_backtest(cfg: dict) -> tuple:
    """run the threshold strategy over a series"""
    records = market_data.load_csv(cfg["input"])
    mode = cfg["mode"]
    signals: list[float | None]
    if mode == "qrm":
        if cfg["checkpoint"] is not None:
            raise DataError("--checkpoint is read only with --mode classifier, not --mode qrm")
        # Day 0 has no estimate of its own, so it does not trade.
        signals = [None, *_default_estimates(records)[1:]]
    else:
        if cfg["checkpoint"] is None:
            raise DataError("classifier mode requires --checkpoint")
        params, stats = lstm_mod.load_checkpoint(cfg["checkpoint"])
        samples = market_data.build_sequences(records, _default_estimates(records))
        signals = [None] * len(records)
        for sample, prob in zip(samples, lstm_mod.predict(params, stats, samples)):
            signals[sample.end_index] = float(prob)
    result = trading.backtest(records, signals, mode=mode)
    equity = functools.partial(
        market_data.write_table, columns=("date", "cumulative_pnl", "trade_pnl", "action"),
        rows=[(d.day, pnl, 0.0 if d.pnl is None else d.pnl, d.action)
              for d, pnl in zip(result.decisions, result.equity_curve)])
    summary = {key: getattr(result, key) for key in ("final_pnl", "n_trades", "hit_rate")}
    artifacts = {"equity.csv": equity, "summary.json": summary}
    message = (
        f"backtest[{mode}]: {result.n_trades} trades, hit rate {result.hit_rate:.3f}, "
        f"final pnl {result.final_pnl:.6f}"
    )
    return artifacts, message


def cmd_fuse(cfg: dict) -> tuple:
    """joint precision of two independent classifiers"""
    joint = fusion_mod.joint_precision(cfg["p1"], cfg["p2"])
    report = {"p1": cfg["p1"], "p2": cfg["p2"], "joint_precision": joint}
    message = f"joint precision({cfg['p1']}, {cfg['p2']}) = {joint:.6f}"
    return {"fusion.json": report}, message


def cmd_binomial(cfg: dict) -> tuple:
    """binomial wealth expectation and distribution"""
    spec = _config(binomial_mod.BinomialSpec, cfg, initial="capital")
    expectation = binomial_mod.expected_wealth(spec)
    report = binomial_mod.martingale_check(spec)
    artifacts = {}
    if spec.days <= binomial_mod.ENUMERATION_LIMIT:
        artifacts["distribution.csv"] = functools.partial(
            market_data.write_table, columns=("wealth", "probability"),
            rows=binomial_mod.enumerate_tree(spec).outcomes)
    artifacts["summary.json"] = {
        "expectation": expectation,
        "growth": report.per_step_growth,
        "is_martingale": report.is_martingale,
    }
    note = "" if report.is_martingale else (
        f" (not a martingale: per-step growth {report.per_step_growth:g} != 1)"
    )
    return artifacts, f"expected wealth after {spec.days} day(s): {expectation:.6f}{note}"


def _run(command: str, cfg: dict) -> int:
    """Run ``command`` and publish what it returns, as the module docstring says.

    ``synth`` writes into the directory of ``out`` and names its manifest
    ``<name>.manifest.json``; every other command writes into ``out_dir``.
    """
    # A file that is not there is left to the command, whose error says what it needed.
    inputs = {key: _sha256(Path(cfg[key])) for key in _INPUTS
              if cfg.get(key) is not None and Path(cfg[key]).is_file()}
    artifacts, message = _COMMANDS[command](cfg)
    if command == "synth":
        out = Path(cfg["out"])
        out_dir, manifest = out.parent, out.name + ".manifest.json"
    else:
        out_dir, manifest = Path(cfg["out_dir"]), "manifest.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in artifacts]
    for path, content in zip(paths, artifacts.values()):
        if isinstance(content, dict):
            _write_json(path, content)
        else:
            content(path)
    _write_manifest(out_dir / manifest, command, cfg, inputs, paths)
    print(message)
    return EXIT_OK


def cmd_rerun(manifest_path: str, out_dir: str | None) -> int:
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise DataError(f"unsupported manifest schema {manifest.get('schema')!r}")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise DataError(f"manifest names unknown command {command!r}")
    try:
        cfg = _resolve(command, manifest.get("config", {}), manifest_path)
    except _UsageError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    _check_inputs(cfg, manifest.get("inputs"), manifest_path)
    if out_dir is not None:
        if command == "synth":
            cfg["out"] = str(Path(out_dir) / Path(cfg["out"]).name)
        else:
            cfg["out_dir"] = out_dir
    return _run(command, cfg)


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

    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        for key, (kind, _) in options.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=kind)
        p.add_argument("--config", help="JSON file of option defaults (flags win)")

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "rerun":
            return cmd_rerun(args.manifest, args.out_dir)
        file_cfg = {} if args.config is None else _load_json(args.config)
        flags = {key: getattr(args, key) for key in _OPTIONS[args.command]}
        cfg = _resolve(args.command, file_cfg, args.config, flags)
        return _run(args.command, cfg)
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
