#!/usr/bin/env python3
"""End-to-end experiment: synthetic data -> extrapolation -> training -> backtests,
then the fusion and binomial projections: every command the CLI has but rerun.

Writes every artifact (plus per-step manifests) under --out-dir and prints the
summaries.  All stages are deterministic for a fixed --seed.
"""

import argparse
import json
import sys
from pathlib import Path

from optioncast import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/pipeline")
    parser.add_argument("--days", type=int, default=252)
    parser.add_argument("--sigma", type=float, default=0.2)
    parser.add_argument("--mu", type=float, default=0.05)
    parser.add_argument("--spread-bp", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--hidden", type=int, default=16)
    args = parser.parse_args()

    root = Path(args.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    data = root / "series.csv"

    steps = [
        ["synth", "--s0", "100", "--sigma", str(args.sigma), "--mu", str(args.mu),
         "--days", str(args.days), "--seed", str(args.seed),
         "--spread-bp", str(args.spread_bp), "--out", str(data)],
        ["qrm", "--input", str(data), "--out-dir", str(root / "qrm")],
        ["train", "--input", str(data), "--out-dir", str(root / "train"),
         "--hidden", str(args.hidden), "--epochs", str(args.epochs),
         "--seed", str(args.seed)],
        ["backtest", "--input", str(data), "--out-dir", str(root / "backtest_qrm"),
         "--mode", "qrm"],
        ["backtest", "--input", str(data), "--out-dir", str(root / "backtest_lstm"),
         "--mode", "classifier",
         "--checkpoint", str(root / "train" / "checkpoint.json")],
        ["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", str(root / "fuse")],
        ["binomial", "--p", "0.56", "--ror", "2", "--rol", "0.5", "--days", "30",
         "--out-dir", str(root / "binomial")],
    ]
    for step in steps:
        print(f"$ optioncast {' '.join(step)}")
        code = cli.main(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    reports = {name: "summary.json" for name in ("qrm", "train", "backtest_qrm", "backtest_lstm")}
    reports.update(fuse="fusion.json", binomial="summary.json")
    for name, report in reports.items():
        summary = json.loads((root / name / report).read_text())
        print(f"{name}: {json.dumps(summary, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
