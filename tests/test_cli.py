import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import make_record, make_series
from optioncast import cli
from optioncast.market_data import load_csv, save_csv


def run(args):
    return cli.main(args)


def synth_args(out, days=14, sigma=0.2, seed=7, spread_bp=20.0, mu=0.05):
    return [
        "synth",
        "--s0", "100",
        "--sigma", str(sigma),
        "--mu", str(mu),
        "--days", str(days),
        "--seed", str(seed),
        "--spread-bp", str(spread_bp),
        "--out", str(out),
    ]


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class TestSynth:
    def test_writes_rows_and_manifest(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run(synth_args(out, days=252)) == 0
        records = load_csv(out)
        assert len(records) == 252
        manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["artifacts"]["series.csv"] == file_hashes([out])["series.csv"]

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["synth", "--sigma", "0.2", "--days", "20"]) == 2
        capsys.readouterr()

    def test_same_seed_reproduces_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run(synth_args(out1))
        run(synth_args(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_sigma_constant_mids(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(synth_args(out, sigma=0.0, mu=0.0, spread_bp=10.0)) == 0
        records = load_csv(out)
        assert len({r.option_mid for r in records}) == 1

    def test_config_file_provides_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"s0": 100.0, "sigma": 0.2, "days": 14, "seed": 3}))
        out = tmp_path / "from_config.csv"
        assert run(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert len(load_csv(out)) == 14

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"s0": 100.0, "sigma": 0.2, "days": 14, "seed": 3}))
        out = tmp_path / "override.csv"
        assert run(["synth", "--config", str(config), "--days", "20", "--out", str(out)]) == 0
        assert len(load_csv(out)) == 20

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"s0": 100.0, "sigma": 0.2, "days": 14, "bogus": 1}))
        assert run(["synth", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 3
        assert "unknown config keys" in capsys.readouterr().err


# Loader-valid inputs near the float64 limit, each of which fails the solve;
# None stands for the 252-day seed-7 synthetic series.
NEAR_FLOAT_LIMIT = {
    "horizon-1e-160": (None, ["--horizon", "1e-160"]),
    "horizon-1e-300": (None, ["--horizon", "1e-300"]),
    "option-quote-1e306": ([make_record(offset=k, option_bid=q, option_ask=q)
                            for k, q in enumerate([5.0, 1e306, 5.0])], []),
    "stock-1e300-vol-1e10": (make_series([5.0, 5.1, 5.2], stock_mid=1e300, implied_vol=1e10), []),
    "zero-stock-spread-vol-1e-160": ([make_record(offset=k, stock_bid=100.0, stock_ask=100.0,
                                                  implied_vol=1e-160) for k in range(3)], []),
    "stock-1.7e308": ([make_record(offset=k, stock_bid=1.7e308, stock_ask=1.7e308)
                       for k in range(3)], []),
}


class TestQrmCommand:
    def test_two_day_input_one_row(self, tmp_path):
        data = tmp_path / "two.csv"
        run(synth_args(data, days=12))
        trimmed = tmp_path / "trimmed.csv"
        lines = data.read_text().splitlines()
        trimmed.write_text("\n".join(lines[:4]) + "\n")  # comment, header, 2 rows
        out = tmp_path / "qrm_out"
        assert run(["qrm", "--input", str(trimmed), "--out-dir", str(out)]) == 0
        with (out / "estimates.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["date", "est", "real0", "residual"]
        assert len(rows) == 2

    def test_zero_sigma_constant_estimates(self, tmp_path):
        data = tmp_path / "flat.csv"
        run(synth_args(data, sigma=0.0, mu=0.0, spread_bp=10.0))
        out = tmp_path / "qrm_out"
        assert run(["qrm", "--input", str(data), "--out-dir", str(out)]) == 0
        with (out / "estimates.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ests = {row[1] for row in rows}
        assert len(ests) == 1

    def test_summary_reports_mean_relative_error(self, tmp_path):
        data = tmp_path / "series.csv"
        run(synth_args(data, days=30, spread_bp=0.0))
        out = tmp_path / "qrm_out"
        assert run(["qrm", "--input", str(data), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_rel_error_vs_next_mid"] <= 0.03

    def test_bad_input_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,quote,file\n1,2,3,4\n")
        assert run(["qrm", "--input", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_nonconvergence_exits_four(self, tmp_path, capsys):
        # Loader-valid, but sigma^2 overflows and the solve cannot be finite.
        data = tmp_path / "series.csv"
        save_csv([make_record(offset=k, implied_vol=1e160) for k in range(3)], data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "day 1" in err
        # Only the error reaches the user: no numpy overflow or invalid-value noise.
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("horizon", ["1e308", "1e-320"])
    def test_horizon_overflowing_the_tau_grid_exits_three(self, tmp_path, capsys, horizon):
        # 2 * 1e308 and 10 / (2 * 1e-320) overflow: bad input, not a failed solve.
        data = tmp_path / "series.csv"
        save_csv(make_series([5.0, 5.1, 5.2]), data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o"),
                        "--horizon", horizon])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_zero_vol_with_an_infinite_stock_mid_exits_three(self, tmp_path, capsys):
        # 1.7e308 + 1.7e308 overflows, so stock_mid is inf and the half-width
        # 0 * inf is NaN: a collapsed grid like zero vol at a zero spread.
        data = tmp_path / "series.csv"
        save_csv([make_record(offset=k, stock_bid=1.7e308, stock_ask=1.7e308, implied_vol=0.0)
                  for k in range(3)], data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "collapsed stock grid" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("records, flags", NEAR_FLOAT_LIMIT.values(), ids=NEAR_FLOAT_LIMIT)
    def test_input_near_the_float_limit_exits_four_without_warnings(
        self, tmp_path, capsys, records, flags
    ):
        data = tmp_path / "series.csv"
        if records is None:
            run(synth_args(data, days=252, seed=7, spread_bp=20.0))
        else:
            save_csv(records, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o"), *flags])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "direct solve produced non-finite values" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_infinite_objective_exits_four(self, tmp_path, capsys):
        # Every solve is finite, but the 1e300 quote overflows J_beta on
        # both days, so the earlier one is named.
        data = tmp_path / "series.csv"
        quotes = [5.0, 1e300, 5.0]
        save_csv([make_record(offset=k, option_bid=q, option_ask=q) for k, q in enumerate(quotes)],
                 data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "day 1" in err and "not finite" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "o" / "estimates.csv").exists()

    def test_cg_flags_are_gone(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        run(synth_args(data, days=12))
        out = str(tmp_path / "o")
        assert run(["qrm", "--input", str(data), "--out-dir", out, "--cg-tol", "1e-8"]) == 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cg_max_iter": 100}))
        assert run(["qrm", "--input", str(data), "--out-dir", out, "--config", str(config)]) == 3
        assert "unknown config keys" in capsys.readouterr().err


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    run(synth_args(path, days=40, seed=5, spread_bp=20.0))
    return path


class TestTrainAndBacktest:
    def test_train_writes_checkpoint_history_summary(self, tmp_path, series_csv):
        out = tmp_path / "train_out"
        code = run(
            ["train", "--input", str(series_csv), "--out-dir", str(out),
             "--hidden", "6", "--epochs", "2", "--batch", "8", "--seed", "3"]
        )
        assert code == 0
        assert (out / "checkpoint.json").exists()
        with (out / "history.csv").open(newline="") as fh:
            history = list(csv.reader(fh))
        assert history[0][0] == "epoch"
        assert len(history) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"checkpoint.json", "history.csv", "summary.json"}

    def test_backtest_qrm_mode(self, tmp_path, series_csv):
        out = tmp_path / "bt_out"
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"final_pnl", "n_trades", "hit_rate"}
        with (out / "equity.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 40  # header + n-1 tradable days

    def test_backtest_classifier_mode_requires_checkpoint(self, tmp_path, series_csv, capsys):
        out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(out),
             "--mode", "classifier"]
        )
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_backtest_classifier_mode_runs(self, tmp_path, series_csv):
        train_out = tmp_path / "train_out"
        run(
            ["train", "--input", str(series_csv), "--out-dir", str(train_out),
             "--hidden", "6", "--epochs", "2", "--batch", "8", "--seed", "3"]
        )
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(train_out / "checkpoint.json")]
        )
        assert code == 0
        with (bt_out / "equity.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # the first full window ends on day 9; earlier days have no signal
        assert all(row[3] == "abstain" for row in rows[:9])


    def test_backtest_classifier_rejects_schema_1_checkpoint(self, tmp_path, series_csv, capsys):
        train_out = tmp_path / "train_out"
        run(
            ["train", "--input", str(series_csv), "--out-dir", str(train_out),
             "--hidden", "6", "--epochs", "1", "--batch", "8", "--seed", "3"]
        )
        # Rewrite the checkpoint in the schema-1 layout: one array per gate.
        ckpt = train_out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        hidden = doc["config"]["hidden"]
        weights, shapes = {}, {}
        for name in ("dense_w", "dense_b"):
            weights[name], shapes[name] = doc["weights"][name], doc["shapes"][name]
        for layer in ("layer1", "layer2"):
            for kind in ("w", "u", "b"):
                rows, *cols = doc["shapes"][f"{layer}.{kind}"]
                flat = doc["weights"][f"{layer}.{kind}"]
                width = len(flat) // rows
                for k, gate in enumerate("ifog"):
                    key = f"{layer}.{kind}_{gate}"
                    weights[key] = flat[k * hidden * width : (k + 1) * hidden * width]
                    shapes[key] = [hidden, *cols]
        doc.update(schema=1, weights=weights, shapes=shapes)
        ckpt.write_text(json.dumps(doc))
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(tmp_path / "bt_out"),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "schema 1" in err and "retrain" in err

    def test_backtest_classifier_rejects_zero_std_checkpoint(self, tmp_path, series_csv, capsys):
        train_out = tmp_path / "train_out"
        run(
            ["train", "--input", str(series_csv), "--out-dir", str(train_out),
             "--hidden", "6", "--epochs", "1", "--batch", "8", "--seed", "3"]
        )
        ckpt = train_out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["feature_stats"]["std"][3] = 0.0
        ckpt.write_text(json.dumps(doc))
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert "feature stats std" in capsys.readouterr().err
        assert not (bt_out / "equity.csv").exists()

    def test_train_overflowing_feature_exits_three_without_warnings(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        save_csv(make_series([5.0 + 0.1 * k for k in range(30)], stock_mid=1e300), data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--input", str(data), "--out-dir", str(tmp_path / "t")])
        assert code == 3
        err = capsys.readouterr().err
        assert "feature stats std must be finite" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_backtest_classifier_rejects_infinite_hidden(self, tmp_path, series_csv, capsys):
        train_out = tmp_path / "train_out"
        run(
            ["train", "--input", str(series_csv), "--out-dir", str(train_out),
             "--hidden", "6", "--epochs", "1", "--batch", "8", "--seed", "3"]
        )
        ckpt = train_out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["config"]["hidden"] = float("inf")
        ckpt.write_text(json.dumps(doc))  # Python's json writes and reads Infinity
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert "hidden must be a positive integer" in capsys.readouterr().err
        assert not (bt_out / "equity.csv").exists()

    @pytest.mark.parametrize("doc", [[], {"schema": 2, "config": []}])
    def test_backtest_classifier_rejects_malformed_checkpoint(
        self, tmp_path, series_csv, capsys, doc
    ):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "JSON object" in err
        assert not (bt_out / "equity.csv").exists()


class TestFuseAndBinomial:
    def test_fuse_headline_value(self, tmp_path, capsys):
        out = tmp_path / "fuse_out"
        assert run(["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0.6468" in printed
        report = json.loads((out / "fusion.json").read_text())
        assert abs(report["joint_precision"] - 0.647) <= 5e-4

    def test_fuse_degenerate_input_exits_three(self, tmp_path, capsys):
        out = tmp_path / "fuse_out"
        assert run(["fuse", "--p1", "1.0", "--p2", "0.59", "--out-dir", str(out)]) == 3
        capsys.readouterr()

    def test_binomial_headline_expectation(self, tmp_path):
        out = tmp_path / "binomial_out"
        code = run(
            ["binomial", "--p", "0.56", "--ror", "2", "--rol", "0.5",
             "--days", "1", "--capital", "1", "--out-dir", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["expectation"] - 1.34) <= 1e-12
        assert summary["is_martingale"] is False
        with (out / "distribution.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3

    def test_binomial_long_horizon_skips_distribution(self, tmp_path):
        out = tmp_path / "binomial_out"
        code = run(
            ["binomial", "--p", "0.56", "--ror", "2", "--rol", "0.5",
             "--days", "40", "--out-dir", str(out)]
        )
        assert code == 0
        assert not (out / "distribution.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--ror", "2", "--rol", "0.5", "--days", "100000"],
        ["--ror", "1e300", "--days", "30"],
    ])
    def test_binomial_overflow_exits_three(self, tmp_path, capsys, flags):
        out = tmp_path / "binomial_out"
        assert run(["binomial", "--p", "0.56", *flags, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err and "BinomialSpec(p=0.56" in err
        assert not out.exists()


class TestRerun:
    def test_rerun_reproduces_bytes(self, tmp_path):
        out = tmp_path / "series.csv"
        run(synth_args(out))
        manifest_path = tmp_path / "series.csv.manifest.json"
        rerun_dir = tmp_path / "rerun"
        rerun_dir.mkdir()
        code = run(["rerun", "--manifest", str(manifest_path), "--out-dir", str(rerun_dir)])
        assert code == 0
        assert (rerun_dir / "series.csv").read_bytes() == out.read_bytes()

    def test_rerun_qrm_matches_artifact_hashes(self, tmp_path):
        data = tmp_path / "series.csv"
        run(synth_args(data, days=14))
        out = tmp_path / "qrm_out"
        run(["qrm", "--input", str(data), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        rerun_dir = tmp_path / "qrm_rerun"
        code = run(["rerun", "--manifest", str(out / "manifest.json"), "--out-dir", str(rerun_dir)])
        assert code == 0
        rerun_manifest = json.loads((rerun_dir / "manifest.json").read_text())
        assert rerun_manifest["artifacts"] == manifest["artifacts"]

    def test_rerun_unknown_command_rejected(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"schema": 1, "command": "nope", "config": {}}))
        assert run(["rerun", "--manifest", str(bad)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "manifest",
        [[1, 2], {"schema": 1, "command": ["x"]}],
        ids=["not-an-object", "unhashable-command"],
    )
    def test_rerun_malformed_manifest_exits_three(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["rerun", "--manifest", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, extra",
        [("qrm", {"bogus": 1}), ("train", {"n_s": 31})],
        ids=["qrm-bogus", "train-n_s"],
    )
    def test_rerun_rejects_keys_the_config_file_rejects(
        self, tmp_path, series_csv, capsys, command, extra
    ):
        out = tmp_path / "run"
        argv = [command, "--input", str(series_csv), "--out-dir", str(out)]
        if command == "train":
            argv += ["--hidden", "4", "--epochs", "1"]
        assert run(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].update(extra)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        capsys.readouterr()
        assert run(["rerun", "--manifest", str(edited), "--out-dir", str(replay)]) == 3
        assert "unknown config keys" in capsys.readouterr().err
        assert not replay.exists()

    def test_rerun_missing_required_option_exits_three(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema": 1, "command": "fuse", "config": {"p1": 0.56}}))
        assert run(["rerun", "--manifest", str(manifest)]) == 3
        assert "p2, out_dir" in capsys.readouterr().err


# command -> (flags of a run that succeeds, flags of a run that fails inside
# the command); {series}, {blown_up} and {missing} are filled in by the test.
RUNNER_CASES = {
    "synth": (["--s0", "100", "--sigma", "0.2", "--days", "14"],
              ["--s0", "100", "--sigma", "-0.2", "--days", "14"]),
    "qrm": (["--input", "{series}"], ["--input", "{blown_up}"]),
    "train": (["--input", "{series}", "--hidden", "4", "--epochs", "1"],
              ["--input", "{series}", "--hidden", "4", "--lr", "0"]),
    "backtest": (["--input", "{series}"],
                 ["--input", "{series}", "--mode", "classifier", "--checkpoint", "{missing}"]),
    "fuse": (["--p1", "0.56", "--p2", "0.59"], ["--p1", "1.0", "--p2", "0.59"]),
    "binomial": (["--p", "0.56", "--ror", "2", "--days", "3"],
                 ["--p", "0.56", "--ror", "1e300", "--days", "30"]),
}


@pytest.mark.parametrize("command", RUNNER_CASES)
def test_run_writes_the_manifest_and_its_artifacts_or_nothing(
    tmp_path, series_csv, capsys, command
):
    blown_up = tmp_path / "blown_up.csv"
    save_csv([make_record(offset=k, implied_vol=1e160) for k in range(3)], blown_up)
    good, bad = (
        [flag.format(series=series_csv, blown_up=blown_up, missing=tmp_path / "missing.json")
         for flag in flags]
        for flags in RUNNER_CASES[command]
    )

    def argv(out, flags):
        if command == "synth":
            return [command, *flags, "--out", str(out / "series.csv")]
        return [command, *flags, "--out-dir", str(out)]

    out = tmp_path / "ok"
    assert run(argv(out, good)) == 0
    manifest_name = "series.csv.manifest.json" if command == "synth" else "manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["command"] == command
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["artifacts"], manifest_name])
    assert manifest["artifacts"] == file_hashes(out / name for name in manifest["artifacts"])

    failed = tmp_path / "failed"
    assert run(argv(failed, bad)) in (3, 4)
    assert capsys.readouterr().err.startswith("error: ")
    assert not failed.exists()


# (command, config) pairs, each holding one value its option cannot take.
BAD_VALUES = [
    ("qrm", {"beta": "x"}),
    ("qrm", {"beta": None}),
    ("qrm", {"beta": True}),
    ("qrm", {"n_s": 21.5}),
    ("qrm", {"n_tau": "11.0"}),
    ("qrm", {"horizon": [0.004]}),
    ("train", {"optimizer": "rmsprop"}),
    ("train", {"seed": None}),
    ("backtest", {"mode": 1}),
    ("backtest", {"input": {"path": "x.csv"}}),
]


class TestConfigValues:
    """Config files and manifests take each option's value as its flag would."""

    @pytest.mark.parametrize("command, bad", BAD_VALUES, ids=str)
    def test_bad_config_file_value_exits_three(self, tmp_path, series_csv, capsys, command, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        code = run(
            [command, "--input", str(series_csv), "--out-dir", str(tmp_path / "o"),
             "--config", str(config)]
        )
        assert code == 3
        (key,) = bad
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", BAD_VALUES, ids=str)
    def test_bad_manifest_value_exits_three(self, tmp_path, series_csv, capsys, command, bad):
        config = {"input": str(series_csv), "out_dir": str(tmp_path / "o"), **bad}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema": 1, "command": command, "config": config}))
        assert run(["rerun", "--manifest", str(manifest)]) == 3
        (key,) = bad
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_values_are_converted_as_flags_are(self, tmp_path, series_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": "0.01", "n_s": "21", "horizon": 1}))
        out = tmp_path / "o"
        assert run(["qrm", "--input", str(series_csv), "--out-dir", str(out),
                    "--config", str(config)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert (recorded["beta"], recorded["n_s"], recorded["horizon"]) == (0.01, 21, 1.0)
        assert isinstance(recorded["horizon"], float)

    def test_null_is_unset_where_the_default_is_none(self, tmp_path, series_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"checkpoint": None, "input": None}))
        out = tmp_path / "o"
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(out),
                    "--config", str(config)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert recorded["checkpoint"] is None
        assert recorded["input"] == str(series_csv)

    def test_null_required_option_is_missing(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"s0": None, "sigma": 0.2, "days": 14}))
        assert run(["synth", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "missing required options for synth: s0" in capsys.readouterr().err


def readme_commands():
    """Every ``optioncast ...`` command in README.md's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["optioncast"]:
                commands.append(argv[1:])
    return commands


def test_readme_lists_every_subcommand():
    listed = {argv[0] for argv in readme_commands()}
    assert listed == {"synth", "qrm", "train", "backtest", "fuse", "binomial", "rerun"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_cli_example_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: optioncast {' '.join(argv)}")


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert run(["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", str(tmp_path / "f")]) == 0
        assert run(["fuse", "--p1", "0.5"]) == 2  # missing --p2 and --out-dir
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would add to start-up
    # time and resident memory of every command.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, optioncast.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
