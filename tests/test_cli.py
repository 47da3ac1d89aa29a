import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import b64_floats, b64_vector, make_record, make_series, readme_commands, with_entry
from optioncast import binomial, cli, lstm, qrm, trading
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
        assert manifest["schema"] == 2
        assert manifest["command"] == "synth"
        assert manifest["inputs"] == {}
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

    @pytest.mark.parametrize("flags", [["--mu", "nan"], ["--rate", "inf"], ["--spread-bp", "-1"]],
                             ids=["mu-nan", "rate-inf", "spread-bp-negative"])
    def test_bad_spec_value_exits_three(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        argv = ["synth", "--s0", "100", "--sigma", "0.2", "--days", "14", *flags,
                "--out", str(out / "series.csv")]
        assert run(argv) == 3
        assert f"{flags[0][2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_holding_an_array_exits_three(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"s0": 100.0, "sigma": 0.2, "days": 14}]))
        out = tmp_path / "out"
        assert run(["synth", "--config", str(config), "--out", str(out / "x.csv")]) == 3
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"s0": 100.0, "sigma": 0.2, "days": 14, "bogus": 1}))
        assert run(["synth", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 3
        assert "unknown config keys" in capsys.readouterr().err


# Loader-valid inputs near the float64 limit, each of which fails the solve.
NEAR_FLOAT_LIMIT = {
    "option-quote-1e306": [make_record(offset=k, option_bid=q, option_ask=q)
                           for k, q in enumerate([5.0, 1e306, 5.0])],
    "stock-1e300-vol-1e10": make_series([5.0, 5.1, 5.2], stock_mid=1e300, implied_vol=1e10),
    "zero-stock-spread-vol-1e-160": [make_record(offset=k, stock_bid=100.0, stock_ask=100.0,
                                                 implied_vol=1e-160) for k in range(3)],
    "stock-1.7e308": [make_record(offset=k, stock_bid=1.7e308, stock_ask=1.7e308)
                      for k in range(3)],
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
        assert rows[0] == ["date", "est", "ask", "residual", "regularization",
                           "tap_half", "tap_dmid", "tap_dhalf"]
        assert len(rows) == 2

    def test_estimates_are_the_reported_filter_of_the_quotes(self, tmp_path):
        # EST = mid + tap_half half + tap_dmid dmid + tap_dhalf dhalf on every
        # row, and summary.json counts the days of each distinct tap triple.
        data = tmp_path / "series.csv"
        run(synth_args(data, days=30))
        out = tmp_path / "qrm_out"
        assert run(["qrm", "--input", str(data), "--out-dir", str(out)]) == 0
        records = load_csv(data)
        with (out / "estimates.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records) - 1
        for k, row in enumerate(rows, start=1):
            today, before = records[k], records[k - 1]
            half = 0.5 * (today.option_ask - today.option_bid)
            moves = (half, today.option_mid - before.option_mid,
                     half - 0.5 * (before.option_ask - before.option_bid))
            taps = [float(row[name]) for name in ("tap_half", "tap_dmid", "tap_dhalf")]
            assert today.option_mid + np.dot(taps, moves) == pytest.approx(float(row["est"]),
                                                                           rel=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        triples = {(t["tap_half"], t["tap_dmid"], t["tap_dhalf"]): t["days"]
                   for t in summary["taps"]}
        assert triples == {(float(rows[0]["tap_half"]), float(rows[0]["tap_dmid"]),
                            float(rows[0]["tap_dhalf"])): len(rows)}

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

    def test_subnormal_stock_price_exits_three(self, tmp_path, capsys):
        # The solve is finite, but in currency the stock axis repeats nodes.
        data = tmp_path / "series.csv"
        save_csv([make_record(offset=k, stock_bid=5e-324, stock_ask=5e-324, implied_vol=100.0)
                  for k in range(3)], data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "day 1" in err and "strictly increasing" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("records", NEAR_FLOAT_LIMIT.values(), ids=NEAR_FLOAT_LIMIT)
    def test_input_near_the_float_limit_exits_four_without_warnings(
        self, tmp_path, capsys, records
    ):
        data = tmp_path / "series.csv"
        save_csv(records, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["qrm", "--input", str(data), "--out-dir", str(tmp_path / "o")])
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


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory, series_csv):
    out = tmp_path_factory.mktemp("train") / "train_out"
    run(["train", "--input", str(series_csv), "--out-dir", str(out),
         "--hidden", "6", "--epochs", "1", "--batch", "8", "--seed", "3"])
    return json.loads((out / "checkpoint.json").read_text())


def forge(doc, edit):
    """A deep copy of the checkpoint ``doc`` with ``edit`` applied to it."""
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def in_old_layout(doc, schema):
    """The schema-5 ``doc`` rewritten as a schema-4 checkpoint (the feature width
    also as ``input_size``, feature 0 from QRM in year units), a schema-3 one
    (the vector as a list of numbers, no train/serve record), a schema-2 one
    (named arrays with declared shapes) or a schema-1 one (the same, one array
    per gate)."""
    if schema == 4:
        doc.update(schema=schema, input_size=len(doc["feature_names"]))
        return
    vector = b64_floats(doc.pop("vector"))
    del doc["feature_names"], doc["qrm"]
    if schema == 3:
        doc.update(schema=schema, vector=vector.tolist())
        return
    params = lstm.LstmParams(vector, doc["config"]["hidden"])
    weights, shapes = {}, {}
    for name, arr in params.arrays.items():
        parts = zip("ifog", np.split(arr, 4)) if schema == 1 and "." in name else [("", arr)]
        for gate, part in parts:
            key = f"{name}_{gate}" if gate else name
            weights[key], shapes[key] = part.ravel().tolist(), list(part.shape)
    doc.update(schema=schema, weights=weights, shapes=shapes)


def vector_edit(edit):
    """A forgery that sets ``vector`` to ``edit`` of the float64 values it encodes."""
    return lambda d: d.update(vector=edit(b64_floats(d["vector"])))


# A checkpoint with one part removed, resized or spoilt, and what the error names.
FORGED_CHECKPOINTS = {
    # The feature names carry the input size.
    "no-input-size": (lambda d: d.pop("feature_names"), "missing field 'feature_names'"),
    "no-dense-b": (vector_edit(lambda v: b64_vector(v[:-1])), "parameter vector has 798 entries"),
    "short-dense-w": (vector_edit(lambda v: b64_vector(np.delete(v, -2))),
                      "parameter vector has 798 entries"),
    "one-extra": (vector_edit(lambda v: b64_vector(np.append(v, 0.0))),
                  "parameter vector has 800 entries"),
    "ragged": (vector_edit(lambda v: b64_vector(v.tobytes()[:-1])),
               "6391 bytes, not a whole number of float64s"),
    "outside-alphabet": (vector_edit(lambda v: b64_vector(v)[:-2] + "*="), "not valid base64"),
    "unpadded": (vector_edit(lambda v: b64_vector(v).rstrip("=")), "not valid base64"),
    "mean-12-wide": (lambda d: d["feature_stats"]["mean"].pop(), "13-wide"),
    "schema-2": (lambda d: in_old_layout(d, 2), "schema 2 is not supported"),
    "hidden-1e7": (lambda d: d["config"].update(hidden=10**7), "parameter vector has 799"),
    "nan-dense-b": (vector_edit(lambda v: b64_vector(with_entry(v, -1, float("nan")))),
                    "non-finite"),
    "inf-weight": (vector_edit(lambda v: b64_vector(with_entry(v, 0, float("-inf")))),
                   "non-finite"),
    "nested-vector": (lambda d: d.update(vector=[d["vector"]]), "vector must be a base64 string"),
    "number-vector": (lambda d: d.update(vector=0.5), "vector must be a base64 string"),
    "null-vector": (lambda d: d.update(vector=None), "vector must be a base64 string"),
    "true-vector": (lambda d: d.update(vector=True), "vector must be a base64 string"),
    "mean-true": (lambda d: d["feature_stats"]["mean"].__setitem__(0, True),
                  "mean must be a flat list of numbers"),
    "std-string": (lambda d: d["feature_stats"]["std"].__setitem__(1, "2.5"),
                   "std must be a flat list of numbers"),
    "std-null": (lambda d: d["feature_stats"]["std"].__setitem__(2, None),
                 "std must be a flat list of numbers"),
    "mean-nested": (lambda d: d["feature_stats"]["mean"].__setitem__(3, [0.5]),
                    "mean must be a flat list of numbers"),
}


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

    def test_manifest_seed_is_the_seed_option(self, tmp_path, series_csv):
        # The seed is train's --seed; qrm has no seed option, so it records null.
        argv = ["--input", str(series_csv), "--out-dir"]
        assert run(["train", *argv, str(tmp_path / "train"), "--hidden", "4", "--epochs", "1",
                    "--seed", "11"]) == 0
        assert run(["qrm", *argv, str(tmp_path / "qrm")]) == 0
        seeds = {name: json.loads((tmp_path / name / "manifest.json").read_text())["seed"]
                 for name in ("train", "qrm")}
        assert seeds == {"train": 11, "qrm": None}

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

    @pytest.mark.parametrize("mode", [[], ["--mode", "qrm"]], ids=["default-mode", "qrm-mode"])
    def test_backtest_checkpoint_requires_classifier_mode(
        self, tmp_path, series_csv, checkpoint_doc, capsys, mode
    ):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(checkpoint_doc))
        out = tmp_path / "bt_out"
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(out),
                    "--checkpoint", str(ckpt), *mode]) == 3
        err = capsys.readouterr().err
        assert "--checkpoint" in err and "--mode classifier" in err
        assert not out.exists()

    def test_missing_checkpoint_in_qrm_mode_names_the_mode(self, tmp_path, series_csv, capsys):
        out = tmp_path / "bt_out"
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(out),
                    "--checkpoint", str(tmp_path / "missing.json")]) == 3
        assert "--mode classifier" in capsys.readouterr().err
        assert not out.exists()

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
        ckpt = train_out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        in_old_layout(doc, 1)
        ckpt.write_text(json.dumps(doc))
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(tmp_path / "bt_out"),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "schema 1" in err and "retrain" in err

    # A checkpoint that an older version or other features wrote, and what the
    # error names next to its hint to retrain.
    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda d: in_old_layout(d, 4), "schema 4 is not supported", id="schema-4"),
        pytest.param(lambda d: in_old_layout(d, 3), "schema 3 is not supported", id="schema-3"),
        pytest.param(lambda d: d["feature_names"].reverse(), "feature_names", id="feature-names"),
        pytest.param(lambda d: d["qrm"].update(beta=0.02), "QRM config", id="qrm-config"),
    ])
    def test_backtest_classifier_asks_to_retrain(
        self, tmp_path, series_csv, checkpoint_doc, capsys, edit, match
    ):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(forge(checkpoint_doc, edit)))
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert match in err and "retrain" in err
        assert not bt_out.exists()

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

    @pytest.mark.parametrize("edit, match", FORGED_CHECKPOINTS.values(), ids=FORGED_CHECKPOINTS)
    def test_backtest_classifier_rejects_forged_checkpoint(
        self, tmp_path, series_csv, checkpoint_doc, capsys, edit, match
    ):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(forge(checkpoint_doc, edit)))
        bt_out = tmp_path / "bt_out"
        code = run(
            ["backtest", "--input", str(series_csv), "--out-dir", str(bt_out),
             "--mode", "classifier", "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert match in capsys.readouterr().err
        assert not bt_out.exists()

    @pytest.mark.parametrize("doc", [[], {"schema": 5, "config": []}])
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


# Each CSV artifact's documented header; series.csv's follows its seed comment.
CSV_HEADERS = {
    "series.csv": "date,option_bid,option_ask,stock_bid,stock_ask,strike,implied_vol,rate",
    "estimates.csv": "date,est,ask,residual,regularization,tap_half,tap_dmid,tap_dhalf",
    "history.csv": "epoch,train_loss,val_accuracy,val_precision,val_recall,best_val_accuracy",
    "equity.csv": "date,cumulative_pnl,trade_pnl,action",
    "distribution.csv": "wealth,probability",
}
DISTRIBUTION_SPEC = {"p": 0.56, "ror": 2.0, "rol": 0.5, "days": 4}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The root of a small run of all seven commands, one directory per step."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "series.csv"
    spec = DISTRIBUTION_SPEC
    steps = [
        synth_args(data, days=30, seed=11),
        ["qrm", "--input", data, "--out-dir", root / "qrm"],
        ["train", "--input", data, "--out-dir", root / "train",
         "--hidden", "4", "--epochs", "1", "--batch", "8", "--seed", "3"],
        ["backtest", "--input", data, "--out-dir", root / "backtest_qrm"],
        ["backtest", "--input", data, "--out-dir", root / "backtest_classifier",
         "--mode", "classifier", "--checkpoint", root / "train" / "checkpoint.json"],
        ["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", root / "fuse"],
        ["binomial", "--p", str(spec["p"]), "--ror", str(spec["ror"]), "--rol", str(spec["rol"]),
         "--days", str(spec["days"]), "--out-dir", root / "binomial"],
        ["rerun", "--manifest", root / "qrm" / "manifest.json", "--out-dir", root / "rerun"],
    ]
    for argv in steps:
        assert run([str(arg) for arg in argv]) == 0
    return root


def read_table(path):
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


class TestReportTables:
    """Every CSV artifact is one table format: a header, commas, LF and ``repr`` floats."""

    def test_csv_artifacts_have_lf_lines_and_their_headers(self, pipeline):
        tables = sorted(pipeline.rglob("*.csv"))
        assert {path.name for path in tables} == set(CSV_HEADERS)
        for path in tables:
            text = path.read_bytes().decode()
            assert "\r" not in text, path
            header = next(line for line in text.split("\n") if not line.startswith("#"))
            assert header == CSV_HEADERS[path.name], path

    @staticmethod
    def qrm_backtest(pipeline):
        records = load_csv(pipeline / "series.csv")
        signals = [None if m is None else m.est
                   for m in qrm.estimate_series(records, qrm.QrmConfig())]
        return trading.backtest(records, signals, mode="qrm")

    def test_equity_rows_are_the_backtest(self, pipeline):
        result = self.qrm_backtest(pipeline)
        rows = read_table(pipeline / "backtest_qrm" / "equity.csv")[1:]
        assert [row[0] for row in rows] == [d.day.isoformat() for d in result.decisions]
        assert [row[3] for row in rows] == [d.action for d in result.decisions]
        assert {"buy", "abstain"} <= {row[3] for row in rows}

    def test_equity_floats_are_the_backtest_exactly(self, pipeline):
        result = self.qrm_backtest(pipeline)
        rows = read_table(pipeline / "backtest_qrm" / "equity.csv")[1:]
        assert [float(row[1]) for row in rows] == result.equity_curve
        assert [float(row[2]) for row in rows] == [d.pnl or 0.0 for d in result.decisions]

    def test_summary_json_is_the_backtest(self, pipeline):
        result = self.qrm_backtest(pipeline)
        summary = json.loads((pipeline / "backtest_qrm" / "summary.json").read_text())
        assert summary == {"final_pnl": result.final_pnl, "n_trades": result.n_trades,
                           "hit_rate": result.hit_rate}

    @pytest.mark.parametrize("name", ["backtest_qrm", "backtest_classifier"])
    def test_abstain_days_read_zero_trade_pnl(self, pipeline, name):
        rows = read_table(pipeline / name / "equity.csv")[1:]
        abstains = [row for row in rows if row[3] == "abstain"]
        assert abstains and all(row[2] == "0.0" for row in abstains)
        summary = json.loads((pipeline / name / "summary.json").read_text())
        assert set(summary) == {"final_pnl", "n_trades", "hit_rate"}
        assert summary["n_trades"] == len(rows) - len(abstains)

    def test_distribution_rows_are_the_tree(self, pipeline):
        rows = read_table(pipeline / "binomial" / "distribution.csv")[1:]
        outcomes = binomial.enumerate_tree(binomial.BinomialSpec(**DISTRIBUTION_SPEC)).outcomes
        assert [(float(w), float(p)) for w, p in rows] == outcomes

    def test_out_dir_that_is_a_file_exits_three(self, tmp_path, series_csv, capsys):
        blocker = tmp_path / "bt_out"
        blocker.write_text("")
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(blocker)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert blocker.read_text() == ""


# Ways to spoil the run that test_rerun_refuses_changed_inputs replays: each
# changes ``root`` and returns the directory of the run to replay and what the
# refusal names.
def spoil_series(root):
    """One byte of the last day's ask quote, edited after the run."""
    data = root / "series.csv"
    lines = data.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[2] = cells[2][:-1] + ("2" if cells[2][-1] == "1" else "1")
    lines[-1] = ",".join(cells)
    data.write_text("".join(lines))
    return "qrm", f"input {data} changed"


def retrain(root):
    """A new checkpoint in place of the one the classifier backtest read."""
    assert run(["train", "--input", str(root / "series.csv"), "--out-dir", str(root / "train"),
                "--hidden", "4", "--epochs", "1", "--seed", "4"]) == 0
    return "backtest", f"checkpoint {root / 'train' / 'checkpoint.json'} changed"


def edit_manifest(root, command, edit):
    path = root / command / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def old_schema(root):
    """A schema-1 manifest, which recorded no inputs."""
    edit_manifest(root, "qrm", lambda m: m.update(schema=1))
    return "qrm", "unsupported manifest schema 1"


def drop_inputs(root):
    edit_manifest(root, "qrm", lambda m: m.pop("inputs"))
    return "qrm", "manifest has no inputs object"


def drop_checkpoint_hash(root):
    edit_manifest(root, "backtest", lambda m: m["inputs"].pop("checkpoint"))
    return "backtest", f"checkpoint {root / 'train' / 'checkpoint.json'} has no sha256"


def delete_series(root):
    (root / "series.csv").unlink()
    return "qrm", f"input {root / 'series.csv'} is missing"


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

    def test_rerun_unsupported_schema_exits_three(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        run(synth_args(data))
        manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
        manifest["schema"] = 3
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        assert run(["rerun", "--manifest", str(edited), "--out-dir", str(replay)]) == 3
        assert "unsupported manifest schema 3" in capsys.readouterr().err
        assert not replay.exists()

    def test_manifest_hashes_the_files_the_command_reads(self, tmp_path, series_csv,
                                                         checkpoint_doc):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(checkpoint_doc))
        out = tmp_path / "bt"
        assert run(["backtest", "--input", str(series_csv), "--out-dir", str(out),
                    "--mode", "classifier", "--checkpoint", str(ckpt)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {"input": file_hashes([series_csv])["series.csv"],
                                      "checkpoint": file_hashes([ckpt])["checkpoint.json"]}

    @pytest.mark.parametrize("spoil", [spoil_series, retrain, old_schema, drop_inputs,
                                       drop_checkpoint_hash, delete_series])
    def test_rerun_refuses_changed_inputs(self, tmp_path, series_csv, capsys, spoil):
        root = tmp_path / "run"
        root.mkdir()
        data = root / "series.csv"
        data.write_bytes(series_csv.read_bytes())
        steps = [["qrm", "--input", data, "--out-dir", root / "qrm"],
                 ["train", "--input", data, "--out-dir", root / "train",
                  "--hidden", "4", "--epochs", "1", "--seed", "3"],
                 ["backtest", "--input", data, "--out-dir", root / "backtest",
                  "--mode", "classifier", "--checkpoint", root / "train" / "checkpoint.json"]]
        for argv in steps:
            assert run([str(arg) for arg in argv]) == 0
        command, match = spoil(root)
        capsys.readouterr()
        replay = tmp_path / "replay"
        assert run(["rerun", "--manifest", str(root / command / "manifest.json"),
                    "--out-dir", str(replay)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not replay.exists()

    def test_rerun_unknown_command_rejected(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"schema": 2, "command": "nope", "config": {}}))
        assert run(["rerun", "--manifest", str(bad)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "manifest",
        [[1, 2], {"schema": 2, "command": ["x"]}],
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
        manifest.write_text(json.dumps({"schema": 2, "command": "fuse", "config": {"p1": 0.56}}))
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


# (command, config) pairs, each holding one value its option cannot take, or
# a key that is no option of the command.
BAD_VALUES = [
    ("qrm", {"beta": "x"}),
    ("qrm", {"beta": None}),
    ("qrm", {"beta": True}),
    ("qrm", {"n_s": 21.5}),
    ("qrm", {"n_tau": "11.0"}),
    ("qrm", {"beta": [0.004]}),
    # QRM's step is the trading day; an older config or manifest that still
    # sets a horizon is refused as an unknown key, whatever the value.
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
        manifest.write_text(json.dumps({"schema": 2, "command": command, "config": config}))
        assert run(["rerun", "--manifest", str(manifest)]) == 3
        (key,) = bad
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_values_are_converted_as_flags_are(self, tmp_path, series_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": 1, "n_s": "21"}))
        out = tmp_path / "o"
        assert run(["qrm", "--input", str(series_csv), "--out-dir", str(out),
                    "--config", str(config)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert (recorded["beta"], recorded["n_s"]) == (1.0, 21)
        assert isinstance(recorded["beta"], float) and isinstance(recorded["n_s"], int)

    def test_choice_values_select_the_mode(self, tmp_path, series_csv, checkpoint_doc):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(checkpoint_doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "classifier", "checkpoint": str(ckpt)}))
        argv = ["backtest", "--input", str(series_csv), "--out-dir"]
        assert run([*argv, str(tmp_path / "file"), "--config", str(config)]) == 0
        assert run([*argv, str(tmp_path / "flags"), "--mode", "classifier",
                    "--checkpoint", str(ckpt)]) == 0
        recorded = json.loads((tmp_path / "file" / "manifest.json").read_text())["config"]
        assert recorded["mode"] == "classifier"
        assert ((tmp_path / "file" / "equity.csv").read_bytes()
                == (tmp_path / "flags" / "equity.csv").read_bytes())

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
