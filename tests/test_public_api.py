import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import optioncast
from helpers import separable_dataset
from optioncast import binomial, lstm, market_data, qrm
from optioncast.errors import DataError

ROOT = Path(__file__).resolve().parents[1]

# The command module and the shared exception types export no __all__.
NOT_LIBRARY = {"cli", "errors"}
LIBRARY_MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(optioncast.__path__)
    if info.name not in NOT_LIBRARY
)


def test_library_modules_are_found():
    assert {"bs_core", "lstm", "trading", "fusion"} <= set(LIBRARY_MODULES)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"optioncast.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    public = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(public - set(exported))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"


SERIES = {"s0": 100.0, "sigma": 0.2, "spread_bp": 20.0, "n_days": 14, "seed": 3}


def _ests(config):
    records = market_data.generate_gbm(market_data.SyntheticSpec(**SERIES))[:4]
    return [m.est for m in qrm.estimate_series(records, config)[1:]]


def _history(config):
    return lstm.train(separable_dataset(n=40), config).history


# (config class, its other fields, integer field, a valid value, what the config yields)
INT_FIELDS = [
    (market_data.SyntheticSpec, SERIES, "n_days", 21, market_data.generate_gbm),
    (market_data.SyntheticSpec, SERIES, "seed", 21, market_data.generate_gbm),
    (qrm.QrmConfig, {}, "n_s", 21, _ests),
    (qrm.QrmConfig, {}, "n_tau", 11, _ests),
    *((lstm.TrainConfig, {"hidden": 4, "epochs": 1}, name, value, _history)
      for name, value in (("hidden", 4), ("batch", 8), ("epochs", 1), ("seed", 21))),
    (binomial.BinomialSpec, {"p": 0.6, "ror": 1.1}, "days", 3, binomial.enumerate_tree),
]


@pytest.mark.parametrize("cls, fields, name, value, run", INT_FIELDS,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in INT_FIELDS])
def test_whole_valued_float_is_stored_as_int(cls, fields, name, value, run):
    as_float = cls(**{**fields, name: float(value)})
    assert type(getattr(as_float, name)) is int
    assert run(as_float) == run(cls(**{**fields, name: value}))
    with pytest.raises(DataError):
        cls(**{**fields, name: 21.5})


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), None, "21", True, np.True_],
                         ids=["inf", "nan", "None", "str", "bool", "npbool"])
@pytest.mark.parametrize("cls, fields, name, value, run", INT_FIELDS,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in INT_FIELDS])
def test_a_value_that_is_no_whole_number_is_a_data_error(cls, fields, name, value, run, bad):
    with pytest.raises(DataError, match=f"{name} must be"):
        cls(**{**fields, name: bad})


QUOTE = {"day": date(2020, 1, 1), "option_bid": 1.0, "option_ask": 1.1, "stock_bid": 10.0,
         "stock_ask": 10.1, "strike": 5.0, "implied_vol": 0.2, "rate": 0.0}

# (config class, its other fields, real-valued field, a valid value)
REAL_FIELDS = [
    *((market_data.QuoteRecord, QUOTE, name, QUOTE[name]) for name in market_data.CSV_COLUMNS[1:]),
    *((market_data.SyntheticSpec, SERIES, name, value)
      for name, value in (("s0", 100.0), ("sigma", 0.2), ("mu", 0.05), ("rate", 0.01),
                          ("spread_bp", 20.0))),
    (qrm.QrmConfig, {}, "beta", 0.01),
    (lstm.TrainConfig, {}, "learning_rate", 0.05),
    (lstm.TrainConfig, {}, "train_frac", 0.8),
    *((binomial.BinomialSpec, {"p": 0.6, "ror": 1.1}, name, value)
      for name, value in (("p", 0.6), ("ror", 1.1), ("rol", 0.9), ("initial", 2.0))),
]
REAL_IDS = [f"{case[0].__name__}.{case[2]}" for case in REAL_FIELDS]


@pytest.mark.parametrize("cls, fields, name, value", REAL_FIELDS, ids=REAL_IDS)
def test_a_numpy_real_is_stored_as_a_float(cls, fields, name, value):
    config = cls(**{**fields, name: np.float64(value)})
    assert type(getattr(config, name)) is float
    assert config == cls(**{**fields, name: value})


NO_REALS = {"inf": float("inf"), "nan": float("nan"), "None": None, "str": "0.5", "bool": True,
            "npbool": np.True_}


@pytest.mark.parametrize("cls, fields, name, bad", [
    pytest.param(cls, fields, name, bad, id=f"{case_id}-{bad_id}")
    for (cls, fields, name, _), case_id in zip(REAL_FIELDS, REAL_IDS)
    for bad_id, bad in NO_REALS.items()
    if not (name == "rol" and bad is None)  # rol=None takes the default 1/ror
])
def test_a_value_that_is_no_finite_real_is_a_data_error(cls, fields, name, bad):
    with pytest.raises(DataError, match=rf"^{name}\b.* must"):
        cls(**{**fields, name: bad})


# The CLI pipeline on a tiny series; it prints the top-level names of the
# modules it loaded after start-up, as its last line.
RUNTIME_PIPELINE = """
import sys
start = set(sys.modules)
from optioncast import cli
root = sys.argv[1]
data = root + "/series.csv"
for step in (
    ["synth", "--s0", "100", "--sigma", "0.2", "--days", "40", "--spread-bp", "20",
     "--out", data],
    ["qrm", "--input", data, "--out-dir", root + "/qrm"],
    ["train", "--input", data, "--out-dir", root + "/train", "--epochs", "1", "--hidden", "4"],
    ["backtest", "--input", data, "--out-dir", root + "/bq"],
    ["backtest", "--input", data, "--out-dir", root + "/bc", "--mode", "classifier",
     "--checkpoint", root + "/train/checkpoint.json"],
    ["fuse", "--p1", "0.56", "--p2", "0.59", "--out-dir", root + "/fuse"],
    ["binomial", "--p", "0.56", "--ror", "2", "--days", "3", "--out-dir", root + "/binomial"],
):
    assert cli.main(step) == 0, step
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - start}))
"""


def test_the_runtime_loads_only_the_standard_library_and_numpy(tmp_path):
    # The dev extras install scipy, so only a check of what loads can catch a
    # stray import of it (or of anything else) in src.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", RUNTIME_PIPELINE, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {"numpy", "optioncast"} <= loaded
    # numpy's Cython extensions register their shared runtime as modules of its own.
    foreign = {name for name in loaded - sys.stdlib_module_names - {"numpy", "optioncast"}
               if not re.fullmatch(r"_cython_[0-9_]+|cython_runtime", name)}
    assert foreign == set()
