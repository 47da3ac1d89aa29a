import importlib
import inspect
import pkgutil

import pytest

import optioncast
from helpers import separable_dataset
from optioncast import binomial, lstm, market_data, qrm
from optioncast.errors import DataError

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


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), None, "21", True],
                         ids=["inf", "nan", "None", "str", "bool"])
@pytest.mark.parametrize("cls, fields, name, value, run", INT_FIELDS,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in INT_FIELDS])
def test_a_value_that_is_no_whole_number_is_a_data_error(cls, fields, name, value, run, bad):
    with pytest.raises(DataError, match=f"{name} must be"):
        cls(**{**fields, name: bad})
