"""Every series the loader accepts flows through every CLI stage.

Each stage exits 0, 3 or 4 with no traceback and no warning, and a stage
that exits 0 writes no infinite or NaN number.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record
from optioncast import cli
from optioncast.market_data import save_csv

NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def quotes(option_bid, option_spread, stock_bid, stock_spread, strike, implied_vol, rate):
    return dict(option_bid=option_bid, option_ask=option_bid + option_spread,
                stock_bid=stock_bid, stock_ask=stock_bid + stock_spread,
                strike=strike, implied_vol=implied_vol, rate=rate)


def day(positive, non_negative):
    return st.builds(quotes, non_negative, non_negative, positive, non_negative, positive,
                     non_negative, st.floats(-1.0, 1.0))


ordinary = st.floats(1e-2, 1e3)
extreme = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299))
# Half the series take zeros and magnitudes from 1e-300 to 1e300; the other
# half keep to ordinary positive values, so the stages after qrm see inputs
# they accept.
DAYS = (day(extreme | ordinary, st.just(0.0) | extreme | ordinary), day(ordinary, ordinary))


@st.composite
def series(draw):
    """2 to 16 consecutive days, in half the series with one day's quotes repeated."""
    n_days = draw(st.integers(2, 16))
    days = draw(st.lists(draw(st.sampled_from(DAYS)), min_size=n_days, max_size=n_days))
    if draw(st.booleans()):
        source = draw(st.sampled_from(days))
        days = [source if draw(st.booleans()) else other for other in days]
    return [make_record(offset=k, **fields) for k, fields in enumerate(days)]


def stage(argv):
    """Exit code of one in-process CLI run, checked as the module docstring says."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        out = Path(argv[argv.index("--out-dir") + 1])
        for path in out.iterdir():
            assert not NON_FINITE.search(path.read_text()), path.name
    return code


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(series())
def test_loader_valid_series_flow_through_every_stage(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = str(root / "series.csv")
        save_csv(records, data)
        qrm_out = root / "qrm"
        qrm_code = stage(["qrm", "--input", data, "--out-dir", str(qrm_out)])
        trained = stage(["train", "--input", data, "--out-dir", str(root / "train"),
                         "--epochs", "2", "--hidden", "4", "--batch", "1"]) == 0
        stage(["backtest", "--input", data, "--out-dir", str(root / "bt_qrm"), "--mode", "qrm"])
        if trained:
            checkpoint = str(root / "train" / "checkpoint.json")
            stage(["backtest", "--input", data, "--out-dir", str(root / "bt_classifier"),
                   "--mode", "classifier", "--checkpoint", checkpoint])
        if qrm_code == 0:
            replay = root / "replay"
            assert stage(["rerun", "--manifest", str(qrm_out / "manifest.json"),
                          "--out-dir", str(replay)]) == 0
            hashes = [json.loads((d / "manifest.json").read_text())["artifacts"]
                      for d in (qrm_out, replay)]
            assert hashes[0] == hashes[1]
