import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record, make_series
from optioncast.bs_core import call_price
from optioncast.errors import DataError
from optioncast.market_data import (
    CSV_COLUMNS,
    FEATURE_NAMES,
    GENERATOR_ID,
    N_FEATURES,
    QuoteRecord,
    SequenceSample,
    SYNTHETIC_MATURITY_YEARS,
    SyntheticSpec,
    TRADING_DAY_YEARS,
    WINDOW_LENGTH,
    _gbm_stock_path,
    build_sequences,
    feature_matrix,
    generate_gbm,
    load_csv,
    save_csv,
)

HEADER = ",".join(CSV_COLUMNS)


def _write(tmp_path, text, name="quotes.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestQuoteRecord:
    def test_mid_prices(self):
        rec = make_record()
        assert rec.option_mid == pytest.approx(5.0)
        assert rec.stock_mid == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("option_bid", -0.01),
            ("option_ask", 4.0),
            ("stock_bid", 0.0),
            ("stock_ask", 98.0),
            ("strike", 0.0),
            ("implied_vol", -0.1),
            ("rate", math.nan),
        ],
    )
    def test_invariant_violations_name_the_field(self, field, value):
        with pytest.raises(DataError, match=field):
            make_record(**{field: value})

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_construction_accepts_exactly_the_invariant_region(
        self, option_bid, option_ask, stock_bid, stock_ask, strike, implied_vol
    ):
        valid = (
            0.0 <= option_bid <= option_ask
            and 0.0 < stock_bid <= stock_ask
            and strike > 0.0
            and implied_vol >= 0.0
        )
        try:
            QuoteRecord(
                day=date(2021, 1, 4),
                option_bid=option_bid,
                option_ask=option_ask,
                stock_bid=stock_bid,
                stock_ask=stock_ask,
                strike=strike,
                implied_vol=implied_vol,
                rate=0.01,
            )
            constructed = True
        except DataError:
            constructed = False
        assert constructed == valid


class TestLoadCsv:
    def test_three_rows_sorted(self, tmp_path):
        path = _write(
            tmp_path,
            f"{HEADER}\n"
            "2021-01-06,4.9,5.1,99.0,101.0,80.0,0.2,0.01\n"
            "2021-01-04,4.8,5.0,98.0,100.0,80.0,0.2,0.01\n"
            "2021-01-05,4.85,5.05,98.5,100.5,80.0,0.2,0.01\n",
        )
        records = load_csv(path)
        assert len(records) == 3
        assert [r.day.isoformat() for r in records] == ["2021-01-04", "2021-01-05", "2021-01-06"]

    def test_invariant_violation_names_row(self, tmp_path):
        path = _write(
            tmp_path,
            f"{HEADER}\n2021-01-04,5.1,4.9,99.0,101.0,80.0,0.2,0.01\n",
        )
        with pytest.raises(DataError, match=r"row 2.*option_ask"):
            load_csv(path)

    def test_duplicate_date(self, tmp_path):
        path = _write(
            tmp_path,
            f"{HEADER}\n"
            "2021-01-04,4.9,5.1,99.0,101.0,80.0,0.2,0.01\n"
            "2021-01-04,4.9,5.1,99.0,101.0,80.0,0.2,0.01\n",
        )
        with pytest.raises(DataError, match="duplicated date 2021-01-04"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no content"):
            load_csv(_write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(_write(tmp_path, f"{HEADER}\n"))

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_csv(_write(tmp_path, "a,b,c\n1,2,3\n"))

    def test_malformed_row_column_count(self, tmp_path):
        path = _write(tmp_path, f"{HEADER}\n2021-01-04,4.9,5.1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_malformed_row_bad_float(self, tmp_path):
        path = _write(
            tmp_path, f"{HEADER}\n2021-01-04,4.9,oops,99.0,101.0,80.0,0.2,0.01\n"
        )
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_comment_line_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            f"# seed=7 generator={GENERATOR_ID}\n{HEADER}\n"
            "2021-01-04,4.9,5.1,99.0,101.0,80.0,0.2,0.01\n",
        )
        assert len(load_csv(path)) == 1


class TestRoundTrip:
    def test_generated_series_round_trips_exactly(self, tmp_path):
        spec = SyntheticSpec(s0=100.0, sigma=0.2, mu=0.05, rate=0.02, n_days=30, seed=11, spread_bp=25.0)
        records = generate_gbm(spec)
        path = tmp_path / "synth.csv"
        save_csv(records, path, seed=spec.seed)
        reloaded = load_csv(path)
        assert reloaded == records
        assert path.read_text().startswith(f"# seed=11 generator={GENERATOR_ID}\n")


class TestGenerateGbm:
    def test_zero_vol_zero_drift_is_constant(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.0, mu=0.0, n_days=15, seed=3)
        records = generate_gbm(spec)
        mids = {r.stock_mid for r in records}
        assert mids == {100.0}
        option_mids = {r.option_mid for r in records}
        assert len(option_mids) == 1

    def test_same_seed_is_bit_identical(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.2, mu=0.05, n_days=40, seed=9, spread_bp=10.0)
        assert generate_gbm(spec) == generate_gbm(spec)

    def test_option_mid_is_closed_form_price(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.2, mu=0.05, rate=0.02, n_days=12, seed=5)
        records = generate_gbm(spec)
        for rec in records:
            expected = call_price(
                rec.stock_mid, SYNTHETIC_MATURITY_YEARS, rec.strike, spec.sigma, spec.rate
            )
            assert rec.option_mid == pytest.approx(expected, rel=1e-12)

    def test_terminal_log_mean_monte_carlo_oracle(self):
        # Closed form: E[ln S_n] = ln(s0) + (mu - sigma^2/2) * (n-1) * dt.
        s0, sigma, mu, n_days = 100.0, 0.2, 0.05, 252
        n_paths = 10_000
        terminal_logs = np.empty(n_paths)
        for seed in range(n_paths):
            rng = np.random.Generator(np.random.PCG64(seed))
            shocks = rng.standard_normal(n_days - 1)
            terminal_logs[seed] = math.log(_gbm_stock_path(s0, sigma, mu, shocks)[-1])
        horizon = (n_days - 1) * TRADING_DAY_YEARS
        expected = math.log(s0) + (mu - 0.5 * sigma * sigma) * horizon
        stderr = sigma * math.sqrt(horizon) / math.sqrt(n_paths)
        assert abs(terminal_logs.mean() - expected) <= 3.0 * stderr

    def test_generate_gbm_uses_the_stock_path(self):
        for seed in (0, 1, 2):
            spec = SyntheticSpec(s0=100.0, sigma=0.2, mu=0.05, n_days=20, seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            path = _gbm_stock_path(100.0, 0.2, 0.05, rng.standard_normal(19))
            mids = [r.stock_mid for r in generate_gbm(spec)]
            assert mids == pytest.approx(list(path), rel=0, abs=0)

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(s0=-1.0, sigma=0.2)
        with pytest.raises(DataError):
            SyntheticSpec(s0=100.0, sigma=0.2, n_days=5)
        with pytest.raises(DataError):
            SyntheticSpec(s0=100.0, sigma=0.2, seed=-1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.3, max_value=0.3),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.0, max_value=200.0),
    )
    def test_generated_records_always_satisfy_invariants(self, s0, sigma, mu, seed, spread_bp):
        spec = SyntheticSpec(s0=s0, sigma=sigma, mu=mu, n_days=12, seed=seed, spread_bp=spread_bp)
        records = generate_gbm(spec)
        assert len(records) == 12
        for prev, cur in zip(records, records[1:]):
            assert prev.day < cur.day


class TestSequences:
    def test_twelve_days_two_samples(self):
        records = make_series([5.0 + 0.1 * k for k in range(12)])
        samples = build_sequences(records, [4.0] * 12)
        assert len(samples) == 2
        assert [s.end_index for s in samples] == [9, 10]

    def test_eleven_days_one_sample(self):
        records = make_series([5.0 + 0.1 * k for k in range(11)])
        samples = build_sequences(records, [4.0] * 11)
        assert len(samples) == 1

    def test_monotone_mids_all_labels_one(self):
        records = make_series([5.0 + 0.05 * k for k in range(20)])
        samples = build_sequences(records, [4.0] * 20)
        assert len(samples) == 10
        assert all(s.label == 1 for s in samples)

    def test_tie_days_are_dropped(self):
        mids = [5.0 + 0.1 * k for k in range(12)]
        mids[11] = mids[10]
        records = make_series(mids)
        samples = build_sequences(records, [4.0] * 12)
        assert len(samples) == 1

    def test_alignment_mismatch(self):
        records = make_series([5.0] * 12)
        with pytest.raises(DataError, match="align"):
            build_sequences(records, [4.0] * 11)

    def test_short_series_gives_no_samples(self):
        records = make_series([5.0 + 0.1 * k for k in range(10)])
        assert build_sequences(records, [4.0] * 10) == []

    def test_feature_layout(self):
        records = make_series([5.0, 5.2, 5.4], stock_mid=100.0, strike=80.0, implied_vol=0.3)
        ests = [4.5, 4.6, 4.7]
        features = feature_matrix(records, ests)
        assert features.shape == (3, len(FEATURE_NAMES))
        assert list(features[:, 0]) == ests
        assert set(features[:, 1]) == {0.3}
        assert features[1, 9] == pytest.approx(5.2 / 5.0 - 1.0)
        assert features[0, 9] == 0.0
        assert features[2, 11] == pytest.approx(100.0 / 80.0)
        assert features[0, 12] == 1.0 and features[2, 12] == 0.0


def test_sequence_sample_validation():
    with pytest.raises(DataError):
        SequenceSample(window=np.zeros((WINDOW_LENGTH - 1, N_FEATURES)), label=1, end_index=0)
    with pytest.raises(DataError):
        SequenceSample(window=np.full((WINDOW_LENGTH, N_FEATURES), np.nan), label=1, end_index=0)
    with pytest.raises(DataError):
        SequenceSample(window=np.zeros((WINDOW_LENGTH, N_FEATURES)), label=2, end_index=0)
