import math
import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_build_sequences, loop_feature_matrix, make_record, make_series
from optioncast.bs_core import call_price
from optioncast.errors import DataError
from optioncast.market_data import (
    CSV_COLUMNS,
    FEATURE_NAMES,
    FeatureStats,
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
    split,
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

    def test_empty_record_list_is_not_written(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(DataError, match="empty record list"):
            save_csv([], path)
        assert not path.exists()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_estimate_names_its_day(self, bad):
        records = make_series([5.0, 5.2, 5.4])
        with pytest.raises(DataError, match="estimate for day 1 is not finite"):
            feature_matrix(records, [4.5, bad, 4.7])

    def test_appending_days_changes_no_earlier_row_but_the_known_lookahead(self):
        # series_time_remaining reads the series length (ROADMAP item 8).
        lookahead = [FEATURE_NAMES.index("series_time_remaining")]
        mids = [5.0, 5.2, 0.0, 0.0, 4.8, 5.1, 0.0, 5.3, 5.3, 4.9, 5.0, 5.4, 5.2, 0.0]
        records = make_series(mids, spread=0.0)
        ests = [4.0 + 0.1 * k for k in range(len(mids))]
        full = np.delete(feature_matrix(records, ests), lookahead, axis=1)
        for n in range(1, len(mids)):
            prefix = np.delete(feature_matrix(records[:n], ests[:n]), lookahead, axis=1)
            assert prefix.tobytes() == full[:n].tobytes(), n


def _reference_cases():
    """Series the array code must build exactly as the per-day loops did, with estimates."""
    cases = {}
    for bp in (0.0, 20.0):
        gbm = generate_gbm(SyntheticSpec(s0=100.0, sigma=0.3, n_days=40, seed=7, spread_bp=bp))
        cases.update({f"gbm-{bp:g}bp-{n}d": gbm[:n] for n in (*range(1, 13), 40)})
    cases["tied"] = make_series([5.0, 5.1, 5.0] * 4 + [5.0, 5.0, 5.2, 5.2, 5.1])
    cases["zero-option-mid"] = make_series([5.0, 0.0, 0.0, 5.1, 5.0] * 3, spread=0.0)
    cases["near-1e300"] = [make_record(k, mid, 1.5 * mid, 1e300, 1.2e300, strike=1.0)
                           for k, mid in enumerate([1e300, 3e300, 2e300, 2e300] * 4)]
    cases["overflow"] = make_series([1e300, 1.7e308, 1e-300, 2e300] * 4, spread=0.0,
                                    stock_mid=1.7e308, strike=1e-300)
    cases["near-1e-300"] = [make_record(k, mid, mid, 1e-300, 3e-300, strike=1e300)
                            for k, mid in enumerate([1e-300, 5e-324, 0.0, 2e-300] * 4)]
    return {name: (records, [0.5 * r.option_bid + k for k, r in enumerate(records)])
            for name, records in cases.items()}


def _outcome(build, records, ests):
    try:
        return [(s.window.tobytes(), s.window.shape, s.label, type(s.label), s.end_index,
                 type(s.end_index)) for s in build(records, ests)]
    except DataError as exc:
        return str(exc)


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("records, ests", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_array_code_is_bit_identical_to_the_per_day_loops(records, ests):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        features = feature_matrix(records, ests)
        assert features.tobytes() == loop_feature_matrix(records, ests).tobytes()
        assert _outcome(build_sequences, records, ests) == _outcome(loop_build_sequences,
                                                                    records, ests)


def _samples(n):
    return [SequenceSample(window=np.full((WINDOW_LENGTH, N_FEATURES), float(k)),
                           label=k % 2, end_index=k) for k in range(n)]


class TestSplit:
    @pytest.mark.parametrize("n, train_frac, n_train", [
        (242, 0.8, 194),
        (10, 0.25, 2),  # round(2.5) is 2: halves round to even
        (10, 0.35, 4),  # round(3.5) is 4
        (2, 0.01, 1),  # clamped, so neither set is empty
        (3, 0.99, 2),
    ])
    def test_keeps_order_and_rounds_and_clamps_n_train(self, n, train_frac, n_train):
        samples = _samples(n)
        train, val = split(samples, train_frac)
        assert len(train) == n_train
        assert [s.end_index for s in train + val] == list(range(n))

    @pytest.mark.parametrize("n, match", [(0, "zero samples"), (1, "at least 2 samples")])
    def test_fewer_than_two_samples_are_rejected(self, n, match):
        with pytest.raises(DataError, match=match):
            split(_samples(n), 0.8)


@pytest.mark.parametrize("values, match", [
    ([1.7e308], "feature stats mean must be finite"),  # the sum overflows
    ([1e200, -1e200], "feature stats std must be finite"),  # the squares overflow
], ids=["mean", "std"])
def test_feature_stats_of_overflowing_windows_are_a_data_error_without_warnings(values, match):
    windows = np.ones((4, WINDOW_LENGTH, N_FEATURES))
    windows[:, :, 3] = np.resize(values, WINDOW_LENGTH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=match):
            FeatureStats.from_windows(windows)


def test_sequence_sample_validation():
    with pytest.raises(DataError):
        SequenceSample(window=np.zeros((WINDOW_LENGTH - 1, N_FEATURES)), label=1, end_index=0)
    with pytest.raises(DataError):
        SequenceSample(window=np.full((WINDOW_LENGTH, N_FEATURES), np.nan), label=1, end_index=0)
    with pytest.raises(DataError):
        SequenceSample(window=np.zeros((WINDOW_LENGTH, N_FEATURES)), label=2, end_index=0)
