"""Shared builders for the test suite."""

import base64
import math
import re
import shlex
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

import numpy as np

from optioncast.errors import DataError
from optioncast.market_data import N_FEATURES, WINDOW_LENGTH, QuoteRecord, SequenceSample

START = date(2021, 1, 4)


def b64_vector(values) -> str:
    """A checkpoint's ``vector`` field for float64 ``values``, or for raw ``bytes`` as given."""
    raw = values if isinstance(values, bytes) else np.asarray(values, "<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def b64_floats(text: str) -> np.ndarray:
    """The float64 values a checkpoint's ``vector`` field encodes, in a new array."""
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def with_entry(values: np.ndarray, index: int, value: float) -> np.ndarray:
    """A copy of ``values`` with entry ``index`` set to ``value``."""
    values = values.copy()
    values[index] = value
    return values


def make_record(
    offset=0,
    option_bid=4.9,
    option_ask=5.1,
    stock_bid=99.0,
    stock_ask=101.0,
    strike=80.0,
    implied_vol=0.2,
    rate=0.01,
):
    return QuoteRecord(
        day=START + timedelta(days=offset),
        option_bid=option_bid,
        option_ask=option_ask,
        stock_bid=stock_bid,
        stock_ask=stock_ask,
        strike=strike,
        implied_vol=implied_vol,
        rate=rate,
    )


def make_series(option_mids, spread=0.2, stock_mid=100.0, **kwargs):
    """Constant stock, per-day option mids with a symmetric absolute spread."""
    return [
        make_record(
            offset=k,
            option_bid=mid - spread / 2,
            option_ask=mid + spread / 2,
            stock_bid=stock_mid - 1.0,
            stock_ask=stock_mid + 1.0,
            **kwargs,
        )
        for k, mid in enumerate(option_mids)
    ]


def loop_feature_matrix(records, minimizers):
    """The per-day loop ``market_data.feature_matrix`` replaced: the reference it must match."""
    n = len(records)
    out = np.empty((n, N_FEATURES))
    for k, (rec, est) in enumerate(zip(records, minimizers)):
        est = float(est)
        if not math.isfinite(est):
            raise DataError(f"minimizer estimate for day {k} is not finite")
        o_mid, s_mid = rec.option_mid, rec.stock_mid
        if k == 0:
            o_ret, s_ret = 0.0, 0.0
        else:
            prev = records[k - 1]
            o_ret = o_mid / prev.option_mid - 1.0 if prev.option_mid > 0 else 0.0
            s_ret = s_mid / prev.stock_mid - 1.0
        out[k] = (
            est,
            rec.implied_vol,
            rec.option_bid,
            rec.option_ask,
            rec.stock_bid,
            rec.stock_ask,
            rec.strike,
            o_mid,
            s_mid,
            o_ret,
            s_ret,
            s_mid / rec.strike,
            (n - 1 - k) / (n - 1) if n > 1 else 0.0,
        )
    return out


def loop_build_sequences(records, minimizers):
    """The per-window loop ``market_data.build_sequences`` replaced: the reference it must match."""
    features = loop_feature_matrix(records, minimizers)
    n = len(records)
    samples = []
    for start in range(0, n - WINDOW_LENGTH):
        end = start + WINDOW_LENGTH - 1
        cur = records[end].option_mid
        nxt = records[end + 1].option_mid
        if nxt == cur:
            continue
        samples.append(
            SequenceSample(
                window=features[start : start + WINDOW_LENGTH].copy(),
                label=1 if nxt > cur else 0,
                end_index=end,
            )
        )
    return samples


def separable_dataset(n=2000, seed=123, permute=False):
    """Windows whose label is the sign of the feature-9 window mean.

    Feature index 9 gets a +/-1 per-window shift, so thresholding that
    feature's mean at zero classifies every sample correctly by
    construction; the other features are pure noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    windows = rng.standard_normal((n, WINDOW_LENGTH, N_FEATURES))
    shift = rng.choice([-1.0, 1.0], size=n)
    windows[:, :, 9] += shift[:, None]
    means = windows[:, :, 9].mean(axis=1)
    keep = means != 0.0
    windows = windows[keep]
    labels = (means[keep] > 0).astype(int)
    if permute:
        labels = rng.permutation(labels)
    return [
        SequenceSample(window=windows[i], label=int(labels[i]), end_index=i)
        for i in range(len(labels))
    ]


class LayerViews(NamedTuple):
    """One LSTM layer of a training-pass cache over all steps, time-major.

    ``x`` (T, B, in) holds the step inputs and ``gates`` (T, B, 4, H) the
    activations of the gates i, f, o, g; ``c`` and ``h`` (T + 1, B, H) hold
    the zero initial state at index 0.  ``c_final`` and ``h_final`` (B, H)
    are the layer's slot of the state stored after the wavefront's last
    iteration.  All six are copies.
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    c_final: np.ndarray
    h_final: np.ndarray


def layer_views(cache, layer):
    """Layer 1 or 2 of an ``lstm.ForwardCache``, read from its wavefront storage.

    This is the one reader of the storage layout in the tests.  Iteration s
    holds layer-1 step s in slot 0 and layer-2 step s - 1 in slot 1; the h
    states are the last 2H rows of the input rows ``z``.
    """
    hid, n_in = cache.params.hidden, N_FEATURES
    z = cache.z.transpose(0, 2, 1)  # (T + 2, B, in + 1 + 2H)
    steps, batch = z.shape[:2]
    h = z[..., -2 * hid :].reshape(steps, batch, 2, hid)
    c = cache.c.transpose(0, 3, 1, 2)  # (T + 2, B, 2, H)
    gates = cache.gates.transpose(0, 4, 2, 1, 3)  # (T + 1, B, 2, 4, H)
    slot = layer - 1
    if layer == 1:
        views = z[:-2, :, :n_in], gates[:-1, :, 0], c[:-1, :, 0], h[:-1, :, 0]
    else:
        views = h[1:-1, :, 0], gates[1:, :, 1], c[1:, :, 1], h[1:, :, 1]
    return LayerViews(*(np.array(v) for v in views), c[-1, :, slot].copy(), h[-1, :, slot].copy())


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
