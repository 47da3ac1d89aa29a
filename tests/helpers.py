"""Shared builders for the test suite."""

from datetime import date, timedelta
from typing import NamedTuple

import numpy as np

from optioncast.market_data import N_FEATURES, WINDOW_LENGTH, QuoteRecord, SequenceSample

START = date(2021, 1, 4)


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
