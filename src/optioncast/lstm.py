"""Two-layer LSTM direction classifier with exact backpropagation through time.

Everything is plain numpy so each gradient can be audited against centered
finite differences.  Per step and layer, with x the step input, h/c the
carried short-term and cell states:

    i = sig(Wi x + Ui h + bi)      f = sig(Wf x + Uf h + bf)
    o = sig(Wo x + Uo h + bo)      g = tanh(Wg x + Ug h + bg)
    c' = f * c + i * g             h' = o * tanh(c')

Each layer stores its four gates stacked in the order i, f, o, g: W is
(4H, in), U is (4H, H) and b is (4H,), so one product gives every gate's
pre-activation.  Every parameter array is a view into one flat float64
vector, which the optimizers update in place.

The second layer consumes the first layer's h sequence, and a dense head
maps the final h of layer 2 through a sigmoid to P(next-day mid up).  Loss
is binary cross-entropy with the probability clamped to [1e-12, 1 - 1e-12].

Both layers run as one wavefront of T + 1 iterations over the T = 10 steps.
Iteration s runs layer-1 step s in slot 0 and layer-2 step s - 1 in slot 1 of
stacked (B, 2, 4H) gate and (B, 2, H) state buffers; layer-2 step s - 1
needs only h1_s, which the iteration before wrote.  One product of the input
row z_s = [x_s | 1 | h1_s | h2_(s-1)] with the block matrix

    M = [[W1^T,    0],
         [  b1,   b2],
         [U1^T, W2^T],
         [   0, U2^T]]        (in + 1 + 2H, 8H)

gives both slots' pre-activations, biases included.  Backpropagation runs
the iterations in reverse, and one product of the gate gradients with the
transpose of M's last 2H rows returns dh1_s = da1_s U1 + da2_s W2 and
dh2_(s-1) = da2_s U2 together.  The edge iterations are one-sided: s = 0 has
no layer-2 step and s = T no layer-1 step.  Their empty slot's gates are set
to zero after the activations, so that slot writes c = h = 0 (the initial
state layer 2 starts from) and passes no gradient back.

One tanh per iteration gives every gate.  The sigmoid gates use
sig(x) = 1/2 + tanh(x / 2) / 2: the forward multiplies by M with its i, f
and o columns halved, which is exact (a power of two), and then scales and
shifts those columns in place; backpropagation reads the true M.  The
identity stays within 2^-52 of the two-branch logistic, except that a gate
is exactly 0 below x ~ -38, where the logistic is still e^x (< 3.2e-17).

The classifier owns its input scaling.  :func:`train` computes a per-feature
z-score (:class:`FeatureStats`) from its training split alone and returns it
with the parameters; :func:`predict` applies it to raw windows, so callers
never standardize anything themselves.  Inference keeps only the current
state of the wavefront, not the cache that backpropagation reads.

Training is mini-batch gradient descent (plain SGD by default, Adam behind
``optimizer="adam"``), fully deterministic for a fixed seed: initialization
and the per-epoch shuffle all come from one seeded PCG64 stream, and the
returned parameters are the ones with the best validation accuracy seen.
:func:`train` allocates the wavefront storage and M once per epoch and the
gradient once, and reuses them for every minibatch; a smaller last
minibatch uses leading slices of them.  The storage is freed before each
validation pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError
from .market_data import N_FEATURES, SequenceSample, WINDOW_LENGTH

__all__ = [
    "FeatureStats",
    "Layer",
    "LstmParams",
    "Metrics",
    "TrainConfig",
    "TrainResult",
    "backward",
    "backward_batch",
    "evaluate",
    "forward",
    "forward_batch",
    "init_params",
    "load_checkpoint",
    "loss",
    "params_to_vector",
    "predict",
    "save_checkpoint",
    "train",
    "vector_to_params",
]

PROB_CLAMP = 1e-12
CHECKPOINT_SCHEMA = 2

_GATES = ("i", "f", "o", "g")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow.

    ``out`` may be ``x`` itself.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=out)


def _layout(hidden: int, input_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in flat-vector order."""
    four = 4 * hidden
    return [
        ("layer1.w", (four, input_size)),
        ("layer1.u", (four, hidden)),
        ("layer1.b", (four,)),
        ("layer2.w", (four, hidden)),
        ("layer2.u", (four, hidden)),
        ("layer2.b", (four,)),
        ("dense_w", (hidden,)),
        ("dense_b", (1,)),
    ]


def _n_params(hidden: int, input_size: int) -> int:
    return sum(math.prod(shape) for _, shape in _layout(hidden, input_size))


@dataclass(frozen=True)
class Layer:
    """One LSTM layer: w acts on the input, u on h; rows are gates i, f, o, g."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray


class LstmParams:
    """Both recurrent layers plus the dense sigmoid head.

    ``arrays`` maps each name of :func:`_layout` to its array; all of them,
    and ``layer1``, ``layer2``, ``dense_w`` and ``dense_b`` (shape (1,)),
    are views into ``vector``, so writing to one writes to the other.
    """

    def __init__(self, vector: np.ndarray, hidden: int, input_size: int = N_FEATURES):
        layout = _layout(hidden, input_size)
        expected = _n_params(hidden, input_size)
        if vector.shape != (expected,):
            raise DataError(f"parameter vector has {vector.size} entries, expected {expected}")
        self.vector = vector
        self.hidden = hidden
        self.input_size = input_size
        self.arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            self.arrays[name] = vector[offset : offset + size].reshape(shape)
            offset += size
        a = self.arrays
        self.layer1 = Layer(a["layer1.w"], a["layer1.u"], a["layer1.b"])
        self.layer2 = Layer(a["layer2.w"], a["layer2.u"], a["layer2.b"])
        self.dense_w = a["dense_w"]
        self.dense_b = a["dense_b"]

    @classmethod
    def zeros(cls, hidden: int, input_size: int = N_FEATURES) -> "LstmParams":
        return cls(np.zeros(_n_params(hidden, input_size)), hidden, input_size)


def params_to_vector(params: LstmParams) -> np.ndarray:
    """A copy of the flat parameter vector."""
    return params.vector.copy()


def vector_to_params(vec: np.ndarray, hidden: int, input_size: int = N_FEATURES) -> LstmParams:
    """Parameters over a float64 copy of ``vec``."""
    return LstmParams(np.array(vec, dtype=np.float64), hidden, input_size)


def init_params(hidden: int, rng: np.random.Generator, input_size: int = N_FEATURES) -> LstmParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, forget bias +1.

    Draw order is fixed (layer1 then layer2, gates i,f,o,g, w before u, then
    the dense head) so a given generator state always yields the same model.
    """
    def draw(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = LstmParams.zeros(hidden, input_size)
    for layer, in_dim in ((params.layer1, input_size), (params.layer2, hidden)):
        for k, gate in enumerate(_GATES):
            rows = slice(k * hidden, (k + 1) * hidden)
            layer.w[rows] = draw((hidden, in_dim), in_dim)
            layer.u[rows] = draw((hidden, hidden), hidden)
            if gate == "f":
                layer.b[rows] = 1.0
    params.dense_w[:] = draw((hidden,), hidden)
    return params


@dataclass
class _LayerCache:
    """One layer over all steps, time-major.

    ``x`` (T, B, in) holds the step inputs and ``gates`` (T, B, 4H) the gate
    activations i, f, o, g.  ``c`` and ``h`` (T + 1, B, H) hold the zero
    initial state at index 0.  All four are views into a :class:`ForwardCache`.
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray


@dataclass
class ForwardCache:
    """The wavefront's full storage, everything backpropagation reads.

    Index s of ``z`` (T + 2, B, in + 1 + 2H) holds iteration s's input row
    [x_s | 1 | h1_s | h2_(s-1)], and index s of ``c`` (T + 2, B, 2, H) the
    cell states [c1_s | c2_(s-1)] it starts from; index T + 1 is the state
    after the last iteration.  Index s of ``gates`` (T + 1, B, 2, 4H) and
    ``tanh_c`` (T + 1, B, 2, H) holds iteration s's activations and the tanh
    of the cell states it wrote.  ``block`` is the matrix M they came from
    (the forward multiplied by it with the sigmoid columns halved).
    """

    params: LstmParams
    probs: np.ndarray
    z: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    gates: np.ndarray
    block: np.ndarray

    def _h(self) -> np.ndarray:
        """(T + 2, B, 2, H) view of the h columns of ``z``."""
        hid = self.params.hidden
        return self.z[..., -2 * hid :].reshape(*self.z.shape[:2], 2, hid)

    @property
    def layer1(self) -> _LayerCache:
        return _LayerCache(
            x=self.z[:-2, :, : self.params.input_size], gates=self.gates[:-1, :, 0],
            c=self.c[:-1, :, 0], h=self._h()[:-1, :, 0],
        )

    @property
    def layer2(self) -> _LayerCache:
        return _LayerCache(
            x=self.layer1.h[1:], gates=self.gates[1:, :, 1], c=self.c[1:, :, 1], h=self._h()[1:, :, 1],
        )


def _block(params: LstmParams, out: np.ndarray | None = None) -> np.ndarray:
    """The wavefront's block matrix M (in + 1 + 2H, 8H) of the module docstring.

    Written into ``out`` when given; only the nonzero blocks are written, so
    its zero blocks must already be zero.
    """
    hid, n_in = params.hidden, params.input_size
    four = 4 * hid
    block = np.zeros((n_in + 1 + 2 * hid, 2 * four)) if out is None else out
    block[:n_in, :four] = params.layer1.w.T
    block[n_in, :four] = params.layer1.b
    block[n_in, four:] = params.layer2.b
    block[n_in + 1 : n_in + 1 + hid, :four] = params.layer1.u.T
    block[n_in + 1 : n_in + 1 + hid, four:] = params.layer2.w.T
    block[n_in + 1 + hid :, four:] = params.layer2.u.T
    return block


def _halve_sigmoid_columns(block: np.ndarray) -> np.ndarray:
    """Halve M's i, f and o columns in place (exact: a power of two) and return it.

    The forward multiplies by this matrix, so one tanh gives tanh(x / 2) for
    every sigmoid gate and tanh(x) for g.
    """
    hid = block.shape[1] // 8
    block.reshape(len(block), 2, 4 * hid)[..., : 3 * hid] *= 0.5
    return block


def _storage(params: LstmParams, batch: int, n_states: int, n_iters: int):
    """Zeroed wavefront storage: ``n_states`` rows of z and c (the ones column
    set), ``n_iters`` rows of gates and tanh(c)."""
    hid, n_in = params.hidden, params.input_size
    z = np.zeros((n_states, batch, n_in + 1 + 2 * hid))
    z[..., n_in] = 1.0
    c = np.zeros((n_states, batch, 2, hid))
    return z, c, np.empty((n_iters, batch, 2, hid)), np.empty((n_iters, batch, 2, 4 * hid))


class _Workspace:
    """A minibatch step's storage, for batches of up to ``batch`` windows.

    :func:`train` makes one per epoch and reuses it for every minibatch; a
    smaller batch uses leading slices along the batch axis.  Each pass
    overwrites all it reads except the zero initial state, the ones column
    and M's zero blocks, which no pass writes.  ``block`` holds M and
    ``halved`` the matrix the forward multiplies by.
    """

    def __init__(self, params: LstmParams, batch: int):
        self.block = _block(params)
        self.halved = np.empty_like(self.block)
        self.z, self.c, self.tanh_c, self.gates = _storage(
            params, batch, WINDOW_LENGTH + 2, WINDOW_LENGTH + 1
        )


def _wavefront(
    params: LstmParams, block: np.ndarray, windows: np.ndarray,
    z: np.ndarray, c: np.ndarray, tanh_c: np.ndarray, gates: np.ndarray,
) -> np.ndarray:
    """Run both layers over (B, T, in) windows; return layer 2's final h (B, H).

    ``block`` is M with its sigmoid columns halved (:func:`_halve_sigmoid_columns`).
    The caller chooses the storage (see :func:`_storage`).  Iteration s reads
    its input row and cell states at index s % len(z) of ``z`` and ``c``,
    writes the next ones at (s + 1) % len(z), and writes its activations at
    s % len(gates) of ``gates`` and ``tanh_c``.  T + 2 and T + 1 rows keep
    every iteration for backpropagation, and all step inputs are copied in
    at once; two and one keep only the current state, and give the same
    numbers.
    """
    batch, n_steps, n_in = windows.shape
    hid = params.hidden
    keep_all = len(z) == n_steps + 2
    if keep_all:
        z[:n_steps, :, :n_in] = windows.transpose(1, 0, 2)
    for s in range(n_steps + 1):
        row, c_prev = z[s % len(z)], c[s % len(c)]
        if s < n_steps and not keep_all:
            row[:, :n_in] = windows[:, s]
        a = gates[s % len(gates)]
        np.matmul(row, block, out=a.reshape(batch, -1))
        np.tanh(a, out=a)
        sig = a[..., : 3 * hid]  # sig(x) = 1/2 + tanh(x / 2) / 2
        sig *= 0.5
        sig += 0.5
        if s == 0:
            a[:, 1] = 0.0  # no layer-2 step yet: its state stays zero
        if s == n_steps:
            a[:, 0] = 0.0  # layer 1 has no step left: the last state is [0 | h2_T]
        i, f, o, g = (a[..., k * hid : (k + 1) * hid] for k in range(4))
        c_next, t = c[(s + 1) % len(c)], tanh_c[s % len(tanh_c)]
        np.multiply(f, c_prev, out=c_next)
        c_next += i * g
        np.tanh(c_next, out=t)
        h_next = z[(s + 1) % len(z)][:, n_in + 1 :].reshape(batch, 2, hid)
        np.multiply(o, t, out=h_next)
    return h_next[:, 1]


def _head(params: LstmParams, h_last: np.ndarray) -> np.ndarray:
    """P(up) from layer 2's final h."""
    return _sigmoid(h_last @ params.dense_w + params.dense_b)


def _checked_windows(params: LstmParams, windows: np.ndarray) -> np.ndarray:
    """``windows`` as float64, or a DataError unless shaped (batch, 10, input_size)."""
    windows = np.asarray(windows, dtype=np.float64)
    if (
        windows.ndim != 3
        or windows.shape[1] != WINDOW_LENGTH
        or windows.shape[2] != params.input_size
    ):
        raise DataError(
            f"windows must have shape (batch, {WINDOW_LENGTH}, {params.input_size}), "
            f"got {windows.shape}"
        )
    return windows


def _forward(
    params: LstmParams, windows: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, ForwardCache]:
    """:func:`forward_batch` on ``work``; the cache holds views into it."""
    block = _block(params, out=work.block)
    np.copyto(work.halved, block)
    batch = len(windows)
    z, c, tanh_c, gates = (a[:, :batch] for a in (work.z, work.c, work.tanh_c, work.gates))
    h_last = _wavefront(
        params, _halve_sigmoid_columns(work.halved), windows, z, c, tanh_c, gates
    )
    probs = _head(params, h_last)
    return probs, ForwardCache(
        params=params, probs=probs, z=z, c=c, tanh_c=tanh_c, gates=gates, block=block
    )


def forward_batch(params: LstmParams, windows: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Probabilities for a (batch, 10, features) stack of windows."""
    windows = _checked_windows(params, windows)
    return _forward(params, windows, _Workspace(params, len(windows)))


def _infer(params: LstmParams, windows: np.ndarray) -> np.ndarray:
    """:func:`forward_batch`'s probabilities, bit for bit, keeping only the current state."""
    windows = _checked_windows(params, windows)
    storage = _storage(params, len(windows), 2, 1)
    block = _halve_sigmoid_columns(_block(params))
    return _head(params, _wavefront(params, block, windows, *storage))


def forward(params: LstmParams, window: np.ndarray) -> tuple[float, ForwardCache]:
    """Probability of an up move for one window."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise DataError(f"window must be 2-d (steps, features), got shape {window.shape}")
    probs, cache = forward_batch(params, window[None, :, :])
    return float(probs[0]), cache


def loss(prob: float, label: float) -> float:
    """Binary cross-entropy with the probability clamped away from 0 and 1."""
    p = min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(label * math.log(p) + (1.0 - label) * math.log(1.0 - p))


def _loss_vector(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))


def backward_batch(cache: ForwardCache, labels: np.ndarray) -> LstmParams:
    """Gradient of the summed cross-entropy over the batch.

    Summed (not averaged), so duplicating a sample doubles its contribution;
    the trainer divides by the batch size.  The dense pre-activation gradient
    is probs - labels, exact wherever the clamp is inactive.
    """
    labels = np.asarray(labels, dtype=np.float64)
    batch = cache.probs.shape[0]
    if labels.shape != (batch,):
        raise DataError(f"labels shape {labels.shape} does not match batch {batch}")
    return _backward(cache, labels, LstmParams.zeros(cache.params.hidden, cache.params.input_size))


def _backward(cache: ForwardCache, labels: np.ndarray, grads: LstmParams) -> LstmParams:
    """:func:`backward_batch` into ``grads``, every entry of which it overwrites."""
    params = cache.params
    batch = cache.probs.shape[0]
    hid, n_in = params.hidden, params.input_size
    gates, tanh_c, z = cache.gates, cache.tanh_c, cache.z

    dz = cache.probs - labels
    grads.dense_w[:] = dz @ z[-1, :, n_in + 1 + hid :]
    grads.dense_b[0] = dz.sum()

    # Every factor of the gate gradients that does not depend on dh or dc,
    # for all iterations at once: sig'(i) g, sig'(f) c_prev and tanh'(g) i,
    # which multiply dc, sig'(o) tanh c, which multiplies dh, and o tanh'(c)
    # for the cell.  ``da`` holds the first three and turns into the gate
    # gradients iteration by iteration.
    i, f, o, g = (gates[..., k * hid : (k + 1) * hid] for k in range(4))
    da = np.subtract(1.0, gates)
    da *= gates
    da[..., :hid] *= g
    da[..., hid : 2 * hid] *= cache.c[:-1]
    o_coef = da[..., 2 * hid : 3 * hid] * tanh_c
    np.multiply(1.0 - g * g, i, out=da[..., 3 * hid :])
    o_dtanh_c = o * (1.0 - tanh_c * tanh_c)

    n_iters = len(gates)
    da_gates = da.reshape(n_iters, batch, 2, 4, hid)  # so dc broadcasts over the gates
    back = cache.block[n_in + 1 :].T
    dh = np.zeros((batch, 2, hid))
    dh[:, 1] = dz[:, None] * params.dense_w
    dc = np.zeros((batch, 2, hid))
    for s in range(n_iters - 1, -1, -1):
        dc += dh * o_dtanh_c[s]
        da_gates[s] *= dc[:, :, None]
        np.multiply(o_coef[s], dh, out=da[s, ..., 2 * hid : 3 * hid])
        dc *= f[s]
        if s:
            np.matmul(da[s].reshape(batch, -1), back, out=dh.reshape(batch, -1))

    # Layer 1's steps are iterations 0..T-1 with rows [x | 1 | h1] and layer
    # 2's are 1..T with rows [1 | h1 | h2], so each layer's w, b and u come
    # from one product; the ones column gives the bias.
    four, n_steps, width = 4 * hid, n_iters - 1, n_in + 1 + hid
    d1 = da[:n_steps, :, 0].reshape(-1, four).T @ z[:n_steps, :, :width].reshape(-1, width)
    d2 = da[1:, :, 1].reshape(-1, four).T @ z[1:n_iters, :, n_in:].reshape(-1, 1 + 2 * hid)
    grads.layer1.w[...] = d1[:, :n_in]
    grads.layer1.b[...] = d1[:, n_in]
    grads.layer1.u[...] = d1[:, n_in + 1 :]
    grads.layer2.b[...] = d2[:, 0]
    grads.layer2.w[...] = d2[:, 1 : 1 + hid]
    grads.layer2.u[...] = d2[:, 1 + hid :]
    return grads


def backward(cache: ForwardCache, label: float) -> LstmParams:
    """Gradient of the loss for a single-window cache."""
    if cache.probs.shape[0] != 1:
        raise DataError(f"single-sample backward got a batch of {cache.probs.shape[0]}")
    return backward_batch(cache, np.array([label], dtype=np.float64))


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the derived rates.

    ``precision``/``recall`` are reported as 0.0 with the matching
    ``*_defined`` flag cleared when their denominator is empty.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        for name, v in (("tp", tp), ("fp", fp), ("tn", tn), ("fn", fn)):
            if v < 0 or int(v) != v:
                raise DataError(f"{name} must be a nonnegative integer, got {v}")
        total = tp + fp + tn + fn
        if total == 0:
            raise DataError("cannot compute metrics from an empty confusion matrix")
        return cls(
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / total,
            precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
            recall=tp / (tp + fn) if tp + fn > 0 else 0.0,
            precision_defined=tp + fp > 0,
            recall_defined=tp + fn > 0,
        )


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and standard deviation used for z-scoring."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (N_FEATURES,) or self.std.shape != (N_FEATURES,):
            raise DataError("feature stats must be 13-wide vectors")
        if not np.all(np.isfinite(self.mean)):
            raise DataError("feature stats mean must be finite")
        if not np.all(np.isfinite(self.std) & (self.std > 0)):
            raise DataError("feature stats std must be finite and > 0")


def _stack(samples: Sequence[SequenceSample]) -> np.ndarray:
    """The samples' windows as a new float64 (B, T, features) array."""
    return np.stack([s.window for s in samples]).astype(np.float64, copy=False)


def _zscore(windows: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Z-score a freshly stacked (B, T, features) array in place and return it."""
    windows -= stats.mean
    windows /= stats.std
    return windows


def _confusion(probs: np.ndarray, labels: np.ndarray) -> Metrics:
    """Threshold ``probs`` at 0.5 and count the confusion against 0/1 ``labels``."""
    preds = probs >= 0.5
    actual = labels == 1
    return Metrics.from_counts(
        tp=int(np.sum(preds & actual)),
        fp=int(np.sum(preds & ~actual)),
        tn=int(np.sum(~preds & ~actual)),
        fn=int(np.sum(~preds & actual)),
    )


def predict(
    params: LstmParams, stats: FeatureStats, samples: Sequence[SequenceSample]
) -> np.ndarray:
    """P(up) for each raw sample, z-scored with ``stats``; no samples give an empty array."""
    if not samples:
        return np.empty(0)
    return _infer(params, _zscore(_stack(samples), stats))


def evaluate(
    params: LstmParams, stats: FeatureStats, samples: Sequence[SequenceSample]
) -> Metrics:
    """Threshold :func:`predict` at 0.5 and count the confusion."""
    if not samples:
        raise DataError("cannot evaluate on zero samples")
    return _confusion(predict(params, stats, samples), np.array([s.label for s in samples]))


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 32
    batch: int = 8
    epochs: int = 20
    learning_rate: float = 0.05
    seed: int = 0
    train_frac: float = 0.8
    optimizer: str = "sgd"

    def __post_init__(self) -> None:
        if int(self.hidden) != self.hidden or self.hidden <= 0:
            raise DataError(f"hidden must be a positive integer, got {self.hidden}")
        if int(self.batch) != self.batch or self.batch <= 0:
            raise DataError(f"batch must be a positive integer, got {self.batch}")
        if int(self.epochs) != self.epochs or self.epochs <= 0:
            raise DataError(f"epochs must be a positive integer, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise DataError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not 0.0 < self.train_frac < 1.0:
            raise DataError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.optimizer not in ("sgd", "adam"):
            raise DataError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val: Metrics
    best_val_accuracy: float


@dataclass
class TrainResult:
    params: LstmParams
    stats: FeatureStats
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = 0.0


def train(samples: Sequence[SequenceSample], config: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent over a chronological train/validation split.

    The first ``train_frac`` of the samples (in the given order) is the
    training set.  The feature statistics are the mean and std over every day
    of its windows alone (std < 1e-12 becomes 1), and both splits are
    z-scored with them.  Returns the parameters with the best validation
    accuracy (earliest epoch wins ties).
    """
    if not samples:
        raise DataError("cannot train on zero samples")
    n = len(samples)
    n_train = int(round(config.train_frac * n))
    n_train = min(max(n_train, 1), n - 1)
    if n < 2:
        raise DataError("need at least 2 samples to split into train and validation")
    if config.batch > n_train:
        raise DataError(f"batch size {config.batch} exceeds training-set size {n_train}")

    x_train = _stack(samples[:n_train])
    y_train = np.array([s.label for s in samples[:n_train]], dtype=np.float64)
    days = x_train.reshape(-1, N_FEATURES)
    std = days.std(axis=0)
    stats = FeatureStats(mean=days.mean(axis=0), std=np.where(std < 1e-12, 1.0, std))
    x_train = _zscore(x_train, stats)
    x_val = _zscore(_stack(samples[n_train:]), stats)
    y_val = np.array([s.label for s in samples[n_train:]])

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = init_params(config.hidden, rng)
    vec = params.vector

    use_adam = config.optimizer == "adam"
    adam_m = np.zeros_like(vec)
    adam_v = np.zeros_like(vec)
    adam_b1, adam_b2, adam_eps = 0.9, 0.999, 1e-8
    adam_t = 0

    best_vec = vec.copy()
    best_acc = -1.0
    best_epoch = 0
    history: list[EpochStats] = []

    grads = LstmParams.zeros(config.hidden, params.input_size)
    gvec = grads.vector
    for epoch in range(1, config.epochs + 1):
        work = _Workspace(params, config.batch)
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, config.batch):
            idx = order[start : start + config.batch]
            labels = y_train[idx]
            probs, cache = _forward(params, x_train[idx], work)
            epoch_loss += float(_loss_vector(probs, labels).sum())
            _backward(cache, labels, grads)
            gvec /= len(idx)
            if use_adam:
                adam_t += 1
                adam_m = adam_b1 * adam_m + (1 - adam_b1) * gvec
                adam_v = adam_b2 * adam_v + (1 - adam_b2) * gvec ** 2
                m_hat = adam_m / (1 - adam_b1 ** adam_t)
                v_hat = adam_v / (1 - adam_b2 ** adam_t)
                vec -= config.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
            else:
                gvec *= config.learning_rate
                vec -= gvec
        epoch_loss /= n_train
        if not (math.isfinite(epoch_loss) and np.all(np.isfinite(vec))):
            raise ConvergenceError(f"training diverged at epoch {epoch} (non-finite loss or weights)")
        # Validation allocates its own storage: with the workspace still held,
        # the heap grows instead of reusing it.
        del work, cache
        val_metrics = _confusion(_infer(params, x_val), y_val)
        if val_metrics.accuracy > best_acc:
            best_acc = val_metrics.accuracy
            best_vec = vec.copy()
            best_epoch = epoch
        history.append(
            EpochStats(epoch=epoch, train_loss=epoch_loss, val=val_metrics,
                       best_val_accuracy=best_acc)
        )

    return TrainResult(
        params=LstmParams(best_vec, config.hidden, params.input_size),
        stats=stats,
        history=history,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
    )


def save_checkpoint(path, result: TrainResult, config: TrainConfig) -> None:
    """Single JSON document with config, shapes, row-major weights, and stats.

    Schema 2 stores each layer as the stacked ``layer{1,2}.{w,u,b}`` arrays
    (gate order i, f, o, g) plus ``dense_w`` and ``dense_b``.
    """
    params = result.params
    weights = {name: arr.reshape(-1).tolist() for name, arr in params.arrays.items()}
    shapes = {name: list(arr.shape) for name, arr in params.arrays.items()}
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "config": {
            "hidden": config.hidden,
            "batch": config.batch,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "split": [config.train_frac, 1.0 - config.train_frac],
            "optimizer": config.optimizer,
        },
        "seed": config.seed,
        "epoch": result.best_epoch,
        "input_size": params.input_size,
        "shapes": shapes,
        "weights": weights,
        "feature_stats": {
            "mean": result.stats.mean.tolist(),
            "std": result.stats.std.tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> tuple[LstmParams, FeatureStats, dict]:
    """Load a schema-2 checkpoint, validating every declared shape."""
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise DataError(
            f"checkpoint schema {schema} is not supported: this version reads schema "
            f"{CHECKPOINT_SCHEMA} (gates stacked per layer); retrain to write a new checkpoint"
        )
    try:
        hidden = int(doc["config"]["hidden"])
        input_size = int(doc["input_size"])
        shapes = doc["shapes"]
        weights = doc["weights"]
        stats = FeatureStats(
            mean=np.asarray(doc["feature_stats"]["mean"], dtype=np.float64),
            std=np.asarray(doc["feature_stats"]["std"], dtype=np.float64),
        )
    except KeyError as exc:
        raise DataError(f"checkpoint is missing field {exc}") from exc
    if hidden <= 0 or input_size <= 0:
        raise DataError(f"checkpoint hidden ({hidden}) and input_size ({input_size}) must be positive")
    params = LstmParams.zeros(hidden, input_size)
    for name, target in params.arrays.items():
        if name not in weights:
            raise DataError(f"checkpoint is missing weights for {name}")
        declared = tuple(shapes.get(name, ()))
        if declared != target.shape:
            raise DataError(f"checkpoint shape for {name} is {declared}, expected {target.shape}")
        flat = np.asarray(weights[name], dtype=np.float64)
        if flat.size != target.size:
            raise DataError(f"checkpoint weights for {name} have size {flat.size}, expected {target.size}")
        target[...] = flat.reshape(target.shape)
    meta = {"seed": doc.get("seed"), "epoch": doc.get("epoch"), "config": doc.get("config", {})}
    return params, stats, meta
