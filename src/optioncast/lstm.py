"""Two-layer LSTM direction classifier with exact backpropagation through time.

Everything is plain numpy so each gradient can be audited against centered
finite differences.  Per step and layer, with x the step input, h/c the
carried short-term and cell states:

    i = sig(Wi x + Ui h + bi)      f = sig(Wf x + Uf h + bf)
    o = sig(Wo x + Uo h + bo)      g = tanh(Wg x + Ug h + bg)
    c' = f * c + i * g             h' = o * tanh(c')

Each layer stores its four gates stacked in the order i, f, o, g: W is
(4H, in), U is (4H, H) and b is (4H,).  Every parameter array is a view
into one flat float64 vector, which the optimizers update in place.  A
dense sigmoid head maps layer 2's final h to P(next-day mid up), and the
loss is binary cross-entropy with the probability clamped to
[1e-12, 1 - 1e-12].

Both layers run as one wavefront of T + 1 iterations over the T = 10 steps:
iteration s runs layer-1 step s in slot 0 and layer-2 step s - 1 in slot 1,
which needs only h1_s, written by the iteration before.  All storage is
feature-major with the batch axis B innermost, and the gate activations of
an iteration are a (4, 2, H, B) block ordered (gate, slot, hidden, batch),
so each gate of both slots is one contiguous (2, H, B) block.  One product
of the block matrix

    M^T = [[W1, b1, U1,  0],      rows (gate, slot, hidden): 8H
           [ 0, b2, W2, U2]]      columns [x | 1 | h1 | h2]: in + 1 + 2H

(each row pair interleaved by gate, so W1's gate-k rows are M^T's rows
2kH..2kH+H) with the input column z_s = [x_s | 1 | h1_s | h2_(s-1)] gives
both slots' pre-activations, biases included.  M^T is filled from W, U and
b without transposes, by six copies between fixed views.  The edge
iterations are one-sided: s = 0 has no layer-2 step and s = T no layer-1
step, so they compute the live slot only, and the empty one keeps the zero
state layer 2 starts from.

Backpropagation runs the iterations in reverse; one product of the
transpose of M^T's last 2H columns with the gate gradients returns
dh1_s = U1^T da1_s + W2^T da2_s and dh2_(s-1) = U2^T da2_s together.  Each
layer's weight gradient is then one product over all steps and windows.
Training reuses one :class:`ForwardCache` per epoch, which holds a step's
buffers and the views of them each iteration reads, made once per storage,
so a minibatch step only runs numpy kernels.

One tanh per iteration gives every gate.  The sigmoid gates use
sig(x) = 1/2 + tanh(x / 2) / 2: the forward multiplies by M^T with its
first 6H rows (i, f and o) halved, which is exact (a power of two), and
then scales and shifts those rows, one contiguous block, in place;
backpropagation reads the true M^T.  The identity stays within 2^-52 of
the two-branch logistic, except that a gate is exactly 0 below x ~ -38,
where the logistic is still e^x (< 3.2e-17).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, real, whole
from .fusion import Metrics
from .market_data import (FEATURE_NAMES, N_FEATURES, FeatureStats, SequenceSample,
                          WINDOW_LENGTH, split, stack)
from .qrm import QrmConfig

__all__ = [
    "EpochStats",
    "ForwardCache",
    "Layer",
    "LstmParams",
    "TrainConfig",
    "TrainResult",
    "backward",
    "forward",
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
CHECKPOINT_SCHEMA = 5

_GATES = ("i", "f", "o", "g")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    e += 1.0
    return numerator / e


def _layout(hidden: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in flat-vector order."""
    four = 4 * hidden
    return [
        ("layer1.w", (four, N_FEATURES)),
        ("layer1.u", (four, hidden)),
        ("layer1.b", (four,)),
        ("layer2.w", (four, hidden)),
        ("layer2.u", (four, hidden)),
        ("layer2.b", (four,)),
        ("dense_w", (hidden,)),
        ("dense_b", (1,)),
    ]


def _n_params(hidden: int) -> int:
    return sum(math.prod(shape) for _, shape in _layout(hidden))


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

    def __init__(self, vector: np.ndarray, hidden: int):
        expected = _n_params(hidden)
        if vector.shape != (expected,):
            raise DataError(f"parameter vector has {vector.size} entries, expected {expected}")
        self.vector = vector
        self.hidden = hidden
        self.arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in _layout(hidden):
            size = math.prod(shape)
            self.arrays[name] = vector[offset : offset + size].reshape(shape)
            offset += size
        a = self.arrays
        self.layer1 = Layer(a["layer1.w"], a["layer1.u"], a["layer1.b"])
        self.layer2 = Layer(a["layer2.w"], a["layer2.u"], a["layer2.b"])
        self.dense_w = a["dense_w"]
        self.dense_b = a["dense_b"]

    @classmethod
    def zeros(cls, hidden: int) -> "LstmParams":
        return cls(np.zeros(_n_params(hidden)), hidden)


def params_to_vector(params: LstmParams) -> np.ndarray:
    """A copy of the flat parameter vector."""
    return params.vector.copy()


def vector_to_params(vec: np.ndarray, hidden: int) -> LstmParams:
    """Parameters over a float64 copy of ``vec``."""
    return LstmParams(np.array(vec, dtype=np.float64), hidden)


def init_params(hidden: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, forget bias +1.

    Draw order is fixed (layer1 then layer2, gates i,f,o,g, w before u, then
    the dense head) so a given generator state always yields the same model.
    """
    def draw(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = LstmParams.zeros(hidden)
    for layer, in_dim in ((params.layer1, N_FEATURES), (params.layer2, hidden)):
        for k, gate in enumerate(_GATES):
            rows = slice(k * hidden, (k + 1) * hidden)
            layer.w[rows] = draw((hidden, in_dim), in_dim)
            layer.u[rows] = draw((hidden, hidden), hidden)
            if gate == "f":
                layer.b[rows] = 1.0
    params.dense_w[:] = draw((hidden,), hidden)
    return params


def _fills(params: LstmParams, block: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(destination in ``block``, parameter) views; their copies write M^T's nonzero blocks."""
    hid, n_in = params.hidden, N_FEATURES
    one, two = (block.reshape(4, 2, hid, -1)[:, slot] for slot in (0, 1))
    h1, h2 = slice(n_in + 1, n_in + 1 + hid), slice(n_in + 1 + hid, None)
    l1, l2 = params.layer1, params.layer2
    return [(one[..., :n_in], l1.w.reshape(4, hid, n_in)), (one[..., n_in], l1.b.reshape(4, hid)),
            (one[..., h1], l1.u.reshape(4, hid, hid)), (two[..., n_in], l2.b.reshape(4, hid)),
            (two[..., h1], l2.w.reshape(4, hid, hid)), (two[..., h2], l2.u.reshape(4, hid, hid))]


def _block(params: LstmParams) -> np.ndarray:
    """The wavefront's block matrix M^T of the module docstring, in a new array."""
    block = np.zeros((8 * params.hidden, N_FEATURES + 1 + 2 * params.hidden))
    for dst, src in _fills(params, block):
        np.copyto(dst, src)
    return block


def _halve(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """M^T ``block`` with its first 6H rows (the sigmoid gates') halved, into ``out``."""
    six = 6 * len(block) // 8
    np.multiply(block[:six], 0.5, out=out[:six])
    np.copyto(out[six:], block[six:])
    return out


def _storage(params: LstmParams, batch: int, n_states: int, n_iters: int):
    """Zeroed wavefront storage: ``n_states`` rows of z and c (the ones row
    set), ``n_iters`` rows of tanh(c) and gates, and a (2, H, B) scratch block."""
    hid, n_in = params.hidden, N_FEATURES
    z = np.zeros((n_states, n_in + 1 + 2 * hid, batch))
    z[:, n_in] = 1.0
    return (z, np.zeros((n_states, 2, hid, batch)), np.zeros((n_iters, 2, hid, batch)),
            np.zeros((n_iters, 4, 2, hid, batch)), np.zeros((2, hid, batch)))


def _plan(block: np.ndarray, z: np.ndarray, c: np.ndarray, tanh_c: np.ndarray,
          gates: np.ndarray, scratch: np.ndarray):
    """(per-iteration views, layer 2's final h) that :func:`_wavefront` runs on,
    of M^T with its sigmoid rows halved and of :func:`_storage`'s arrays.

    Iteration s copies step s's input into its row of ``z`` and reads it and
    its cell states at index s % n of ``z`` and ``c`` (n of them), writes the
    next ones at (s + 1) % n, and its activations at s % len(gates) of
    ``gates`` and ``tanh_c``.  T + 2 and T + 1 rows keep every iteration for
    backpropagation; two and one keep only the current state.
    """
    n_states, (_, hid, batch), n_in = len(z), scratch.shape, N_FEATURES
    # An edge iteration runs one layer's step: its slot, and the input rows
    # its weights read (the others meet zero weights or a zero state).
    edges = {0: (slice(0, 1), slice(0, n_in + 1)), WINDOW_LENGTH: (slice(1, 2), slice(n_in, None))}
    iterations = []
    for s in range(WINDOW_LENGTH + 1):
        row, c_prev, c_next = z[s % n_states], c[s % n_states], c[(s + 1) % n_states]
        a, t, ig = gates[s % len(gates)], tanh_c[s % len(tanh_c)], scratch
        h_next = h_out = z[(s + 1) % n_states, n_in + 1 :].reshape(2, hid, batch)
        x = row[:n_in] if s < WINDOW_LENGTH else None
        if s in edges:
            live, cols = edges[s]
            product = (block.reshape(4, 2, hid, -1)[:, live, :, cols], row[cols], a[:, live])
            a, h_out, ig = a[:, live], h_next[live], ig[live]
            c_prev, c_next, t = c_prev[live], c_next[live], t[live]
        else:
            product = (block, row, a.reshape(len(block), batch))
        iterations.append((x, product, a, a[:3], *a, c_prev, c_next, ig, t, h_out))
    return iterations, h_next[1]


class ForwardCache:
    """A forward pass's storage for the model ``params``: everything backpropagation reads.

    Every array keeps the batch axis B innermost, after the features, and
    the gate arrays order their features (gate, slot, hidden).  Index s of
    ``z`` (T + 2, in + 1 + 2H, B) holds iteration s's input row
    [x_s | 1 | h1_s | h2_(s-1)], and index s of ``c`` (T + 2, 2, H, B) the
    cell states [c1_s | c2_(s-1)] it starts from; index T + 1 is the state
    after the last iteration.  Index s of ``gates`` (T + 1, 4, 2, H, B) and
    ``tanh_c`` (T + 1, 2, H, B) holds iteration s's activations and the tanh
    of the cell states it wrote, and ``probs`` (B,) is the pass's output.
    ``block`` holds M^T, written through the (destination, parameter) pairs
    ``fills``; the forward multiplies by its :func:`_halve` copy ``halved``.

    :func:`train` makes one per epoch and reuses it for every minibatch.
    :meth:`resize` makes, for ``batch`` windows, :func:`_storage`'s arrays,
    the backward's ``da`` (shaped as ``gates``), ``dh`` and ``dc``, and their
    views: ``plan`` for :func:`_wavefront`, ``steps`` for :func:`_backward`'s
    reverse loop.  A pass of another size resizes (the batch axis is
    innermost, so slices of it would not be contiguous).  Each pass
    overwrites all it reads except what no pass writes: the zero initial
    state, the edge iterations' empty slots, the ones row and M^T's zeros.
    """

    def __init__(self, params: LstmParams, batch: int):
        self.params = params
        self.block = _block(params)
        self.halved = np.empty_like(self.block)
        self.fills = _fills(params, self.block)
        self.back = self.block[:, N_FEATURES + 1 :].T
        self.resize(batch)

    def resize(self, batch: int) -> None:
        hid, self.batch = self.params.hidden, batch
        storage = _storage(self.params, batch, WINDOW_LENGTH + 2, WINDOW_LENGTH + 1)
        self.z, self.c, self.tanh_c, self.gates, self.scratch = storage
        self.plan = _plan(self.halved, *storage)
        self.da = np.empty_like(self.gates)
        self.dh, self.dc = np.empty((2, hid, batch)), np.empty((2, hid, batch))
        self.dh_rows = self.dh.reshape(2 * hid, batch)
        self.factors = ([self.gates[:, k] for k in range(4)], [self.da[:, k] for k in range(4)],
                        self.c[:-1])
        # Iterations T..0: da's (i, f), o and g blocks, f, and da's rows (none at 0).
        self.steps = [(d[:2], d[2], d[3], f, d.reshape(8 * hid, batch) if s else None)
                      for s, (d, f) in reversed(list(enumerate(zip(self.da, self.gates[:, 1]))))]


def _wavefront(plan, windows: np.ndarray) -> np.ndarray:
    """Run both layers over (B, T, in) windows; return layer 2's final h (H, B).

    Loops over ``plan``, :func:`_plan`'s views, so an iteration runs numpy
    kernels only; every storage gives the same numbers.  The edge iterations
    compute their live slot only, so the empty one keeps its zeros.
    """
    iterations, h_last = plan
    for s, (x, (lhs, row, out), a, sig, i, f, o, g, c_prev, c_next, ig, t, h) in enumerate(
            iterations):
        if x is not None:
            np.copyto(x, windows[:, s].T)
        np.matmul(lhs, row, out=out)
        np.tanh(a, out=a)
        sig *= 0.5  # sig(x) = 1/2 + tanh(x / 2) / 2
        sig += 0.5
        np.multiply(f, c_prev, out=c_next)
        np.multiply(i, g, out=ig)
        c_next += ig
        np.tanh(c_next, out=t)
        np.multiply(o, t, out=h)
    return h_last


def _head(params: LstmParams, h_last: np.ndarray) -> np.ndarray:
    return _sigmoid(params.dense_w @ h_last + params.dense_b)


def _checked_windows(windows: np.ndarray) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (WINDOW_LENGTH, N_FEATURES):
        raise DataError(f"windows must have shape (batch, {WINDOW_LENGTH}, "
                        f"{N_FEATURES}), got {windows.shape}")
    return windows


def _forward(cache: ForwardCache, windows: np.ndarray) -> np.ndarray:
    """Probabilities for (batch, T, in) windows, run on ``cache`` and kept as ``cache.probs``."""
    for dst, src in cache.fills:
        np.copyto(dst, src)
    _halve(cache.block, cache.halved)
    if len(windows) != cache.batch:
        cache.resize(len(windows))
    cache.probs = _head(cache.params, _wavefront(cache.plan, windows))
    return cache.probs


def _infer(params: LstmParams, windows: np.ndarray) -> np.ndarray:
    """:func:`_forward`'s probabilities, bit for bit, keeping only the current state."""
    windows = _checked_windows(windows)
    block = _block(params)
    plan = _plan(_halve(block, block), *_storage(params, len(windows), 2, 1))
    return _head(params, _wavefront(plan, windows))


def forward(params: LstmParams, window: np.ndarray) -> tuple[float, ForwardCache]:
    """Probability of an up move for one window."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise DataError(f"window must be 2-d (steps, features), got shape {window.shape}")
    cache = ForwardCache(params, 1)
    return float(_forward(cache, _checked_windows(window[None]))[0]), cache


def _loss_vector(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))


def loss(prob: float, label: float) -> float:
    """Binary cross-entropy with the probability clamped away from 0 and 1."""
    return float(_loss_vector(np.float64(prob), label))


def _backward(cache: ForwardCache, labels: np.ndarray, grads: LstmParams) -> LstmParams:
    """Gradient of the summed cross-entropy over the batch, into ``grads``.

    Every entry of ``grads`` is overwritten.  Summed (not averaged), so
    duplicating a sample doubles its contribution; the trainer divides by the
    batch size.  The dense pre-activation gradient is probs - labels, exact
    wherever the clamp is inactive.
    """
    params = cache.params
    hid, n_in = params.hidden, N_FEATURES
    gates, tanh_c, z, da = cache.gates, cache.tanh_c, cache.z, cache.da
    n_steps, batch = len(gates) - 1, cache.batch

    dz = cache.probs - labels
    grads.dense_w[:] = z[-1, n_in + 1 + hid :] @ dz
    grads.dense_b[0] = dz.sum()

    # Every factor of the gate gradients that does not depend on dh or dc,
    # for all iterations at once: sig'(i) g, sig'(f) c_prev and tanh'(g) i,
    # which multiply dc, sig'(o) tanh c, which multiplies dh, and o tanh'(c)
    # for the cell.  ``da`` holds the first four and turns into the gate
    # gradients iteration by iteration.
    (i, _, o, g), (da_i, da_f, da_o, da_g), c_prev = cache.factors
    np.subtract(1.0, gates, out=da)
    da *= gates
    da_i *= g
    da_f *= c_prev
    da_o *= tanh_c
    np.multiply(1.0 - g * g, i, out=da_g)
    o_dtanh_c = np.multiply(tanh_c, tanh_c)
    np.subtract(1.0, o_dtanh_c, out=o_dtanh_c)
    o_dtanh_c *= o

    dh, dc, scratch = cache.dh, cache.dc, cache.scratch
    dc[...] = dh[0] = 0.0  # only layer 2's final h feeds the head
    np.multiply(params.dense_w[:, None], dz, out=dh[1])
    for (a_if, a_o, a_g, f_s, a), o_dtanh_c_s in zip(cache.steps, o_dtanh_c[::-1]):
        np.multiply(dh, o_dtanh_c_s, out=scratch)
        dc += scratch
        a_if *= dc
        a_o *= dh
        a_g *= dc
        dc *= f_s
        if a is not None:
            np.matmul(cache.back, a, out=cache.dh_rows)
    del o_dtanh_c, o_dtanh_c_s  # before the buffers below, so the step's peak stays lower

    # Layer 1's steps are iterations 0..T-1 with input rows [x | 1 | h1] and
    # layer 2's are 1..T with [1 | h1 | h2], so each layer's w, b and u come
    # from one product over (iteration, batch); the ones row gives the bias.
    # Its operands are copied into buffers that put the iteration next to the
    # batch, which the two layers share, as they share its result ``d``.
    rows = np.empty((4, hid, n_steps, batch))
    cols = np.empty((1 + hid + max(n_in, hid), n_steps, batch))
    d = np.empty((4 * hid, len(cols)))
    for slot, layer, inputs in ((0, grads.layer1, slice(0, n_in + 1 + hid)),
                                (1, grads.layer2, slice(n_in, None))):
        steps = slice(slot, slot + n_steps)
        x = z[steps, inputs]
        buf, dl = cols[: x.shape[1]], d[:, : x.shape[1]]
        np.copyto(buf.transpose(1, 0, 2), x)
        np.copyto(rows.transpose(2, 0, 1, 3), da[steps, :, slot])
        np.matmul(rows.reshape(4 * hid, -1), buf.reshape(len(buf), -1).T, out=dl)
        layer.w[...] = dl[:, :n_in] if slot == 0 else dl[:, 1 : 1 + hid]
        layer.b[...] = dl[:, n_in - inputs.start]  # the ones row
        layer.u[...] = dl[:, -hid:]
    return grads


def backward(cache: ForwardCache, label: float) -> LstmParams:
    """Gradient of the loss for a single-window cache."""
    if cache.probs.shape[0] != 1:
        raise DataError(f"single-sample backward got a batch of {cache.probs.shape[0]}")
    grads = LstmParams.zeros(cache.params.hidden)
    return _backward(cache, np.array([label], dtype=np.float64), grads)


def predict(
    params: LstmParams, stats: FeatureStats, samples: Sequence[SequenceSample]
) -> np.ndarray:
    """P(up) for each raw sample, z-scored with ``stats``; no samples give an empty array."""
    if not samples:
        return np.empty(0)
    return _infer(params, stats.zscore(stack(samples)))


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
        for name in ("hidden", "batch", "epochs"):
            rule = f"{name} must be a positive integer"
            object.__setattr__(self, name, whole(getattr(self, name), rule, 1))
        object.__setattr__(self, "learning_rate", real(
            self.learning_rate, "learning_rate must be > 0", lambda x: x > 0))
        object.__setattr__(self, "seed", whole(
            self.seed, "seed must be an unsigned 64-bit integer", 0, 2**64 - 1))
        object.__setattr__(self, "train_frac", real(
            self.train_frac, "train_frac must be in (0, 1)", lambda x: 0 < x < 1))
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
    """Mini-batch gradient descent on ``split(samples, config.train_frac)``, both sets
    z-scored with the training windows' :class:`FeatureStats`.  Returns the parameters
    with the best validation accuracy (earliest epoch wins ties).
    """
    train_set, val_set = split(samples, config.train_frac)
    n_train = len(train_set)
    if config.batch > n_train:
        raise DataError(f"batch size {config.batch} exceeds training-set size {n_train}")

    x_train = stack(train_set)
    stats = FeatureStats.from_windows(x_train)
    x_train, x_val = stats.zscore(x_train), stats.zscore(stack(val_set))
    y_train = np.array([s.label for s in train_set], dtype=np.float64)
    y_val = np.array([s.label for s in val_set])

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

    grads = LstmParams.zeros(config.hidden)
    gvec = grads.vector
    for epoch in range(1, config.epochs + 1):
        cache = ForwardCache(params, config.batch)
        order = rng.permutation(n_train)
        probs_seen = np.empty(n_train)
        for start in range(0, n_train, config.batch):
            idx = order[start : start + config.batch]
            labels = y_train[idx]
            probs_seen[start : start + len(idx)] = _forward(cache, x_train[idx])
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
        # One loss pass, summed minibatch by minibatch so it rounds as the steps ran.
        losses = _loss_vector(probs_seen, y_train[order])
        epoch_loss = 0.0
        for start in range(0, n_train, config.batch):
            epoch_loss += float(losses[start : start + config.batch].sum())
        epoch_loss /= n_train
        if not (math.isfinite(epoch_loss) and np.all(np.isfinite(vec))):
            raise ConvergenceError(f"training diverged at epoch {epoch} (non-finite loss or weights)")
        # Validation allocates its own storage: with the cache still held, the
        # heap grows instead of reusing it.
        del cache
        val_metrics = Metrics.from_probs(_infer(params, x_val), y_val)
        if val_metrics.accuracy > best_acc:
            best_acc = val_metrics.accuracy
            best_vec = vec.copy()
            best_epoch = epoch
        history.append(
            EpochStats(epoch=epoch, train_loss=epoch_loss, val=val_metrics,
                       best_val_accuracy=best_acc)
        )

    return TrainResult(
        params=LstmParams(best_vec, config.hidden),
        stats=stats,
        history=history,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
    )


def save_checkpoint(path, result: TrainResult, config: TrainConfig,
                    qrm_config: QrmConfig = QrmConfig()) -> None:
    """One JSON document (schema 5): config, feature stats, the train/serve record
    (``feature_names`` and the ``qrm`` config whose estimates are feature 0) and
    ``vector``, the flat parameter vector in :func:`_layout` order as base64 of its
    little-endian float64 bytes, which round-trips bit for bit."""
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
        "feature_names": FEATURE_NAMES,
        "qrm": asdict(qrm_config),
        "vector": base64.b64encode(result.params.vector.astype("<f8").tobytes()).decode("ascii"),
        "feature_stats": {
            "mean": result.stats.mean.tolist(),
            "std": result.stats.std.tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _float_list(value, name: str) -> np.ndarray:
    # Exact types, so a bool, a string, a null or a nested list is not read as a number.
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        raise TypeError(f"{name} must be a flat list of numbers")
    return np.array(value, dtype=np.float64)


def _decode_vector(text: str, expected: int) -> np.ndarray:
    """The ``vector`` field as ``expected`` float64s; its size is checked before decoding."""
    n_bytes = len(text) * 3 // 4 - (len(text) - len(text.rstrip("=")))
    if n_bytes % 8:
        raise DataError(f"parameter vector has {n_bytes} bytes, not a whole number of float64s")
    if n_bytes != 8 * expected:
        raise DataError(f"parameter vector has {n_bytes // 8} entries, expected {expected}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise DataError(f"checkpoint vector is not valid base64: {exc}") from exc
    vector = np.frombuffer(raw, "<f8").astype(np.float64)
    if not np.isfinite(vector).all():
        raise DataError("checkpoint vector holds a non-finite weight (nan or infinity)")
    return vector


def load_checkpoint(path) -> tuple[LstmParams, FeatureStats, dict]:
    """Load a schema-5 checkpoint; a forged size fails a check before anything is allocated.

    ``meta`` holds the ``seed``, ``epoch`` and ``config`` and the ``qrm`` record
    as written; features named otherwise than :data:`FEATURE_NAMES` are refused.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DataError("checkpoint must be a JSON object")
    schema = doc.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise DataError(
            f"checkpoint schema {schema} is not supported: this version reads schema "
            f"{CHECKPOINT_SCHEMA} (feature 0 from QRM on the two-day window); retrain to write a "
            f"new checkpoint"
        )
    for field in ("config", "feature_stats"):
        if not isinstance(doc.get(field, {}), dict):
            raise DataError(f"checkpoint field {field!r} must be a JSON object")
    try:
        hidden = doc["config"]["hidden"]
        stats = FeatureStats(*(_float_list(doc["feature_stats"][key], f"feature_stats {key}")
                               for key in ("mean", "std")))
        text, names, qrm = doc["vector"], doc["feature_names"], doc["qrm"]
        if type(text) is not str:
            raise TypeError("vector must be a base64 string")
    except KeyError as exc:
        raise DataError(f"checkpoint is missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise DataError(f"checkpoint has a field of the wrong type: {exc}") from exc
    if type(hidden) not in (int, float):
        raise DataError(f"checkpoint hidden has the wrong type: {hidden!r}")
    # is_integer() is False for inf and nan; an int, however large, skips it.
    if not (hidden > 0 and (type(hidden) is int or hidden.is_integer())):
        raise DataError(f"checkpoint hidden must be a positive integer, got {hidden!r}")
    if names != FEATURE_NAMES:
        raise DataError(f"checkpoint feature_names {names!r} are not the features this version "
                        f"builds, {FEATURE_NAMES}; retrain to write a new checkpoint")
    params = LstmParams(_decode_vector(text, _n_params(int(hidden))), int(hidden))
    meta = {"seed": doc.get("seed"), "epoch": doc.get("epoch"), "config": doc.get("config", {}),
            "qrm": qrm}
    return params, stats, meta
