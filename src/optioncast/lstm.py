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

The classifier owns its input scaling.  :func:`train` computes a per-feature
z-score (:class:`FeatureStats`) from its training split alone and returns it
with the parameters; :func:`predict` applies it to raw windows, so callers
never standardize anything themselves.

Training is mini-batch gradient descent (plain SGD by default, Adam behind
``optimizer="adam"``), fully deterministic for a fixed seed: initialization
and the per-epoch shuffle all come from one seeded PCG64 stream, and the
returned parameters are the ones with the best validation accuracy seen.
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    activations i, f, o, g, written over the pre-activations in place.
    ``c`` and ``h`` (T + 1, B, H) hold the zero initial state at index 0.
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray


@dataclass
class ForwardCache:
    params: LstmParams
    layer1: _LayerCache
    layer2: _LayerCache
    probs: np.ndarray


def _layer_forward(layer: Layer, x: np.ndarray) -> _LayerCache:
    n_steps, batch, _ = x.shape
    hid = layer.u.shape[1]
    # The input projection of every step at once; the loop adds U h per step.
    gates = x @ layer.w.T
    gates += layer.b
    c = np.zeros((n_steps + 1, batch, hid))
    h = np.zeros((n_steps + 1, batch, hid))
    u_t = layer.u.T
    for t in range(n_steps):
        a = gates[t]
        a += h[t] @ u_t
        a[:, : 3 * hid] = _sigmoid(a[:, : 3 * hid])
        np.tanh(a[:, 3 * hid :], out=a[:, 3 * hid :])
        i, f, o, g = a[:, :hid], a[:, hid : 2 * hid], a[:, 2 * hid : 3 * hid], a[:, 3 * hid :]
        np.add(f * c[t], i * g, out=c[t + 1])
        np.multiply(o, np.tanh(c[t + 1]), out=h[t + 1])
    return _LayerCache(x=x, gates=gates, c=c, h=h)


def forward_batch(params: LstmParams, windows: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Probabilities for a (batch, 10, features) stack of windows."""
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
    layer1 = _layer_forward(params.layer1, np.ascontiguousarray(windows.transpose(1, 0, 2)))
    layer2 = _layer_forward(params.layer2, layer1.h[1:])
    probs = _sigmoid(layer2.h[-1] @ params.dense_w + params.dense_b)
    return probs, ForwardCache(params=params, layer1=layer1, layer2=layer2, probs=probs)


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


def _layer_backward(layer: Layer, grads: Layer, lc: _LayerCache, dh_out: np.ndarray) -> np.ndarray:
    """Write one layer's gradients into ``grads`` and return the (T, B, 4H)
    pre-activation gradients; ``dh_out`` (T, B, H) is the loss gradient that
    reaches each step's h from above."""
    n_steps, batch, four = lc.gates.shape
    hid = four // 4
    # da starts as each activation's derivative for all steps at once; the
    # loop multiplies in the gradient that reaches the activation.
    da = np.empty_like(lc.gates)
    sig = lc.gates[..., : 3 * hid]
    np.multiply(sig, 1.0 - sig, out=da[..., : 3 * hid])
    np.subtract(1.0, lc.gates[..., 3 * hid :] ** 2, out=da[..., 3 * hid :])
    tanh_c = np.tanh(lc.c[1:])
    dtanh_c = 1.0 - tanh_c ** 2
    dh = np.zeros((batch, hid))
    dc = np.zeros((batch, hid))
    for t in range(n_steps - 1, -1, -1):
        s = lc.gates[t]
        i, f, o, g = s[:, :hid], s[:, hid : 2 * hid], s[:, 2 * hid : 3 * hid], s[:, 3 * hid :]
        dh = dh + dh_out[t]
        dc = dc + dh * o * dtanh_c[t]
        d = da[t]
        d[:, :hid] *= dc * g
        d[:, hid : 2 * hid] *= dc * lc.c[t]
        d[:, 2 * hid : 3 * hid] *= dh * tanh_c[t]
        d[:, 3 * hid :] *= dc * i
        dc = dc * f
        dh = d @ layer.u
    flat = da.reshape(-1, four)
    grads.w[...] = flat.T @ lc.x.reshape(-1, lc.x.shape[2])
    grads.u[...] = flat.T @ lc.h[:-1].reshape(-1, hid)
    grads.b[...] = flat.sum(axis=0)
    return da


def backward_batch(cache: ForwardCache, labels: np.ndarray) -> LstmParams:
    """Gradient of the summed cross-entropy over the batch.

    Summed (not averaged), so duplicating a sample doubles its contribution;
    the trainer divides by the batch size.  The dense pre-activation gradient
    is probs - labels, exact wherever the clamp is inactive.
    """
    labels = np.asarray(labels, dtype=np.float64)
    params = cache.params
    batch = cache.probs.shape[0]
    if labels.shape != (batch,):
        raise DataError(f"labels shape {labels.shape} does not match batch {batch}")
    grads = LstmParams.zeros(params.hidden, params.input_size)

    dz = cache.probs - labels
    grads.dense_w[:] = dz @ cache.layer2.h[-1]
    grads.dense_b[0] = dz.sum()

    dh2 = np.zeros_like(cache.layer2.h[1:])
    dh2[-1] = dz[:, None] * params.dense_w[None, :]
    da2 = _layer_backward(params.layer2, grads.layer2, cache.layer2, dh2)
    _layer_backward(params.layer1, grads.layer1, cache.layer1, da2 @ params.layer2.w)
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


def _zscore(windows: np.ndarray, stats: FeatureStats) -> np.ndarray:
    return (windows - stats.mean) / stats.std


def predict(
    params: LstmParams, stats: FeatureStats, samples: Sequence[SequenceSample]
) -> np.ndarray:
    """P(up) for each raw sample, z-scored with ``stats``; no samples give an empty array."""
    if not samples:
        return np.empty(0)
    probs, _ = forward_batch(params, _zscore(np.stack([s.window for s in samples]), stats))
    return probs


def evaluate(
    params: LstmParams, stats: FeatureStats, samples: Sequence[SequenceSample]
) -> Metrics:
    """Threshold :func:`predict` at 0.5 and count the confusion."""
    if not samples:
        raise DataError("cannot evaluate on zero samples")
    preds = predict(params, stats, samples) >= 0.5
    actual = np.array([s.label for s in samples]) == 1
    return Metrics.from_counts(
        tp=int(np.sum(preds & actual)),
        fp=int(np.sum(preds & ~actual)),
        tn=int(np.sum(~preds & ~actual)),
        fn=int(np.sum(~preds & actual)),
    )


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

    val_samples = samples[n_train:]
    x_train = np.stack([s.window for s in samples[:n_train]])
    y_train = np.array([s.label for s in samples[:n_train]], dtype=np.float64)
    days = x_train.reshape(-1, N_FEATURES)
    std = days.std(axis=0)
    stats = FeatureStats(mean=days.mean(axis=0), std=np.where(std < 1e-12, 1.0, std))
    x_train = _zscore(x_train, stats)

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

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, config.batch):
            idx = order[start : start + config.batch]
            probs, cache = forward_batch(params, x_train[idx])
            epoch_loss += float(_loss_vector(probs, y_train[idx]).sum())
            gvec = backward_batch(cache, y_train[idx]).vector / len(idx)
            if use_adam:
                adam_t += 1
                adam_m = adam_b1 * adam_m + (1 - adam_b1) * gvec
                adam_v = adam_b2 * adam_v + (1 - adam_b2) * gvec ** 2
                m_hat = adam_m / (1 - adam_b1 ** adam_t)
                v_hat = adam_v / (1 - adam_b2 ** adam_t)
                vec -= config.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
            else:
                vec -= config.learning_rate * gvec
        epoch_loss /= n_train
        if not (math.isfinite(epoch_loss) and np.all(np.isfinite(vec))):
            raise ConvergenceError(f"training diverged at epoch {epoch} (non-finite loss or weights)")
        val_metrics = evaluate(params, stats, val_samples)
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
