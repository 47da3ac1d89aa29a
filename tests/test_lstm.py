import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import layer_views, make_series, separable_dataset
from optioncast import lstm
from optioncast.errors import ConvergenceError, DataError
from optioncast.market_data import N_FEATURES, WINDOW_LENGTH, SequenceSample, build_sequences


def random_params(hidden=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return lstm.init_params(hidden, rng), rng


def random_stats(rng):
    return lstm.FeatureStats(mean=rng.standard_normal(N_FEATURES),
                             std=rng.uniform(0.5, 2.0, N_FEATURES))


# Mean 0 and std 1 z-score exactly, so predict sees the windows as given.
IDENTITY = lstm.FeatureStats(mean=np.zeros(N_FEATURES), std=np.ones(N_FEATURES))


def as_samples(windows):
    return [SequenceSample(window=w, label=0, end_index=k) for k, w in enumerate(windows)]


GATE_ORDER = "ifog"


def per_gate(layer, hidden):
    """The (w, u, b) rows of each gate of a stacked layer, keyed by gate name."""
    return {
        gate: tuple(a[k * hidden : (k + 1) * hidden] for a in (layer.w, layer.u, layer.b))
        for k, gate in enumerate(GATE_ORDER)
    }


def textbook_probs_and_grads(params, windows, labels):
    """Per-gate LSTM forward pass and BPTT, one gate and one step at a time.

    The reference for the fused implementation: it only reads the W/U/b
    row blocks of each gate and shares no code with the module.
    """
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hid = params.hidden
    batch, n_steps, _ = windows.shape
    gates = [per_gate(params.layer1, hid), per_gate(params.layer2, hid)]
    steps = [[], []]
    inputs = [windows[:, t, :] for t in range(n_steps)]
    for k, blocks in enumerate(gates):
        h = np.zeros((batch, hid))
        c = np.zeros((batch, hid))
        outputs = []
        for x in inputs:
            act = {}
            for gate, (w, u, b) in blocks.items():
                z = x @ w.T + h @ u.T + b
                act[gate] = np.tanh(z) if gate == "g" else sigmoid(z)
            h_prev, c_prev = h, c
            c = act["f"] * c_prev + act["i"] * act["g"]
            h = act["o"] * np.tanh(c)
            steps[k].append((x, h_prev, c_prev, act, c))
            outputs.append(h)
        inputs = outputs
    probs = sigmoid(h @ params.dense_w + params.dense_b[0])

    grads = {name: np.zeros_like(a) for name, a in params.arrays.items()}
    dz = probs - labels
    grads["dense_w"] = dz @ h
    grads["dense_b"] = np.array([dz.sum()])
    dh_above = [np.zeros((batch, hid)) for _ in range(n_steps)]
    dh_above[-1] = dz[:, None] * params.dense_w
    for k in (1, 0):
        prefix = f"layer{k + 1}"
        dh = np.zeros((batch, hid))
        dc = np.zeros((batch, hid))
        dx_steps = [None] * n_steps
        for t in reversed(range(n_steps)):
            x, h_prev, c_prev, act, c = steps[k][t]
            dh = dh + dh_above[t]
            tanh_c = np.tanh(c)
            dc = dc + dh * act["o"] * (1.0 - tanh_c ** 2)
            da = {
                "i": dc * act["g"] * act["i"] * (1.0 - act["i"]),
                "f": dc * c_prev * act["f"] * (1.0 - act["f"]),
                "o": dh * tanh_c * act["o"] * (1.0 - act["o"]),
                "g": dc * act["i"] * (1.0 - act["g"] ** 2),
            }
            dx = np.zeros_like(x)
            dh = np.zeros((batch, hid))
            for j, gate in enumerate(GATE_ORDER):
                rows = slice(j * hid, (j + 1) * hid)
                w, u, _ = gates[k][gate]
                grads[f"{prefix}.w"][rows] += da[gate].T @ x
                grads[f"{prefix}.u"][rows] += da[gate].T @ h_prev
                grads[f"{prefix}.b"][rows] += da[gate].sum(axis=0)
                dx += da[gate] @ w
                dh += da[gate] @ u
            dc = dc * act["f"]
            dx_steps[t] = dx
        dh_above = dx_steps
    return probs, grads


def masked_sigmoid(x):
    """The two-branch stable logistic, evaluated separately on each sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestForward:
    def test_all_zero_params_give_exactly_half(self):
        params, rng = random_params()
        zeros = lstm.vector_to_params(
            np.zeros_like(lstm.params_to_vector(params)), params.hidden
        )
        prob, _ = lstm.forward(zeros, rng.standard_normal((WINDOW_LENGTH, N_FEATURES)))
        assert prob == 0.5

    def test_sigmoid_is_the_masked_form_bit_for_bit(self):
        rng = np.random.Generator(np.random.PCG64(4))
        x = np.concatenate([
            rng.standard_normal(1000) * 40.0,
            [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -745.0, 1000.0, -1000.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lstm._sigmoid(x)
        assert np.array_equal(got, masked_sigmoid(x))
        assert got[1000] == 0.5 and got[1001] == 0.5
        assert got[-2] == 1.0 and got[-1] == 0.0

    def test_sigmoid_gates_match_the_masked_form_of_textbook_preactivations(self):
        """The forward computes sig(x) as 1/2 + tanh(x / 2) / 2.

        On its own that identity is within 2^-52 of the masked form.  Here
        the pre-activations are recomputed gate by gate, so they also differ
        from the fused product by rounding.  Below x ~ -38 the gate is
        exactly 0 while the masked form still returns e^x (< 3.2e-17); the
        scaled inputs reach that range.
        """
        params, rng = random_params(hidden=8, seed=14)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        windows = rng.standard_normal((32, WINDOW_LENGTH, N_FEATURES))
        windows *= np.geomspace(0.1, 40.0, 32)[:, None, None]
        cache = lstm.ForwardCache(params, len(windows))
        lstm._forward(cache, windows)
        lowest = np.inf
        for layer_params, layer in (
            (params.layer1, layer_views(cache, 1)), (params.layer2, layer_views(cache, 2))
        ):
            blocks = per_gate(layer_params, params.hidden)
            for k, gate in enumerate("ifo"):
                w, u, b = blocks[gate]
                pre = layer.x @ w.T + layer.h[:-1] @ u.T + b
                lowest = min(lowest, pre.min())
                got = layer.gates[..., k, :]
                np.testing.assert_allclose(
                    got, masked_sigmoid(pre), rtol=0, atol=1e-15, err_msg=gate
                )
        assert lowest < -38.0

    def test_output_strictly_inside_unit_interval(self):
        params, rng = random_params(hidden=8, seed=1)
        windows = rng.standard_normal((64, WINDOW_LENGTH, N_FEATURES))
        probs = lstm.predict(params, IDENTITY, as_samples(windows))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_batch_permutation_permutes_outputs_identically(self):
        params, rng = random_params(hidden=8, seed=2)
        windows = rng.standard_normal((6, WINDOW_LENGTH, N_FEATURES))
        perm = np.array([3, 1, 4, 0, 5, 2])
        base = lstm.predict(params, IDENTITY, as_samples(windows))
        permuted = lstm.predict(params, IDENTITY, as_samples(windows[perm]))
        assert np.array_equal(base[perm], permuted)

    def test_shape_mismatch_rejected(self):
        params, rng = random_params()
        with pytest.raises(DataError):
            lstm.forward(params, rng.standard_normal((WINDOW_LENGTH, N_FEATURES - 1)))
        with pytest.raises(DataError):
            lstm.forward(params, rng.standard_normal((WINDOW_LENGTH - 1, N_FEATURES)))
        with pytest.raises(DataError):
            lstm.forward(params, rng.standard_normal(N_FEATURES))

    def test_last_iteration_leaves_layer_one_empty(self):
        # Iteration T has no layer-1 step: its slot is never computed and
        # keeps its zeros, so the final stored state is [0 | h2_T].
        params, rng = random_params(hidden=6, seed=4)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        windows = rng.standard_normal((5, WINDOW_LENGTH, N_FEATURES))
        cache = lstm.ForwardCache(params, 5)
        lstm._forward(cache, windows)
        one, two = layer_views(cache, 1), layer_views(cache, 2)
        assert np.all(one.h_final == 0.0) and np.all(one.c_final == 0.0)
        assert np.array_equal(two.h_final, two.h[-1])
        assert np.all(two.h_final != 0.0)

    def test_activations_bounded_over_many_random_passes(self):
        # One vectorized pass over 10^4 windows doubles as 10^4 forward passes.
        params, rng = random_params(hidden=8, seed=3)
        windows = rng.standard_normal((10_000, WINDOW_LENGTH, N_FEATURES))
        cache = lstm.ForwardCache(params, len(windows))
        probs = lstm._forward(cache, windows)
        for layer in (layer_views(cache, 1), layer_views(cache, 2)):
            for t in range(layer.gates.shape[0]):
                for k in range(3):  # the sigmoid gates i, f, o
                    gate = layer.gates[t][:, k]
                    assert np.all(gate > 0.0) and np.all(gate < 1.0)
                assert np.all(np.isfinite(layer.c[t + 1]))
                assert np.all(np.abs(layer.h[t + 1]) < 1.0)
        assert np.all(np.isfinite(probs))


class TestLayout:
    def test_every_array_is_a_view_of_the_flat_vector(self, tmp_path):
        params, _ = random_params(hidden=6, seed=51)
        from_vector = lstm.vector_to_params(lstm.params_to_vector(params), 6)
        samples = separable_dataset(n=40, seed=52)
        config = lstm.TrainConfig(hidden=3, batch=8, epochs=1, learning_rate=0.1, seed=1)
        result = lstm.train(samples, config)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, result, config)
        loaded, _, _ = lstm.load_checkpoint(path)
        for p in (params, from_vector, result.params, loaded):
            views = list(p.arrays.values()) + [p.dense_w, p.dense_b]
            views += [a for layer in (p.layer1, p.layer2) for a in (layer.w, layer.u, layer.b)]
            assert all(np.shares_memory(a, p.vector) for a in views)
            assert sum(a.size for a in p.arrays.values()) == p.vector.size
        assert not np.shares_memory(from_vector.vector, params.vector)

    def test_writes_through_the_vector_reach_the_layers(self):
        params, _ = random_params(hidden=4, seed=53)
        params.vector[:] = np.arange(params.vector.size)
        assert params.layer1.w[0, 0] == 0.0
        assert params.layer1.w[1, 0] == N_FEATURES
        assert params.dense_b[0] == params.vector.size - 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242])
    def test_init_equals_per_gate_draws_stacked(self, seed):
        hidden, n_in = 5, N_FEATURES
        params = lstm.init_params(hidden, np.random.Generator(np.random.PCG64(seed)))
        rng = np.random.Generator(np.random.PCG64(seed))
        for layer, in_dim in ((params.layer1, n_in), (params.layer2, hidden)):
            w, u, b = [], [], []
            for gate in GATE_ORDER:
                w.append(rng.uniform(-1 / math.sqrt(in_dim), 1 / math.sqrt(in_dim), (hidden, in_dim)))
                u.append(rng.uniform(-1 / math.sqrt(hidden), 1 / math.sqrt(hidden), (hidden, hidden)))
                b.append(np.full(hidden, 1.0 if gate == "f" else 0.0))
            assert np.array_equal(layer.w, np.concatenate(w))
            assert np.array_equal(layer.u, np.concatenate(u))
            assert np.array_equal(layer.b, np.concatenate(b))
        dense = rng.uniform(-1 / math.sqrt(hidden), 1 / math.sqrt(hidden), hidden)
        assert np.array_equal(params.dense_w, dense)
        assert params.dense_b[0] == 0.0

    def test_wrong_vector_length_rejected(self):
        params, _ = random_params(hidden=4)
        size = 16 * (N_FEATURES + 4 + 1) + 16 * (4 + 4 + 1) + 4 + 1
        with pytest.raises(DataError, match=f"has {size - 1} entries, expected {size}"):
            lstm.vector_to_params(lstm.params_to_vector(params)[:-1], 4)


class TestLoss:
    def test_half_probability_is_log_two(self):
        assert lstm.loss(0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_perfect_prediction_is_zero(self):
        assert lstm.loss(1.0 - lstm.PROB_CLAMP, 1.0) == pytest.approx(0.0, abs=1e-11)
        assert lstm.loss(lstm.PROB_CLAMP, 0.0) == pytest.approx(0.0, abs=1e-11)

    def test_confident_wrong_answer(self):
        assert lstm.loss(0.9, 0.0) == pytest.approx(-math.log(0.1), abs=1e-12)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        params, rng = random_params(hidden=4, seed=11)
        window = rng.standard_normal((WINDOW_LENGTH, N_FEATURES))
        label = 1.0
        _, cache = lstm.forward(params, window)
        analytic = lstm.params_to_vector(lstm.backward(cache, label))
        vec = lstm.params_to_vector(params)
        eps = 1e-5
        for i in range(len(vec)):
            bumped = vec.copy()
            bumped[i] += eps
            up, _ = lstm.forward(lstm.vector_to_params(bumped, 4), window)
            bumped[i] -= 2 * eps
            down, _ = lstm.forward(lstm.vector_to_params(bumped, 4), window)
            fd = (lstm.loss(up, label) - lstm.loss(down, label)) / (2 * eps)
            rel = abs(analytic[i] - fd) / max(1e-8, abs(analytic[i]) + abs(fd))
            assert rel <= 1e-4, f"parameter {i}: analytic {analytic[i]}, fd {fd}"

    # Batch 1 runs both one-sided edge iterations of the wavefront alone; the
    # last two shapes are the CLI default and the lstm_separable benchmark's.
    # In these three, a few gradient entries cancel to 1e-4 to 1e-6 of their
    # array's largest, and the two sides sum their T * B products in different
    # orders, so they keep only an absolute accuracy of about eps times that
    # largest entry: these cases allow an atol of 1e-13 times it, the first
    # three none.
    @pytest.mark.parametrize("seed, batch, hidden, atol_frac", [
        pytest.param(41, 7, 5, 0.0, id="41"),
        pytest.param(42, 7, 5, 0.0, id="42"),
        pytest.param(43, 7, 5, 0.0, id="43"),
        pytest.param(44, 1, 3, 1e-13, id="batch1-hidden3"),
        pytest.param(45, 8, 32, 1e-13, id="batch8-hidden32"),
        pytest.param(46, 64, 16, 1e-13, id="batch64-hidden16"),
    ])
    def test_fused_pass_matches_textbook_per_gate_lstm(self, seed, batch, hidden, atol_frac):
        params, rng = random_params(hidden=hidden, seed=seed)
        # Random biases: with the init's zero g bias, a layer-2 step run
        # before layer 2 starts would still leave a zero state.
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        windows = rng.standard_normal((batch, WINDOW_LENGTH, N_FEATURES))
        labels = (rng.random(batch) > 0.5).astype(float)
        cache = lstm.ForwardCache(params, batch)
        probs = lstm._forward(cache, windows)
        grads = lstm._backward(cache, labels, lstm.LstmParams.zeros(hidden))
        ref_probs, ref_grads = textbook_probs_and_grads(params, windows, labels)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads.arrays[name], ref, rtol=1e-12, atol=atol_frac * np.abs(ref).max(),
                err_msg=name,
            )

    def test_stationary_point_has_zero_gradient(self):
        params, rng = random_params(hidden=4, seed=12)
        prob, cache = lstm.forward(params, rng.standard_normal((WINDOW_LENGTH, N_FEATURES)))
        grads = lstm.params_to_vector(lstm.backward(cache, prob))
        assert np.all(grads == 0.0)

    def test_batch_gradient_is_the_sum_of_single_window_gradients(self):
        # Pins train's batch path to the single-window forward and backward
        # that gate test_05 audits.  The gradient is summed, not averaged, so
        # window 4, a copy of window 1 with its label, counts twice.
        params, rng = random_params(hidden=5, seed=13)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        windows = rng.standard_normal((6, WINDOW_LENGTH, N_FEATURES))
        windows[4] = windows[1]
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        cache = lstm.ForwardCache(params, 6)
        lstm._forward(cache, windows)
        batch = lstm._backward(cache, labels, lstm.LstmParams.zeros(5))
        singles = [lstm.backward(lstm.forward(params, w)[1], y) for w, y in zip(windows, labels)]
        # The two sides sum in different orders, and entries that cancel keep
        # only an absolute accuracy, so the bound is relative to each array's
        # largest entry (over 200 seeds the worst ratio is 1.9e-14).
        for name, got in batch.arrays.items():
            ref = np.sum([s.arrays[name] for s in singles], axis=0)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_label_batch_mismatch_rejected(self):
        # The single-window backward takes one label, so a batch cache fails.
        params, rng = random_params()
        windows = rng.standard_normal((3, WINDOW_LENGTH, N_FEATURES))
        cache = lstm.ForwardCache(params, 3)
        lstm._forward(cache, windows)
        with pytest.raises(DataError, match="batch of 3"):
            lstm.backward(cache, 1.0)


def reference_train(samples, config):
    """Per-epoch losses and weights of ``config``, from the public forward and
    backward and the textbook SGD and Adam updates, along with the stats."""
    n_train = round(config.train_frac * len(samples))
    x = np.stack([s.window for s in samples[:n_train]])
    y = np.array([s.label for s in samples[:n_train]], dtype=float)
    days = x.reshape(-1, N_FEATURES)
    std = days.std(axis=0)
    stats = lstm.FeatureStats(mean=days.mean(axis=0), std=np.where(std < 1e-12, 1.0, std))
    x = (x - stats.mean) / stats.std
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = lstm.init_params(config.hidden, rng)
    vec = params.vector
    m, v, t = np.zeros_like(vec), np.zeros_like(vec), 0
    losses, weights = [], []
    for _ in range(config.epochs):
        order = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, config.batch):
            idx = order[start : start + config.batch]
            grad = np.zeros_like(vec)
            for k in idx:
                prob, cache = lstm.forward(params, x[k])
                total += lstm.loss(prob, y[k])
                grad += lstm.backward(cache, y[k]).vector
            grad /= len(idx)
            if config.optimizer == "adam":
                t += 1
                m = 0.9 * m + 0.1 * grad
                v = 0.999 * v + (1 - 0.999) * grad ** 2
                m_hat, v_hat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
                vec -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                vec -= config.learning_rate * grad
        losses.append(total / n_train)
        weights.append(vec.copy())
    return losses, weights, stats


def arrays_in(value):
    """Every array in ``value``, searching dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in arrays_in(item)]
    return []


class TestTrainPath:
    """``train`` runs every minibatch on one reused ``ForwardCache``."""

    def test_reused_workspace_matches_fresh_calls(self):
        params, rng = random_params(hidden=6, seed=61)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        cache = lstm.ForwardCache(params, 8)
        grads = lstm.LstmParams.zeros(6)
        # Full, partial, then full again, with weights an update step has
        # moved: a pass of the size before starts on the storage that pass
        # left dirty, and a pass of another size on storage of its own size.
        for batch in (8, 8, 5, 5, 8, 1):
            windows = rng.standard_normal((batch, WINDOW_LENGTH, N_FEATURES))
            labels = (rng.random(batch) > 0.5).astype(float)
            probs = lstm._forward(cache, windows)
            lstm._backward(cache, labels, grads)
            fresh_cache = lstm.ForwardCache(params, batch)
            fresh_probs = lstm._forward(fresh_cache, windows)
            fresh = lstm._backward(fresh_cache, labels, lstm.LstmParams.zeros(6))
            assert np.array_equal(probs, fresh_probs)
            assert np.array_equal(grads.vector, fresh.vector)
            params.vector -= 0.5 * grads.vector

    def test_step_peak_allocation_is_bounded_by_the_gate_storage(self):
        # A training step on a prepared cache allocates o tanh'(c), the
        # buffers its weight products read and a few small arrays: 0.72 times
        # the gate storage at batch 64, hidden 16, and 1.77 while the gate
        # gradients (as large as the gate storage) were allocated per step.
        # The batch-major layout before peaked at 1.85 times, and transposed
        # copies of both products' operands at 2.95.
        params, rng = random_params(hidden=16, seed=63)
        windows = rng.standard_normal((64, WINDOW_LENGTH, N_FEATURES))
        labels = (rng.random(64) > 0.5).astype(float)
        cache, grads = lstm.ForwardCache(params, 64), lstm.LstmParams.zeros(16)
        lstm._forward(cache, windows)
        lstm._backward(cache, labels, grads)
        tracemalloc.start()
        try:
            lstm._forward(cache, windows)
            lstm._backward(cache, labels, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * cache.gates.nbytes

    def test_workspace_and_two_steps_peak_is_bounded_by_the_gate_storage(self):
        # The cache holds the wavefront storage and the gate gradients, each
        # step adds o tanh'(c) and the weight-gradient buffers: 3.88 times the
        # gate storage at batch 64, hidden 16.  With the gate gradients
        # allocated per step it was 3.81; keeping o tanh'(c) in the cache too
        # would read 4.13.
        params, rng = random_params(hidden=16, seed=63)
        windows = rng.standard_normal((64, WINDOW_LENGTH, N_FEATURES))
        labels = (rng.random(64) > 0.5).astype(float)
        grads = lstm.LstmParams.zeros(16)
        tracemalloc.start()
        try:
            cache = lstm.ForwardCache(params, 64)
            for _ in range(2):
                lstm._forward(cache, windows)
                lstm._backward(cache, labels, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.9 * cache.gates.nbytes

    def test_views_never_outlive_their_storage(self):
        params, rng = random_params(hidden=6, seed=64)
        cache = lstm.ForwardCache(params, 8)
        storages = []
        for batch in (8, 5, 8):
            windows = rng.standard_normal((batch, WINDOW_LENGTH, N_FEATURES))
            labels = (rng.random(batch) > 0.5).astype(float)
            probs = lstm._forward(cache, windows)
            grads = lstm._backward(cache, labels, lstm.LstmParams.zeros(6))
            current = [cache.z, cache.c, cache.tanh_c, cache.gates, cache.scratch, cache.da,
                       cache.dh, cache.dc]
            replaced = [a for storage in storages for a in storage
                        if not any(a is b for b in current)]
            storages.append(current)
            owners = current + [cache.probs, cache.block, cache.halved, params.vector]
            for view in arrays_in(vars(cache)):
                assert any(np.shares_memory(view, owner) for owner in owners)
                assert not any(np.shares_memory(view, old) for old in replaced)
            fresh_cache = lstm.ForwardCache(params, batch)
            fresh_probs = lstm._forward(fresh_cache, windows)
            fresh = lstm._backward(fresh_cache, labels, lstm.LstmParams.zeros(6))
            assert np.array_equal(probs, fresh_probs)
            assert np.array_equal(grads.vector, fresh.vector)
            params.vector -= 0.5 * grads.vector
        assert len(replaced) == 16  # the storages made for the first two passes

    def test_train_loss_is_the_in_order_sum_of_minibatch_losses(self, monkeypatch):
        samples = separable_dataset(n=70, seed=62)
        config = lstm.TrainConfig(hidden=5, batch=12, epochs=3, learning_rate=0.2, seed=12)
        n_train = round(config.train_frac * len(samples))
        assert n_train % config.batch != 0
        seen, backward = [], lstm._backward

        def recording(cache, labels, grads):
            seen.append((cache.probs.copy(), labels.copy()))
            return backward(cache, labels, grads)

        monkeypatch.setattr(lstm, "_backward", recording)
        history = lstm.train(samples, config).history
        per_epoch = math.ceil(n_train / config.batch)
        assert len(seen) == config.epochs * per_epoch
        rounds_otherwise = 0
        for k, epoch in enumerate(history):
            minibatches, total = seen[k * per_epoch : (k + 1) * per_epoch], 0.0
            for probs, labels in minibatches:
                total += float(lstm._loss_vector(probs, labels).sum())
            assert epoch.train_loss == total / n_train
            probs, labels = (np.concatenate(arrays) for arrays in zip(*minibatches))
            rounds_otherwise += float(lstm._loss_vector(probs, labels).sum()) != total
        assert rounds_otherwise  # so one sum over the whole epoch would fail this test

    @pytest.mark.parametrize("optimizer, learning_rate", [("sgd", 0.2), ("adam", 0.01)])
    def test_train_matches_a_reference_loop_over_public_calls(self, optimizer, learning_rate):
        samples = separable_dataset(n=70, seed=62)
        config = lstm.TrainConfig(hidden=5, batch=12, epochs=2, learning_rate=learning_rate,
                                  seed=11, optimizer=optimizer)
        assert round(config.train_frac * len(samples)) % config.batch != 0
        result = lstm.train(samples, config)
        losses, weights, stats = reference_train(samples, config)
        assert np.array_equal(result.stats.mean, stats.mean)
        assert np.array_equal(result.stats.std, stats.std)
        np.testing.assert_allclose([h.train_loss for h in result.history], losses, rtol=1e-12)
        n_train = round(config.train_frac * len(samples))
        actual = np.array([s.label for s in samples[n_train:]]) == 1
        for h, w in zip(result.history, weights):
            up = lstm.predict(lstm.vector_to_params(w, 5), stats, samples[n_train:]) >= 0.5
            assert h.val == lstm.Metrics.from_counts(
                tp=int(np.sum(up & actual)), fp=int(np.sum(up & ~actual)),
                tn=int(np.sum(~up & ~actual)), fn=int(np.sum(~up & actual)),
            )
        best = weights[result.best_epoch - 1]
        np.testing.assert_allclose(result.params.vector, best, rtol=1e-12)


class TestMetrics:
    def test_balanced_confusion(self):
        m = lstm.Metrics.from_counts(tp=1, fp=1, tn=1, fn=1)
        assert m.accuracy == 0.5 and m.precision == 0.5 and m.recall == 0.5

    def test_all_positive_predictor_on_all_positive_data(self):
        m = lstm.Metrics.from_counts(tp=7, fp=0, tn=0, fn=0)
        assert m.precision == m.recall == m.accuracy == 1.0

    def test_never_positive_predictor_flags_precision(self):
        m = lstm.Metrics.from_counts(tp=0, fp=0, tn=3, fn=2)
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and m.recall_defined

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_identities_hold_for_any_counts(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = lstm.Metrics.from_counts(tp, fp, tn, fn)
        assert m.accuracy == (tp + tn) / (tp + fp + tn + fn)
        if tp + fp > 0:
            assert m.precision == tp / (tp + fp)
        if tp + fn > 0:
            assert m.recall == tp / (tp + fn)


class TestPredict:
    def test_matches_the_training_forward_on_hand_zscored_windows(self):
        samples = separable_dataset(n=64, seed=5)
        params, rng = random_params(hidden=4, seed=6)
        stats = random_stats(rng)
        windows = np.stack([(s.window - stats.mean) / stats.std for s in samples])
        expected = lstm._forward(lstm.ForwardCache(params, len(windows)), windows)
        assert np.array_equal(lstm.predict(params, stats, samples), expected)

    def test_no_samples_give_an_empty_array(self):
        params, rng = random_params()
        assert lstm.predict(params, random_stats(rng), []).shape == (0,)

    def test_peak_allocation_is_at_most_half_of_a_cached_forward(self):
        # 7.38 MB is the tracemalloc peak of a forward pass that keeps the
        # backward cache for these 400 windows at hidden 16.
        samples = separable_dataset(n=400, seed=7)
        params, rng = random_params(hidden=16, seed=8)
        stats = random_stats(rng)
        lstm.predict(params, stats, samples)
        tracemalloc.start()
        try:
            lstm.predict(params, stats, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.38e6 / 2


class TestStandardization:
    # 15 rising days give 5 windows; the default train_frac keeps 4 for training.
    CONFIG = lstm.TrainConfig(hidden=2, batch=4, epochs=1, seed=0)
    N_TRAIN = 4

    def test_zscore_uses_given_stats(self):
        records = make_series([5.0 + 0.11 * k for k in range(15)])
        samples = build_sequences(records, list(np.linspace(4.0, 5.0, 15)))
        stats = lstm.train(samples, self.CONFIG).stats
        stacked = np.concatenate([s.window for s in samples[: self.N_TRAIN]], axis=0)
        standardized = (stacked - stats.mean) / stats.std
        varying = stacked.std(axis=0) > 1e-9
        assert np.allclose(standardized.mean(axis=0)[varying], 0.0, atol=1e-9)
        assert np.allclose(standardized.std(axis=0)[varying], 1.0, atol=1e-9)

    def test_constant_features_stay_finite(self):
        records = make_series([5.0 + 0.11 * k for k in range(15)])
        samples = build_sequences(records, [4.0] * 15)
        result = lstm.train(samples, self.CONFIG)
        stacked = np.concatenate([s.window for s in samples[: self.N_TRAIN]], axis=0)
        constant = stacked.std(axis=0) == 0.0
        assert constant[0] and np.all(result.stats.std[constant] == 1.0)
        assert np.all(np.isfinite((stacked - result.stats.mean) / result.stats.std))
        assert np.all(np.isfinite(lstm.predict(result.params, result.stats, samples)))


class TestTrain:
    def test_separable_dataset_reaches_high_validation_accuracy(self):
        samples = separable_dataset(n=600, seed=21)
        config = lstm.TrainConfig(
            hidden=16, batch=32, epochs=8, learning_rate=0.2, seed=7
        )
        result = lstm.train(samples, config)
        assert result.best_val_accuracy >= 0.9

    def test_same_seed_identical_epoch_losses(self):
        samples = separable_dataset(n=200, seed=22)
        config = lstm.TrainConfig(hidden=8, batch=16, epochs=4, learning_rate=0.1, seed=3)
        a = lstm.train(samples, config)
        b = lstm.train(samples, config)
        assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
        assert np.array_equal(
            lstm.params_to_vector(a.params), lstm.params_to_vector(b.params)
        )

    def test_stats_come_from_the_training_split_alone(self):
        samples = separable_dataset(n=100, seed=26)
        config = lstm.TrainConfig(hidden=4, batch=16, epochs=1, learning_rate=0.1, seed=4)
        n_train = round(config.train_frac * len(samples))
        rng = np.random.Generator(np.random.PCG64(27))
        shape = (WINDOW_LENGTH, N_FEATURES)
        altered = samples[:n_train] + [
            SequenceSample(window=100.0 + 10.0 * rng.standard_normal(shape),
                           label=1 - s.label, end_index=s.end_index)
            for s in samples[n_train:]
        ]
        a = lstm.train(samples, config)
        b = lstm.train(altered, config)
        assert np.array_equal(a.stats.mean, b.stats.mean)
        assert np.array_equal(a.stats.std, b.stats.std)
        assert a.history[0].train_loss == b.history[0].train_loss
        assert a.history[0].val != b.history[0].val

    def test_best_accuracy_is_monotone_nondecreasing(self):
        samples = separable_dataset(n=400, seed=23)
        config = lstm.TrainConfig(hidden=8, batch=32, epochs=6, learning_rate=0.2, seed=5)
        result = lstm.train(samples, config)
        best = [h.best_val_accuracy for h in result.history]
        assert all(a <= b for a, b in zip(best, best[1:]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        # The saturating gates make true NaN divergence hard to reach; this
        # learning rate walks the dense weights past the float64 range.
        rng = np.random.Generator(np.random.PCG64(5))
        windows = rng.standard_normal((40, WINDOW_LENGTH, N_FEATURES))
        labels = (rng.standard_normal(40) > 0).astype(int)
        samples = [
            SequenceSample(window=windows[k], label=int(labels[k]), end_index=k)
            for k in range(40)
        ]
        config = lstm.TrainConfig(
            hidden=4, batch=2, epochs=40, learning_rate=1e308, seed=1
        )
        with pytest.raises(ConvergenceError, match="epoch"):
            lstm.train(samples, config)

    def test_empty_and_oversized_batch_rejected(self):
        with pytest.raises(DataError):
            lstm.train([], lstm.TrainConfig())
        samples = separable_dataset(n=20, seed=24)
        with pytest.raises(DataError, match="batch"):
            lstm.train(samples, lstm.TrainConfig(batch=64, epochs=1))

    def test_adam_optimizer_runs(self):
        samples = separable_dataset(n=200, seed=25)
        config = lstm.TrainConfig(
            hidden=8, batch=32, epochs=4, learning_rate=0.01, seed=2, optimizer="adam"
        )
        result = lstm.train(samples, config)
        assert result.best_val_accuracy > 0.5

    def test_config_validation(self):
        with pytest.raises(DataError):
            lstm.TrainConfig(hidden=0)
        for frac in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(DataError, match="train_frac"):
                lstm.TrainConfig(train_frac=frac)
        with pytest.raises(DataError):
            lstm.TrainConfig(optimizer="rmsprop")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        samples = separable_dataset(n=120, seed=31)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=2, learning_rate=0.1, seed=9)
        result = lstm.train(samples, config)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, result, config)
        params, stats, meta = lstm.load_checkpoint(path)
        assert np.array_equal(
            lstm.params_to_vector(params), lstm.params_to_vector(result.params)
        )
        assert np.array_equal(stats.mean, result.stats.mean)
        assert meta["seed"] == 9 and meta["epoch"] == result.best_epoch
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert doc["config"]["split"] == [0.8, 1.0 - 0.8]
        assert doc["shapes"] == {
            "layer1.w": [24, N_FEATURES], "layer1.u": [24, 6], "layer1.b": [24],
            "layer2.w": [24, 6], "layer2.u": [24, 6], "layer2.b": [24],
            "dense_w": [6], "dense_b": [1],
        }

    def test_schema_1_is_rejected_with_a_retrain_hint(self, tmp_path):
        samples = separable_dataset(n=120, seed=33)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=1, learning_rate=0.1, seed=9)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, lstm.train(samples, config), config)
        doc = json.loads(path.read_text())
        doc["schema"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="schema 1 .*retrain"):
            lstm.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("std", 0.0), ("std", -1.0), ("std", float("nan")), ("std", float("inf")),
        ("mean", float("nan")), ("mean", float("-inf")),
    ])
    def test_unusable_feature_stats_are_rejected(self, tmp_path, field, value):
        samples = separable_dataset(n=120, seed=34)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=1, learning_rate=0.1, seed=9)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, lstm.train(samples, config), config)
        doc = json.loads(path.read_text())
        doc["feature_stats"][field][3] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"feature stats {field}"):
            lstm.load_checkpoint(path)
        good = {"mean": np.zeros(N_FEATURES), "std": np.ones(N_FEATURES)}
        good[field][3] = value
        with pytest.raises(DataError, match=f"feature stats {field}"):
            lstm.FeatureStats(**good)

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("hidden", float("inf"), "hidden must be a positive integer", id="hidden-inf"),
        pytest.param("hidden", 6.5, "hidden must be a positive integer", id="hidden-6.5"),
        pytest.param("hidden", True, "hidden has the wrong type", id="hidden-true"),
        pytest.param("input_size", float("nan"), "input_size must be a positive integer",
                     id="input_size-nan"),
        pytest.param("input_size", 0, "input_size must be a positive integer", id="input_size-0"),
        pytest.param("input_size", N_FEATURES - 1, f"input_size must be {N_FEATURES}",
                     id="input_size-narrower"),
        pytest.param("input_size", N_FEATURES + 1, f"input_size must be {N_FEATURES}",
                     id="input_size-wider"),
        # Whole and positive, so only the declared shapes can refuse it; the
        # parameters it names would take 8.5 PiB.
        pytest.param("hidden", 10**7, rf"shape for layer1\.w is \(24, {N_FEATURES}\)",
                     id="hidden-1e7"),
    ])
    def test_forged_sizes_are_rejected_before_allocating(self, tmp_path, key, value, message):
        params, rng = random_params(hidden=6, seed=37)
        path = tmp_path / "checkpoint.json"
        result = lstm.TrainResult(params=params, stats=random_stats(rng))
        lstm.save_checkpoint(path, result, lstm.TrainConfig(hidden=6))
        doc = json.loads(path.read_text())
        (doc["config"] if key == "hidden" else doc)[key] = value
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=message):
                lstm.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_whole_float_sizes_load_as_ints(self, tmp_path):
        params, rng = random_params(hidden=6, seed=38)
        path = tmp_path / "checkpoint.json"
        result = lstm.TrainResult(params=params, stats=random_stats(rng))
        lstm.save_checkpoint(path, result, lstm.TrainConfig(hidden=6))
        doc = json.loads(path.read_text())
        doc["config"]["hidden"], doc["input_size"] = 6.0, float(N_FEATURES)
        path.write_text(json.dumps(doc))
        loaded, _, _ = lstm.load_checkpoint(path)
        assert loaded.hidden == 6 and type(loaded.hidden) is int
        assert np.array_equal(loaded.vector, params.vector)

    def test_shape_tampering_is_rejected(self, tmp_path):
        import json

        samples = separable_dataset(n=120, seed=32)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=1, learning_rate=0.1, seed=9)
        result = lstm.train(samples, config)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, result, config)
        doc = json.loads(path.read_text())
        doc["shapes"]["dense_w"] = [5]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="dense_w"):
            lstm.load_checkpoint(path)

    @pytest.mark.parametrize("field", [None, "config", "shapes", "weights", "feature_stats"])
    def test_non_object_document_is_rejected(self, tmp_path, field):
        samples = separable_dataset(n=120, seed=35)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=1, learning_rate=0.1, seed=9)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, lstm.train(samples, config), config)
        doc = json.loads(path.read_text())
        if field is None:
            doc = []
        else:
            doc[field] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="JSON object"):
            lstm.load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value", [
        ("config", "hidden", None),
        ("shapes", "dense_w", 5),
        ("weights", "dense_w", {"a": 1}),
        ("feature_stats", "mean", {"a": 1}),
    ])
    def test_wrong_typed_field_is_rejected(self, tmp_path, section, key, value):
        samples = separable_dataset(n=120, seed=36)
        config = lstm.TrainConfig(hidden=6, batch=16, epochs=1, learning_rate=0.1, seed=9)
        path = tmp_path / "checkpoint.json"
        lstm.save_checkpoint(path, lstm.train(samples, config), config)
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="wrong type"):
            lstm.load_checkpoint(path)
