import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_series, separable_dataset
from optioncast import lstm
from optioncast.errors import ConvergenceError, DataError
from optioncast.market_data import SequenceSample, build_sequences


def random_params(hidden=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return lstm.init_params(hidden, rng), rng


def random_stats(rng):
    return lstm.FeatureStats(mean=rng.standard_normal(13), std=rng.uniform(0.5, 2.0, 13))


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
        prob, _ = lstm.forward(zeros, rng.standard_normal((10, 13)))
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
        windows = rng.standard_normal((32, 10, 13)) * np.geomspace(0.1, 40.0, 32)[:, None, None]
        _, cache = lstm.forward_batch(params, windows)
        lowest = np.inf
        for layer_params, layer in ((params.layer1, cache.layer1), (params.layer2, cache.layer2)):
            blocks = per_gate(layer_params, params.hidden)
            for k, gate in enumerate("ifo"):
                w, u, b = blocks[gate]
                pre = layer.x @ w.T + layer.h[:-1] @ u.T + b
                lowest = min(lowest, pre.min())
                got = layer.gates[..., k * params.hidden : (k + 1) * params.hidden]
                np.testing.assert_allclose(
                    got, masked_sigmoid(pre), rtol=0, atol=1e-15, err_msg=gate
                )
        assert lowest < -38.0

    def test_output_strictly_inside_unit_interval(self):
        params, rng = random_params(hidden=8, seed=1)
        probs, _ = lstm.forward_batch(params, rng.standard_normal((64, 10, 13)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_batch_permutation_permutes_outputs_identically(self):
        params, rng = random_params(hidden=8, seed=2)
        windows = rng.standard_normal((6, 10, 13))
        perm = np.array([3, 1, 4, 0, 5, 2])
        base, _ = lstm.forward_batch(params, windows)
        permuted, _ = lstm.forward_batch(params, windows[perm])
        assert np.array_equal(base[perm], permuted)

    def test_shape_mismatch_rejected(self):
        params, rng = random_params()
        with pytest.raises(DataError):
            lstm.forward_batch(params, rng.standard_normal((4, 10, 12)))
        with pytest.raises(DataError):
            lstm.forward_batch(params, rng.standard_normal((4, 9, 13)))
        with pytest.raises(DataError):
            lstm.forward(params, rng.standard_normal(13))

    def test_last_iteration_leaves_layer_one_empty(self):
        # Iteration T has no layer-1 step: its slot writes c = h = 0, so the
        # final stored state is [0 | h2_T].
        params, rng = random_params(hidden=6, seed=4)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        _, cache = lstm.forward_batch(params, rng.standard_normal((5, 10, 13)))
        h_last = cache.z[-1][:, params.input_size + 1 :].reshape(5, 2, 6)
        assert np.all(h_last[:, 0] == 0.0) and np.all(cache.c[-1][:, 0] == 0.0)
        assert np.array_equal(h_last[:, 1], cache.layer2.h[-1])
        assert np.all(h_last[:, 1] != 0.0)

    def test_activations_bounded_over_many_random_passes(self):
        # One vectorized pass over 10^4 windows doubles as 10^4 forward passes.
        params, rng = random_params(hidden=8, seed=3)
        windows = rng.standard_normal((10_000, 10, 13))
        probs, cache = lstm.forward_batch(params, windows)
        hid = params.hidden
        for layer in (cache.layer1, cache.layer2):
            for t in range(layer.gates.shape[0]):
                for k in range(3):  # the sigmoid gates i, f, o
                    gate = layer.gates[t][:, k * hid : (k + 1) * hid]
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
        assert params.layer1.w[1, 0] == 13.0
        assert params.dense_b[0] == params.vector.size - 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242])
    def test_init_equals_per_gate_draws_stacked(self, seed):
        hidden, n_in = 5, 13
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
        with pytest.raises(DataError, match="437"):
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
        window = rng.standard_normal((10, 13))
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
        windows = rng.standard_normal((batch, 10, 13))
        labels = (rng.random(batch) > 0.5).astype(float)
        probs, cache = lstm.forward_batch(params, windows)
        grads = lstm.backward_batch(cache, labels)
        ref_probs, ref_grads = textbook_probs_and_grads(params, windows, labels)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads.arrays[name], ref, rtol=1e-12, atol=atol_frac * np.abs(ref).max(),
                err_msg=name,
            )

    def test_stationary_point_has_zero_gradient(self):
        params, rng = random_params(hidden=4, seed=12)
        prob, cache = lstm.forward(params, rng.standard_normal((10, 13)))
        grads = lstm.params_to_vector(lstm.backward(cache, prob))
        assert np.all(grads == 0.0)

    def test_duplicated_sample_doubles_its_contribution(self):
        params, rng = random_params(hidden=4, seed=13)
        window = rng.standard_normal((10, 13))
        _, single_cache = lstm.forward(params, window)
        single = lstm.params_to_vector(lstm.backward(single_cache, 1.0))
        _, double_cache = lstm.forward_batch(params, np.stack([window, window]))
        double = lstm.params_to_vector(
            lstm.backward_batch(double_cache, np.array([1.0, 1.0]))
        )
        np.testing.assert_allclose(double, 2.0 * single, rtol=1e-12, atol=1e-300)

    def test_label_batch_mismatch_rejected(self):
        params, rng = random_params()
        _, cache = lstm.forward_batch(params, rng.standard_normal((3, 10, 13)))
        with pytest.raises(DataError):
            lstm.backward_batch(cache, np.array([1.0, 0.0]))


def reference_train(samples, config):
    """Per-epoch losses and weights of ``config``, from the public forward and
    backward and the textbook SGD and Adam updates, along with the stats."""
    n_train = round(config.train_frac * len(samples))
    x = np.stack([s.window for s in samples[:n_train]])
    y = np.array([s.label for s in samples[:n_train]], dtype=float)
    days = x.reshape(-1, 13)
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
            probs, cache = lstm.forward_batch(params, x[idx])
            total += sum(lstm.loss(p, label) for p, label in zip(probs, y[idx]))
            grad = lstm.backward_batch(cache, y[idx]).vector / len(idx)
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


class TestTrainPath:
    """``train`` runs every minibatch on one reused workspace."""

    def test_reused_workspace_matches_fresh_calls(self):
        params, rng = random_params(hidden=6, seed=61)
        for layer in (params.layer1, params.layer2):
            layer.b[:] = rng.uniform(-1.0, 1.0, layer.b.shape)
        work = lstm._Workspace(params, 8)
        grads = lstm.LstmParams.zeros(6)
        # Full, partial, then full again: each pass starts on storage the
        # one before left dirty, with weights an update step has moved.
        for batch in (8, 5, 8, 1):
            windows = rng.standard_normal((batch, 10, 13))
            labels = (rng.random(batch) > 0.5).astype(float)
            probs, cache = lstm._forward(params, windows, work)
            lstm._backward(cache, labels, grads)
            fresh_probs, fresh_cache = lstm.forward_batch(params, windows)
            fresh = lstm.backward_batch(fresh_cache, labels)
            assert np.array_equal(probs, fresh_probs)
            assert np.array_equal(grads.vector, fresh.vector)
            params.vector -= 0.5 * grads.vector

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
        for h, w in zip(result.history, weights):
            val = lstm.evaluate(lstm.vector_to_params(w, 5), stats, samples[n_train:])
            assert h.val == val
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
    def test_matches_forward_batch_on_hand_zscored_windows(self):
        samples = separable_dataset(n=64, seed=5)
        params, rng = random_params(hidden=4, seed=6)
        stats = random_stats(rng)
        windows = np.stack([(s.window - stats.mean) / stats.std for s in samples])
        expected, _ = lstm.forward_batch(params, windows)
        assert np.array_equal(lstm.predict(params, stats, samples), expected)

    def test_window_width_other_than_input_size_rejected(self):
        samples = separable_dataset(n=8, seed=5)
        params = lstm.LstmParams.zeros(hidden=4, input_size=12)
        with pytest.raises(DataError, match=r"\(batch, 10, 12\)"):
            lstm.predict(params, random_stats(np.random.default_rng(0)), samples)

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


class TestEvaluate:
    def test_counts_against_manual_threshold(self):
        samples = separable_dataset(n=64, seed=5)
        params, rng = random_params(hidden=4, seed=6)
        stats = random_stats(rng)
        metrics = lstm.evaluate(params, stats, samples)
        windows = np.stack([(s.window - stats.mean) / stats.std for s in samples])
        probs, _ = lstm.forward_batch(params, windows)
        preds = probs >= 0.5
        labels = np.array([s.label for s in samples]) == 1
        assert metrics.tp == int(np.sum(preds & labels))
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == len(samples)

    def test_empty_rejected(self):
        params, rng = random_params()
        with pytest.raises(DataError):
            lstm.evaluate(params, random_stats(rng), [])


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
        altered = samples[:n_train] + [
            SequenceSample(window=100.0 + 10.0 * rng.standard_normal((10, 13)),
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
        windows = rng.standard_normal((40, 10, 13))
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
            "layer1.w": [24, 13], "layer1.u": [24, 6], "layer1.b": [24],
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
        good = {"mean": np.zeros(13), "std": np.ones(13)}
        good[field][3] = value
        with pytest.raises(DataError, match=f"feature stats {field}"):
            lstm.FeatureStats(**good)

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
