"""Figure 9's training paths against reference implementations, bit for bit.

The offline linear models scan precomputed per-trace features with
inlined integer updates and score ``evaluate`` with NumPy; the attention
LSTM reuses one forward per training batch, projects its inputs once per
sequence, takes a branch-free sigmoid and computes only the causal
triangle of its attention.  Each of these must leave every trained
parameter exactly as the straightforward implementation below does: the
per-access dict scans over a :class:`PCHistoryRegister`, the masked
sigmoid, the per-step input projection, the full T x T attention and a
separate accuracy forward before every step.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
import pytest

from repro.core.features import PCHistoryRegister
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.ml import (
    AttentionLSTM,
    LabelledTrace,
    LSTMConfig,
    LSTMLayer,
    OfflineHawkeye,
    OfflineISVM,
    OrderedHistorySVM,
    ScaledDotAttention,
    SequenceDataset,
    binary_cross_entropy_with_logits,
    clip_gradients,
    sigmoid,
    softmax,
    softmax_backward,
)
from repro.ml import layers as ml_layers
from repro.ml import model as ml_model
from repro.ml import ops as ml_ops
from repro.ml.training import train_lstm, train_lstm_guarded
from repro.robust.guards import TrainingGuard

# -- reference linear models: per-access scans over dicts -------------------
# Reads use ``.get`` so each reference holds exactly the weights training
# wrote, which is the contract the models under test keep.


class RefISVM:
    def __init__(self, k=5, threshold=1000):
        self.k = k
        self.threshold = threshold
        self.weights = defaultdict(lambda: defaultdict(int))
        self.bias = defaultdict(int)

    def _score(self, pc, history):
        entry = self.weights.get(pc, {})
        return self.bias.get(pc, 0) + sum(entry.get(h, 0) for h in history)

    def _update(self, pc, history, label):
        score = self._score(pc, history)
        if label and score > self.threshold:
            return False
        if not label and score < -self.threshold:
            return False
        delta = 1 if label else -1
        entry = self.weights[pc]
        for h in history:
            entry[h] += delta
        self.bias[pc] += delta
        return True

    def _scan(self, data, train):
        register = PCHistoryRegister(self.k)
        correct = updates = 0
        for i in range(len(data.pcs)):
            pc, label = int(data.pcs[i]), bool(data.labels[i])
            history = register.snapshot()
            if (self._score(pc, history) >= 0) == label:
                correct += 1
            if train and self._update(pc, history, label):
                updates += 1
            register.insert(pc)
        return correct, len(data.pcs), updates

    def state(self):
        return {pc: dict(entry) for pc, entry in self.weights.items()}, dict(self.bias)


class RefOrderedSVM:
    def __init__(self, history_length=3, threshold=1000):
        self.history_length = history_length
        self.threshold = threshold
        self.weights = defaultdict(int)

    def _scan(self, data, train):
        history = deque(maxlen=self.history_length)
        correct = updates = 0
        for i in range(len(data.pcs)):
            pc, label = int(data.pcs[i]), bool(data.labels[i])
            features = [("pc", pc)]
            for position, past_pc in enumerate(tuple(history)):
                features.append(("hist", pc, position, past_pc))
            score = sum(self.weights.get(f, 0) for f in features)
            if (score >= 0) == label:
                correct += 1
            if train and not (
                (label and score > self.threshold)
                or (not label and score < -self.threshold)
            ):
                delta = 1 if label else -1
                for f in features:
                    self.weights[f] += delta
                updates += 1
            history.appendleft(pc)
        return correct, len(data.pcs), updates

    def state(self):
        return dict(self.weights)


class RefHawkeye:
    def __init__(self, counter_bits=3):
        self.counter_max = (1 << counter_bits) - 1
        self.initial = (self.counter_max + 1) // 2
        self.counters = {}

    def _scan(self, data, train):
        correct = 0
        for i in range(len(data.pcs)):
            pc, label = int(data.pcs[i]), bool(data.labels[i])
            value = self.counters.get(pc, self.initial)
            if (value >= self.initial) == label:
                correct += 1
            if train:
                if label:
                    self.counters[pc] = min(self.counter_max, value + 1)
                else:
                    self.counters[pc] = max(0, value - 1)
        return correct, len(data.pcs), len(data.pcs)

    def state(self):
        return dict(self.counters)


def model_state(model):
    if isinstance(model, OfflineISVM):
        return {pc: dict(entry) for pc, entry in model.weights.items()}, dict(model.bias)
    if isinstance(model, OrderedHistorySVM):
        return dict(model.weights)
    return dict(model.counters)


def run_model(model, train, test, epochs):
    """Per epoch: (train accuracy, updates, test accuracy)."""
    curve = []
    for epoch in range(epochs):
        result = model.fit_epoch(train, epoch)
        curve.append((result.train_accuracy, result.updates, model.evaluate(test)))
    return curve


def run_reference(ref, train, test, epochs):
    curve = []
    for _ in range(epochs):
        correct, total, updates = ref._scan(train, train=True)
        test_correct, test_total, _ = ref._scan(test, train=False)
        curve.append(
            (correct / max(1, total), updates, test_correct / max(1, test_total))
        )
    return curve


def assert_linear_exact(data, epochs=3, train_fraction=0.75, k=5, threshold=1000):
    train, test = data.split(train_fraction)
    pairs = [
        (OfflineISVM(k=k, threshold=threshold), RefISVM(k=k, threshold=threshold)),
        (
            OrderedHistorySVM(history_length=k, threshold=threshold),
            RefOrderedSVM(history_length=k, threshold=threshold),
        ),
        (OfflineHawkeye(), RefHawkeye()),
    ]
    for model, ref in pairs:
        assert run_model(model, train, test, epochs) == run_reference(
            ref, train, test, epochs
        ), model.name
        assert model_state(model) == ref.state(), model.name
    isvm = pairs[0][0]
    assert isvm.storage_entries() == sum(
        len(entry) for entry in pairs[0][1].weights.values()
    ) + len(pairs[0][1].bias)


def labelled_from(pcs, labels, name="t"):
    pcs = np.asarray(pcs, dtype=np.int32)
    return LabelledTrace(
        name, pcs, np.asarray(labels, dtype=bool), np.unique(pcs).astype(np.uint64)
    )


def raw_pc_trace(n=1500, seed=0, pcs=(3, 17, 400, 9001, 123456, 77, 5)):
    """Raw, non-dense PC ids; labels depend on the previous PC, plus noise."""
    rng = np.random.default_rng(seed)
    seq = rng.choice(np.asarray(pcs), size=n)
    prev = np.concatenate([[0], seq[:-1]])
    labels = ((seq + prev) % 3 == 0) ^ (rng.random(n) < 0.1)
    return labelled_from(seq, labels)


class TestLinearModelOracle:
    def test_raw_non_dense_pc_ids(self):
        assert_linear_exact(raw_pc_trace(seed=0), epochs=4)

    def test_fewer_unique_pcs_than_k(self):
        data = labelled_from([40, 7, 40, 40, 7] * 60, [True, False, False, True, True] * 60)
        assert_linear_exact(data, epochs=3, k=5)

    def test_threshold_gated_updates(self):
        data = raw_pc_trace(n=800, seed=1, pcs=(2, 9, 11))
        assert_linear_exact(data, epochs=6, threshold=3)
        gated = labelled_from([1] * 50, [True] * 50)
        assert_linear_exact(gated, epochs=2, threshold=5)

    def test_empty_test_split(self):
        data = raw_pc_trace(n=300, seed=2)
        assert_linear_exact(data, epochs=2, train_fraction=1.0)
        assert OfflineISVM().evaluate(data.split(1.0)[1]) == 0.0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_history_lengths_of_figure_14(self, k):
        assert_linear_exact(raw_pc_trace(n=600, seed=10 + k), epochs=2, k=k)

    @pytest.mark.parametrize("bench", ["mcf", "lbm"])
    def test_llc_streams_at_offline_train_config(self, bench):
        config = ExperimentConfig(trace_length=5000, seed=0, lstm_epochs=3)
        assert_linear_exact(ArtifactCache(config).labelled(bench), epochs=3)

    def test_private_hooks_match_the_trained_dicts(self):
        data = raw_pc_trace(n=400, seed=3)
        model = OfflineISVM(k=3)
        model.fit(data, epochs=2)
        ref = RefISVM(k=3)
        ref._scan(data, train=True)
        ref._scan(data, train=True)
        assert model._score(17, (3, 400)) == ref._score(17, (3, 400))
        ordered = OrderedHistorySVM(history_length=2)
        ordered.fit(data, epochs=1)
        features = ordered._features(17, (3, 400))
        assert ordered._score(features) == sum(ordered.weights.get(f, 0) for f in features)


class TestReadsDoNotAllocate:
    def test_isvm_predict_on_a_fresh_model(self):
        model = OfflineISVM()
        assert model.predict(99, (7, 8))
        assert model.storage_entries() == 0
        assert model.weights == {} and model.bias == {}

    def test_evaluate_on_unseen_pcs(self):
        train = raw_pc_trace(n=300, seed=4, pcs=(1, 2, 3))
        unseen = raw_pc_trace(n=300, seed=5, pcs=(50, 60, 70))
        isvm, ordered, hawkeye = OfflineISVM(k=2), OrderedHistorySVM(2), OfflineHawkeye()
        for model in (isvm, ordered, hawkeye):
            model.fit(train, epochs=2)
        before = [model_state(m) for m in (isvm, ordered, hawkeye)]
        entries = isvm.storage_entries()
        for model in (isvm, ordered, hawkeye):
            model.evaluate(unseen)
        assert [model_state(m) for m in (isvm, ordered, hawkeye)] == before
        assert isvm.storage_entries() == entries
        assert not set(isvm.bias) & {50, 60, 70}
        assert hawkeye.predict(50) and 50 not in hawkeye.counters

    def test_storage_counts_written_weights_only(self):
        model = OfflineISVM(k=2)
        model._update(0, (1, 2), True)
        model._score(5, (6, 7))
        assert model.storage_entries() == 3


# -- LSTM: legacy numerics, swapped in by monkeypatch for the references ----


def legacy_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def legacy_lstm_forward(self, x, h0=None, c0=None):
    """Per-step input projection, one sigmoid call per gate."""
    B, T, _ = x.shape
    H = self.hidden_dim
    h = np.zeros((B, H)) if h0 is None else h0
    c = np.zeros((B, H)) if c0 is None else c0
    hs = np.zeros((B, T, H))
    cache = {"x": x, "gates": [], "cs": [], "hs_prev": [], "cs_prev": []}
    W_x, W_h, b = self.params["W_x"], self.params["W_h"], self.params["b"]
    for t in range(T):
        z = x[:, t, :] @ W_x + h @ W_h + b
        i = legacy_sigmoid(z[:, 0 * H : 1 * H])
        f = legacy_sigmoid(z[:, 1 * H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = legacy_sigmoid(z[:, 3 * H : 4 * H])
        cache["hs_prev"].append(h)
        cache["cs_prev"].append(c)
        c = f * c + i * g
        h = o * np.tanh(c)
        cache["gates"].append((i, f, g, o))
        cache["cs"].append(c)
        hs[:, t, :] = h
    cache["hs"] = hs
    return hs, cache


def legacy_attention_forward(self, hs):
    """All T x T scores, then the causal mask."""
    B, T, H = hs.shape
    scores = self.scale * np.einsum("bth,bsh->bts", hs, hs)
    # Causal mask: target t may only attend to sources s < t.
    mask = np.tril(np.ones((T, T), dtype=bool), k=-1)
    scores = np.where(mask[None, :, :], scores, -np.inf)
    weights = softmax(scores, axis=-1)  # row 0 comes out all-zero
    contexts = np.einsum("bts,bsh->bth", weights, hs)
    return contexts, {"hs": hs, "weights": weights}


def legacy_attention_backward(self, grad_contexts, cache):
    """Full T x T products, two of them read in transposed order."""
    hs = cache["hs"]
    weights = cache["weights"]
    # contexts = A @ hs  (per batch)
    d_weights = np.einsum("bth,bsh->bts", grad_contexts, hs)
    d_hs = np.einsum("bts,bth->bsh", weights, grad_contexts)
    d_scores = softmax_backward(weights, d_weights)
    # scores = scale * hs hs^T (masked): masked entries have weight 0
    # and d_scores 0 by construction of softmax_backward.
    d_hs += self.scale * np.einsum("bts,bsh->bth", d_scores, hs)
    d_hs += self.scale * np.einsum("bts,bth->bsh", d_scores, hs)
    return d_hs, {}


@pytest.fixture
def legacy_numerics(monkeypatch):
    """A context switch to the legacy sigmoid, LSTM forward and attention."""

    def enable():
        monkeypatch.setattr(ml_ops, "sigmoid", legacy_sigmoid)
        monkeypatch.setattr(ml_layers, "sigmoid", legacy_sigmoid)
        monkeypatch.setattr(ml_model, "sigmoid", legacy_sigmoid)
        monkeypatch.setattr(LSTMLayer, "forward", legacy_lstm_forward)
        monkeypatch.setattr(ScaledDotAttention, "forward", legacy_attention_forward)
        monkeypatch.setattr(ScaledDotAttention, "backward", legacy_attention_backward)

    return enable


def params_of(model):
    return {key: value.copy() for key, value in model._all_params().items()}


def assert_same_arrays(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def assert_same_training_state(model, ref):
    """Parameters and Adam's moments and step count, bit for bit."""
    assert_same_arrays(params_of(model), params_of(ref))
    assert_same_arrays(model.optimizer._m, ref.optimizer._m)
    assert_same_arrays(model.optimizer._v, ref.optimizer._v)
    assert model.optimizer._t == ref.optimizer._t


class TestSigmoid:
    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
            np.array([709.0, -709.0, 745.0, -745.0, 1000.0, -1000.0]),
            np.arange(-40, 41),
            np.array(0.25),
            np.array(-3.5),
            np.random.default_rng(0).normal(0.0, 30.0, size=(6, 9)),
        ],
        ids=["signed-zero-inf-nan", "overflow-edges", "integer", "0d-pos", "0d-neg", "normal"],
    )
    def test_matches_the_masked_formula(self, x):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            new = sigmoid(x)
        old = legacy_sigmoid(x)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old, equal_nan=True)


class TestLSTMExactness:
    @pytest.mark.parametrize("batch,steps", [(1, 1), (1, 12), (5, 1), (7, 12), (32, 60)])
    def test_forward_matches_the_per_step_projection(self, batch, steps):
        rng = np.random.default_rng(batch * 100 + steps)
        layer = LSTMLayer(8, 6, rng)
        x = rng.normal(size=(batch, steps, 8))
        hs, cache = layer.forward(x)
        W_x, W_h, b = layer.params["W_x"], layer.params["W_h"], layer.params["b"]
        h = np.zeros((batch, 6))
        for t in range(steps):
            z = x[:, t] @ W_x + h @ W_h + b
            i, f, g, o = cache["gates"][t]
            assert np.array_equal(i, legacy_sigmoid(z[:, :6]))
            assert np.array_equal(f, legacy_sigmoid(z[:, 6:12]))
            assert np.array_equal(g, np.tanh(z[:, 12:18]))
            assert np.array_equal(o, legacy_sigmoid(z[:, 18:]))
            h = hs[:, t]
        ref_hs, _ = legacy_lstm_forward(layer, x)
        assert np.array_equal(hs, ref_hs)

    @staticmethod
    def _dataset(seed=0, n=500, vocab=12):
        rng = np.random.default_rng(seed)
        pcs = rng.integers(0, vocab, size=n).astype(np.int32)
        labels = (pcs % 3 == 0) ^ (rng.random(n) < 0.2)
        data = LabelledTrace("t", pcs, labels, np.arange(vocab).astype(np.uint64))
        config = LSTMConfig(vocab_size=vocab, embedding_dim=8, hidden_dim=8, history=5, batch_size=7)
        return data, config

    def test_train_epoch_matches_accuracy_forward_then_old_train_batch(self, legacy_numerics):
        data, config = self._dataset()
        dataset = SequenceDataset.from_labelled(data, config.history)
        model = AttentionLSTM(config)
        results = [model.train_epoch(dataset, epoch) for epoch in range(2)]

        legacy_numerics()
        ref = AttentionLSTM(config)
        ref_results = []
        for epoch in range(2):
            rng = np.random.default_rng(config.seed + epoch + 1)
            losses, correct, total = [], 0, 0
            for batch in dataset.batches(config.batch_size, rng):
                logits, _ = ref.forward(batch.inputs)
                labelled = batch.mask > 0
                correct += int(np.sum(((logits >= 0.0) == (batch.targets > 0.5)) & labelled))
                total += int(np.sum(labelled))
                # The old train_batch: a second forward, then the step.
                logits, cache = ref.forward(batch.inputs)
                loss, grad = binary_cross_entropy_with_logits(logits, batch.targets, batch.mask)
                grads = ref.backward(grad, cache)
                clip_gradients(grads, config.grad_clip)
                ref.optimizer.step(grads)
                losses.append(loss)
            ref_results.append((float(np.mean(losses)), correct / max(1, total)))

        assert [(r.train_loss, r.train_accuracy) for r in results] == ref_results
        assert_same_training_state(model, ref)

    def test_guarded_training_parameters_unchanged(self, legacy_numerics):
        data, config = self._dataset(seed=1, n=400)
        model, result, _ = train_lstm_guarded(data, config, epochs=2)
        legacy_numerics()
        ref, ref_result, _ = train_lstm_guarded(data, config, epochs=2)
        assert result.epoch_accuracies == ref_result.epoch_accuracies
        assert_same_training_state(model, ref)

    @pytest.mark.parametrize("name", ["mcf", "lbm"])
    def test_train_lstm_at_offline_train_config(self, legacy_numerics, name):
        # perfbench's offline_train: 5,000 accesses, three LSTM epochs.
        config = ExperimentConfig(trace_length=5_000, lstm_epochs=3)
        labelled = ArtifactCache(config).labelled(name)
        lstm_config = config.lstm_config(labelled.vocab_size)
        model, run = train_lstm(labelled, lstm_config, epochs=config.lstm_epochs)
        legacy_numerics()
        ref, ref_run = train_lstm(labelled, lstm_config, epochs=config.lstm_epochs)
        assert run.epoch_accuracies == ref_run.epoch_accuracies
        assert_same_training_state(model, ref)


class TestCausalAttentionExactness:
    """The causal-block attention against the full T x T legacy layer."""

    @staticmethod
    def _hidden(batch, steps, dim, seed):
        rng = np.random.default_rng(seed)
        hs = np.tanh(rng.normal(size=(batch, steps, dim)))
        hs[rng.random(hs.shape) < 0.1] = 0.0
        hs[rng.random(hs.shape) < 0.1] = -0.0
        if steps > 1:
            hs[0, 1] = -0.0  # a whole signed-zero source
        return hs, rng.normal(size=hs.shape)

    @pytest.mark.parametrize("scale", [1.0, 5.0])
    @pytest.mark.parametrize("batch", [1, 2, 32])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 59, 60, 61])
    def test_layer_matches_the_full_matrix(self, steps, batch, scale):
        hs, grad = self._hidden(batch, steps, 32, seed=steps * 1000 + batch)
        layer = ScaledDotAttention(scale)
        contexts, cache = layer.forward(hs)
        d_hs, _ = layer.backward(grad, cache)
        ref_contexts, ref_cache = legacy_attention_forward(layer, hs)
        ref_d_hs, _ = legacy_attention_backward(layer, grad, ref_cache)
        assert np.array_equal(contexts, ref_contexts)
        assert np.array_equal(cache["weights"], ref_cache["weights"])
        assert np.array_equal(layer.attention_weights(hs), ref_cache["weights"])
        assert np.array_equal(d_hs, ref_d_hs)

    def test_fewer_steps_than_blocks(self):
        assert 3 < ml_layers.CAUSAL_BLOCKS
        assert ml_layers._causal_blocks(3) == [(0, 1), (1, 2), (2, 3)]
        assert ml_layers._causal_blocks(0) == []
        for steps in (1, 7, 60, 61):
            blocks = ml_layers._causal_blocks(steps)
            bounds = [a for a, _ in blocks] + [steps]
            assert bounds[0] == 0 and bounds == sorted(set(bounds))
            assert all(b == bounds[i + 1] for i, (_, b) in enumerate(blocks))


class TestNonFiniteHiddenStates:
    """Exactness holds for finite hidden states; a NaN one must still trip
    the training guard, even though earlier positions now stay finite."""

    def test_nan_embedding_row_makes_the_loss_nan(self, legacy_numerics):
        data, config = TestLSTMExactness._dataset(seed=2, n=300)
        model = AttentionLSTM(config)
        batch = next(SequenceDataset.from_labelled(data, config.history).batches(4))
        row = 0
        pc = batch.inputs[row, 3]
        step = int(np.argmax(batch.inputs[row] == pc))  # its first position
        model.embedding.params["W_emb"][pc] = np.nan
        logits, _ = model.forward(batch.inputs)
        assert np.isnan(logits[row, step:]).all()
        # Positions before the NaN's row block never read it.
        start = next(a for a, b in ml_layers._causal_blocks(logits.shape[1]) if b > step)
        assert np.isfinite(logits[row, :start]).all()
        loss, _ = binary_cross_entropy_with_logits(logits, batch.targets, batch.mask)
        assert np.isnan(loss)
        guard = TrainingGuard(model)
        assert not guard.loss_ok(loss, epoch=0, batch=0)
        assert guard.report.batches_skipped == 1

        # The full T x T product spread the NaN over the whole sequence.
        legacy_numerics()
        ref_logits, _ = model.forward(batch.inputs)
        assert np.isnan(ref_logits[row]).all()
        assert np.isnan(binary_cross_entropy_with_logits(
            ref_logits, batch.targets, batch.mask)[0])
