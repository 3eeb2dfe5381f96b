"""Network forward/backward/training tests.

Gradients are checked against central finite differences and the forward
pass against a straightforward scalar re-implementation, so any change
to the vectorized code has an independent witness.
"""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradients, max_rel_error, reference_train
from innscore import data, tinynet
from innscore.errors import NumericError


def scalar_forward(model, x):
    """Loop-and-math.exp re-implementation of the forward pass."""
    a = list(x)
    for layer, (W, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
        nxt = []
        for j in range(W.shape[1]):
            z = sum(a[i] * W[i, j] for i in range(W.shape[0])) + b[j]
            nxt.append(math.sin(z) if model.lift and layer == 0 else max(z, 0.0))
        a = nxt
    W, b = model.weights[-1], model.biases[-1]
    logits = [sum(a[i] * W[i, j] for i in range(W.shape[0])) + b[j] for j in range(W.shape[1])]
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    s = sum(exps)
    return [v / s for v in exps], a


class TestInit:
    def test_deterministic(self):
        a = tinynet.init_model([2, 8, 3], seed=7)
        b = tinynet.init_model([2, 8, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_fan_in_scale(self):
        m = tinynet.init_model([100, 10, 3], seed=0)
        assert np.abs(m.weights[0]).max() <= 1 / np.sqrt(100)
        assert np.all(m.biases[0] == 0)

    def test_penultimate_dim(self):
        m = tinynet.init_model([4, 16, 16, 10], seed=0)
        assert m.feature_dim == 16
        _, feats = m.forward(np.zeros((3, 4)))
        assert feats.shape == (3, 16)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            tinynet.init_model([5], seed=0)
        with pytest.raises(ValueError):
            tinynet.init_model([5, 0, 2], seed=0)

    def test_lift_layer(self):
        m = tinynet.init_model([2, 32, 8, 4], seed=1, lift_freq=3.0)
        assert m.lift is True
        assert tinynet.init_model([2, 32, 8, 4], seed=1).lift is False
        with pytest.raises(ValueError):
            tinynet.init_model([2, 4], seed=0, lift_freq=3.0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lift_freq"):
                tinynet.init_model([2, 4, 2], seed=0, lift_freq=bad)


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        m = tinynet.init_model([5, 12, 7], seed=3)
        X = rng.normal(0, 5, size=(500, 5))
        probs, _ = m.forward(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() >= 0.0

    def test_zero_output_layer_uniform(self):
        m = tinynet.init_model([2, 8, 3], seed=7)
        m.weights[-1][:] = 0.0
        probs, _ = m.forward(np.random.default_rng(0).normal(size=(10, 2)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(11)
        for lift in (0.0, 2.0):
            m = tinynet.init_model([3, 6, 5, 4], seed=5, lift_freq=lift)
            X = rng.normal(size=(4, 3))
            probs, feats = m.forward(X)
            for i in range(4):
                p_ref, f_ref = scalar_forward(m, X[i])
                np.testing.assert_allclose(probs[i], p_ref, atol=1e-12)
                np.testing.assert_allclose(feats[i], f_ref, atol=1e-12)

    def test_dim_mismatch(self):
        m = tinynet.init_model([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            m.forward(np.zeros((2, 5)))


class TestLosses:
    def test_near_one_hot_gives_near_zero_ce(self):
        m = tinynet.init_model([2, 4, 3], seed=0)
        m.weights[-1][:] = 0.0
        m.biases[-1][:] = np.array([50.0, 0.0, 0.0])
        X = np.random.default_rng(1).normal(size=(6, 2))
        loss, _ = tinynet.loss_and_grad(m, X, np.zeros(6, dtype=int), "ce")
        assert loss < 1e-9

    def test_uniform_predictor_analytic(self):
        m = tinynet.init_model([2, 4, 10], seed=0)
        m.weights[-1][:] = 0.0
        m.biases[-1][:] = 0.0
        X = np.random.default_rng(2).normal(size=(5, 2))
        y = np.arange(5) % 10
        ce, _ = tinynet.loss_and_grad(m, X, y, "ce")
        assert abs(ce - math.log(10)) < 1e-9
        cene, _ = tinynet.loss_and_grad(m, X, y, "cene")
        assert abs(cene) < 1e-9

    def test_empty_batch_rejected(self):
        m = tinynet.init_model([2, 4, 3], seed=0)
        with pytest.raises(ValueError):
            tinynet.loss_and_grad(m, np.zeros((0, 2)), np.zeros(0, dtype=int), "ce")

    @pytest.mark.parametrize("loss_kind", ["ce", "cene", "mixup"])
    def test_gradients_match_finite_differences(self, loss_kind):
        rng = np.random.default_rng(9)
        m = tinynet.init_model([3, 5, 4], seed=4)
        X = rng.normal(size=(6, 3))
        if loss_kind == "mixup":
            targets = rng.dirichlet(np.ones(4), size=6)
        else:
            targets = rng.integers(0, 4, size=6)
        _, analytic = tinynet.loss_and_grad(m, X, targets, loss_kind)
        numeric = fd_gradients(m, X, targets, loss_kind)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_gradients_with_lift_layer(self):
        rng = np.random.default_rng(10)
        m = tinynet.init_model([3, 8, 5, 4], seed=6, lift_freq=2.0)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 4, size=5)
        _, analytic = tinynet.loss_and_grad(m, X, y, "ce")
        numeric = fd_gradients(m, X, y, "ce")
        assert max_rel_error(analytic, numeric) <= 1e-4


class TestMixupBatch:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.xa = rng.normal(size=(4, 2))
        self.xb = rng.normal(size=(4, 2))
        self.ta = tinynet.one_hot(np.array([0, 1, 2, 0]), 3)
        self.tb = tinynet.one_hot(np.array([1, 1, 0, 2]), 3)

    def test_lambda_one_is_identity(self):
        x, t = tinynet.mixup_batch(self.xa, self.ta, self.xb, self.tb, 1.0)
        np.testing.assert_array_equal(x, self.xa)
        np.testing.assert_array_equal(t, self.ta)

    def test_lambda_zero_is_other_batch(self):
        x, t = tinynet.mixup_batch(self.xa, self.ta, self.xb, self.tb, 0.0)
        np.testing.assert_array_equal(x, self.xb)
        np.testing.assert_array_equal(t, self.tb)

    def test_half_mixes_one_hots(self):
        ta = tinynet.one_hot(np.array([0]), 4)
        tb = tinynet.one_hot(np.array([1]), 4)
        _, t = tinynet.mixup_batch(np.zeros((1, 2)), ta, np.ones((1, 2)), tb, 0.5)
        np.testing.assert_allclose(t, [[0.5, 0.5, 0.0, 0.0]])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tinynet.mixup_batch(self.xa, self.ta, self.xb[:2], self.tb[:2], 0.5)
        with pytest.raises(ValueError):
            tinynet.mixup_batch(self.xa, self.ta, self.xb, self.tb, 1.5)


class TestSchedule:
    def test_paper_drop_points(self):
        cfg = tinynet.TrainConfig(epochs=300, lr0=0.02)
        assert tinynet.learning_rate(149, cfg) == 0.02
        assert tinynet.learning_rate(150, cfg) == pytest.approx(0.004)
        assert tinynet.learning_rate(225, cfg) == pytest.approx(0.0008)

    def test_exactly_two_drops_at_floor_boundaries(self):
        for T in (7, 10, 101, 300):
            cfg = tinynet.TrainConfig(epochs=T, lr0=1.0, lr_drop_factor=2.0)
            lrs = [tinynet.learning_rate(t, cfg) for t in range(T)]
            drops = [t for t in range(1, T) if lrs[t] != lrs[t - 1]]
            assert drops == sorted({T // 2, (3 * T) // 4})


class TestTrain:
    def make_blobs(self, n=200, k=2, spread=0.1, seed=0):
        return data.synth("blobs", n, k, 2, spread, seed)

    def test_zero_epochs_returns_initial(self):
        ds = self.make_blobs()
        m = tinynet.init_model([2, 8, 2], seed=1)
        res = tinynet.train(m, ds, tinynet.TrainConfig(epochs=0, seed=0))
        for w0, w1 in zip(m.weights, res.model.weights):
            assert np.array_equal(w0, w1)

    def test_separable_blobs_reach_high_accuracy(self):
        ds = self.make_blobs(n=400, spread=0.15)
        m = tinynet.init_model([2, 16, 2], seed=2)
        res = tinynet.train(m, ds, tinynet.TrainConfig("ce", epochs=50, seed=3))
        probs = res.model.predict_proba(ds.features)
        acc = (probs.argmax(1) == ds.observed_labels).mean()
        assert acc >= 0.99

    def test_bitwise_determinism(self):
        ds = self.make_blobs()
        cfg = tinynet.TrainConfig("mixup", epochs=5, seed=11)
        r1 = tinynet.train(tinynet.init_model([2, 8, 2], seed=4), ds, cfg)
        r2 = tinynet.train(tinynet.init_model([2, 8, 2], seed=4), ds, cfg)
        for w1, w2 in zip(r1.model.weights, r2.model.weights):
            assert np.array_equal(w1, w2)

    def test_checkpoint_epochs(self):
        ds = self.make_blobs()
        cfg = tinynet.TrainConfig(epochs=10, seed=0, checkpoint_every=4)
        res = tinynet.train(tinynet.init_model([2, 8, 2], seed=0), ds, cfg)
        assert [e for e, _ in res.checkpoints] == [4, 8]

    def test_frozen_lift_layer_not_updated(self):
        ds = self.make_blobs()
        m = tinynet.init_model([2, 16, 8, 2], seed=5, lift_freq=3.0)
        w0 = m.weights[0].copy()
        res = tinynet.train(m, ds, tinynet.TrainConfig("ce", epochs=3, seed=6))
        assert np.array_equal(res.model.weights[0], w0)
        assert not np.array_equal(res.model.weights[1], m.weights[1])

    def test_divergence_raises_numeric_error(self):
        ds = self.make_blobs()
        m = tinynet.init_model([2, 8, 2], seed=7)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            tinynet.train(m, ds, tinynet.TrainConfig("ce", epochs=50, seed=8, lr0=1e12))
        m.weights[0][:] = 1e308  # the first layer overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(NumericError, match="diverged"):
                m.forward(np.full((4, 2), 10.0))


class TestTrainMatchesReference:
    """train() against the plain loop of helpers.reference_train.

    Features and lift weights lie on a grid of quarters, so X @ W0 is
    exact whatever summation order BLAS picks for a batch or for the
    whole matrix; the lift computed once then equals the per-batch one
    bit for bit, and any difference comes from the backward pass, the
    batch indexing or the update.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        loss_kind=st.sampled_from(tinynet.LOSS_KINDS),
        lift=st.booleans(),
        hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        d=st.integers(1, 4),
        K=st.integers(2, 4),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 48),
        epochs=st.integers(1, 4),
        checkpoint_every=st.none() | st.integers(1, 3),
    )
    def test_bitwise_equal_to_reference(self, seed, loss_kind, lift, hidden, d, K, n,
                                        batch_size, epochs, checkpoint_every):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, K, size=n)
        ds = data.Dataset(rng.integers(-8, 9, size=(n, d)) / 4.0, y, y, K, np.arange(n))
        model = tinynet.init_model([d, *hidden, K], seed, lift_freq=2.0 if lift else 0.0)
        model.weights[0] = rng.integers(-8, 9, size=model.weights[0].shape) / 4.0
        cfg = tinynet.TrainConfig(loss_kind, epochs=epochs, batch_size=batch_size,
                                  seed=seed, checkpoint_every=checkpoint_every)

        got = tinynet.train(model, ds, cfg)
        want, want_ckpts, want_loss = reference_train(model, ds, cfg)

        assert got.epoch_loss == want_loss
        assert [e for e, _ in got.checkpoints] == [e for e, _ in want_ckpts]
        for a, b in zip([got.model] + [m for _, m in got.checkpoints],
                        [want] + [m for _, m in want_ckpts]):
            for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
                assert np.array_equal(pa, pb)


class TestPerSampleLoss:
    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(20)
        ds = data.synth("blobs", 50, 3, 2, 0.4, seed=1)
        m = tinynet.init_model([2, 6, 3], seed=8)
        for kind in ("ce", "cene"):
            losses = tinynet.per_sample_loss(m, ds, kind)
            for i in rng.choice(50, size=10, replace=False):
                p, _ = scalar_forward(m, ds.features[i])
                ref = -math.log(max(p[ds.observed_labels[i]], 1e-12))
                if kind == "cene":
                    ref += sum(v * math.log(max(v, 1e-12)) for v in p)
                assert abs(losses[i] - ref) < 1e-12

    def test_uniform_predictor_ties(self):
        ds = data.synth("blobs", 40, 2, 2, 0.4, seed=2)
        m = tinynet.init_model([2, 4, 2], seed=9)
        m.weights[-1][:] = 0.0
        m.biases[-1][:] = 0.0
        losses = tinynet.per_sample_loss(m, ds, "ce")
        assert np.allclose(losses, losses[0])

    def test_mixup_not_allowed(self):
        ds = data.synth("blobs", 10, 2, 2, 0.4, seed=3)
        m = tinynet.init_model([2, 4, 2], seed=0)
        with pytest.raises(ValueError):
            tinynet.per_sample_loss(m, ds, "mixup")


class TestCheckpointIO:
    def test_roundtrip_bitwise(self, tmp_path):
        for lift in (0.0, 2.5):
            m = tinynet.init_model([3, 7, 5, 4], seed=12, lift_freq=lift)
            cfg = tinynet.TrainConfig("mixup", epochs=17, seed=12)
            path = tmp_path / f"model_{lift}.ckpt"
            tinynet.save_checkpoint(m, path, epoch=17, config=cfg)
            loaded, sidecar = tinynet.load_checkpoint(path)
            assert loaded.layer_dims == m.layer_dims
            assert loaded.lift == m.lift == (lift > 0)
            for a, b in zip(m.weights + m.biases, loaded.weights + loaded.biases):
                assert np.array_equal(a, b)
            assert sidecar["epoch"] == 17
            assert sidecar["config"]["loss_kind"] == "mixup"
            assert sidecar["activations"] == (["sin", "relu"] if lift else ["relu", "relu"])
            assert sidecar["frozen_layers"] == ([0] if lift else [])

    def test_plain_model_uses_spec_v1_layout(self, tmp_path):
        m = tinynet.init_model([2, 4, 3], seed=1)
        path = tmp_path / "plain.ckpt"
        tinynet.save_checkpoint(m, path)
        raw = path.read_bytes()
        assert raw[:4] == b"INNM"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(ValueError):
            tinynet.load_checkpoint(path)

    def test_truncated_or_padded_checkpoint_rejected(self, tmp_path):
        m = tinynet.init_model([2, 3, 2], seed=4, lift_freq=1.5)
        tinynet.save_checkpoint(m, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                tinynet.load_checkpoint(bad)
        bad.write_bytes(raw + bytes(8))
        with pytest.raises(ValueError, match="trailing"):
            tinynet.load_checkpoint(bad)

    def test_lift_layout_only(self, tmp_path):
        m = tinynet.init_model([2, 3, 4, 2], seed=4, lift_freq=1.5)
        tinynet.save_checkpoint(m, tmp_path / "m.ckpt")
        raw = (tmp_path / "m.ckpt").read_bytes()
        codes = 12 + 4 * 4  # after the header and the four dims
        assert int.from_bytes(raw[4:8], "little") == 2
        assert raw[codes : codes + 2] == bytes([3, 0])
        bad = tmp_path / "bad.ckpt"
        # a sin or frozen bit alone, unknown bits, and a lift on the second hidden layer
        for wrong in ([1, 0], [2, 0], [7, 0], [0x83, 0], [0, 3], [3, 1], [0, 0]):
            bad.write_bytes(raw[:codes] + bytes(wrong) + raw[codes + 2 :])
            with pytest.raises(ValueError, match=re.escape(f"bad.ckpt: layer codes {wrong} are not")):
                tinynet.load_checkpoint(bad)

    @pytest.mark.parametrize("dims", [[2, 0, 2], [2, 4, 0]])
    def test_zero_layer_dim_rejected(self, tmp_path, dims):
        path = tmp_path / "zero.ckpt"
        params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        path.write_bytes(struct.pack(f"<4sII{len(dims)}I", b"INNM", 1, len(dims), *dims)
                         + bytes(8 * params))
        with pytest.raises(ValueError, match=re.escape(f"zero.ckpt: layer dims {dims} include 0")):
            tinynet.load_checkpoint(path)

    def test_non_finite_parameters_rejected(self, tmp_path):
        m = tinynet.init_model([2, 3, 2], seed=4)
        for layer, bad in ((0, np.nan), (1, np.inf)):
            broken = m.copy()
            broken.biases[layer][1] = bad
            tinynet.save_checkpoint(broken, tmp_path / "m.ckpt")
            with pytest.raises(ValueError, match=f"layer {layer} has a non-finite weight or bias"):
                tinynet.load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("sidecar, shown", [
        ("[1, 2]", "line 1: a JSON list, not an object"),
        ('{"layer_dims": [2, 3, 2]}', "line 1: the object has no 'epoch' key"),
        ('{\n  "epoch": "x"\n}', "line 2: 'epoch' is 'x', not int or null"),
        ('{"epoch": true}', "'epoch' is True, not int or null"),
        ('{"epoch": 3', "line 1: Expecting ',' delimiter"),
    ])
    def test_sidecar_rejected(self, tmp_path, sidecar, shown):
        tinynet.save_checkpoint(tinynet.init_model([2, 3, 2], seed=4), tmp_path / "m.ckpt", 7)
        assert tinynet.load_checkpoint(tmp_path / "m.ckpt")[1]["epoch"] == 7
        (tmp_path / "m.ckpt.json").write_text(sidecar)
        with pytest.raises(ValueError, match=shown):
            tinynet.load_checkpoint(tmp_path / "m.ckpt")
