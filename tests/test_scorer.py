"""Segment-integral scores, the midpoint variant and consistency stats."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innscore import data, neighbors, scorer, tinynet
from innscore.oracle import SegmentInterpolantModel, oracle_inn


class ConstantModel:
    """predict_proba ignores the input."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, X):
        X = np.atleast_2d(X)
        return np.tile(self.probs, (X.shape[0], 1))


class AffineModel:
    """Class-0 probability affine in the input; affine along any segment."""

    def __init__(self, coef, intercept):
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def predict_proba(self, X):
        X = np.atleast_2d(X)
        p0 = X @ self.coef + self.intercept
        return np.column_stack([p0, 1.0 - p0])


def tiny_world(n=12, d=3, n_classes=3, seed=0, L=4):
    ds = data.corrupt_symmetric(data.synth("blobs", n, n_classes, d, 0.5, seed=seed), 0.4, seed + 1)
    nbr, _ = neighbors.search(neighbors.build_index(ds.features), L)
    return ds, nbr


class TestSegmentIntegral:
    def test_constant_integrand(self):
        m = ConstantModel([0.3, 0.7])
        for H in (1, 3, 10):
            v = scorer.segment_integral(m, np.zeros(2), np.ones(2), 0, H)
            assert v == pytest.approx(0.3, abs=1e-15)

    def test_affine_integrand_is_exact(self):
        # trapezoid rule integrates affine functions exactly for any H
        m = AffineModel([0.05, -0.02, 0.01], 0.4)
        rng = np.random.default_rng(4)
        x, xt = rng.normal(size=3), rng.normal(size=3)
        p_x = m.predict_proba(x)[0, 0]
        p_xt = m.predict_proba(xt)[0, 0]
        exact = 0.5 * (p_x + p_xt)
        for H in (1, 10):
            assert scorer.segment_integral(m, x, xt, 0, H) == pytest.approx(exact, abs=1e-12)

    def test_fine_grid_quadrature_oracle(self):
        m = tinynet.init_model([3, 8, 5, 4], seed=2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, xt = rng.normal(size=3), rng.normal(size=3)
            coarse = scorer.segment_integral(m, x, xt, 1, 10)
            fine = scorer.segment_integral(m, x, xt, 1, 10_000)
            assert abs(coarse - fine) <= 1e-3

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            scorer.segment_integral(ConstantModel([1.0]), np.zeros(2), np.ones(2), 0, 0)
        ds, nbr = tiny_world()
        with pytest.raises(ValueError):
            scorer.segment_scores(ds, nbr, 0, [(0, ConstantModel(np.full(3, 1 / 3)))])


class TestInnScores:
    def test_constant_uniform_model_scores_one_over_k(self):
        ds, nbr = tiny_world()
        m = ConstantModel(np.full(3, 1 / 3))
        table = scorer.score_models(ds, nbr[:, :4], 10, [(1, m)])[0][0]
        np.testing.assert_allclose(table.values["inn"], 1 / 3, atol=1e-12)

    def test_scores_within_unit_interval(self):
        ds, nbr = tiny_world(n=40, seed=3)
        m = tinynet.init_model([3, 6, 3], seed=1)
        table = scorer.score_models(ds, nbr[:, :4], 7, [(None, m)])[0][0]
        s = table.values["inn"]
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_single_neighbor_reduces_to_segment_integral(self):
        ds, nbr = tiny_world(seed=5)
        m = tinynet.init_model([3, 6, 3], seed=2)
        table = scorer.score_models(ds, nbr[:, :1], 10, [(None, m)])[0][0]
        for i, row in enumerate(nbr):
            ref = scorer.segment_integral(
                m, ds.features[i], ds.features[row[0]], ds.observed_labels[i], 10
            )
            assert table.values["inn"][i] == pytest.approx(ref, abs=1e-12)

    def test_neighbor_order_irrelevant(self):
        ds, nbr = tiny_world(seed=6)
        m = tinynet.init_model([3, 6, 3], seed=3)
        a = scorer.score_models(ds, nbr[:, :4], 5, [(None, m)])[0][0].values["inn"]
        flipped = nbr[:, ::-1]
        b = scorer.score_models(ds, flipped[:, :4], 5, [(None, m)])[0][0].values["inn"]
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_h1_equals_endpoint_average(self):
        ds, nbr = tiny_world(seed=7)
        m = tinynet.init_model([3, 6, 3], seed=4)
        table = scorer.score_models(ds, nbr[:, :4], 1, [(None, m)])[0][0]
        probs = m.predict_proba(ds.features)
        for i, row in enumerate(nbr):
            y = ds.observed_labels[i]
            ref = np.mean([0.5 * (probs[i, y] + probs[j, y]) for j in row])
            assert table.values["inn"][i] == pytest.approx(ref, abs=1e-12)

    def test_midpoint_mode_ignores_h(self):
        # odd H evaluates t = 1/2 explicitly, even H reuses node H/2
        ds, nbr = tiny_world(seed=8)
        m = tinynet.init_model([3, 6, 3], seed=5)
        (a,), _ = scorer.score_models(ds, nbr[:, :4], 1, [(0, m)])
        (b,), _ = scorer.score_models(ds, nbr[:, :4], 50, [(0, m)])
        np.testing.assert_array_equal(a.values["midpoint"], b.values["midpoint"])

    def test_oracle_identity_on_interpolant_model(self):
        # the segment interpolant reproduces 1/2 + matches/(2L)
        rng = np.random.default_rng(9)
        L, K = 6, 3
        points = rng.normal(size=(L + 1, 4))
        for m_matches in (0, 2, 6):
            labels = np.array([0] + [0] * m_matches + [1] * (L - m_matches))
            model = SegmentInterpolantModel(points, labels, K)
            ds = data.Dataset(points, labels, labels.copy(), K, np.arange(L + 1))
            nbr, _ = neighbors.search(neighbors.build_index(points), L)
            nbr[0] = np.arange(1, L + 1)
            table = scorer.score_models(ds, nbr[:, :L], 10, [(None, model)])[0][0]
            expected = float(oracle_inn(0, labels[1:]))
            assert table.values["inn"][0] == pytest.approx(expected, abs=1e-9)

    def test_missing_sets_rejected(self):
        ds, nbr = tiny_world(seed=10)
        m = tinynet.init_model([3, 6, 3], seed=6)
        with pytest.raises(ValueError):
            scorer.score_models(ds, nbr[:-1, :4], 5, [(None, m)])
        segments = scorer.segment_scores(ds, nbr, 5, [(None, m)])
        with pytest.raises(ValueError):
            scorer.summarize(ds, [(None, m)], segments, 9)


def reference_scores(model, ds, nbr, H, L):
    """inn, midpoint and the four consistency means, one probe at a time."""
    X, y = ds.features, ds.observed_labels
    nbr = nbr[:, :L]
    inn = np.array([
        np.mean([scorer.segment_integral(model, X[i], X[j], y[i], H) for j in nbr[i]])
        for i in range(ds.n)
    ])
    mids = np.array([
        [model.predict_proba(0.5 * (X[i] + X[j]))[0, y[i]] for j in nbr[i]] for i in range(ds.n)
    ])
    idx = np.arange(ds.n)
    p_self = model.predict_proba(X)[idx, y]
    p_mid = model.predict_proba(0.5 * (X + X[nbr[:, 0]]))[idx, y]
    clean = ds.clean_mask()
    means = [
        float(v[mask].mean()) if mask.any() else None
        for v, mask in ((p_self, clean), (p_self, ~clean), (p_mid, clean), (p_mid, ~clean))
    ]
    return inn, mids.mean(axis=1), means


def assert_matches_reference(tables, stats, checkpoints, ds, nbr, H, L):
    for table, st_, (epoch, model) in zip(tables, stats, checkpoints):
        inn, mid, means = reference_scores(model, ds, nbr, H, L)
        assert table.epoch == st_.epoch == epoch
        np.testing.assert_allclose(table.values["inn"], inn, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.values["midpoint"], mid, rtol=0, atol=1e-12)
        for got, want in zip((st_.e_cor, st_.e_inc, st_.em_cor, st_.em_inc), means):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= 1e-12


class TestScoreModels:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_unique=st.integers(2, 9),
        n_dup=st.integers(0, 4),
        d=st.integers(1, 3),
        K=st.integers(2, 4),
        L=st.integers(1, 5),
        H=st.integers(1, 12),
        n_ckpt=st.integers(1, 3),
        lift=st.booleans(),
    )
    def test_matches_oracle(self, seed, n_unique, n_dup, d, K, L, H, n_ckpt, lift):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_unique, d))
        # repeated rows give zero-length segments
        X = np.vstack([X, X[rng.integers(0, n_unique, size=n_dup)]])
        n = X.shape[0]
        L = min(L, n - 1)
        ds = data.Dataset(X, rng.integers(0, K, n), rng.integers(0, K, n), K, np.arange(n) + 7)
        nbr, _ = neighbors.search(neighbors.build_index(X), L)
        if lift:
            # checkpoints of one run: a shared frozen lift, later layers moved
            base = tinynet.init_model([d, 8, 5, K], seed=seed % 1000, lift_freq=2.0)
            checkpoints = []
            for c in range(n_ckpt):
                m = base.copy()
                for layer in (1, 2):
                    m.weights[layer] += rng.normal(scale=0.5, size=m.weights[layer].shape)
                checkpoints.append((10 * c, m))
        else:
            checkpoints = [
                (c, tinynet.init_model([d, 6, K], seed=seed % 1000 + c)) for c in range(n_ckpt)
            ]
        tables, stats = scorer.score_models(ds, nbr[:, :L], H, checkpoints)
        assert_matches_reference(tables, stats, checkpoints, ds, nbr, H, L)

    def test_different_lifts_use_their_own(self):
        ds, nbr = tiny_world(n=30, seed=15)
        a = tinynet.init_model([3, 8, 5, 3], seed=1, lift_freq=2.0)
        b = tinynet.init_model([3, 8, 5, 3], seed=2, lift_freq=2.0)
        # only the frozen lift tells the two models apart
        b.weights[1:] = [w.copy() for w in a.weights[1:]]
        b.biases[1:] = [v.copy() for v in a.biases[1:]]
        checkpoints = [(1, a), (2, b)]
        tables, stats = scorer.score_models(ds, nbr[:, :3], 4, checkpoints)
        assert_matches_reference(tables, stats, checkpoints, ds, nbr, 4, 3)
        assert not np.allclose(tables[0].values["inn"], tables[1].values["inn"])

    def test_without_true_labels_stats_are_none(self):
        ds, nbr = tiny_world(seed=16)
        ds = data.Dataset(ds.features, ds.observed_labels, None, ds.n_classes, ds.ids)
        m = tinynet.init_model([3, 6, 3], seed=7)
        tables, stats = scorer.score_models(ds, nbr[:, :2], 3, [(5, m)])
        assert stats == [None]
        assert tables[0].kinds() == ["inn", "midpoint"]

    def test_peak_memory_flat_in_n(self):
        def peak(n):
            ds = data.corrupt_symmetric(data.synth("blobs", n, 3, 2, 0.5, seed=0), 0.3, 1)
            nbr, _ = neighbors.search(neighbors.build_index(ds.features), 10)
            m = tinynet.init_model([2, 64, 32, 3], seed=1, lift_freq=2.0)
            tracemalloc.start()
            try:
                scorer.score_models(ds, nbr[:, :10], 10, [(0, m)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(400), peak(1600)
        assert large < 2 * small, (small, large)


class CountingModel:
    """Linear softmax that records how many rows each call evaluates."""

    def __init__(self, d, K, seed):
        self.coef = np.random.default_rng(seed).normal(size=(d, K))
        self.calls = []

    def predict_proba(self, X):
        X = np.atleast_2d(X)
        self.calls.append(X.shape[0])
        logits = X @ self.coef
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


class TestEdges:
    def test_symmetric_table_evaluates_each_segment_once(self):
        # a ring: i lists i + 1 and i - 1, so every segment is listed from both ends
        n, L, H = 10, 2, 10
        rng = np.random.default_rng(17)
        ds = data.Dataset(rng.normal(size=(n, 3)), rng.integers(0, 3, n),
                          rng.integers(0, 3, n), 3, np.arange(n))
        rows = np.arange(n)
        nbr = np.column_stack([(rows + 1) % n, (rows - 1) % n])
        model = CountingModel(3, 3, seed=18)
        tables, stats = scorer.score_models(ds, nbr[:, :L], H, [(0, model)])
        E, T = n, H - 1
        assert model.calls[0] == n  # the samples, every segment's endpoints
        assert sum(model.calls[1:]) == E * T == n * L * T // 2
        assert_matches_reference(tables, stats, [(0, model)], ds, nbr, H, L)


class TestRotateSin:
    @settings(max_examples=200, deadline=None)
    @given(
        z_a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
        step=st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.floats(-1e3, 1e3)),
        H=st.integers(1, 12),
    )
    def test_matches_sin_of_interpolated_argument(self, z_a, step, H):
        """Within u(4 + 8k + 6(|z_a| + |z_b|)) at node k, u = 2^-53, as
        derived in the docstring of scorer.rotate_sin."""
        z_a = np.array(z_a)
        z_b = np.clip(z_a + step, -1e3, 1e3)
        # one spare node: the engine keeps t = 1/2 there for odd H
        out = np.full((z_a.size, H), 7.0)
        assert scorer.rotate_sin(np.sin(z_a), np.cos(z_a), z_a, z_b, H, out) is out
        np.testing.assert_array_equal(out[:, H - 1], 7.0)
        t = np.arange(H + 1) / H
        for k in range(1, H):
            direct = np.sin((1.0 - t[k]) * z_a + t[k] * z_b)
            bound = 2.0**-53 * (4 + 8 * k + 6 * (np.abs(z_a) + np.abs(z_b)))
            assert (np.abs(out[:, k - 1] - direct) <= bound).all()


class TestSegmentScores:
    @pytest.mark.parametrize("lift", [False, True])
    def test_prefix_means_match_separate_passes(self, lift):
        ds, nbr = tiny_world(n=60, seed=19, L=6)
        dims = [3, 8, 5, 3] if lift else [3, 6, 3]
        model = tinynet.init_model(dims, seed=4, lift_freq=2.0 if lift else 0.0)
        (seg,) = scorer.segment_scores(ds, nbr[:, :6], 7, [(0, model)])
        assert seg.inn.shape == seg.midpoint.shape == (ds.n, 6)
        for L in range(1, 7):
            (table,), _ = scorer.score_models(ds, nbr[:, :L], 7, [(0, model)])
            np.testing.assert_allclose(seg.inn[:, :L].mean(axis=1), table.values["inn"],
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(seg.midpoint[:, :L].mean(axis=1),
                                       table.values["midpoint"], rtol=0, atol=1e-15)


class TestConsistencyStats:
    def test_one_hot_observed_predictor(self):
        ds, nbr = tiny_world(n=20, seed=11)

        class Oracle:
            def predict_proba(self, X):
                X = np.atleast_2d(X)
                # nearest training sample's observed label as a one-hot
                d2 = ((X[:, None, :] - ds.features[None]) ** 2).sum(axis=2)
                out = np.zeros((X.shape[0], ds.n_classes))
                out[np.arange(X.shape[0]), ds.observed_labels[d2.argmin(axis=1)]] = 1.0
                return out

        st = scorer.score_models(ds, nbr[:, :1], 1, [(None, Oracle())])[1][0]
        assert st.e_cor == pytest.approx(1.0)
        assert st.e_inc == pytest.approx(1.0)

    def test_constant_uniform(self):
        ds, nbr = tiny_world(n=20, seed=12)
        st = scorer.score_models(ds, nbr[:, :1], 1, [(None, ConstantModel(np.full(3, 1 / 3)))])[1][0]
        for v in (st.e_cor, st.e_inc, st.em_cor, st.em_inc):
            assert v == pytest.approx(1 / 3)
        assert st.missing == ()

    def test_all_clean_flags_missing_group(self):
        ds = data.synth("blobs", 15, 3, 2, 0.4, seed=13)
        nbr, _ = neighbors.search(neighbors.build_index(ds.features), 2)
        st = scorer.score_models(ds, nbr[:, :1], 1, [(None, ConstantModel(np.full(3, 1 / 3)))])[1][0]
        assert st.missing == ("noisy",)
        assert st.e_inc is None


class TestScoreCSV:
    def test_roundtrip(self, tmp_path):
        ids = np.arange(5, dtype=np.int64) + 10
        t1 = scorer.ScoreTable(50, ids).add("inn", np.linspace(0.1, 0.9, 5))
        t1.add("loss_ce", np.linspace(2.0, 0.5, 5))
        t2 = scorer.ScoreTable(100, ids).add("inn", np.linspace(0.2, 0.8, 5))
        path = scorer.write_score_csv([t1, t2], tmp_path / "scores.csv")
        back = scorer.read_score_csv(path)
        assert [t.epoch for t in back] == [50, 100]
        assert np.array_equal(back[0].ids, ids)
        np.testing.assert_array_equal(back[0].values["inn"], t1.values["inn"])
        np.testing.assert_array_equal(back[0].values["loss_ce"], t1.values["loss_ce"])
        np.testing.assert_array_equal(back[1].values["inn"], t2.values["inn"])

    def test_rejects_row_with_wrong_field_count(self, tmp_path):
        ids = np.arange(3, dtype=np.int64)
        path = scorer.write_score_csv(
            [scorer.ScoreTable(1, ids).add("inn", np.full(3, 0.5))], tmp_path / "scores.csv"
        )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("3,1,inn\n")
        with pytest.raises(ValueError, match="line 5"):
            scorer.read_score_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,value\n1,0.5\n")
        with pytest.raises(ValueError):
            scorer.read_score_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_rejects_non_finite_value(self, tmp_path, value):
        path = tmp_path / "scores.csv"
        path.write_text(f"id,epoch,score_kind,value\n0,1,inn,0.5\n1,1,inn,{value}\n")
        with pytest.raises(ValueError, match="line 3: .* is not a finite number"):
            scorer.read_score_csv(path)

    @pytest.mark.parametrize("body, shown", [
        ("\n\n", "line 4: no rows after the header"),
        ("0,1,inn,0.5\n0,1,inn,0.6\n", "line 3: id 0 already on line 2"),
        ("0,1,inn,0.5\n1,1,inn,0.6\n1,2,inn,0.5\n0,2,inn,0.6\n", "line 4: inn at epoch 2"),
        ("0,1,inn,0.5\n1,1,inn,0.6\n0,1,midpoint,0.5\n", "line 4: midpoint at epoch 1"),
    ])
    def test_rejects_columns_out_of_step(self, tmp_path, body, shown):
        path = tmp_path / "scores.csv"
        path.write_text("id,epoch,score_kind,value\n" + body)
        with pytest.raises(ValueError, match=shown):
            scorer.read_score_csv(path)
