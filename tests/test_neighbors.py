"""Exact nearest-neighbor retrieval against a brute-force sort oracle."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_knn as brute_force
from innscore import data, neighbors
from innscore._records import read_rows


class TestQuery:
    def test_two_points(self):
        F = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert neighbors.query(F, 0, 1)[0].tolist() == [1]
        assert neighbors.query(F, 1, 1)[0].tolist() == [0]

    def test_duplicates_allowed_self_excluded(self):
        F = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        ids, dist = neighbors.query(F, 0, 2)
        assert ids.tolist() == [1, 2]
        assert dist[0] == 0.0

    def test_collinear_hand_case(self):
        F = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        ids, _ = neighbors.query(F, 0, 2)
        assert ids.tolist() == [1, 2]

    def test_tie_break_by_smaller_id(self):
        # all four corners of a square are equidistant from the center
        F = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
        ids, _ = neighbors.query(F, 4, 3)
        assert ids.tolist() == [0, 1, 2]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(20, 200))
            F = rng.normal(size=(n, int(rng.integers(2, 8))))
            for L in (1, 5, 10):
                for i in rng.integers(0, n, size=8):
                    got_ids, got_dist = neighbors.query(F, int(i), L)
                    ids, dist = brute_force(F, int(i), L)
                    assert np.array_equal(got_ids, ids)
                    assert np.array_equal(got_dist, dist)

    def test_bounds(self):
        F = np.random.default_rng(1).normal(size=(5, 2))
        with pytest.raises(ValueError):
            neighbors.query(F, 0, 5)
        with pytest.raises(ValueError):
            neighbors.query(F, 0, 0)
        with pytest.raises(ValueError):
            neighbors.query(F, 9, 1)


class TestIndex:
    """The feature matrix that `search` and `query` index."""

    def test_rejects_nonfinite(self):
        F = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            neighbors.search(F, 1)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            neighbors.search(np.zeros((1, 3)), 1)

    def test_symmetric_distance(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(40, 5))
        d_ab = np.sqrt(((F - F[3]) ** 2).sum(axis=1))[17]
        d_ba = np.sqrt(((F - F[17]) ** 2).sum(axis=1))[3]
        assert abs(d_ab - d_ba) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(60, 4))
        perm = rng.permutation(60)
        inv = np.empty(60, dtype=int)
        inv[perm] = np.arange(60)
        for i in (0, 7, 33):
            a, _ = neighbors.query(F, i, 5)
            b, _ = neighbors.query(F[perm], int(inv[i]), 5)
            assert np.array_equal(perm[b], a)


def _search_peak_memory(n):
    """Peak traced bytes of a search of n normal rows in 8 dimensions."""
    F = np.random.default_rng(0).normal(size=(n, 8))
    tracemalloc.start()
    try:
        neighbors.search(F, 10)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSearch:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_unique=st.integers(2, 40),
        n_dup=st.integers(0, 20),
        p=st.integers(1, 128),
        grid=st.booleans(),
        # fractional offsets round the Gram form of exactly tied grid distances
        offset=st.sampled_from([0.0, 0.5, 1e3 + 0.1, 123456.789, 1e6, 1e6 + 0.37])
        | st.floats(0.0, 1e6),
        L=st.integers(1, 12),
        chunk=st.integers(1, 4096),
    )
    def test_matches_oracle(self, seed, n_unique, n_dup, p, grid, offset, L, chunk):
        rng = np.random.default_rng(seed)
        if grid:  # integer coordinates: many exact distance ties
            X = rng.integers(-2, 3, size=(n_unique, p)).astype(np.float64)
        else:
            X = rng.normal(size=(n_unique, p))
        # repeated rows are neighbors at distance 0
        F = np.vstack([X, X[rng.integers(0, n_unique, size=n_dup)]]) + offset
        L = min(L, F.shape[0] - 1)
        # small chunks split the rows into many blocks and recheck passes
        with mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
            ids, dist = neighbors.search(F, L)
        assert ids.dtype == np.int64 and ids.shape == dist.shape == (F.shape[0], L)
        for i in range(F.shape[0]):
            want_ids, want_dist = brute_force(F, i, L)
            assert np.array_equal(ids[i], want_ids)
            assert np.array_equal(dist[i], want_dist)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 90),
        p=st.integers(1, 12),
        kind=st.sampled_from(["clustered", "manifold", "grid", "ties"]),
        offset=st.sampled_from([0.0, 0.5, 1e3 + 0.1, 123456.789, 1e6, 1e6 + 0.37])
        | st.floats(0.0, 1e6),
        L=st.integers(1, 12),
        leaf_rows=st.integers(2, 12),
        chunk=st.sampled_from([7, 60, 200]),
    )
    def test_pruned_search_matches_oracle(self, seed, n, p, kind, offset, L, leaf_rows, chunk):
        """Small leaves and chunks split the rows many times, so that leaves are
        pruned, and the result is the oracle's at every pool size."""
        rng = np.random.default_rng(seed)
        if kind == "clustered":
            centers = rng.normal(scale=10.0, size=(3, p))
            F = centers[rng.integers(0, 3, size=n)] + rng.normal(scale=0.1, size=(n, p))
        elif kind == "manifold":  # a 2-D surface in p dimensions
            F = np.sin(rng.normal(size=(n, 2)) @ rng.normal(size=(2, p)))
        elif kind == "grid":  # integer coordinates: many exact distance ties
            F = rng.integers(-3, 4, size=(n, p)).astype(np.float64)
        else:  # repeated grid rows and a collapsed group of all-zero rows
            F = rng.integers(-1, 2, size=(n, p)).astype(np.float64)
            F[rng.random(n) < 0.4] = 0.0
            F = F[rng.integers(0, n, size=n)]
        F += offset
        L = min(L, n - 1)
        with mock.patch.object(neighbors, "_LEAF_ROWS", leaf_rows), \
                mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
            runs = [neighbors.search(F, L, threads) for threads in (1, 2, 4)]
        for i in range(n):
            want_ids, want_dist = brute_force(F, i, L)
            for ids, dist in runs:
                assert np.array_equal(ids[i], want_ids)
                assert np.array_equal(dist[i], want_dist)

    @pytest.mark.parametrize("n, leaf_rows, chunk, most", [
        (2, 2, 1, 2), (3, 2, 1, 2), (17, 2, 1, 2), (100, 7, 1, 7), (100, 7, 2000, 20),
        (512, 96, 1 << 17, 512),  # two blocks of pairs at most: one leaf
        (1600, 96, 1 << 17, 96), (8000, 96, 1 << 17, 96),
    ])
    def test_leaves_split_the_rows(self, n, leaf_rows, chunk, most):
        """Every level halves every node, until leaves hold at most the larger of
        leaf_rows and the rows whose pairs with all n fit one chunk."""
        F = np.random.default_rng(n).normal(size=(n, 3))
        with mock.patch.object(neighbors, "_LEAF_ROWS", leaf_rows), \
                mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
            order, levels = neighbors._tree(F)
        assert sorted(order) == list(range(n))
        for depth, bounds in enumerate(levels):
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n and sizes.size == 2**depth
            assert sizes.max() - sizes.min() <= 1
        assert 1 <= np.diff(levels[-1]).min() and np.diff(levels[-1]).max() <= most
        assert len(levels) == 1 or np.diff(levels[-2]).max() > most

    def test_peak_memory_flat_in_n(self):
        small, large = _search_peak_memory(400), _search_peak_memory(1600)
        assert large < 2 * small, (small, large)

    def test_peak_memory_flat_in_n_split_leaves(self):
        """The same at sizes where both searches split the rows into many
        leaves: 32 and 128 leaves of 62-63 rows at the default sizes."""
        small, large = _search_peak_memory(2000), _search_peak_memory(8000)
        assert large < 2 * small, (small, large)

    def test_bounds(self):
        F = np.random.default_rng(1).normal(size=(5, 2))
        for L in (0, 5):
            with pytest.raises(ValueError):
                neighbors.search(F, L)

    def test_rejects_overflowing_features(self):
        with pytest.raises(ValueError, match="overflow"):
            neighbors.search(np.array([[1e200, 0.0], [0.0, 1.0]]), 1)


class TestHelpers:
    def test_neighbor_sets_attach_labels(self):
        ds = data.synth("blobs", 30, 3, 2, 0.2, seed=0)
        ids, _ = neighbors.search(ds.features, 4)
        labels = ds.observed_labels[ids]
        assert len(labels) == 30
        for i in range(30):
            ids_i, _ = neighbors.query(ds.features, i, 4)
            assert np.array_equal(labels[i], ds.observed_labels[ids_i])

    def test_cache_roundtrip(self, tmp_path):
        """The writer's table, read back by the generic CSV reader."""
        ds = data.synth("blobs", 25, 2, 2, 0.2, seed=1)
        ds_ids = ds.ids + 1000  # non-contiguous ids must survive
        ids, dist = neighbors.search(ds.features, 3)
        path = neighbors.write_cache(ids, dist, ds_ids, tmp_path / "nn.csv")
        _, rows = read_rows(path, ["id", "n1", "n2", "n3", "d1", "d2", "d3"],
                            {"id": int, "n": int, "d": float})
        assert [cells[0] for _, cells in rows] == ds_ids.tolist()
        assert np.array_equal([cells[1:4] for _, cells in rows], ds_ids[ids])
        assert np.array_equal([cells[4:] for _, cells in rows], dist)  # repr is exact
