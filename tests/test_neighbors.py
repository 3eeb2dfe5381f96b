"""Exact nearest-neighbor retrieval against a brute-force sort oracle."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_knn as brute_force
from innscore import data, neighbors


class TestQuery:
    def test_two_points(self):
        idx = neighbors.build_index(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert neighbors.query(idx, 0, 1).ids.tolist() == [1]
        assert neighbors.query(idx, 1, 1).ids.tolist() == [0]

    def test_duplicates_allowed_self_excluded(self):
        F = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        s = neighbors.query(neighbors.build_index(F), 0, 2)
        assert s.ids.tolist() == [1, 2]
        assert s.distances[0] == 0.0

    def test_collinear_hand_case(self):
        F = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        s = neighbors.query(neighbors.build_index(F), 0, 2)
        assert s.ids.tolist() == [1, 2]

    def test_tie_break_by_smaller_id(self):
        # all four corners of a square are equidistant from the center
        F = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
        s = neighbors.query(neighbors.build_index(F), 4, 3)
        assert s.ids.tolist() == [0, 1, 2]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(20, 200))
            F = rng.normal(size=(n, int(rng.integers(2, 8))))
            idx = neighbors.build_index(F)
            for L in (1, 5, 10):
                for i in rng.integers(0, n, size=8):
                    got = neighbors.query(idx, int(i), L)
                    ids, dist = brute_force(F, int(i), L)
                    assert np.array_equal(got.ids, ids)
                    assert np.array_equal(got.distances, dist)

    def test_bounds(self):
        idx = neighbors.build_index(np.random.default_rng(1).normal(size=(5, 2)))
        with pytest.raises(ValueError):
            neighbors.query(idx, 0, 5)
        with pytest.raises(ValueError):
            neighbors.query(idx, 0, 0)
        with pytest.raises(ValueError):
            neighbors.query(idx, 9, 1)


class TestIndex:
    def test_rejects_nonfinite(self):
        F = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            neighbors.build_index(F)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            neighbors.build_index(np.zeros((1, 3)))

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
        idx_a = neighbors.build_index(F)
        idx_b = neighbors.build_index(F[perm])
        inv = np.empty(60, dtype=int)
        inv[perm] = np.arange(60)
        for i in (0, 7, 33):
            a = neighbors.query(idx_a, i, 5)
            b = neighbors.query(idx_b, int(inv[i]), 5)
            assert np.array_equal(perm[b.ids], a.ids)


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
            ids, dist = neighbors.search(neighbors.build_index(F), L)
        assert ids.dtype == np.int64 and ids.shape == dist.shape == (F.shape[0], L)
        for i in range(F.shape[0]):
            want_ids, want_dist = brute_force(F, i, L)
            assert np.array_equal(ids[i], want_ids)
            assert np.array_equal(dist[i], want_dist)

    def test_peak_memory_flat_in_n(self):
        def peak(n):
            index = neighbors.build_index(np.random.default_rng(0).normal(size=(n, 8)))
            tracemalloc.start()
            try:
                neighbors.search(index, 10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(400), peak(1600)
        assert large < 2 * small, (small, large)

    def test_bounds(self):
        idx = neighbors.build_index(np.random.default_rng(1).normal(size=(5, 2)))
        for L in (0, 5):
            with pytest.raises(ValueError):
                neighbors.search(idx, L)

    def test_rejects_overflowing_features(self):
        with pytest.raises(ValueError, match="overflow"):
            neighbors.build_index(np.array([[1e200, 0.0], [0.0, 1.0]]))


class TestHelpers:
    def test_neighbor_sets_attach_labels(self):
        ds = data.synth("blobs", 30, 3, 2, 0.2, seed=0)
        idx = neighbors.build_index(ds.features)
        ids, _ = neighbors.search(idx, 4)
        labels = ds.observed_labels[ids]
        assert len(labels) == 30
        for i in range(30):
            assert np.array_equal(labels[i], ds.observed_labels[neighbors.query(idx, i, 4).ids])

    def test_cache_roundtrip(self, tmp_path):
        ds = data.synth("blobs", 25, 2, 2, 0.2, seed=1)
        ds_ids = ds.ids + 1000  # non-contiguous ids must survive
        idx = neighbors.build_index(ds.features)
        ids, dist = neighbors.search(idx, 3)
        path = neighbors.write_cache(ids, dist, ds_ids, tmp_path / "nn.csv")
        back_ids, back_dist = neighbors.read_cache(path, ds_ids)
        assert np.array_equal(ids, back_ids)
        assert np.array_equal(dist, back_dist)

    def test_cache_rows_in_any_order(self, tmp_path):
        ds = data.synth("blobs", 12, 2, 2, 0.2, seed=2)
        ids, dist = neighbors.search(neighbors.build_index(ds.features), 3)
        path = neighbors.write_cache(ids, dist, ds.ids, tmp_path / "nn.csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        back_ids, back_dist = neighbors.read_cache(path, ds.ids)
        assert np.array_equal(ids, back_ids) and np.array_equal(dist, back_dist)

    @pytest.mark.parametrize(
        "edit, shown",
        [
            (lambda c: c[:4] + ["nan"] + c[5:], "line 3: a distance is not finite, >= 0"),
            (lambda c: c[:6] + ["inf"], "line 3: a distance is not finite, >= 0"),
            (lambda c: c[:4] + ["-1.0"] + c[5:], "line 3: a distance is not finite, >= 0"),
            (lambda c: c[:4] + [c[6], c[5], c[4]], "line 3: distances decrease"),
            (lambda c: [c[0], c[0]] + c[2:], "line 3: the row lists its own id"),
            (lambda c: [c[0], c[2]] + c[2:], "line 3: the row lists one neighbor twice"),
            (lambda c: ["1000"] + c[1:], "line 3: the id already has a row"),
            (lambda c: c[:-1], "line 3: expected 7 fields"),
            (lambda c: [c[0], "77"] + c[2:], "line 3: id 77 is not in the dataset"),
        ],
    )
    def test_cache_reader_rejects(self, tmp_path, edit, shown):
        ds = data.synth("blobs", 10, 2, 2, 0.2, seed=3)
        ds_ids = ds.ids + 1000
        ids, dist = neighbors.search(neighbors.build_index(ds.features), 3)
        path = neighbors.write_cache(ids, dist, ds_ids, tmp_path / "nn.csv")
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=shown):
            neighbors.read_cache(path, ds_ids)

    def test_cache_reader_rejects_missing_row_and_short_table(self, tmp_path):
        ds = data.synth("blobs", 10, 2, 2, 0.2, seed=4)
        ids, dist = neighbors.search(neighbors.build_index(ds.features), 3)
        path = neighbors.write_cache(ids, dist, ds.ids, tmp_path / "nn.csv")
        with pytest.raises(ValueError, match="line 1: 3 neighbor columns, fewer than L=4"):
            neighbors.read_cache(path, ds.ids, 4)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        with pytest.raises(ValueError, match=f"id {ds.ids[4]} has no row"):
            neighbors.read_cache(path, ds.ids)
