"""Dataset generation, corruption protocols and file formats."""

import numpy as np
import pytest

from innscore import data


def one_nn_accuracy(ds):
    """Leave-one-out 1-NN vote on true labels; the oracle for blob separability."""
    hits = 0
    for i in range(ds.n):
        d2 = ((ds.features - ds.features[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        hits += ds.true_labels[d2.argmin()] == ds.true_labels[i]
    return hits / ds.n


class TestSynth:
    def test_deterministic(self):
        a = data.synth("blobs", 100, 3, 2, 0.3, seed=5)
        b = data.synth("blobs", 100, 3, 2, 0.3, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.observed_labels, b.observed_labels)

    def test_one_point_per_class(self):
        ds = data.synth("blobs", 4, 4, 2, 0.1, seed=0)
        assert sorted(ds.observed_labels.tolist()) == [0, 1, 2, 3]

    def test_tight_blobs_are_1nn_separable(self):
        ds = data.synth("blobs", 2000, 4, 2, 0.1, seed=1)
        assert one_nn_accuracy(ds) >= 0.99

    def test_two_moons_is_binary_only(self):
        ds = data.synth("two_moons", 100, 2, 3, 0.05, seed=2)
        assert ds.n_classes == 2 and ds.d == 3
        with pytest.raises(ValueError):
            data.synth("two_moons", 100, 3, 2, 0.05, seed=2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            data.synth("blobs", 2, 4, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            data.synth("blobs", 10, 2, 1, 0.1, seed=0)
        with pytest.raises(ValueError):
            data.synth("rings", 10, 2, 2, 0.1, seed=0)


class TestSymmetricNoise:
    def test_rate_zero_is_identity(self):
        ds = data.synth("blobs", 500, 4, 2, 0.3, seed=0)
        out = data.corrupt(ds, "symmetric", 0.0, seed=1)
        assert np.array_equal(out.observed_labels, ds.observed_labels)

    def test_rate_one_flips_k_minus_1_over_k(self):
        # label drawn uniformly over all K classes, so ~1/K stay clean
        ds = data.synth("blobs", 100_000, 10, 2, 0.3, seed=0)
        out = data.corrupt(ds, "symmetric", 1.0, seed=1)
        assert abs(out.noisy_fraction() - 0.9) < 0.01

    def test_rate_point_three(self):
        ds = data.synth("blobs", 100_000, 10, 2, 0.3, seed=0)
        out = data.corrupt(ds, "symmetric", 0.3, seed=1)
        assert abs(out.noisy_fraction() - 0.27) < 0.01

    def test_never_mutates_inputs(self):
        ds = data.synth("blobs", 200, 4, 2, 0.3, seed=0)
        feats = ds.features.copy()
        trues = ds.true_labels.copy()
        data.corrupt(ds, "symmetric", 0.5, seed=1)
        assert np.array_equal(ds.features, feats)
        assert np.array_equal(ds.true_labels, trues)

    def test_order_independent_per_id(self):
        ds = data.synth("blobs", 300, 4, 2, 0.3, seed=0)
        perm = np.random.default_rng(9).permutation(ds.n)
        shuffled = ds.subset(perm)
        a = data.corrupt(ds, "symmetric", 0.4, seed=7)
        b = data.corrupt(shuffled, "symmetric", 0.4, seed=7)
        by_id = dict(zip(b.ids.tolist(), b.observed_labels.tolist()))
        assert all(by_id[i] == lab for i, lab in zip(a.ids.tolist(), a.observed_labels.tolist()))

    def test_subset_does_not_change_other_samples(self):
        ds = data.synth("blobs", 300, 4, 2, 0.3, seed=0)
        full = data.corrupt(ds, "symmetric", 0.4, seed=7)
        half = data.corrupt(ds.subset(np.arange(150)), "symmetric", 0.4, seed=7)
        assert np.array_equal(full.observed_labels[:150], half.observed_labels)


class TestAsymmetricNoise:
    def test_chain_rate_one(self):
        ds = data.synth("blobs", 500, 5, 2, 0.3, seed=0)
        out = data.corrupt(ds, "chain", 1.0, seed=3)
        assert np.array_equal(out.observed_labels, (ds.true_labels + 1) % 5)

    def test_map_rate_one_moves_only_domain(self):
        ds = data.synth("blobs", 600, 3, 2, 0.3, seed=0)
        out = data.corrupt(ds, "map", 1.0, seed=3, mapping={0: 1})
        was_zero = ds.true_labels == 0
        assert np.all(out.observed_labels[was_zero] == 1)
        assert np.array_equal(out.observed_labels[~was_zero], ds.observed_labels[~was_zero])

    def test_chain_realized_rate(self):
        ds = data.synth("blobs", 100_000, 100, 2, 0.3, seed=0)
        out = data.corrupt(ds, "chain", 0.2, seed=3)
        assert abs(out.noisy_fraction() - 0.20) < 0.01

    def test_map_label_out_of_range(self):
        ds = data.synth("blobs", 50, 3, 2, 0.3, seed=0)
        with pytest.raises(ValueError):
            data.corrupt(ds, "map", 0.5, seed=0, mapping={0: 7})

    def test_pairwise_swap_map(self):
        # the cat<->dog style bidirectional mapping
        ds = data.synth("blobs", 2000, 4, 2, 0.3, seed=0)
        out = data.corrupt(ds, "map", 1.0, seed=1, mapping={2: 3, 3: 2})
        assert np.all(out.observed_labels[ds.true_labels == 2] == 3)
        assert np.all(out.observed_labels[ds.true_labels == 3] == 2)


class TestImbalanced:
    def test_construction_sizes(self):
        ds = data.synth("blobs", 10_000, 2, 2, 0.3, seed=0)  # 5000 per class
        out = data.build_imbalanced(ds, 0, 1, 0.1, 0.3, seed=4)
        n_major = int((out.true_labels == 0).sum())
        n_minor = int((out.true_labels == 1).sum())
        assert n_major == 5000
        assert abs(n_minor - 500) < 80

    def test_flip_p_zero(self):
        ds = data.synth("blobs", 1000, 2, 2, 0.3, seed=0)
        out = data.build_imbalanced(ds, 0, 1, 0.5, 0.0, seed=4)
        assert np.array_equal(out.observed_labels, out.true_labels)

    def test_all_four_groups_and_flip_fraction(self):
        ds = data.synth("blobs", 20_000, 2, 2, 0.3, seed=0)
        out = data.build_imbalanced(ds, 0, 1, 0.1, 0.3, seed=4)
        for ys in (0, 1):
            group = out.true_labels == ys
            flipped = (out.observed_labels != out.true_labels)[group].mean()
            assert abs(flipped - 0.30) < 0.02
        for ys in (0, 1):
            for y in (0, 1):
                assert (((out.true_labels == ys) & (out.observed_labels == y))).any()

    def test_class_must_be_present(self):
        ds = data.synth("blobs", 100, 2, 2, 0.3, seed=0)
        with pytest.raises(ValueError):
            data.build_imbalanced(ds, 0, 5, 0.1, 0.3, seed=0)
        with pytest.raises(ValueError):
            data.build_imbalanced(ds, 1, 1, 0.1, 0.3, seed=0)


class TestFileFormats:
    def test_csv_roundtrip_exact(self, tmp_path):
        ds = data.corrupt(data.synth("blobs", 120, 3, 4, 0.3, seed=0), "symmetric", 0.3, seed=1)
        path = tmp_path / "ds.csv"
        data.write_csv(ds, path)
        back = data.read_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.observed_labels, ds.observed_labels)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.array_equal(back.ids, ds.ids)

    def test_csv_without_true_labels(self, tmp_path):
        ds = data.synth("blobs", 30, 2, 2, 0.3, seed=0)
        ds = data.Dataset(ds.features, ds.observed_labels, None, 2, ds.ids)
        path = tmp_path / "ds.csv"
        data.write_csv(ds, path)
        back = data.read_csv(path)
        assert back.true_labels is None

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            data.read_csv(path)

    @pytest.mark.parametrize("row, shown", [
        ("1,0.5,1", "3 fields, the header has 4"),
        ("1,0.5,0.25,1,0", "5 fields"),
        ("1,nan,0.25,1", "not a finite number"),
        ("1,0.5,-inf,1", "not a finite number"),
        ("1,1e400,0.25,1", "not a finite number"),
        ("1,0.5,abc,1", "could not convert"),
        ("1,0.5,0.25,1.0", "invalid literal"),
        ("x,0.5,0.25,1", "invalid literal"),
        ("0,0.5,0.25,1", "id 0 already on line 2"),
    ])
    def test_csv_rejects_bad_line(self, tmp_path, row, shown):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,f0,f1,label\n0,0.1,0.2,0\n{row}\n2,0.3,0.4,1\n")
        with pytest.raises(ValueError, match="line 3") as err:
            data.read_csv(path)
        assert shown in str(err.value)


class TestDatasetInvariants:
    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            data.Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), None, 3, np.arange(3))

    def test_clean_mask_requires_true_labels(self):
        ds = data.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), None, 2, np.arange(3))
        with pytest.raises(ValueError):
            ds.clean_mask()

    def test_keyed_uniform_in_unit_interval(self):
        u = data.keyed_uniform(123, np.arange(10_000), salt=7)
        assert u.min() >= 0.0 and u.max() < 1.0
        # crude uniformity check
        assert abs(u.mean() - 0.5) < 0.02
