"""Mixture EM fits and the posterior split."""

import numpy as np
import pytest

from innscore import mixture


def beta_sample(rng, n):
    """1000ish draws from the reference half-and-half beta mixture."""
    lo = rng.beta(2, 8, size=n // 2)
    hi = rng.beta(8, 2, size=n - n // 2)
    x = np.concatenate([lo, hi])
    labels = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)])
    perm = rng.permutation(n)
    return x[perm], labels[perm]


class TestNormalize:
    def test_two_values_hit_clamped_endpoints(self):
        out, degenerate = mixture.normalize_scores(np.array([0.2, 0.8]))
        np.testing.assert_allclose(out, [1e-4, 1 - 1e-4])
        assert not degenerate

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        out, _ = mixture.normalize_scores(x)
        assert np.array_equal(np.argsort(out, kind="stable"), np.argsort(x, kind="stable"))

    def test_degenerate_all_equal(self):
        out, degenerate = mixture.normalize_scores(np.full(20, 0.37))
        assert degenerate
        np.testing.assert_array_equal(out, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mixture.normalize_scores(np.array([]))


class TestBetaMixture:
    def test_recovers_reference_mixture(self):
        rng = np.random.default_rng(7)
        x, _ = beta_sample(rng, 1000)
        fit = mixture.fit_beta_mixture(x)
        means = np.sort(fit.component_means())
        assert abs(means[0] - 0.2) < 0.05
        assert abs(means[1] - 0.8) < 0.05
        assert abs(fit.weights[0] - 0.5) < 0.1
        diffs = np.diff(fit.loglik_trace)
        assert (diffs >= -1e-9).all()
        assert fit.clean_component == int(np.argmax(fit.component_means()))

    def test_separated_masses_classified(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([0.1 + 0.01 * rng.normal(size=500), 0.9 + 0.01 * rng.normal(size=500)])
        truth = np.concatenate([np.zeros(500), np.ones(500)])
        fit = mixture.fit_beta_mixture(np.clip(x, 1e-4, 1 - 1e-4))
        post_clean = fit.posterior(np.clip(x, 1e-4, 1 - 1e-4))[:, fit.clean_component]
        acc = ((post_clean > 0.5) == truth).mean()
        assert acc >= 0.99

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(9)
        x, _ = beta_sample(rng, 500)
        fit = mixture.fit_beta_mixture(x)
        post = fit.posterior(x)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mixture.fit_beta_mixture(np.linspace(0.0, 1.0, 50))

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            mixture.fit_beta_mixture(np.full(5, 0.5))


class TestGaussianMixture:
    def test_recovers_reference_mixture(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(0.1, 0.05, 500), rng.normal(2.0, 0.3, 500)])
        fit = mixture.fit_gaussian_mixture(x)
        means = np.sort(fit.component_means())
        assert abs(means[0] - 0.1) < 0.1
        assert abs(means[1] - 2.0) < 0.1
        assert (np.diff(fit.loglik_trace) >= -1e-9).all()
        # clean component is the small-loss one
        assert fit.component_means()[fit.clean_component] == means[0]

    def test_tight_cluster_flagged_degenerate(self):
        x = np.full(100, 1.5) + 1e-13 * np.arange(100)
        fit = mixture.fit_gaussian_mixture(x)
        assert fit.degenerate
        assert np.isfinite(fit.params).all()

    def test_swapped_init_same_fit_up_to_relabel(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(0.1, 0.05, 300), rng.normal(2.0, 0.3, 300)])
        init = mixture._median_split_resp(x)
        a = mixture.fit_gaussian_mixture(x, init_resp=init)
        b = mixture.fit_gaussian_mixture(x, init_resp=init[:, ::-1])
        pa = a.params[np.argsort(a.params[:, 0])]
        pb = b.params[np.argsort(b.params[:, 0])]
        np.testing.assert_allclose(pa, pb, atol=1e-6)


class TestSplit:
    def make_fit(self):
        rng = np.random.default_rng(12)
        x, labels = beta_sample(rng, 600)
        fit = mixture.fit_beta_mixture(x)
        return fit, x, labels

    def test_threshold_zero_all_labeled(self):
        fit, x, _ = self.make_fit()
        res = mixture.split(fit, x, threshold=0.0)
        assert len(res.labeled_ids) == len(x)
        assert len(res.unlabeled_ids) == 0

    def test_threshold_above_one_all_unlabeled(self):
        fit, x, _ = self.make_fit()
        res = mixture.split(fit, x, threshold=1.0 + 1e-9)
        assert len(res.labeled_ids) == 0

    def test_default_split_tracks_generator(self):
        fit, x, labels = self.make_fit()
        res = mixture.split(fit, x)
        labeled = np.isin(np.arange(len(x)), res.labeled_ids)
        # high-mean component membership recovered well
        assert (labeled == (labels == 1)).mean() >= 0.9

    def test_degenerate_fit_falls_back_to_all_labeled(self):
        scores, degenerate = mixture.normalize_scores(np.full(50, 0.2))
        assert degenerate
        fit = mixture.degenerate_fit("beta", scores)
        res = mixture.split(fit, scores)
        assert len(res.labeled_ids) == 50
        assert np.all(res.posterior == 1.0)

    def test_csv_roundtrip(self, tmp_path):
        fit, x, _ = self.make_fit()
        res = mixture.split(fit, x, ids=np.arange(len(x)) + 5)
        path = res.to_csv(tmp_path / "split.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "id,posterior,assignment"
        assert len(lines) == len(x) + 1
        assert lines[1].startswith("5,")
        ids, post, labeled = mixture.read_split_csv(path)
        assert np.array_equal(ids, res.ids)
        np.testing.assert_array_equal(post, res.posterior)
        assert np.array_equal(np.sort(ids[labeled]), np.sort(res.labeled_ids))

    def test_fit_json(self, tmp_path):
        import json

        fit, _, _ = self.make_fit()
        path = fit.to_json(tmp_path / "fit.json")
        loaded = json.loads(open(path).read())
        assert loaded["kind"] == "beta"
        assert loaded["n_iters"] == len(loaded["loglik_trace"])
        assert loaded["final_loglik"] == loaded["loglik_trace"][-1]
