"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 are exact or distribution-recovery checks against
independent oracles. Criteria 8-11 are qualitative replications on
synthetic data, averaged over three seeds, with the tolerances stated
here. Criterion 12 checks byte-level reproducibility. The three-seed
runs take several minutes each; the whole module is CPU-only. Criteria
8-11 carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import filecmp
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_force_knn, fd_gradients, max_rel_error, pairwise_auc
from innscore import data, evaluate, mixture, neighbors, oracle, scorer, tinynet
from innscore.pipeline import RunConfig, run_pipeline

SEEDS = (0, 1, 2)


def verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


def stability_config(seed, out_dir):
    """Frozen desk-scale protocol for the stability/consistency replication."""
    return RunConfig(
        n=2000, n_classes=4, dim=2, spread=1.6,
        noise_kind="symmetric", noise_rate=0.3,
        epochs=300, checkpoint_every=50,
        seed=seed, out_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def stability_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("stability")
    return [run_pipeline(stability_config(s, root / f"s{s}"), quiet=True) for s in SEEDS]


@pytest.fixture(scope="module")
def heavy_noise_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("heavy_noise")
    cfgs = [
        RunConfig(n=5000, n_classes=10, dim=2, spread=0.6,
                  noise_kind="symmetric", noise_rate=0.8,
                  epochs=300, checkpoint_every=50, seed=s, out_dir=str(root / f"s{s}"))
        for s in SEEDS
    ]
    return [run_pipeline(cfg, quiet=True) for cfg in cfgs]


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    model = tinynet.init_model([3, 5, 4], seed=1)
    X = rng.normal(size=(6, 3))
    worst = 0.0
    for loss_kind in ("ce", "cene", "mixup"):
        targets = (
            rng.dirichlet(np.ones(4), size=6) if loss_kind == "mixup"
            else rng.integers(0, 4, size=6)
        )
        _, analytic = tinynet.loss_and_grad(model, X, targets, loss_kind)
        numeric = fd_gradients(model, X, targets, loss_kind, step=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    verdict(1, "gradients vs central finite differences", worst <= 1e-4 and elapsed < 5,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_quadrature_exactness():
    t0 = time.perf_counter()

    class Affine:
        def __init__(self, coef, intercept):
            self.coef, self.intercept = np.asarray(coef), intercept

        def predict_proba(self, X):
            p0 = np.atleast_2d(X) @ self.coef + self.intercept
            return np.column_stack([p0, 1.0 - p0])

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        model = Affine(rng.normal(scale=0.03, size=4), 0.5)
        x, xt = rng.normal(size=4), rng.normal(size=4)
        exact = 0.5 * (model.predict_proba(x)[0, 0] + model.predict_proba(xt)[0, 0])
        for H in (1, 10):
            got = scorer.segment_integral(model, x, xt, 0, H)
            worst = max(worst, abs(got - exact))
    elapsed = time.perf_counter() - t0
    verdict(2, "trapezoid exact on affine integrands", worst <= 1e-12 and elapsed < 1,
            f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_oracle_identity():
    t0 = time.perf_counter()
    L, K = 10, 3
    rng = np.random.default_rng(2)
    points = rng.normal(size=(L + 1, 4))
    worst = 0.0
    for m in range(L + 1):
        labels = np.concatenate([[0], np.zeros(m, dtype=int), np.full(L - m, 1, dtype=int)])
        model = oracle.SegmentInterpolantModel(points, labels, K)
        ds = data.Dataset(points, labels, labels.copy(), K, np.arange(L + 1))
        nbr = np.array([[j for j in range(L + 1) if j != i] for i in range(L + 1)])
        table = scorer.score_models(ds, nbr[:, :L], 10, [(None, model)])[0][0]
        expected = float(oracle.oracle_inn(0, labels[1:]))
        assert expected == float(Fraction(1, 2) + Fraction(m, 2 * L))
        worst = max(worst, abs(table.values["inn"][0] - expected))
    elapsed = time.perf_counter() - t0
    verdict(3, "numeric scorer reproduces 1/2 + m/(2L) on interpolant models",
            worst <= 1e-9 and elapsed < 10, f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_separation_enumeration():
    t0 = time.perf_counter()
    rep = oracle.verify_separation(2, 10, "majority")
    ok = (
        rep.min_clean == Fraction(4, 5)
        and rep.max_noisy == Fraction(7, 10)
        and rep.gap == Fraction(1, 10)
        and rep.separation_holds
    )
    pure_ok = True
    for K in range(2, 7):
        for L in range(1, 13):
            r = oracle.verify_separation(K, L, "pure")
            pure_ok &= r.gap == Fraction(1, 2)
    # the general 1/(2K) claim is enumerated and reported, not asserted
    for K in range(2, 7):
        r = oracle.verify_separation(K, 10, "majority")
        print(
            f"    separation report K={K} L=10 majority: min_clean={float(r.min_clean):.3f} "
            f"max_noisy={float(r.max_noisy):.3f} gap={float(r.gap):.3f} "
            f"claimed>=1/(2K)={float(r.claimed_gap):.3f} holds={r.gap_meets_claim} "
            f"witness_noisy={r.witness_max_noisy}"
        )
    elapsed = time.perf_counter() - t0
    verdict(4, "restricted separation gaps (0.1 at K=2 L=10; 1/2 under pure)",
            ok and pure_ok and elapsed < 30, f"{elapsed:.2f}s")


def test_criterion_5_knn_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(16, 513))
        F = rng.normal(size=(n, int(rng.integers(2, 9))))
        for L in (1, 5, 10):
            if L >= n:
                continue
            for i in range(n):
                got_ids, got_dist = neighbors.query(F, i, L)
                ids, dist = brute_force_knn(F, i, L)
                if not (np.array_equal(got_ids, ids) and np.array_equal(got_dist, dist)):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    verdict(5, "exact kNN equals the O(n^2) sort oracle on 50 datasets",
            mismatches == 0 and elapsed < 30, f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_6_auc_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        scores = rng.integers(0, 12, size=n) / 11.0
        mask = rng.random(n) < rng.uniform(0.2, 0.8)
        if mask.all() or not mask.any():
            mask[0] = True
            mask[1] = False
        if evaluate.auc(scores, mask) != pairwise_auc(scores, mask):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    verdict(6, "AUC equals exhaustive pairwise oracle with half ties",
            mismatches == 0 and elapsed < 10, f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_7_mixture_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.beta(2, 8, 500), rng.beta(8, 2, 500)])
    bmm = mixture.fit_mixture("beta", x)
    b_means = np.sort(bmm.component_means())
    bmm_ok = (
        abs(b_means[0] - 0.2) < 0.05
        and abs(b_means[1] - 0.8) < 0.05
        and (np.diff(bmm.loglik_trace) >= -1e-9).all()
    )
    y = np.concatenate([rng.normal(0.1, 0.05, 500), rng.normal(2.0, 0.3, 500)])
    gmm = mixture.fit_mixture("gaussian", y)
    g_means = np.sort(gmm.component_means())
    gmm_ok = (
        abs(g_means[0] - 0.1) < 0.1
        and abs(g_means[1] - 2.0) < 0.1
        and (np.diff(gmm.loglik_trace) >= -1e-9).all()
    )
    elapsed = time.perf_counter() - t0
    verdict(7, "BMM/GMM recover the generating components, EM monotone",
            bmm_ok and gmm_ok and elapsed < 10,
            f"beta means {b_means.round(3)}, gauss means {g_means.round(3)}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_8_stability_replication(stability_runs):
    t0 = time.perf_counter()
    rng_inn, rng_ce, margins = [], [], []
    for res in stability_runs:
        rep = res.report
        rng_inn.append(rep.stability["inn"]["range"])
        rng_ce.append(rep.stability["loss_ce"]["range"])
        margins.append(rep.series("inn")[-1][1] - rep.series("loss_ce")[-1][1])
    a_ok = np.mean(rng_inn) <= np.mean(rng_ce)
    b_ok = np.mean(margins) >= 0.02
    elapsed = time.perf_counter() - t0
    verdict(8, "integral-score AUC stabler than CE loss and ahead at the final epoch",
            a_ok and b_ok,
            f"range {np.mean(rng_inn):.4f} vs {np.mean(rng_ce):.4f}; "
            f"final margin {np.mean(margins):.3f} (>=0.02); fixture+check {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_9_consistency_replication(stability_runs):
    gaps = []
    for res in stability_runs:
        final_epoch = res.score_tables[-1].epoch
        st = [s for e, tag, s in res.consistency if tag == "ce" and e == final_epoch][0]
        gaps.append((st.em_cor - st.em_inc) - (st.e_cor - st.e_inc))
    margin = float(np.mean(gaps))
    verdict(9, "midpoint expectations separate clean/noisy beyond sample-level gap",
            margin >= 0.05, f"(Em_cor-Em_inc)-(E_cor-E_inc) = {margin:.3f} (>=0.05)")


@pytest.mark.slow
def test_criterion_10_heavy_noise_ordering(heavy_noise_runs):
    best_inn, best_ce = [], []
    for res in heavy_noise_runs:
        rep = res.report
        best_inn.append(max(v for _, v in rep.series("inn")))
        best_ce.append(max(v for _, v in rep.series("loss_ce")))
    ok = np.mean(best_inn) > np.mean(best_ce)
    verdict(10, "80% symmetric noise: best integral-score AUC above best CE-loss AUC",
            ok, f"best {np.mean(best_inn):.3f} vs {np.mean(best_ce):.3f}")


@pytest.mark.slow
def test_criterion_11_imbalanced_separation(tmp_path):
    t0 = time.perf_counter()
    inn_final, ce_final = [], []
    groups_seen = set()
    for seed in SEEDS:
        cfg = RunConfig(
            n=4000, n_classes=2, dim=2, spread=1.6,
            noise_kind="imbalanced", imb_keep=0.1, imb_flip=0.3,
            epochs=300, checkpoint_every=50, seed=seed,
            out_dir=str(tmp_path / f"imb{seed}"),
        )
        res = run_pipeline(cfg, quiet=True)
        rep = res.report
        inn_final.append(rep.series("inn")[-1][1])
        ce_final.append(rep.series("loss_ce")[-1][1])
    hist_path = tmp_path / f"imb{SEEDS[0]}" / "histograms_inn.csv"
    with open(hist_path) as fh:
        next(fh)
        groups_seen = {line.split(",")[0] for line in fh}
    ok = (
        np.mean(inn_final) >= 0.6
        and np.mean(inn_final) >= np.mean(ce_final)
        and groups_seen == {"0-0", "0-1", "1-0", "1-1"}
    )
    elapsed = time.perf_counter() - t0
    verdict(11, "imbalanced two-class: integral AUC >= 0.6 and >= CE loss; 4 groups emitted",
            ok, f"inn {np.mean(inn_final):.3f}, ce {np.mean(ce_final):.3f}, "
                f"groups {sorted(groups_seen)}, {elapsed:.0f}s")


def test_criterion_12_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    common = dict(
        n=400, n_classes=3, dim=2, spread=1.0,
        noise_kind="symmetric", noise_rate=0.3,
        hidden=(32, 16), h_hidden=(16, 4), h_epochs=5,
        epochs=20, checkpoint_every=10, n_neighbors=5, seed=7,
    )
    run_pipeline(RunConfig(out_dir=str(tmp_path / "a"), **common), quiet=True)
    run_pipeline(RunConfig(out_dir=str(tmp_path / "b"), **common), quiet=True)
    same = filecmp.cmp(tmp_path / "a" / "scores.csv", tmp_path / "b" / "scores.csv", shallow=False)
    elapsed = time.perf_counter() - t0
    verdict(12, "identical config+seed gives byte-identical score tables",
            same, f"scores.csv identical={same}, {elapsed:.1f}s")
