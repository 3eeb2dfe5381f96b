"""Ranking AUC, grouped histograms and the checkpoint sweep report."""

import numpy as np
import pytest

from innscore import data, evaluate, scorer
from innscore._records import read_rows


def pairwise_auc(scores, clean_mask):
    """Exhaustive O(n^2) oracle with the half-tie convention."""
    pos = scores[clean_mask]
    neg = scores[~clean_mask]
    gt = ties = 0
    for a in pos:
        for b in neg:
            if a > b:
                gt += 1
            elif a == b:
                ties += 1
    return (gt + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_hand_case_five_sixths(self):
        scores = np.array([0.9, 0.8, 0.6, 0.7, 0.5])
        mask = np.array([True, True, True, False, False])
        assert evaluate.auc(scores, mask) == pytest.approx(5 / 6)

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        mask = np.array([True, True, False, False])
        assert evaluate.auc(scores, mask) == 1.0

    def test_all_equal_is_half(self):
        scores = np.full(10, 3.3)
        mask = np.arange(10) < 4
        assert evaluate.auc(scores, mask) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            scores = rng.integers(0, 10, size=n) / 10.0  # force ties
            mask = rng.random(n) < 0.5
            if mask.all() or not mask.any():
                continue
            assert evaluate.auc(scores, mask) == pairwise_auc(scores, mask)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)
        mask = rng.random(100) < 0.4
        a = evaluate.auc(scores, mask)
        b = evaluate.auc(np.exp(scores) * 3 + 1, mask)
        assert a == b

    def test_antisymmetry_with_negation(self):
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 5, size=80) / 5.0
        mask = rng.random(80) < 0.5
        assert evaluate.auc(-scores, mask) == pytest.approx(1.0 - evaluate.auc(scores, mask), abs=1e-12)

    def test_one_empty_class_rejected(self):
        with pytest.raises(ValueError):
            evaluate.auc(np.arange(4.0), np.array([True] * 4))


class TestGroupedHistogram:
    def make_imbalanced(self):
        ds = data.synth("blobs", 2000, 2, 2, 0.3, seed=0)
        return data.build_imbalanced(ds, 0, 1, 0.2, 0.3, seed=1)

    def test_counts_sum_to_n(self):
        ds = self.make_imbalanced()
        rng = np.random.default_rng(3)
        table, edges = evaluate.grouped_histogram(rng.random(ds.n), ds, bins=15)
        assert sum(int(c.sum()) for c in table.values()) == ds.n
        assert len(edges) == 16

    def test_single_group(self):
        ds = data.synth("blobs", 50, 2, 2, 0.3, seed=1)
        only_zero = ds.subset(np.flatnonzero(ds.true_labels == 0))
        table, _ = evaluate.grouped_histogram(np.random.default_rng(0).random(only_zero.n), only_zero, bins=4)
        assert list(table) == ["0-0"]
        assert table["0-0"].sum() == only_zero.n

    def test_bins_one_gives_group_sizes(self):
        ds = self.make_imbalanced()
        table, _ = evaluate.grouped_histogram(np.random.default_rng(1).random(ds.n), ds, bins=1)
        for key, counts in table.items():
            ys, y = (int(v) for v in key.split("-"))
            expected = ((ds.true_labels == ys) & (ds.observed_labels == y)).sum()
            assert counts[0] == expected

    def test_csv_roundtrip(self, tmp_path):
        ds = self.make_imbalanced()
        table, edges = evaluate.grouped_histogram(np.random.default_rng(2).random(ds.n), ds, bins=3)
        path = evaluate.write_histogram_csv(table, edges, tmp_path / "hist.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "group,bin_lo,bin_hi,count"
        assert len(lines) == 1 + 3 * len(table)
        _, rows = read_rows(
            path, ("group", "bin_lo", "bin_hi", "count"),
            {"group": str, "bin_lo": float, "bin_hi": float, "count": int},
        )
        back_table = {}
        for _, (group, _, _, count) in rows:
            back_table.setdefault(group, []).append(count)
        back_edges = np.array(sorted({v for _, (_, lo, hi, _) in rows for v in (lo, hi)}))
        assert set(back_table) == set(table)
        for key in table:
            assert np.array_equal(back_table[key], table[key])
        np.testing.assert_allclose(back_edges, edges)


class TestSweepReport:
    def make_tables(self, aucs_by_epoch):
        # builds score columns whose AUC is controlled by construction:
        # clean samples at 1.0, a chosen fraction of noisy moved below
        tables = []
        ids = np.arange(40, dtype=np.int64)
        self.mask = ids < 20
        for epoch, frac in aucs_by_epoch:
            scores = np.zeros(40)
            scores[:20] = 1.0
            n_below = int(round(frac * 20))
            scores[20 : 20 + n_below] = -1.0  # cleanly outranked
            scores[20 + n_below :] = 1.0  # ties with clean
            tables.append(scorer.ScoreTable(epoch, ids).add("inn", scores))
        return tables

    def test_identical_tables_zero_range(self):
        tables = self.make_tables([(50, 0.5), (100, 0.5)])
        rep = evaluate.sweep_report(tables, self.mask)
        assert rep.stability["inn"]["range"] == 0.0

    def test_two_checkpoint_range(self):
        tables = self.make_tables([(50, 1.0), (100, 0.8)])
        rep = evaluate.sweep_report(tables, self.mask)
        # frac f gives AUC f + 0.5 (1 - f)
        assert rep.auc_of(50, "inn") == pytest.approx(1.0)
        assert rep.auc_of(100, "inn") == pytest.approx(0.9)
        assert rep.stability["inn"]["range"] == pytest.approx(0.1)

    def test_loss_kinds_negated_and_flagged(self):
        ids = np.arange(30, dtype=np.int64)
        mask = ids < 15
        tables = []
        for epoch in (1, 2):
            t = scorer.ScoreTable(epoch, ids)
            t.add("inn", np.where(mask, 1.0, 0.0))
            t.add("loss_ce", np.where(mask, 0.0, 1.0))  # small loss = clean
            tables.append(t)
        rep = evaluate.sweep_report(tables, mask)
        assert rep.auc_of(2, "loss_ce") == 1.0
        assert rep.flags["inn_more_stable_than_loss_ce"] is True
        assert rep.flags["inn_beats_loss_ce_at_final"] is False  # equal, not greater

    def test_partial_kind_warns(self):
        ids = np.arange(20, dtype=np.int64)
        mask = ids < 10
        t1 = scorer.ScoreTable(1, ids).add("inn", np.where(mask, 1.0, 0.0))
        t2 = scorer.ScoreTable(2, ids).add("inn", np.where(mask, 1.0, 0.0))
        t2.add("midpoint", np.where(mask, 1.0, 0.0))
        rep = evaluate.sweep_report([t1, t2], mask)
        assert any("midpoint" in w for w in rep.warnings)

    def test_one_checkpoint_has_zero_range(self):
        (table,) = self.make_tables([(50, 0.8)])
        table.add("loss_ce", np.where(self.mask, 0.0, 1.0))  # small loss = clean
        rep = evaluate.sweep_report([table], self.mask)
        assert rep.auc_of(50, "inn") == pytest.approx(0.9)
        assert rep.stability["inn"] == {"min": rep.auc_of(50, "inn"),
                                        "max": rep.auc_of(50, "inn"), "range": 0.0}
        # a stability flag needs two checkpoints
        assert rep.flags == {"inn_beats_loss_ce_at_final": False}
        with pytest.raises(ValueError, match="at least one checkpoint"):
            evaluate.sweep_report([], self.mask)

    def test_json_and_csv(self, tmp_path):
        import json

        tables = self.make_tables([(50, 1.0), (100, 0.8)])
        rep = evaluate.sweep_report(tables, self.mask)
        rep.to_json(tmp_path / "report.json")
        loaded = json.loads(open(tmp_path / "report.json").read())
        assert loaded["final_epoch"] == 100
        path = rep.write_auc_csv(tmp_path / "auc.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "epoch,kind,auc"
        assert len(lines) == 3
