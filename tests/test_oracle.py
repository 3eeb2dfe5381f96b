"""Closed-form scores of the ideal interpolating predictor and the
exhaustive separation check."""

import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

from innscore import oracle


class TestSegmentValue:
    def test_match_gives_one(self):
        assert oracle.oracle_segment_value(3, 3) == 1.0

    def test_mismatch_gives_half(self):
        assert oracle.oracle_segment_value(3, 7) == 0.5


class TestOracleScore:
    def test_all_match(self):
        assert oracle.oracle_inn(2, [2] * 10) == Fraction(1)

    def test_no_match(self):
        assert oracle.oracle_inn(2, [0] * 10) == Fraction(1, 2)

    def test_four_of_ten(self):
        assert oracle.oracle_inn(1, [1, 1, 1, 1, 0, 0, 2, 2, 3, 3]) == Fraction(7, 10)

    def test_values_on_exact_lattice(self):
        L = 10
        lattice = {Fraction(1, 2) + Fraction(j, 2 * L) for j in range(L + 1)}
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = rng.integers(0, 4, size=L).tolist()
            assert oracle.oracle_inn(0, labels) in lattice

    def test_match_swap_adds_exactly_half_inverse_l(self):
        L = 10
        labels = [1, 2, 2, 3, 1, 1, 2, 3, 3, 3]
        before = oracle.oracle_inn(0, labels)
        labels[0] = 0
        after = oracle.oracle_inn(0, labels)
        assert after - before == Fraction(1, 2 * L)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            oracle.oracle_inn(0, [])


class TestSegmentInterpolant:
    def test_anchor_points_are_one_hot(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        m = oracle.SegmentInterpolantModel(pts, labels, 3)
        probs = m.predict_proba(pts)
        np.testing.assert_allclose(probs[np.arange(5), labels], 1.0, atol=1e-12)

    def test_midpoint_blends_endpoints(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        m = oracle.SegmentInterpolantModel(pts, np.array([0, 1]), 2)
        probs = m.predict_proba(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 4))
        m = oracle.SegmentInterpolantModel(pts, rng.integers(0, 3, size=6), 3)
        probs = m.predict_proba(rng.normal(size=(40, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0


def _reference_compositions(total, parts):
    # the recursive enumeration, one stack frame per part
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _reference_compositions(total - head, parts - 1):
            yield (head,) + rest


class TestCompositions:
    @pytest.mark.parametrize("total, parts",
                             [(0, 3), (3, 1), (4, 3), (10, 4), (6, 6), (12, 2), (0, 1), (5, 7)])
    def test_same_vectors_in_the_same_order_as_the_recursion(self, total, parts):
        assert list(oracle._compositions(total, parts)) == list(
            _reference_compositions(total, parts))

    def test_more_parts_than_the_recursion_limit(self):
        parts = sys.getrecursionlimit() + 1000
        first, second = itertools.islice(oracle._compositions(1, parts), 2)
        assert first == (0,) * (parts - 1) + (1,)
        assert second == (0,) * (parts - 2) + (1, 0)
        assert next(oracle._compositions(0, 5000)) == (0,) * 5000


class TestSeparation:
    def test_k2_l10_majority(self):
        rep = oracle.verify_separation(2, 10, "majority")
        assert rep.min_clean == Fraction(4, 5)
        assert rep.max_noisy == Fraction(7, 10)
        assert rep.gap == Fraction(1, 10)
        assert rep.separation_holds
        # the formal 1/(2K) = 1/4 bound does not hold even here
        assert not rep.gap_meets_claim

    def test_pure_condition_gap_half(self):
        for K in (2, 4, 6):
            for L in (1, 5, 12):
                rep = oracle.verify_separation(K, L, "pure")
                assert rep.min_clean == Fraction(1)
                assert rep.max_noisy == Fraction(1, 2)
                assert rep.gap == Fraction(1, 2)

    def test_k3_l10_majority_separation_fails_with_witnesses(self):
        rep = oracle.verify_separation(3, 10, "majority")
        assert rep.min_clean == rep.max_noisy == Fraction(7, 10)
        assert not rep.separation_holds
        w = rep.witness_max_noisy
        assert sum(w["counts"]) == 10
        assert w["y"] != w["y_star"]
        # witness realizes the reported extreme
        assert Fraction(1, 2) + Fraction(w["counts"][w["y"]], 20) == rep.max_noisy

    def test_count_condition(self):
        rep = oracle.verify_separation(2, 10, "count")
        # counts[y*] >= L/K = 5 allows a 5/5 split: clean 0.75, noisy 0.75
        assert rep.min_clean == Fraction(3, 4)
        assert rep.max_noisy == Fraction(3, 4)
        assert not rep.separation_holds

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            oracle.verify_separation(2, 10, "everything")

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="exceeds the enumeration budget"):
            oracle.verify_separation(12, 60, "majority")

    def test_report_roundtrips_to_json(self, tmp_path):
        import json

        rep = oracle.verify_separation(2, 10, "majority")
        path = rep.to_json(tmp_path / "report.json")
        loaded = json.loads(open(path).read())
        assert loaded["min_clean"] == 0.8
        assert loaded["max_noisy"] == 0.7
        assert loaded["separation_holds"] is True
