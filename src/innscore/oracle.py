"""Analytic ideal of a perfectly mixup-overfit predictor.

Such a predictor is linear between any two training inputs, so the
integral of f_y along a segment to a neighbor with observed label y~ is
exactly 1 when y == y~ and 1/2 otherwise, and the full score is
1/2 + m/(2L) with m the number of label-matching neighbors. This module
evaluates those closed forms in exact rational arithmetic, provides a
segment-interpolating stand-in model for cross-checking the numeric
scorer, and exhaustively checks the clean/noisy separation claim over
all neighbor-label count vectors satisfying a chosen condition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._records import write_json

CONDITIONS = ("majority", "pure", "count")

_ENUM_BUDGET = 5_000_000


def oracle_segment_value(label, neighbor_label):
    """Exact segment integral under the ideal model: 1 on match, 1/2 otherwise."""
    return 1.0 if label == neighbor_label else 0.5


def oracle_inn(label, neighbor_labels):
    """Exact score as a Fraction: 1/2 + matches / (2 L)."""
    neighbor_labels = list(neighbor_labels)
    if not neighbor_labels:
        raise ValueError("need at least one neighbor label")
    m = sum(1 for t in neighbor_labels if t == label)
    return Fraction(1, 2) + Fraction(m, 2 * len(neighbor_labels))


class SegmentInterpolantModel:
    """Predictor that is linear along every segment between its anchor points.

    predict_proba projects each query onto the closest anchor-pair
    segment and blends the endpoints' one-hot labels by the position
    along it. Built per segment because a single global network with
    this property need not exist; anchors should be in generic position
    so probe points sit on a unique segment.
    """

    def __init__(self, points, labels, n_classes):
        self.points = np.asarray(points, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        m = self.points.shape[0]
        if m < 2:
            raise ValueError("need at least two anchor points")
        self._pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def predict_proba(self, queries):
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = Q.shape[0]
        # squared distance from every query to every anchor
        d2 = ((Q[:, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
        best_resid = np.full(nq, np.inf)
        best_t = np.zeros(nq)
        best_pair = np.zeros((nq, 2), dtype=np.int64)
        for i, j in self._pairs:
            v = self.points[j] - self.points[i]
            vv = float(v @ v)
            if vv == 0.0:
                continue
            t = np.clip((Q - self.points[i]) @ v / vv, 0.0, 1.0)
            resid = d2[:, i] - 2.0 * t * ((Q - self.points[i]) @ v) + t * t * vv
            better = resid < best_resid
            best_resid[better] = resid[better]
            best_t[better] = t[better]
            best_pair[better] = (i, j)
        probs = np.zeros((nq, self.n_classes))
        rows = np.arange(nq)
        probs[rows, self.labels[best_pair[:, 0]]] += 1.0 - best_t
        probs[rows, self.labels[best_pair[:, 1]]] += best_t
        return probs


@dataclass
class SeparationReport:
    condition: str
    n_classes: int
    n_neighbors: int
    min_clean: Fraction
    max_noisy: Fraction
    gap: Fraction
    separation_holds: bool
    claimed_gap: Fraction  # 1 / (2K)
    gap_meets_claim: bool
    witness_min_clean: dict
    witness_max_noisy: dict
    n_configs: int

    def to_dict(self):
        return {
            "condition": self.condition,
            "K": self.n_classes,
            "L": self.n_neighbors,
            "min_clean": float(self.min_clean),
            "max_noisy": float(self.max_noisy),
            "gap": float(self.gap),
            "separation_holds": self.separation_holds,
            "claimed_gap": float(self.claimed_gap),
            "gap_meets_claim": self.gap_meets_claim,
            "witness_min_clean": self.witness_min_clean,
            "witness_max_noisy": self.witness_max_noisy,
            "n_configs": self.n_configs,
        }

    def to_json(self, path):
        return write_json(path, self.to_dict())


def _condition_met(condition, counts, y_star, n_neighbors, n_classes):
    c = counts[y_star]
    if condition == "majority":
        return all(c > counts[k] for k in range(n_classes) if k != y_star)
    if condition == "pure":
        return c == n_neighbors
    if condition == "count":
        return c * n_classes >= n_neighbors
    raise ValueError(f"unknown condition {condition!r}; choose from {CONDITIONS}")


def _compositions(total, parts):
    # all nonnegative integer vectors of length `parts` summing to `total`, in
    # lexicographic order: the gaps between parts - 1 bars among total + parts - 1 slots
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(end - start - 1 for start, end in zip((-1, *bars), (*bars, slots)))


def verify_separation(n_classes, n_neighbors, condition):
    """Enumerate every admissible neighbor-label configuration and report
    min clean score, max noisy score, gap, and whether the 1/(2K) gap
    claim holds, with witnessing configurations."""
    if n_classes < 2 or n_neighbors < 1:
        raise ValueError("need K >= 2 and L >= 1")
    n_vectors = math.comb(n_neighbors + n_classes - 1, n_classes - 1)
    if n_vectors * n_classes > _ENUM_BUDGET:
        raise ValueError(
            f"{n_vectors} count vectors x {n_classes} classes exceeds the enumeration budget"
        )

    min_clean, max_noisy = None, None
    wit_clean, wit_noisy = None, None
    n_configs = 0
    for counts in _compositions(n_neighbors, n_classes):
        for y_star in range(n_classes):
            if not _condition_met(condition, counts, y_star, n_neighbors, n_classes):
                continue
            n_configs += 1
            clean_score = Fraction(1, 2) + Fraction(counts[y_star], 2 * n_neighbors)
            if min_clean is None or clean_score < min_clean:
                min_clean = clean_score
                wit_clean = {"counts": list(counts), "y_star": y_star, "y": y_star}
            for y in range(n_classes):
                if y == y_star:
                    continue
                noisy_score = Fraction(1, 2) + Fraction(counts[y], 2 * n_neighbors)
                if max_noisy is None or noisy_score > max_noisy:
                    max_noisy = noisy_score
                    wit_noisy = {"counts": list(counts), "y_star": y_star, "y": y}
    if n_configs == 0:
        raise ValueError("no configuration satisfies the condition")

    gap = min_clean - max_noisy
    claimed = Fraction(1, 2 * n_classes)
    return SeparationReport(
        condition=condition,
        n_classes=n_classes,
        n_neighbors=n_neighbors,
        min_clean=min_clean,
        max_noisy=max_noisy,
        gap=gap,
        separation_holds=gap > 0,
        claimed_gap=claimed,
        gap_meets_claim=gap >= claimed,
        witness_min_clean=wit_clean,
        witness_max_noisy=wit_noisy,
        n_configs=n_configs,
    )
