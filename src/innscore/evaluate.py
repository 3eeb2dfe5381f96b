"""Clean/noisy ranking metrics, grouped histograms and checkpoint sweeps.

The AUC here is the probability that a uniformly random clean sample
outranks a uniformly random noisy one under a cleanliness score, with
ties counted one half (the Mann-Whitney convention, so an all-equal
score column gives exactly 0.5). Score kinds whose name starts with
"loss" rank cleaner-is-smaller and are negated before ranking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._records import write_json, write_rows


def score_orientation(kind):
    """+1 if larger means cleaner, -1 for loss columns."""
    return -1.0 if kind.startswith("loss") else 1.0


def auc(scores, clean_mask):
    """Mann-Whitney AUC of `scores` for separating clean from noisy.

    Parameters
    ----------
    scores : (n,) cleanliness scores, larger = cleaner.
    clean_mask : (n,) bool, True where the sample is truly clean.

    Returns
    -------
    float equal to (#{clean > noisy} + 0.5 * #ties) / (|C| * |N|),
    which is also the trapezoidal ROC area.
    """
    s = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(clean_mask, dtype=bool)
    if s.shape != mask.shape:
        raise ValueError("scores and mask must align")
    pos = s[mask]
    neg = s[~mask]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC undefined: one of the groups is empty")
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left").sum()
    below_eq = np.searchsorted(neg_sorted, pos, side="right").sum()
    ties = below_eq - below
    return (int(below) + 0.5 * int(ties)) / (pos.size * neg.size)


def grouped_histogram(scores, dataset, bins=20):
    """Histogram of min-max normalized scores per (true, observed) group.

    Returns (table, edges) where table maps "y*-y" strings to bin-count
    arrays over equal-width bins on [0, 1]. Counts over all groups sum
    to the dataset size.
    """
    if dataset.true_labels is None:
        raise ValueError("grouped histograms require true labels")
    if bins < 1:
        raise ValueError("need at least one bin")
    s = np.asarray(scores, dtype=np.float64)
    lo, hi = float(s.min()), float(s.max())
    norm = np.full_like(s, 0.5) if hi - lo <= 0 else (s - lo) / (hi - lo)
    edges = np.linspace(0.0, 1.0, bins + 1)
    table = {}
    for y_star in np.unique(dataset.true_labels):
        for y in np.unique(dataset.observed_labels):
            group = (dataset.true_labels == y_star) & (dataset.observed_labels == y)
            if not group.any():
                continue
            counts, _ = np.histogram(norm[group], bins=edges)
            table[f"{y_star}-{y}"] = counts
    return table, edges


def write_histogram_csv(table, edges, path):
    rows = (
        [group, repr(float(edges[b])), repr(float(edges[b + 1])), str(int(count))]
        for group in sorted(table)
        for b, count in enumerate(table[group])
    )
    return write_rows(path, ("group", "bin_lo", "bin_hi", "count"), rows)


@dataclass
class EvalReport:
    """AUC per (epoch, kind) plus per-kind stability across checkpoints."""

    aucs: list  # (epoch, kind, auc) sorted by (kind, epoch)
    stability: dict  # kind -> {min, max, range}
    final_epoch: int
    flags: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def auc_of(self, epoch, kind):
        for e, k, v in self.aucs:
            if e == epoch and k == kind:
                return v
        raise KeyError(f"no AUC for epoch={epoch} kind={kind}")

    def series(self, kind):
        return [(e, v) for e, k, v in self.aucs if k == kind]

    def to_dict(self):
        return {
            "aucs": [{"epoch": e, "kind": k, "auc": v} for e, k, v in self.aucs],
            "stability": self.stability,
            "final_epoch": self.final_epoch,
            "flags": self.flags,
            "warnings": self.warnings,
        }

    def to_json(self, path):
        return write_json(path, self.to_dict())

    def write_auc_csv(self, path):
        rows = ([str(e), k, repr(v)] for e, k, v in self.aucs)
        return write_rows(path, ("epoch", "kind", "auc"), rows)

    def write_outputs(self, out_dir, final, ds, kinds, bins):
        """report.json, auc.csv and histograms_<kind>.csv of the final ScoreTable's `kinds`."""
        self.to_json(os.path.join(out_dir, "report.json"))
        paths = {"auc": self.write_auc_csv(os.path.join(out_dir, "auc.csv"))}
        for kind in kinds:
            table, edges = grouped_histogram(score_orientation(kind) * final.values[kind], ds, bins)
            path = os.path.join(out_dir, f"histograms_{kind}.csv")
            paths[f"hist_{kind}"] = write_histogram_csv(table, edges, path)
        return paths


def sweep_report(tables, clean_mask):
    """AUC stability report across checkpoint ScoreTables.

    Needs at least one checkpoint; with one, every stability range is 0.
    Kinds missing at some epochs produce warnings and a partial report.
    Flags compare the integral score to every loss baseline at the final
    epoch, and, with two or more checkpoints, in stability.
    """
    if not tables:
        raise ValueError("need at least one checkpoint for a sweep report")
    tables = sorted(tables, key=lambda t: t.epoch)
    epochs = [t.epoch for t in tables]
    all_kinds = sorted({k for t in tables for k in t.values})

    aucs = []
    warnings = []
    for kind in all_kinds:
        present = [t for t in tables if kind in t.values]
        if len(present) < len(tables):
            warnings.append(f"kind {kind!r} missing at some epochs")
        for t in present:
            value = auc(score_orientation(kind) * t.values[kind], clean_mask)
            aucs.append((t.epoch, kind, value))

    stability = {}
    for kind in all_kinds:
        vals = [v for _, k, v in aucs if k == kind]
        stability[kind] = {
            "min": min(vals),
            "max": max(vals),
            "range": max(vals) - min(vals),
        }

    final_epoch = epochs[-1]
    flags = {}
    by_key = {(e, k): v for e, k, v in aucs}
    if ("inn" in all_kinds) or ("midpoint" in all_kinds):
        main = "inn" if "inn" in all_kinds else "midpoint"
        for kind in all_kinds:
            if not kind.startswith("loss"):
                continue
            a, b = by_key.get((final_epoch, main)), by_key.get((final_epoch, kind))
            if a is not None and b is not None:
                flags[f"{main}_beats_{kind}_at_final"] = bool(a > b)
            if len(tables) > 1:
                flags[f"{main}_more_stable_than_{kind}"] = bool(
                    stability[main]["range"] <= stability[kind]["range"]
                )
    return EvalReport(aucs, stability, final_epoch, flags, warnings)
