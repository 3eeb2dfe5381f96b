"""Exact L2 nearest-neighbor retrieval over feature rows.

Search is brute force: distances are evaluated per query row as
sqrt(sum((F - F[i])^2)), the same arithmetic a plain sort oracle would
use, so results match one exactly. Ties are broken by the smaller row
index and a row is never its own neighbor. Row indices are positions in
the feature matrix; callers keep the mapping to dataset ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NeighborIndex:
    features: np.ndarray  # (n, p) float64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)

    @property
    def n(self):
        return self.features.shape[0]


@dataclass
class NeighborSet:
    owner: int
    ids: np.ndarray  # (L,) row indices, distance-ascending
    distances: np.ndarray  # (L,) nondecreasing
    labels: np.ndarray | None = None  # observed labels, filled by attach_labels


def build_index(feature_matrix):
    F = np.asarray(feature_matrix, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least two rows")
    if not np.isfinite(F).all():
        raise ValueError("features must be finite")
    return NeighborIndex(F)


def query(index, i, n_neighbors):
    """The n_neighbors rows nearest to row i, self excluded."""
    n = index.n
    if not 0 <= i < n:
        raise ValueError(f"row {i} out of range")
    if not 1 <= n_neighbors <= n - 1:
        raise ValueError("need 1 <= L <= n-1")
    diff = index.features - index.features[i]
    dist = np.sqrt((diff * diff).sum(axis=1))
    dist[i] = np.inf  # exclude self; duplicates at distance 0 stay eligible
    order = np.lexsort((np.arange(n), dist))[:n_neighbors]
    return NeighborSet(i, order.astype(np.int64), dist[order])


def query_all(index, n_neighbors):
    return [query(index, i, n_neighbors) for i in range(index.n)]


def attach_labels(sets, observed_labels):
    labels = np.asarray(observed_labels, dtype=np.int64)
    for s in sets:
        s.labels = labels[s.ids]
    return sets


def neighbor_sets(dataset, index, n_neighbors):
    """Query every row and attach the dataset's observed labels."""
    if index.n != dataset.n:
        raise ValueError("index and dataset sizes differ")
    return attach_labels(query_all(index, n_neighbors), dataset.observed_labels)


# --- neighbor cache file ----------------------------------------------
#
# CSV `id,n1..nL,d1..dL` keyed by dataset ids so an expensive search can
# be reused across score sweeps.


def write_cache(sets, dataset_ids, path):
    ids = np.asarray(dataset_ids, dtype=np.int64)
    L = len(sets[0].ids)
    header = ["id"] + [f"n{k+1}" for k in range(L)] + [f"d{k+1}" for k in range(L)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for s in sets:
            row = [str(ids[s.owner])]
            row += [str(ids[j]) for j in s.ids]
            row += [repr(float(v)) for v in s.distances]
            fh.write(",".join(row) + "\n")
    return path


def read_cache(path, dataset_ids):
    ids = np.asarray(dataset_ids, dtype=np.int64)
    row_of = {int(v): r for r, v in enumerate(ids)}
    sets = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        L = (len(header) - 1) // 2
        if header[0] != "id" or len(header) != 1 + 2 * L:
            raise ValueError(f"{path}: not a neighbor cache CSV")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            if len(parts) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(parts)}"
                )
            try:
                rows = [row_of[int(v)] for v in parts[: 1 + L]]
                dist = np.array([float(v) for v in parts[1 + L :]])
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: id {exc} is not in the dataset") from None
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            sets.append(NeighborSet(rows[0], np.array(rows[1:], dtype=np.int64), dist))
    sets.sort(key=lambda s: s.owner)
    return sets
