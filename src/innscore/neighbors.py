"""Exact L2 nearest-neighbor retrieval over feature rows.

`search(index, L)` returns arrays ids (n, L) int64 and dist (n, L)
float64: row i's L nearest rows (positions in the feature matrix),
distance-ascending, ties broken by the smaller row index, never row i
itself. Distances are sqrt(sum((F[j] - F[i])^2)), the arithmetic of the
one-row oracle `query`, and the two agree bit for bit. Blocks of rows,
each with at most _CHUNK_ELEMENTS pairs, are (1) shortlisted: every
column whose g = |a|^2 + |b|^2 - 2 a.b, from one matrix product, is at
most the row's L-th smallest g plus a slack s; (2) rechecked with the
oracle's distance; (3) sorted by (distance, id), keeping the first L.

The slack. With u = eps/2, G_m = m u / (1 - m u), N = |a|^2 + |b|^2 and
D = |a - b|^2: the norms and a.b are length-p dot products, off by at most
G_p |.|^2 and G_p N / 2, and two additions add 4u N (1 + G_p), so
|g - D| <= E = (2 G_p + 5u) N. The oracle's squared distance e has
|e - D| <= G_(p+2) D, and its rounded square root is monotone, so
d_j <= d_k gives e_j <= (1 + 5u) e_k. The L columns with g <= g_L have
D <= g_L + E, so each of the oracle's first L has
D <= (1 + 5u)(1 + G_(p+2)) / (1 - G_(p+2)) (g_L + E) and g <= D + E; with
g_L <= 2N + E, to first order g <= g_L + (4p + 14) eps N. The search uses
s = 8 (p + 4) eps (|a|^2 + M), M the largest squared row norm: twice that,
which also covers the rounding of the norms and of g_L + s. A loose slack
only costs time. `build_index` rejects features whose squares overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# pairs per block and per recheck pass; bounds the search's working memory
_CHUNK_ELEMENTS = 1 << 17


@dataclass
class NeighborIndex:
    features: np.ndarray  # (n, p) float64, checked by build_index

    @property
    def n(self):
        return self.features.shape[0]


class NeighborRow(NamedTuple):
    ids: np.ndarray  # (L,) row indices, distance-ascending
    distances: np.ndarray  # (L,) nondecreasing


def build_index(feature_matrix):
    F = np.asarray(feature_matrix, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least two rows")
    if not np.isfinite(F).all():
        raise ValueError("features must be finite")
    if not np.isfinite(4.0 * np.einsum("ij,ij->i", F, F).max()):
        raise ValueError("features too large: squared distances overflow")
    return NeighborIndex(F)


def query(index, i, n_neighbors):
    """The n_neighbors rows nearest to row i, self excluded: the oracle."""
    n = index.n
    if not 0 <= i < n:
        raise ValueError(f"row {i} out of range")
    if not 1 <= n_neighbors <= n - 1:
        raise ValueError("need 1 <= L <= n-1")
    diff = index.features - index.features[i]
    dist = np.sqrt((diff * diff).sum(axis=1))
    dist[i] = np.inf  # exclude self; duplicates at distance 0 stay eligible
    order = np.lexsort((np.arange(n), dist))[:n_neighbors]
    return NeighborRow(order.astype(np.int64), dist[order])


def search(index, n_neighbors):
    """(ids (n, L) int64, dist (n, L) float64) for every row; see the module notes."""
    F, n, L = index.features, index.n, n_neighbors
    if not 1 <= L <= n - 1:
        raise ValueError("need 1 <= L <= n-1")
    sq = np.einsum("ij,ij->i", F, F)
    slack = 8.0 * (F.shape[1] + 4) * np.finfo(np.float64).eps * (sq + sq.max())
    ids = np.empty((n, L), dtype=np.int64)
    dist = np.empty((n, L))
    block = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, n, block):
        r = np.arange(start, min(start + block, n))
        g = sq - 2.0 * (F[r] @ F.T)
        g += sq[r, None]
        g[r - start, r] = np.inf
        kth = np.partition(g, L - 1, axis=1)[:, L - 1]
        keep = g <= (kth + slack[r])[:, None]
        keep[r - start, r] = False
        owner, cand = np.divmod(np.flatnonzero(keep), n)
        d = np.empty(owner.size)
        step = max(1, _CHUNK_ELEMENTS // F.shape[1])
        for s in range(0, owner.size, step):
            diff = F[cand[s : s + step]] - F[r[owner[s : s + step]]]
            d[s : s + step] = np.sqrt((diff * diff).sum(axis=1))
        order = np.lexsort((cand, d, owner))
        counts = np.bincount(owner, minlength=r.size)
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(L)]
        ids[r], dist[r] = cand[take], d[take]
    return ids, dist


# --- neighbor cache file ----------------------------------------------
#
# CSV `id,n1..nL,d1..dL` keyed by dataset ids so an expensive search can
# be reused across score sweeps.


def write_cache(ids, dist, dataset_ids, path):
    ds_ids = np.asarray(dataset_ids, dtype=np.int64)
    L = ids.shape[1]
    header = ["id"] + [f"n{k+1}" for k in range(L)] + [f"d{k+1}" for k in range(L)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for owner, nbrs, dd in zip(ds_ids.tolist(), ds_ids[ids].tolist(), dist.tolist()):
            fh.write(",".join([str(owner), *map(str, nbrs), *map(repr, dd)]) + "\n")
    return path


def read_cache(path, dataset_ids, n_neighbors=1):
    """(ids, dist) of a cache in dataset order; ValueError names the bad line or missing id."""
    ds_ids = np.asarray(dataset_ids, dtype=np.int64)
    row_of = {int(v): r for r, v in enumerate(ds_ids)}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        L = (len(header) - 1) // 2
        if header[0] != "id" or len(header) != 1 + 2 * L:
            raise ValueError(f"{path}: not a neighbor cache CSV")
        if L < max(1, n_neighbors):
            raise ValueError(f"{path}: line 1: {L} neighbor columns, fewer than L={n_neighbors}")
        ids = np.full((ds_ids.size, L), -1, dtype=np.int64)
        dist = np.empty((ds_ids.size, L))
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            try:
                if len(parts) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(parts)}")
                owner, *nbrs = [row_of[int(v)] for v in parts[: 1 + L]]
                d = [float(v) for v in parts[1 + L :]]
                for bad, what in (
                    (not all(0 <= v < np.inf for v in d), "a distance is not finite, >= 0"),
                    (any(a > b for a, b in zip(d, d[1:])), "distances decrease along the row"),
                    (owner in nbrs, "the row lists its own id as a neighbor"),
                    (len(set(nbrs)) < L, "the row lists one neighbor twice"),
                    (ids[owner, 0] >= 0, "the id already has a row"),
                ):
                    if bad:
                        raise ValueError(what)
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: id {exc} is not in the dataset") from None
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            ids[owner], dist[owner] = nbrs, d
    missing = np.flatnonzero(ids[:, 0] < 0)
    if missing.size:
        raise ValueError(f"{path}: id {ds_ids[missing[0]]} has no row")
    return ids, dist
