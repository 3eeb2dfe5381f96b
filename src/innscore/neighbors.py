"""Exact L2 nearest-neighbor retrieval over the rows of a feature matrix.

`search(features, L, threads)` returns arrays ids (n, L) int64 and dist
(n, L) float64: row i's L nearest rows (positions in the feature matrix),
distance-ascending, ties broken by the smaller row index, never row i
itself. Distances are sqrt(sum((F[j] - F[i])^2)), the arithmetic of the
one-row oracle `query`, and the two agree bit for bit. Blocks of rows,
each with at most _CHUNK_ELEMENTS pairs, are (1) shortlisted: every
column whose g = |a|^2 + |b|^2 - 2 a.b, from one matrix product, is at
most the row's L-th smallest g plus a slack s; (2) rechecked with the
oracle's distance; (3) sorted by (distance, id), keeping the first L.
Each block is one job on the `workers` pool of at most `threads` workers
and writes only its own rows of ids and dist. The result is exact, so it
does not depend on the pool size.

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
only costs time. `search` rejects features whose squares overflow.
"""

from __future__ import annotations

import functools

import numpy as np

from . import workers
from ._records import read_rows, write_rows

# pairs per block and per recheck pass; bounds the search's working memory
_CHUNK_ELEMENTS = 1 << 17


def query(features, i, n_neighbors):
    """(ids (L,), dist (L,)) of the n_neighbors rows nearest to row i, self
    excluded: the oracle, in the shape of one row of `search`."""
    F = np.asarray(features, dtype=np.float64)
    n = F.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"row {i} out of range")
    if not 1 <= n_neighbors <= n - 1:
        raise ValueError("need 1 <= L <= n-1")
    diff = F - F[i]
    dist = np.sqrt((diff * diff).sum(axis=1))
    dist[i] = np.inf  # exclude self; duplicates at distance 0 stay eligible
    order = np.lexsort((np.arange(n), dist))[:n_neighbors]
    return order.astype(np.int64), dist[order]


def search(features, n_neighbors, threads=None):
    """(ids (n, L) int64, dist (n, L) float64) for every row of the 2-D
    matrix `features`, of at least two finite rows, with each block of rows
    a job on `workers.run`'s pool of `threads`; see the module notes."""
    F, L = np.asarray(features, dtype=np.float64), n_neighbors
    if F.ndim != 2 or F.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least two rows")
    if not np.isfinite(F).all():
        raise ValueError("features must be finite")
    n = F.shape[0]
    if not 1 <= L <= n - 1:
        raise ValueError("need 1 <= L <= n-1")
    sq = np.einsum("ij,ij->i", F, F)
    if not np.isfinite(4.0 * sq.max()):
        raise ValueError("features too large: squared distances overflow")
    slack = 8.0 * (F.shape[1] + 4) * np.finfo(np.float64).eps * (sq + sq.max())
    ids = np.empty((n, L), dtype=np.int64)
    dist = np.empty((n, L))

    def rows(start, stop):
        r = np.arange(start, stop)
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

    block = max(1, _CHUNK_ELEMENTS // n)
    workers.run([functools.partial(rows, start, min(start + block, n))
                 for start in range(0, n, block)], threads)
    return ids, dist


# --- neighbor cache file ----------------------------------------------
#
# CSV `id,n1..nL,d1..dL` keyed by dataset ids so an expensive search can
# be reused across score sweeps.


def _cache_header(L):
    return ["id"] + [f"n{k+1}" for k in range(L)] + [f"d{k+1}" for k in range(L)]


def _distance(cell):
    value = float(cell)
    if not 0.0 <= value < np.inf:
        raise ValueError("a distance is not finite, >= 0")
    return value


def write_cache(ids, dist, dataset_ids, path):
    ds_ids = np.asarray(dataset_ids, dtype=np.int64)
    rows = (
        [str(owner), *map(str, nbrs), *map(repr, dd)]
        for owner, nbrs, dd in zip(ds_ids.tolist(), ds_ids[ids].tolist(), dist.tolist())
    )
    return write_rows(path, _cache_header(ids.shape[1]), rows)


def read_cache(path, dataset_ids, n_neighbors=1):
    """(ids, dist) of a cache in dataset order; ValueError names the bad line or missing id."""
    ds_ids = np.asarray(dataset_ids, dtype=np.int64)
    row_of = {int(v): r for r, v in enumerate(ds_ids)}
    names, rows = read_rows(path, lambda names: _cache_header(max(1, (len(names) - 1) // 2)),
                            {"id": int, "n": int, "d": _distance})
    L = (len(names) - 1) // 2
    if L < max(1, n_neighbors):
        raise ValueError(f"{path}: line 1: {L} neighbor columns, fewer than L={n_neighbors}")
    ids = np.full((ds_ids.size, L), -1, dtype=np.int64)
    dist = np.empty((ds_ids.size, L))
    for lineno, cells in rows:
        try:
            owner, *nbrs = [row_of[v] for v in cells[: 1 + L]]
        except KeyError as exc:
            raise ValueError(f"{path}: line {lineno}: id {exc} is not in the dataset") from None
        d = cells[1 + L :]
        for bad, what in (
            (any(a > b for a, b in zip(d, d[1:])), "distances decrease along the row"),
            (owner in nbrs, "the row lists its own id as a neighbor"),
            (len(set(nbrs)) < L, "the row lists one neighbor twice"),
            (ids[owner, 0] >= 0, "the id already has a row"),
        ):
            if bad:
                raise ValueError(f"{path}: line {lineno}: {what}")
        ids[owner], dist[owner] = nbrs, d
    missing = np.flatnonzero(ids[:, 0] < 0)
    if missing.size:
        raise ValueError(f"{path}: line {rows[-1][0] + 1}: id {ds_ids[missing[0]]} has no row")
    return ids, dist
