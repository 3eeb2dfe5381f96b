"""Exact L2 nearest-neighbor retrieval over the rows of a feature matrix.

`search(features, L, threads)` returns arrays ids (n, L) int64 and dist
(n, L) float64: row i's L nearest rows (positions in the feature matrix),
distance-ascending, ties broken by the smaller row index, never row i
itself. Distances are sqrt(sum((F[j] - F[i])^2)), the arithmetic of the
one-row oracle `query`, and the two agree bit for bit.

The search. The rows are split into leaves: every node of a level splits
at the median of its widest coordinate, until each leaf holds at most
_LEAF_ROWS rows, or more when its rows' pairs with all n rows still fit
one block of _CHUNK_ELEMENTS; a search of at most two blocks of pairs in
all is one leaf, with no stage 1. Each leaf keeps the bounding box of its
rows. Both stages run their jobs on the `workers` pool of at most
`threads` workers, each job's products in blocks of at most
_CHUNK_ELEMENTS pairs. Stage 1 bounds each row's L-th smallest squared
distance D from above by
b = g_L + s: g_L is its L-th smallest |a|^2 + |b|^2 - 2 a.b among the
other rows of the deepest tree node around it that holds at least L + 1
rows (its own leaf, unless leaves are smaller), and s is the slack below.
Stage 2 is one job per leaf. It keeps the leaves whose box lies within
the largest b of its rows, and on their columns it (1) shortlists every
column whose g = |b|^2 - 2 a.b, from one matrix product, is at most the
row's L-th smallest g plus s; (2) rechecks them with the oracle's
distance; (3) sorts them by (distance, id) and keeps the first L. A job
writes only its own rows of ids and dist. The result is exact, so it
depends on neither the leaf size nor the pool size.

The slack. With u = eps/2, G_m = m u / (1 - m u), N = |a|^2 + |b|^2 and
D = |a - b|^2: the norms and a.b are length-p dot products, off by at most
G_p |.|^2 and G_p N / 2, and two additions add 4u N (1 + G_p), so either
form of g is within E = (2 G_p + 5u) N of D (stage 2's plus |a|^2). The
oracle's squared distance e has |e - D| <= G_(p+2) D, and its rounded
square root is monotone, so d_j <= d_k gives e_j <= (1 + 5u) e_k. The L
columns with g <= g_L have D <= g_L + E, so each of the oracle's first L
has D <= (1 + 5u)(1 + G_(p+2)) / (1 - G_(p+2)) (g_L + E) and g <= D + E;
with g_L <= 2N + E, to first order g <= g_L + (4p + 14) eps N. The search
uses s = 8 (p + 4) eps (|a|^2 + M), M the largest squared row norm: twice
that, which also covers the rounding of the norms and of g_L + s. On a
subset of the columns that holds the oracle's first L, g_L is no
smaller, so the shortlist still keeps them.

The pruning. For two leaf boxes, c = sum_k max(0, lo_k - hi'_k,
lo'_k - hi_k)^2 is at most D for every pair of rows, one from each box;
computed, with a subtraction, a square and a length-p sum, it is at most
(1 + G_(p+3)) c. Stage 1's g_L, over L other rows, bounds the L-th
smallest D, so the leaf of each of the oracle's first L has a computed c
of at most (1 + G_(p+3))(1 + 5u)(1 + G_(p+2)) / (1 - G_(p+2)) (g_L + E),
to first order g_L + (4p + 14.5) eps N: within b, with no margin beyond
s. `search` rejects features whose squares overflow.
"""

from __future__ import annotations

import functools

import numpy as np

from . import workers
from ._records import write_lines

# pairs per block and per recheck pass; bounds the search's working memory
_CHUNK_ELEMENTS = 1 << 17
# most rows of a leaf unless its block allows more, at least 2; chosen by
# measurement, see CHANGES.md
_LEAF_ROWS = 96


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


def _tree(F):
    """(order, levels): the rows in an order in which every tree node is a
    range, and for each depth the nodes' range bounds, the leaves last."""
    n = F.shape[0]
    order, bounds = np.arange(n), np.array([0, n])
    levels = [bounds]
    if n * n <= 2 * _CHUNK_ELEMENTS:  # pruning could skip less than a stage 1 costs
        return order, levels
    most = max(_LEAF_ROWS, _CHUNK_ELEMENTS // n)  # a node that fits one block stays whole
    while n > most * (bounds.size - 1):  # the largest node has more
        sizes = np.diff(bounds)
        X = F[order]
        widest = np.argmax(np.maximum.reduceat(X, bounds[:-1]) -
                           np.minimum.reduceat(X, bounds[:-1]), axis=1)
        node = np.repeat(np.arange(sizes.size), sizes)
        order = order[np.lexsort((X[np.arange(n), widest[node]], node))]
        bounds = np.insert(bounds, np.arange(1, bounds.size), bounds[:-1] + sizes // 2)
        levels.append(bounds)
    return order, levels


def search(features, n_neighbors, threads=None):
    """(ids (n, L) int64, dist (n, L) float64) for every row of the 2-D
    matrix `features`, of at least two finite rows, with each leaf's rows
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
    order, levels = _tree(F)
    leaves = levels[-1]
    sizes = np.diff(leaves)
    lo = np.minimum.reduceat(F[order], leaves[:-1])
    hi = np.maximum.reduceat(F[order], leaves[:-1])
    leaf_of = np.empty(n, dtype=np.int64)
    leaf_of[order] = np.repeat(np.arange(sizes.size), sizes)

    # stage 1: the nodes of the deepest level with L + 1 rows in each, padded to one width,
    # in blocks of nodes, or of one node's rows when a node alone has more pairs
    nodes = next(b for b in reversed(levels) if np.diff(b).min() > L)
    width = np.diff(nodes).max()
    slot = nodes[:-1, None] + np.arange(width)
    pad = slot >= nodes[1:, None]
    slot = order[np.where(pad, 0, slot)]
    nodes_per = max(1, _CHUNK_ELEMENTS // (width * width))
    rows_per = max(1, _CHUNK_ELEMENTS // width)
    bound = np.full(n, np.inf)  # a single leaf needs no bound

    def stage_one(first, top):
        cols, fill = slot[first : first + nodes_per], pad[first : first + nodes_per]
        rows, real = cols[:, top : top + rows_per], ~fill[:, top : top + rows_per]
        X = F[cols]
        g = X[:, top : top + rows_per] @ X.transpose(0, 2, 1)
        g *= -2.0
        g += sq[cols][:, None, :]
        g += sq[rows][:, :, None]
        at = np.arange(rows.shape[1])
        g[:, at, top + at] = np.inf
        np.copyto(g, np.inf, where=fill[:, None, :])
        kth = np.partition(g, L - 1, axis=2)[:, :, L - 1]
        bound[rows[real]] = kth[real] + slack[rows[real]]

    if sizes.size > 1:
        workers.run([functools.partial(stage_one, first, top)
                     for first in range(0, nodes.size - 1, nodes_per)
                     for top in range(0, width, rows_per)], threads)

    def shortlist(r, cols, Fc, sqc):
        """Write rows r's ids and dist, from the columns cols (ascending)."""
        g = F[r] @ Fc.T  # -2 a.b: Fc holds -2 b, an exact scaling
        g += sqc
        g[np.arange(r.size), np.searchsorted(cols, r)] = np.inf  # a row's own leaf is kept
        cut = np.partition(g, L - 1, axis=1)[:, L - 1] + slack[r]  # frees the partitioned copy
        keep = g <= cut[:, None]
        owner, cand = np.divmod(np.flatnonzero(keep), cols.size)
        cand = cols[cand]
        d = np.empty(owner.size)
        step = max(1, _CHUNK_ELEMENTS // F.shape[1])
        for s in range(0, owner.size, step):
            diff = F[cand[s : s + step]] - F[r[owner[s : s + step]]]
            d[s : s + step] = np.sqrt((diff * diff).sum(axis=1))
        rank = np.lexsort((d, owner))  # stable: equal distances stay in id order
        counts = np.bincount(owner, minlength=r.size)
        take = rank[(np.cumsum(counts) - counts)[:, None] + np.arange(L)]
        ids[r], dist[r] = cand[take], d[take]

    def leaf(i):
        rows = order[leaves[i] : leaves[i + 1]]
        gap = np.maximum(lo - hi[i], lo[i] - hi)
        np.maximum(gap, 0.0, out=gap)
        near = np.einsum("ij,ij->i", gap, gap) <= bound[rows].max()
        cols = np.flatnonzero(near[leaf_of])
        Fc, sqc = F[cols], sq[cols]
        Fc *= -2.0
        block = max(1, _CHUNK_ELEMENTS // cols.size)
        for start in range(0, rows.size, block):
            shortlist(rows[start : start + block], cols, Fc, sqc)

    workers.run([functools.partial(leaf, i) for i in range(sizes.size)], threads)
    return ids, dist


# --- neighbor table file ----------------------------------------------
#
# CSV `id,n1..nL,d1..dL` keyed by dataset ids: the pipeline's neighbors.csv,
# a run output that nothing in innscore reads back.


def write_cache(ids, dist, dataset_ids, path):
    ds_ids = np.asarray(dataset_ids, dtype=np.int64)
    L = ids.shape[1]
    header = ["id"] + [f"n{k+1}" for k in range(L)] + [f"d{k+1}" for k in range(L)]
    line = ",".join(["{}"] * (1 + L) + ["{!r}"] * L) + "\n"  # str(id), repr(distance)
    columns = [ds_ids.tolist(), *ds_ids[ids].T.tolist(), *dist.T.tolist()]
    return write_lines(path, header, map(line.format, *columns))
