"""Cleanliness scores from predictions along segments to nearest neighbors.

The integral score for a sample (x, y) averages, over its L nearest
neighbors x~, the integral of f_y along the straight segment from x to
x~, approximated with an H-trapezoid rule whose nodes include both
endpoints. The midpoint variant evaluates f_y once per neighbor at
(x + x~)/2. Any object with a predict_proba(points) -> (n, K) method can
serve as the model.

`segment_scores` computes every checkpoint's per-neighbor integrals and
midpoints in one chunked pass, and `score_models` averages them into
both scores and the consistency means. The pass evaluates f once at the
n samples, whose probabilities serve as every segment's endpoint nodes,
and evaluates only interior nodes. It runs over undirected edges: the
segments i -> j and j -> i are one segment, evaluated once from its
lower endpoint, and each node's K-vector of probabilities serves both
directions. Because the first layer of a network is affine, its
pre-activation at (1-t)x + t x~ is (1-t)z(x) + t z(x~), so no probe
coordinates are built. For H > 2, a sin first layer (the frozen lift)
is advanced along the segment by rotation, two transcendentals per
segment and unit (see `rotate_sin`); ReLU and identity first layers, and
a sin layer at H <= 2, interpolate the pre-activations and then
activate. The midpoint is node H/2 when H is even; for odd H it is one
more interior node, evaluated directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._records import read_rows, write_json, write_rows
from .errors import NumericError

# interior probe rows per chunk; bounds the scorer's working memory
_CHUNK_PROBES = 4096
# about as many (edge, unit) arrays as a rotating chunk holds besides its
# probe rows: endpoints, sin and cos at a, the step, its phasor, the
# running phasor; caps the edges per chunk when there are few nodes
_EDGE_ROWS = 8


@dataclass
class ScoreTable:
    """Per-sample score columns for one checkpoint epoch."""

    epoch: int
    ids: np.ndarray
    values: dict = field(default_factory=dict)  # kind -> (n,) array

    def add(self, kind, column):
        column = np.asarray(column, dtype=np.float64)
        if column.shape != self.ids.shape:
            raise ValueError("score column must align with ids")
        if not np.isfinite(column).all():
            raise NumericError(f"non-finite {kind} score at epoch {self.epoch}")
        self.values[kind] = column
        return self

    def kinds(self):
        return sorted(self.values)


@dataclass
class ConsistencyStats:
    """Group means of f_y at the samples and at 1-NN midpoints.

    e_cor / e_inc average f_y(x) over clean / noisy samples; em_cor and
    em_inc do the same for f_y((x + x~)/2) with x~ the single nearest
    neighbor. Empty groups are flagged in `missing` and left as None.
    """

    e_cor: float | None
    e_inc: float | None
    em_cor: float | None
    em_inc: float | None
    epoch: int | None = None
    missing: tuple = ()


def trapezoid_weights(trapezoids):
    """Weights of the H-trapezoid rule on its H + 1 nodes, t = 0 .. 1."""
    if trapezoids < 1:
        raise ValueError(f"trapezoids is {trapezoids}, not a positive integer")
    w = np.full(trapezoids + 1, 1.0 / trapezoids)
    w[0] = w[-1] = 0.5 / trapezoids
    return w


def segment_integral(model, x, x_tilde, label, trapezoids):
    """Trapezoid approximation of the integral of f_label from x to x_tilde."""
    w = trapezoid_weights(trapezoids)
    x = np.asarray(x, dtype=np.float64)
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    if x.shape != x_tilde.shape:
        raise ValueError("endpoint shapes differ")
    t = np.arange(trapezoids + 1) / trapezoids
    nodes = (1.0 - t)[:, None] * x + t[:, None] * x_tilde
    p = model.predict_proba(nodes)[:, label]
    return float(w @ p)


def _stages(model):
    """(first affine map, its activation, the rest of the network, sin?).

    For a network with hidden layers these are the first layer's
    pre-activation, its activation and the remaining layers, and the
    flag is the model's lift, which makes that activation sin. Any other
    model (an oracle, a stub with only predict_proba, a softmax without
    hidden layers) takes the identity for the first two, so interpolated
    pre-activations are the probe points themselves.
    """
    if len(getattr(model, "layer_dims", ())) > 2:
        W, b = model.weights[0], model.biases[0]
        return (
            lambda X: X @ W + b,
            lambda Z: model.activate(0, Z),
            lambda A: model.forward(A, start=1)[0],
            model.lift,
        )
    return (lambda X: X), (lambda Z: Z), model.predict_proba, False


def _same_frozen_lift(a, b):
    """True when both models share one frozen first layer, bit for bit."""
    return (
        getattr(a, "lift", False)
        and getattr(b, "lift", False)
        and np.array_equal(a.weights[0], b.weights[0])
        and np.array_equal(a.biases[0], b.biases[0])
    )


def _edges(nbr):
    """The undirected edges of an (n, L) neighbor table and the slots they serve.

    Returns (a, b, slots, slot_edge): the endpoints a <= b of every
    distinct segment, in (a, b) order; the flat slots i * L + l of the
    table, grouped by edge; and the edge of each grouped slot. A segment
    listed from both ends serves two slots.
    """
    n, L = nbr.shape
    src = np.repeat(np.arange(n), L)
    dst = nbr.ravel()
    key = np.minimum(src, dst) * n + np.maximum(src, dst)
    slots = np.argsort(key, kind="stable")
    key = key[slots]
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    a, b = np.divmod(key[new], n)
    return a, b, slots, np.cumsum(new) - 1


def _phasor(cos, sin):
    out = np.empty(cos.shape, dtype=np.complex128)
    out.real, out.imag = cos, sin
    return out


def rotate_sin(sin_a, cos_a, z_a, z_b, steps, out):
    """sin(z_a + k(z_b - z_a)/steps) for k = 1 .. steps - 1, by rotation.

    sin_a and cos_a are sin z_a and cos z_a. With D = (z_b - z_a)/steps,
    each step multiplies cos + i sin by e^{iD}, so the whole segment
    costs the two transcendentals cos D and sin D. Node k goes to
    out[:, k - 1], an array of shape z_a.shape[:1] + (>= steps - 1,) +
    z_a.shape[1:]; returns out.

    Drift. Let u = 2^-53 and assume sin and cos within one ulp (2u).
    The computed D is within 2u|D| of the exact step, and the computed
    e^{iD} is rho * e^{i phi} with |rho - 1| <= 2u and
    |phi - D| <= 2u + 2u|D|. One complex product adds at most 4u to the
    unit vector, and the start (cos z_a, sin z_a) is within 2u of
    exact. After k steps the phasor is therefore within
    2u + k(2u + 2u + 2u|D| + 4u) = u(2 + 8k + 2k|D|) of e^{i(z_a + kD)},
    to first order in u. The direct argument fl((1 - t)z_a + t z_b),
    t = k/steps, is within 4u(|z_a| + |z_b|) of the exact one, and
    np.sin adds 2u. As k|D| <= |z_a| + |z_b|, the difference from
    np.sin of the interpolated argument is at most
    u(4 + 8k + 6(|z_a| + |z_b|)). At k = 9 and |z| <= 150 that is
    2.1e-13; near z = 0 it is a few ulp. The three-term recurrence
    sin(z + (k+1)D) = 2 cos D sin(z + kD) - sin(z + (k-1)D) would
    amplify rounding by 1/|sin D| instead, which is unbounded at D = 0.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    rot = (np.asarray(z_b, dtype=np.float64) - z_a) / steps
    rot = _phasor(np.cos(rot), np.sin(rot))
    v = _phasor(cos_a, sin_a)
    for k in range(steps - 1):
        v *= rot
        out[:, k] = v.imag
    return out


@dataclass
class Segments:
    """One checkpoint's values per neighbor, before the mean over L.

    inn[i, l] is the trapezoid integral of f_y(i) along the segment from
    sample i to its l-th neighbor, midpoint[i, l] is f_y(i) at the
    segment's midpoint, and p_self[i] is f_y(i) at sample i.
    """

    inn: np.ndarray
    midpoint: np.ndarray
    p_self: np.ndarray


def segment_scores(dataset, neighbor_ids, trapezoids, checkpoints):
    """Every checkpoint's per-neighbor integrals and midpoints, in one pass.

    neighbor_ids is an (n, L) row-index table as `neighbors.search`
    returns it, nearest first, and every column is scored; pass
    `nbr[:, :L]` to score fewer. trapezoids is H. checkpoints is a list
    of (epoch, model). Returns one Segments per checkpoint. Checkpoints
    whose frozen first layer is identical share its activations, which
    are computed once per chunk.

    The pass runs over undirected edges: a segment listed by both of its
    ends is evaluated once, from its lower endpoint a, and the full
    K-vector at each interior node serves both directions. The b -> a
    direction reads the nodes in reverse order, which changes neither
    the trapezoid sum (its weights are symmetric) nor the midpoint
    (t = 1/2 maps to itself).
    """
    H = trapezoids
    w = trapezoid_weights(H)
    X = dataset.features
    y = dataset.observed_labels
    n = dataset.n
    nbr = np.asarray(neighbor_ids)
    if nbr.ndim != 2 or nbr.shape[0] != n or nbr.shape[1] < 1:
        raise ValueError(f"need an (n={n}, L >= 1) neighbor id table, got {nbr.shape}")
    L = nbr.shape[1]
    rows = np.arange(n)

    t = np.arange(H + 1) / H
    # interior nodes, plus t = 1/2 when it is not one of them
    t_in = t[1:-1] if H % 2 == 0 else np.append(t[1:-1], 0.5)
    mid = H // 2 - 1 if H % 2 == 0 else H - 1
    T = t_in.size
    left = (1.0 - t_in)[None, :, None]
    right = t_in[None, :, None]
    a, b, slots, slot_edge = _edges(nbr)
    chunk = max(1, _CHUNK_PROBES // max(T, _EDGE_ROWS))
    bounds = np.searchsorted(slot_edge, np.arange(0, a.size + chunk, chunk))

    groups = []  # positions of checkpoints that share one frozen lift
    for c, (_, model) in enumerate(checkpoints):
        for group in groups:
            if _same_frozen_lift(checkpoints[group[0]][1], model):
                group.append(c)
                break
        else:
            groups.append([c])

    out = [None] * len(checkpoints)
    for members in groups:
        stages = [_stages(checkpoints[c][1]) for c in members]
        affine, activate, _, sin_lift = stages[0]
        rotate = sin_lift and H > 2  # else the only interior node is t = 1/2
        tails = [tail for _, _, tail, _ in stages]
        Z = affine(X)
        A = activate(Z)
        C = np.cos(Z) if rotate else None
        for c, tail in zip(members, tails):
            P = tail(A)  # f at the n samples: every segment's endpoint nodes
            p_self = P[rows, y]
            # the endpoint terms of each slot's trapezoid sum
            ends = w[0] * p_self[:, None] + w[H] * P[nbr, y[:, None]]
            out[c] = Segments(ends, np.empty((n, L)), p_self)
        for e0, lo, hi in zip(range(0, a.size, chunk), bounds[:-1], bounds[1:]):
            ea = a[e0 : e0 + chunk]
            za, zb = Z[ea], Z[b[e0 : e0 + chunk]]
            m = ea.size
            if rotate:
                A_in = np.empty((m, T, Z.shape[1]))
                rotate_sin(A[ea], C[ea], za, zb, H, out=A_in)
                if H % 2:
                    A_in[:, H - 1] = np.sin(0.5 * za + 0.5 * zb)
            else:
                A_in = activate(left * za[:, None, :] + right * zb[:, None, :])
            A_in = A_in.reshape(m * T, -1)
            s = slots[lo:hi]
            at, label = slot_edge[lo:hi] - e0, y[s // L]
            for c, tail in zip(members, tails):
                # f_y of each slot's own sample, at its edge's interior nodes
                nodes = tail(A_in).reshape(m, T, -1)[at, :, label]
                out[c].inn.reshape(-1)[s] += nodes[:, : H - 1] @ w[1:H]
                out[c].midpoint.reshape(-1)[s] = nodes[:, mid]
    return out


def summarize(dataset, checkpoints, segments, n_neighbors):
    """(tables, stats) from segment_scores' output, averaging the first
    n_neighbors neighbors: one ScoreTable per checkpoint with columns
    "inn" and "midpoint", and one ConsistencyStats per checkpoint, or
    None for each when the dataset has no true labels."""
    for seg in segments:
        if not 1 <= n_neighbors <= seg.inn.shape[1]:
            raise ValueError(f"n_neighbors is {n_neighbors}, not in [1, {seg.inn.shape[1]}]")
    tables = [
        ScoreTable(epoch, dataset.ids.copy())
        .add("inn", seg.inn[:, :n_neighbors].mean(axis=1))
        .add("midpoint", seg.midpoint[:, :n_neighbors].mean(axis=1))
        for seg, (epoch, _) in zip(segments, checkpoints)
    ]
    if dataset.true_labels is None:
        return tables, [None] * len(checkpoints)
    clean = dataset.clean_mask()
    stats = [
        _consistency(seg.p_self, seg.midpoint[:, 0], clean, epoch)
        for seg, (epoch, _) in zip(segments, checkpoints)
    ]
    return tables, stats


def score_models(dataset, neighbor_ids, trapezoids, checkpoints):
    """Score every sample under every checkpoint in one chunked pass.

    Arguments as for segment_scores. Returns (tables, stats) as
    summarize does, averaging over every column of neighbor_ids. The
    consistency statistics read only the samples and their 1-NN
    midpoints, which `nbr[:, :1]` at H = 1 evaluates alone.
    """
    segments = segment_scores(dataset, neighbor_ids, trapezoids, checkpoints)
    return summarize(dataset, checkpoints, segments, np.shape(neighbor_ids)[1])


def _consistency(p_self, p_mid, clean, epoch):
    missing = []
    if not clean.any():
        missing.append("clean")
    if clean.all():
        missing.append("noisy")

    def group_mean(values, mask):
        return float(values[mask].mean()) if mask.any() else None

    return ConsistencyStats(
        e_cor=group_mean(p_self, clean),
        e_inc=group_mean(p_self, ~clean),
        em_cor=group_mean(p_mid, clean),
        em_inc=group_mean(p_mid, ~clean),
        epoch=epoch,
        missing=tuple(missing),
    )


# --- score files --------------------------------------------------------


_SCORE_HEADER = ("id", "epoch", "score_kind", "value")


def write_score_csv(tables, path):
    """Long-format CSV `id,epoch,score_kind,value`, deterministically ordered."""
    rows = (
        [str(sid), str(table.epoch), kind, repr(value)]
        for table in tables
        for kind in table.kinds()
        for sid, value in zip(table.ids.tolist(), table.values[kind].tolist())
    )
    return write_rows(path, _SCORE_HEADER, rows)


def write_score_summary(tables, trapezoids, n_neighbors, path):
    """JSON companion to the score CSV: H and L plus table shape."""
    return write_json(path, {
        "config": {"trapezoids": trapezoids, "n_neighbors": n_neighbors},
        "epochs": [t.epoch for t in tables],
        "kinds": sorted({k for t in tables for k in t.values}),
        "n_samples": int(tables[0].ids.shape[0]) if tables else 0,
    })


def read_score_csv(path):
    """Read back a score CSV; returns ScoreTables sorted by epoch.

    Every (epoch, kind) column must list the ids of the file's first
    column, in the same order and each once; ValueError names the line.
    """
    _, rows = read_rows(path, _SCORE_HEADER,
                        {"id": int, "epoch": int, "score_kind": str, "value": float})
    columns = {}
    for lineno, (sid, epoch, kind, value) in rows:
        columns.setdefault((epoch, kind), []).append((lineno, sid, value))
    lines, first, _ = zip(*next(iter(columns.values())))
    line_of = {}
    for lineno, sid in zip(lines, first):
        if line_of.setdefault(sid, lineno) != lineno:
            raise ValueError(f"{path}: line {lineno}: id {sid} already on line {line_of[sid]}")
    tables = {}
    for (epoch, kind), column in columns.items():
        lines, ids, values = zip(*column)
        if ids != first:
            at = next((j for j, (a, b) in enumerate(zip(ids, first)) if a != b), len(first))
            raise ValueError(f"{path}: line {lines[min(at, len(lines) - 1)]}: {kind} at epoch "
                             f"{epoch} does not list the ids of the first column in order")
        table = tables.setdefault(epoch, ScoreTable(epoch, np.array(first, dtype=np.int64)))
        table.add(kind, np.array(values))
    return [tables[epoch] for epoch in sorted(tables)]
