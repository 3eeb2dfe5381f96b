"""Cleanliness scores from predictions along segments to nearest neighbors.

The integral score for a sample (x, y) averages, over its L nearest
neighbors x~, the integral of f_y along the straight segment from x to
x~, approximated with an H-trapezoid rule whose nodes include both
endpoints. The midpoint variant evaluates f_y once per neighbor at
(x + x~)/2. Any object with a predict_proba(points) -> (n, K) method can
serve as the model.

`score_models` computes both scores and the consistency means for
every checkpoint of a model in one chunked pass. It evaluates f once at
the n samples, whose probabilities serve as every segment's endpoint
nodes, and evaluates only the interior nodes per segment. Because the
first layer of a network is affine, its pre-activation at (1-t)x + t x~
is (1-t)z(x) + t z(x~), so interior nodes are interpolated from the
endpoint pre-activations and no probe coordinates are built. The
midpoint is node H/2 when H is even; for odd H it is evaluated as one
more interior node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# interior probe rows per chunk; bounds the scorer's working memory
_CHUNK_PROBES = 4096


@dataclass
class ScorerConfig:
    trapezoids: int = 10  # H
    n_neighbors: int = 10  # L

    def validate(self):
        if self.trapezoids < 1:
            raise ValueError("trapezoids must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")


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
    w = np.full(trapezoids + 1, 1.0 / trapezoids)
    w[0] = w[-1] = 0.5 / trapezoids
    return w


def segment_integral(model, x, x_tilde, label, trapezoids):
    """Trapezoid approximation of the integral of f_label from x to x_tilde."""
    if trapezoids < 1:
        raise ValueError("trapezoids must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    if x.shape != x_tilde.shape:
        raise ValueError("endpoint shapes differ")
    t = np.arange(trapezoids + 1) / trapezoids
    nodes = (1.0 - t)[:, None] * x + t[:, None] * x_tilde
    p = model.predict_proba(nodes)[:, label]
    return float(trapezoid_weights(trapezoids) @ p)


def _stages(model):
    """(first affine map, its activation, the rest of the network).

    For a network with hidden layers these are the first layer's
    pre-activation, its activation and the remaining layers. Any other
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
        )
    return (lambda X: X), (lambda Z: Z), model.predict_proba


def _same_frozen_lift(a, b):
    """True when both models share one frozen first layer, bit for bit."""
    return (
        len(getattr(a, "layer_dims", ())) > 2
        and len(getattr(b, "layer_dims", ())) > 2
        and 0 in a.frozen_layers
        and 0 in b.frozen_layers
        and a.activations[0] == b.activations[0]
        and np.array_equal(a.weights[0], b.weights[0])
        and np.array_equal(a.biases[0], b.biases[0])
    )


def score_models(dataset, neighbor_ids, config, checkpoints):
    """Score every sample under every checkpoint in one chunked pass.

    neighbor_ids is the (n, >= L) row-index table of `neighbors.search`,
    nearest first; only its first config.n_neighbors columns are used.
    checkpoints is a list of (epoch, model). Returns (tables, stats):
    one ScoreTable per checkpoint with columns "inn" and "midpoint", and
    one ConsistencyStats per checkpoint, or None for each when the
    dataset has no true labels. Checkpoints whose frozen first layer is
    identical share its activations, which are computed once per chunk.
    """
    config.validate()
    H, L = config.trapezoids, config.n_neighbors
    X = dataset.features
    y = dataset.observed_labels
    n = dataset.n
    nbr = np.asarray(neighbor_ids)
    if nbr.ndim != 2 or nbr.shape[0] != n or nbr.shape[1] < L:
        raise ValueError(f"need an (n={n}, >= L={L}) neighbor id table, got {nbr.shape}")
    nbr = nbr[:, :L]
    rows = np.arange(n)

    t = np.arange(H + 1) / H
    # interior nodes, plus t = 1/2 when it is not one of them
    t_in = t[1:-1] if H % 2 == 0 else np.append(t[1:-1], 0.5)
    mid = H // 2 - 1 if H % 2 == 0 else H - 1
    T = t_in.size
    w = trapezoid_weights(H)
    left = (1.0 - t_in)[None, None, :, None]
    right = t_in[None, None, :, None]

    groups = []  # positions of checkpoints that share one frozen lift
    for c, (_, model) in enumerate(checkpoints):
        for group in groups:
            if _same_frozen_lift(checkpoints[group[0]][1], model):
                group.append(c)
                break
        else:
            groups.append([c])

    inn = np.empty((len(checkpoints), n))
    midpoint = np.empty((len(checkpoints), n))
    mid_nearest = np.empty((len(checkpoints), n))
    p_self = np.empty((len(checkpoints), n))
    chunk = max(1, _CHUNK_PROBES // (L * T))
    for members in groups:
        stages = [_stages(checkpoints[c][1]) for c in members]
        affine, activate, _ = stages[0]
        tails = [tail for _, _, tail in stages]
        Z = affine(X)
        A = activate(Z)
        # every segment's endpoint nodes, f at the n samples
        probs = [tail(A) for tail in tails]
        for c, P in zip(members, probs):
            p_self[c] = P[rows, y]
        for start in range(0, n, chunk):
            r = rows[start : start + chunk]
            m = r.size
            Z_in = left * Z[r][:, None, None, :] + right * Z[nbr[r]][:, :, None, :]
            A_in = activate(Z_in.reshape(m * L * T, -1))
            labels = np.repeat(y[r], L * T)
            nodes = np.empty((m, L, H + 1))
            for c, tail, P in zip(members, tails, probs):
                p_in = tail(A_in)[np.arange(m * L * T), labels].reshape(m, L, T)
                nodes[:, :, 0] = P[r, y[r]][:, None]
                nodes[:, :, H] = P[nbr[r], y[r][:, None]]
                nodes[:, :, 1:H] = p_in[:, :, : H - 1]
                inn[c, r] = (nodes @ w).mean(axis=1)
                midpoint[c, r] = p_in[:, :, mid].mean(axis=1)
                mid_nearest[c, r] = p_in[:, 0, mid]

    tables = [
        ScoreTable(epoch, dataset.ids.copy()).add("inn", inn[c]).add("midpoint", midpoint[c])
        for c, (epoch, _) in enumerate(checkpoints)
    ]
    if dataset.true_labels is None:
        return tables, [None] * len(checkpoints)
    clean = dataset.clean_mask()
    stats = [
        _consistency(p_self[c], mid_nearest[c], clean, epoch)
        for c, (epoch, _) in enumerate(checkpoints)
    ]
    return tables, stats


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


def inn_scores(model, dataset, neighbor_ids, config, epoch=None):
    """One model's ScoreTable, with columns "inn" and "midpoint"."""
    tables, _ = score_models(dataset, neighbor_ids, config, [(epoch, model)])
    return tables[0]


def consistency_stats(model, dataset, neighbor_ids, epoch=None):
    """The four clean/noisy expectations of f_y at samples and 1-NN midpoints."""
    if dataset.true_labels is None:
        raise ValueError("consistency stats require true labels")
    # L = H = 1 evaluates only the samples and their 1-NN midpoints
    _, stats = score_models(dataset, neighbor_ids, ScorerConfig(1, 1), [(epoch, model)])
    return stats[0]


# --- score files --------------------------------------------------------


def write_score_csv(tables, path, append=False):
    """Long-format CSV `id,epoch,score_kind,value`, deterministically ordered."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        if not append:
            fh.write("id,epoch,score_kind,value\n")
        for table in tables:
            for kind in table.kinds():
                col = table.values[kind]
                for i, sid in enumerate(table.ids):
                    fh.write(f"{sid},{table.epoch},{kind},{float(col[i])!r}\n")
    return path


def write_score_summary(tables, config, path):
    """JSON companion to the score CSV: config echo plus table shape."""
    import json

    payload = {
        "config": {
            "trapezoids": config.trapezoids,
            "n_neighbors": config.n_neighbors,
        },
        "epochs": [t.epoch for t in tables],
        "kinds": sorted({k for t in tables for k in t.values}),
        "n_samples": int(tables[0].ids.shape[0]) if tables else 0,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_score_csv(path):
    """Read back a score CSV; returns ScoreTables sorted by epoch."""
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "id,epoch,score_kind,value":
            raise ValueError(f"{path}: not a score CSV")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                sid, epoch, kind, value = int(parts[0]), int(parts[1]), parts[2], float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            rows.setdefault(epoch, {}).setdefault(kind, []).append((sid, value))
    tables = []
    for epoch in sorted(rows):
        kinds = rows[epoch]
        first = next(iter(kinds.values()))
        ids = np.array([sid for sid, _ in first], dtype=np.int64)
        table = ScoreTable(epoch, ids)
        for kind, pairs in kinds.items():
            got = np.array([sid for sid, _ in pairs], dtype=np.int64)
            if not np.array_equal(got, ids):
                raise ValueError(f"{path}: inconsistent id sets across kinds at epoch {epoch}")
            table.add(kind, np.array([v for _, v in pairs]))
        tables.append(table)
    return tables
