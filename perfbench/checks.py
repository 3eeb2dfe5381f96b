"""Output checks for benchmark operations, computed apart from the program.

Each check recomputes an output from the operation's input files with the
code in this file, or tests a property the method must have; none compares
against a stored copy of earlier output. The code here reads the
checkpoint format itself, runs its own numpy forward pass (sin lift, ReLU,
softmax), finds neighbours by brute force ordered by (distance, id),
applies the trapezoid rule, counts the Mann-Whitney AUC from average ranks
and evaluates split posteriors with `scipy.stats.beta`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

# log() floor of the per-sample loss, as the loss is defined
PROB_FLOOR = 1e-12
# min-max normalised scores are clamped this far inside (0, 1) before the split
SPLIT_CLAMP = 1e-4
SPLIT_THRESHOLD = 0.5
VALUE_TOL = 1e-9


@dataclass
class RunOutputs:
    """Where one operation's outputs are and what they must hold."""

    dataset: str  # dataset CSV with true labels
    scores: str  # score CSV `id,epoch,score_kind,value`
    kinds: tuple  # score kinds the command was asked for
    f_ckpts: dict  # epoch -> checkpoint of the scored model
    h_ckpt: str  # feature model whose penultimate layer defines neighbours
    split: str  # split CSV `id,posterior,assignment` of the final inn column
    bmm_fit: str  # beta-mixture fit behind the split
    neighbors: str | None = None  # neighbour cache written by the run
    auc_csv: str | None = None  # AUCs written by the run
    gmm_fit: str | None = None  # Gaussian-mixture fit on loss_ce
    loss_from_f: bool = False  # loss_ce is the scored checkpoint's own loss


def read_dataset(path):
    """Returns (ids, features, observed labels, true labels)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header[0] != "id" or header[-2:] != ["label", "true_label"]:
        raise ValueError(f"{path}: not a dataset CSV with true labels")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = table[:, 0].astype(np.int64)
    return ids, table[:, 1:-2], table[:, -2].astype(np.int64), table[:, -1].astype(np.int64)


def read_scores(path):
    """Returns ({(epoch, kind): {id: value}}, data row count, duplicate count)."""
    columns, rows, duplicates = {}, 0, 0
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "id,epoch,score_kind,value":
            raise ValueError(f"{path}: not a score CSV")
        for line in fh:
            sid, epoch, kind, value = line.rstrip("\n").split(",")
            column = columns.setdefault((int(epoch), kind), {})
            duplicates += int(sid) in column
            column[int(sid)] = float(value)
            rows += 1
    return columns, rows, duplicates


def read_split(path):
    """Returns (ids, posteriors, labeled mask) of a split CSV."""
    ids, post, labeled = [], [], []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "id,posterior,assignment":
            raise ValueError(f"{path}: not a split CSV")
        for line in fh:
            sid, p, tag = line.rstrip("\n").split(",")
            ids.append(int(sid))
            post.append(float(p))
            labeled.append(tag == "labeled")
    return np.array(ids, dtype=np.int64), np.array(post), np.array(labeled)


def read_checkpoint(path):
    """Layers [(W, b, activation)] of an `INNM` checkpoint; the last has none."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, n_dims = struct.unpack_from("<4sII", blob, 0)
    if magic != b"INNM" or version not in (1, 2):
        raise ValueError(f"{path}: not a version 1 or 2 checkpoint")
    dims = struct.unpack_from(f"<{n_dims}I", blob, 12)
    offset = 12 + 4 * n_dims
    codes = bytes(n_dims - 2)
    if version == 2:
        codes = blob[offset : offset + n_dims - 2]
        offset += n_dims - 2
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, offset).reshape(fan_in, fan_out)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(blob, "<f8", fan_out, offset)
        offset += 8 * fan_out
        act = None if k == n_dims - 2 else ("sin" if codes[k] & 1 else "relu")
        layers.append((w, b, act))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} bytes past the last layer")
    return layers


def forward(layers, x):
    """(class probabilities, penultimate activations) of the MLP at rows x."""
    a = np.asarray(x, dtype=np.float64)
    for w, b, act in layers[:-1]:
        z = a @ w + b
        a = np.sin(z) if act == "sin" else np.maximum(z, 0.0)
    w, b, _ = layers[-1]
    logits = a @ w + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), a


def brute_neighbors(features, row, n_neighbors):
    """Nearest rows to `row` by Euclidean distance, then by row index; self excluded."""
    diff = features - features[row]
    dist = np.sqrt((diff * diff).sum(axis=1))
    dist[row] = np.inf
    order = np.lexsort((np.arange(features.shape[0]), dist))[:n_neighbors]
    return order, dist


def segment_scores(layers, x, y, nbr_rows, rows, trapezoids):
    """(inn, midpoint) of each row in `rows` against its neighbour rows."""
    t = np.arange(trapezoids + 1) / trapezoids
    weights = np.full(trapezoids + 1, 1.0 / trapezoids)
    weights[[0, -1]] = 0.5 / trapezoids
    inn, mid = [], []
    for r, nbr in zip(rows, nbr_rows):
        ends = x[nbr]  # (L, d)
        nodes = (1.0 - t)[None, :, None] * x[r] + t[None, :, None] * ends[:, None, :]
        p = forward(layers, nodes.reshape(-1, x.shape[1]))[0][:, y[r]]
        inn.append((p.reshape(len(nbr), -1) @ weights).mean())
        mid.append(forward(layers, 0.5 * (x[r] + ends))[0][:, y[r]].mean())
    return np.array(inn), np.array(mid)


def mann_whitney_auc(scores, clean):
    """P(clean outranks noisy), ties counted one half, from average ranks."""
    clean = np.asarray(clean, dtype=bool)
    ranks = stats.rankdata(scores)
    n_pos, n_neg = int(clean.sum()), int((~clean).sum())
    return (ranks[clean].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def beta_posterior(fit, x):
    """Clean-component posterior of a two-component beta-mixture fit at x."""
    if fit["degenerate"]:
        return np.ones_like(x)
    params = np.asarray(fit["params"])
    logj = np.stack(
        [stats.beta.logpdf(x, a, b) for a, b in params], axis=1
    ) + np.log(np.asarray(fit["weights"]))
    post = np.exp(logj - special.logsumexp(logj, axis=1, keepdims=True))
    return post[:, fit["clean_component"]]


def _close(a, b, tol=VALUE_TOL):
    return np.abs(np.asarray(a) - np.asarray(b)) <= tol * (1.0 + np.abs(np.asarray(b)))


def check(out, sample_rows, seed):
    """Check one operation's outputs.

    Returns (failures, quality): a list of one-line failure messages and
    the AUC of the final inn column and the truly clean share of the
    split's labeled set, both computed here from the true labels.
    """
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    # L and H as the run echoes them next to its score file; a wrong echo
    # makes the recomputed neighbours and scores differ from the written ones.
    with open(os.path.join(os.path.dirname(out.scores), "scores_summary.json"), encoding="utf-8") as fh:
        config = json.load(fh)["config"]
    L, trapezoids = int(config["n_neighbors"]), int(config["trapezoids"])
    ids, x, y, true = read_dataset(out.dataset)
    n = ids.shape[0]
    clean = y == true
    row_of = {int(v): r for r, v in enumerate(ids)}
    epochs = sorted(out.f_ckpts)
    final = epochs[-1]
    columns, rows, duplicates = read_scores(out.scores)

    # Shape: one row per (sample, kind, checkpoint), every id present once.
    expect(rows == n * len(out.kinds) * len(epochs),
           f"scores: {rows} rows, expected {n} x {len(out.kinds)} kinds x {len(epochs)} checkpoints")
    expect(duplicates == 0, f"scores: {duplicates} repeated (id, epoch, kind) rows")
    expect(set(columns) == {(e, k) for e in epochs for k in out.kinds},
           f"scores: columns {sorted(columns)} differ from the requested ones")
    full = {key: col for key, col in columns.items() if len(col) == n and set(col) == set(row_of)}
    expect(len(full) == len(columns), "scores: some columns miss dataset ids")
    values = {key: np.array([col[int(i)] for i in ids]) for key, col in full.items()}

    # Ranges the scores must lie in.
    for (epoch, kind), v in values.items():
        if kind in ("inn", "midpoint"):
            expect(bool(((v >= 0.0) & (v <= 1.0)).all()), f"{kind}@{epoch}: values outside [0, 1]")
        elif kind == "loss_ce":
            expect(bool((v >= 0.0).all()), f"loss_ce@{epoch}: negative values")

    # Neighbours by brute force on h's penultimate features.
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(n, size=min(sample_rows, n), replace=False))
    features = forward(read_checkpoint(out.h_ckpt), x)[1]
    expected, dists = zip(*(brute_neighbors(features, r, L) for r in sample))
    if out.neighbors:
        cache = {}
        with open(out.neighbors, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                parts = line.rstrip("\n").split(",")
                cache[int(parts[0])] = parts[1:]
        for r, want, dist in zip(sample, expected, dists):
            got = cache.get(int(ids[r]), [])
            if len(got) != 2 * L:
                failures.append(f"neighbors: id {ids[r]} missing or not {L} wide")
                continue
            got_rows = np.array([row_of.get(int(v), -1) for v in got[:L]])
            got_dist = np.array([float(v) for v in got[L:]])
            valid = (got_rows >= 0).all() and r not in got_rows and len(set(got_rows)) == L
            # Rows may trade places only where their distances differ by rounding;
            # exact ties must follow the id order.
            near = valid and _close(dist[got_rows], dist[want]) & (dist[got_rows] != dist[want])
            expect(valid and bool(((got_rows == want) | near).all()),
                   f"neighbors: id {ids[r]} lists rows {got_rows.tolist()}, brute force gives {want.tolist()}")
            expect(bool(_close(got_dist, dist[want]).all()), f"neighbors: id {ids[r]} distances differ")

    # inn, midpoint and loss_ce recomputed on the sampled rows.
    for epoch in epochs:
        layers = read_checkpoint(out.f_ckpts[epoch])
        inn, mid = segment_scores(layers, x, y, expected, sample, trapezoids)
        own = {"inn": inn, "midpoint": mid}
        if out.loss_from_f:
            p = forward(layers, x[sample])[0][np.arange(sample.size), y[sample]]
            own["loss_ce"] = -np.log(np.maximum(p, PROB_FLOOR))
        for kind, want in own.items():
            if (epoch, kind) in values:
                got = values[(epoch, kind)][sample]
                bad = np.flatnonzero(~_close(got, want))
                expect(bad.size == 0, f"{kind}@{epoch}: {bad.size} sampled rows differ from the "
                                      f"recomputed value, first id {ids[sample[bad[0]]] if bad.size else ''}")

    # AUC of every column against the true clean mask.
    quality = {"inn_auc": float("nan"), "clean_precision": float("nan")}
    if (final, "inn") in values:
        quality["inn_auc"] = mann_whitney_auc(values[(final, "inn")], clean)
    if out.auc_csv:
        with open(out.auc_csv, encoding="utf-8") as fh:
            fh.readline()
            written = [line.rstrip("\n").split(",") for line in fh]
        expect(len(written) == len(values), f"auc: {len(written)} rows for {len(values)} columns")
        for epoch, kind, value in written:
            sign = -1.0 if kind.startswith("loss") else 1.0
            if (int(epoch), kind) in values:
                want = mann_whitney_auc(sign * values[(int(epoch), kind)], clean)
                expect(bool(_close(float(value), want)), f"auc {kind}@{epoch}: {value} != {want!r}")

    # Split posteriors from the beta-mixture parameters the run wrote.
    with open(out.bmm_fit, encoding="utf-8") as fh:
        fit = json.load(fh)
    split_ids, post, labeled = read_split(out.split)
    expect(np.array_equal(np.sort(split_ids), np.sort(ids)), "split: ids differ from the dataset")
    if (final, "inn") in values and split_ids.shape == ids.shape:
        s = values[(final, "inn")][[row_of[int(i)] for i in split_ids]]
        lo, hi = s.min(), s.max()
        norm = np.clip((s - lo) / (hi - lo), SPLIT_CLAMP, 1.0 - SPLIT_CLAMP) if hi > lo else np.full_like(s, 0.5)
        want = beta_posterior(fit, norm)
        bad = np.flatnonzero(~_close(post, want, 1e-8))
        expect(bad.size == 0, f"split: {bad.size} posteriors differ from scipy.stats.beta")
        decided = np.abs(want - SPLIT_THRESHOLD) > 1e-8
        expect(bool((labeled == (post >= SPLIT_THRESHOLD)).all()
                    and (labeled[decided] == (want[decided] >= SPLIT_THRESHOLD)).all()),
               "split: labels disagree with the posterior threshold")
        clean_of = clean[[row_of[int(i)] for i in split_ids]]
        if labeled.any():
            quality["clean_precision"] = float(clean_of[labeled].mean())

    # EM may stop, but its log-likelihood never decreases.
    for path in (out.bmm_fit, out.gmm_fit):
        if path:
            with open(path, encoding="utf-8") as fh:
                trace = np.asarray(json.load(fh)["loglik_trace"])
            expect(bool((np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[1:]))).all()),
                   f"{path}: EM log-likelihood decreased")
    return failures, quality
