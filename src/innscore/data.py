"""Datasets, synthetic generators and label-corruption protocols.

Corruption draws its randomness from a per-sample keyed hash (seed, id),
so a sample's corrupted label never depends on array order or on which
other samples are present. Features and true labels are never mutated;
corruption returns a new dataset with a fresh observed-label column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_U64 = np.uint64

# salts separating the independent uniform streams per operation
_SALT_FLIP = 0x9E3779B97F4A7C15
_SALT_LABEL = 0xC2B2AE3D27D4EB4F
_SALT_KEEP = 0x165667B19E3779F9


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    observed_labels: np.ndarray  # (n,) int64 in [0, K)
    true_labels: np.ndarray | None  # (n,) int64 or None
    n_classes: int
    ids: np.ndarray  # (n,) int64, stable across subsetting

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.observed_labels = np.asarray(self.observed_labels, dtype=np.int64)
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.observed_labels.shape != (n,) or self.ids.shape != (n,):
            raise ValueError("labels and ids must align with features")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        for arr in (self.observed_labels,) + (
            (self.true_labels,) if self.true_labels is not None else ()
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_classes):
                raise ValueError("labels out of range")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def clean_mask(self):
        """True where the observed label matches the ground truth."""
        if self.true_labels is None:
            raise ValueError("clean mask undefined without true labels")
        return self.observed_labels == self.true_labels

    def noisy_fraction(self):
        return float(np.mean(~self.clean_mask()))

    def with_observed(self, observed):
        return Dataset(self.features, observed, self.true_labels, self.n_classes, self.ids)

    def subset(self, rows):
        rows = np.asarray(rows)
        return Dataset(
            self.features[rows],
            self.observed_labels[rows],
            None if self.true_labels is None else self.true_labels[rows],
            self.n_classes,
            self.ids[rows],
        )


@dataclass
class NoiseSpec:
    kind: str  # symmetric | asymmetric_map | asymmetric_chain | imbalanced_flip
    rate: float = 0.0
    mapping: dict | None = None
    seed: int = 0

    def validate(self, n_classes):
        if self.kind not in ("symmetric", "asymmetric_map", "asymmetric_chain", "imbalanced_flip"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        if self.kind == "asymmetric_map":
            if not self.mapping:
                raise ValueError("asymmetric_map requires a mapping")
            for src, dst in self.mapping.items():
                if not (0 <= src < n_classes and 0 <= dst < n_classes):
                    raise ValueError("mapping references labels outside [0, K)")


def _splitmix64(z):
    # standard splitmix64 finalizer, vectorized on uint64
    with np.errstate(over="ignore"):
        z = (z + _U64(0x9E3779B97F4A7C15)) & _U64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _U64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)) & _U64(0xFFFFFFFFFFFFFFFF)
        return z ^ (z >> _U64(31))


def keyed_uniform(seed, ids, salt):
    """Deterministic uniforms in [0, 1), one per id, independent of order."""
    ids = np.asarray(ids, dtype=np.int64).astype(_U64)
    base = _splitmix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _U64(salt))
    with np.errstate(over="ignore"):
        h = _splitmix64(ids + base)
    return (h >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))


def synth(kind, n, n_classes, dim, spread, seed):
    """Synthetic labeled data with clean observed labels.

    blobs: Gaussian clusters with std `spread` centered on a radius-2
    circle in the first two coordinates (extra dims are pure noise).
    two_moons: the usual pair of interleaved half circles (K must be 2).
    Labels are assigned round robin so every class appears.
    """
    if n < n_classes:
        raise ValueError("need at least one sample per class")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % n_classes
    if kind == "blobs":
        theta = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers = np.zeros((n_classes, dim))
        centers[:, 0] = 2.0 * np.cos(theta)
        centers[:, 1] = 2.0 * np.sin(theta)
        X = centers[labels] + rng.normal(0.0, spread, size=(n, dim))
    elif kind == "two_moons":
        if n_classes != 2:
            raise ValueError("two_moons is a two-class generator")
        t = rng.uniform(0.0, np.pi, size=n)
        X = rng.normal(0.0, spread, size=(n, dim))
        upper = labels == 0
        X[upper, 0] += np.cos(t[upper])
        X[upper, 1] += np.sin(t[upper])
        X[~upper, 0] += 1.0 - np.cos(t[~upper])
        X[~upper, 1] += 0.5 - np.sin(t[~upper])
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    ids = np.arange(n, dtype=np.int64)
    return Dataset(X, labels.copy(), labels.copy(), n_classes, ids)


def corrupt_symmetric(ds, rate, seed):
    """With probability `rate`, replace a label by a uniform draw over all
    K classes. The draw may reproduce the original label, so the expected
    fraction of actually-noisy samples is rate * (K - 1) / K."""
    if ds.true_labels is None:
        raise ValueError("corruption requires true labels")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    flip = keyed_uniform(seed, ds.ids, _SALT_FLIP) < rate
    draw = np.floor(keyed_uniform(seed, ds.ids, _SALT_LABEL) * ds.n_classes).astype(np.int64)
    observed = np.where(flip, draw, ds.observed_labels)
    return ds.with_observed(observed)


def corrupt_asymmetric(ds, spec, seed=None):
    """Class-conditional corruption from the true label.

    asymmetric_map: samples whose true class is in the mapping's domain
    move to their mapped label with probability rate; other classes are
    untouched. asymmetric_chain: every class moves to (y* + 1) mod K.
    """
    if ds.true_labels is None:
        raise ValueError("corruption requires true labels")
    spec.validate(ds.n_classes)
    if spec.kind not in ("asymmetric_map", "asymmetric_chain"):
        raise ValueError("corrupt_asymmetric expects an asymmetric spec")
    seed = spec.seed if seed is None else seed
    flip = keyed_uniform(seed, ds.ids, _SALT_FLIP) < spec.rate
    if spec.kind == "asymmetric_chain":
        target = (ds.true_labels + 1) % ds.n_classes
        eligible = np.ones(ds.n, dtype=bool)
    else:
        target = ds.true_labels.copy()
        eligible = np.zeros(ds.n, dtype=bool)
        for src, dst in spec.mapping.items():
            hit = ds.true_labels == src
            target[hit] = dst
            eligible |= hit
    observed = np.where(flip & eligible, target, ds.observed_labels)
    return ds.with_observed(observed)


def build_imbalanced(ds, class_a, class_b, keep_frac, flip_p, seed):
    """Two-class imbalanced construction.

    Keeps every class_a sample (relabeled 0) and a keep_frac Bernoulli
    subsample of class_b (relabeled 1), then flips each observed label
    with probability flip_p. Original ids are preserved.
    """
    if ds.true_labels is None:
        raise ValueError("imbalanced construction requires true labels")
    if class_a == class_b:
        raise ValueError("class_a and class_b must differ")
    if not 0.0 < keep_frac <= 1.0:
        raise ValueError("keep_frac must lie in (0, 1]")
    if not 0.0 <= flip_p <= 1.0:
        raise ValueError("flip_p must lie in [0, 1]")
    is_a = ds.true_labels == class_a
    is_b = ds.true_labels == class_b
    if not is_a.any() or not is_b.any():
        raise ValueError("both classes must be present")
    keep_b = is_b & (keyed_uniform(seed, ds.ids, _SALT_KEEP) < keep_frac)
    rows = np.flatnonzero(is_a | keep_b)
    true = is_b[rows].astype(np.int64)  # majority -> 0, minority -> 1
    flip = keyed_uniform(seed, ds.ids[rows], _SALT_FLIP) < flip_p
    observed = np.where(flip, 1 - true, true)
    return Dataset(ds.features[rows], observed, true, 2, ds.ids[rows])


# --- file formats -----------------------------------------------------


def write_csv(ds, path):
    """CSV with header id,f0..f{d-1},label[,true_label]; '.' decimal."""
    cols = ["id"] + [f"f{j}" for j in range(ds.d)] + ["label"]
    if ds.true_labels is not None:
        cols.append("true_label")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(ds.n):
            row = [str(ds.ids[i])]
            row += [repr(float(v)) for v in ds.features[i]]
            row.append(str(ds.observed_labels[i]))
            if ds.true_labels is not None:
                row.append(str(ds.true_labels[i]))
            fh.write(",".join(row) + "\n")
    return path


def read_csv(path, n_classes=None):
    """Read a dataset CSV as written by write_csv. A wrong field count, a
    non-integer id or label, a non-finite feature or a repeated id raises
    ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        has_true = header[-1] == "true_label"
        d = len(header) - (3 if has_true else 2)
        if d < 1 or header[0] != "id" or header[1] != "f0":
            raise ValueError(f"{path}: not a dataset CSV")
        ids, feats, labels, trues = [], [], [], []
        line_of = {}
        for lineno, line in enumerate(fh, 2):
            parts = line.rstrip("\n").split(",")
            if parts == [""]:
                continue
            where = f"{path}: line {lineno}"
            if len(parts) != len(header):
                raise ValueError(f"{where}: {len(parts)} fields, the header has {len(header)}")
            try:
                sid, label = int(parts[0]), int(parts[1 + d])
                row = [float(v) for v in parts[1 : 1 + d]]
                true = int(parts[2 + d]) if has_true else None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{where}: feature is not a finite number")
            if sid in line_of:
                raise ValueError(f"{where}: id {sid} already on line {line_of[sid]}")
            line_of[sid] = lineno
            ids.append(sid)
            feats.append(row)
            labels.append(label)
            trues.append(true)
    if not has_true:
        trues = None
    if n_classes is None:
        n_classes = 1 + max(labels + (trues or []), default=0)
    return Dataset(np.array(feats), labels, trues, max(n_classes, 2), np.array(ids))


def write_raw(ds, base_path):
    """Little-endian float32 row-major features + int32 labels + JSON sidecar."""
    base = str(base_path)
    feat_file = base + ".f32"
    labels_file = base + ".labels.i32"
    with open(feat_file, "wb") as fh:
        fh.write(ds.features.astype("<f4").tobytes(order="C"))
    with open(labels_file, "wb") as fh:
        fh.write(ds.observed_labels.astype("<i4").tobytes())
    true_file = None
    if ds.true_labels is not None:
        true_file = base + ".true.i32"
        with open(true_file, "wb") as fh:
            fh.write(ds.true_labels.astype("<i4").tobytes())
    import os

    sidecar = {
        "n": ds.n,
        "d": ds.d,
        "K": ds.n_classes,
        "labels_file": os.path.basename(labels_file),
        "true_labels_file": None if true_file is None else os.path.basename(true_file),
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return base + ".json"


def read_raw(sidecar_path):
    import os

    with open(sidecar_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(sidecar_path))
    base = str(sidecar_path)[: -len(".json")]
    n, d = int(meta["n"]), int(meta["d"])
    with open(base + ".f32", "rb") as fh:
        X = np.frombuffer(fh.read(), dtype="<f4").reshape(n, d).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"{sidecar_path}: row {bad[0]} has a non-finite feature")
    with open(os.path.join(base_dir, meta["labels_file"]), "rb") as fh:
        labels = np.frombuffer(fh.read(), dtype="<i4").astype(np.int64)
    trues = None
    if meta.get("true_labels_file"):
        with open(os.path.join(base_dir, meta["true_labels_file"]), "rb") as fh:
            trues = np.frombuffer(fh.read(), dtype="<i4").astype(np.int64)
    return Dataset(X, labels, trues, int(meta["K"]), np.arange(n, dtype=np.int64))
