"""Datasets, synthetic generators and label-corruption protocols.

Every protocol has one rule (`_flip`): with a probability drawn from a
per-sample keyed hash (seed, id), a sample takes its target label, so a
sample's corrupted label never depends on array order or on which other
samples are present. Features and true labels are never mutated;
corruption returns a new dataset with a fresh observed-label column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import check_unique, read_columns, write_rows
from .config import NOISE_KINDS

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
        raise ValueError(f"dim is {dim}, not at least 2")
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


def build_imbalanced(ds, class_a, class_b, keep_frac, flip_p, seed):
    """Two-class imbalanced construction.

    Keeps every class_a sample (relabeled 0) and a keep_frac Bernoulli
    subsample of class_b (relabeled 1), then flips each observed label
    with probability flip_p. Original ids are preserved.
    """
    if ds.true_labels is None:
        raise ValueError("imbalanced construction requires true labels")
    if class_a == class_b:
        raise ValueError(f"imb_class_b is {class_b}, the same class as imb_class_a")
    if not 0.0 < keep_frac <= 1.0:
        raise ValueError(f"imb_keep is {keep_frac}, not in (0, 1]")
    if not 0.0 <= flip_p <= 1.0:
        raise ValueError(f"imb_flip is {flip_p}, not in [0, 1]")
    is_a = ds.true_labels == class_a
    is_b = ds.true_labels == class_b
    for name, label, present in (("imb_class_a", class_a, is_a), ("imb_class_b", class_b, is_b)):
        if not present.any():
            raise ValueError(f"{name} is {label}, a class with no samples in the dataset")
    keep_b = is_b & (keyed_uniform(seed, ds.ids, _SALT_KEEP) < keep_frac)
    rows = np.flatnonzero(is_a | keep_b)
    true = is_b[rows].astype(np.int64)  # majority -> 0, minority -> 1
    observed = _flip(true, 1 - true, flip_p, seed, ds.ids[rows])
    return Dataset(ds.features[rows], observed, true, 2, ds.ids[rows])


def _flip(observed, target, rate, seed, ids):
    """`observed` with each sample's label replaced by its `target` with
    probability `rate`, drawn by id."""
    return np.where(keyed_uniform(seed, ids, _SALT_FLIP) < rate, target, observed)


def corrupt(ds, kind, rate, seed, mapping=None, imbalance=None):
    """Apply noise protocol `kind`, one of `config.NOISE_KINDS`. Symmetric,
    chain and map noise give a sample, with probability `rate`, a target
    label: a uniform draw over the K classes (which may be the original, so
    the expected noisy fraction is rate * (K - 1) / K), (y* + 1) mod K from
    the true label y*, or `mapping[y*]`, other classes keeping their labels.
    `imbalance` is the (class_a, class_b, keep_frac, flip_p) of
    `build_imbalanced`."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}, not one of {', '.join(NOISE_KINDS)}")
    if kind == "imbalanced":
        return build_imbalanced(ds, *imbalance, seed)
    if kind == "none":
        return ds
    if kind == "map" and not mapping:
        raise ValueError("map noise requires a label mapping")
    if ds.true_labels is None:
        raise ValueError("corruption requires true labels")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise_rate is {rate}, not in [0, 1]")
    if kind == "symmetric":
        target = np.floor(keyed_uniform(seed, ds.ids, _SALT_LABEL) * ds.n_classes).astype(np.int64)
    elif kind == "chain":
        target = (ds.true_labels + 1) % ds.n_classes
    else:
        outside = [label for pair in mapping.items() for label in pair
                   if not 0 <= label < ds.n_classes]
        if outside:
            raise ValueError(f"noise_map is {mapping}, with label {outside[0]} outside the "
                             f"dataset's classes [0, {ds.n_classes})")
        target = ds.observed_labels.copy()
        for src, dst in mapping.items():
            target[ds.true_labels == src] = dst
    return ds.with_observed(_flip(ds.observed_labels, target, rate, seed, ds.ids))


# --- file formats -----------------------------------------------------


def _dataset_header(d, has_true):
    return ["id", *(f"f{j}" for j in range(d)), "label"] + ["true_label"] * has_true


def write_csv(ds, path):
    """CSV with header id,f0..f{d-1},label[,true_label]; '.' decimal."""
    trues = [None] * ds.n if ds.true_labels is None else ds.true_labels.tolist()
    rows = (
        [str(sid), *map(repr, x), str(y)] + ([] if t is None else [str(t)])
        for sid, x, y, t in zip(
            ds.ids.tolist(), ds.features.tolist(), ds.observed_labels.tolist(), trues
        )
    )
    return write_rows(path, _dataset_header(ds.d, ds.true_labels is not None), rows)


def read_csv(path):
    """Read a dataset CSV as written by write_csv. Besides the checks of
    `_records.read_columns`, a repeated id raises ValueError, naming its line."""

    def header(names):
        has_true = names[-1] == "true_label"
        return _dataset_header(max(1, len(names) - 2 - has_true), has_true)

    names, lines, columns = read_columns(path, header, {"id": int, "f": float, "label": int,
                                                        "true_label": int})
    check_unique(path, columns[0], lines)
    has_true = names[-1] == "true_label"
    d = len(names) - 2 - has_true
    n_classes = max(2, 1 + int(np.max(columns[1 + d:])))  # over the label columns
    return Dataset(np.stack(columns[1 : 1 + d], axis=1), columns[1 + d],
                   columns[2 + d] if has_true else None, n_classes, columns[0])
