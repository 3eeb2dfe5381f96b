"""Synthetic datasets and the label-corruption protocols.

Every corruption draws per-sample randomness keyed by (seed, id), so the
noisy label of a sample never depends on array order or on which other
samples are present. This script builds each protocol once and prints
the realized noise rates next to their analytic expectations.
"""

import numpy as np

from innscore import data

# clean 4-class Gaussian blobs on a circle
ds = data.synth("blobs", n=20_000, n_classes=4, dim=2, spread=0.5, seed=0)
print(f"blobs: n={ds.n} d={ds.d} K={ds.n_classes} "
      f"class counts={np.bincount(ds.true_labels).tolist()}")

# symmetric noise: replacement drawn uniformly over ALL K classes, so the
# expected fraction of actually flipped labels is r (K-1)/K
for rate in (0.1, 0.3, 0.8):
    noisy = data.corrupt(ds, "symmetric", rate, seed=1)
    print(f"symmetric r={rate}: realized {noisy.noisy_fraction():.4f}  "
          f"expected {rate * 3 / 4:.4f}")

# class-conditional map in the style of visually-confusable pairs
# (e.g. indices for truck->automobile, bird->airplane, deer->horse, cat<->dog)
mapped = data.corrupt(ds, "map", rate=0.4, seed=2, mapping={3: 1, 2: 0})
print(f"asym map r=0.4 on classes 2,3: realized {mapped.noisy_fraction():.4f}  "
      f"expected {0.4 * 0.5:.4f}")

# cyclic chain: every class moves to (y*+1) mod K with probability r
chain = data.corrupt(ds, "chain", rate=0.2, seed=3)
print(f"asym chain r=0.2: realized {chain.noisy_fraction():.4f}  expected 0.2000")

# two-class imbalanced: keep all of class 0, a tenth of class 1, flip 30%
ds2 = data.synth("blobs", n=10_000, n_classes=2, dim=2, spread=0.5, seed=4)
imb = data.build_imbalanced(ds2, class_a=0, class_b=1, keep_frac=0.1, flip_p=0.3, seed=5)
sizes = {f"true {k}": int((imb.true_labels == k).sum()) for k in (0, 1)}
print(f"imbalanced: n={imb.n} {sizes} realized flips {imb.noisy_fraction():.4f}")

# corruption is reproducible and order-independent: shuffling the dataset
# first yields the same noisy label for every id
perm = np.random.default_rng(9).permutation(ds.n)
a = data.corrupt(ds, "symmetric", 0.3, seed=1)
b = data.corrupt(ds.subset(perm), "symmetric", 0.3, seed=1)
by_id = dict(zip(b.ids.tolist(), b.observed_labels.tolist()))
assert all(by_id[i] == y for i, y in zip(a.ids.tolist(), a.observed_labels.tolist()))
print("order independence: ok")
