"""Imbalanced two-class data: score histograms by (true, observed) group.

With a 10:1 class ratio and 30% flips, a model trained with plain
cross-entropy fits whatever looks like the majority class, so small-loss
ranking misfires on the minority; the integral score still separates
clean from noisy in both classes. The histogram CSVs written here have
one row per (group, bin), ready for any external plotter.
"""

import numpy as np

from innscore import evaluate, neighbors, scorer, tinynet
from innscore import data as data_mod

base = data_mod.synth("blobs", n=3000, n_classes=2, dim=2, spread=1.6, seed=0)
ds = data_mod.build_imbalanced(base, class_a=0, class_b=1, keep_frac=0.1, flip_p=0.3, seed=1)
clean = ds.clean_mask()
print(f"n={ds.n}: majority {(ds.true_labels == 0).sum()}, minority {(ds.true_labels == 1).sum()}, "
      f"flips {ds.noisy_fraction():.3f}")

h = tinynet.train(tinynet.init_model([2, 64, 4, 2], seed=2),
                  ds, tinynet.TrainConfig("ce", epochs=50, seed=2))
nbr, _ = neighbors.search(neighbors.build_index(h.model.penultimate(ds.features)), 10)
f = tinynet.train(tinynet.init_model([2, 256, 128, 2], seed=3, lift_freq=4.0),
                  ds, tinynet.TrainConfig("mixup", epochs=150, seed=3))
ce = tinynet.train(tinynet.init_model([2, 256, 128, 2], seed=4, lift_freq=4.0),
                   ds, tinynet.TrainConfig("ce", epochs=150, seed=4))

(table,), _ = scorer.score_models(ds, nbr, 10, [(150, f.model)])
inn = table.values["inn"]
losses = tinynet.per_sample_loss(ce.model, ds, "ce")
print(f"clean/noisy AUC: integral {evaluate.auc(inn, clean):.3f}, "
      f"negated CE loss {evaluate.auc(-losses, clean):.3f}")

for name, scores in (("integral", inn), ("neg-ce-loss", -losses)):
    table, edges = evaluate.grouped_histogram(scores, ds, bins=10)
    evaluate.write_histogram_csv(table, edges, f"histograms_{name}.csv")
    print(f"\n{name} score histograms (rows: true-observed group, cols: bins over [0,1])")
    for group in sorted(table):
        bars = " ".join(f"{c:4d}" for c in table[group])
        print(f"  {group}: {bars}")
print("\nwrote histograms_integral.csv and histograms_neg-ce-loss.csv")
