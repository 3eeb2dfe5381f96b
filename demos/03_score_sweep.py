"""Epoch sweep: integral scores vs small-loss baselines.

Ranks training samples by four cleanliness scores at a grid of training
checkpoints and compares clean/noisy AUC. The integral score averages,
over each sample's ten nearest neighbors, the trapezoid-rule integral of
the predicted probability of the sample's label along the segment to the
neighbor; baselines rank by negated per-sample training loss.
"""

from innscore import evaluate, mixture, neighbors, scorer, tinynet
from innscore import data as data_mod

L = H = 10

ds = data_mod.corrupt(data_mod.synth("blobs", n=1500, n_classes=4, dim=2, spread=1.6, seed=0),
                      "symmetric", 0.3, seed=1)
clean = ds.clean_mask()
print(f"n={ds.n}, noisy fraction {ds.noisy_fraction():.3f}")

h = tinynet.train(tinynet.init_model([2, 64, 4, 4], seed=2),
                  ds, tinynet.TrainConfig("ce", epochs=50, seed=2))
nbr, _ = neighbors.search(h.model.penultimate(ds.features), L)

train_cfg = dict(epochs=200, checkpoint_every=25, batch_size=128, lr0=0.02)
f = tinynet.train(tinynet.init_model([2, 256, 128, 4], seed=3, lift_freq=4.0),
                  ds, tinynet.TrainConfig("mixup", seed=3, **train_cfg))
ce = tinynet.train(tinynet.init_model([2, 256, 128, 4], seed=4, lift_freq=4.0),
                   ds, tinynet.TrainConfig("ce", seed=4, **train_cfg))
cene = tinynet.train(tinynet.init_model([2, 256, 128, 4], seed=5, lift_freq=4.0),
                     ds, tinynet.TrainConfig("cene", seed=5, **train_cfg))

# one pass scores inn and midpoint for every checkpoint of f
tables, _ = scorer.score_models(ds, nbr, H, f.checkpoints)
# the baselines' per-sample losses read each checkpoint's probabilities at the samples
for table, (_, ce_model), (_, cene_model) in zip(tables, ce.checkpoints, cene.checkpoints):
    for kind, model in (("ce", ce_model), ("cene", cene_model)):
        probs = model.predict_proba(ds.features)
        table.add(f"loss_{kind}", tinynet.per_sample_loss(probs, ds.observed_labels, kind))

report = evaluate.sweep_report(tables, clean)
print(f"\n{'epoch':>6} " + " ".join(f"{k:>10}" for k in ("inn", "midpoint", "loss_ce", "loss_cene")))
for epoch, _ in f.checkpoints:
    row = [report.auc_of(epoch, k) for k in ("inn", "midpoint", "loss_ce", "loss_cene")]
    print(f"{epoch:6d} " + " ".join(f"{v:10.4f}" for v in row))
print("\nAUC range across checkpoints (smaller = more stable):")
for kind, st in report.stability.items():
    print(f"  {kind:10s} {st['range']:.4f}")

# posterior split from the final integral scores
final = tables[-1]
_, split = mixture.split_column(final.values["inn"], "inn", ids=final.ids)
picked = set(int(v) for v in split.labeled_ids)
mask = [int(i) in picked for i in ds.ids]
precision = clean[mask].mean()
print(f"\nbeta-mixture split: {len(split.labeled_ids)} labeled, "
      f"precision {precision:.3f} vs clean base rate {clean.mean():.3f}")
