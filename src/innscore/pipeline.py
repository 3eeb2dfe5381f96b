"""End-to-end runs: data, training, neighbor search, scoring, splits, reports.

A run trains a feature model h (cross-entropy by default), builds the
exact neighbor index on h's penultimate features, trains the scored
model f (mixup by default) plus the two small-loss baseline models (one
per loss), and then records integral and midpoint scores of every
checkpoint of f, from one scoring pass, alongside the baselines'
per-sample losses at the same epochs. Scores feed a beta-mixture split,
losses a Gaussian-mixture split, and the sweep report compares AUC
stability across checkpoints.

Every stage derives its seed from the master seed by a fixed offset
(data +0, corruption +1, h +2, f +3, ce baseline +4, cene baseline +5),
so a run is reproducible end to end. All randomness is numpy-based and
the stages run sequentially; identical configs give byte-identical
score CSVs.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data as data_mod
from . import evaluate, mixture, neighbors, scorer, tinynet
from ._records import write_json, write_rows
from .config import RunConfig, fields_from


@dataclass
class PipelineResult:
    config: RunConfig
    dataset: object
    score_tables: list
    report: object  # EvalReport or None when true labels are absent
    consistency: list  # (epoch, model tag, ConsistencyStats)
    score_split: object
    loss_split: object
    timing: dict
    paths: dict = field(default_factory=dict)


class _PhaseClock:
    def __init__(self):
        self.marks = [("start", time.perf_counter())]

    def lap(self, name):
        self.marks.append((name, time.perf_counter()))

    def table(self):
        phases = {}
        for (_, t0), (name, t1) in zip(self.marks, self.marks[1:]):
            phases[name] = phases.get(name, 0.0) + (t1 - t0)
        total = self.marks[-1][1] - self.marks[0][1]
        return {"phases": phases, "total": total}


def _log(msg, quiet):
    if not quiet:
        print(msg, file=sys.stderr)


def load_dataset(path):
    if not os.path.exists(path):
        raise ValueError(f"dataset file not found: {path}")
    if str(path).endswith(".json"):
        return data_mod.read_raw(path)
    return data_mod.read_csv(path)


def make_dataset(cfg):
    """Synthesize or load, then apply the configured corruption."""
    if cfg.data_path:
        ds = load_dataset(cfg.data_path)
    else:
        ds = data_mod.synth(
            cfg.synth_kind, cfg.n, cfg.n_classes, cfg.dim, cfg.spread, cfg.seed
        )
    imbalance = (cfg.imb_class_a, cfg.imb_class_b, cfg.imb_keep, cfg.imb_flip)
    return data_mod.corrupt(ds, cfg.noise_kind, cfg.noise_rate, cfg.seed + 1, cfg.noise_map,
                            imbalance)


def _train_model(ds, cfg, loss_kind, epochs, seed, checkpoint_every=None, feature_model=False):
    if feature_model:
        dims = [ds.d, *cfg.h_hidden, ds.n_classes]
        model = tinynet.init_model(dims, seed)
    else:
        dims = [ds.d, *cfg.hidden, ds.n_classes]
        model = tinynet.init_model(dims, seed, lift_freq=cfg.lift_freq)
    tc = tinynet.TrainConfig(**{**fields_from(tinynet.TrainConfig, cfg), "loss_kind": loss_kind,
                                "epochs": epochs, "seed": seed,
                                "checkpoint_every": checkpoint_every})
    return tinynet.train(model, ds, tc), tc


def run_pipeline(cfg, quiet=False):
    clock = _PhaseClock()
    out = cfg.out_dir
    paths = {}
    ds = make_dataset(cfg)
    os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
    if ds.true_labels is not None and cfg.noise_kind != "none":
        _log(f"dataset: n={ds.n} d={ds.d} K={ds.n_classes} "
             f"noisy_fraction={ds.noisy_fraction():.4f}", quiet)
    paths["dataset"] = data_mod.write_csv(ds, os.path.join(out, "dataset.csv"))
    clock.lap("data")

    f_epochs = cfg.scaled(cfg.epochs)
    h_epochs = f_epochs if cfg.share_epochs else cfg.scaled(cfg.h_epochs)
    ckpt_every = None if cfg.checkpoint_every is None else cfg.scaled(cfg.checkpoint_every)

    h_result, h_tc = _train_model(ds, cfg, cfg.h_loss, h_epochs, cfg.seed + 2, feature_model=True)
    _log(f"trained h ({cfg.h_loss}, {h_epochs} epochs)", quiet)
    clock.lap("train_h")

    feats = h_result.model.penultimate(ds.features)
    index = neighbors.build_index(feats)
    l_max = cfg.n_neighbors
    if cfg.l_sweep:
        l_max = max(l_max, max(cfg.l_sweep))
    nbr, dist = neighbors.search(index, l_max)
    paths["neighbors"] = neighbors.write_cache(
        nbr, dist, ds.ids, os.path.join(out, "neighbors.csv")
    )
    zero = int((dist[:, cfg.n_neighbors - 1] == 0).sum())  # neighbors picked by the id tie-break
    _log(f"neighbor search done (L={l_max}; {zero} of {ds.n} rows have neighbor "
         f"{cfg.n_neighbors} at distance 0)", quiet)
    clock.lap("neighbor_search")

    f_result, f_tc = _train_model(ds, cfg, cfg.f_loss, f_epochs, cfg.seed + 3, ckpt_every)
    f_ckpts = f_result.checkpoints or [(f_epochs, f_result.model)]
    _log(f"trained f ({cfg.f_loss}, {f_epochs} epochs, {len(f_ckpts)} checkpoints)", quiet)
    clock.lap("train_f")

    base_ckpts = {}
    trained = {"h": h_result, "f": f_result}
    if cfg.baselines:
        for offset, loss_kind in ((4, "ce"), (5, "cene")):
            res, _ = _train_model(ds, cfg, loss_kind, f_epochs, cfg.seed + offset, ckpt_every)
            base_ckpts[loss_kind] = res.checkpoints or [(f_epochs, res.model)]
            trained[loss_kind] = res
        _log("trained ce and cene baselines", quiet)
    rows = ([str(epoch), tag, repr(loss)] for tag, res in trained.items()
            for epoch, loss in enumerate(res.epoch_loss, 1))
    paths["train_trace"] = write_rows(
        os.path.join(out, "train_trace.csv"), ("epoch", "model", "mean_loss"), rows
    )
    clock.lap("train_baselines")

    # one pass at the widest L serves both the tables and the L-sweep
    f_segments = scorer.segment_scores(ds, nbr, cfg.trapezoids, f_ckpts)
    tables, f_stats = scorer.summarize(ds, f_ckpts, f_segments, cfg.n_neighbors)
    for loss_kind, ckpts in base_ckpts.items():
        if [e for e, _ in ckpts] != [e for e, _ in f_ckpts]:
            raise ValueError("baseline checkpoints out of step with f checkpoints")
        for table, (_, b_model) in zip(tables, ckpts):
            table.add(f"loss_{loss_kind}", tinynet.per_sample_loss(b_model, ds, loss_kind))
    consistency = []
    if ds.true_labels is not None:
        ce_stats = [None] * len(f_ckpts)
        if "ce" in base_ckpts:
            # L = H = 1 evaluates only the samples and their 1-NN midpoints
            _, ce_stats = scorer.score_models(ds, nbr[:, :1], 1, base_ckpts["ce"])
        for (epoch, _), ce_st, f_st in zip(f_ckpts, ce_stats, f_stats):
            if ce_st is not None:
                consistency.append((epoch, "ce", ce_st))
            consistency.append((epoch, "f", f_st))
    paths["scores"] = scorer.write_score_csv(tables, os.path.join(out, "scores.csv"))
    paths["scores_summary"] = scorer.write_score_summary(
        tables, cfg.trapezoids, cfg.n_neighbors, os.path.join(out, "scores_summary.json")
    )
    if consistency:
        paths["consistency"] = write_rows(
            os.path.join(out, "consistency.csv"),
            ("epoch", "model", "e_cor", "e_inc", "em_cor", "em_inc"),
            ([str(epoch), tag] + ["" if v is None else repr(v)
                                  for v in (st.e_cor, st.e_inc, st.em_cor, st.em_inc)]
             for epoch, tag, st in consistency),
        )
    _log(f"scored {len(tables)} checkpoints", quiet)
    clock.lap("scoring")

    main_kind = "inn" if cfg.mode == "integral" else "midpoint"
    final = tables[-1]
    fit, score_split = mixture.split_column(
        final.values[main_kind], "beta", cfg.normalize, cfg.threshold, final.ids
    )
    fit.to_json(os.path.join(out, "bmm_fit.json"))
    paths["split_scores"] = score_split.to_csv(os.path.join(out, "split_scores.csv"))
    loss_split = None
    if "loss_ce" in final.values:
        loss_fit, loss_split = mixture.split_column(
            final.values["loss_ce"], "gaussian", cfg.normalize, cfg.threshold, final.ids
        )
        loss_fit.to_json(os.path.join(out, "gmm_fit.json"))
        paths["split_loss"] = loss_split.to_csv(os.path.join(out, "split_loss.csv"))
    clock.lap("mixture")

    report = None
    one_sided = ds.true_labels is not None and len(set(ds.clean_mask().tolist())) < 2
    if one_sided:
        _log("skipping AUC report: dataset is entirely clean or entirely noisy", quiet)
    if ds.true_labels is not None and len(tables) >= 2 and not one_sided:
        clean = ds.clean_mask()
        report = evaluate.sweep_report(tables, clean)
        if cfg.l_sweep:
            report.flags["l_sweep"] = _l_sweep_aucs(f_segments[-1].inn, cfg.l_sweep, clean)
            paths["lsweep"] = write_rows(
                os.path.join(out, "lsweep.csv"), ("L", "auc"),
                ([str(row["L"]), repr(row["auc"])] for row in report.flags["l_sweep"]["aucs"]),
            )
        kinds = [kind for kind in (main_kind, "loss_ce") if kind in final.values]
        paths.update(report.write_outputs(out, final, ds, kinds, cfg.bins))
    clock.lap("eval")

    timing = clock.table()
    write_json(os.path.join(out, "manifest.json"), {
        "config": asdict(cfg),  # JSON writes the tuple fields as lists
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": _versions(),
    })
    write_json(os.path.join(out, "timing.json"), timing)
    tinynet.save_checkpoint(
        h_result.model, os.path.join(out, "checkpoints", "h_final.ckpt"), h_epochs, h_tc
    )
    for epoch, model in f_ckpts:
        tinynet.save_checkpoint(
            model, os.path.join(out, "checkpoints", f"f_epoch{epoch}.ckpt"), epoch, f_tc
        )

    return PipelineResult(
        cfg, ds, tables, report, consistency, score_split, loss_split, timing, paths
    )


def _l_sweep_aucs(segments, l_sweep, clean_mask):
    """Final-checkpoint integral AUC per neighbor count, from the prefix
    means of its (n, >= max L) per-neighbor integrals; the trend is
    reported, not asserted."""
    rows = [
        {"L": L, "auc": evaluate.auc(segments[:, :L].mean(axis=1), clean_mask)}
        for L in sorted(set(l_sweep))
    ]
    values = [r["auc"] for r in rows]
    return {
        "aucs": rows,
        "nondecreasing": all(b >= a - 1e-12 for a, b in zip(values, values[1:])),
    }


def _versions():
    import platform

    import scipy

    from . import __version__

    return {
        "innscore": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
