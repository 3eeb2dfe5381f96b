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

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import data as data_mod
from . import evaluate, mixture, neighbors, scorer, tinynet


@dataclass
class RunConfig:
    # data source: a file path or a synthetic spec
    data_path: str | None = None
    synth_kind: str = "blobs"
    n: int = 2000
    n_classes: int = 4
    dim: int = 2
    spread: float = 0.3
    # label corruption applied on top (none | symmetric | chain | map | imbalanced)
    noise_kind: str = "none"
    noise_rate: float = 0.0
    noise_map: dict | None = None
    imb_class_a: int = 0
    imb_class_b: int = 1
    imb_keep: float = 0.1
    imb_flip: float = 0.3
    # models; f and the loss baselines share `hidden` and the sinusoidal
    # lift, the feature model h gets its own stack (narrow penultimate,
    # no lift) so its embedding stays smooth
    hidden: tuple = (256, 128)
    lift_freq: float = 4.0
    h_hidden: tuple = (64, 4)
    h_loss: str = "ce"
    h_epochs: int = 50
    f_loss: str = "mixup"
    epochs: int = 300
    checkpoint_every: int | None = 50
    batch_size: int = 128
    lr0: float = 0.02
    momentum: float = 0.9
    lr_drop_factor: float = 5.0
    mixup_alpha: float = 1.0
    # scorer
    trapezoids: int = 10
    n_neighbors: int = 10
    mode: str = "integral"
    # extras
    baselines: bool = True
    l_sweep: tuple | None = None
    epoch_scale: float = 1.0
    share_epochs: bool = False
    normalize: bool = True
    threshold: float = 0.5
    bins: int = 20
    seed: int = 0
    out_dir: str = "out"

    def scaled(self, value):
        return max(1, int(round(value * self.epoch_scale)))

    def to_dict(self):
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        d["h_hidden"] = list(self.h_hidden)
        d["l_sweep"] = None if self.l_sweep is None else list(self.l_sweep)
        return d

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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
    return apply_noise(ds, cfg)


def apply_noise(ds, cfg):
    seed = cfg.seed + 1
    if cfg.noise_kind == "none":
        return ds
    if cfg.noise_kind == "symmetric":
        return data_mod.corrupt_symmetric(ds, cfg.noise_rate, seed)
    if cfg.noise_kind == "chain":
        spec = data_mod.NoiseSpec("asymmetric_chain", cfg.noise_rate, None, seed)
        return data_mod.corrupt_asymmetric(ds, spec)
    if cfg.noise_kind == "map":
        spec = data_mod.NoiseSpec("asymmetric_map", cfg.noise_rate, cfg.noise_map, seed)
        return data_mod.corrupt_asymmetric(ds, spec)
    if cfg.noise_kind == "imbalanced":
        return data_mod.build_imbalanced(
            ds, cfg.imb_class_a, cfg.imb_class_b, cfg.imb_keep, cfg.imb_flip, seed
        )
    raise ValueError(f"unknown noise kind {cfg.noise_kind!r}")


def _train_model(ds, cfg, loss_kind, epochs, seed, checkpoint_every=None, feature_model=False):
    if feature_model:
        dims = [ds.d, *cfg.h_hidden, ds.n_classes]
        model = tinynet.init_model(dims, seed)
    else:
        dims = [ds.d, *cfg.hidden, ds.n_classes]
        model = tinynet.init_model(dims, seed, lift_freq=cfg.lift_freq)
    tc = tinynet.TrainConfig(
        loss_kind=loss_kind,
        epochs=epochs,
        batch_size=cfg.batch_size,
        lr0=cfg.lr0,
        momentum=cfg.momentum,
        lr_drop_factor=cfg.lr_drop_factor,
        mixup_alpha=cfg.mixup_alpha,
        seed=seed,
        checkpoint_every=checkpoint_every,
    )
    return tinynet.train(model, ds, tc), tc


def run_pipeline(cfg, quiet=False, write_outputs=True):
    clock = _PhaseClock()
    out = cfg.out_dir
    paths = {}
    if write_outputs:
        os.makedirs(out, exist_ok=True)
        os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)

    ds = make_dataset(cfg)
    if ds.true_labels is not None and cfg.noise_kind != "none":
        _log(f"dataset: n={ds.n} d={ds.d} K={ds.n_classes} "
             f"noisy_fraction={ds.noisy_fraction():.4f}", quiet)
    if write_outputs:
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
    if write_outputs:
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
    if cfg.baselines:
        for offset, loss_kind in ((4, "ce"), (5, "cene")):
            res, _ = _train_model(ds, cfg, loss_kind, f_epochs, cfg.seed + offset, ckpt_every)
            base_ckpts[loss_kind] = res.checkpoints or [(f_epochs, res.model)]
        _log("trained ce and cene baselines", quiet)
    clock.lap("train_baselines")

    sc = scorer.ScorerConfig(cfg.trapezoids, cfg.n_neighbors)
    tables, f_stats = scorer.score_models(ds, nbr, sc, f_ckpts)
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
            _, ce_stats = scorer.score_models(
                ds, nbr, scorer.ScorerConfig(1, 1), base_ckpts["ce"]
            )
        for (epoch, _), ce_st, f_st in zip(f_ckpts, ce_stats, f_stats):
            if ce_st is not None:
                consistency.append((epoch, "ce", ce_st))
            consistency.append((epoch, "f", f_st))
    if write_outputs:
        paths["scores"] = scorer.write_score_csv(tables, os.path.join(out, "scores.csv"))
        paths["scores_summary"] = scorer.write_score_summary(
            tables, sc, os.path.join(out, "scores_summary.json")
        )
        if consistency:
            paths["consistency"] = _write_consistency_csv(
                consistency, os.path.join(out, "consistency.csv")
            )
    _log(f"scored {len(tables)} checkpoints", quiet)
    clock.lap("scoring")

    main_kind = "inn" if cfg.mode == "integral" else "midpoint"
    final = tables[-1]
    raw_scores = final.values[main_kind]
    fit_scores, degenerate = (
        mixture.normalize_scores(raw_scores) if cfg.normalize else (raw_scores, False)
    )
    if degenerate:
        fit = mixture.degenerate_fit("beta", fit_scores)
    else:
        fit = mixture.fit_beta_mixture(fit_scores)
    score_split = mixture.split(fit, fit_scores, cfg.threshold, ids=final.ids)
    loss_split = loss_fit = None
    if "loss_ce" in final.values:
        loss_fit = mixture.fit_gaussian_mixture(final.values["loss_ce"])
        loss_split = mixture.split(loss_fit, final.values["loss_ce"], cfg.threshold, ids=final.ids)
    if write_outputs:
        fit.to_json(os.path.join(out, "bmm_fit.json"))
        paths["split_scores"] = score_split.to_csv(os.path.join(out, "split_scores.csv"))
        if loss_split is not None:
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
            report.flags["l_sweep"] = _l_sweep_aucs(f_ckpts[-1], ds, nbr, cfg, clean)
            if write_outputs:
                with open(os.path.join(out, "lsweep.csv"), "w", encoding="utf-8") as fh:
                    fh.write("L,auc\n")
                    for row in report.flags["l_sweep"]["aucs"]:
                        fh.write(f"{row['L']},{row['auc']!r}\n")
                paths["lsweep"] = os.path.join(out, "lsweep.csv")
        if write_outputs:
            report.to_json(os.path.join(out, "report.json"))
            paths["auc"] = report.write_auc_csv(os.path.join(out, "auc.csv"))
            for kind in (main_kind, "loss_ce"):
                if kind in final.values:
                    table_h, edges = evaluate.grouped_histogram(
                        evaluate.score_orientation(kind) * final.values[kind], ds, cfg.bins
                    )
                    paths[f"hist_{kind}"] = evaluate.write_histogram_csv(
                        table_h, edges, os.path.join(out, f"histograms_{kind}.csv")
                    )
    clock.lap("eval")

    timing = clock.table()
    if write_outputs:
        manifest = {
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "versions": _versions(),
        }
        with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out, "timing.json"), "w", encoding="utf-8") as fh:
            json.dump(timing, fh, indent=2, sort_keys=True)
            fh.write("\n")
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


def _l_sweep_aucs(checkpoint, ds, nbr, cfg, clean_mask):
    """Final-checkpoint integral AUC per neighbor count; trend is reported,
    not asserted."""
    rows = []
    for L in sorted(set(cfg.l_sweep)):
        sub = scorer.ScorerConfig(cfg.trapezoids, L)
        (table,), _ = scorer.score_models(ds, nbr, sub, [checkpoint])
        rows.append({"L": L, "auc": evaluate.auc(table.values["inn"], clean_mask)})
    values = [r["auc"] for r in rows]
    return {
        "aucs": rows,
        "nondecreasing": all(b >= a - 1e-12 for a, b in zip(values, values[1:])),
    }


def _write_consistency_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,model,e_cor,e_inc,em_cor,em_inc\n")
        for epoch, tag, st in rows:
            cells = [str(epoch), tag] + [
                "" if v is None else repr(v)
                for v in (st.e_cor, st.e_inc, st.em_cor, st.em_inc)
            ]
            fh.write(",".join(cells) + "\n")
    return path


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
