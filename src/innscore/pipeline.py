"""End-to-end runs: the stage functions of the step commands, in sequence.

`config.check_neighbor_count`, `check_training_steps` and `check_probe_rows`
vet the settings before any training, and a dataset of fewer rows than
`mixture.MIN_VALUES` is rejected then too. `tinynet.build_and_train` fits four
independent models, as `train` does: a feature model h (cross-entropy by
default), the scored model f (mixup by default) and the two small-loss
baselines. One pass over the exact neighbors of h's penultimate features
scores every checkpoint of f (integral and midpoint), `scorer.score_models`
gives each baseline's losses at the same epochs from an L = H = 1 pass (ce's
also its consistency rows), and `scorer.write_scores` writes them, as
`score` does. Each model's checkpoints end with its final model.
`mixture.split_to_files` splits the final `inn` scores (beta) and ce
losses (Gaussian), as `split` does (`--kind midpoint` splits the other
column), and the sweep report compares AUC across checkpoints.

Every stage derives its seed from the master seed by a fixed offset
(data +0, corruption +1, h +2, f +3, ce baseline +4, cene baseline +5),
so a run is reproducible end to end. The four trainings run side by
side on the `workers` pool, longest first (f, ce, cene, h), with at most
`threads` workers (default: the usable cores), and the neighbour search
and the scoring pass run on the same pool; the mixture fits and the
reports run on the calling thread. A model's bits depend only on its own
seed, and the search and the scores do not depend on the pool size, so
identical configs give byte-identical outputs (`timing.json` aside)
whatever the pool size.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import data as data_mod
from . import evaluate, mixture, neighbors, scorer, tinynet, workers
from ._records import write_json, write_rows
from .config import (SEGMENT_KINDS, RunConfig, check_neighbor_count, check_probe_rows,
                     check_training_steps, fields_from, write_manifest)


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


def make_dataset(cfg):
    """Synthesize or load, then apply the configured corruption."""
    if cfg.data_path:
        ds = data_mod.read_csv(cfg.data_path)
    else:
        ds = data_mod.synth(
            cfg.synth_kind, cfg.n, cfg.n_classes, cfg.dim, cfg.spread, cfg.seed
        )
    imbalance = (cfg.imb_class_a, cfg.imb_class_b, cfg.imb_keep, cfg.imb_flip)
    return data_mod.corrupt(ds, cfg.noise_kind, cfg.noise_rate, cfg.seed + 1, cfg.noise_map,
                            imbalance)


def _train_model(ds, cfg, hidden, lift_freq, loss_kind, epochs, offset, checkpoint_every):
    """(TrainResult, TrainConfig, seconds) of one of the run's models; only
    a mixup model reads mixup_alpha."""
    t0 = time.perf_counter()
    settings = fields_from(tinynet.TrainConfig, cfg)
    if loss_kind != "mixup":
        del settings["mixup_alpha"]
    tc = tinynet.TrainConfig(**{**settings, "loss_kind": loss_kind, "epochs": epochs,
                                "seed": cfg.seed + offset, "checkpoint_every": checkpoint_every})
    return tinynet.build_and_train(ds, hidden, lift_freq, tc), tc, time.perf_counter() - t0


def _scored_checkpoints(result, epochs):
    """The (epoch, model) checkpoints of a training `result` of `epochs`
    epochs, ending with its final model: appended when no checkpoint was
    taken at the last epoch, as when checkpoint_every does not divide it."""
    if result.checkpoints and result.checkpoints[-1][0] == epochs:
        return result.checkpoints
    return [*result.checkpoints, (epochs, result.model)]


def run_pipeline(cfg, quiet=False, threads=None):
    clock = _PhaseClock()
    out = cfg.out_dir
    paths = {}
    ds = make_dataset(cfg)
    if ds.n < mixture.MIN_VALUES:  # imbalanced noise may have dropped rows
        raise ValueError(f"the dataset has n = {ds.n} rows, fewer than the "
                         f"{mixture.MIN_VALUES} that the mixture fits need")
    l_max = max([cfg.n_neighbors, *(cfg.l_sweep or ())])  # one search serves both
    name = "n_neighbors" if l_max == cfg.n_neighbors else "l_sweep"
    check_neighbor_count(ds.n, l_max, f"{name} is {getattr(cfg, name)}")
    model_epochs = ((3 if cfg.baselines else 1) * cfg.epochs + cfg.h_epochs) * cfg.epoch_scale
    check_training_steps(ds.n, cfg.batch_size, model_epochs,
                         f"epochs {cfg.epochs}, h_epochs {cfg.h_epochs} and epoch_scale "
                         f"{cfg.epoch_scale:g}")
    f_epochs = cfg.scaled(cfg.epochs)
    h_epochs = cfg.scaled(cfg.h_epochs)
    ckpt_every = None if cfg.checkpoint_every is None else cfg.scaled(cfg.checkpoint_every)
    n_ckpts = -(-f_epochs // ckpt_every) if ckpt_every else 1  # the final model among them
    check_probe_rows(ds.n, l_max, cfg.trapezoids, n_ckpts, SEGMENT_KINDS,
                     f"trapezoids {cfg.trapezoids}, {l_max} neighbors and {n_ckpts} checkpoints")
    ckpt_dir = os.path.join(out, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    if ds.true_labels is not None and cfg.noise_kind != "none":
        _log(f"dataset: n={ds.n} d={ds.d} K={ds.n_classes} "
             f"noisy_fraction={ds.noisy_fraction():.4f}", quiet)
    paths["dataset"] = data_mod.write_csv(ds, os.path.join(out, "dataset.csv"))
    clock.lap("data")

    # longest first: (hidden widths, lift, loss, epochs, seed offset, checkpoint_every)
    models = {"f": (cfg.hidden, cfg.lift_freq, cfg.f_loss, f_epochs, 3, ckpt_every),
              "ce": (cfg.hidden, cfg.lift_freq, "ce", f_epochs, 4, ckpt_every),
              "cene": (cfg.hidden, cfg.lift_freq, "cene", f_epochs, 5, ckpt_every),
              "h": (cfg.h_hidden, 0.0, cfg.h_loss, h_epochs, 2, None)}
    jobs = {tag: functools.partial(_train_model, ds, cfg, *model) for tag, model in models.items()
            if cfg.baselines or tag in ("f", "h")}
    done = dict(zip(jobs, workers.run(list(jobs.values()), threads)))
    train_models = {tag: seconds for tag, (_, _, seconds) in done.items()}
    trained = {tag: done[tag][0] for tag in ("h", "f", "ce", "cene") if tag in done}
    rows = ([str(epoch), tag, repr(loss)] for tag, res in trained.items()
            for epoch, loss in enumerate(res.epoch_loss, 1))
    paths["train_trace"] = write_rows(
        os.path.join(out, "train_trace.csv"), ("epoch", "model", "mean_loss"), rows
    )
    h_result, h_tc, _ = done["h"]
    _log(f"trained h ({cfg.h_loss}, {h_epochs} epochs)", quiet)
    clock.lap("train")

    nbr, dist = neighbors.search(h_result.model.penultimate(ds.features), l_max, threads)
    paths["neighbors"] = neighbors.write_cache(
        nbr, dist, ds.ids, os.path.join(out, "neighbors.csv")
    )
    zero = int((dist[:, cfg.n_neighbors - 1] == 0).sum())  # neighbors picked by the id tie-break
    _log(f"neighbor search done (L={l_max}; {zero} of {ds.n} rows have neighbor "
         f"{cfg.n_neighbors} at distance 0)", quiet)
    clock.lap("neighbor_search")

    f_result, f_tc, _ = done["f"]
    f_ckpts = _scored_checkpoints(f_result, f_epochs)
    _log(f"trained f ({cfg.f_loss}, {f_epochs} epochs, {len(f_ckpts)} checkpoints)", quiet)
    base_ckpts = {tag: _scored_checkpoints(res, f_epochs)
                  for tag, res in trained.items() if tag in ("ce", "cene")}
    if base_ckpts:
        _log("trained ce and cene baselines", quiet)

    # one pass at the widest L serves both the tables and the L-sweep
    f_segments = scorer.segment_scores(ds, nbr, cfg.trapezoids, f_ckpts, threads)
    tables, f_stats = scorer.summarize(ds, f_ckpts, f_segments, cfg.n_neighbors)
    stats = {"f": f_stats}
    for tag, ckpts in base_ckpts.items():
        kind = f"loss_{tag}"  # a pass at L = H = 1
        base_tables, stats[tag] = scorer.score_models(ds, nbr, cfg.trapezoids, ckpts, threads,
                                                      kinds=(kind,))
        for table, base_table in zip(tables, base_tables):
            table.add(kind, base_table.values[kind])
    consistency = [(epoch, tag, stats[tag][c])  # none without true labels
                   for c, (epoch, _) in enumerate(f_ckpts) for tag in ("ce", "f")
                   if tag in stats and stats[tag][c] is not None]
    paths["scores"], paths["scores_summary"] = scorer.write_scores(tables, cfg.trapezoids,
                                                                   cfg.n_neighbors, out)
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

    final = tables[-1]
    splits = {}
    for kind, fit_name, stem in (("inn", "bmm_fit.json", "split_scores"),
                                 ("loss_ce", "gmm_fit.json", "split_loss")):
        if kind in final.values:
            _, splits[stem] = mixture.split_to_files(final.values[kind], kind, cfg.normalize,
                                                     cfg.threshold, final.ids, out,
                                                     f"{stem}.csv", fit_name)
            paths[stem] = os.path.join(out, f"{stem}.csv")
    clock.lap("mixture")

    report = None
    clean = None if ds.true_labels is None else ds.clean_mask()
    if clean is not None and len(set(clean.tolist())) < 2:
        _log("skipping AUC report: dataset is entirely clean or entirely noisy", quiet)
    elif clean is not None:
        report = evaluate.sweep_report(tables, clean)
        if cfg.l_sweep:
            report.flags["l_sweep"] = _l_sweep_aucs(f_segments[-1].inn, cfg.l_sweep, clean)
            paths["lsweep"] = write_rows(
                os.path.join(out, "lsweep.csv"), ("L", "auc"),
                ([str(row["L"]), repr(row["auc"])] for row in report.flags["l_sweep"]["aucs"]),
            )
        kinds = [kind for kind in ("inn", "loss_ce") if kind in final.values]
        paths.update(report.write_outputs(out, final, ds, kinds, cfg.bins))
    clock.lap("eval")

    timing = {**clock.table(), "train_models": train_models,
              "train_workers": workers.pool_size(threads, len(jobs))}
    write_manifest(asdict(cfg))  # JSON writes the tuple fields as lists
    write_json(os.path.join(out, "timing.json"), timing)
    tinynet.save_checkpoint(h_result.model, os.path.join(ckpt_dir, "h_final.ckpt"), h_epochs, h_tc)
    for epoch, model in f_ckpts:
        tinynet.save_checkpoint(model, os.path.join(ckpt_dir, f"f_epoch{epoch}.ckpt"), epoch, f_tc)

    return PipelineResult(cfg, ds, tables, report, consistency, splits["split_scores"],
                          splits.get("split_loss"), timing, paths)


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

