"""Command-line front end.

Subcommands compose the library's stage functions, which `pipeline` runs
in sequence, writing each phase's wall clock to its `timing.json`:
`synth` and `corrupt` build datasets, `train` fits a model
(`tinynet.build_and_train`), `score` scores checkpoints
(`config.check_neighbor_count`, `check_probe_rows`, `neighbors.search` on
the penultimate layer of --features-from, `scorer.score_models`,
`write_scores`), `oracle` enumerates the analytic separation check, and
`split` and `eval` post-process score tables (`mixture.split_to_files`,
`evaluate`). A step command makes its --out after its settings checks,
before its work. Exit codes: 0 success, 2 bad configuration (a missing
input file among them), 3 numeric failure, 4 I/O failure or a refused
allocation.

Heavy imports happen inside handlers so that --threads can cap the BLAS
pools via environment variables before numpy loads. For `pipeline`,
--threads also caps the worker pool (`workers.run`) that trains the four
models side by side, searches the neighbours and scores; `score`
searches and scores on that pool at its default size, the usable cores.
A command whose pool has helpers runs all of its BLAS on one thread from
before its first BLAS call to its end (`workers.claim`). The outputs do
not depend on the pool size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

# stdlib-only modules, safe to import before --threads takes effect
from .config import (SCORE_KINDS, SEGMENT_KINDS, RunConfig, TrainConfig,
                     check_neighbor_count, check_probe_rows, check_score_kinds, check_threads,
                     check_training_steps, field_parser, fields_from, kind_list, label_map,
                     write_manifest)
from .errors import NumericError


def imbalance(text):
    """'class_a,class_b,keep_frac,flip_p' -> (int, int, float, float)."""
    a, b, keep, flip = text.split(",")
    return int(a), int(b), float(keep), float(flip)


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments as every configuration error is rejected: one
    `error: ...` line on stderr, without the usage block, and exit 2. It
    takes no abbreviated flag, so each setting has one spelling (and `--h`
    does not read as `--help`). The subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="innscore",
        description="Identify clean-labeled samples in noisy training data "
        "via integrated nearest-neighbor prediction scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_flags(p, RunConfig, ("synth_kind", "n", "n_classes", "dim", "spread", "seed", "out_dir"))
    p.add_argument("--name", default="dataset.csv")

    p = sub.add_parser("corrupt", help="apply a label-corruption protocol")
    p.add_argument("--data", dest="data_path", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sym", type=float, help="symmetric noise rate")
    g.add_argument("--chain", type=float, help="next-class chain noise rate")
    g.add_argument("--map", dest="label_map", type=label_map,
                   help="label map 'src:dst,...' (with --rate)")
    g.add_argument("--imbalanced", type=imbalance, help="'class_a,class_b,keep_frac,flip_p'")
    p.add_argument("--rate", type=float, default=None, help="rate for --map (default 1.0)")
    _add_flags(p, RunConfig, ("seed", "out_dir"))
    p.add_argument("--name", default="dataset.csv")

    p = sub.add_parser("train", help="train a classifier on a dataset file")
    p.add_argument("--data", dest="data_path", required=True)
    _add_flags(p, TrainConfig)
    _add_flags(p, RunConfig, ("hidden", "out_dir"))
    p.add_argument("--lift-freq", type=float, default=0.0,
                   help="frozen sinusoidal first layer frequency; 0 = plain ReLU MLP")

    p = sub.add_parser("score", help="score dataset samples with saved checkpoints")
    p.add_argument("--data", dest="data_path", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="f checkpoint; repeat for an epoch sweep")
    p.add_argument("--features-from", required=True,
                   help="checkpoint whose penultimate layer defines the neighbors, "
                        "searched on every run")
    _add_flags(p, RunConfig, ("n_neighbors", "trapezoids", "out_dir"))  # --l and --trapezoids
    p.add_argument("--kinds", type=kind_list, default=",".join(SEGMENT_KINDS),
                   help=f"columns to emit ({','.join(SCORE_KINDS)}); loss columns use the "
                        "scored checkpoint's own losses, and with loss columns alone the pass "
                        "runs, and the probe budget charges it, at --trapezoids 1 --l 1")

    p = sub.add_parser("oracle", help="enumerate the analytic separation check")
    _add_flags(p, RunConfig, ("n_classes", "n_neighbors"))  # --k and --l
    p.add_argument("--cond", default="majority", choices=["majority", "pure", "count"])
    p.add_argument("--out", dest="out_dir", default=None, help="optional output directory")

    p = sub.add_parser("split", help="mixture split of a score column")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--kind", default="inn",
                   help="column to split: a beta mixture, or a Gaussian one for loss_* kinds")
    p.add_argument("--epoch", type=int, default=None, help="default: last epoch")
    _add_flags(p, RunConfig, ("normalize", "threshold", "out_dir"))

    p = sub.add_parser("eval", help="AUC sweep report and grouped histograms")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", dest="data_path", required=True, help="dataset with true labels")
    _add_flags(p, RunConfig, ("bins", "out_dir"))

    p = sub.add_parser("pipeline", help="run the full protocol")
    _add_flags(p, RunConfig)
    p.add_argument("--threads", type=int, default=None,
                   help="cap the BLAS thread pools, and the workers that train, search and "
                        "score (default there: the usable cores); with more than one worker, "
                        "BLAS runs on one thread for the whole run; outputs do not depend on it")
    p.add_argument("--quiet", action="store_true")

    return parser


def _add_flags(p, cls, names=None):
    """One flag per field of dataclass `cls` (of those in `names`, if given),
    from the field's name, type, default and metadata."""
    for f in fields(cls):
        if names is not None and f.name not in names:
            continue
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        shown = {k: v for k, v in f.metadata.items() if k != "flag"}
        if f.type == "bool":  # the flag turns the default over
            p.add_argument(flag, dest=f.name, action="store_false" if f.default else "store_true",
                           **shown)
        else:
            p.add_argument(flag, dest=f.name, type=field_parser(f), default=f.default, **shown)


def _check_name(name):
    """A --name is a file name in --out, with no directory part."""
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise ValueError(f"--name is {name!r}, not a file name without a directory part")


def _cmd_synth(args):
    from . import data

    _check_name(args.name)
    settings = fields_from(RunConfig, args)
    RunConfig(**settings)  # rejects a --spread, --seed or --n out of range
    os.makedirs(args.out_dir, exist_ok=True)
    ds = data.synth(args.synth_kind, args.n, args.n_classes, args.dim, args.spread, args.seed)
    path = data.write_csv(ds, os.path.join(args.out_dir, args.name))
    print(f"wrote {path} (n={ds.n}, d={ds.d}, K={ds.n_classes})")
    write_manifest({**settings, "name": args.name}, args.command)
    return 0


def _cmd_corrupt(args):
    from . import data

    _check_name(args.name)
    RunConfig(**fields_from(RunConfig, args))  # rejects a --seed out of range
    if args.rate is not None and args.label_map is None:
        raise ValueError("--rate is the rate of --map and goes only with it")
    # the four exclusive flags, each naming a noise kind, and the settings that kind reads
    read = next(read for given, read in (
        (args.sym, {"noise_kind": "symmetric", "noise_rate": args.sym}),
        (args.chain, {"noise_kind": "chain", "noise_rate": args.chain}),
        (args.label_map, {"noise_kind": "map", "noise_map": args.label_map,
                          "noise_rate": 1.0 if args.rate is None else args.rate}),
        (args.imbalanced, {"noise_kind": "imbalanced", **dict(zip(
            ("imb_class_a", "imb_class_b", "imb_keep", "imb_flip"), args.imbalanced or ()))}),
    ) if given is not None)
    out_ds = data.corrupt(data.read_csv(args.data_path), read["noise_kind"], read.get("noise_rate"),
                          args.seed, args.label_map, args.imbalanced)
    os.makedirs(args.out_dir, exist_ok=True)
    path = data.write_csv(out_ds, os.path.join(args.out_dir, args.name))
    print(f"wrote {path} (n={out_ds.n}, realized noisy fraction "
          f"{out_ds.noisy_fraction():.4f})")
    write_manifest({**fields_from(RunConfig, args), **read, "name": args.name}, args.command)
    return 0


def _cmd_train(args):
    from . import data, tinynet

    tc = TrainConfig(**fields_from(TrainConfig, args))
    RunConfig(hidden=args.hidden, lift_freq=args.lift_freq)  # rejects them out of range
    ds = data.read_csv(args.data_path)
    check_training_steps(ds.n, tc.batch_size, tc.epochs, f"epochs {tc.epochs}")
    os.makedirs(args.out_dir, exist_ok=True)
    result = tinynet.build_and_train(ds, args.hidden, args.lift_freq, tc)
    for epoch, snap in result.checkpoints:
        tinynet.save_checkpoint(snap, os.path.join(args.out_dir, f"model_epoch{epoch}.ckpt"),
                                epoch, tc)
    final = tinynet.save_checkpoint(
        result.model, os.path.join(args.out_dir, "model_final.ckpt"), args.epochs, tc
    )
    print(f"wrote {final} (+{len(result.checkpoints)} checkpoints)")
    write_manifest({**asdict(tc), **fields_from(RunConfig, args)}, args.command)
    return 0


def _cmd_score(args):
    from . import data, neighbors, scorer, tinynet, workers

    settings = fields_from(RunConfig, args)  # data_path, n_neighbors, trapezoids, out_dir
    RunConfig(**settings)  # rejects --trapezoids or --l below 1
    L, H = args.n_neighbors, args.trapezoids
    kinds = check_score_kinds(args.kinds)
    ds = data.read_csv(args.data_path)
    check_neighbor_count(ds.n, L, f"--l is {L}")
    check_probe_rows(ds.n, L, H, len(args.model), kinds,
                     f"--trapezoids {H}, --l {L} and {len(args.model)} --model checkpoints")
    top = int(ds.observed_labels.max())

    def load(path, scored):
        """A checkpoint that takes the dataset's d inputs and, when its
        predictions are scored, has a class for every observed label."""
        model, sidecar = tinynet.load_checkpoint(path)
        if model.layer_dims[0] != ds.d:
            raise ValueError(f"{path}: model input width {model.layer_dims[0]} is not "
                             f"the dataset's {ds.d} feature columns")
        if scored and model.n_classes <= top:
            raise ValueError(f"{path}: model has {model.n_classes} classes, too few for "
                             f"observed label {top}")
        return model, sidecar

    h_model, _ = load(args.features_from, scored=False)
    checkpoints, path_of = [], {}
    for ckpt in args.model:
        model, sidecar = load(ckpt, scored=True)
        epoch = (sidecar or {}).get("epoch") or 0  # no sidecar: epoch 0
        if epoch in path_of:
            raise ValueError(f"{path_of[epoch]} and {ckpt} are both checkpoints of epoch {epoch}")
        path_of[epoch] = ckpt
        checkpoints.append((epoch, model))

    os.makedirs(args.out_dir, exist_ok=True)
    workers.claim()  # before the embedding, the first BLAS call: see `workers`
    nbr, dist = neighbors.search(h_model.penultimate(ds.features), L)
    zero = int((dist[:, L - 1] == 0).sum())  # neighbors picked by the id tie-break
    print(f"neighbors: {zero} of {ds.n} rows have neighbor {L} at distance 0")

    tables, _ = scorer.score_models(ds, nbr, H, checkpoints, kinds=kinds)
    path, _ = scorer.write_scores(tables, H, L, args.out_dir)
    print(f"wrote {path} ({len(tables)} checkpoints, kinds: {','.join(kinds)})")
    write_manifest({**settings, "model": args.model, "features_from": args.features_from,
                    "kinds": kinds}, args.command)
    return 0


def _cmd_oracle(args):
    from .oracle import verify_separation

    settings = fields_from(RunConfig, args)  # n_classes, n_neighbors and out_dir
    # rejects a --k below 2 or an --l below 1; oracle reads no n, so n = K passes n >= K
    RunConfig(**settings, n=args.n_classes)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    report = verify_separation(args.n_classes, args.n_neighbors, args.cond)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out_dir:
        report.to_json(os.path.join(args.out_dir, "oracle_report.json"))
        write_manifest({**settings, "cond": args.cond}, args.command)
    return 0


def _cmd_split(args):
    from . import mixture, scorer

    settings = fields_from(RunConfig, args)  # normalize, threshold and out_dir
    RunConfig(**settings)  # rejects a threshold outside [0, 1]
    if mixture.score_orientation(args.kind) < 0:  # a Gaussian fit, which does not normalize
        if not args.normalize:
            raise ValueError(f"normalize is False, but kind {args.kind} does not read it")
        del settings["normalize"]
    tables = scorer.read_score_csv(args.scores)
    wanted = args.epoch if args.epoch is not None else tables[-1].epoch
    table = next((t for t in tables if t.epoch == wanted), None)
    if table is None or args.kind not in table.values:
        raise ValueError(f"no {args.kind!r} scores at epoch {wanted}")
    os.makedirs(args.out_dir, exist_ok=True)
    _, result = mixture.split_to_files(table.values[args.kind], args.kind, args.normalize,
                                       args.threshold, table.ids, args.out_dir, "split.csv")
    print(f"wrote {os.path.join(args.out_dir, 'split.csv')} ({len(result.labeled_ids)} labeled / "
          f"{len(result.unlabeled_ids)} unlabeled)")
    write_manifest({**settings, "scores": args.scores, "kind": args.kind, "epoch": args.epoch},
                   args.command)
    return 0


def _cmd_eval(args):
    from . import data, evaluate, scorer

    settings = fields_from(RunConfig, args)  # data_path, bins and out_dir
    RunConfig(**settings)  # rejects --bins below 1
    tables = scorer.read_score_csv(args.scores)
    ds = data.read_csv(args.data_path)
    if ds.true_labels is None:
        raise ValueError("eval needs a dataset with true labels")
    row_of = {sid: row for row, sid in enumerate(ds.ids.tolist())}
    try:  # the dataset's rows in the table's order
        ds = ds.subset([row_of[sid] for sid in tables[0].ids.tolist()])
    except KeyError as exc:
        raise ValueError(f"score table references id {exc} missing from the dataset") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    report = evaluate.sweep_report(tables, ds.clean_mask())
    report.write_outputs(args.out_dir, tables[-1], ds, tables[-1].kinds(), args.bins)
    for epoch, kind, value in report.aucs:
        print(f"epoch {epoch} {kind}: AUC {value:.4f}")
    write_manifest({**settings, "scores": args.scores}, args.command)
    return 0


def _cmd_pipeline(args):
    from .pipeline import run_pipeline

    cfg = RunConfig(**fields_from(RunConfig, args))
    result = run_pipeline(cfg, quiet=args.quiet, threads=args.threads)
    if result.report is not None:
        for epoch, kind, value in result.report.aucs:
            print(f"epoch {epoch} {kind}: AUC {value:.4f}")
        for flag, value in sorted(result.report.flags.items()):
            if isinstance(value, bool):
                print(f"{flag}: {value}")
        sweep = result.report.flags.get("l_sweep")
        if sweep:
            rows = " ".join(f"L={r['L']}:{r['auc']:.4f}" for r in sweep["aucs"])
            print(f"l_sweep ({'non' if sweep['nondecreasing'] else 'NOT non'}decreasing): {rows}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        threads = check_threads(getattr(args, "threads", None))
        if threads:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(threads)
        handler = {
            "synth": _cmd_synth,
            "corrupt": _cmd_corrupt,
            "train": _cmd_train,
            "score": _cmd_score,
            "oracle": _cmd_oracle,
            "split": _cmd_split,
            "eval": _cmd_eval,
            "pipeline": _cmd_pipeline,
        }[args.command]
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # a missing input is a configuration error
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # an allocation the machine refused
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
