"""Command-line front end.

Subcommands compose the library: `synth` and `corrupt` build datasets,
`train` fits a model, `score` evaluates score columns for saved
checkpoints, `oracle` enumerates the analytic separation check, `split`
and `eval` post-process score tables, and `pipeline` / `timing` run the
whole protocol. Exit codes: 0 success, 2 bad configuration, 3 numeric
failure, 4 I/O failure.

Heavy imports happen inside handlers so that --threads can cap the BLAS
pools via environment variables before numpy loads. For `pipeline` and
`timing`, --threads also caps the pool that trains the four models side
by side; the outputs do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

# stdlib-only modules, safe to import before --threads takes effect
from .config import (RunConfig, TrainConfig, boolean, check_threads, field_parser, fields_from,
                     label_map, write_manifest)
from .errors import NumericError


# the columns `score --kinds` can emit
_SCORE_KINDS = ("inn", "midpoint", "loss_ce", "loss_cene")


def imbalance(text):
    """'class_a,class_b,keep_frac,flip_p' -> (int, int, float, float)."""
    a, b, keep, flip = text.split(",")
    return int(a), int(b), float(keep), float(flip)


def build_parser():
    parser = argparse.ArgumentParser(
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
                   help="checkpoint whose penultimate layer defines neighbors")
    _add_flags(p, RunConfig, ("n_neighbors", "out_dir"))  # --l
    p.add_argument("--h", dest="trapezoids", type=int, default=10, help="trapezoid count")
    p.add_argument("--kinds", default="inn,midpoint",
                   help=f"columns to emit ({','.join(_SCORE_KINDS)}); "
                        "loss columns use the scored checkpoint's own losses")
    p.add_argument("--neighbors", default=None, help="reuse a neighbor cache CSV")

    p = sub.add_parser("oracle", help="enumerate the analytic separation check")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=10)
    p.add_argument("--cond", default="majority", choices=["majority", "pure", "count"])
    p.add_argument("--out", dest="out_dir", default=None, help="optional output directory")

    p = sub.add_parser("split", help="mixture split of a score column")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--kind", default="inn")
    p.add_argument("--epoch", type=int, default=None, help="default: last epoch")
    p.add_argument("--mixture", default="beta", choices=["beta", "gaussian"])
    _add_flags(p, RunConfig, ("normalize", "threshold", "out_dir"))

    p = sub.add_parser("eval", help="AUC sweep report and grouped histograms")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", dest="data_path", required=True, help="dataset with true labels")
    _add_flags(p, RunConfig, ("bins", "out_dir"))

    for name, help_text in (
        ("pipeline", "run the full protocol"),
        ("timing", "run the full protocol and print per-phase wall clock"),
    ):
        _add_run_flags(sub.add_parser(name, help=help_text))

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


def _add_run_flags(p):
    """The flags of `pipeline` and `timing`: one per `RunConfig` field, and
    `--config`, `--threads` and `--quiet`."""
    _add_flags(p, RunConfig)
    p.add_argument("--config", default=None, help="flat key = value config file; flags win")
    p.add_argument("--threads", type=int, default=None,
                   help="cap the BLAS thread pools, and the training pool's workers "
                        "(default there: the usable cores); outputs do not depend on it")
    p.add_argument("--quiet", action="store_true")


def _apply_config_file(args, argv):
    """Parse the pipeline or timing flags `argv` again with the config file's
    `key = value` lines as defaults, so explicit flags win. A key is a flag's
    dest: a `RunConfig` field, `threads` or `quiet`. Its value goes through
    the flag's parser and choices. An unknown or repeated key, or a value
    either rejects, is a configuration error naming the file and line."""
    parser = argparse.ArgumentParser(prog=f"innscore {args.command}")
    _add_run_flags(parser)
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    with open(args.config, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, raw = (part.strip() for part in line.partition("="))
            where = f"{args.config}: line {lineno}"
            if not eq or key not in actions:
                raise ValueError(f"{where}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{where}: {key} is given twice")
            parse = actions[key].type or boolean  # the store_true / store_false flags
            try:  # the value is flag text, or a JSON string of it
                values[key] = parse(json.loads(raw) if raw.startswith('"') else raw)
            except ValueError:  # JSONDecodeError is one too
                raise ValueError(f"{where}: {key} = {raw}: "
                                 f"invalid {parse.__name__} value") from None
            choices = actions[key].choices
            if choices and values[key] not in choices:
                raise ValueError(f"{where}: {key} is {values[key]!r}, "
                                 f"not one of {', '.join(choices)}")
    parser.set_defaults(**values)
    return argparse.Namespace(command=args.command, **vars(parser.parse_args(argv)))


def _cmd_synth(args):
    from . import data

    settings = fields_from(RunConfig, args)
    RunConfig(**settings)  # rejects a non-finite --spread
    ds = data.synth(args.synth_kind, args.n, args.n_classes, args.dim, args.spread, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    path = data.write_csv(ds, os.path.join(args.out_dir, args.name))
    print(f"wrote {path} (n={ds.n}, d={ds.d}, K={ds.n_classes})")
    write_manifest({**settings, "name": args.name}, args.command)
    return 0


def _cmd_corrupt(args):
    from . import data

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
    ds = data.read_csv(args.data_path)
    dims = [ds.d, *args.hidden, ds.n_classes]
    model = tinynet.init_model(dims, args.seed, lift_freq=args.lift_freq)
    result = tinynet.train(model, ds, tc)
    os.makedirs(args.out_dir, exist_ok=True)
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
    from . import data, neighbors, scorer, tinynet

    settings = fields_from(RunConfig, args)  # data_path, n_neighbors, trapezoids, out_dir
    RunConfig(**settings)  # rejects --h or --l below 1
    L = args.n_neighbors
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds or [args.kinds]:
        if kind not in _SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}, expected some of "
                             f"{','.join(_SCORE_KINDS)}")
    for path in [args.features_from, *args.model]:
        if not os.path.exists(path):
            raise ValueError(f"file not found: {path}")
    ds = data.read_csv(args.data_path)
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
    checkpoints = []
    for ckpt in args.model:
        model, sidecar = load(ckpt, scored=True)
        checkpoints.append(((sidecar or {}).get("epoch") or 0, model))

    if args.neighbors:
        nbr, dist = neighbors.read_cache(args.neighbors, ds.ids, L)
    else:
        index = neighbors.build_index(h_model.penultimate(ds.features))
        nbr, dist = neighbors.search(index, L)
    zero = int((dist[:, L - 1] == 0).sum())  # neighbors picked by the id tie-break
    print(f"neighbors: {zero} of {ds.n} rows have neighbor {L} at distance 0")

    # a cache may hold more than --l columns
    scored, _ = scorer.score_models(ds, nbr[:, :L], args.trapezoids, checkpoints)
    tables = []
    for (epoch, model), full in zip(checkpoints, scored):
        table = scorer.ScoreTable(epoch, ds.ids.copy())
        for kind in kinds:
            if kind in full.values:
                table.add(kind, full.values[kind])
            else:
                table.add(kind, tinynet.per_sample_loss(model, ds, kind[len("loss_"):]))
        tables.append(table)
    os.makedirs(args.out_dir, exist_ok=True)
    path = scorer.write_score_csv(tables, os.path.join(args.out_dir, "scores.csv"))
    scorer.write_score_summary(tables, args.trapezoids, L,
                               os.path.join(args.out_dir, "scores_summary.json"))
    print(f"wrote {path} ({len(tables)} checkpoints, kinds: {','.join(kinds)})")
    write_manifest({**settings, "model": args.model, "features_from": args.features_from,
                    "kinds": kinds, "neighbors": args.neighbors}, args.command)
    return 0


def _cmd_oracle(args):
    from .oracle import verify_separation

    report = verify_separation(args.k, args.l, args.cond)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        report.to_json(os.path.join(args.out_dir, "oracle_report.json"))
        write_manifest({"n_classes": args.k, "n_neighbors": args.l, "cond": args.cond,
                        "out_dir": args.out_dir}, args.command)
    return 0


def _cmd_split(args):
    from . import mixture, scorer

    settings = fields_from(RunConfig, args)  # normalize, threshold and out_dir
    RunConfig(**settings)  # rejects a threshold outside [0, 1]
    if not os.path.exists(args.scores):
        raise ValueError(f"score file not found: {args.scores}")
    tables = scorer.read_score_csv(args.scores)
    wanted = args.epoch if args.epoch is not None else tables[-1].epoch
    table = next((t for t in tables if t.epoch == wanted), None)
    if table is None or args.kind not in table.values:
        raise ValueError(f"no {args.kind!r} scores at epoch {wanted}")
    fit, result = mixture.split_column(
        table.values[args.kind], args.mixture, args.normalize, args.threshold, table.ids
    )
    os.makedirs(args.out_dir, exist_ok=True)
    fit.to_json(os.path.join(args.out_dir, f"{args.mixture}_fit.json"))
    path = result.to_csv(os.path.join(args.out_dir, "split.csv"))
    print(f"wrote {path} ({len(result.labeled_ids)} labeled / "
          f"{len(result.unlabeled_ids)} unlabeled)")
    if args.mixture != "beta":  # only the beta fit normalizes
        del settings["normalize"]
    write_manifest({**settings, "scores": args.scores, "kind": args.kind, "epoch": args.epoch,
                    "mixture": args.mixture}, args.command)
    return 0


def _cmd_eval(args):
    import numpy as np

    from . import data, evaluate, scorer

    settings = fields_from(RunConfig, args)  # data_path, bins and out_dir
    RunConfig(**settings)  # rejects --bins below 1
    if not os.path.exists(args.scores):
        raise ValueError(f"file not found: {args.scores}")
    tables = scorer.read_score_csv(args.scores)
    ds = data.read_csv(args.data_path)
    if ds.true_labels is None:
        raise ValueError("eval needs a dataset with true labels")
    clean_by_id = dict(zip(ds.ids.tolist(), ds.clean_mask().tolist()))
    try:
        mask = np.array([clean_by_id[int(i)] for i in tables[0].ids])
    except KeyError as exc:
        raise ValueError(f"score table references id {exc} missing from the dataset") from exc
    report = evaluate.sweep_report(tables, mask)
    os.makedirs(args.out_dir, exist_ok=True)
    report.write_outputs(args.out_dir, tables[-1], ds, tables[-1].kinds(), args.bins)
    for epoch, kind, value in report.aucs:
        print(f"epoch {epoch} {kind}: AUC {value:.4f}")
    write_manifest({**settings, "scores": args.scores}, args.command)
    return 0


def _cmd_pipeline(args, print_timing=False):
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
    if print_timing:
        timing = result.timing
        width = max(len(k) for k in timing["phases"])
        for name, seconds in timing["phases"].items():
            print(f"{name:<{width}}  {seconds:10.3f}s")
            if name == "train":  # the models overlap on the pool's workers
                for tag, model_s in timing["train_models"].items():
                    print(f"  {tag:<{width - 2}}  {model_s:10.3f}s")
        print(f"{'total':<{width}}  {timing['total']:10.3f}s")
        print(f"(training on {timing['train_workers']} workers)")
    print(f"outputs in {cfg.out_dir}")
    return 0


def main(argv=None):
    argv = sys.argv if argv is None else ["innscore", *argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv[1:])
        if getattr(args, "config", None):
            args = _apply_config_file(args, argv[2:])
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
            "timing": lambda a: _cmd_pipeline(a, print_timing=True),
        }[args.command]
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
