"""Command-line front end.

Subcommands compose the library: `synth` and `corrupt` build datasets,
`train` fits a model, `score` evaluates score columns for saved
checkpoints, `oracle` enumerates the analytic separation check, `split`
and `eval` post-process score tables, and `pipeline` / `timing` run the
whole protocol. Exit codes: 0 success, 2 bad configuration, 3 numeric
failure, 4 I/O failure.

Heavy imports happen inside handlers so that --threads can cap the BLAS
pools via environment variables before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import NumericError  # stdlib-only module, safe to import early


def _add_out(p):
    p.add_argument("--out", default="out", help="output directory (default: out)")


def _parse_int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _parse_map(text):
    mapping = {}
    for part in str(text).split(","):
        if not part:
            continue
        src, dst = part.split(":")
        mapping[int(src)] = int(dst)
    return mapping


def build_parser():
    parser = argparse.ArgumentParser(
        prog="innscore",
        description="Identify clean-labeled samples in noisy training data "
        "via integrated nearest-neighbor prediction scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", default="blobs", choices=["blobs", "two_moons"])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--k", type=int, default=4, help="number of classes")
    p.add_argument("--d", type=int, default=2, help="feature dimension")
    p.add_argument("--spread", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="dataset.csv")
    p.add_argument("--format", default="csv", choices=["csv", "raw"])
    _add_out(p)

    p = sub.add_parser("corrupt", help="apply a label-corruption protocol")
    p.add_argument("--data", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sym", type=float, help="symmetric noise rate")
    g.add_argument("--chain", type=float, help="next-class chain noise rate")
    g.add_argument("--map", dest="label_map", help="label map 'src:dst,...' (with --rate)")
    g.add_argument("--imbalanced", help="'class_a,class_b,keep_frac,flip_p'")
    p.add_argument("--rate", type=float, default=1.0, help="rate for --map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="dataset.csv")
    _add_out(p)

    p = sub.add_parser("train", help="train a classifier on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", default="ce", choices=["ce", "cene", "mixup"])
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--hidden", default="256,128")
    p.add_argument("--lift-freq", type=float, default=0.0,
                   help="frozen sinusoidal first layer frequency; 0 = plain ReLU MLP")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr0", type=float, default=0.02)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--lr-drop-factor", type=float, default=5.0)
    p.add_argument("--mixup-alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("score", help="score dataset samples with saved checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="f checkpoint; repeat for an epoch sweep")
    p.add_argument("--features-from", required=True,
                   help="checkpoint whose penultimate layer defines neighbors")
    p.add_argument("--l", type=int, default=10, help="neighbor count")
    p.add_argument("--h", type=int, default=10, help="trapezoid count")
    p.add_argument("--kinds", default="inn,midpoint",
                   help="columns to emit (inn,midpoint,loss_ce,loss_cene); "
                        "loss columns use the scored checkpoint's own losses")
    p.add_argument("--neighbors", default=None, help="reuse a neighbor cache CSV")
    _add_out(p)

    p = sub.add_parser("oracle", help="enumerate the analytic separation check")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=10)
    p.add_argument("--cond", default="majority", choices=["majority", "pure", "count"])
    p.add_argument("--out", default=None, help="optional output directory")

    p = sub.add_parser("split", help="mixture split of a score column")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--kind", default="inn")
    p.add_argument("--epoch", type=int, default=None, help="default: last epoch")
    p.add_argument("--mixture", default="beta", choices=["beta", "gaussian"])
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-normalize", action="store_true")
    _add_out(p)

    p = sub.add_parser("eval", help="AUC sweep report and grouped histograms")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", required=True, help="dataset with true labels")
    p.add_argument("--bins", type=int, default=20)
    _add_out(p)

    for name, help_text in (
        ("pipeline", "run the full protocol"),
        ("timing", "run the full protocol and print per-phase wall clock"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file; flags win")
        p.add_argument("--data", dest="data_path", default=None,
                       help="dataset file (csv or raw sidecar json); default: synthesize")
        p.add_argument("--kind", dest="synth_kind", default="blobs",
                       choices=["blobs", "two_moons"])
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--k", dest="n_classes", type=int, default=4)
        p.add_argument("--d", dest="dim", type=int, default=2)
        p.add_argument("--spread", type=float, default=0.3)
        p.add_argument("--noise", dest="noise_kind", default="none",
                       choices=["none", "symmetric", "chain", "map", "imbalanced"])
        p.add_argument("--rate", dest="noise_rate", type=float, default=0.0)
        p.add_argument("--map", dest="noise_map", default=None, help="'src:dst,...'")
        p.add_argument("--imb-keep", type=float, default=0.1)
        p.add_argument("--imb-flip", type=float, default=0.3)
        p.add_argument("--hidden", default="256,128")
        p.add_argument("--lift-freq", type=float, default=4.0,
                       help="frequency of the frozen sinusoidal first layer of the "
                            "scored/baseline models; 0 disables the lift")
        p.add_argument("--h-hidden", default="64,4",
                       help="hidden stack of the feature model (narrow penultimate)")
        p.add_argument("--h-loss", default="ce", choices=["ce", "cene", "mixup"])
        p.add_argument("--h-epochs", type=int, default=50)
        p.add_argument("--f-loss", default="mixup", choices=["ce", "cene", "mixup"])
        p.add_argument("--epochs", type=int, default=300)
        p.add_argument("--checkpoint-every", type=int, default=50)
        p.add_argument("--batch-size", type=int, default=128)
        p.add_argument("--lr0", type=float, default=0.02)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--lr-drop-factor", type=float, default=5.0)
        p.add_argument("--mixup-alpha", type=float, default=1.0)
        p.add_argument("--l", dest="n_neighbors", type=int, default=10)
        p.add_argument("--trapezoids", type=int, default=10)
        p.add_argument("--mode", default="integral", choices=["integral", "midpoint"])
        p.add_argument("--no-baselines", action="store_true")
        p.add_argument("--l-sweep", default=None, help="e.g. '1,2,5,10'")
        p.add_argument("--epoch-scale", type=float, default=1.0)
        p.add_argument("--share-epochs", action="store_true")
        p.add_argument("--no-normalize", action="store_true")
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--bins", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None,
                       help="cap BLAS worker pools (best effort)")
        p.add_argument("--quiet", action="store_true")
        _add_out(p)

    return parser


def _apply_config_file(parser, argv):
    """Config file sets parser defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv[1:])
    if not known.config:
        return
    values = {}
    with open(known.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{known.config}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            try:
                values[key] = json.loads(raw)
            except json.JSONDecodeError:
                values[key] = raw
    for action in parser._subparsers._group_actions[0].choices.values():
        known_dests = {a.dest for a in action._actions}
        action.set_defaults(**{k: v for k, v in values.items() if k in known_dests})


def _run_config_from_args(args):
    from .pipeline import RunConfig

    return RunConfig(
        data_path=args.data_path,
        synth_kind=args.synth_kind,
        n=args.n,
        n_classes=args.n_classes,
        dim=args.dim,
        spread=args.spread,
        noise_kind=args.noise_kind,
        noise_rate=args.noise_rate,
        noise_map=_parse_map(args.noise_map) if args.noise_map else None,
        imb_keep=args.imb_keep,
        imb_flip=args.imb_flip,
        hidden=_parse_int_list(args.hidden),
        lift_freq=args.lift_freq,
        h_hidden=_parse_int_list(args.h_hidden),
        h_loss=args.h_loss,
        h_epochs=args.h_epochs,
        f_loss=args.f_loss,
        epochs=args.epochs,
        checkpoint_every=args.checkpoint_every,
        batch_size=args.batch_size,
        lr0=args.lr0,
        momentum=args.momentum,
        lr_drop_factor=args.lr_drop_factor,
        mixup_alpha=args.mixup_alpha,
        trapezoids=args.trapezoids,
        n_neighbors=args.n_neighbors,
        mode=args.mode,
        baselines=not args.no_baselines,
        l_sweep=_parse_int_list(args.l_sweep) if args.l_sweep else None,
        epoch_scale=args.epoch_scale,
        share_epochs=args.share_epochs,
        normalize=not args.no_normalize,
        threshold=args.threshold,
        bins=args.bins,
        seed=args.seed,
        out_dir=args.out,
    )


def _cmd_synth(args):
    from . import data

    ds = data.synth(args.kind, args.n, args.k, args.d, args.spread, args.seed)
    os.makedirs(args.out, exist_ok=True)
    target = os.path.join(args.out, args.name)
    if args.format == "raw":
        path = data.write_raw(ds, target[:-4] if target.endswith(".csv") else target)
    else:
        path = data.write_csv(ds, target)
    print(f"wrote {path} (n={ds.n}, d={ds.d}, K={ds.n_classes})")
    return 0


def _cmd_corrupt(args):
    from . import data
    from .pipeline import load_dataset

    if not os.path.exists(args.data):
        raise ValueError(f"dataset file not found: {args.data}")
    ds = load_dataset(args.data)
    if args.sym is not None:
        out_ds = data.corrupt_symmetric(ds, args.sym, args.seed)
    elif args.chain is not None:
        spec = data.NoiseSpec("asymmetric_chain", args.chain, None, args.seed)
        out_ds = data.corrupt_asymmetric(ds, spec)
    elif args.label_map is not None:
        spec = data.NoiseSpec("asymmetric_map", args.rate, _parse_map(args.label_map), args.seed)
        out_ds = data.corrupt_asymmetric(ds, spec)
    else:
        a, b, keep, flip = args.imbalanced.split(",")
        out_ds = data.build_imbalanced(ds, int(a), int(b), float(keep), float(flip), args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = data.write_csv(out_ds, os.path.join(args.out, args.name))
    print(f"wrote {path} (n={out_ds.n}, realized noisy fraction "
          f"{out_ds.noisy_fraction():.4f})")
    return 0


def _cmd_train(args):
    from . import tinynet
    from .pipeline import load_dataset

    if not os.path.exists(args.data):
        raise ValueError(f"dataset file not found: {args.data}")
    ds = load_dataset(args.data)
    dims = [ds.d, *_parse_int_list(args.hidden), ds.n_classes]
    model = tinynet.init_model(dims, args.seed, lift_freq=args.lift_freq)
    tc = tinynet.TrainConfig(
        loss_kind=args.loss,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr0=args.lr0,
        momentum=args.momentum,
        lr_drop_factor=args.lr_drop_factor,
        mixup_alpha=args.mixup_alpha,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    result = tinynet.train(model, ds, tc)
    os.makedirs(args.out, exist_ok=True)
    for epoch, snap in result.checkpoints:
        tinynet.save_checkpoint(snap, os.path.join(args.out, f"model_epoch{epoch}.ckpt"), epoch, tc)
    final = tinynet.save_checkpoint(
        result.model, os.path.join(args.out, "model_final.ckpt"), args.epochs, tc
    )
    print(f"wrote {final} (+{len(result.checkpoints)} checkpoints)")
    return 0


def _cmd_score(args):
    from . import neighbors, scorer, tinynet
    from .pipeline import load_dataset

    for path in [args.data, args.features_from, *args.model]:
        if not os.path.exists(path):
            raise ValueError(f"file not found: {path}")
    ds = load_dataset(args.data)
    h_model, _ = tinynet.load_checkpoint(args.features_from)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]

    if args.neighbors:
        nbr, dist = neighbors.read_cache(args.neighbors, ds.ids, args.l)
    else:
        index = neighbors.build_index(h_model.penultimate(ds.features))
        nbr, dist = neighbors.search(index, args.l)
    zero = int((dist[:, args.l - 1] == 0).sum())  # neighbors picked by the id tie-break
    print(f"neighbors: {zero} of {ds.n} rows have neighbor {args.l} at distance 0")

    checkpoints = []
    for ckpt in args.model:
        model, sidecar = tinynet.load_checkpoint(ckpt)
        checkpoints.append(((sidecar or {}).get("epoch") or 0, model))
    config = scorer.ScorerConfig(args.h, args.l)
    scored, _ = scorer.score_models(ds, nbr, config, checkpoints)
    tables = []
    for (epoch, model), full in zip(checkpoints, scored):
        table = scorer.ScoreTable(epoch, ds.ids.copy())
        for kind in kinds:
            if kind in full.values:
                table.add(kind, full.values[kind])
            elif kind.startswith("loss_"):
                table.add(kind, tinynet.per_sample_loss(model, ds, kind[len("loss_"):]))
        tables.append(table)
    os.makedirs(args.out, exist_ok=True)
    path = scorer.write_score_csv(tables, os.path.join(args.out, "scores.csv"))
    scorer.write_score_summary(tables, config, os.path.join(args.out, "scores_summary.json"))
    print(f"wrote {path} ({len(tables)} checkpoints, kinds: {','.join(kinds)})")
    return 0


def _cmd_oracle(args):
    from .oracle import verify_separation

    report = verify_separation(args.k, args.l, args.cond)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.to_json(os.path.join(args.out, "oracle_report.json"))
    return 0


def _cmd_split(args):
    from . import mixture, scorer

    if not os.path.exists(args.scores):
        raise ValueError(f"score file not found: {args.scores}")
    tables = scorer.read_score_csv(args.scores)
    wanted = args.epoch if args.epoch is not None else tables[-1].epoch
    table = next((t for t in tables if t.epoch == wanted), None)
    if table is None or args.kind not in table.values:
        raise ValueError(f"no {args.kind!r} scores at epoch {wanted}")
    raw = table.values[args.kind]
    if args.mixture == "beta":
        x, degenerate = (raw, False) if args.no_normalize else mixture.normalize_scores(raw)
        fit = mixture.degenerate_fit("beta", x) if degenerate else mixture.fit_beta_mixture(x)
    else:
        x = raw
        fit = mixture.fit_gaussian_mixture(x)
    result = mixture.split(fit, x, args.threshold, ids=table.ids)
    os.makedirs(args.out, exist_ok=True)
    fit.to_json(os.path.join(args.out, f"{args.mixture}_fit.json"))
    path = result.to_csv(os.path.join(args.out, "split.csv"))
    print(f"wrote {path} ({len(result.labeled_ids)} labeled / "
          f"{len(result.unlabeled_ids)} unlabeled)")
    return 0


def _cmd_eval(args):
    import numpy as np

    from . import evaluate, scorer
    from .pipeline import load_dataset

    for path in (args.scores, args.data):
        if not os.path.exists(path):
            raise ValueError(f"file not found: {path}")
    tables = scorer.read_score_csv(args.scores)
    ds = load_dataset(args.data)
    if ds.true_labels is None:
        raise ValueError("eval needs a dataset with true labels")
    clean_by_id = dict(zip(ds.ids.tolist(), ds.clean_mask().tolist()))
    try:
        mask = np.array([clean_by_id[int(i)] for i in tables[0].ids])
    except KeyError as exc:
        raise ValueError(f"score table references id {exc} missing from the dataset") from exc
    report = evaluate.sweep_report(tables, mask)
    os.makedirs(args.out, exist_ok=True)
    report.to_json(os.path.join(args.out, "report.json"))
    report.write_auc_csv(os.path.join(args.out, "auc.csv"))
    final = tables[-1]
    for kind in final.kinds():
        table_h, edges = evaluate.grouped_histogram(
            evaluate.score_orientation(kind) * final.values[kind], ds, args.bins
        )
        evaluate.write_histogram_csv(
            table_h, edges, os.path.join(args.out, f"histograms_{kind}.csv")
        )
    for epoch, kind, value in report.aucs:
        print(f"epoch {epoch} {kind}: AUC {value:.4f}")
    return 0


def _cmd_pipeline(args, print_timing=False):
    from .pipeline import run_pipeline

    if args.data_path and not os.path.exists(args.data_path):
        raise ValueError(f"dataset file not found: {args.data_path}")
    cfg = _run_config_from_args(args)
    result = run_pipeline(cfg, quiet=args.quiet)
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
        phases = result.timing["phases"]
        width = max(len(k) for k in phases)
        for name, seconds in phases.items():
            print(f"{name:<{width}}  {seconds:10.3f}s")
        print(f"{'total':<{width}}  {result.timing['total']:10.3f}s")
    print(f"outputs in {cfg.out_dir}")
    return 0


def _write_command_manifest(args):
    import hashlib
    import platform

    config = {k: v for k, v in sorted(vars(args).items())}
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    from . import __version__

    manifest = {
        "command": args.command,
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": getattr(args, "seed", None),
        "versions": {"innscore": __version__, "python": platform.python_version()},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def main(argv=None):
    argv = sys.argv if argv is None else ["innscore", *argv]
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv[1:])
        threads = getattr(args, "threads", None)
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
        rc = handler(args)
        # pipeline/timing write a richer manifest of their own
        if rc == 0 and args.command not in ("pipeline", "timing") and getattr(args, "out", None):
            _write_command_manifest(args)
        return rc
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
