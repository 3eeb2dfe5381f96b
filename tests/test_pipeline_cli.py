"""End-to-end pipeline runs and the command-line surface.

Pipeline tests run a deliberately tiny configuration; the acceptance
module exercises the full-size protocol.
"""

import contextlib
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from innscore import data, mixture, neighbors, scorer, tinynet, workers
from innscore._records import read_rows
from innscore.cli import build_parser, main
from innscore.config import TrainConfig
from innscore.pipeline import RunConfig, run_pipeline


def tiny_config(out_dir, **overrides):
    base = dict(
        n=200,
        n_classes=3,
        dim=2,
        spread=0.8,
        noise_kind="symmetric",
        noise_rate=0.3,
        hidden=(32, 16),
        h_hidden=(16, 4),
        lift_freq=2.0,
        h_epochs=5,
        epochs=10,
        checkpoint_every=5,
        n_neighbors=4,
        trapezoids=5,
        seed=0,
        out_dir=str(out_dir),
    )
    if "data_path" in overrides:  # a run reads the synthesis settings only without a dataset
        for name in ("n", "n_classes", "dim", "spread"):
            del base[name]
    base.update(overrides)
    return RunConfig(**base)


class TestPipeline:
    def test_outputs_and_roundtrips(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_pipeline(cfg, quiet=True)
        out = tmp_path / "run"
        for name in (
            "dataset.csv",
            "neighbors.csv",
            "scores.csv",
            "scores_summary.json",
            "consistency.csv",
            "report.json",
            "auc.csv",
            "bmm_fit.json",
            "gmm_fit.json",
            "split_scores.csv",
            "split_loss.csv",
            "manifest.json",
            "timing.json",
            "histograms_inn.csv",
            "histograms_loss_ce.csv",
        ):
            assert (out / name).exists(), name

        # emitted files round-trip through the library's own readers
        ds = data.read_csv(out / "dataset.csv")
        assert np.array_equal(ds.features, result.dataset.features)
        tables = scorer.read_score_csv(out / "scores.csv")
        assert [t.epoch for t in tables] == [5, 10]
        assert sorted(tables[0].values) == ["inn", "loss_ce", "loss_cene", "midpoint"]
        np.testing.assert_array_equal(
            tables[-1].values["inn"], result.score_tables[-1].values["inn"]
        )
        header = ["id", *(f"n{k}" for k in range(1, 5)), *(f"d{k}" for k in range(1, 5))]
        _, rows = read_rows(out / "neighbors.csv", header, {"id": int, "n": int, "d": float})
        assert [cells[0] for _, cells in rows] == ds.ids.tolist()

        ckpts = os.listdir(out / "checkpoints")
        assert "h_final.ckpt" in ckpts
        assert "f_epoch10.ckpt" in ckpts

    def test_train_trace(self, tmp_path):
        run_pipeline(tiny_config(tmp_path / "run"), quiet=True)
        lines = (tmp_path / "run" / "train_trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,model,mean_loss"
        rows = [line.split(",") for line in lines[1:]]
        # h trains 5 epochs, f and the two baselines 10 each
        assert [(int(e), m) for e, m, _ in rows] == (
            [(e, "h") for e in range(1, 6)]
            + [(e, m) for m in ("f", "ce", "cene") for e in range(1, 11)]
        )
        assert all(np.isfinite(float(v)) for _, _, v in rows)

    def test_timing_phases_sum_to_total(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_pipeline(cfg, quiet=True)
        phases = result.timing["phases"]
        assert abs(sum(phases.values()) - result.timing["total"]) <= 0.01 * result.timing["total"]
        assert "neighbor_search" in phases and "scoring" in phases

    def test_byte_identical_reruns(self, tmp_path):
        run_pipeline(tiny_config(tmp_path / "a"), quiet=True)
        run_pipeline(tiny_config(tmp_path / "b"), quiet=True)
        for name in ("scores.csv", "dataset.csv", "neighbors.csv", "split_scores.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    @pytest.mark.parametrize("overrides", [{}, {"baselines": False}, {"h_epochs": 10}],
                             ids=["lift_baselines", "no_baselines", "h_epochs_as_epochs"])
    def test_outputs_do_not_depend_on_pool_size(self, tmp_path, capsys, overrides):
        """With 1, 2 or 4 workers (more than the jobs or the cores may be), every
        file but timing.json and every stderr line are the same."""
        out = tmp_path / "run"  # manifest.json records the output directory
        models = ["f", "ce", "cene", "h"] if overrides.get("baselines", True) else ["f", "h"]
        errs, names = [], []
        for threads in (1, 2, 4):
            run_pipeline(tiny_config(out, **overrides), threads=threads)
            errs.append(capsys.readouterr().err)
            timing = json.loads((out / "timing.json").read_text())
            assert sorted(timing["train_models"]) == sorted(models)
            expected = min(threads, len(models)) if workers.openblas_threads() else 1
            assert timing["train_workers"] == expected
            run = tmp_path / f"threads{threads}"
            os.rename(out, run)
            names.append(sorted(os.path.relpath(os.path.join(d, f), run)
                                for d, _, files in os.walk(run) for f in files))
        assert errs[0] == errs[1] == errs[2] and "trained h" in errs[0], errs
        assert names[0] == names[1] == names[2]
        for name in set(names[0]) - {"timing.json"}:
            for threads in (2, 4):
                assert filecmp.cmp(tmp_path / "threads1" / name,
                                   tmp_path / f"threads{threads}" / name, shallow=False), name

    def test_pool_size(self):
        """Without the OpenBLAS whose threads the pool pins, it has one worker."""
        cores = len(os.sched_getaffinity(0))
        blas = workers.openblas_threads() is not None
        assert ([workers.pool_size(t, 4) for t in (1, 2, 3, 4, 5, 64)]
                == ([1, 2, 3, 4, 4, 4] if blas else [1] * 6))
        assert workers.pool_size(None, 4) == (min(cores, 4) if blas else 1)
        assert workers.pool_size(2, 1) == 1
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"threads is {threads}, not a positive"):
                workers.pool_size(threads, 4)

    def test_l_sweep_reported(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", l_sweep=(1, 2, 4))
        result = run_pipeline(cfg, quiet=True)
        sweep = result.report.flags["l_sweep"]
        assert [row["L"] for row in sweep["aucs"]] == [1, 2, 4]
        assert isinstance(sweep["nondecreasing"], bool)
        lines = open(tmp_path / "run" / "lsweep.csv").read().strip().splitlines()
        assert lines[0] == "L,auc"
        assert len(lines) == 4

    def test_midpoint_split_and_histograms_from_the_step_commands(self, tmp_path):
        """`split --kind midpoint` and `eval` over a pipeline's scores give the
        midpoint column's split, fit and histograms, as the pipeline's own
        mixture and report stages make them."""
        cfg = tiny_config(tmp_path / "run")
        result = run_pipeline(cfg, quiet=True)
        run, own = tmp_path / "run", tmp_path / "own"
        assert main(["split", "--scores", str(run / "scores.csv"), "--kind", "midpoint",
                     "--out", str(tmp_path / "split")]) == 0
        assert main(["eval", "--scores", str(run / "scores.csv"),
                     "--data", str(run / "dataset.csv"), "--out", str(tmp_path / "eval")]) == 0
        final = result.score_tables[-1]
        mixture.split_to_files(final.values["midpoint"], "midpoint", cfg.normalize, cfg.threshold,
                               final.ids, own, "split_scores.csv", "bmm_fit.json")
        paths = result.report.write_outputs(own, final, result.dataset, ["midpoint"], cfg.bins)
        assert "hist_midpoint" in paths
        for ours, theirs in (("split_scores.csv", "split/split.csv"),
                             ("bmm_fit.json", "split/beta_fit.json"),
                             ("histograms_midpoint.csv", "eval/histograms_midpoint.csv")):
            assert filecmp.cmp(own / ours, tmp_path / theirs, shallow=False), ours

    def test_epoch_scale_and_share(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", epoch_scale=0.5, h_epochs=10)  # h as long as f
        result = run_pipeline(cfg, quiet=True)
        # epochs 10 -> 5, checkpoint grid 5 -> 2 (banker's rounding); the
        # final model of epoch 5 is scored too
        assert [t.epoch for t in result.score_tables] == [2, 4, 5]
        assert all("loss_ce" in t.values and "loss_cene" in t.values
                   for t in result.score_tables)
        assert (tmp_path / "run" / "checkpoints" / "f_epoch5.ckpt").exists()
        assert [e for e, _, _ in result.consistency] == [2, 2, 4, 4, 5, 5]

    def test_chain_and_imbalanced_noise(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", noise_kind="chain", noise_rate=1.0)
        result = run_pipeline(cfg, quiet=True)
        ds = result.dataset
        assert np.array_equal(ds.observed_labels, (ds.true_labels + 1) % 3)

        cfg = tiny_config(tmp_path / "run2", n_classes=2, noise_kind="imbalanced",
                          noise_rate=0.0, imb_keep=0.3, imb_flip=0.2)
        result = run_pipeline(cfg, quiet=True)
        assert result.dataset.n_classes == 2
        assert result.dataset.n < 200

    def test_no_baselines(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", baselines=False)
        result = run_pipeline(cfg, quiet=True)
        assert sorted(result.score_tables[0].values) == ["inn", "midpoint"]
        assert result.loss_split is None

    def test_dataset_without_true_labels_still_scores(self, tmp_path):
        ds = data.synth("blobs", 120, 3, 2, 0.5, seed=0)
        stripped = data.Dataset(ds.features, ds.observed_labels, None, 3, ds.ids)
        path = data.write_csv(stripped, tmp_path / "plain.csv")
        cfg = tiny_config(tmp_path / "run", data_path=str(path), noise_kind="none",
                          noise_rate=0.0)
        result = run_pipeline(cfg, quiet=True)
        assert result.report is None
        assert (tmp_path / "run" / "scores.csv").exists()
        assert not (tmp_path / "run" / "report.json").exists()

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        run_pipeline(cfg, quiet=True)
        manifest = json.loads(open(tmp_path / "run" / "manifest.json").read())
        blob = json.dumps(asdict(cfg), sort_keys=True).encode()
        assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
        # JSON holds the tuple fields as lists
        assert manifest["config"] == json.loads(json.dumps(asdict(cfg)))
        assert sorted(manifest) == ["config", "config_hash", "seed", "versions"]
        assert manifest["seed"] == 0
        assert "numpy" in manifest["versions"]
        build = manifest["versions"]["openblas"]  # names the kernel; null without OpenBLAS
        assert build == workers.openblas_build()
        assert build is None or build.startswith("OpenBLAS "), build


def _count_sample_forwards(monkeypatch, n):
    """Record the model of each `Model.forward` call from the inputs (start=0)
    on n rows; returns the list they are appended to."""
    seen = []
    forward = tinynet.Model.forward

    def counted(self, inputs, start=0):
        if start == 0 and np.shape(inputs)[0] == n:
            seen.append(self)
        return forward(self, inputs, start)

    monkeypatch.setattr(tinynet.Model, "forward", counted)
    return seen


class TestOneForwardPerCheckpoint:
    """The scoring pass gives a scored checkpoint's probabilities at the
    samples, and every column reads them: no f, ce or cene checkpoint is
    forwarded from its inputs over the samples."""

    def test_pipeline(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "run")
        trained = {}  # seed offset -> TrainResult: h 2, f 3, ce 4, cene 5
        train = tinynet.train

        def recorded(model, dataset, config):
            trained[config.seed - cfg.seed] = result = train(model, dataset, config)
            return result

        monkeypatch.setattr(tinynet, "train", recorded)
        seen = _count_sample_forwards(monkeypatch, cfg.n)
        result = run_pipeline(cfg, quiet=True)
        assert [t.epoch for t in result.score_tables] == [5, 10]
        for offset in (3, 4, 5):
            models = [m for _, m in trained[offset].checkpoints]
            assert len(models) == 2
            assert [sum(m is model for m in seen) for model in models] == [0, 0], offset
        # the losses are those of the probabilities a forward gives, bit for bit
        ds = result.dataset
        for offset, kind in ((4, "ce"), (5, "cene")):
            for table, (_, model) in zip(result.score_tables, trained[offset].checkpoints):
                want = tinynet.per_sample_loss(model.predict_proba(ds.features),
                                               ds.observed_labels, kind)
                assert table.values[f"loss_{kind}"].tobytes() == want.tobytes()

    def test_score_with_every_kind(self, world, tmp_path, monkeypatch):
        root = world["root"]
        loaded = {}
        load = tinynet.load_checkpoint

        def recorded(path):
            loaded[str(path)] = got = load(path)
            return got

        monkeypatch.setattr(tinynet, "load_checkpoint", recorded)
        seen = _count_sample_forwards(monkeypatch, 30)
        f = str(root / "f.ckpt")
        assert main(["score", "--data", world["csv"], "--model", f,
                     "--features-from", str(root / "h.ckpt"), "--l", "3",
                     "--kinds", "inn,midpoint,loss_ce,loss_cene", "--out", str(tmp_path)]) == 0
        assert sum(m is loaded[f][0] for m in seen) == 0
        (table,) = scorer.read_score_csv(tmp_path / "scores.csv")
        assert table.kinds() == ["inn", "loss_ce", "loss_cene", "midpoint"]
        ds = data.read_csv(world["csv"])
        probs = loaded[f][0].predict_proba(ds.features)
        for kind in ("ce", "cene"):
            want = tinynet.per_sample_loss(probs, ds.observed_labels, kind)
            assert table.values[f"loss_{kind}"].tobytes() == want.tobytes()


    def test_score_with_loss_kinds_only(self, world, tmp_path, monkeypatch):
        """Loss columns alone read only the probabilities at the samples, so
        their pass runs at L = H = 1: at most 2n rows, the samples and
        their 1-NN midpoints, reach the checkpoint, whatever --h and --l."""
        root = world["root"]
        f = str(root / "f.ckpt")
        loaded = {}
        load = tinynet.load_checkpoint

        def recorded(path):
            loaded[str(path)] = got = load(path)
            return got

        monkeypatch.setattr(tinynet, "load_checkpoint", recorded)
        rows = []
        forward = tinynet.Model.forward

        def counted(self, inputs, start=0):
            rows.append((self, np.shape(inputs)[0]))
            return forward(self, inputs, start)

        monkeypatch.setattr(tinynet.Model, "forward", counted)
        assert main(["score", "--data", world["csv"], "--model", f,
                     "--features-from", str(root / "h.ckpt"), "--l", "3", "--trapezoids", "10",
                     "--kinds", "loss_ce", "--out", str(tmp_path)]) == 0
        model = loaded[f][0]
        assert 0 < sum(n for m, n in rows if m is model) <= 2 * 30
        (table,) = scorer.read_score_csv(tmp_path / "scores.csv")
        ds = data.read_csv(world["csv"])
        want = tinynet.per_sample_loss(model.predict_proba(ds.features), ds.observed_labels, "ce")
        assert table.values["loss_ce"].tobytes() == want.tobytes()


def _flag(f):
    """The command-line flag of settings field `f`."""
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


# the values at the edges of each numeric flag type
_EDGE_VALUES = {"int": ("0", "-1"), "int | None": ("0", "-1"),
                "float": ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300")}
# (command, flag, values) of the step commands' own numeric flags and train's --hidden
_STEP_FLAGS = [
    *(("train", _flag(f), _EDGE_VALUES[f.type]) for f in fields(TrainConfig)
      if f.type in _EDGE_VALUES),
    ("train", "--lift-freq", _EDGE_VALUES["float"]), ("train", "--hidden", ("", "0", "-1")),
    ("score", "--l", _EDGE_VALUES["int"]), ("score", "--trapezoids", _EDGE_VALUES["int"]),
    *(("synth", _flag(f), _EDGE_VALUES[f.type]) for f in fields(RunConfig)
      if f.name in ("n", "n_classes", "dim", "spread", "seed")),
]


def _keeps_the_contract(argv, out_dir):
    """`main(argv + --out out_dir)` exits 0, 2, 3 or 4: one stderr line on a
    failure, no warning or exception out of main, and no stderr and strict
    JSON in the manifest of a success. Values are passed as `--flag=value`,
    which keeps argparse from reading `-inf` as a flag."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            rc = main([*argv, "--out", str(out_dir)])
        except SystemExit as exc:  # argparse's own rejection of a flag's text
            rc = exc.code
    shown = err.getvalue()
    assert rc in (0, 2, 3, 4), (rc, shown)
    if rc:
        assert shown.count("\n") == 1, shown
        return
    assert shown == ""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        json.load(fh, parse_constant=reject)


# a small pipeline run, to which the contract tests add flags
_PIPELINE_BASE = ["pipeline", "--quiet", "--n", "60", "--epochs", "2", "--h-epochs", "1",
                  "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3", "--trapezoids", "2"]
# each type's edges, an empty text, malformed lists and an unknown choice
_FLAG_TEXTS = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "", "8,,4", "1:2,", ",",
               "x", "foo")


def _step_flags(command, skip=()):
    """(flag, takes a text) of every flag of command `command` but --help,
    --out, which the contract sets, and `skip`."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return [(a.option_strings[-1], a.nargs != 0) for a in sub._actions
            if a.option_strings and a.option_strings[-1] not in ("--help", "--out", *skip)]


# every pipeline flag but --n and --threads, which could ask for memory-sized
# arrays or many threads
_PIPELINE_FLAGS = _step_flags("pipeline", skip=("--n", "--threads"))


# a small run of each step command, to which the contract tests add flags; the
# `world` paths are filled in, and synth, at its default 2,000 rows, draws no --n
_STEP_BASES = {"train": ["--data", "{csv}", "--epochs", "2", "--hidden", "8,4"],
               "corrupt": ["--data", "{csv}", "--sym", "0.3"],
               "score": ["--data", "{csv}", "--model", "{root}/f.ckpt",
                         "--features-from", "{root}/h.ckpt", "--l", "3", "--trapezoids", "2"],
               "synth": [],
               "split": ["--scores", "{scores}"],
               "eval": ["--scores", "{scores}", "--data", "{csv}"],
               "oracle": []}


class TestCli:
    def test_synth_corrupt_train_score_split_eval(self, tmp_path, capsys):
        out = str(tmp_path)
        manifests = {}  # step -> its manifest.json, which strict JSON parsing accepts

        def keep(step, directory=out):
            def reject(constant):
                raise ValueError(f"{constant} is not JSON")

            with open(os.path.join(directory, "manifest.json")) as fh:
                manifests[step] = json.load(fh, parse_constant=reject)

        assert main(["synth", "--kind", "blobs", "--n", "150", "--k", "3", "--d", "2",
                     "--spread", "0.6", "--seed", "1", "--out", out, "--name", "clean.csv"]) == 0
        keep("synth")
        assert main(["corrupt", "--data", f"{out}/clean.csv", "--sym", "0.3",
                     "--seed", "2", "--out", out, "--name", "noisy.csv"]) == 0
        keep("corrupt")
        shown = capsys.readouterr().out
        assert "realized noisy fraction" in shown

        assert main(["train", "--data", f"{out}/noisy.csv", "--loss", "ce",
                     "--epochs", "6", "--checkpoint-every", "3", "--hidden", "16,8",
                     "--seed", "3", "--out", f"{out}/h"]) == 0
        keep("train", f"{out}/h")
        assert main(["train", "--data", f"{out}/noisy.csv", "--loss", "mixup",
                     "--epochs", "6", "--checkpoint-every", "3", "--hidden", "16,8",
                     "--lift-freq", "2.0", "--seed", "4", "--out", f"{out}/f"]) == 0
        assert main(["score", "--data", f"{out}/noisy.csv",
                     "--model", f"{out}/f/model_epoch3.ckpt",
                     "--model", f"{out}/f/model_final.ckpt",
                     "--features-from", f"{out}/h/model_final.ckpt",
                     "--l", "4", "--trapezoids", "5",
                     "--kinds", "inn,midpoint,loss_ce",
                     "--out", f"{out}/scores"]) == 0
        keep("score", f"{out}/scores")
        # two checkpoints of one epoch would give a table that split and eval reject
        assert main(["score", "--data", f"{out}/noisy.csv", "--model", f"{out}/f/model_epoch6.ckpt",
                     "--model", f"{out}/f/model_final.ckpt",
                     "--features-from", f"{out}/h/model_final.ckpt", "--out", f"{out}/twice"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert (f"{out}/f/model_epoch6.ckpt and {out}/f/model_final.ckpt are both checkpoints "
                "of epoch 6") in err, err
        assert not os.path.exists(f"{out}/twice")
        tables = scorer.read_score_csv(f"{out}/scores/scores.csv")
        assert len(tables) == 2
        summary = json.loads(open(f"{out}/scores/scores_summary.json").read())
        assert summary["kinds"] == ["inn", "loss_ce", "midpoint"]
        assert json.loads(open(f"{out}/scores/manifest.json").read())["command"] == "score"

        assert main(["split", "--scores", f"{out}/scores/scores.csv", "--kind", "inn",
                     "--out", f"{out}/split"]) == 0
        keep("split", f"{out}/split")
        assert os.path.exists(f"{out}/split/split.csv")
        assert sorted(os.listdir(f"{out}/split")) == ["beta_fit.json", "manifest.json", "split.csv"]
        # a loss column, smaller is cleaner, gets the Gaussian mixture
        assert main(["split", "--scores", f"{out}/scores/scores.csv", "--kind", "loss_ce",
                     "--out", f"{out}/gauss"]) == 0
        keep("split gaussian", f"{out}/gauss")
        assert sorted(os.listdir(f"{out}/gauss")) == ["gaussian_fit.json", "manifest.json",
                                                      "split.csv"]
        assert main(["eval", "--scores", f"{out}/scores/scores.csv",
                     "--data", f"{out}/noisy.csv", "--out", f"{out}/eval"]) == 0
        keep("eval", f"{out}/eval")
        assert os.path.exists(f"{out}/eval/report.json")
        assert main(["oracle", "--k", "2", "--l", "3", "--out", f"{out}/oracle"]) == 0
        keep("oracle", f"{out}/oracle")

        # one schema: the settings each step read, under RunConfig's field names
        for step, manifest in manifests.items():
            assert manifest["command"] == step.split()[0]
            assert sorted(manifest) == ["command", "config", "config_hash", "seed", "versions"]
            blob = json.dumps(manifest["config"], sort_keys=True).encode()
            assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
            assert manifest["seed"] == manifest["config"].get("seed")
            assert "command" not in manifest["config"]
        assert manifests["synth"]["config"] == {
            "synth_kind": "blobs", "n": 150, "n_classes": 3, "dim": 2, "spread": 0.6, "seed": 1,
            "name": "clean.csv", "out_dir": out}
        # --sym reads no --rate and none of the other exclusive flags
        assert "rate" not in manifests["corrupt"]["config"]
        assert manifests["corrupt"]["config"] == {
            "data_path": f"{out}/clean.csv", "noise_kind": "symmetric", "noise_rate": 0.3,
            "seed": 2, "name": "noisy.csv", "out_dir": out}
        assert manifests["train"]["config"]["hidden"] == [16, 8]
        assert manifests["score"]["config"]["n_neighbors"] == 4
        assert manifests["score"]["config"]["trapezoids"] == 5
        assert manifests["split"]["config"]["normalize"] is True
        # only the beta fit normalizes its column
        assert "normalize" not in manifests["split gaussian"]["config"]
        assert manifests["eval"]["config"]["bins"] == 20

    @pytest.mark.parametrize("noise, flag", [("symmetric", "--sym"), ("chain", "--chain")])
    def test_steps_write_the_pipeline_files(self, tmp_path, noise, flag):
        """The step commands run the pipeline's own stages: on its inputs they
        write its files byte for byte."""
        cfg = tiny_config(tmp_path / "run", noise_kind=noise)
        run_pipeline(cfg, quiet=True)
        run, steps = tmp_path / "run", tmp_path / "steps"
        # the pipeline synthesizes at its seed and corrupts at seed + 1
        assert main(["synth", "--n", str(cfg.n), "--k", str(cfg.n_classes), "--d", str(cfg.dim),
                     "--spread", str(cfg.spread), "--seed", str(cfg.seed),
                     "--out", str(steps), "--name", "clean.csv"]) == 0
        assert main(["corrupt", "--data", str(steps / "clean.csv"), flag, str(cfg.noise_rate),
                     "--seed", str(cfg.seed + 1), "--out", str(steps)]) == 0
        scores = str(run / "scores.csv")
        assert main(["split", "--scores", scores, "--kind", "inn",
                     "--out", str(steps / "beta")]) == 0
        assert main(["split", "--scores", scores, "--kind", "loss_ce",
                     "--out", str(steps / "gauss")]) == 0
        assert main(["eval", "--scores", scores, "--data", str(run / "dataset.csv"),
                     "--out", str(steps / "eval")]) == 0
        # h at seed + 2 without the lift, f and the baselines at seed + 3, 4 and 5 with it
        shared = ["--epochs", str(cfg.epochs), "--checkpoint-every", str(cfg.checkpoint_every),
                  "--hidden", ",".join(map(str, cfg.hidden)), "--lift-freq", str(cfg.lift_freq)]
        for tag, argv in (
            ("h", ["--loss", cfg.h_loss, "--epochs", str(cfg.h_epochs),
                   "--hidden", ",".join(map(str, cfg.h_hidden)), "--seed", str(cfg.seed + 2)]),
            ("f", ["--loss", cfg.f_loss, *shared, "--seed", str(cfg.seed + 3)]),
            ("ce", ["--loss", "ce", *shared, "--seed", str(cfg.seed + 4)]),
            ("cene", ["--loss", "cene", *shared, "--seed", str(cfg.seed + 5)]),
        ):
            assert main(["train", "--data", str(steps / "dataset.csv"), *argv,
                         "--out", str(steps / tag)]) == 0, tag
        epochs = (5, 10)
        for kinds, tag in (("inn,midpoint", "f"), ("loss_ce", "ce"), ("loss_cene", "cene")):
            models = [arg for epoch in epochs
                      for arg in ("--model", str(steps / tag / f"model_epoch{epoch}.ckpt"))]
            assert main(["score", "--data", str(steps / "dataset.csv"), *models,
                         "--features-from", str(steps / "h" / "model_final.ckpt"),
                         "--l", str(cfg.n_neighbors), "--trapezoids", str(cfg.trapezoids),
                         "--kinds", kinds, "--out", str(steps / f"score_{tag}")]) == 0, kinds
            theirs = scorer.read_score_csv(steps / f"score_{tag}" / "scores.csv")
            assert [t.epoch for t in theirs] == list(epochs)
            for ours, table in zip(scorer.read_score_csv(run / "scores.csv"), theirs):
                for kind in kinds.split(","):
                    assert ours.values[kind].tobytes() == table.values[kind].tobytes(), kind
        for ours, theirs in (
            ("dataset.csv", "dataset.csv"),
            ("split_scores.csv", "beta/split.csv"), ("bmm_fit.json", "beta/beta_fit.json"),
            ("split_loss.csv", "gauss/split.csv"), ("gmm_fit.json", "gauss/gaussian_fit.json"),
            ("auc.csv", "eval/auc.csv"), ("report.json", "eval/report.json"),
            ("histograms_inn.csv", "eval/histograms_inn.csv"),
            ("checkpoints/h_final.ckpt", "h/model_final.ckpt"),
            *((f"checkpoints/f_epoch{epoch}.ckpt", f"f/model_epoch{epoch}.ckpt")
              for epoch in epochs),
            ("checkpoints/f_epoch10.ckpt", "f/model_final.ckpt"),
        ):
            assert filecmp.cmp(run / ours, steps / theirs, shallow=False), ours
            if ours.endswith(".ckpt"):  # and the JSON sidecar
                assert filecmp.cmp(run / f"{ours}.json", steps / f"{theirs}.json",
                                   shallow=False), ours

    def test_corrupt_sym_zero_identical_labels(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["synth", "--n", "80", "--k", "2", "--out", out, "--name", "c.csv"])
        main(["corrupt", "--data", f"{out}/c.csv", "--sym", "0.0", "--out", out,
              "--name", "z.csv"])
        a = data.read_csv(f"{out}/c.csv")
        b = data.read_csv(f"{out}/z.csv")
        assert np.array_equal(a.observed_labels, b.observed_labels)

    def test_corrupt_chain_full(self, tmp_path):
        out = str(tmp_path)
        main(["synth", "--n", "90", "--k", "3", "--out", out, "--name", "c.csv"])
        main(["corrupt", "--data", f"{out}/c.csv", "--chain", "1.0", "--out", out,
              "--name", "ch.csv"])
        ds = data.read_csv(f"{out}/ch.csv")
        assert np.array_equal(ds.observed_labels, (ds.true_labels + 1) % 3)

    def test_oracle_command(self, tmp_path, capsys):
        assert main(["oracle", "--k", "2", "--l", "10", "--cond", "majority",
                     "--out", str(tmp_path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["gap"] == pytest.approx(0.1)
        assert os.path.exists(tmp_path / "oracle_report.json")

    def test_oracle_takes_the_run_flags(self, tmp_path, capsys):
        """`oracle --k` and `--l` are RunConfig's flags, with its defaults and checks."""
        assert main(["oracle", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["K"] == RunConfig.n_classes == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"n_classes": RunConfig.n_classes,
                                      "n_neighbors": RunConfig.n_neighbors, "cond": "majority",
                                      "out_dir": str(tmp_path)}
        for argv, shown in ((["--k", "1"], "n_classes is 1, not at least 2"),
                            (["--l", "0"], "n_neighbors is 0, not a positive integer")):
            assert main(["oracle", *argv, "--out", str(tmp_path / "no")]) == 2
            assert capsys.readouterr().err == f"error: {shown}\n"
        assert not (tmp_path / "no").exists()

    def test_oracle_refuses_a_large_k_for_its_budget_not_for_n(self, capsys):
        """`oracle` reads no `n`: a K above `n`'s default is refused by the
        enumeration budget, which names it, and not for `n`."""
        assert main(["oracle", "--k", "2001", "--l", "2"]) == 2
        assert capsys.readouterr() == (
            "", "error: 2003001 count vectors x 2001 classes exceeds the enumeration budget\n")

    def test_pipeline_command(self, tmp_path, capsys):
        args = ["--n", "150", "--k", "3", "--noise", "symmetric", "--rate", "0.3",
                "--epochs", "8", "--checkpoint-every", "4", "--h-epochs", "4",
                "--hidden", "16,8", "--h-hidden", "16,4", "--l", "3",
                "--seed", "0", "--quiet"]
        assert main(["pipeline", *args, "--out", str(tmp_path / "p")]) == 0
        shown = capsys.readouterr().out
        assert "AUC" in shown

    def test_one_checkpoint_gets_its_report(self, world, tmp_path):
        """A pipeline run with one checkpoint of f writes the AUC report, the
        histograms and the L-sweep, and `eval` reports its scores and those
        of a `score` given one `--model`."""
        run = tmp_path / "run"
        assert main(["pipeline", "--quiet", "--n", "200", "--k", "3", "--noise", "symmetric",
                     "--rate", "0.3", "--epochs", "6", "--h-epochs", "2", "--hidden", "16,8",
                     "--h-hidden", "8,4", "--l", "3", "--trapezoids", "2",
                     "--checkpoint-every", "null", "--l-sweep", "1,3", "--out", str(run)]) == 0
        for name in ("auc.csv", "report.json", "histograms_inn.csv", "histograms_loss_ce.csv",
                     "lsweep.csv"):
            assert (run / name).exists(), name
        report = json.loads((run / "report.json").read_text())
        assert [row["epoch"] for row in report["aucs"]] == [6] * 4
        assert report["stability"]["inn"]["range"] == 0.0
        assert main(["eval", "--scores", str(run / "scores.csv"), "--data", str(run / "dataset.csv"),
                     "--out", str(tmp_path / "eval")]) == 0
        assert filecmp.cmp(run / "auc.csv", tmp_path / "eval" / "auc.csv", shallow=False)
        root = world["root"]
        assert main(["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
                     "--features-from", str(root / "h.ckpt"), "--l", "3", "--trapezoids", "2",
                     "--out", str(tmp_path / "one")]) == 0
        assert main(["eval", "--scores", str(tmp_path / "one" / "scores.csv"),
                     "--data", world["csv"], "--out", str(tmp_path / "one")]) == 0
        assert (tmp_path / "one" / "auc.csv").exists()

    @pytest.mark.parametrize("k, d, model, bad, shown", [
        (4, 2, "f.ckpt", "f.ckpt", "model has 2 classes, too few for observed label 3"),
        (2, 3, "f.ckpt", "h.ckpt", "model input width 2 is not the dataset's 3 feature columns"),
        (2, 2, "f3.ckpt", "f3.ckpt", "model input width 3 is not the dataset's 2 feature columns"),
    ])
    def test_checkpoint_not_fitting_the_dataset_exits_two(self, world, tmp_path, capsys,
                                                          monkeypatch, k, d, model, bad, shown):
        csv = data.write_csv(data.synth("blobs", 40, k, d, 0.5, seed=3), tmp_path / "d.csv")
        tinynet.save_checkpoint(tinynet.init_model([3, 4, 2], seed=2), tmp_path / "f3.ckpt")
        models = {"f.ckpt": world["root"] / "f.ckpt", "f3.ckpt": tmp_path / "f3.ckpt"}

        def no_search(*args):
            raise AssertionError("the checkpoints are checked before the neighbor search")

        monkeypatch.setattr(neighbors, "search", no_search)
        rc = main(["score", "--data", str(csv), "--model", str(models[model]),
                   "--features-from", str(world["root"] / "h.ckpt"), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.count("\n") == 1, err
        assert f"{bad}: {shown}" in err, err

    def test_score_l_above_n_minus_one_exits_two_before_loading(self, world, tmp_path, capsys,
                                                                 monkeypatch):
        argv = ["score", "--data", world["csv"], "--model", str(world["root"] / "f.ckpt"),
                "--features-from", str(world["root"] / "h.ckpt"), "--out", str(tmp_path / "out")]
        load = tinynet.load_checkpoint
        loaded = []
        monkeypatch.setattr(tinynet, "load_checkpoint",
                            lambda path: loaded.append(path) or load(path))
        assert main([*argv, "--l", "30"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --l is 30, but the dataset's 30 rows allow at most 29 neighbors\n"
        assert loaded == [] and not (tmp_path / "out").exists()
        assert main([*argv, "--l", "29"]) == 0  # every other row
        assert len(loaded) == 2

    @pytest.mark.parametrize("name", ["sub/x.csv", "/abs/x.csv", "..", ""])
    def test_name_with_a_directory_part_exits_two(self, world, tmp_path, capsys, name):
        """--name is checked before any work: here before the missing --data is read."""
        for argv in (["synth", "--n", "30"], ["corrupt", "--data", "/no/such.csv", "--sym", "0.1"]):
            assert main([*argv, "--name", name, "--out", str(tmp_path / "out")]) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: --name is {name!r}, not a file name without a "
                           "directory part\n")
        assert not (tmp_path / "out").exists()

    def test_train_hidden_width_below_one_names_hidden(self, world, tmp_path, capsys):
        for hidden, shown in (("0", "(0,)"), ("8,0", "(8, 0)")):
            assert main(["train", "--data", world["csv"], "--hidden", hidden, "--epochs", "1",
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: hidden is {shown}, not all positive integers\n"
        assert not (tmp_path / "out").exists()
        # no hidden layer and no lift: a softmax regression
        assert main(["train", "--data", world["csv"], "--hidden", "", "--epochs", "1",
                     "--out", str(tmp_path / "linear")]) == 0

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["corrupt", "--data", "/no/such/file.csv", "--sym", "0.1",
                     "--out", str(tmp_path)]) == 2
        assert main(["score", "--data", "/no/such.csv", "--model", "/no/model",
                     "--features-from", "/no/h", "--out", str(tmp_path)]) == 2

    def test_threads_flag_overrides_preset_environment(self, tmp_path, monkeypatch):
        from innscore import cli

        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.setenv(var, "2")
        seen = {}

        def fake_pipeline(args):
            seen.update({var: os.environ[var] for var in variables})
            return 0

        monkeypatch.setattr(cli, "_cmd_pipeline", fake_pipeline)
        assert main(["pipeline", "--threads", "1", "--out", str(tmp_path)]) == 0
        assert seen == {var: "1" for var in variables}

    def test_train_and_score_load_no_mixture_and_warn_nothing(self, world, tmp_path):
        """`train` and `score`, each in a fresh process with RuntimeWarnings as
        errors, exit 0 with an empty stderr and load neither the mixture fits
        nor scipy.special."""
        import innscore

        code = ("import sys; from innscore.cli import main; rc = main(sys.argv[1:]); "
                "print('loaded:', [m for m in ('innscore.mixture', 'scipy.special') "
                "if m in sys.modules]); sys.exit(rc)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        for argv in (["train", "--data", world["csv"], "--epochs", "2", "--hidden", "8,4",
                      "--out", str(tmp_path / "t")],
                     ["score", "--data", world["csv"], "--model",
                      str(tmp_path / "t" / "model_final.ckpt"), "--features-from",
                      str(world["root"] / "h.ckpt"), "--l", "3", "--trapezoids", "2",
                      "--out", str(tmp_path / "s")]):
            done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                                   *argv], capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": src})
            assert (done.returncode, done.stderr) == (0, ""), (argv[0], done.stderr)
            assert done.stdout.splitlines()[-1] == "loaded: []", (argv[0], done.stdout)

    def test_parsing_loads_no_numpy(self):
        """--threads sets the BLAS variables, so parsing must not load numpy;
        nor does `import innscore`, which imports no submodule, while
        `from innscore import data` still gives the module."""
        import innscore

        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        for code in ("import sys, innscore._records, innscore.cli as cli; "
                     "cli.build_parser().parse_args(['pipeline', '--threads', '1']); "
                     "assert 'numpy' not in sys.modules",
                     "import sys, innscore; "
                     "assert not [m for m in sys.modules if m == 'numpy' or "
                     "m.startswith('innscore.')]; "
                     "from innscore import data; assert data is sys.modules['innscore.data']"):
            subprocess.run([sys.executable, "-c", code], check=True,
                           env={**os.environ, "PYTHONPATH": src})

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--noise", "sideways"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, shown", [
        (["pipeline", "--n", "many"], "error: argument --n: invalid int value: 'many'\n"),
        (["pipeline", "--noise", "sideways"], "error: argument --noise: invalid choice: "),
        (["synth", "--spread", "-inf"], "error: argument --spread: expected one argument\n"),
        (["pipeline", "--rate", "-inf"], "error: argument --rate: expected one argument\n"),
        (["sideways"], "error: argument command: invalid choice: "),
    ])
    def test_argparse_rejection_is_one_line(self, capsys, argv, shown):
        """argparse's rejections are one stderr line, without the usage block."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(shown), err

    def test_flags_set_every_field(self, tmp_path, monkeypatch):
        """Each RunConfig field has a flag, and two runs of flags set every field."""
        from innscore import pipeline

        data_file = tmp_path / "d.csv"
        data_file.write_text("")
        settings = [  # (field, flag, text); a bool flag takes no text
            ("data_path", "--data", str(data_file)), ("synth_kind", "--kind", "two_moons"),
            ("n", "--n", "123"), ("n_classes", "--k", "3"), ("dim", "--d", "5"),
            ("spread", "--spread", "0.7"), ("noise_kind", "--noise", "map"),
            ("noise_rate", "--rate", "0.25"), ("noise_map", "--map", "0:1,2:0"),
            ("imb_class_a", "--imb-class-a", "2"), ("imb_class_b", "--imb-class-b", "0"),
            ("imb_keep", "--imb-keep", "0.2"), ("imb_flip", "--imb-flip", "0.4"),
            ("hidden", "--hidden", "8,4"), ("lift_freq", "--lift-freq", "2.5"),
            ("h_hidden", "--h-hidden", "6,2"), ("h_loss", "--h-loss", "cene"),
            ("h_epochs", "--h-epochs", "7"), ("f_loss", "--f-loss", "ce"),
            ("epochs", "--epochs", "9"), ("checkpoint_every", "--checkpoint-every", "3"),
            ("batch_size", "--batch-size", "32"), ("lr0", "--lr0", "0.05"),
            ("momentum", "--momentum", "0.5"), ("lr_drop_factor", "--lr-drop-factor", "2"),
            ("mixup_alpha", "--mixup-alpha", "0.5"), ("trapezoids", "--trapezoids", "4"),
            ("n_neighbors", "--l", "6"),
            ("baselines", "--no-baselines", None), ("l_sweep", "--l-sweep", "1,3"),
            ("epoch_scale", "--epoch-scale", "0.5"),
            ("normalize", "--no-normalize", None), ("threshold", "--threshold", "0.4"),
            ("bins", "--bins", "7"), ("seed", "--seed", "11"),
            ("out_dir", "--out", str(tmp_path / "out")),
        ]
        assert [name for name, _, _ in settings] == [f.name for f in fields(RunConfig)]

        class Built(Exception):
            """Carries the RunConfig out before any work."""

        def fake_run(cfg, quiet=False, threads=None):
            raise Built(cfg)

        monkeypatch.setattr(pipeline, "run_pipeline", fake_run)
        # each run takes only the settings it reads: the map run synthesizes and trains f
        # with mixup; the imbalanced run reads a dataset and trains no model with mixup
        unread = {"map": ("imb_class_a", "imb_class_b", "imb_keep", "imb_flip", "data_path",
                          "f_loss"),
                  "imbalanced": ("noise_rate", "noise_map", "synth_kind", "n", "n_classes", "dim",
                                 "spread", "mixup_alpha")}
        changed = set()
        for kind, skipped in unread.items():
            run = [(name, flag, kind if name == "noise_kind" else text)
                   for name, flag, text in settings if name not in skipped]
            flags = [arg for _, flag, text in run for arg in (flag, text) if arg is not None]
            with pytest.raises(Built) as built:
                main(["pipeline", *flags])
            moved = {f.name for f in fields(RunConfig)
                     if getattr(built.value.args[0], f.name) != f.default}
            assert moved == {name for name, _, _ in run}, kind  # each flag sets its field
            changed |= moved
        assert changed == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("argv, name", [
        (["--epochs", "-1"], "epochs"),
        (["--checkpoint-every", "0"], "checkpoint_every"),
        (["--epoch-scale", "-3"], "epoch_scale"),
        (["--l-sweep", "0,2"], "l_sweep"),
        (["--l", "0"], "n_neighbors"),
        (["--trapezoids", "0"], "trapezoids"),
        (["--h-epochs", "0"], "h_epochs"),
        (["--bins", "0"], "bins"),
        (["--threshold", "7"], "threshold"),
        (["--lr0", "nan"], "lr0"),
        (["--lr-drop-factor", "nan"], "lr_drop_factor"),
        (["--mixup-alpha", "nan"], "mixup_alpha"),
        (["--noise", "symmetric", "--rate", "0.2", "--map", "0:1", "--imb-keep", "0.5"],
         "noise_map"),
        (["--epoch-scale", "inf"], "epoch_scale"),
        (["--spread", "nan"], "spread"),
        (["--spread", "inf"], "spread"),
        (["--lift-freq", "nan"], "lift_freq"),
        (["--lr-drop-factor", "inf"], "lr_drop_factor"),
        (["--threads", "0"], "threads"),
        (["--threads", "-1"], "threads"),
        (["--hidden", "0"], "hidden"),
        (["--h-hidden", "0,4"], "h_hidden"),
        (["--l", "60"], "n_neighbors"),  # the dataset's 60 rows allow 59
        (["--l-sweep", "5,60"], "l_sweep"),
        (["--k", "0"], "n_classes"),
        (["--k", "1"], "n_classes"),
        (["--trapezoids", "4097"], "trapezoids"),
        (["--lr-drop-factor", "1e300"], "lr_drop_factor"),  # its square overflows
        (["--lr-drop-factor", "1e-300"], "lr_drop_factor"),  # its square is 0
        (["--lift-freq", "-1"], "lift_freq"),
        (["--hidden", ""], "hidden"),  # the default lift needs a hidden layer
        (["--spread", "-1"], "spread"),
        (["--seed", "-1"], "seed"),
        (["--n", "3", "--k", "4"], "n"),
        (["--d", "1"], "dim"),
        (["--batch-size", "0"], "batch_size"),
        (["--momentum", "nan"], "momentum"),
        (["--momentum", "1"], "momentum"),
        (["--noise", "symmetric", "--rate", "2"], "noise_rate"),
        (["--noise", "chain", "--rate=-0.5"], "noise_rate"),
        (["--noise", "map", "--map", "0:9"], "noise_map"),
        (["--noise", "imbalanced", "--imb-keep", "0"], "imb_keep"),
        (["--noise", "imbalanced", "--imb-flip", "2"], "imb_flip"),
        (["--noise", "imbalanced", "--imb-class-b", "0"], "imb_class_b"),
        (["--noise", "imbalanced", "--imb-class-b", "7", "--k", "4"], "imb_class_b"),
    ])
    def test_out_of_range_setting_exits_two(self, tmp_path, capsys, argv, name):
        out = tmp_path / "run"
        assert main(["pipeline", "--n", "60", "--quiet", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"error: {name} is " in err, err
        assert not (out / "dataset.csv").exists()
        assert not (out / "train_trace.csv").exists()

    @pytest.mark.parametrize("argv, n", [
        (["--n", "8", "--k", "2"], 8),
        (["--n", "12", "--k", "2", "--noise", "imbalanced", "--imb-keep", "0.1"], 6),
    ])
    def test_dataset_too_small_for_the_mixture_exits_two(self, tmp_path, capsys, argv, n):
        """A dataset of fewer rows than a mixture fit needs, imbalanced noise's
        subsample among them, is refused before any work."""
        out = tmp_path / "run"
        assert main(["pipeline", "--quiet", *argv, "--epochs", "2", "--h-epochs", "1",
                     "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3", "--trapezoids", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: the dataset has n = {n} rows, fewer than the "
                       f"{mixture.MIN_VALUES} that the mixture fits need\n")
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("argv, named", [
        (["pipeline", "--quiet", "--n", "60", "--epoch-scale", "1e300"], "epoch_scale 1e+300"),
        (["pipeline", "--quiet", "--n", "60", "--epoch-scale", "1e308"], "epoch_scale 1e+308"),
        (["pipeline", "--quiet", "--n", "60", "--epochs", "1000000000"], "epochs 1000000000"),
        (["train", "--data", "{data}", "--epochs", "1000000000"], "epochs 1000000000"),
    ])
    def test_training_over_the_step_budget_exits_two(self, tmp_path, argv, named):
        """A run asking for more training steps than the budget stops before any training."""
        import innscore

        data.write_csv(data.synth("blobs", 60, 3, 2, 0.5, seed=0), tmp_path / "d.csv")
        argv = [arg.format(data=tmp_path / "d.csv") for arg in argv]
        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        done = subprocess.run([sys.executable, "-m", "innscore.cli", *argv,
                               "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        assert done.stderr.count("\n") == 1 and named in done.stderr, done.stderr
        assert "more than the budget of 1e+07" in done.stderr
        assert not (tmp_path / "run" / "train_trace.csv").exists()

    @pytest.mark.parametrize("flag, text", [
        pytest.param(_flag(f), text, id=f"{f.name}={text}")
        for f in fields(RunConfig) for text in _EDGE_VALUES.get(f.type, ())
    ])
    def test_every_numeric_flag_keeps_the_exit_code_contract(self, tmp_path, flag, text):
        """Each numeric RunConfig flag at the edges of its type (no memory-sized
        value among them) keeps the exit-code contract of `_keeps_the_contract`."""
        _keeps_the_contract([*_PIPELINE_BASE, f"{flag}={text}"], tmp_path / "run")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_PIPELINE_FLAGS), st.sampled_from(_FLAG_TEXTS)),
                    min_size=1, max_size=3))
    def test_drawn_flag_texts_keep_the_exit_code_contract(self, drawn):
        """Any pipeline flag, one to three at a time, at a type's edge, an empty
        or malformed list or an unknown choice keeps the contract of
        `_keeps_the_contract`; a flag that takes no text is given alone."""
        flags = [f"{flag}={text}" if takes_text else flag for (flag, takes_text), text in drawn]
        with tempfile.TemporaryDirectory() as tmp:
            _keeps_the_contract([*_PIPELINE_BASE, *flags], os.path.join(tmp, "run"))

    @pytest.mark.parametrize("command", sorted(_STEP_BASES))
    @settings(max_examples=100, deadline=None)
    @given(draws=st.data())
    def test_drawn_step_flag_texts_keep_the_exit_code_contract(self, world, command, draws):
        """Any flag of a step command, one to three at a time, with the same
        texts keeps the same contract; a flag that takes no text is given alone."""
        choices = _step_flags(command, skip=("--n",) if command == "synth" else ())
        drawn = draws.draw(st.lists(st.tuples(st.sampled_from(choices),
                                              st.sampled_from(_FLAG_TEXTS)), min_size=1, max_size=3))
        base = [arg.format(csv=world["csv"], root=world["root"], scores=world["scores"])
                for arg in _STEP_BASES[command]]
        flags = [f"{flag}={text}" if takes_text else flag for (flag, takes_text), text in drawn]
        with tempfile.TemporaryDirectory() as tmp:
            _keeps_the_contract([command, *base, *flags], os.path.join(tmp, "run"))

    @pytest.mark.parametrize("command, flag, text", [
        pytest.param(command, flag, text, id=f"{command} {flag}={text}")
        for command, flag, values in _STEP_FLAGS for text in values
    ])
    def test_every_step_flag_keeps_the_exit_code_contract(self, world, tmp_path, command, flag,
                                                           text):
        """The numeric flags of `train`, `score` and `synth`, and `train --hidden`,
        at the same edges keep the same contract."""
        root = world["root"]
        base = {"train": ["--data", world["csv"], "--loss", "mixup", "--epochs", "2",
                          "--hidden", "8,4"],
                "score": ["--data", world["csv"], "--model", str(root / "f.ckpt"),
                          "--features-from", str(root / "h.ckpt"), "--l", "3", "--trapezoids", "2"],
                "synth": ["--n", "30"]}[command]
        _keeps_the_contract([command, *base, f"{flag}={text}"], tmp_path / "run")

    @pytest.mark.parametrize("argv, named", [
        (["pipeline", "--quiet", "--trapezoids", "4097"],
         "trapezoids is 4097, more than the 4096"),
        (["pipeline", "--quiet", "--n", "60", "--trapezoids", "100000"],
         "trapezoids is 100000, more than the 4096"),
        (["score", "--data", "{data}", "--model", "{f}", "--features-from", "{h}",
          "--trapezoids", "4097"], "trapezoids is 4097, more than the 4096"),
        (["pipeline", "--quiet", "--l", "1000", "--trapezoids", "4096"],
         "trapezoids 4096, 1000 neighbors and 6 checkpoints ask for 4.91e+10 probe rows "
         "of 2000 rows, more than the budget of 1e+09"),
        (["score", "--data", "{data}", "--model", "{f}", "--features-from", "{h}",
          "--l", "1000", "--trapezoids", "1000"],
         "--trapezoids 1000, --l 1000 and 1 --model checkpoints ask for 2e+09 probe rows of "
         "2000 rows"),
    ])
    def test_scoring_over_the_probe_bounds_exits_two(self, tmp_path, argv, named):
        """A scoring pass with more trapezoids than one chunk holds, or more
        probe rows than the budget, stops before any training or search."""
        import innscore

        data.write_csv(data.synth("blobs", 2000, 3, 2, 0.5, seed=0), tmp_path / "d.csv")
        for name, seed in (("h", 0), ("f", 1)):
            tinynet.save_checkpoint(tinynet.init_model([2, 4, 3], seed), tmp_path / f"{name}.ckpt")
        argv = [arg.format(data=tmp_path / "d.csv", h=tmp_path / "h.ckpt", f=tmp_path / "f.ckpt")
                for arg in argv]
        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        done = subprocess.run([sys.executable, "-m", "innscore.cli", *argv,
                               "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        assert done.stderr.count("\n") == 1 and named in done.stderr, done.stderr
        assert not (tmp_path / "run").exists()

    def test_loss_columns_alone_are_charged_their_narrow_pass(self, tmp_path, capsys):
        """Loss columns alone are scored at L = H = 1, and the probe budget
        charges that pass: an --l and --h asking for 2e9 probe rows give the
        table of a small --l and --h."""
        data.write_csv(data.synth("blobs", 2000, 3, 2, 0.5, seed=0), tmp_path / "d.csv")
        for name, seed in (("h", 0), ("f", 1)):
            tinynet.save_checkpoint(tinynet.init_model([2, 4, 3], seed), tmp_path / f"{name}.ckpt")
        argv = ["score", "--data", str(tmp_path / "d.csv"), "--model", str(tmp_path / "f.ckpt"),
                "--features-from", str(tmp_path / "h.ckpt"), "--kinds", "loss_ce"]
        for L, H in ((1000, 1000), (3, 2)):
            assert main([*argv, "--l", str(L), "--trapezoids", str(H),
                         "--out", str(tmp_path / f"l{L}")]) == 0, capsys.readouterr().err
        assert filecmp.cmp(tmp_path / "l1000" / "scores.csv", tmp_path / "l3" / "scores.csv",
                           shallow=False)

    def test_diverged_model_exits_three(self, tmp_path, capsys):
        """Parameters that diverge are a numeric failure, without numpy warnings."""
        argv = ["pipeline", "--quiet", "--n", "60", "--epochs", "2", "--h-epochs", "1",
                "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3", "--trapezoids", "2",
                "--lr0", "1e300", "--out", str(tmp_path / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape main
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure: "), err

    def test_diverged_model_in_a_worker(self, tmp_path, capsys, monkeypatch):
        """A model diverging on the training pool is still one numeric-failure line,
        and the OpenBLAS thread count, 1 while the pool runs, stays 1 after."""
        blas = workers.openblas_threads()
        seen = []
        train = tinynet.train

        def spy(*args, **kwargs):
            seen.append(blas[0]() if blas else None)
            return train(*args, **kwargs)

        monkeypatch.setattr(tinynet, "train", spy)
        argv = ["pipeline", "--quiet", "--n", "60", "--epochs", "2", "--h-epochs", "1",
                "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3", "--trapezoids", "2",
                "--lr0", "1e300", "--threads", "2", "--out", str(tmp_path / "run")]
        before = blas[0]() if blas else None
        try:
            if blas:
                blas[1](2)  # so that a restored count shows
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a RuntimeWarning would escape main
                assert main(argv) == 3
            after = blas[0]() if blas else None
        finally:
            if blas:
                blas[1](before)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure: "), err
        assert seen and set(seen) == {1 if blas else None}
        assert after == (1 if blas else None)

    @pytest.mark.parametrize("argv, shown", [
        (["--data", "{data}", "--k", "7"], "n_classes is 7, but data_path {data} does not read it"),
        (["--data", "{data}", "--d", "5"], "dim is 5, but data_path {data} does not read it"),
        (["--data", "{data}", "--kind", "two_moons"],
         "synth_kind is two_moons, but data_path {data} does not read it"),
        (["--mixup-alpha", "0.7", "--f-loss", "ce"],
         "mixup_alpha is 0.7, but f_loss ce and h_loss ce do not read it"),
    ])
    def test_setting_the_run_does_not_read_exits_two(self, tmp_path, capsys, argv, shown):
        """A setting away from its default that the run does not read is refused
        before any work, as the noise settings are."""
        path = data.write_csv(data.synth("blobs", 60, 4, 2, 0.5, seed=0), tmp_path / "d.csv")
        out = tmp_path / "run"
        assert main(["pipeline", "--quiet", *(arg.format(data=path) for arg in argv),
                     "--epochs", "2", "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3",
                     "--trapezoids", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {shown.format(data=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, shown", [
        ("corrupt", ["--sym", "0.3", "--seed", "-1"], "seed is -1, not at least 0"),
        ("train", ["--loss", "ce", "--mixup-alpha", "0.7", "--epochs", "1", "--hidden", "4"],
         "mixup_alpha is 0.7, but loss_kind ce does not read it"),
    ])
    def test_step_command_refuses_a_setting_before_its_data(self, world, tmp_path, capsys,
                                                            command, argv, shown):
        """`corrupt` checks --seed as the other commands do, and `train` refuses
        a --mixup-alpha that its loss does not read, before --out is made."""
        out = tmp_path / "out"
        assert main([command, "--data", world["csv"], *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not out.exists()

    def test_only_a_mixup_model_reads_mixup_alpha(self, tmp_path):
        """In a run whose f trains with mixup, h (ce) and the baselines train at
        the default mixup_alpha, as their checkpoints' sidecars record."""
        run_pipeline(tiny_config(tmp_path / "run", mixup_alpha=0.5), quiet=True)
        ckpts = tmp_path / "run" / "checkpoints"

        def alpha(name):
            return json.loads((ckpts / f"{name}.ckpt.json").read_text())["config"]["mixup_alpha"]

        assert (alpha("h_final"), alpha("f_epoch10")) == (1.0, 0.5)

    def test_split_of_a_loss_kind_refuses_no_normalize(self, world, tmp_path, capsys):
        """Only the beta fit normalizes: a loss kind's Gaussian split does not
        read --no-normalize, and is refused before --out is made."""
        out = tmp_path / "split"
        assert main(["split", "--scores", world["scores"], "--kind", "loss_ce", "--no-normalize",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: normalize is False, but kind loss_ce does not read it\n")
        assert not out.exists()

    def test_defaults_and_read_settings_are_accepted(self):
        RunConfig(data_path="d.csv", synth_kind="blobs", n=2000, n_classes=4, dim=2, spread=0.3)
        RunConfig(f_loss="ce", h_loss="mixup", mixup_alpha=0.7)

    def test_removed_spellings_exit_two(self, world, tmp_path, capsys):
        """`pipeline --mode` and `--share-epochs`, `pipeline --config`, the
        `timing` subcommand and `score --h` are gone: each is refused with one
        line, `--h` as an unknown flag, not as `--help`."""
        root = world["root"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 60\n")
        commands = "', '".join(next(a for a in build_parser()._actions
                                    if a.dest == "command").choices)
        for argv, shown in (
            (["pipeline", "--mode", "midpoint"],
             "error: unrecognized arguments: --mode midpoint\n"),
            (["pipeline", "--share-epochs"], "error: unrecognized arguments: --share-epochs\n"),
            (["pipeline", "--config", str(cfg)], f"error: unrecognized arguments: --config {cfg}\n"),
            (["timing", "--n", "60"],
             f"error: argument command: invalid choice: 'timing' (choose from '{commands}')\n"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--h", "4"],
             "error: unrecognized arguments: --h 4\n"),
        ):
            try:
                rc = main([*argv, "--out", str(tmp_path / "out")])
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            assert (rc, out, err) == (2, "", shown), argv
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{data}", "--epochs", "1", "--hidden", "100000,100000"],
        ["pipeline", "--quiet", "--n", "200", "--epochs", "1", "--h-epochs", "1",
         "--hidden", "8,4", "--h-hidden", "100000,100000", "--l", "3", "--trapezoids", "2"],
    ], ids=["train", "pipeline_worker"])
    def test_refused_allocation_exits_four_in_one_line(self, world, tmp_path, argv):
        """An allocation the machine refuses is one `out of memory: ...` line
        on stderr and exit 4, also when a pool worker raises it. The command
        runs in a process whose address space is capped at 3 GiB, so the
        74.5 GiB weight matrix is refused on any machine."""
        import innscore

        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, "
                "(3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
                "from innscore.cli import main; sys.exit(main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        argv = [text.format(data=world["csv"]) for text in argv]
        done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "o")],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 4, done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr, done.stderr
        assert done.stderr.startswith("out of memory: Unable to allocate 74.5 GiB"), done.stderr

    @pytest.mark.parametrize("command", ["score", "train"])
    def test_unusable_out_is_found_before_any_work(self, world, tmp_path, capsys, monkeypatch,
                                                   command):
        """A step command whose --out is a regular file exits 4 before the
        neighbour search or the training."""
        called = []
        for module, name in ((neighbors, "search"), (tinynet, "build_and_train")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                                called.append(name) or real(*a, **k))
        blocked = tmp_path / "file"
        blocked.write_text("")
        root = world["root"]
        argv = {"score": ["--data", world["csv"], "--model", str(root / "f.ckpt"),
                          "--features-from", str(root / "h.ckpt"), "--l", "3",
                          "--trapezoids", "2"],
                "train": ["--data", world["csv"], "--epochs", "1", "--hidden", "4"]}[command]
        assert main([command, *argv, "--out", str(blocked)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("i/o error: "), err
        assert called == []

    def test_one_spelling_per_setting(self):
        """Each option of a subcommand that sets a settings field takes that
        field's flag and default: TrainConfig's for train's training flags,
        RunConfig's otherwise. The exceptions are listed with their reasons."""
        from innscore.cli import build_parser

        exceptions = {
            ("train", "--lift-freq"): "default 0.0, a plain ReLU stack; the benchmark's h "
                                      "set-up trains at it (ROADMAP item 5)",
            ("oracle", "--out"): "default None: the oracle's output files are optional",
        }
        by_name = {cls: {f.name: f for f in fields(cls)} for cls in (RunConfig, TrainConfig)}
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        seen, checked = set(), 0
        for command, parser in commands.items():
            for action in parser._actions:
                cls = (TrainConfig if command == "train" and action.dest in by_name[TrainConfig]
                       else RunConfig)
                f = by_name[cls].get(action.dest)
                if f is None:
                    continue
                if (command, action.option_strings[0]) in exceptions:
                    seen.add((command, action.option_strings[0]))
                    continue
                assert (action.option_strings, action.default) == ([_flag(f)], f.default), \
                    (command, action.option_strings)
                checked += 1
        assert seen == set(exceptions)
        assert checked > len(fields(RunConfig))

    @pytest.mark.parametrize("argv, shown", [
        (["train", "--data", "d.csv", "--hidden", "8,x"],
         "argument --hidden: invalid int_list value: '8,x'"),
        (["corrupt", "--data", "d.csv", "--map", "0-1"],
         "argument --map: invalid label_map value: '0-1'"),
        (["corrupt", "--data", "d.csv", "--imbalanced", "0,1,0.5"],
         "argument --imbalanced: invalid imbalance value: '0,1,0.5'"),
        (["pipeline", "--l-sweep", "1,two"], "argument --l-sweep: invalid int_list value"),
        (["corrupt", "--data", "d.csv", "--map", "1:0,1:1"],
         "argument --map: '1:0,1:1' maps label 1 twice"),
        (["pipeline", "--noise", "map", "--map", "1:2,01:3"],
         "argument --map: '1:2,01:3' maps label 1 twice"),
        (["pipeline", "--hidden", "8,,4"], "argument --hidden: invalid int_list value: '8,,4'"),
        (["pipeline", "--l-sweep", "2,,3"], "argument --l-sweep: invalid int_list value: '2,,3'"),
        (["train", "--data", "d.csv", "--hidden", "8,"],
         "argument --hidden: invalid int_list value: '8,'"),
        (["pipeline", "--noise", "map", "--map", "0:1,,2:0"],
         "argument --map: invalid label_map value: '0:1,,2:0'"),
        (["pipeline", "--noise", "map", "--map", "0:1,"],
         "argument --map: invalid label_map value: '0:1,'"),
        (["pipeline", "--noise", "map", "--map", ",0:1"],
         "argument --map: invalid label_map value: ',0:1'"),
        (["corrupt", "--data", "d.csv", "--map", "0:1,,"],
         "argument --map: invalid label_map value: '0:1,,'"),
        (["score", "--kinds", "inn,,midpoint"],
         "argument --kinds: invalid kind_list value: 'inn,,midpoint'"),
        (["score", "--kinds", "inn,"], "argument --kinds: invalid kind_list value: 'inn,'"),
        (["score", "--kinds", ","], "argument --kinds: invalid kind_list value: ','"),
        (["score", "--kinds", ""], "argument --kinds: invalid kind_list value: ''"),
        (["score", "--kinds", "inn,inn"], "argument --kinds: invalid kind_list value: 'inn,inn'"),
    ])
    def test_malformed_list_flag_named(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert shown in capsys.readouterr().err


class TestMalformedInputsCli:
    """Each malformed input exits 2 with one stderr line naming the file and the line."""

    def test_exit_two_naming_file_and_line(self, world, tmp_path, capsys):
        root, out = world["root"], str(tmp_path / "out")
        scores = open(world["scores"]).read().splitlines()
        nan_line = scores[2].rsplit(",", 1)[0] + ",nan"
        ckpt = (root / "f.ckpt").read_bytes()
        files = {
            "nan_scores.csv": "\n".join(scores[:2] + [nan_line] + scores[3:]) + "\n",
            "empty_scores.csv": scores[0] + "\n",
            "nokey.json": '{"d": 2, "K": 2, "labels_file": "r.labels.i32"}\n',
            "list.json": "[30, 2, 2]\n",
            "a.ckpt": ckpt, "a.ckpt.json": "[3]\n",
            "b.ckpt": ckpt, "b.ckpt.json": '{\n  "epoch": "x"\n}\n',
            "c.ckpt": ckpt[:-8] + np.float64(np.nan).tobytes(),
            "c.ckpt.json": (root / "f.ckpt.json").read_text(),
        }
        for name, content in files.items():
            mode = "wb" if isinstance(content, bytes) else "w"
            with open(tmp_path / name, mode) as fh:
                fh.write(content)

        def score(model):
            return ["score", "--data", world["csv"], "--model", str(tmp_path / model),
                    "--features-from", str(root / "h.ckpt"), "--l", "3", "--out", out]

        cases = [
            (["split", "--scores", str(tmp_path / "nan_scores.csv"), "--out", out],
             "nan_scores.csv: line 3: 'nan' is not a finite number"),
            (["eval", "--scores", str(tmp_path / "nan_scores.csv"), "--data", world["csv"],
              "--out", out], "nan_scores.csv: line 3: 'nan' is not a finite number"),
            (["split", "--scores", str(tmp_path / "empty_scores.csv"), "--out", out],
             "empty_scores.csv: line 2: no rows after the header"),
            (["eval", "--scores", str(tmp_path / "empty_scores.csv"), "--data", world["csv"],
              "--out", out], "empty_scores.csv: line 2: no rows after the header"),
            # a dataset is a CSV file: JSON text fails its header check
            (["train", "--data", str(tmp_path / "nokey.json"), "--out", out],
             "nokey.json: line 1: header"),
            (["train", "--data", str(tmp_path / "list.json"), "--out", out],
             "list.json: line 1: header"),
            (score("a.ckpt"), "a.ckpt.json: line 1: a JSON list, not an object"),
            (score("b.ckpt"), "b.ckpt.json: line 2: 'epoch' is 'x', not int or null"),
            (score("c.ckpt"), "c.ckpt: layer 2 has a non-finite weight or bias"),
        ]
        for argv, shown in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and shown in err, err
        assert not os.path.exists(os.path.join(out, "scores.csv"))

    def test_exit_two_naming_the_value(self, world, tmp_path, capsys, monkeypatch):
        root, out = world["root"], str(tmp_path / "out")
        lines = open(world["csv"]).read().splitlines()
        big = "99999999999999999999"
        (tmp_path / "big_id.csv").write_text(
            "\n".join(lines[:3] + [big + "," + lines[3].split(",", 1)[1]] + lines[4:]) + "\n")
        searched = []
        monkeypatch.setattr(neighbors, "search", lambda *a: searched.append(a))
        cases = [
            (["train", "--data", str(tmp_path / "big_id.csv"), "--out", out],
             f"big_id.csv: line 4: '{big}' is outside the int64 range"),
            (["split", "--scores", world["scores"], "--threshold", "7", "--out", out],
             "threshold is 7.0, not in [0, 1]"),
            (["split", "--scores", world["scores"], "--threshold", "-1", "--out", out],
             "threshold is -1.0, not in [0, 1]"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--kinds", "inn,foo", "--out", out],
             "unknown score kind 'foo'"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--trapezoids", "0", "--out", out],
             "trapezoids is 0, not a positive integer"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--l", "0", "--out", out],
             "n_neighbors is 0, not a positive integer"),
            (["train", "--data", world["csv"], "--lr0", "nan", "--out", out],
             "lr0 is nan, not positive"),
            (["train", "--data", world["csv"], "--lr-drop-factor", "1e300", "--out", out],
             "lr_drop_factor is 1e+300, too big or small to square"),
            (["train", "--data", world["csv"], "--lr-drop-factor", "1e-300", "--out", out],
             "lr_drop_factor is 1e-300, too big or small to square"),
            (["eval", "--scores", world["scores"], "--data", world["csv"], "--bins", "0",
              "--out", out], "bins is 0, not a positive integer"),
            (["corrupt", "--data", world["csv"], "--sym", "0.2", "--rate", "0.5", "--out", out],
             "--rate is the rate of --map and goes only with it"),
            (["synth", "--k", "0", "--out", out], "n_classes is 0, not at least 2"),
            (["synth", "--n", "3", "--k", "4", "--out", out], "n is 3, fewer than the 4 classes"),
            (["synth", "--spread", "-1", "--out", out], "spread is -1.0, not at least 0"),
            (["train", "--data", world["csv"], "--seed", "-1", "--out", out],
             "seed is -1, not at least 0"),
            (["train", "--data", world["csv"], "--lift-freq", "-1", "--out", out],
             "lift_freq is -1.0, not at least 0"),
            (["train", "--data", world["csv"], "--hidden", "", "--lift-freq", "2", "--out", out],
             "hidden is (), but lift_freq 2.0 needs a hidden layer"),
            (["train", "--data", world["csv"], "--epochs=-1", "--out", out],
             "epochs is -1, not at least 0"),
            (["train", "--data", world["csv"], "--batch-size", "0", "--out", out],
             "batch_size is 0, not a positive integer"),
            (["train", "--data", world["csv"], "--momentum", "nan", "--out", out],
             "momentum is nan, not in [0, 1)"),
            (["train", "--data", world["csv"], "--checkpoint-every", "0", "--out", out],
             "checkpoint_every is 0, not a positive integer or None"),
            (["synth", "--d", "0", "--out", out], "dim is 0, not at least 2"),
            (["corrupt", "--data", world["csv"], "--sym", "2", "--out", out],
             "noise_rate is 2.0, not in [0, 1]"),
            (["corrupt", "--data", world["csv"], "--chain", "-1", "--out", out],
             "noise_rate is -1.0, not in [0, 1]"),
            (["corrupt", "--data", world["csv"], "--map", "0:1", "--rate", "1.5", "--out", out],
             "noise_rate is 1.5, not in [0, 1]"),
            (["corrupt", "--data", world["csv"], "--map", "0:5", "--out", out],
             "noise_map is {0: 5}, with label 5 outside the dataset's classes [0, 2)"),
            (["corrupt", "--data", world["csv"], "--imbalanced", "1,1,0.5,0.1", "--out", out],
             "imb_class_b is 1, the same class as imb_class_a"),
            (["corrupt", "--data", world["csv"], "--imbalanced", "0,1,0,0.1", "--out", out],
             "imb_keep is 0.0, not in (0, 1]"),
            (["corrupt", "--data", world["csv"], "--imbalanced", "0,1,0.5,2", "--out", out],
             "imb_flip is 2.0, not in [0, 1]"),
            (["corrupt", "--data", world["csv"], "--imbalanced", "0,7,0.5,0.1", "--out", out],
             "imb_class_b is 7, a class with no samples in the dataset"),
            (["corrupt", "--data", world["csv"], "--imbalanced=-1,1,0.5,0.1", "--out", out],
             "imb_class_a is -1, a class with no samples in the dataset"),
        ]
        for argv, shown in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and shown in err, err
        assert not searched
        assert not os.path.exists(out)


def _corrupt_line(lines, line, other, col, edit):
    """Edit line `line` (1-based, after the header) of `lines` in place;
    returns the line a reader should name, or None if the text is unchanged."""
    cells = lines[line - 1].split(",")
    col %= len(cells)
    bad_line = line
    if edit == "drop":
        del cells[col]
    elif edit == "extra":
        cells.insert(col, "0")
    elif edit == "dup_id":
        other = other if other != line else 2 + (line - 1) % (len(lines) - 1)
        cells[0] = lines[other - 1].split(",")[0]
        bad_line = max(line, other)
    else:
        cells[col] = {"word": "abc"}.get(edit, edit)
    edited = ",".join(cells)
    if edited == lines[line - 1]:
        return None
    lines[line - 1] = edited
    return bad_line


def _run_quietly(argv):
    """(exit code, stderr) of one CLI call; a failure is one clean stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    shown = err.getvalue()
    if rc != 0:
        assert rc in (2, 3, 4), (argv[0], shown)
        assert shown.count("\n") == 1 and "Traceback" not in shown, shown
    return rc, shown


_LINE_EDITS = st.sampled_from(["drop", "extra", "nan", "inf", "-inf", "word", "dup_id"])


class TestCorruptDatasetCli:
    """One corrupted line of a dataset CSV is a configuration error: the
    commands that read it exit with a code in {2, 3, 4} and one stderr line."""

    @settings(max_examples=30, deadline=None)
    @given(
        line=st.integers(2, 31),
        other=st.integers(2, 31),
        col=st.integers(0, 4),
        edit=_LINE_EDITS,
    )
    def test_one_bad_line_exits_cleanly(self, line, other, col, edit):
        with tempfile.TemporaryDirectory() as tmp:
            ds = data.corrupt(data.synth("blobs", 30, 2, 2, 0.5, seed=0), "symmetric", 0.3, seed=1)
            lines = open(data.write_csv(ds, os.path.join(tmp, "d.csv"))).read().splitlines()
            bad_line = _corrupt_line(lines, line, other, col, edit)
            path = os.path.join(tmp, "bad.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            for argv in (
                ["train", "--data", path, "--epochs", "1", "--hidden", "4",
                 "--out", os.path.join(tmp, "t")],
                ["pipeline", "--data", path, "--epochs", "2", "--checkpoint-every", "1",
                 "--h-epochs", "1", "--hidden", "4,4", "--h-hidden", "4,2", "--l", "2",
                 "--trapezoids", "2", "--out", os.path.join(tmp, "p")],
            ):
                rc, shown = _run_quietly(argv)
                assert rc != 0, argv[0]
                assert f"line {bad_line}:" in shown, shown


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Valid input files of every format the CLI reads, for 30 samples: a
    dataset, two checkpoints and a score table."""
    root = tmp_path_factory.mktemp("world")
    ds = data.corrupt(data.synth("blobs", 30, 2, 2, 0.5, seed=0), "symmetric", 0.3, seed=1)
    h = tinynet.init_model([2, 4, 2, 2], seed=0)
    f = tinynet.init_model([2, 8, 4, 2], seed=1, lift_freq=2.0)
    tinynet.save_checkpoint(h, root / "h.ckpt", epoch=3)
    tinynet.save_checkpoint(f, root / "f.ckpt", epoch=3)
    ids, _ = neighbors.search(ds.features, 3)
    tables, _ = scorer.score_models(ds, ids, 2, [(1, h), (2, f)])
    return {
        "root": root,
        "csv": str(data.write_csv(ds, root / "d.csv")),
        "scores": str(scorer.write_score_csv(tables, root / "scores.csv")),
    }


def _copy_and_damage(world, tmp, names, damaged, at, flip):
    """Copy `names` from the world into tmp, then truncate file `damaged` at
    fraction `at` of its length (flip 0) or xor the byte there with flip."""
    for name in names:
        blob = bytearray((world["root"] / name).read_bytes())
        if name == damaged:
            pos = int(at * len(blob))
            if flip:
                blob[pos] ^= flip
            else:
                del blob[pos:]
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(bytes(blob))


class TestCorruptFilesCli:
    """Every other format the CLI reads, corrupted: a command either exits 0
    having written only finite values, or exits in {2, 3, 4} with one stderr
    line. A flip inside a weight payload can leave valid input."""

    @settings(max_examples=30, deadline=None)
    @given(line=st.integers(2, 121), other=st.integers(2, 121), col=st.integers(0, 3),
           edit=_LINE_EDITS)
    def test_score_csv(self, world, line, other, col, edit):
        with tempfile.TemporaryDirectory() as tmp:
            lines = open(world["scores"]).read().splitlines()
            assume(_corrupt_line(lines, line, other, col, edit))
            path = os.path.join(tmp, "scores.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            for argv in (["split", "--scores", path, "--out", tmp],
                         ["eval", "--scores", path, "--data", world["csv"], "--out", tmp]):
                rc, shown = _run_quietly(argv)
                assert rc != 0 and "line " in shown, (argv[0], shown)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["f.ckpt", "h.ckpt"]), at=st.floats(0, 1, exclude_max=True),
           flip=st.integers(0, 255))
    def test_checkpoint(self, world, name, at, flip):
        with tempfile.TemporaryDirectory() as tmp:
            _copy_and_damage(world, tmp, ("f.ckpt", "f.ckpt.json", "h.ckpt", "h.ckpt.json"),
                             name, at, flip)
            rc, _ = _run_quietly(
                ["score", "--data", world["csv"], "--model", os.path.join(tmp, "f.ckpt"),
                 "--features-from", os.path.join(tmp, "h.ckpt"), "--l", "3", "--trapezoids", "2",
                 "--kinds", "inn,midpoint,loss_ce", "--out", tmp])
            if rc == 0:
                rows = open(os.path.join(tmp, "scores.csv")).read().splitlines()[1:]
                assert np.isfinite([float(row.rsplit(",", 1)[1]) for row in rows]).all()


class TestEvalById:
    """`eval` pairs each score with the dataset row of its id, whatever the
    order of the dataset's rows and however few of its ids the table holds."""

    def test_permuted_dataset_gives_the_same_outputs(self, world, tmp_path):
        ds = data.read_csv(world["csv"])
        permuted = data.write_csv(ds.subset(np.random.default_rng(0).permutation(ds.n)),
                                  tmp_path / "permuted.csv")
        for name, path in (("plain", world["csv"]), ("permuted", permuted)):
            assert main(["eval", "--scores", world["scores"], "--data", str(path),
                         "--out", str(tmp_path / name)]) == 0
        names = sorted(os.listdir(tmp_path / "plain"))
        assert "histograms_inn.csv" in names
        assert names == sorted(os.listdir(tmp_path / "permuted"))
        for name in names:
            if name != "manifest.json":  # it records the --data path
                assert ((tmp_path / "plain" / name).read_bytes()
                        == (tmp_path / "permuted" / name).read_bytes()), name

    def test_table_over_a_subset_of_the_ids(self, world, tmp_path):
        keep = np.arange(29, 0, -2)  # every other row, in reverse
        tables = [scorer.ScoreTable(t.epoch, t.ids[keep],
                                    {kind: v[keep] for kind, v in t.values.items()})
                  for t in scorer.read_score_csv(world["scores"])]
        path = scorer.write_score_csv(tables, tmp_path / "scores.csv")
        assert main(["eval", "--scores", str(path), "--data", world["csv"],
                     "--out", str(tmp_path / "eval")]) == 0
        for kind in ("inn", "midpoint"):
            lines = (tmp_path / "eval" / f"histograms_{kind}.csv").read_text().splitlines()
            assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == keep.size
