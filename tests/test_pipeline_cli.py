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

from innscore import data, neighbors, pipeline, scorer, tinynet
from innscore.cli import main
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
        nbr, _ = neighbors.read_cache(out / "neighbors.csv", ds.ids)
        assert len(nbr) == ds.n

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

    @pytest.mark.parametrize("overrides", [{}, {"baselines": False}, {"share_epochs": True}],
                             ids=["lift_baselines", "no_baselines", "share_epochs"])
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
            expected = min(threads, len(models)) if pipeline.openblas_threads() else 1
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
        cores = len(os.sched_getaffinity(0))
        assert [pipeline.pool_size(t, 4) for t in (1, 2, 3, 4, 5, 64)] == [1, 2, 3, 4, 4, 4]
        assert pipeline.pool_size(None, 4) == min(cores, 4)
        assert pipeline.pool_size(2, 1) == 1
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"threads is {threads}, not a positive"):
                pipeline.pool_size(threads, 4)

    def test_l_sweep_reported(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", l_sweep=(1, 2, 4))
        result = run_pipeline(cfg, quiet=True)
        sweep = result.report.flags["l_sweep"]
        assert [row["L"] for row in sweep["aucs"]] == [1, 2, 4]
        assert isinstance(sweep["nondecreasing"], bool)
        lines = open(tmp_path / "run" / "lsweep.csv").read().strip().splitlines()
        assert lines[0] == "L,auc"
        assert len(lines) == 4

    def test_midpoint_mode_drives_split(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", mode="midpoint")
        result = run_pipeline(cfg, quiet=True)
        assert "hist_midpoint" in result.paths
        assert (tmp_path / "run" / "histograms_midpoint.csv").exists()

    def test_epoch_scale_and_share(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", epoch_scale=0.5, share_epochs=True)
        result = run_pipeline(cfg, quiet=True)
        # epochs 10 -> 5, checkpoint grid 5 -> 2 (banker's rounding)
        assert [t.epoch for t in result.score_tables] == [2, 4]

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
                     "--l", "4", "--h", "5",
                     "--kinds", "inn,midpoint,loss_ce",
                     "--out", f"{out}/scores"]) == 0
        keep("score", f"{out}/scores")
        tables = scorer.read_score_csv(f"{out}/scores/scores.csv")
        assert len(tables) == 2
        summary = json.loads(open(f"{out}/scores/scores_summary.json").read())
        assert summary["kinds"] == ["inn", "loss_ce", "midpoint"]
        assert json.loads(open(f"{out}/scores/manifest.json").read())["command"] == "score"

        assert main(["split", "--scores", f"{out}/scores/scores.csv", "--kind", "inn",
                     "--mixture", "beta", "--out", f"{out}/split"]) == 0
        keep("split", f"{out}/split")
        assert os.path.exists(f"{out}/split/split.csv")
        assert main(["split", "--scores", f"{out}/scores/scores.csv", "--kind", "loss_ce",
                     "--mixture", "gaussian", "--out", f"{out}/gauss"]) == 0
        keep("split gaussian", f"{out}/gauss")
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
        assert main(["split", "--scores", scores, "--kind", "loss_ce", "--mixture", "gaussian",
                     "--out", str(steps / "gauss")]) == 0
        assert main(["eval", "--scores", scores, "--data", str(run / "dataset.csv"),
                     "--out", str(steps / "eval")]) == 0
        for ours, theirs in (
            ("dataset.csv", "dataset.csv"),
            ("split_scores.csv", "beta/split.csv"), ("bmm_fit.json", "beta/beta_fit.json"),
            ("split_loss.csv", "gauss/split.csv"), ("gmm_fit.json", "gauss/gaussian_fit.json"),
            ("auc.csv", "eval/auc.csv"), ("report.json", "eval/report.json"),
            ("histograms_inn.csv", "eval/histograms_inn.csv"),
        ):
            assert filecmp.cmp(run / ours, steps / theirs, shallow=False), ours

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

    def test_pipeline_and_timing_commands(self, tmp_path, capsys):
        args = ["--n", "150", "--k", "3", "--noise", "symmetric", "--rate", "0.3",
                "--epochs", "8", "--checkpoint-every", "4", "--h-epochs", "4",
                "--hidden", "16,8", "--h-hidden", "16,4", "--l", "3",
                "--seed", "0", "--quiet"]
        assert main(["pipeline", *args, "--out", str(tmp_path / "p")]) == 0
        shown = capsys.readouterr().out
        assert "AUC" in shown
        assert main(["timing", *args, "--out", str(tmp_path / "t")]) == 0
        shown = capsys.readouterr().out
        assert "total" in shown

    def test_score_uses_l_columns_of_a_wider_cache(self, world, tmp_path):
        ds = data.read_csv(world["csv"])
        h, _ = tinynet.load_checkpoint(world["root"] / "h.ckpt")
        ids, dist = neighbors.search(neighbors.build_index(h.penultimate(ds.features)), 3)
        cache = neighbors.write_cache(ids, dist, ds.ids, tmp_path / "nn3.csv")
        args = ["score", "--data", world["csv"], "--model", str(world["root"] / "f.ckpt"),
                "--features-from", str(world["root"] / "h.ckpt"), "--l", "2", "--h", "3"]
        assert main([*args, "--neighbors", str(cache), "--out", str(tmp_path / "cached")]) == 0
        assert main([*args, "--out", str(tmp_path / "searched")]) == 0
        assert filecmp.cmp(tmp_path / "cached" / "scores.csv",
                           tmp_path / "searched" / "scores.csv", shallow=False)

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

        monkeypatch.setattr(neighbors, "build_index", no_search)
        rc = main(["score", "--data", str(csv), "--model", str(models[model]),
                   "--features-from", str(world["root"] / "h.ckpt"), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and err.count("\n") == 1, err
        assert f"{bad}: {shown}" in err, err

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["corrupt", "--data", "/no/such/file.csv", "--sym", "0.1",
                     "--out", str(tmp_path)]) == 2
        assert main(["score", "--data", "/no/such.csv", "--model", "/no/model",
                     "--features-from", "/no/h", "--out", str(tmp_path)]) == 2

    def test_neighbor_cache_errors_exit_two(self, tmp_path, capsys):
        run_pipeline(tiny_config(tmp_path / "run", baselines=False), quiet=True)
        run = tmp_path / "run"
        lines = (run / "neighbors.csv").read_text().splitlines()
        cells = lines[3].split(",")
        unknown = "\n".join(lines[:3] + [",".join([cells[0], "99999", *cells[2:]])] + lines[4:])
        short = "\n".join(lines[:3] + [",".join(cells[:-1])] + lines[4:])
        # an id whose row is elsewhere and that is not among line 4's neighbors
        other = next(row.split(",")[0] for row in lines[1:] if row.split(",")[0] not in cells[:5])
        edits = {
            "nan.csv": (cells[:5] + ["nan"] + cells[6:], "not finite, >= 0"),
            "self.csv": ([cells[0], cells[0], *cells[2:]], "its own id"),
            "decrease.csv": (cells[:5] + cells[5:][::-1], "decrease"),
            "twice.csv": ([other, *cells[1:]], "already has a row"),
        }
        cases = [("unknown.csv", unknown, "99999"), ("short.csv", short, "fields")] + [
            (name, "\n".join(lines[:3] + [",".join(row)] + lines[4:]), shown)
            for name, (row, shown) in edits.items()
        ]
        for name, text, shown in cases:
            (tmp_path / name).write_text(text + "\n")
            rc = main(["score", "--data", str(run / "dataset.csv"),
                       "--model", str(run / "checkpoints" / "f_epoch10.ckpt"),
                       "--features-from", str(run / "checkpoints" / "h_final.ckpt"),
                       "--neighbors", str(tmp_path / name), "--l", "4", "--h", "5",
                       "--out", str(tmp_path / "scores")])
            err = capsys.readouterr().err
            assert rc == 2, name
            assert err.count("\n") == 1 and "line 4" in err and shown in err, err

    def test_threads_flag_overrides_preset_environment(self, tmp_path, monkeypatch):
        from innscore import cli

        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.setenv(var, "2")
        seen = {}

        def fake_pipeline(args, print_timing=False):
            seen.update({var: os.environ[var] for var in variables})
            return 0

        monkeypatch.setattr(cli, "_cmd_pipeline", fake_pipeline)
        assert main(["pipeline", "--threads", "1", "--out", str(tmp_path)]) == 0
        assert seen == {var: "1" for var in variables}

    def test_parsing_loads_no_numpy(self, tmp_path):
        """--threads sets the BLAS variables, so parsing must not load numpy."""
        import innscore

        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        code = ("import argparse, sys, innscore._records, innscore.cli as cli; "
                "cli.build_parser().parse_args(['pipeline', '--threads', '1']); "
                f"args = argparse.Namespace(command='pipeline', config={str(cfg)!r}); "
                "assert cli._apply_config_file(args, []).threads == 1; "
                "assert 'numpy' not in sys.modules")
        src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--noise", "sideways"])
        assert err.value.code == 2

    def test_flags_and_config_file_set_every_field(self, tmp_path, monkeypatch):
        """Each RunConfig field has a flag and a config key, and the two agree."""
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
            ("n_neighbors", "--l", "6"), ("mode", "--mode", "midpoint"),
            ("baselines", "--no-baselines", None), ("l_sweep", "--l-sweep", "1,3"),
            ("epoch_scale", "--epoch-scale", "0.5"), ("share_epochs", "--share-epochs", None),
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
        # each noise kind takes only the corruption settings it reads
        unread = {"map": ("imb_class_a", "imb_class_b", "imb_keep", "imb_flip"),
                  "imbalanced": ("noise_rate", "noise_map")}
        changed = set()
        for kind, skipped in unread.items():
            run = [(name, flag, kind if name == "noise_kind" else text)
                   for name, flag, text in settings if name not in skipped]
            flags = [arg for _, flag, text in run for arg in (flag, text) if arg is not None]
            lines = [f"{name} = {text if text is not None else json.dumps(name == 'share_epochs')}"
                     for name, _, text in run]
            (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
            seen = []
            for argv in (flags, ["--config", str(tmp_path / "run.cfg")]):
                with pytest.raises(Built) as built:
                    main(["pipeline", *argv])
                seen.append(built.value.args[0])
            by_flags, by_file = seen
            assert by_flags == by_file
            changed |= {f.name for f in fields(RunConfig) if getattr(by_flags, f.name) != f.default}
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
    ])
    def test_out_of_range_setting_exits_two(self, tmp_path, capsys, argv, name):
        out = tmp_path / "run"
        assert main(["pipeline", "--n", "60", "--quiet", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"error: {name} is " in err, err
        assert not (out / "dataset.csv").exists()

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
        and the OpenBLAS thread count, 1 while the pool runs, is restored after."""
        blas = pipeline.openblas_threads()
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
                blas[1](2)  # so that a missing restore shows
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
        assert after == (2 if blas else None)

    def test_threads_below_one_in_config_file_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        (tmp_path / "run.cfg").write_text("n = 60\nthreads = 0\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: threads is 0, not a positive integer\n"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("argv, shown", [
        (["train", "--data", "d.csv", "--hidden", "8,x"],
         "argument --hidden: invalid int_list value: '8,x'"),
        (["corrupt", "--data", "d.csv", "--map", "0-1"],
         "argument --map: invalid label_map value: '0-1'"),
        (["corrupt", "--data", "d.csv", "--imbalanced", "0,1,0.5"],
         "argument --imbalanced: invalid imbalance value: '0,1,0.5'"),
        (["pipeline", "--l-sweep", "1,two"], "argument --l-sweep: invalid int_list value"),
    ])
    def test_malformed_list_flag_named(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert shown in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "n = 120\nn_classes = 3\nnoise_kind = symmetric\nnoise_rate = 0.3\n"
            "epochs = 8\ncheckpoint_every = 4\nh_epochs = 4\nhidden = \"16,8\"\n"
            "h_hidden = \"16,4\"\nn_neighbors = 3\nseed = 5\n"
        )
        out = str(tmp_path / "run")
        assert main(["pipeline", "--config", str(cfg_file), "--quiet",
                     "--seed", "9", "--out", out]) == 0
        manifest = json.loads(open(f"{out}/manifest.json").read())
        assert manifest["config"]["n"] == 120  # from file
        assert manifest["config"]["seed"] == 9  # flag wins


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
            "run.cfg": "n = 60\nepochz = 3\n",
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
            (["pipeline", "--config", str(tmp_path / "run.cfg"), "--out", out],
             "run.cfg: line 2: unknown key 'epochz'"),
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
        (tmp_path / "mode.cfg").write_text("n = 60\n\nmode = foo\n")
        (tmp_path / "loss.cfg").write_text('f_loss = "hinge"\n')
        typed = {"n.cfg": "n = abc\n", "epochs.cfg": "seed = 1\nepochs = 1.5\n",
                 "base.cfg": "baselines = 3\n", "hidden.cfg": "hidden = [16, 8]\n",
                 "twice.cfg": "seed = 1\nn = 60\nseed = 2\n"}
        for name, text in typed.items():
            (tmp_path / name).write_text(text)
        searched = []
        monkeypatch.setattr(neighbors, "search", lambda *a: searched.append(a))
        cases = [
            (["train", "--data", str(tmp_path / "big_id.csv"), "--out", out],
             f"big_id.csv: line 4: '{big}' is outside the int64 range"),
            (["pipeline", "--config", str(tmp_path / "mode.cfg"), "--out", out],
             "mode.cfg: line 3: mode is 'foo', not one of integral, midpoint"),
            (["timing", "--config", str(tmp_path / "loss.cfg"), "--out", out],
             "loss.cfg: line 1: f_loss is 'hinge', not one of ce, cene, mixup"),
            (["pipeline", "--config", str(tmp_path / "n.cfg"), "--out", out],
             "n.cfg: line 1: n = abc: invalid int value"),
            (["timing", "--config", str(tmp_path / "epochs.cfg"), "--out", out],
             "epochs.cfg: line 2: epochs = 1.5: invalid int value"),
            (["pipeline", "--config", str(tmp_path / "base.cfg"), "--out", out],
             "base.cfg: line 1: baselines = 3: invalid boolean value"),
            (["pipeline", "--config", str(tmp_path / "hidden.cfg"), "--out", out],
             "hidden.cfg: line 1: hidden = [16, 8]: invalid int_list value"),
            (["pipeline", "--config", str(tmp_path / "twice.cfg"), "--out", out],
             "twice.cfg: line 3: seed is given twice"),
            (["split", "--scores", world["scores"], "--threshold", "7", "--out", out],
             "threshold is 7.0, not in [0, 1]"),
            (["split", "--scores", world["scores"], "--threshold", "-1", "--out", out],
             "threshold is -1.0, not in [0, 1]"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--kinds", "inn,foo", "--out", out],
             "unknown score kind 'foo'"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--kinds", ",", "--out", out],
             "unknown score kind ','"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--h", "0", "--out", out],
             "trapezoids is 0, not a positive integer"),
            (["score", "--data", world["csv"], "--model", str(root / "f.ckpt"),
              "--features-from", str(root / "h.ckpt"), "--l", "0", "--out", out],
             "n_neighbors is 0, not a positive integer"),
            (["train", "--data", world["csv"], "--lr0", "nan", "--out", out],
             "lr0 is nan, not positive"),
            (["eval", "--scores", world["scores"], "--data", world["csv"], "--bins", "0",
              "--out", out], "bins is 0, not a positive integer"),
            (["corrupt", "--data", world["csv"], "--sym", "0.2", "--rate", "0.5", "--out", out],
             "--rate is the rate of --map and goes only with it"),
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
            ds = data.corrupt_symmetric(data.synth("blobs", 30, 2, 2, 0.5, seed=0), 0.3, seed=1)
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
    """Valid input files of every format the CLI reads, for 30 samples."""
    root = tmp_path_factory.mktemp("world")
    ds = data.corrupt_symmetric(data.synth("blobs", 30, 2, 2, 0.5, seed=0), 0.3, seed=1)
    h = tinynet.init_model([2, 4, 2, 2], seed=0)
    f = tinynet.init_model([2, 8, 4, 2], seed=1, lift_freq=2.0)
    tinynet.save_checkpoint(h, root / "h.ckpt", epoch=3)
    tinynet.save_checkpoint(f, root / "f.ckpt", epoch=3)
    ids, dist = neighbors.search(neighbors.build_index(ds.features), 3)
    tables, _ = scorer.score_models(ds, ids[:, :3], 2, [(1, h), (2, f)])
    return {
        "root": root,
        "csv": str(data.write_csv(ds, root / "d.csv")),
        "cache": str(neighbors.write_cache(ids, dist, ds.ids, root / "nn.csv")),
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

    @settings(max_examples=30, deadline=None)
    @given(line=st.integers(2, 31), other=st.integers(2, 31), col=st.integers(0, 6),
           edit=_LINE_EDITS)
    def test_neighbor_cache(self, world, line, other, col, edit):
        with tempfile.TemporaryDirectory() as tmp:
            lines = open(world["cache"]).read().splitlines()
            assume(_corrupt_line(lines, line, other, col, edit))
            path = os.path.join(tmp, "nn.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            rc, shown = _run_quietly(
                ["score", "--data", world["csv"], "--model", str(world["root"] / "f.ckpt"),
                 "--features-from", str(world["root"] / "h.ckpt"), "--neighbors", path,
                 "--l", "3", "--h", "2", "--out", tmp])
            assert rc != 0 and "line " in shown, shown

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["f.ckpt", "h.ckpt"]), at=st.floats(0, 1, exclude_max=True),
           flip=st.integers(0, 255))
    def test_checkpoint(self, world, name, at, flip):
        with tempfile.TemporaryDirectory() as tmp:
            _copy_and_damage(world, tmp, ("f.ckpt", "f.ckpt.json", "h.ckpt", "h.ckpt.json"),
                             name, at, flip)
            rc, _ = _run_quietly(
                ["score", "--data", world["csv"], "--model", os.path.join(tmp, "f.ckpt"),
                 "--features-from", os.path.join(tmp, "h.ckpt"), "--l", "3", "--h", "2",
                 "--kinds", "inn,midpoint,loss_ce", "--out", tmp])
            if rc == 0:
                rows = open(os.path.join(tmp, "scores.csv")).read().splitlines()[1:]
                assert np.isfinite([float(row.rsplit(",", 1)[1]) for row in rows]).all()
