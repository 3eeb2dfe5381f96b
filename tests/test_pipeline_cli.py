"""End-to-end pipeline runs and the command-line surface.

Pipeline tests run a deliberately tiny configuration; the acceptance
module exercises the full-size protocol.
"""

import contextlib
import filecmp
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innscore import data, neighbors, scorer
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
        result = run_pipeline(cfg, quiet=True, write_outputs=False)
        phases = result.timing["phases"]
        assert abs(sum(phases.values()) - result.timing["total"]) <= 0.01 * result.timing["total"]
        assert "neighbor_search" in phases and "scoring" in phases

    def test_byte_identical_reruns(self, tmp_path):
        run_pipeline(tiny_config(tmp_path / "a"), quiet=True)
        run_pipeline(tiny_config(tmp_path / "b"), quiet=True)
        for name in ("scores.csv", "dataset.csv", "neighbors.csv", "split_scores.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

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
        result = run_pipeline(cfg, quiet=True, write_outputs=False)
        # epochs 10 -> 5, checkpoint grid 5 -> 2 (banker's rounding)
        assert [t.epoch for t in result.score_tables] == [2, 4]

    def test_chain_and_imbalanced_noise(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", noise_kind="chain", noise_rate=1.0)
        result = run_pipeline(cfg, quiet=True, write_outputs=False)
        ds = result.dataset
        assert np.array_equal(ds.observed_labels, (ds.true_labels + 1) % 3)

        cfg = tiny_config(tmp_path / "run2", n_classes=2, noise_kind="imbalanced",
                          imb_keep=0.3, imb_flip=0.2)
        result = run_pipeline(cfg, quiet=True, write_outputs=False)
        assert result.dataset.n_classes == 2
        assert result.dataset.n < 200

    def test_no_baselines(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", baselines=False)
        result = run_pipeline(cfg, quiet=True, write_outputs=False)
        assert sorted(result.score_tables[0].values) == ["inn", "midpoint"]
        assert result.loss_split is None

    def test_dataset_without_true_labels_still_scores(self, tmp_path):
        ds = data.synth("blobs", 120, 3, 2, 0.5, seed=0)
        stripped = data.Dataset(ds.features, ds.observed_labels, None, 3, ds.ids)
        path = data.write_csv(stripped, tmp_path / "plain.csv")
        cfg = tiny_config(tmp_path / "run", data_path=str(path), noise_kind="none")
        result = run_pipeline(cfg, quiet=True)
        assert result.report is None
        assert (tmp_path / "run" / "scores.csv").exists()
        assert not (tmp_path / "run" / "report.json").exists()

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        run_pipeline(cfg, quiet=True)
        manifest = json.loads(open(tmp_path / "run" / "manifest.json").read())
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["seed"] == 0
        assert "numpy" in manifest["versions"]


class TestCli:
    def test_synth_corrupt_train_score_split_eval(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["synth", "--kind", "blobs", "--n", "150", "--k", "3", "--d", "2",
                     "--spread", "0.6", "--seed", "1", "--out", out, "--name", "clean.csv"]) == 0
        assert main(["corrupt", "--data", f"{out}/clean.csv", "--sym", "0.3",
                     "--seed", "2", "--out", out, "--name", "noisy.csv"]) == 0
        shown = capsys.readouterr().out
        assert "realized noisy fraction" in shown

        assert main(["train", "--data", f"{out}/noisy.csv", "--loss", "ce",
                     "--epochs", "6", "--checkpoint-every", "3", "--hidden", "16,8",
                     "--seed", "3", "--out", f"{out}/h"]) == 0
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
        tables = scorer.read_score_csv(f"{out}/scores/scores.csv")
        assert len(tables) == 2
        summary = json.loads(open(f"{out}/scores/scores_summary.json").read())
        assert summary["kinds"] == ["inn", "loss_ce", "midpoint"]
        assert json.loads(open(f"{out}/scores/manifest.json").read())["command"] == "score"

        assert main(["split", "--scores", f"{out}/scores/scores.csv", "--kind", "inn",
                     "--mixture", "beta", "--out", f"{out}/split"]) == 0
        assert os.path.exists(f"{out}/split/split.csv")
        assert main(["eval", "--scores", f"{out}/scores/scores.csv",
                     "--data", f"{out}/noisy.csv", "--out", f"{out}/eval"]) == 0
        assert os.path.exists(f"{out}/eval/report.json")

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

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--noise", "sideways"])
        assert err.value.code == 2

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


class TestCorruptDatasetCli:
    """One corrupted line of a dataset CSV is a configuration error: the
    commands that read it exit with a code in {2, 3, 4} and one stderr line."""

    @settings(max_examples=30, deadline=None)
    @given(
        line=st.integers(2, 31),
        other=st.integers(2, 31),
        col=st.integers(0, 4),
        edit=st.sampled_from(["drop", "extra", "nan", "inf", "-inf", "word", "dup_id"]),
    )
    def test_one_bad_line_exits_cleanly(self, line, other, col, edit):
        with tempfile.TemporaryDirectory() as tmp:
            ds = data.corrupt_symmetric(data.synth("blobs", 30, 2, 2, 0.5, seed=0), 0.3, seed=1)
            lines = open(data.write_csv(ds, os.path.join(tmp, "d.csv"))).read().splitlines()
            cells = lines[line - 1].split(",")  # id,f0,f1,label,true_label
            bad_line = line
            if edit == "drop":
                del cells[col]
            elif edit == "extra":
                cells.insert(col, "0")
            elif edit == "dup_id":
                other = other if other != line else 2 + (line - 1) % 30
                cells[0] = lines[other - 1].split(",")[0]
                bad_line = max(line, other)
            else:
                cells[col] = {"word": "abc"}.get(edit, edit)
            lines[line - 1] = ",".join(cells)
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
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                shown = err.getvalue()
                assert rc in (2, 3, 4), (argv[0], shown)
                assert shown.count("\n") == 1 and "Traceback" not in shown, shown
                assert f"line {bad_line}:" in shown, shown
