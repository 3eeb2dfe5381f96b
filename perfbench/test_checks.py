"""Tests of the benchmark's output checks and span arithmetic.

Run with `python3 -m pytest perfbench`. A small real pipeline run must
pass every check; each deliberately wrong copy of it must fail one. The
run uses `--l 5`, so the checks must take L from the run's own echo.
"""

import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
EPOCHS = (2, 4)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    args = ("pipeline --n 160 --k 3 --d 2 --spread 1.0 --noise symmetric --rate 0.3 "
            "--hidden 16,8 --h-hidden 8,4 --h-epochs 3 --epochs 4 --checkpoint-every 2 "
            "--l 5 --seed 3 --quiet").split()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "innscore.cli", *args, "--out", str(out)],
                   check=True, env=env, capture_output=True)
    return out


@pytest.fixture
def run_copy(small_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(small_run, out)
    return out


def outputs(out):
    return checks.RunOutputs(
        dataset=f"{out}/dataset.csv", scores=f"{out}/scores.csv",
        kinds=("inn", "midpoint", "loss_ce", "loss_cene"),
        f_ckpts={e: f"{out}/checkpoints/f_epoch{e}.ckpt" for e in EPOCHS},
        h_ckpt=f"{out}/checkpoints/h_final.ckpt",
        split=f"{out}/split_scores.csv", bmm_fit=f"{out}/bmm_fit.json",
        neighbors=f"{out}/neighbors.csv", auc_csv=f"{out}/auc.csv", gmm_fit=f"{out}/gmm_fit.json",
    )


def run_checks(out):
    return checks.check(outputs(out), sample_rows=1000, seed=0)


def edit_line(path, index, edit):
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    Path(path).write_text("".join(line for line in lines if line is not None))


def test_real_run_passes(run_copy):
    failures, quality = run_checks(run_copy)
    assert failures == []
    assert 0.0 < quality["inn_auc"] < 1.0
    assert 0.0 < quality["clean_precision"] <= 1.0


def test_swapped_neighbor_id_fails(run_copy):
    def swap(line):
        parts = line.rstrip("\n").split(",")
        listed = set(parts[:6])
        parts[1] = next(str(i) for i in range(160) if str(i) not in listed)
        return ",".join(parts) + "\n"

    edit_line(run_copy / "neighbors.csv", 1, swap)
    failures, _ = run_checks(run_copy)
    assert any(f.startswith("neighbors:") for f in failures)


def test_perturbed_score_fails(run_copy):
    def perturb(line):
        sid, epoch, kind, value = line.rstrip("\n").split(",")
        return f"{sid},{epoch},{kind},{float(value) * 0.999!r}\n"

    edit_line(run_copy / "scores.csv", 1, perturb)
    failures, _ = run_checks(run_copy)
    assert any(f.startswith("inn@2:") for f in failures)


def test_dropped_row_fails(run_copy):
    edit_line(run_copy / "scores.csv", 5, lambda line: None)
    failures, _ = run_checks(run_copy)
    assert any(f.startswith("scores:") for f in failures)


def test_flipped_split_label_fails(run_copy):
    def flip(line):
        sid, post, tag = line.rstrip("\n").split(",")
        return f"{sid},{post},{'unlabeled' if tag == 'labeled' else 'labeled'}\n"

    edit_line(run_copy / "split_scores.csv", 1, flip)
    failures, _ = run_checks(run_copy)
    assert any(f.startswith("split: labels") for f in failures)


def test_trailing_checkpoint_bytes_are_refused(run_copy):
    with open(run_copy / "checkpoints" / "f_epoch4.ckpt", "ab") as fh:
        fh.write(b"\0" * 8)
    with pytest.raises(ValueError):
        checks.read_checkpoint(run_copy / "checkpoints" / "f_epoch4.ckpt")


def test_self_time_excludes_nested_layers():
    net = types.ModuleType("pkg.tinynet")
    exec("def forward():\n    return sum(range(1000))\n", net.__dict__)
    net.forward.__module__ = "pkg.tinynet"
    score = types.ModuleType("pkg.scorer")
    score.__dict__["net"] = net
    exec("def inn_scores():\n    return net.forward() + net.forward()\n", score.__dict__)
    score.inn_scores.__module__ = "pkg.scorer"
    tracer = spans.Tracer()
    tracer.instrument([score, net])
    score.inn_scores()
    assert [s[0] for s in tracer.spans] == ["scorer.inn_scores", "tinynet.forward", "tinynet.forward"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]
    outer, *inner = [s[3] - s[2] for s in tracer.spans]
    metrics = spans.layer_metrics(tracer.spans, outer + 0.5)
    assert metrics["scorer.score_s"] == pytest.approx(outer, abs=1e-12)
    assert metrics["scorer.self_s"] == pytest.approx(outer - sum(inner), abs=1e-12)
    assert metrics["tinynet.self_s"] == pytest.approx(sum(inner), abs=1e-12)
    assert metrics["other_s"] == pytest.approx(0.5)
