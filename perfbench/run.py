"""Benchmark of innscore: real commands, one fresh process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep, long-train, rescore-large or all. The benchmark is a closed
loop with one client: each operation is an innscore command started in a
fresh interpreter, and the next starts only after the previous one ended.
A round runs the workload's command between set-up probes (children that
only load the command's modules), and with --trace 1 the same command once
more with every layer traced.
Rounds repeat until S seconds have passed; every run does at least one.

An operation is one run of the workload's command; the probes are
samples of set-up time, not operations. After each command the outputs
are checked against computations made here (checks.py). An operation
fails on a non-zero exit or a failed check. The last line printed is one
JSON object with the attempted and failed counts and the metrics: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. A
metric with no sample, because every operation failed, reads null.
Inputs depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BLAS pools are fixed before numpy loads, here and in every child.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SETUP_PROBES = 4  # extra set-up samples per round, half before and half after the command
SAMPLE_ROWS = 128  # rows whose neighbours and scores are recomputed
DEADLINE_S = 170.0  # a run never outlives this

# Metric names and units come from the benchmark's definition.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


@dataclass
class Workload:
    prepare: object  # (seed, prep dir) -> untimed innscore commands
    command: object  # (seed, prep dir, out dir) -> the timed innscore command
    finish: object  # (out dir) -> untimed commands whose outputs are checked too
    outputs: object  # (prep dir, out dir) -> checks.RunOutputs


# Criterion-8 desk protocol at epoch scale 0.2: 60 epochs, f checkpointed every 10.
SWEEP = ("--n 2000 --k 4 --d 2 --spread 1.6 --noise symmetric --rate 0.3 "
         "--epochs 300 --checkpoint-every 50 --epoch-scale 0.2").split()
# Criterion-11 imbalanced two-class protocol: 4000 rows before subsampling.
LONG_TRAIN = ("--n 4000 --k 2 --d 2 --spread 1.6 --noise imbalanced --imb-keep 0.1 "
              "--imb-flip 0.3 --epochs 80 --checkpoint-every 40").split()
RESCORE_ROWS = 8000
RESCORE_EPOCHS = (20, 40)


def _pipeline(config, epochs):
    def outputs(prep, out):
        from checks import RunOutputs

        return RunOutputs(
            dataset=f"{out}/dataset.csv", scores=f"{out}/scores.csv",
            kinds=("inn", "midpoint", "loss_ce", "loss_cene"),
            f_ckpts={e: f"{out}/checkpoints/f_epoch{e}.ckpt" for e in epochs},
            h_ckpt=f"{out}/checkpoints/h_final.ckpt",
            split=f"{out}/split_scores.csv", bmm_fit=f"{out}/bmm_fit.json",
            neighbors=f"{out}/neighbors.csv", auc_csv=f"{out}/auc.csv", gmm_fit=f"{out}/gmm_fit.json",
        )

    return Workload(
        prepare=lambda seed, prep: [],
        command=lambda seed, prep, out: ["pipeline", *config, "--seed", str(seed), "--quiet", "--out", out],
        finish=lambda out: [],
        outputs=outputs,
    )


def _rescore_prepare(seed, prep):
    first, last = RESCORE_EPOCHS
    return [
        ["synth", "--kind", "blobs", "--n", str(RESCORE_ROWS), "--k", "4", "--d", "2",
         "--spread", "1.6", "--seed", str(seed), "--out", prep],
        ["corrupt", "--data", f"{prep}/dataset.csv", "--sym", "0.3", "--seed", str(seed + 1),
         "--out", prep, "--name", "noisy.csv"],
        ["train", "--data", f"{prep}/noisy.csv", "--loss", "ce", "--epochs", "20",
         "--hidden", "64,16", "--seed", str(seed + 2), "--out", f"{prep}/h"],
        ["train", "--data", f"{prep}/noisy.csv", "--loss", "mixup", "--epochs", str(last),
         "--checkpoint-every", str(first), "--hidden", "64,32", "--lift-freq", "4",
         "--seed", str(seed + 3), "--out", f"{prep}/f"],
    ]


def _rescore_command(seed, prep, out):
    models = [a for e in RESCORE_EPOCHS for a in ("--model", f"{prep}/f/model_epoch{e}.ckpt")]
    return ["score", "--data", f"{prep}/noisy.csv", *models,
            "--features-from", f"{prep}/h/model_final.ckpt",
            "--kinds", "inn,midpoint,loss_ce", "--out", out]


def _rescore_outputs(prep, out):
    from checks import RunOutputs

    return RunOutputs(
        dataset=f"{prep}/noisy.csv", scores=f"{out}/scores.csv",
        kinds=("inn", "midpoint", "loss_ce"),
        f_ckpts={e: f"{prep}/f/model_epoch{e}.ckpt" for e in RESCORE_EPOCHS},
        h_ckpt=f"{prep}/h/model_final.ckpt",
        split=f"{out}/split/split.csv", bmm_fit=f"{out}/split/beta_fit.json", loss_from_f=True,
    )


WORKLOADS = {
    "sweep": _pipeline(SWEEP, range(10, 61, 10)),
    "long-train": _pipeline(LONG_TRAIN, (40, 80)),
    "rescore-large": Workload(
        prepare=_rescore_prepare,
        command=_rescore_command,
        # score does not split; the split command gives its clean set
        finish=lambda out: [["split", "--scores", f"{out}/scores.csv", "--kind", "inn",
                             "--out", f"{out}/split"]],
        outputs=_rescore_outputs,
    ),
}


class Runner:
    """Starts children one at a time and keeps the run's tallies."""

    def __init__(self, work, deadline):
        self.work, self.deadline = work, deadline
        self.attempted = self.failed = 0
        self.correct = True
        self.setup_s = []  # every child loads the same modules before its command
        self._n = 0

    def spawn(self, mode, args, sample=True):
        """Run one child; returns its result record, or None if it failed."""
        self._n += 1
        result, log = self.work / f"child{self._n}.json", self.work / f"child{self._n}.log"
        start = time.monotonic()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(result), mode, "--", *args],
                stdout=fh, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                print(f"command timed out: {' '.join(args)}", file=sys.stderr)
            finally:  # on a timeout or an interrupt, no child outlives the run
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace")[-2000:]
            print(f"command failed ({proc.returncode}): {' '.join(args)}\n{tail}", file=sys.stderr)
            return None
        record = json.loads(result.read_text())
        if sample:
            self.setup_s.append(record["ready"] - start)
        return record


def _median(values):
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else None


def _operation(runner, workload, mode, seed, prep, out):
    """The timed command, its untimed finishing commands and the output checks.

    Returns (child record, quality metrics), or None if the operation failed.
    """
    import checks

    runner.attempted += 1
    # prep is None when the inputs could not be prepared
    record = None if prep is None else runner.spawn(mode, workload.command(seed, prep, out))
    if record is None or not all(runner.spawn("run", args) for args in workload.finish(out)):
        runner.failed += 1
        shutil.rmtree(out, ignore_errors=True)
        return None
    failures, quality = checks.check(workload.outputs(prep, out), SAMPLE_ROWS, seed)
    shutil.rmtree(out, ignore_errors=True)
    if failures:
        runner.failed += 1
        runner.correct = False
        print("\n".join(f"check failed: {f}" for f in failures), file=sys.stderr)
        return None
    return record, quality


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result object printed as JSON."""
    import spans

    workload = WORKLOADS[name]
    seed = seed % 2**31
    started = time.monotonic()
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + DEADLINE_S)
    samples = {key: [] for key in END_TO_END}
    traced = []
    try:
        runner.spawn("setup", [], sample=False)  # byte-compiles and warms the file cache
        prep = str(work / "prep")
        if not all(runner.spawn("run", args) for args in workload.prepare(seed, prep)):
            prep = None
        rounds = 0
        while rounds == 0 or time.monotonic() - started < seconds:
            rounds += 1
            for _ in range(SETUP_PROBES // 2):
                runner.spawn("setup", [])
            for mode in ("run", "trace") if trace else ("run",):
                done = _operation(runner, workload, mode, seed, prep, str(work / f"op{rounds}-{mode}"))
                if done is None:
                    continue
                record, quality = done
                if mode == "trace":
                    traced.append(spans.layer_metrics(record["spans"], record["run_s"]))
                    continue
                samples["run_s"].append(record["run_s"])
                samples["peak_rss_mb"].append(record["rss_kb"] / 1024.0)
                for key, value in quality.items():
                    samples[key].append(value)
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
                runner.spawn("setup", [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {key: _median([m[key] for m in traced]) for key in PER_LAYER if key != "trace.overhead_s"}
        pair = (metrics["trace.run_s"], _median(samples["run_s"]))
        metrics["trace.overhead_s"] = None if None in pair else pair[0] - pair[1]
        units = PER_LAYER
    else:
        samples["setup_s"] = runner.setup_s
        metrics = {key: _median(values) for key, values in samples.items()}
        units = END_TO_END
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def _print(name, result):
    for key, metric in result["metrics"].items():
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} {key} {value} {metric['unit']}")
    print(f"{name} attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "innscore" / "cli.py").is_file():
        print(f"error: no innscore sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print(name, results[name])
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
