"""The worker pool, and the neighbour search and scoring pass that run on it."""

import functools
import os
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innscore import data, neighbors, scorer, tinynet, workers
from innscore.cli import main

BLAS = workers.openblas_threads()


def blas_count():
    return BLAS[0]() if BLAS else None


class TestRun:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_results_in_job_order(self, threads):
        def job(k):
            time.sleep(0.002 * (5 - k))  # later jobs finish first
            return k, threading.get_ident()

        results = workers.run([lambda k=k: job(k) for k in range(6)], threads)
        assert [k for k, _ in results] == list(range(6))
        if workers.pool_size(threads, 6) == 1:  # inline, on the calling thread
            assert {ident for _, ident in results} == {threading.get_ident()}

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_first_failure_in_job_order_raises(self, threads):
        finished = []

        def fail(name, delay):
            time.sleep(delay)
            finished.append(name)
            raise RuntimeError(name)

        jobs = [lambda: finished.append("ok"), lambda: fail("slow", 0.05),
                lambda: fail("fast", 0.0), lambda: finished.append("late")]
        with pytest.raises(RuntimeError, match="^slow$"):
            workers.run(jobs, threads)
        snapshot = list(finished)
        time.sleep(0.1)
        assert finished == snapshot  # no job outlives the call
        assert {"ok", "slow"} <= set(finished)

    def test_every_job_taken_once_under_contention(self):
        """More threads than cores and a short switch interval: a job taken twice or
        never would show in the call counts or in the results."""
        calls = [0] * 3000
        interval = sys.getswitchinterval()

        def job(k):
            calls[k] += 1  # no other job touches entry k
            return k

        sys.setswitchinterval(1e-6)
        try:
            for threads in (3, 8):
                results = workers.run([functools.partial(job, k) for k in range(3000)], threads)
                assert results == list(range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [2] * 3000

    def test_blas_pinned_to_one_for_the_rest_of_the_process(self):
        """A call with helpers pins BLAS to one thread and leaves it there, also
        after a failing call and after a caller has reset the count."""
        if BLAS is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        before = blas_count()
        try:
            BLAS[1](2)
            seen = workers.run([blas_count] * 3, 2)
            assert seen == [1, 1, 1] and blas_count() == 1
            BLAS[1](2)
            with pytest.raises(ZeroDivisionError):
                workers.run([lambda: 1 / 0, blas_count], 2)
            assert blas_count() == 1
        finally:
            BLAS[1](before)

    def test_claim_pins_blas_only_for_a_pool_with_helpers(self, monkeypatch):
        if BLAS is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        before = blas_count()
        try:
            BLAS[1](2)
            _cores(monkeypatch, 1)
            for threads in (1, None):  # one worker: jobs run inline, with every BLAS thread
                workers.claim(threads)
                assert blas_count() == 2
            _cores(monkeypatch, 2)
            for threads in (2, 4, None):
                workers.claim(threads)
                assert blas_count() == 1
                BLAS[1](2)  # a count reset since is pinned again
        finally:
            BLAS[1](before)

    def test_concurrent_callers_leave_blas_pinned(self):
        """Two threads each run four 10 ms jobs on two workers, started 5 ms
        apart: each gets the sequential results, and BLAS reads 1 after both."""
        def job(tag, k):
            time.sleep(0.01)
            return tag, k, blas_count()

        def call(tag):
            return workers.run([functools.partial(job, tag, k) for k in range(4)], 2)

        before = blas_count()
        try:
            want = {tag: call(tag) for tag in "ab"}
            for trial in range(5):
                if BLAS:
                    BLAS[1](2)  # so that a restored count shows
                got = {}
                threads = [threading.Thread(target=lambda tag=tag: got.update({tag: call(tag)}))
                           for tag in "ab"]
                threads[0].start()
                time.sleep(0.005)
                threads[1].start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive(), trial
                assert got == want, trial
                assert blas_count() == (1 if BLAS else None), trial
        finally:
            if BLAS:
                BLAS[1](before)

    def test_one_worker_leaves_blas_alone(self):
        """Jobs run inline, with every BLAS thread the caller had."""
        if BLAS is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        before = blas_count()
        try:
            BLAS[1](2)
            assert workers.run([blas_count] * 3, 1) == [2, 2, 2]
            assert workers.run([blas_count], 4) == [2]  # one job: one worker
        finally:
            BLAS[1](before)

    def test_no_helper_outlives_its_call(self):
        for threads in (2, 4):
            workers.run([threading.get_ident] * 4, threads)
            assert [t.name for t in threading.enumerate() if t.name.startswith("innscore")] == []

    def test_no_jobs_and_bad_threads(self):
        assert workers.run([], 2) == []
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"threads is {threads}, not a positive"):
                workers.run([lambda: None], threads)


# pool sizes whose splits of the work differ: inline, two workers, more workers than cores
POOLS = (1, 2, 4)


class TestSearchAnyPool:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 60),
        p=st.integers(1, 9),
        ties=st.booleans(),
        zero_rows=st.integers(0, 10),
        L=st.integers(1, 8),
        leaf_rows=st.integers(2, 20),
        chunk=st.integers(1, 600),
    )
    def test_bitwise_equal(self, seed, n, p, ties, zero_rows, L, leaf_rows, chunk):
        rng = np.random.default_rng(seed)
        if ties:  # integer coordinates: many exact distance ties
            F = rng.integers(-1, 2, size=(n, p)).astype(np.float64)
        else:
            F = rng.normal(size=(n, p))
        F = np.vstack([F, np.zeros((zero_rows, p))])  # collapsed embeddings
        L = min(L, F.shape[0] - 1)
        # small leaves and chunks give many jobs and blocks, so the pool has jobs to share
        with mock.patch.object(neighbors, "_LEAF_ROWS", leaf_rows), \
                mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
            runs = [neighbors.search(F, L, threads) for threads in POOLS]
        for ids, dist in runs[1:]:
            assert np.array_equal(ids, runs[0][0])
            assert dist.tobytes() == runs[0][1].tobytes()


def _checkpoints(kind, n_ckpts, d, n_classes, seed):
    """Models to score: plain ReLU nets, lift nets sharing one frozen first
    layer (as a run's checkpoints do), or lift nets with distinct lifts."""
    dims = [d, 6, 5, n_classes]
    base = tinynet.init_model(dims, seed, lift_freq=0.0 if kind == "plain" else 3.0)
    models = []
    for c in range(n_ckpts):
        if kind == "distinct":
            model = tinynet.init_model(dims, seed + c, lift_freq=3.0)
        else:
            model = base.copy()
            rng = np.random.default_rng(seed + c)
            for layer in range(1 if model.lift else 0, len(model.weights)):
                model.weights[layer] += rng.normal(scale=0.5, size=model.weights[layer].shape)
        models.append((10 * (c + 1), model))
    return models


class TestScoringAnyPool:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(4, 40),
        d=st.integers(2, 3),
        H=st.sampled_from([1, 2, 3, 4, 5, 8, 9]),
        kind=st.sampled_from(["plain", "shared", "distinct"]),
        n_ckpts=st.integers(1, 3),
        ties=st.booleans(),
        L=st.integers(1, 5),
        probes=st.integers(1, 200),
        block=st.integers(1, 3),
    )
    def test_bitwise_equal(self, seed, n, d, H, kind, n_ckpts, ties, L, probes, block):
        ds = data.corrupt(data.synth("blobs", n, 3, d, 0.5, seed=seed), "symmetric", 0.3, seed + 1)
        if ties:  # a grid with repeated rows: zero-length segments
            ds.features = np.round(ds.features)
        L = min(L, n - 1)
        nbr, _ = neighbors.search(ds.features, L)
        ckpts = _checkpoints(kind, n_ckpts, d, 3, seed)
        # small chunks give many chunks of few edges, split unevenly across workers;
        # blocks of `block` edges (the first layer is 6 wide) split the chunks
        with mock.patch.object(scorer, "_CHUNK_PROBES", probes):
            whole = scorer.segment_scores(ds, nbr, H, ckpts, 1)  # one block per chunk
            with mock.patch.object(scorer, "_BLOCK_PAIRS", 6 * block):
                runs = [scorer.segment_scores(ds, nbr, H, ckpts, threads) for threads in POOLS]
        for segments in runs:
            for got, want in zip(segments, whole):
                for name in ("inn", "midpoint", "probs"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("kind, groups", [("shared", 1), ("distinct", 3), ("plain", 3)])
    @pytest.mark.parametrize("probes", [9, 40, 4096])
    def test_two_pool_calls_per_lift_group(self, monkeypatch, kind, groups, probes):
        """Each group of checkpoints sharing a lift is one call at the samples
        and one over the chunks, however many chunks there are."""
        ds = data.corrupt(data.synth("blobs", 40, 3, 2, 0.5, seed=3), "symmetric", 0.3, 4)
        nbr, _ = neighbors.search(ds.features, 4)
        ckpts = _checkpoints(kind, 3, 2, 3, 3)
        calls, run = [], workers.run

        def spy(jobs, threads=None):
            jobs = list(jobs)
            calls.append(len(jobs))
            return run(jobs, threads)

        monkeypatch.setattr(workers, "run", spy)
        monkeypatch.setattr(scorer, "_CHUNK_PROBES", probes)
        scorer.segment_scores(ds, nbr, 10, ckpts, 2)
        chunks = -(-scorer._edges(nbr)[0].size // max(1, probes // 9))  # T = 9 interior nodes
        assert calls == [3 // groups, chunks] * groups

    def test_score_models_takes_threads(self):
        ds = data.corrupt(data.synth("blobs", 30, 3, 2, 0.5, seed=3), "symmetric", 0.3, 4)
        nbr, _ = neighbors.search(ds.features, 4)
        ckpts = _checkpoints("shared", 2, 2, 3, 3)
        one, two = (scorer.score_models(ds, nbr, 4, ckpts, threads)[0] for threads in (1, 2))
        for a, b in zip(one, two):
            assert a.values["inn"].tobytes() == b.values["inn"].tobytes()


def test_no_openblas_runs_inline_without_counting_cores(monkeypatch):
    """Where numpy bundles no OpenBLAS, the pool has one worker, and the search
    and the scoring pass run where os.sched_getaffinity does not exist."""
    ds = data.corrupt(data.synth("blobs", 30, 3, 2, 0.5, seed=3), "symmetric", 0.3, 4)
    ckpts = _checkpoints("shared", 2, 2, 3, 3)
    nbr, dist = neighbors.search(ds.features, 4, 2)
    want = scorer.segment_scores(ds, nbr, 3, ckpts, 2)
    monkeypatch.setattr(workers, "openblas_threads", lambda: None)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.pool_size(None, 4) == 1 and workers.pool_size(None, 0) == 0
    got_nbr, got_dist = neighbors.search(ds.features, 4)
    assert np.array_equal(got_nbr, nbr) and got_dist.tobytes() == dist.tobytes()
    for got, segments in zip(scorer.segment_scores(ds, nbr, 3, ckpts), want):
        assert got.inn.tobytes() == segments.inn.tobytes()


def test_openblas_build_names_the_kernel():
    """The build text that the manifests record names the kernel, which
    OPENBLAS_CORETYPE picks in a build for several."""
    build = workers.openblas_build()
    if build is None or "DYNAMIC_ARCH" not in build:
        pytest.skip("no OpenBLAS build for several kernels in this numpy")
    src = os.path.dirname(os.path.dirname(os.path.abspath(workers.__file__)))
    done = subprocess.run([sys.executable, "-c", "from innscore import workers; "
                           "print(workers.openblas_build())"], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src,
                                           "OPENBLAS_CORETYPE": "Sandybridge"})
    assert done.stdout.split(" ")[:2] == build.split(" ")[:2], done.stderr
    assert " Sandybridge " in done.stdout, done.stdout


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("score_inputs")
    ds = data.corrupt(data.synth("blobs", 60, 3, 2, 0.5, seed=5), "symmetric", 0.3, seed=6)
    tinynet.save_checkpoint(tinynet.init_model([2, 6, 3, 3], seed=7), root / "h.ckpt", epoch=1)
    f = tinynet.init_model([2, 16, 8, 3], seed=8, lift_freq=2.0)
    tinynet.save_checkpoint(f, root / "f1.ckpt", epoch=1)
    f2 = f.copy()
    f2.weights[1] += 0.25
    tinynet.save_checkpoint(f2, root / "f2.ckpt", epoch=2)
    diverged = f.copy()  # every hidden unit reads 10, so every logit overflows
    diverged.weights[1][:], diverged.biases[1][:], diverged.weights[-1][:] = 0.0, 10.0, 1e308
    tinynet.save_checkpoint(diverged, root / "diverged.ckpt", epoch=3)
    data.write_csv(ds, root / "d.csv")
    return root


def _score_argv(root, out, *models, extra=()):
    argv = ["score", "--data", str(root / "d.csv"), "--features-from", str(root / "h.ckpt"),
            "--l", "5", "--trapezoids", "5", "--kinds", "inn,midpoint,loss_ce", "--out", str(out)]
    for model in models:
        argv += ["--model", str(root / model)]
    return argv + list(extra)


def _cores(monkeypatch, count):
    """Make the usable cores, the pool's default size, `count`."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestScoreOnThePool:
    """`score` searches and scores on the pool at its default size, the usable cores."""

    def test_output_files_do_not_depend_on_cores(self, score_inputs, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "out"  # manifest.json records the output directory
        files, stdout = [], []
        for cores in (1, 2, 4):
            _cores(monkeypatch, cores)
            assert main(_score_argv(score_inputs, out, "f1.ckpt", "f2.ckpt")) == 0
            stdout.append(capsys.readouterr().out)
            files.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
            os.rename(out, tmp_path / f"cores{cores}")
        assert stdout[0] == stdout[1] == stdout[2]
        assert sorted(files[0]) == ["manifest.json", "scores.csv", "scores_summary.json"]
        assert files[0] == files[1] == files[2]

    def test_diverged_checkpoint_in_a_worker(self, score_inputs, tmp_path, capsys, monkeypatch):
        """A checkpoint diverging on the scoring pool is one numeric-failure line,
        and every forward, the search's embedding included, sees one OpenBLAS
        thread, as does the process after."""
        _cores(monkeypatch, 2)
        seen = []
        forward = tinynet.Model.forward

        def spy(self, *args, **kwargs):
            seen.append(blas_count())
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(tinynet.Model, "forward", spy)
        argv = _score_argv(score_inputs, tmp_path / "out", "f1.ckpt", "diverged.ckpt")
        before = blas_count()
        try:
            if BLAS:
                BLAS[1](2)  # so that a forward before the pin shows
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a RuntimeWarning would escape main
                assert main(argv) == 3
            after = blas_count()
        finally:
            if BLAS:
                BLAS[1](before)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure: "), err
        # the search's embedding runs on the calling thread, every scoring forward on the pool
        assert len(seen) > 1 and set(seen) == {1 if BLAS else None}
        assert after == (1 if BLAS else None)
        assert list((tmp_path / "out").iterdir()) == []  # made before the work, left empty


@pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread setter in this numpy")
def test_every_stage_of_a_two_worker_command_sees_one_blas_thread(score_inputs, tmp_path,
                                                                   monkeypatch):
    """With 2 workers, the neighbour search, the scoring pass and each pool job
    of `score` and of `pipeline` see one OpenBLAS thread."""
    _cores(monkeypatch, 2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")  # restored after the --threads run sets them
    seen = {}

    def spy(module, name):
        inner = getattr(module, name)

        def watched(*args, **kwargs):
            seen.setdefault(name, []).append(blas_count())
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, watched)

    spy(neighbors, "search")
    spy(scorer, "segment_scores")
    run = workers.run

    def watched_run(jobs, threads=None):
        def job(call):
            seen.setdefault("pool job", []).append(blas_count())
            return call()

        return run([functools.partial(job, call) for call in jobs], threads)

    monkeypatch.setattr(workers, "run", watched_run)
    pipeline = ["pipeline", "--quiet", "--n", "60", "--epochs", "2", "--h-epochs", "1",
                "--hidden", "8,4", "--h-hidden", "4,2", "--l", "3", "--trapezoids", "2",
                "--threads", "2", "--out", str(tmp_path / "run")]
    before = blas_count()
    try:
        for argv in (_score_argv(score_inputs, tmp_path / "out", "f1.ckpt", "f2.ckpt"), pipeline):
            seen.clear()
            BLAS[1](2)  # so that a stage before the pin shows
            assert main(argv) == 0
            assert sorted(seen) == ["pool job", "search", "segment_scores"], argv[0]
            assert {name: set(counts) for name, counts in seen.items()} == dict.fromkeys(
                seen, {1}), argv[0]
    finally:
        BLAS[1](before)
