"""Layer spans for the traced benchmark run.

`Tracer.instrument` wraps every public function and every public method
of the classes defined in the measured modules, so a renamed entry point
stays measured. Each call records a span: its name, start and end, the
index of the span that caused it, and counts taken from its arguments
and result. Spans stay in memory until the operation ends.

`layer_metrics` turns the spans of one traced operation into the
per-layer metrics. A span's self time is its duration minus the
durations of the spans it caused; the layer self times plus `other_s`
add up to the traced `run_s`.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

LAYERS = ("data", "tinynet", "neighbors", "scorer", "mixture", "evaluate")

# Name fragments that mark a span as file input or output.
_IO_WORDS = ("read", "write", "to_json", "to_csv", "checkpoint", "cache")


def _counts(args, kwargs, result):
    """Work counts read off a call's arguments and result."""
    values = [*args, *kwargs.values()]
    counts = {}
    for v in values:
        shape = getattr(v, "shape", None)
        if shape and hasattr(v, "dtype"):
            counts["rows"] = int(shape[0])
            break
    config = next((v for v in values if hasattr(v, "epochs") and hasattr(v, "batch_size")), None)
    dataset = next((v for v in values if hasattr(v, "features") and isinstance(getattr(v, "n", None), int)), None)
    if config is not None and dataset is not None:
        counts["batches"] = int(config.epochs) * math.ceil(dataset.n / config.batch_size)
    if isinstance(result, list):
        counts["out"] = len(result)
    iters = getattr(result, "n_iters", None)
    if isinstance(iters, int):
        counts["iters"] = iters
    return counts


class Tracer:
    """Records nested call spans of one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, counts]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), None, {}]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            record[4] = _counts(args, kwargs, result)
            return result

        return traced

    def instrument(self, modules):
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(module, name, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(f"{short}.{name}.{attr}", member))


def layer_metrics(spans, run_s):
    """Per-layer metrics of one traced operation whose handler took run_s."""
    n = len(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    func = [s[0].rsplit(".", 1)[-1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    counts = [s[4] for s in spans]
    caused = [0.0] * n
    above = [frozenset()] * n  # layers of all enclosing spans
    in_train = [False] * n
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:  # a parent is recorded before the spans it causes
            caused[parent] += dur[i]
            above[i] = above[parent] | {layer[parent]}
            in_train[i] = in_train[parent] or spans[parent][0] == "tinynet.train"

    def outer(i, name):
        return layer[i] == name and name not in above[i]

    def is_io(i):
        return any(w in func[i] for w in _IO_WORDS)

    def total(pick, value=None):
        return sum(dur[i] if value is None else counts[i].get(value, 0) for i in range(n) if pick(i))

    def self_time(name):
        return sum(dur[i] - caused[i] for i in range(n) if layer[i] == name)

    def train(i):
        return outer(i, "tinynet") and func[i] == "train"

    def forward(i):  # inference, not the forward passes inside training
        return spans[i][0] == "tinynet.Model.forward" and not in_train[i]

    def search(i):
        return outer(i, "neighbors") and not is_io(i)

    def fit(i):
        return outer(i, "mixture") and "fit" in func[i]

    train_s, train_batches = total(train), total(train, "batches")
    metrics = {
        "scorer.score_s": total(
            lambda i: outer(i, "scorer") and not is_io(i) and "consistency" not in func[i]),
        "scorer.probe_rows": total(
            lambda i: spans[i][0] == "tinynet.Model.forward" and "scorer" in above[i], "rows"),
        "scorer.consistency_s": total(lambda i: outer(i, "scorer") and "consistency" in func[i]),
        "scorer.write_s": total(lambda i: outer(i, "scorer") and "write" in func[i]),
        "tinynet.train_s": train_s,
        "tinynet.train_batches": train_batches,
        "tinynet.step_ms": 1000.0 * train_s / train_batches if train_batches else 0.0,
        "tinynet.forward_s": total(forward),
        "tinynet.forward_rows": total(forward, "rows"),
        "tinynet.ckpt_io_s": total(lambda i: outer(i, "tinynet") and "checkpoint" in func[i]),
        "neighbors.search_s": total(search),
        "neighbors.query_rows": total(search, "out"),
        "neighbors.cache_io_s": total(lambda i: outer(i, "neighbors") and "cache" in func[i]),
        "data.read_s": total(lambda i: outer(i, "data") and "read" in func[i]),
        "data.write_s": total(lambda i: outer(i, "data") and "write" in func[i]),
        "mixture.fit_s": total(fit),
        "mixture.em_iters": total(fit, "iters"),
        "evaluate.report_s": total(lambda i: outer(i, "evaluate")),
    }
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_time(name)
    metrics["other_s"] = run_s - sum(dur[i] for i in range(n) if spans[i][1] < 0)
    metrics["trace.run_s"] = run_s
    return metrics
