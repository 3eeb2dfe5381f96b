"""One benchmark operation: an innscore command in a fresh interpreter.

    python3 child.py RESULT_JSON MODE -- INNSCORE_ARGS...

MODE is `setup` (load the command's modules and exit), `run` (also run
the command) or `trace` (run it with every layer wrapped in spans).
RESULT_JSON receives the CLOCK_MONOTONIC reading at which the command
was ready to run, the handler's wall time and exit code, the peak
resident set of this process and, when traced, the spans.
"""

import json
import resource
import sys
import time


def main():
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    # Every command the benchmark runs loads these, numpy and scipy among them.
    import innscore.cli as cli
    import innscore.pipeline  # noqa: F401

    tracer = None
    if mode == "trace":
        from innscore import data, evaluate, mixture, neighbors, scorer, tinynet
        from spans import Tracer

        tracer = Tracer()
        tracer.instrument([data, tinynet, neighbors, scorer, mixture, evaluate])
    ready = time.monotonic()
    rc, run_s = 0, 0.0
    if mode != "setup":
        t0 = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - t0
    result = {
        "ready": ready,
        "run_s": run_s,
        "rc": rc,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
