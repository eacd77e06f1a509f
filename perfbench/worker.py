"""One benchmark worker: import madlab's CLI, run one command, report.

Usage: python3 worker.py RESULT_JSON [--probe] [--trace SPANS_NPZ] -- ARGS...

The worker stamps the monotonic clock once ``madlab.cli`` is imported (the
parent stamped it just before starting the process, so the difference is the
set-up time), runs ``madlab.cli.main(ARGS)`` exactly as a user's command line
would, and writes to RESULT_JSON the exit code, the wall and CPU time of
that call and the peak RSS. With --probe it stops after the import. With
--trace it wraps the traced madlab functions first and writes their spans to
SPANS_NPZ after main returns.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

def _cpu_seconds() -> float:
    """User plus system CPU time of this process and of children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_NPZ")
    split = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    opts = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1:]

    import madlab.cli

    imported_at = time.monotonic()
    report: dict[str, object] = {"imported_at": imported_at}
    if not opts.probe:
        tracer = None
        if opts.trace:
            from layers import install_tracer

            tracer = install_tracer()
            main_fn = tracer.wrap("cli.main", madlab.cli.main)
        else:
            main_fn = madlab.cli.main
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = main_fn(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        report.update(
            rc=rc,
            wall_s=wall,
            cpu_s=_cpu_seconds() - cpu0,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(opts.trace)
    with open(opts.result, "w", encoding="utf-8") as fp:
        json.dump(report, fp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
