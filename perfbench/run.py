"""madlab benchmark: run one workload as a closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-default --seed 7 --seconds 30 --trace 0

Each invocation starts one fresh worker process (numpy single-threaded),
runs one ``madlab.cli.main([...])`` command in it and waits for it to finish
before the next starts; nothing runs concurrently. Before the loop, a few
probe workers only import ``madlab.cli``, so ``setup_s`` is a median of
several start-ups even when the loop fits one invocation.

--trace 0 prints the end-to-end metrics: the medians over the loop's
invocations. --trace 1 runs the loop for half the time, then one traced
invocation, and prints the per-layer metrics (see layers.py) with the tracing
overhead. Every invocation is checked (exit code, artifacts, summary rows,
byte-identical artifacts across same-seed invocations); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A record with every artifact's sha256 goes to perfbench/out/.

The end-to-end time is ``cpu_s``, the CPU time of the ``cli.main`` call,
not its wall time. On the shared 2-core host this was tuned on, spells of
contention left the worker waiting for a CPU, adding up to a third to wall
time alone; CPU time does not count that wait. The host's own speed also
drifted over seconds to minutes (one eval-wide command took anywhere from
3.1 s to 6.8 s of CPU within one run), which moves CPU time as much as wall
time. Over four sets of ten seeds, the quartile spread of the per-run median
was 0.16-0.48 of the median for wall time and 0.08-0.48 for CPU time. Wall
time is still recorded per invocation and reported by the traced run as
untraced.wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "items_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "frac",
    "mean_u_sys": "frac",
    "ok_frac": "frac",
}
SETUP_PROBES = 8
SMOKE_SETUP_PROBES = 2
RUN_DEADLINE_S = 165.0  # every run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Invocation:
    """One worker process: its timings, outputs and check results."""

    def __init__(self, report: dict, spawned_at: float, elapsed: float,
                 stdout: str, problems: list[str], digests: dict[str, str]) -> None:
        self.report = report
        self.setup_s = report.get("imported_at", spawned_at) - spawned_at
        self.elapsed = elapsed
        self.stdout = stdout
        self.problems = problems
        self.digests = digests

    @property
    def wall_s(self) -> float:
        return float(self.report.get("wall_s", self.elapsed))

    @property
    def cpu_s(self) -> float:
        return float(self.report.get("cpu_s", self.elapsed))


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def invoke(inv_dir: str, argv: list[str], deadline: float, probe: bool = False,
           trace_path: str | None = None, prep=None) -> Invocation:
    """Run one worker to completion in inv_dir and check what it produced."""
    os.makedirs(inv_dir)
    result_path = os.path.join(inv_dir, "result.json")
    out_dir = os.path.join(inv_dir, "out")
    cmd = [sys.executable, WORKER, result_path]
    if probe:
        cmd.append("--probe")
    if trace_path:
        cmd += ["--trace", trace_path]
    cmd += ["--", *argv, "--out", out_dir]
    problems: list[str] = []
    with open(os.path.join(inv_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(inv_dir, "stderr.txt"), "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=inv_dir, env=_worker_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - spawned_at))
        except subprocess.TimeoutExpired:
            problems.append("worker killed at the run deadline")
        finally:  # also on SIGTERM or Ctrl-C: never leave a worker behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.monotonic() - spawned_at
    report: dict = {}
    if proc.returncode != 0:
        problems.append(f"worker exited with {proc.returncode}")
    try:
        with open(result_path, encoding="utf-8") as fp:
            report = json.load(fp)
    except (OSError, ValueError):
        problems.append("worker wrote no result")
    with open(os.path.join(inv_dir, "stdout.txt"), encoding="utf-8", errors="replace") as fp:
        stdout = fp.read()
    digests: dict[str, str] = {}
    if not probe and report:
        if report.get("rc") != 0:
            problems.append(f"madlab exited with {report.get('rc')}")
        if os.path.isdir(out_dir):
            digests = workloads.artifact_digests(out_dir)
        problems += workloads.check_outputs(prep, out_dir, stdout)
    if problems:
        with open(os.path.join(inv_dir, "stderr.txt"), encoding="utf-8", errors="replace") as fp:
            tail = fp.read()[-2000:]
        print(f"perfbench: {inv_dir}: {'; '.join(problems)}\n{tail}", file=sys.stderr)
    else:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Invocation(report, spawned_at, elapsed, stdout, problems, digests)


def closed_loop(workdir: str, prep, seconds: float, deadline: float) -> list[Invocation]:
    """Invocations back to back until the next one would end after seconds."""
    runs: list[Invocation] = []
    t0 = time.monotonic()
    while True:
        inv_dir = os.path.join(workdir, f"inv{len(runs)}")
        runs.append(invoke(inv_dir, prep.argv, deadline, prep=prep))
        now = time.monotonic()
        typical = statistics.median(r.elapsed for r in runs)
        if now - t0 + typical > seconds or now + 2 * typical > deadline:
            return runs


def mark_mismatches(runs: list[Invocation]) -> None:
    """Same-seed invocations must write byte-identical artifacts and stdout."""
    good = [r for r in runs if not r.problems]
    if not good:
        return
    first = good[0]
    for r in good[1:]:
        if r.digests != first.digests or r.stdout != first.stdout:
            differ = sorted(k for k in set(r.digests) | set(first.digests)
                            if r.digests.get(k) != first.digests.get(k))
            r.problems.append(f"artifacts differ from the first same-seed run: {differ}")


def last_row(runs: list[Invocation]) -> dict[str, float]:
    for r in runs:
        if not r.problems:
            row = workloads.parse_summary(r.stdout)[-1]
            return {"accuracy": float(row[2]), "mean_u_sys": float(row[5])}
    return {"accuracy": 0.0, "mean_u_sys": 0.0}


def end_to_end(runs: list[Invocation], setups: list[float], items: int) -> dict[str, float]:
    cpu = statistics.median(r.cpu_s for r in runs)
    rss = statistics.median(r.report.get("maxrss_kb", 0) / 1024.0 for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": cpu,
        "items_per_cpu_s": items / cpu,
        "peak_rss_mb": rss,
        **last_row(runs),
        "ok_frac": sum(1 for r in runs if not r.problems) / len(runs),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the detailed record."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    prep = workloads.WORKLOADS[workload](workdir, seed, smoke)

    record: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "argv": prep.argv, "items": prep.items, "input": prep.info}
    if trace:
        untraced = closed_loop(workdir, prep, seconds / 2.0, deadline)
        spans_path = os.path.join(workdir, "spans.npz")
        traced = invoke(os.path.join(workdir, "traced"), prep.argv, deadline,
                        trace_path=spans_path, prep=prep)
        runs = untraced + [traced]
        mark_mismatches(runs)
        if os.path.isfile(spans_path):
            metrics = layers.per_layer_metrics(
                tracer.SpanTable.load(spans_path),
                traced_cpu_s=traced.cpu_s,
                untraced_cpu_s=statistics.median(r.cpu_s for r in untraced),
                untraced_wall_s=statistics.median(r.wall_s for r in untraced),
            )
        else:
            metrics = {name: 0.0 for name, _ in layers.PER_LAYER}
        units = dict(layers.PER_LAYER)
        setup_problems = []
    else:
        probes = [
            invoke(os.path.join(workdir, f"probe{k}"), [], deadline, probe=True)
            for k in range(SMOKE_SETUP_PROBES if smoke else SETUP_PROBES)
        ]
        setup_problems = [p for probe in probes for p in probe.problems]
        runs = closed_loop(workdir, prep, seconds, deadline)
        mark_mismatches(runs)
        metrics = end_to_end(runs, [p.setup_s for p in probes + runs], prep.items)
        units = END_TO_END_UNITS
    failed = sum(1 for r in runs if r.problems)
    correct = failed == 0 and not setup_problems
    record.update(
        correct=correct,
        setup_problems=setup_problems,
        invocations=[
            {"setup_s": r.setup_s, "report": r.report, "problems": r.problems,
             "artifacts_sha256": r.digests}
            for r in runs
        ],
        metrics=metrics,
        elapsed_s=time.monotonic() - started,
    )
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }, record


def print_report(result: dict, record: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{len(record['invocations'])} invocation(s) of madlab {' '.join(record['argv'])}")
    for key, value in sorted(record["input"].items()):
        print(f"  input {key} = {value}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    digests = record["invocations"][0]["artifacts_sha256"]
    for name, digest in digests.items():
        print(f"  sha256 {name} {digest}")
    for inv in record["invocations"]:
        for problem in inv["problems"]:
            print(f"  FAILED {problem}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "madlab", "cli.py")):
        print(f"perfbench: no madlab sources under {SRC}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
