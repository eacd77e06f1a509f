"""The madlab functions the traced run wraps, and the per-layer metrics.

Each traced function is named ``<module>.<qualname>`` after its home module
in ``src/madlab``. The per-layer metrics below are derived from one traced
invocation's spans; ``PER_LAYER`` lists them in the order they are printed.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SpanTable, Tracer


def _records_read(args, kwargs, result) -> float:
    return len(result)


def _bytes_written(path_index: int):
    def amount(args, kwargs, result) -> float:
        path = args[path_index] if len(args) > path_index else None
        return os.path.getsize(path) if isinstance(path, str) else 0.0

    return amount


def _batch_trajectories(args, kwargs, result) -> float:
    return len(args[2].trajectories)


# (name, percentiles reported, amount recorded per call). Percentiles need
# ten calls beyond them: p50 is kept for functions called a few hundred
# times per run, p99 for those called thousands of times.
TRACED = (
    ("policy.DebateEnv.rollout_debate", ("p50", "p99"), None),
    ("policy.rng_stream", ("p50", "p99"), None),
    ("policy.DebateEnv.agent_steps", ("p50", "p99"), None),
    ("optim.train", (), None),
    ("optim.collect_batch", ("p50",), None),
    ("optim.gradient_step", ("p50",), _batch_trajectories),
    ("replay.ReplayBuffer.push", ("p50", "p99"), None),
    ("replay.ReplayBuffer.sample", ("p50",), None),
    ("replay.ReplayBuffer.refresh", (), None),
    ("replay.replay_score", ("p50", "p99"), None),
    ("metrics.full_profile", ("p50", "p99"), None),
    ("rewards.total_reward", ("p50", "p99"), None),
    ("calibration.warmup_profile", (), None),
    ("debate.read_trajectories", (), _records_read),
    ("debate.write_trajectories", (), _bytes_written(0)),
    ("stats.separation_report", (), None),
    ("stats.correlation_matrix", (), None),
    ("stats.selective_prediction_curve", (), None),
    ("stats.stratify_by_uncertainty", (), None),
    ("harness.evaluate_ensemble", (), None),
    ("config.load_config", (), None),
)

# Every function that writes an artifact file; reported together. ReplayBuffer.dump
# calls write_trajectories, so bytes are summed over writer spans whose parent
# is not itself a writer.
WRITERS = (
    ("harness.write_summary_csv", _bytes_written(0)),
    ("harness.write_rewards_csv", _bytes_written(0)),
    ("harness.write_coefficients_csv", _bytes_written(0)),
    ("metrics.write_profiles_csv", _bytes_written(0)),
    ("optim.write_training_csv", _bytes_written(0)),
    ("policy.save_policy", _bytes_written(0)),
    ("replay.ReplayBuffer.dump", _bytes_written(1)),
    ("stats.write_separation_csv", _bytes_written(0)),
    ("stats.write_correlation_csv", _bytes_written(0)),
    ("stats.write_selective_csv", _bytes_written(0)),
    ("stats.write_strata_csv", _bytes_written(0)),
    ("debate.write_trajectories", _bytes_written(0)),
)

ROOT_SPAN = "cli.main"
PERCENTILE_MIN_CALLS = {"p50": 20, "p99": 1000}


def _split(name: str) -> tuple[str, str]:
    module, qualname = name.split(".", 1)
    return f"madlab.{module}", qualname


def install_tracer() -> Tracer:
    """Wrap every traced function and writer; returns the recording tracer."""
    tracer = Tracer()
    seen = set()
    for name, _, amount in TRACED:
        tracer.install(name, *_split(name), amount=amount)
        seen.add(name)
    for name, amount in WRITERS:
        if name not in seen:
            tracer.install(name, *_split(name), amount=amount)
    return tracer


def _metric_units() -> list[tuple[str, str]]:
    units = []
    for name, percentiles, _ in TRACED:
        units += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        units += [(f"{name}.{p}_us", "us") for p in percentiles]
    units += [
        ("debate.read_trajectories.records", "count"),
        ("debate.write_trajectories.bytes", "bytes"),
        ("harness.writers.calls", "count"),
        ("harness.writers.self_s", "s"),
        ("harness.writers.bytes", "bytes"),
        ("ratio.rng_streams_per_rollout", "ratio"),
        ("ratio.metric_passes_per_trajectory", "ratio"),
        ("ratio.agent_steps_per_batch_trajectory", "ratio"),
        ("cli.main.self_s", "s"),
        ("untraced.wall_s", "s"),
        ("untraced.cpu_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return units


PER_LAYER = _metric_units()


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(spans: SpanTable, traced_cpu_s: float, untraced_cpu_s: float,
                      untraced_wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced invocation's spans.

    The tracing overhead is the traced invocation's CPU time minus the median
    of the untraced ones; untraced.wall_s and untraced.cpu_s are the medians
    of the untraced invocations.
    """
    out: dict[str, float] = {}
    for name, percentiles, _ in TRACED:
        sel = spans.mask(name)
        calls = int(sel.sum())
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = float(spans.self_time[sel].sum())
        for p in percentiles:
            enough = calls >= PERCENTILE_MIN_CALLS[p]
            q = float(p[1:])
            out[f"{name}.{p}_us"] = (
                float(np.percentile(spans.duration[sel], q)) * 1e6 if enough else 0.0
            )
    out["debate.read_trajectories.records"] = float(
        spans.amount[spans.mask("debate.read_trajectories")].sum()
    )
    out["debate.write_trajectories.bytes"] = float(
        spans.amount[spans.mask("debate.write_trajectories")].sum()
    )
    writer_names = [name for name, _ in WRITERS]
    writers = spans.mask(*writer_names)
    outermost = writers & ~spans.parent_mask(*writer_names)
    out["harness.writers.calls"] = int(writers.sum())
    out["harness.writers.self_s"] = float(spans.self_time[writers].sum())
    out["harness.writers.bytes"] = float(spans.amount[outermost].sum())

    rollouts = int(spans.mask("policy.DebateEnv.rollout_debate").sum())
    rollout_streams = spans.mask("policy.rng_stream") & spans.parent_mask(
        "policy.DebateEnv.rollout_debate"
    )
    out["ratio.rng_streams_per_rollout"] = _ratio(rollout_streams.sum(), rollouts)
    passes = spans.mask("metrics.full_profile", "rewards.total_reward", "replay.replay_score")
    trajectories = rollouts + out["debate.read_trajectories.records"]
    out["ratio.metric_passes_per_trajectory"] = _ratio(passes.sum(), trajectories)
    batch_trajectories = spans.amount[spans.mask("optim.gradient_step")].sum()
    out["ratio.agent_steps_per_batch_trajectory"] = _ratio(
        spans.mask("policy.DebateEnv.agent_steps").sum(), batch_trajectories
    )

    root = spans.mask(ROOT_SPAN)
    out["cli.main.self_s"] = float(spans.self_time[root].sum())
    out["untraced.wall_s"] = untraced_wall_s
    out["untraced.cpu_s"] = untraced_cpu_s
    out["trace.wall_s"] = float(spans.duration[root].sum())
    out["trace.overhead_s"] = traced_cpu_s - untraced_cpu_s
    out["trace.spans"] = len(spans.duration)
    return out
