"""Tests of the benchmark itself: span arithmetic, input generator, smoke runs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracer.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]

    spans = tracer.SpanTable(
        names=["root", "a", "c", "b"], name_id=[0, 1, 2, 3], start=start, end=end,
        parent=parent, amount=[0.0, 0.0, 7.0, 0.0],
    )
    assert spans.mask("a", "b").tolist() == [False, True, False, True]
    assert spans.parent_mask("root").tolist() == [False, True, False, True]
    assert spans.mask("missing").tolist() == [False] * 4


def test_tracer_records_nested_spans_with_parents():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1, amount=lambda args, kwargs, result: result)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [t.names[i] for i in t.name_id] == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    assert list(t.amount) == [0.0, 2.0, 3.0]
    assert all(e >= s for s, e in zip(t.start, t.end))


def test_tracer_patches_every_binding_and_restores_them():
    import madlab
    import madlab.cli  # noqa: F401  (loads every madlab module)
    import madlab.harness
    import madlab.metrics
    import madlab.optim

    original = madlab.metrics.full_profile
    t = tracer.Tracer()
    patched = t.install("metrics.full_profile", "madlab.metrics", "full_profile")
    try:
        assert patched >= 4  # metrics, harness, optim and the package itself
        for module in (madlab, madlab.metrics, madlab.harness, madlab.optim):
            assert module.full_profile is not original
            assert module.full_profile.__wrapped__ is original
        assert t.install("policy.DebateEnv.rollout_debate", "madlab.policy",
                         "DebateEnv.rollout_debate") == 1
    finally:
        t.uninstall()
    assert madlab.harness.full_profile is original
    assert madlab.policy.DebateEnv.rollout_debate.__name__ == "rollout_debate"
    assert not hasattr(madlab.policy.DebateEnv.rollout_debate, "__wrapped__")


def test_generator_is_a_function_of_the_seed(tmp_path):
    paths = [str(tmp_path / f"in{k}.jsonl") for k in range(3)]
    infos = [workloads.write_analyze_input(p, seed, 200)
             for p, seed in zip(paths, (4, 4, 5))]
    data = [open(p, "rb").read() for p in paths]
    assert data[0] == data[1]
    assert data[0] != data[2]
    assert infos[0] == infos[1]
    assert infos[0]["input_sha256"] != infos[2]["input_sha256"]


def test_generator_recount_matches_a_plain_majority_vote(tmp_path):
    path = str(tmp_path / "in.jsonl")
    info = workloads.write_analyze_input(path, 9, 400)
    right = total = 0
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            record = json.loads(line)
            assert len(record["rounds"]) == workloads.ANALYZE_ROUNDS + 1
            if record["ground_truth"] is None:
                continue
            final = record["rounds"][-1]
            top = max(final.count(label) for label in record["answer_space"])
            winner = min(label for label in record["answer_space"] if final.count(label) == top)
            right += winner == record["ground_truth"]
            total += 1
    assert info["questions"] == total < 400
    assert info["accuracy"] == right / total


def test_output_checks_flag_bad_summaries(tmp_path):
    prep = workloads.Prepared(argv=[], items=1, rows=[("analysis", 10)],
                              artifacts=["strata.csv"], accuracy="0.500000")
    (tmp_path / "strata.csv").write_text("x\n")
    header = workloads.SUMMARY_HEADER + "\n"
    good = header + "analysis,10,0.500000,0.1,0.2,0.3\n"
    assert workloads.check_outputs(prep, str(tmp_path), good) == []
    bad = [
        header + "analysis,9,0.500000,0.1,0.2,0.3\n",  # wrong question count
        header + "analysis,10,0.600000,0.1,0.2,0.3\n",  # disagrees with the recount
        header + "analysis,10,0.500000,0.1,0.2,1.3\n",  # U outside [0, 1]
        header + "analysis,10,0.500000,0.1,0.2,nope\n",  # not a number
        "madlab: error: boom\n",
    ]
    for stdout in bad:
        assert workloads.check_outputs(prep, str(tmp_path), stdout), stdout
    (tmp_path / "strata.csv").unlink()
    assert workloads.check_outputs(prep, str(tmp_path), good) == [
        "missing or empty artifact strata.csv"
    ]


def test_benchmark_spec_matches_the_metrics_the_code_emits():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    import run

    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == dict(layers.PER_LAYER)


def _smoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace and workload == "analyze-large":
        assert metrics["policy.DebateEnv.rollout_debate.calls"] == 0
        assert metrics["debate.read_trajectories.records"] == workloads.SMOKE_ANALYZE_RECORDS
    if trace and workload == "eval-wide":
        assert metrics["optim.gradient_step.calls"] == 0
        assert metrics["replay.ReplayBuffer.refresh.calls"] == 0
    if trace and workload == "train-default":
        assert metrics["ratio.agent_steps_per_batch_trajectory"] == 5
    if not trace:
        assert metrics["ok_frac"] == 1.0
        assert all(value > 0 for value in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _smoke("eval-wide", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
