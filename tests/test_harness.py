"""Pipeline-level tests: artifact formats, determinism, degenerate inputs,
and the exact identities that tie the pipelines together (a zero-iteration
training run equals the baseline; an attack with zero compromised seats
equals the clean evaluation)."""

import csv
import dataclasses
import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import brute_oracle as oracle
import stats_oracle
from madlab import harness
from madlab.config import ExperimentConfig
from madlab.debate import DebateTrajectory
from madlab.harness import (
    COEFFICIENTS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    SWEEP_AXES,
    evaluate_ensemble,
    rewards_csv_header,
    run_analysis,
    run_attack,
    run_baseline,
    run_sweep,
    run_udpo,
    with_seed,
)
from madlab.metrics import MetricConfig, full_profile
from madlab.optim import ClipConfig
from madlab.policy import DebateEnv, EnvConfig
from madlab.replay import ReplayConfig
from madlab.stats import SeparationReport
from reader_oracle import write_records

BASELINE_ARTIFACTS = ("summary.csv", "trajectories.jsonl", "profiles.csv", "rewards.csv")


def tiny_config(**env_overrides) -> ExperimentConfig:
    env = dict(
        num_agents=3,
        rounds=2,
        seed=5,
        skills=(0.9, 0.7, 0.5),
        difficulty="uniform:0.0,0.6",
    )
    env.update(env_overrides)
    return ExperimentConfig(
        env=EnvConfig(**env),
        clip=ClipConfig(iterations=3, batch_size=4),
        replay=ReplayConfig(capacity=32, refresh_period=2),
        train_questions=30,
        eval_questions=12,
    )


def analysed_columns(paths, config, out_dir, monkeypatch):
    """What run_analysis hands its reports, captured at the separation report
    and the selective curve: (metric columns, correct, question ids), and the
    run's result."""
    handed = []
    monkeypatch.setattr(harness, "separation_report", lambda values, correct: handed.extend(
        [values, correct]) or SeparationReport(rows=()))
    monkeypatch.setattr(harness, "selective_prediction_curve", lambda values, correct, ids, k_grid:
                        handed.append((values, correct, ids)) or [])
    result = run_analysis([str(p) for p in paths], config, str(out_dir))
    values, correct, (u_sys, selective_correct, ids) = handed
    assert u_sys is values["U_sys"] and selective_correct is correct
    return (values, correct, ids), result


def assert_same_columns(got, expected):
    """Equal (metric columns, correct, question ids) triples, bit for bit and in order."""
    (values, correct, ids), (want_values, want_correct, want_ids) = got, expected
    assert ids == want_ids
    assert correct.dtype == bool and np.array_equal(correct, want_correct)
    assert list(values) == list(want_values)
    for name, column in values.items():
        assert np.array_equal(column, want_values[name])


# ------------------------------------------------------------ format goldens


def test_summary_header_golden():
    assert SUMMARY_CSV_HEADER == "label,questions,accuracy,mean_U_intra,mean_U_inter,mean_U_sys"


def test_coefficients_header_golden():
    assert COEFFICIENTS_CSV_HEADER == "agent,alpha,beta,gamma,lambda,eta"


def test_rewards_header_scales_with_agents():
    assert rewards_csv_header(2) == "question_id,r_intra,r_inter,r_sys,r_task,r_total_0,r_total_1"


# ------------------------------------------------------------------ baseline


def test_baseline_writes_all_artifacts(tmp_path):
    result = run_baseline(tiny_config(), str(tmp_path))
    assert [r.label for r in result.rows] == ["baseline"]
    assert result.rows[0].questions == 12
    for name in BASELINE_ARTIFACTS:
        assert (tmp_path / name).is_file()


def test_reward_components_complement_the_profiles_file(tmp_path):
    run_baseline(tiny_config(num_agents=5, rounds=5, compromised_count=1), str(tmp_path))

    def rows(name):
        with open(tmp_path / name, encoding="utf-8") as fp:
            return {row["question_id"]: row for row in csv.DictReader(fp)}

    profiles, rewards = rows("profiles.csv"), rows("rewards.csv")
    assert list(rewards) == list(profiles)
    pairs = (("r_intra", "F"), ("r_inter", "U_inter"), ("r_sys", "U_sys"))
    for qid, reward in rewards.items():
        for reward_col, metric_col in pairs:
            assert reward[reward_col] == f"{1.0 - float(profiles[qid][metric_col]):.6f}", qid


def test_baseline_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_baseline(tiny_config(), str(a))
    run_baseline(tiny_config(), str(b))
    for name in BASELINE_ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_a_long_lived_env_keeps_nothing_of_the_questions_it_evaluated():
    # Memory stays bounded as the number of questions grows: on eval-wide's
    # shape, two evaluations of 1,000 fresh questions each, results dropped,
    # leave less than 256 KB allocated. An env that kept every question's
    # tilts would hold about 3.7 MB here.
    env = DebateEnv(EnvConfig(num_agents=7, rounds=8, difficulty_bins=2, compromised_count=1,
                              skills=(0.95, 0.88, 0.81, 0.74, 0.67, 0.6, 0.53)))
    policies = env.initial_policies()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for label in ("first", "second"):
            questions = env.generate_questions(1000, label)
            evaluate_ensemble(env, questions, env.batch_tilts(questions), policies,
                              MetricConfig(), label)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 256 * 1024, f"{kept} bytes kept"


@pytest.mark.parametrize("run, arms", [(run_baseline, 1), (run_udpo, 2)],
                         ids=["baseline", "udpo"])
def test_the_tilts_are_freed_before_the_last_arm_profiles(tmp_path, monkeypatch, run, arms):
    # the last arm's evaluate_ensemble call holds the eval tilts' last
    # reference and drops it after the rollouts, so eval-wide's peak holds
    # the tilts or the profiles, not both; the train tilts die with
    # train_pipeline, before any arm profiles
    draws = {"eval": [], "train": []}
    dead = []  # (eval draw dead, train draw dead) at each evaluation's profiles
    real_tilts, real_profiles = DebateEnv.batch_tilts, harness.profiles_from_codes

    def recording_tilts(env, questions):
        tilts = real_tilts(env, questions)
        kind = questions.ids[0].split("-")[0]
        if kind in draws:
            draws[kind].append(weakref.ref(tilts))
        return tilts

    def recording_profiles(*args, **kwargs):
        dead.append(tuple(all(ref() is None for ref in draws[kind]) for kind in draws))
        return real_profiles(*args, **kwargs)

    monkeypatch.setattr(DebateEnv, "batch_tilts", recording_tilts)
    monkeypatch.setattr(harness, "profiles_from_codes", recording_profiles)
    run(tiny_config(), str(tmp_path))
    assert len(draws["eval"]) == 1 and len(draws["train"]) == arms - 1
    assert len(dead) == arms and dead[-1][0]
    assert [train_dead for _, train_dead in dead] == [True] * arms


def test_with_seed_replaces_only_the_seed():
    config = tiny_config()
    assert with_seed(config, None) is config
    moved = with_seed(config, 77)
    assert moved.env.seed == 77
    assert dataclasses.replace(moved.env, seed=5) == config.env


def test_saturated_ensemble_is_confident_and_correct(tmp_path):
    config = ExperimentConfig(
        env=EnvConfig(skills=(1.0,) * 5, difficulty="fixed:0.0", seed=0),
        eval_questions=200,
    )
    row = run_baseline(config, str(tmp_path)).rows[0]
    assert row.accuracy >= 0.95
    assert row.mean_u_sys <= 0.05


# ------------------------------------------------------------------ training


def test_udpo_writes_training_artifacts(tmp_path):
    result = run_udpo(tiny_config(), str(tmp_path))
    assert [r.label for r in result.rows] == ["baseline", "trained"]
    expected = BASELINE_ARTIFACTS + (
        "training_metrics.csv",
        "replay_buffer.jsonl",
        "coefficients.csv",
        "policy_agent_0.txt",
        "policy_agent_1.txt",
        "policy_agent_2.txt",
    )
    for name in expected:
        assert (tmp_path / name).is_file()
    lines = (tmp_path / "training_metrics.csv").read_text().splitlines()
    assert lines[0] == "iter,accuracy,mean_U_intra,mean_U_inter,mean_U_sys,mean_total_reward"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("1,")


def test_zero_iterations_training_equals_baseline(tmp_path):
    config = dataclasses.replace(tiny_config(), clip=ClipConfig(iterations=0))
    result = run_udpo(config, str(tmp_path))
    baseline, trained = result.rows
    assert trained.accuracy == baseline.accuracy
    assert trained.mean_u_intra == baseline.mean_u_intra
    assert trained.mean_u_inter == baseline.mean_u_inter
    assert trained.mean_u_sys == baseline.mean_u_sys


def test_udpo_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_udpo(tiny_config(), str(a))
    run_udpo(tiny_config(), str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# -------------------------------------------------------------------- attack


def test_attack_zero_seats_equals_clean_rows(tmp_path):
    result = run_attack(tiny_config(), str(tmp_path), m_values=[0])
    rows = {r.label: r for r in result.rows}
    for arm in ("untrained", "trained"):
        clean = rows[f"{arm}_clean"]
        attacked = rows[f"{arm}_m0"]
        assert attacked.accuracy == clean.accuracy
        assert attacked.mean_u_sys == clean.mean_u_sys


def test_attack_row_order_and_majority_warning(tmp_path):
    result = run_attack(tiny_config(), str(tmp_path), m_values=[1, 2])
    assert [r.label for r in result.rows] == [
        "untrained_clean", "trained_clean",
        "untrained_m1", "trained_m1", "untrained_m2", "trained_m2",
    ]
    assert result.warnings == ["m=2 of 3 agents: no honest majority possible"]


def test_arms_stay_paired_across_pipelines(tmp_path):
    # one eval draw per seat-count group: an attacked untrained row is the
    # sweep row at the same m, and the sweep row at the configured m is the
    # baseline row
    config = tiny_config(compromised_count=1)
    attack = {r.label: r for r in run_attack(config, str(tmp_path / "a"), [1, 2]).rows}
    sweep = run_sweep(config, str(tmp_path / "s"), "compromised", [1, 2]).rows
    baseline = run_baseline(config, str(tmp_path / "b")).rows

    def outcome(row):
        return dataclasses.astuple(row)[1:]

    assert [outcome(attack["untrained_m1"]), outcome(attack["untrained_m2"])] == \
        [outcome(row) for row in sweep]
    assert outcome(sweep[0]) == outcome(baseline[0])


def test_attack_all_seats_compromised_scores_zero(tmp_path):
    result = run_attack(tiny_config(), str(tmp_path), m_values=[3])
    rows = {r.label: r for r in result.rows}
    assert rows["untrained_m3"].accuracy == 0.0
    assert rows["trained_m3"].accuracy == 0.0
    assert rows["untrained_m3"].mean_u_sys == 0.0


@pytest.mark.parametrize("bad_m", [-1, 4])
def test_attack_rejects_invalid_seat_counts(tmp_path, bad_m):
    with pytest.raises(ValueError):
        run_attack(tiny_config(), str(tmp_path), m_values=[bad_m])


@pytest.mark.parametrize("run, error", [
    (lambda out: run_attack(tiny_config(), out, m_values=[1, 4]), "compromised_count 4 exceeds"),
    (lambda out: run_attack(tiny_config(), out, m_values=[1, -1]), "non-negative"),
    (lambda out: run_sweep(tiny_config(), out, "agents", [5, 1]), "num_agents must be at least 2"),
    (lambda out: run_sweep(tiny_config(), out, "compromised", [1, 9]), "compromised_count 9 exceeds"),
], ids=["attack-too-many", "attack-negative", "sweep-agents", "sweep-compromised"])
def test_a_bad_seat_count_among_good_ones_fails_before_any_evaluation(
    tmp_path, monkeypatch, run, error
):
    calls = []
    for name in ("train_pipeline", "evaluate_ensemble"):
        monkeypatch.setattr(harness, name, lambda *args, name=name, **kwargs: calls.append(name))
    with pytest.raises(ValueError, match=error):
        run(str(tmp_path))
    assert calls == []


# ------------------------------------------------------------------ analysis


def test_analysis_round_trips_baseline_aggregates(tmp_path):
    base = tmp_path / "base"
    reports = tmp_path / "reports"
    baseline_row = run_baseline(tiny_config(), str(base)).rows[0]
    result = run_analysis([str(base / "trajectories.jsonl")], tiny_config(), str(reports))
    row = result.rows[0]
    assert row.label == "analysis"
    assert row.questions == baseline_row.questions
    assert row.accuracy == baseline_row.accuracy
    assert row.mean_u_intra == baseline_row.mean_u_intra
    assert row.mean_u_inter == baseline_row.mean_u_inter
    assert row.mean_u_sys == baseline_row.mean_u_sys
    for name in ("separation.csv", "correlation.csv", "selective.csv", "strata.csv"):
        assert (reports / name).is_file()


def test_analysis_counts_records_without_ground_truth(tmp_path):
    base = tmp_path / "base"
    run_baseline(tiny_config(), str(base))
    path = tmp_path / "mixed.jsonl"
    rounds = (("A", "B", "A"), ("A", "A", "A"), ("A", "A", "A"))
    unsupervised = [
        DebateTrajectory(
            question_id=f"free-{i}",
            answer_space=("A", "B", "C", "D"),
            rounds=rounds,
            ground_truth=None,
        )
        for i in range(3)
    ]
    with open(base / "trajectories.jsonl", encoding="utf-8") as fp:
        supervised_lines = fp.read()
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(supervised_lines)
        write_records(fp, unsupervised)
    result = run_analysis([str(path)], tiny_config(), str(tmp_path / "reports"))
    assert result.rows[0].questions == 12
    assert any("excluded 3 trajectories" in w for w in result.warnings)


def test_analysis_single_outcome_class_degrades_gracefully(tmp_path):
    path = tmp_path / "all_correct.jsonl"
    rounds = (("A", "A", "A"),) * 3
    trajectories = [
        DebateTrajectory(
            question_id=f"easy-{i}",
            answer_space=("A", "B"),
            rounds=rounds,
            ground_truth="A",
        )
        for i in range(4)
    ]
    write_records(str(path), trajectories)
    reports = tmp_path / "reports"
    result = run_analysis([str(path)], tiny_config(), str(reports))
    assert result.rows[0].accuracy == 1.0
    assert any("separation report skipped" in w for w in result.warnings)
    assert any("correlation matrix skipped" in w for w in result.warnings)
    sep_lines = (reports / "separation.csv").read_text().splitlines()
    assert sep_lines == ["metric,mean_fail,mean_success,cohens_d,t_statistic,p_value"]
    assert not (reports / "correlation.csv").exists()
    assert (reports / "selective.csv").is_file()
    assert (reports / "strata.csv").is_file()


def test_analysis_groups_mixed_answer_spaces_and_grid_shapes(tmp_path, monkeypatch):
    # Two answer spaces, two agent counts and two round counts interleaved in
    # one file; chunks of 3 split each group across several kernel calls.
    rng = np.random.default_rng(11)
    shapes = [(("A", "B", "C"), 3, 1), (("x", "y"), 5, 3), (("A", "B", "C"), 5, 1),
              (("x", "y"), 3, 3)]
    trajectories = []
    for j in range(40):
        space, n, t = shapes[int(rng.integers(len(shapes)))]
        trajectories.append(DebateTrajectory(
            question_id=f"mix-{j}",
            answer_space=space,
            rounds=oracle.random_rounds(rng, n, t, space),
            ground_truth=None if j % 9 == 4 else space[int(rng.integers(len(space)))],
        ))
    path = tmp_path / "mixed.jsonl"
    write_records(str(path), trajectories)
    config = tiny_config()
    expected = [
        stats_oracle.OutcomeRecord(
            traj.question_id,
            oracle.brute_majority(traj.rounds[-1], traj.answer_space) == traj.ground_truth,
            full_profile(traj, config.metric))
        for traj in trajectories if traj.ground_truth is not None
    ]
    monkeypatch.setattr(harness, "ANALYSIS_CHUNK", 3)
    handed, result = analysed_columns([path], config, tmp_path / "reports", monkeypatch)
    assert_same_columns(handed, stats_oracle.record_columns(expected))
    assert result.rows == [stats_oracle.summary_from_records("analysis", expected)]
    assert any("excluded 4 trajectories" in w for w in result.warnings)


def test_analysis_leaves_no_report_from_an_earlier_run(tmp_path):
    base = tmp_path / "base"
    run_baseline(tiny_config(), str(base))
    reports = tmp_path / "reports"
    run_analysis([str(base / "trajectories.jsonl")], tiny_config(), str(reports))
    assert sorted(os.listdir(reports)) == [
        "correlation.csv", "selective.csv", "separation.csv", "strata.csv"]
    easy = tmp_path / "easy.jsonl"
    write_records(str(easy), [
        DebateTrajectory(f"easy-{i}", ("A", "B"), (("A", "A", "A"),) * 3, "A") for i in range(10)
    ])
    result = run_analysis([str(easy)], tiny_config(), str(reports))
    assert any("correlation matrix skipped" in w for w in result.warnings)
    assert sorted(os.listdir(reports)) == ["selective.csv", "separation.csv", "strata.csv"]
    free = tmp_path / "free.jsonl"
    write_records(str(free), [DebateTrajectory("q", ("A", "B"), (("A", "B"), ("A", "B")))])
    result = run_analysis([str(free)], tiny_config(), str(reports))
    assert any("no usable trajectories" in w for w in result.warnings)
    assert os.listdir(reports) == []


def test_analysis_with_no_usable_records_reports_and_stops(tmp_path):
    path = tmp_path / "unsupervised.jsonl"
    write_records(
        str(path),
        [
            DebateTrajectory(
                question_id="q",
                answer_space=("A", "B"),
                rounds=(("A", "B"), ("A", "B")),
                ground_truth=None,
            )
        ],
    )
    result = run_analysis([str(path)], tiny_config(), str(tmp_path / "reports"))
    assert result.rows == []
    assert any("no usable trajectories" in w for w in result.warnings)


# --------------------------------------------------------------------- sweep


def test_sweep_labels_rows_by_axis_value(tmp_path):
    result = run_sweep(tiny_config(), str(tmp_path), "rounds", [1, 2])
    assert [r.label for r in result.rows] == ["rounds=1", "rounds=2"]
    assert all(r.questions == 12 for r in result.rows)


def test_sweep_compromised_axis_warns_without_majority(tmp_path):
    result = run_sweep(tiny_config(), str(tmp_path), "compromised", [0, 2])
    assert [r.label for r in result.rows] == ["compromised=0", "compromised=2"]
    assert result.warnings == ["m=2 of 3 agents: no honest majority possible"]


def test_sweep_agents_axis_warns_without_majority(tmp_path):
    config = tiny_config(num_agents=5, compromised_count=2, skills=(0.9, 0.7, 0.5))
    result = run_sweep(config, str(tmp_path), "agents", [4, 5])
    assert [r.label for r in result.rows] == ["agents=4", "agents=5"]
    assert result.warnings == ["m=2 of 4 agents: no honest majority possible"]


def test_sweep_rejects_unknown_axis_and_empty_values(tmp_path):
    with pytest.raises(ValueError, match="axis"):
        run_sweep(tiny_config(), str(tmp_path), "temperature", [1])
    with pytest.raises(ValueError, match="at least one"):
        run_sweep(tiny_config(), str(tmp_path), "rounds", [])
    assert "agents" in SWEEP_AXES
