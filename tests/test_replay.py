"""Replay buffer tests.

The prioritized-sampling law is checked with a chi-square goodness-of-fit
test against the analytic distribution p ~ score**eta. The critical value
13.276704135987625 (four degrees of freedom, alpha = 0.01) was computed
with an arbitrary-precision special-functions library and frozen here.
"""

import json
from collections import Counter

import numpy as np
import pytest

from madlab.debate import DebateTrajectory, read_trajectories
from madlab.metrics import MetricConfig, answer_codes, profiles_from_codes
from madlab.policy import DebateEnv, EnvConfig, SyntheticQuestion, derive_key
from madlab.replay import ReplayBuffer, ReplayConfig, replay_score
from madlab.rewards import CoefficientSet, total_reward

MC = MetricConfig()
CHI2_CRIT_DF4_ALPHA01 = 13.276704135987625

FIXED_SCORES = (0.1, 0.2, 0.3, 0.2, 0.7)


def make_debate(qid, codes=((0, 1), (0, 1))):
    """A question over (A, B) with truth A, its (T+1, H, K) tilts (zero) and
    its debate's answer codes."""
    codes = np.array(codes)
    return SyntheticQuestion(qid, ("A", "B"), 0, 0.5), np.zeros((*codes.shape, 2)), codes


def batch_scores(questions, answers):
    """refresh's score callback: each re-rolled debate's priority through the
    batch's profiles and rewards."""
    assert answers.shape[0] == len(questions)
    profiles = profiles_from_codes(answers, len(questions[0].answer_space), MC)
    coeffs = CoefficientSet.uniform(answers.shape[2])
    # r_task does not enter the priority
    return replay_score(total_reward(profiles, np.zeros(len(answers), dtype=bool), coeffs)).tolist()


def score_of(question, codes):
    """Replay priority of one debate, scored as a batch of one."""
    return batch_scores([question], codes[None])[0]


def fixed_buffer(eta):
    config = ReplayConfig(priority_exponent=eta, capacity=16)
    buffer = ReplayBuffer(config)
    for j, score in enumerate(FIXED_SCORES):
        buffer.push(*make_debate(f"q{j}"), score, iteration=j, policy_version=0)
    return buffer


# ------------------------------------------------------------------- scoring


def test_replay_score_is_unit_weight_uncertainty_sum():
    traj = DebateTrajectory(
        "q0",
        ("A", "B", "C"),
        (("A", "B", "C"), ("A", "B", "B"), ("B", "B", "C")),
        "B",
    )
    profile = profiles_from_codes(answer_codes([traj]), 3, MC)
    rewards = total_reward(profile, [True], CoefficientSet.uniform(3))
    expected = profile.flip_rate + profile.u_inter + profile.u_sys
    assert replay_score(rewards) == pytest.approx(expected, abs=1e-15)
    assert np.array_equal(replay_score(rewards), (
        (1.0 - rewards.r_intra) + (1.0 - rewards.r_inter) + (1.0 - rewards.r_sys)
    ))


def test_negative_score_rejected():
    buffer = ReplayBuffer(ReplayConfig())
    with pytest.raises(ValueError, match="non-negative"):
        buffer.push(*make_debate("q0"), -0.1)


# ------------------------------------------------------------------ sampling


@pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
def test_sampling_law_matches_priority_exponent(eta):
    buffer = fixed_buffer(eta)
    n_draws = 10_000
    rng = np.random.default_rng(2024)
    draws = buffer.sample(n_draws, rng)
    counts = Counter(entry.question.question_id for entry, _ in draws)
    scores = np.array(FIXED_SCORES)
    if eta == 0.0:
        probs = np.full(len(scores), 1.0 / len(scores))
    else:
        weights = scores**eta
        probs = weights / weights.sum()
    expected = probs * n_draws
    chi2 = sum(
        (counts.get(f"q{j}", 0) - expected[j]) ** 2 / expected[j]
        for j in range(len(scores))
    )
    assert chi2 < CHI2_CRIT_DF4_ALPHA01, f"eta={eta}: chi2={chi2}"


def test_eta_zero_weights_are_exactly_one():
    buffer = fixed_buffer(0.0)
    draws = buffer.sample(64, np.random.default_rng(7))
    assert all(w == 1.0 for _, w in draws)


def test_zero_scores_fall_back_to_uniform():
    config = ReplayConfig(priority_exponent=1.0)
    buffer = ReplayBuffer(config)
    for j in range(4):
        buffer.push(*make_debate(f"q{j}"), 0.0)
    draws = buffer.sample(32, np.random.default_rng(3))
    assert all(w == 1.0 for _, w in draws)
    assert {e.question.question_id for e, _ in draws} <= {f"q{j}" for j in range(4)}


def test_importance_weights_follow_inverse_probability():
    buffer = fixed_buffer(1.0)
    scores = np.array(FIXED_SCORES)
    probs = scores / scores.sum()
    by_qid = {f"q{j}": probs[j] for j in range(len(scores))}
    draws = buffer.sample(50, np.random.default_rng(11))
    raw = np.array([1.0 / (len(scores) * by_qid[e.question.question_id]) for e, _ in draws])
    expected = raw / raw.mean()
    got = np.array([w for _, w in draws])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert got.mean() == pytest.approx(1.0, abs=1e-12)


def test_importance_weighted_mean_recovers_uniform_expectation():
    # Self-normalized importance sampling of the score itself: the weighted
    # mean under prioritized draws must approach the plain per-entry mean.
    buffer = fixed_buffer(2.0)
    scores = np.array(FIXED_SCORES)
    target = scores.mean()
    probs = scores**2 / (scores**2).sum()
    raw_times_f = scores / (len(scores) * probs)
    sd = float(np.sqrt(np.dot(probs, raw_times_f**2) - target**2))
    n_draws = 20_000
    draws = buffer.sample(n_draws, np.random.default_rng(99))
    est = float(np.mean([w * e.score for e, w in draws]))
    tol = 4.0 * sd / np.sqrt(n_draws)
    assert abs(est - target) < tol, f"estimate {est} vs {target} (tol {tol})"


def test_sample_edge_cases():
    buffer = ReplayBuffer(ReplayConfig())
    assert buffer.sample(0, np.random.default_rng(0)) == []
    with pytest.raises(ValueError, match="empty"):
        buffer.sample(1, np.random.default_rng(0))


# ------------------------------------------------------------------ eviction


def test_fifo_eviction_drops_oldest():
    buffer = ReplayBuffer(ReplayConfig(capacity=100))
    for j in range(150):
        buffer.push(*make_debate(f"q{j:03d}"), 0.5, iteration=j)
    assert len(buffer) == 100
    kept = [e.question.question_id for e in buffer.entries]
    assert kept == [f"q{j:03d}" for j in range(50, 150)]


# -------------------------------------------------------------- persistence


def test_dump_restore_roundtrip(tmp_path):
    # the dump reads back: each entry's question and codes through
    # read_trajectories, its side fields from its line
    buffer = fixed_buffer(1.0)
    path = str(tmp_path / "buffer.jsonl")
    buffer.dump(path)
    [group] = read_trajectories(path).groups
    assert group.question_ids == [e.question.question_id for e in buffer.entries]
    assert group.truth.tolist() == [0] * len(buffer)
    np.testing.assert_array_equal(group.codes, [e.answers for e in buffer.entries])
    with open(path, "r", encoding="utf-8") as fp:
        records = [json.loads(line) for line in fp]
    assert [(r["replay_score"], r["policy_version"], r["inserted_iteration"]) for r in records] == [
        (e.score, e.policy_version, e.inserted_iteration) for e in buffer.entries
    ]


# --------------------------------------------------------------------- refresh


def test_refresh_rerolls_rescores_and_restamps():
    env = DebateEnv(
        EnvConfig(
            num_agents=2,
            rounds=1,
            answer_space_size=4,
            skills=(0.9, 0.8),
            difficulty="fixed:1.0",
            seed=5,
        )
    )
    questions = env.generate_questions(3, "t")
    policies = env.initial_policies()
    buffer = ReplayBuffer(ReplayConfig())
    tilts = list(env.batch_tilts(questions))
    for j, (q, t) in enumerate(zip(questions, tilts)):
        codes = env.rollout_debate(q, policies, derive_key(100, j))
        buffer.push(q, t, codes, score_of(q, codes), iteration=1, policy_version=0)
    buffer.refresh(env, policies, rollout_seed=777, policy_version=9, score=batch_scores)
    assert [e.question for e in buffer.entries] == questions
    assert all(e.tilts is t for e, t in zip(buffer.entries, tilts))  # kept, not redrawn
    for j, (q, entry) in enumerate(zip(questions, buffer.entries)):
        expected = env.rollout_debate(q, policies, derive_key(777, j))
        np.testing.assert_array_equal(entry.answers, expected)
        assert entry.score == score_of(q, expected)
        assert entry.policy_version == 9
    # Same policies and seed: a second refresh is a fixed point.
    snapshot = [(e.answers.tolist(), e.score) for e in buffer.entries]
    buffer.refresh(env, policies, rollout_seed=777, policy_version=9, score=batch_scores)
    assert snapshot == [(e.answers.tolist(), e.score) for e in buffer.entries]
    # an empty buffer has nothing to re-roll
    ReplayBuffer(ReplayConfig()).refresh(env, policies, 777, 9, score=lambda qs, answers: [])


# ----------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError):
        ReplayConfig(capacity=0)
    with pytest.raises(ValueError):
        ReplayConfig(priority_exponent=-0.5)
    with pytest.raises(ValueError):
        ReplayConfig(fraction=1.5)
    with pytest.raises(ValueError):
        ReplayConfig(refresh_period=-1)
