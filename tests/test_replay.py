"""Replay buffer tests.

The prioritized-sampling law is checked with a chi-square goodness-of-fit
test against the analytic distribution p ~ score**eta. The critical value
13.276704135987625 (four degrees of freedom, alpha = 0.01) was computed
with an arbitrary-precision special-functions library and frozen here.
"""

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from madlab.debate import DebateTrajectory, read_trajectories
from madlab.metrics import MetricConfig, full_profile, profiles_from_codes
from madlab.policy import DebateEnv, EnvConfig, QuestionSet, derive_key
from madlab.replay import ReplayBuffer, ReplayConfig, replay_score
from madlab.rewards import total_reward
from reference_impl import uniform_coefficients

MC = MetricConfig()
CHI2_CRIT_DF4_ALPHA01 = 13.276704135987625

FIXED_SCORES = (0.1, 0.2, 0.3, 0.2, 0.7)


CODES = np.array([(0, 1), (0, 1)])  # one debate's (T+1, N) answer codes


def make_buffer(config, count):
    """A buffer over questions q0, q1, ... over (A, B) with truth A, and their
    zero (T+1, H, K) tilts."""
    questions = QuestionSet(("A", "B"), np.array([f"q{j}" for j in range(count)]),
                            np.zeros(count, dtype=np.int64), np.full(count, 0.5))
    return ReplayBuffer(config, questions, np.zeros((count, *CODES.shape, 2)))


def batch_scores(questions, answers):
    """refresh's score callback: each re-rolled debate's priority through the
    batch's profiles and rewards."""
    assert answers.shape[0] == len(questions)
    profiles = profiles_from_codes(answers, len(questions.answer_space), MC)
    coeffs = uniform_coefficients(answers.shape[2])
    # r_task does not enter the priority
    return replay_score(total_reward(profiles, np.zeros(len(answers), dtype=bool), coeffs))


def score_of(question, codes):
    """Replay priority of one debate of a set of one question, scored as a batch of one."""
    return batch_scores(question, codes[None])[0]


def fixed_buffer(eta, scores=FIXED_SCORES):
    """Question j pushed alone at iteration j with priority scores[j]."""
    buffer = make_buffer(ReplayConfig(priority_exponent=eta, capacity=16), len(scores))
    for j, score in enumerate(scores):
        buffer.push([j], CODES[None], [score], iteration=j, policy_version=0)
    return buffer


# ------------------------------------------------------------------- scoring


def test_replay_score_is_unit_weight_uncertainty_sum():
    traj = DebateTrajectory(
        "q0",
        ("A", "B", "C"),
        (("A", "B", "C"), ("A", "B", "B"), ("B", "B", "C")),
        "B",
    )
    profile = full_profile(traj, MC)
    rewards = total_reward(profile, [True], uniform_coefficients(3))
    expected = profile.flip_rate + profile.u_inter + profile.u_sys
    assert replay_score(rewards) == pytest.approx(expected, abs=1e-15)
    assert np.array_equal(replay_score(rewards), (
        (1.0 - rewards.r_intra) + (1.0 - rewards.r_inter) + (1.0 - rewards.r_sys)
    ))


def test_negative_score_rejected():
    buffer = make_buffer(ReplayConfig(), 2)
    with pytest.raises(ValueError, match="non-negative"):
        buffer.push([0, 1], np.stack([CODES, CODES]), [0.2, -0.1], iteration=0, policy_version=0)
    assert len(buffer) == 0


# ------------------------------------------------------------------ sampling


@pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
def test_sampling_law_matches_priority_exponent(eta):
    buffer = fixed_buffer(eta)
    n_draws = 10_000
    rng = np.random.default_rng(2024)
    rows, _ = buffer.sample(n_draws, rng)
    counts = Counter(rows.tolist())
    scores = np.array(FIXED_SCORES)
    if eta == 0.0:
        probs = np.full(len(scores), 1.0 / len(scores))
    else:
        weights = scores**eta
        probs = weights / weights.sum()
    expected = probs * n_draws
    chi2 = sum(
        (counts.get(j, 0) - expected[j]) ** 2 / expected[j]
        for j in range(len(scores))
    )
    assert chi2 < CHI2_CRIT_DF4_ALPHA01, f"eta={eta}: chi2={chi2}"


def test_eta_zero_weights_are_exactly_one():
    buffer = fixed_buffer(0.0)
    _, weights = buffer.sample(64, np.random.default_rng(7))
    assert (weights == 1.0).all()


def test_zero_scores_fall_back_to_uniform():
    buffer = fixed_buffer(1.0, scores=(0.0,) * 4)
    rows, weights = buffer.sample(32, np.random.default_rng(3))
    assert (weights == 1.0).all()
    assert set(rows.tolist()) <= {0, 1, 2, 3}


def test_importance_weights_follow_inverse_probability():
    buffer = fixed_buffer(1.0)
    scores = np.array(FIXED_SCORES)
    probs = scores / scores.sum()
    rows, got = buffer.sample(50, np.random.default_rng(11))
    raw = 1.0 / (len(scores) * probs[rows])
    expected = raw / raw.mean()
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
    rows, weights = buffer.sample(n_draws, np.random.default_rng(99))
    est = float(np.mean(weights * scores[rows]))
    tol = 4.0 * sd / np.sqrt(n_draws)
    assert abs(est - target) < tol, f"estimate {est} vs {target} (tol {tol})"


def test_sample_edge_cases():
    buffer = make_buffer(ReplayConfig(), 1)
    rows, weights = buffer.sample(0, np.random.default_rng(0))
    assert len(rows) == len(weights) == 0
    with pytest.raises(ValueError, match="empty"):
        buffer.sample(1, np.random.default_rng(0))


def test_overflowing_priorities_are_refused_without_warnings():
    # 3**1000 overflows float64, so the weights' sum is not finite
    buffer = fixed_buffer(1000.0, scores=(2.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="priority_exponent = 1000.0"):
            buffer.sample(4, np.random.default_rng(0))
        # 3**600 is finite: sampled as before, almost surely the larger score
        rows, _ = fixed_buffer(600.0, scores=(2.0, 3.0)).sample(4, np.random.default_rng(0))
    assert rows.tolist() == [1] * 4


# ------------------------------------------------------------------ eviction


def test_fifo_eviction_drops_oldest():
    buffer = make_buffer(ReplayConfig(capacity=100), 150)
    for j in range(150):
        buffer.push([j], CODES[None], [0.5], iteration=j, policy_version=0)
    assert len(buffer) == 100
    assert buffer.index.tolist() == list(range(50, 150))
    assert buffer.inserted_iteration.tolist() == list(range(50, 150))


def test_one_push_beyond_capacity_keeps_the_newest_in_order():
    buffer = make_buffer(ReplayConfig(capacity=4), 10)
    answers = np.arange(10)[:, None, None] % 2 * np.ones(CODES.shape, dtype=np.int64)
    buffer.push(np.arange(10), answers, np.arange(10) / 10, iteration=1, policy_version=0)
    assert buffer.index.tolist() == [6, 7, 8, 9]
    assert buffer.score.tolist() == [0.6, 0.7, 0.8, 0.9]
    np.testing.assert_array_equal(buffer.answers, answers[6:])
    # a second, smaller push evicts from the front of the first
    buffer.push([0, 1], answers[:2], [0.0, 0.1], iteration=2, policy_version=1)
    assert buffer.index.tolist() == [8, 9, 0, 1]
    assert buffer.inserted_iteration.tolist() == [1, 1, 2, 2]
    assert buffer.policy_version.tolist() == [0, 0, 1, 1]
    np.testing.assert_array_equal(buffer.answers, answers[[8, 9, 0, 1]])


# -------------------------------------------------------------- persistence


def test_dump_restore_roundtrip(tmp_path):
    # the dump reads back: each entry's question and codes through
    # read_trajectories, its side fields from its line
    buffer = fixed_buffer(1.0)
    path = str(tmp_path / "buffer.jsonl")
    buffer.dump(path)
    [group] = read_trajectories(path).groups
    assert group.question_ids == buffer.questions.ids[buffer.index].tolist()
    assert group.truth.tolist() == [0] * len(buffer)
    np.testing.assert_array_equal(group.codes, buffer.answers)
    with open(path, "r", encoding="utf-8") as fp:
        records = [json.loads(line) for line in fp]
    assert [(r["replay_score"], r["policy_version"], r["inserted_iteration"]) for r in records] == [
        (score, 0, j) for j, score in enumerate(FIXED_SCORES)
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
    tilts = env.batch_tilts(questions)
    buffer = ReplayBuffer(ReplayConfig(), questions, tilts)
    codes = np.stack([env.rollout_debate(questions[j:j + 1], policies, derive_key(100, j))
                      for j in range(3)])
    buffer.push(np.arange(3), codes, [score_of(questions[j:j + 1], c) for j, c in enumerate(codes)],
                iteration=1, policy_version=0)
    buffer.refresh(env, policies, rollout_seed=777, policy_version=9, score=batch_scores)
    assert buffer.index.tolist() == [0, 1, 2]
    assert buffer.tilts is tilts  # kept, not redrawn
    for j in range(3):
        q = questions[j:j + 1]
        expected = env.rollout_debate(q, policies, derive_key(777, j))
        np.testing.assert_array_equal(buffer.answers[j], expected)
        assert buffer.score[j] == score_of(q, expected)
    assert buffer.policy_version.tolist() == [9] * 3
    assert buffer.inserted_iteration.tolist() == [1] * 3
    # Same policies and seed: a second refresh is a fixed point.
    snapshot = (buffer.answers.tolist(), buffer.score.tolist())
    buffer.refresh(env, policies, rollout_seed=777, policy_version=9, score=batch_scores)
    assert snapshot == (buffer.answers.tolist(), buffer.score.tolist())
    # an empty buffer has nothing to re-roll
    ReplayBuffer(ReplayConfig(), questions, tilts).refresh(env, policies, 777, 9,
                                                           score=lambda qs, answers: np.empty(0))


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
