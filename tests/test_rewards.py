"""Reward components, complement identities, coefficient weighting, and the
array rewards and priorities against the per-trajectory formulas."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig, full_profile, profiles_from_codes
from madlab.replay import replay_score
from madlab.rewards import CoefficientSet, total_reward
from reference_impl import profile_row, uniform_coefficients

SPACE = ("A", "B", "C")
CFG = MetricConfig(lambda_mix=0.5)


def make_traj(rounds, ground_truth=None, space=SPACE):
    return DebateTrajectory("q", tuple(space), rounds, ground_truth)


def scalar_rewards(profile, correct, coeffs):
    """The per-trajectory reward formula on a batch of one: (r_intra, r_inter,
    r_sys, r_task, totals)."""
    r_i = 1.0 - profile.flip_rate.item()
    r_e = 1.0 - profile.u_inter.item()
    r_s = 1.0 - profile.u_sys.item()
    r_t = 1.0 if correct else 0.0
    totals = tuple(
        coeffs.alpha[i] * r_i
        + coeffs.beta[i] * r_e
        + coeffs.gamma[i] * r_s
        + coeffs.lambda_task[i] * r_t
        for i in range(coeffs.num_agents)
    )
    return r_i, r_e, r_s, r_t, totals


def scalar_replay_score(r_intra, r_inter, r_sys):
    """The per-trajectory priority: the unit-weight sum of the reward complements."""
    return (1.0 - r_intra) + (1.0 - r_inter) + (1.0 - r_sys)


def rewards_of(traj, coeffs=None, correct=None):
    """One trajectory's rewards as a batch of one; r_task is read off the
    kernel's winner, as train scores it, unless correct is given."""
    if coeffs is None:
        coeffs = uniform_coefficients(len(traj.rounds[0]))
    space = traj.answer_space
    profiles = full_profile(traj, CFG)
    if correct is None:
        correct = space[int(profiles.winners[0])] == traj.ground_truth
    rewards = total_reward(profiles, [correct], coeffs)
    assert rewards.total.shape == (1, coeffs.num_agents)
    return rewards


def test_complement_identities_exact_on_random_trajectories():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        space = SPACE[:k]
        traj = make_traj(oracle.random_rounds(rng, n, t, space), "A", space)
        prof = full_profile(traj, CFG)
        vec = rewards_of(traj, uniform_coefficients(n), correct=True)
        assert vec.r_intra == 1.0 - prof.flip_rate
        assert vec.r_inter == 1.0 - prof.u_inter
        assert vec.r_sys == 1.0 - prof.u_sys
        final, rounds = traj.rounds[-1], traj.rounds
        assert abs(vec.r_intra - (1.0 - oracle.brute_flip_rate(rounds))) < 1e-12
        assert abs(vec.r_inter - (1.0 - oracle.brute_inter(rounds))) < 1e-12
        assert abs(vec.r_sys - (1.0 - oracle.brute_usys(final, space))) < 1e-12


def test_task_reward_binary():
    traj = make_traj((("A", "A"), ("A", "A")), ground_truth="A")
    assert rewards_of(traj).r_task == 1.0
    traj = make_traj((("A", "A"), ("A", "A")), ground_truth="B")
    assert rewards_of(traj).r_task == 0.0


def test_task_reward_uses_majority_tie_break():
    # tied final rounds: r_task follows the kernel winner, the lowest tied
    # label in answer-space order, and that winner is the brute-force one
    rng = np.random.default_rng(17)
    for space in (SPACE, tuple(reversed(SPACE))):
        for _ in range(50):
            # 2 or 3 labels with the same 1 or 2 votes each, in a random seat order
            labels = rng.choice(3, size=int(rng.integers(2, 4)), replace=False)
            tied = [space[c] for c in rng.permutation(np.repeat(labels, rng.integers(1, 3)))]
            rounds = oracle.random_rounds(rng, len(tied), 2, space)[:-1] + (tuple(tied),)
            winner = oracle.brute_majority(tied, space)
            assert winner == min(set(tied), key=space.index)
            for truth in space:
                assert rewards_of(make_traj(rounds, truth, space)).r_task == float(truth == winner)


def test_total_reward_weights_components_per_agent():
    traj = make_traj((("A", "A"), ("B", "A"), ("B", "A")), ground_truth="A")
    coeffs = CoefficientSet(
        alpha=np.array([1.0, 2.0]), beta=np.array([0.5, 0.0]), gamma=np.array([0.0, 1.0]),
        lambda_task=np.array([1.0, 3.0]), eta_anchor=np.array([0.01, 0.01]),
    )
    vec = rewards_of(traj, coeffs)
    assert vec.r_intra == 1.0 - 0.25
    assert vec.r_inter == 1.0 - 2 / 3
    assert vec.r_sys == 1.0 - 5 / 6
    assert vec.r_task == 1.0
    assert vec.total[0, 0] == 1.0 * vec.r_intra + 0.5 * vec.r_inter + 0.0 + 1.0
    assert vec.total[0, 1] == 2.0 * vec.r_intra + 0.0 + 1.0 * vec.r_sys + 3.0


def test_uniform_coefficients_and_zeroed():
    coeffs = uniform_coefficients(4, beta=2.0)
    assert coeffs.alpha.dtype == np.float64 and coeffs.alpha.tolist() == [1.0] * 4
    assert coeffs.beta.tolist() == [2.0] * 4
    zeroed = coeffs.zeroed("beta")
    assert zeroed.beta.dtype == np.float64 and zeroed.beta.tolist() == [0.0] * 4
    assert zeroed.alpha is coeffs.alpha
    with pytest.raises(ValueError, match="alpha/beta/gamma"):
        coeffs.zeroed("lambda")
    task_only = coeffs.zeroed("alpha", "beta", "gamma")
    for name in ("alpha", "beta", "gamma"):
        assert getattr(task_only, name).tolist() == [0.0] * 4
    assert task_only.lambda_task is coeffs.lambda_task
    assert task_only.eta_anchor is coeffs.eta_anchor
    unchanged = coeffs.zeroed()
    assert all(getattr(unchanged, f.name) is getattr(coeffs, f.name)
               for f in dataclasses.fields(coeffs))
    with pytest.raises(ValueError, match="'eta_anchor'"):
        coeffs.zeroed("alpha", "eta_anchor")


def test_coefficient_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        CoefficientSet(*(np.ones(n) for n in (1, 2, 1, 1, 1)))


def test_reward_range_with_unit_coefficients():
    rng = np.random.default_rng(5)
    coeffs = uniform_coefficients(3)
    for _ in range(200):
        traj = make_traj(oracle.random_rounds(rng, 3, 2, SPACE), ground_truth="A")
        vec = rewards_of(traj, coeffs)
        for tot in vec.total[0]:
            assert 0.0 <= tot <= 4.0


def test_array_rewards_and_priorities_equal_the_per_trajectory_formulas():
    rng = np.random.default_rng(31)
    for _ in range(60):
        b, n = int(rng.integers(1, 40)), int(rng.integers(2, 7))
        steps, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        profiles = profiles_from_codes(rng.integers(0, k, size=(b, steps, n)), k,
                                       MetricConfig(lambda_mix=float(rng.uniform())))
        correct = rng.random(b) < 0.5
        weighted = CoefficientSet(*(rng.uniform(0.0, 3.0, n) for _ in range(5)))
        for coeffs in (uniform_coefficients(n), weighted,
                       weighted.zeroed("alpha", "beta", "gamma"), weighted.zeroed("beta")):
            rewards = total_reward(profiles, correct, coeffs)
            scalar = [scalar_rewards(profile_row(profiles, j), ok, coeffs)
                      for j, ok in enumerate(correct.tolist())]
            for got, column in zip((rewards.r_intra, rewards.r_inter, rewards.r_sys,
                                    rewards.r_task, rewards.total), zip(*scalar)):
                assert np.array_equal(got, np.array(column))
            assert np.array_equal(replay_score(rewards),
                                  np.array([scalar_replay_score(*row[:3]) for row in scalar]))
