"""Reward components, complement identities, and coefficient weighting."""

from __future__ import annotations

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig, answer_codes, full_profile, profiles_from_codes
from madlab.rewards import CoefficientSet, total_reward

SPACE = ("A", "B", "C")
CFG = MetricConfig(lambda_mix=0.5)


def make_traj(rounds, ground_truth=None, space=SPACE):
    return DebateTrajectory("q", tuple(space), rounds, ground_truth)


def rewards_of(traj, coeffs=None):
    """total_reward with r_task read off the kernel's winner, as train scores it."""
    coeffs = coeffs or CoefficientSet.uniform(traj.num_agents)
    space = traj.answer_space
    profiles, winners = profiles_from_codes(answer_codes([traj]), len(space), CFG)
    return total_reward(profiles[0], space[int(winners[0])] == traj.ground_truth, coeffs)


def test_complement_identities_exact_on_random_trajectories():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        space = SPACE[:k]
        traj = make_traj(oracle.random_rounds(rng, n, t, space), "A", space)
        prof = full_profile(traj, CFG)
        vec = total_reward(prof, True, CoefficientSet.uniform(n))
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
        alpha=(1.0, 2.0), beta=(0.5, 0.0), gamma=(0.0, 1.0),
        lambda_task=(1.0, 3.0), eta_anchor=(0.01, 0.01),
    )
    vec = rewards_of(traj, coeffs)
    assert vec.r_intra == 1.0 - 0.25
    assert vec.r_inter == 1.0 - 2 / 3
    assert vec.r_sys == 1.0 - 5 / 6
    assert vec.r_task == 1.0
    assert vec.total[0] == 1.0 * vec.r_intra + 0.5 * vec.r_inter + 0.0 + 1.0
    assert vec.total[1] == 2.0 * vec.r_intra + 0.0 + 1.0 * vec.r_sys + 3.0


def test_uniform_coefficients_and_zeroed():
    coeffs = CoefficientSet.uniform(4, alpha=1.0, beta=2.0)
    assert coeffs.alpha == (1.0,) * 4
    assert coeffs.beta == (2.0,) * 4
    zeroed = coeffs.zeroed("beta")
    assert zeroed.beta == (0.0,) * 4
    assert zeroed.alpha == coeffs.alpha
    with pytest.raises(ValueError, match="alpha/beta/gamma"):
        coeffs.zeroed("lambda")
    task_only = coeffs.zeroed("alpha", "beta", "gamma")
    assert task_only.alpha == task_only.beta == task_only.gamma == (0.0,) * 4
    assert task_only.lambda_task == coeffs.lambda_task
    assert task_only.eta_anchor == coeffs.eta_anchor
    assert coeffs.zeroed() == coeffs
    with pytest.raises(ValueError, match="'eta_anchor'"):
        coeffs.zeroed("alpha", "eta_anchor")


def test_coefficient_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        CoefficientSet((1.0,), (1.0, 1.0), (1.0,), (1.0,), (0.01,))


def test_reward_range_with_unit_coefficients():
    rng = np.random.default_rng(5)
    coeffs = CoefficientSet.uniform(3)
    for _ in range(200):
        traj = make_traj(oracle.random_rounds(rng, 3, 2, SPACE), ground_truth="A")
        vec = rewards_of(traj, coeffs)
        for tot in vec.total:
            assert 0.0 <= tot <= 4.0
