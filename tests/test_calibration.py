"""Warm-up profiling and coefficient tailoring against hand counts."""

from __future__ import annotations

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.calibration import (
    AgentUncertaintyProfile,
    CalibrationConfig,
    calibrate_coefficients,
    split_warmup,
    warmup_profile,
)
from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig, answer_codes

SPACE = ("A", "B")
LABELS = ("A", "B", "C", "D")


def profile_of(trajectories):
    """warmup_profile over the trajectories' answer codes, lambda_mix 0.5."""
    k = len(trajectories[0].answer_space)
    return warmup_profile(answer_codes(trajectories), k, MetricConfig(lambda_mix=0.5))


def steady(qid, row):
    """Trajectory whose agents never change their answer."""
    return DebateTrajectory(qid, SPACE, (row, row))


@pytest.fixture
def pivot_fixture():
    """Four steady 3-agent debates; dropping agent 0 flips the vote in one.

    q2's final round (B, A, B) elects B, but without agent 0 the (A, B) tie
    breaks to A. The same holds for agent 2; agent 1 is never pivotal.
    """
    return [
        steady("q1", ("A", "A", "A")),
        steady("q2", ("B", "A", "B")),
        steady("q3", ("A", "A", "B")),
        steady("q4", ("A", "A", "A")),
    ]


def test_steady_agents_have_zero_intra(pivot_fixture):
    profile = profile_of(pivot_fixture)
    assert profile.u_intra_bar == (0.0, 0.0, 0.0)


def test_single_pivotal_trajectory_gives_quarter_loo(pivot_fixture):
    profile = profile_of(pivot_fixture)
    assert profile.loo_bar == (0.25, 0.0, 0.25)


def test_profile_matches_hand_counts(pivot_fixture):
    profile = profile_of(pivot_fixture)
    # q2: agent 1 disagrees with both peers, agents 0/2 with one of two.
    # q3: agent 2 disagrees with both peers, agents 0/1 with one of two.
    assert profile.u_inter_bar == (0.25, 0.375, 0.375)
    expected_sys = ((0.0 + 0.25 + 0.25) / 3, 0.375 / 3, (0.375 + 0.25) / 3)
    assert profile.u_sys_bar == pytest.approx(expected_sys, abs=1e-15)


def test_identical_agents_get_identical_profiles():
    trajs = [
        steady("q1", ("A", "B", "B")),
        steady("q2", ("B", "A", "A")),
        DebateTrajectory("q3", SPACE, (("A", "B", "B"), ("B", "A", "A"))),
    ]
    profile = profile_of(trajs)
    for field in ("u_intra_bar", "u_inter_bar", "loo_bar", "u_sys_bar"):
        values = getattr(profile, field)
        assert values[1] == values[2]


def test_profile_matches_brute_force_on_random_grids():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        t = int(rng.integers(1, 9))
        space = LABELS[: int(rng.integers(2, 5))]
        trajs = [
            DebateTrajectory(f"q{j}", space, oracle.random_rounds(rng, n, t, space))
            for j in range(int(rng.integers(1, 8)))
        ]
        profile = profile_of(trajs)
        ref = oracle.brute_agent_profile(
            [(traj.rounds, traj.answer_space) for traj in trajs], n, 0.5
        )
        for got, want in zip(
            (profile.u_intra_bar, profile.u_inter_bar, profile.loo_bar, profile.u_sys_bar),
            ref,
        ):
            assert got == tuple(want)


def test_empty_warmup_set_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        warmup_profile(np.zeros((0, 2, 3), dtype=np.int64), 2, MetricConfig())


def test_malformed_answer_codes_rejected():
    with pytest.raises(ValueError, match="N >= 2"):
        warmup_profile(np.zeros((4, 2, 1), dtype=np.int64), 2, MetricConfig())
    with pytest.raises(ValueError, match="0..1"):
        warmup_profile(np.full((4, 2, 3), 2), 2, MetricConfig())


def test_profile_validation():
    with pytest.raises(ValueError):
        AgentUncertaintyProfile((), (), (), ())
    with pytest.raises(ValueError):
        AgentUncertaintyProfile((0.5,), (0.5, 0.5), (0.5,), (0.5,))
    with pytest.raises(ValueError):
        AgentUncertaintyProfile((1.5,), (0.5,), (0.5,), (0.5,))


def make_profile(intra=0.0, inter=0.0, loo=0.0, sys_=0.0):
    return AgentUncertaintyProfile((intra,), (inter,), (loo,), (sys_,))


def test_zero_kappa_returns_bases():
    config = CalibrationConfig(kappa=0.0, eta_base=0.01)
    coeffs = calibrate_coefficients(make_profile(0.7, 0.3, 0.9, 0.6), config)
    assert coeffs.alpha == (1.0,)
    assert coeffs.beta == (1.0,)
    assert coeffs.gamma == (1.0,)
    assert coeffs.lambda_task == (1.0,)
    assert coeffs.eta_anchor == (0.01,)


def test_intra_scaling_worked_example():
    coeffs = calibrate_coefficients(make_profile(intra=0.2), CalibrationConfig())
    assert coeffs.alpha == (1.3,)


def test_task_weight_worked_example():
    coeffs = calibrate_coefficients(make_profile(sys_=0.4), CalibrationConfig())
    assert coeffs.lambda_task == (0.625,)


def test_coefficient_monotonicity():
    grid = np.linspace(0.0, 1.0, 11)
    config = CalibrationConfig()
    alphas = [calibrate_coefficients(make_profile(intra=u), config).alpha[0] for u in grid]
    betas = [calibrate_coefficients(make_profile(inter=u), config).beta[0] for u in grid]
    gammas = [calibrate_coefficients(make_profile(loo=u), config).gamma[0] for u in grid]
    lambdas = [
        calibrate_coefficients(make_profile(sys_=u), config).lambda_task[0] for u in grid
    ]
    etas = [
        calibrate_coefficients(make_profile(sys_=u), config).eta_anchor[0] for u in grid
    ]
    for series in (alphas, betas, gammas, etas):
        assert all(a < b for a, b in zip(series, series[1:]))
    assert all(a > b for a, b in zip(lambdas, lambdas[1:]))


def test_calibration_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(kappa=-0.1)
    with pytest.raises(ValueError):
        CalibrationConfig(alpha_base=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(eta_base=-1.0)
    with pytest.raises(ValueError):
        CalibrationConfig(warmup_fraction=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(warmup_fraction=1.0)


def test_split_warmup_is_disjoint_and_complete():
    questions = [f"q{i}" for i in range(500)]
    warm, train = split_warmup(questions, 0.1)
    assert len(warm) == 50
    assert len(train) == 450
    assert set(warm).isdisjoint(train)
    assert warm + train == questions


def test_split_warmup_must_leave_training_data():
    with pytest.raises(ValueError):
        split_warmup(["q0"], 0.5)
    with pytest.raises(ValueError):
        split_warmup(["q0", "q1"], 0.9)
