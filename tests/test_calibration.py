"""Warm-up profiling and coefficient tailoring against hand counts."""

from __future__ import annotations

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.calibration import (
    CalibrationConfig,
    calibrate_coefficients,
    split_warmup,
    warmup_profile,
)
from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig
from madlab.policy import DebateEnv, EnvConfig
from reference_impl import trajectory_codes

SPACE = ("A", "B")
LABELS = ("A", "B", "C", "D")


def profile_of(trajectories):
    """warmup_profile over the trajectories' answer codes, lambda_mix 0.5."""
    k = len(trajectories[0].answer_space)
    return warmup_profile(trajectory_codes(trajectories), k, MetricConfig(lambda_mix=0.5))


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
    intra, _, _ = profile_of(pivot_fixture)
    assert intra.tolist() == [0.0, 0.0, 0.0]


def test_single_pivotal_trajectory_gives_quarter_loo(pivot_fixture):
    _, _, loo = profile_of(pivot_fixture)
    assert loo.tolist() == [0.25, 0.0, 0.25]


def test_profile_matches_hand_counts(pivot_fixture):
    readings = profile_of(pivot_fixture)
    assert readings.shape == (3, 3) and readings.dtype == np.float64
    # q2: agent 1 disagrees with both peers, agents 0/2 with one of two.
    # q3: agent 2 disagrees with both peers, agents 0/1 with one of two.
    assert readings[1].tolist() == [0.25, 0.375, 0.375]


def test_identical_agents_get_identical_profiles():
    trajs = [
        steady("q1", ("A", "B", "B")),
        steady("q2", ("B", "A", "A")),
        DebateTrajectory("q3", SPACE, (("A", "B", "B"), ("B", "A", "A"))),
    ]
    readings = profile_of(trajs)
    assert readings[:, 1].tolist() == readings[:, 2].tolist()


def test_profile_matches_brute_force_on_random_grids():
    rng = np.random.default_rng(2024)
    config = CalibrationConfig(kappa=1.0)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        t = int(rng.integers(1, 9))
        space = LABELS[: int(rng.integers(2, 5))]
        trajs = [
            DebateTrajectory(f"q{j}", space, oracle.random_rounds(rng, n, t, space))
            for j in range(int(rng.integers(1, 8)))
        ]
        readings = profile_of(trajs)
        intra, inter, loo, usys = oracle.brute_agent_profile(
            [(traj.rounds, traj.answer_space) for traj in trajs], n, 0.5
        )
        assert readings.shape == (3, n) and readings.dtype == np.float64
        assert ((0.0 <= readings) & (readings <= 1.0)).all()
        assert readings.tolist() == [intra, inter, loo]
        # calibration's system reading is the oracle's mean of the three
        coeffs = calibrate_coefficients(readings, config)
        assert coeffs.lambda_task.tolist() == [1.0 / (1.0 + u) for u in usys]
        assert coeffs.eta_anchor.tolist() == [0.01 * (1.0 + u) for u in usys]


def test_empty_warmup_set_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        warmup_profile(np.zeros((0, 2, 3), dtype=np.int64), 2, MetricConfig())


def test_malformed_answer_codes_rejected():
    with pytest.raises(ValueError, match="N >= 2"):
        warmup_profile(np.zeros((4, 2, 1), dtype=np.int64), 2, MetricConfig())
    with pytest.raises(ValueError, match="0..1"):
        warmup_profile(np.full((4, 2, 3), 2), 2, MetricConfig())


def readings_of(intra=0.0, inter=0.0, loo=0.0):
    """One agent's (3, 1) warm-up readings."""
    return np.array([[intra], [inter], [loo]])


BASES = (("alpha", "alpha_base"), ("beta", "beta_base"), ("gamma", "gamma_base"),
         ("lambda_task", "lambda_base"), ("eta_anchor", "eta_base"))


def test_zero_kappa_returns_bases():
    config = CalibrationConfig(kappa=0.0, eta_base=0.01)
    coeffs = calibrate_coefficients(readings_of(0.7, 0.3, 0.9), config)
    for field, base in BASES:
        assert getattr(coeffs, field).tolist() == [getattr(config, base)]


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5, 4.0, 1e6])
def test_zero_readings_return_every_base_bit_for_bit(kappa):
    # run_baseline's coefficients: each base times or over exactly 1.0
    rng = np.random.default_rng(int(2 * kappa))  # bases with many mantissa bits
    config = CalibrationConfig(kappa=kappa, **{base: float(rng.uniform(0.001, 3.0))
                                               for _, base in BASES})
    coeffs = calibrate_coefficients(np.zeros((3, 4)), config)
    for field, base in BASES:
        values = getattr(coeffs, field)
        assert values.dtype == np.float64
        assert values.tolist() == [getattr(config, base)] * 4


def test_intra_scaling_worked_example():
    coeffs = calibrate_coefficients(readings_of(intra=0.2), CalibrationConfig())
    assert coeffs.alpha.tolist() == [1.3]


def test_task_weight_worked_example():
    # system reading (0.25 + 0.5 + 0.75) / 3 = 0.5; kappa 1.5
    coeffs = calibrate_coefficients(readings_of(0.25, 0.5, 0.75), CalibrationConfig())
    assert coeffs.lambda_task.tolist() == [1.0 / 1.75]
    assert coeffs.eta_anchor.tolist() == [0.0175]


def test_coefficient_monotonicity():
    grid = np.linspace(0.0, 1.0, 11)
    config = CalibrationConfig()

    def series(field, *rows):
        """field's coefficient as the readings in rows (0 intra, 1 inter, 2 loo) run over grid."""
        out = []
        for u in grid:
            readings = np.zeros((3, 1))
            readings[list(rows)] = u
            out.append(float(getattr(calibrate_coefficients(readings, config), field)[0]))
        return out

    lambdas = series("lambda_task", 0, 1, 2)
    for rising in (series("alpha", 0), series("beta", 1), series("gamma", 2),
                   series("eta_anchor", 0, 1, 2)):
        assert all(a < b for a, b in zip(rising, rising[1:]))
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
    questions = DebateEnv(EnvConfig()).generate_questions(500, "t")
    warm, train = split_warmup(questions, 0.1)
    assert len(warm) == 50
    assert len(train) == 450
    # the two slices of the set, in order: distinct ids, every one once
    assert np.concatenate([warm.ids, train.ids]).tolist() == questions.ids.tolist()
    assert np.array_equal(np.concatenate([warm.truth, train.truth]), questions.truth)


def test_split_warmup_must_leave_training_data():
    with pytest.raises(ValueError):
        split_warmup(["q0"], 0.5)
    with pytest.raises(ValueError):
        split_warmup(["q0", "q1"], 0.9)
