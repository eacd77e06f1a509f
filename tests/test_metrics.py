"""Uncertainty metrics against the brute-force oracle and the worked fixture."""

from __future__ import annotations

import io

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.debate import DebateTrajectory
from madlab.metrics import (
    PROFILE_CSV_HEADER,
    MetricConfig,
    UncertaintyProfile,
    full_profile,
    normalized_entropy,
    profile_csv_row,
    round_conflict,
    write_profiles_csv,
)

SPACE3 = ("A", "B", "C")


def make_traj(rounds, space=SPACE3):
    return DebateTrajectory("q", tuple(space), rounds)


def random_trajectories(rng, count, max_agents=4, max_rounds=3, max_labels=3):
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_agents + 1))
        t = int(rng.integers(1, max_rounds + 1))
        k = int(rng.integers(2, max_labels + 1))
        space = SPACE3[:k]
        out.append(make_traj(oracle.random_rounds(rng, n, t, space), space))
    return out


def test_every_metric_matches_brute_force():
    rng = np.random.default_rng(12345)
    cfg = MetricConfig(lambda_mix=0.5)
    for traj in random_trajectories(rng, 500):
        rounds, final, order = traj.rounds, traj.final_round, traj.answer_space
        prof = full_profile(traj, cfg)
        assert abs(prof.flip_rate - oracle.brute_flip_rate(rounds)) < 1e-12
        assert abs(prof.belief_revision - oracle.brute_belief_revision(rounds)) < 1e-12
        assert abs(prof.u_intra - oracle.brute_intra(rounds, 0.5)) < 1e-12
        for t in range(len(rounds)):
            assert abs(prof.round_conflicts[t] - oracle.brute_round_conflict(rounds[t])) < 1e-12
        assert abs(prof.u_inter - oracle.brute_inter(rounds)) < 1e-12
        assert abs(prof.entropy_norm - oracle.brute_entropy(final)) < 1e-12
        assert prof.disagreement == oracle.brute_disagreement(final)
        assert abs(prof.loo_instability - oracle.brute_loo(final, order)) < 1e-12
        assert abs(prof.u_sys - oracle.brute_usys(final, order)) < 1e-12


def test_worked_fixture_two_agents_two_rounds():
    # grid: round 0 [A, A]; round 1 [B, A]; round 2 [B, A]
    traj = make_traj((("A", "A"), ("B", "A"), ("B", "A")), ("A", "B"))
    cfg = MetricConfig(lambda_mix=0.5)
    prof = full_profile(traj, cfg)
    assert prof.flip_rate == 0.25
    assert prof.belief_revision == 0.5
    assert prof.u_intra == 0.375
    assert prof.u_inter == 2 / 3
    assert prof.entropy_norm == 1.0
    assert prof.disagreement == 1.0
    assert prof.loo_instability == 0.5
    assert prof.u_sys == 5 / 6


def test_full_profile_consistent_with_parts():
    rng = np.random.default_rng(99)
    cfg = MetricConfig(lambda_mix=0.3)
    for traj in random_trajectories(rng, 50):
        prof = full_profile(traj, cfg)
        assert prof.u_intra == 0.3 * prof.flip_rate + 0.7 * prof.belief_revision
        assert prof.u_inter == sum(prof.round_conflicts) / len(prof.round_conflicts)
        assert prof.u_sys == (prof.entropy_norm + prof.disagreement + prof.loo_instability) / 3.0


def test_metrics_bounded_in_unit_interval():
    rng = np.random.default_rng(4242)
    cfg = MetricConfig()
    for traj in random_trajectories(rng, 200):
        prof = full_profile(traj, cfg)
        for v in (
            prof.flip_rate, prof.belief_revision, prof.u_intra, prof.u_inter,
            prof.entropy_norm, prof.disagreement, prof.loo_instability, prof.u_sys,
        ):
            assert 0.0 <= v <= 1.0


def test_unanimous_static_debate_is_all_zero():
    traj = make_traj((("A", "A", "A"), ("A", "A", "A")))
    prof = full_profile(traj, MetricConfig())
    assert prof.flip_rate == 0.0
    assert prof.u_intra == 0.0
    assert prof.u_inter == 0.0
    assert prof.entropy_norm == 0.0
    assert prof.disagreement == 0.0
    assert prof.loo_instability == 0.0
    assert prof.u_sys == 0.0


def test_round_0_counts_in_inter_uncertainty():
    # disagreement only at round 0 still registers
    traj = make_traj((("A", "B"), ("A", "A")))
    assert full_profile(traj, MetricConfig()).u_inter == 0.5
    assert round_conflict(traj, 0) == 1.0
    assert round_conflict(traj, 1) == 0.0
    with pytest.raises(ValueError, match="out of range"):
        round_conflict(traj, 2)


def test_entropy_base_is_distinct_answer_count():
    # two distinct answers among 3 agents: H = -(2/3 ln 2/3 + 1/3 ln 1/3)/ln 2
    traj = make_traj((("A", "A", "B"), ("A", "A", "B")))
    expected = oracle.brute_entropy(("A", "A", "B"))
    assert abs(normalized_entropy(traj) - expected) < 1e-15
    assert 0.0 < normalized_entropy(traj) < 1.0
    # all distinct: maximal entropy 1 regardless of K
    traj3 = make_traj((("A", "B", "C"), ("A", "B", "C")))
    assert abs(normalized_entropy(traj3) - 1.0) < 1e-12


def test_lambda_mix_validation():
    with pytest.raises(ValueError, match="lambda_mix"):
        MetricConfig(lambda_mix=1.5)
    MetricConfig(lambda_mix=0.0)
    MetricConfig(lambda_mix=1.0)


def test_profile_csv_format():
    prof = UncertaintyProfile(
        flip_rate=0.25, belief_revision=0.5, u_intra=0.375,
        round_conflicts=(0.0, 1.0, 1.0), u_inter=2 / 3,
        entropy_norm=1.0, disagreement=1.0, loo_instability=0.5, u_sys=5 / 6,
    )
    assert PROFILE_CSV_HEADER == "question_id,F,M,U_intra,U_inter,H,D,L,U_sys"
    row = profile_csv_row("q-7", prof)
    assert row == "q-7,0.250000,0.500000,0.375000,0.666667,1.000000,1.000000,0.500000,0.833333"
    buf = io.StringIO()
    write_profiles_csv(buf, [("q-7", prof)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == PROFILE_CSV_HEADER
    assert lines[1] == row
