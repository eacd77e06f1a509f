"""Uncertainty metrics against the brute-force oracle and the worked fixture."""

from __future__ import annotations

import io

import numpy as np
import pytest

import brute_oracle as oracle
from madlab.debate import DebateTrajectory, validate_trajectory
from madlab.metrics import (
    PROFILE_CSV_HEADER,
    MetricConfig,
    ProfileBatch,
    full_profile,
    profiles_from_codes,
    write_profiles_csv,
)
from reference_impl import profile_row, same_profiles

SPACE3 = ("A", "B", "C")
LABELS26 = tuple(chr(ord("A") + c) for c in range(26))
FLOAT_FIELDS = (
    "flip_rate", "belief_revision", "u_intra", "u_inter",
    "entropy_norm", "disagreement", "loo_instability", "u_sys",
)


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
        rounds, final, order = traj.rounds, traj.rounds[-1], traj.answer_space
        prof = full_profile(traj, cfg)
        assert abs(prof.flip_rate[0] - oracle.brute_flip_rate(rounds)) < 1e-12
        assert abs(prof.belief_revision[0] - oracle.brute_belief_revision(rounds)) < 1e-12
        assert abs(prof.u_intra[0] - oracle.brute_intra(rounds, 0.5)) < 1e-12
        for t in range(len(rounds)):
            assert abs(prof.round_conflicts[0, t] - oracle.brute_round_conflict(rounds[t])) < 1e-12
        assert abs(prof.u_inter[0] - oracle.brute_inter(rounds)) < 1e-12
        assert abs(prof.entropy_norm[0] - oracle.brute_entropy(final)) < 1e-12
        assert prof.disagreement[0] == oracle.brute_disagreement(final)
        assert abs(prof.loo_instability[0] - oracle.brute_loo(final, order)) < 1e-12
        assert abs(prof.u_sys[0] - oracle.brute_usys(final, order)) < 1e-12


def test_worked_fixture_two_agents_two_rounds():
    # grid: round 0 [A, A]; round 1 [B, A]; round 2 [B, A]
    traj = make_traj((("A", "A"), ("B", "A"), ("B", "A")), ("A", "B"))
    prof = full_profile(traj, MetricConfig(lambda_mix=0.5))
    assert prof.flip_rate.tolist() == [0.25]
    assert prof.belief_revision.tolist() == [0.5]
    assert prof.u_intra.tolist() == [0.375]
    assert prof.u_inter.tolist() == [2 / 3]
    assert prof.entropy_norm.tolist() == [1.0]
    assert prof.disagreement.tolist() == [1.0]
    assert prof.loo_instability.tolist() == [0.5]
    assert prof.u_sys.tolist() == [5 / 6]
    assert prof.winners.tolist() == [0]


def test_full_profile_consistent_with_parts():
    rng = np.random.default_rng(99)
    cfg = MetricConfig(lambda_mix=0.3)
    for traj in random_trajectories(rng, 50):
        prof = full_profile(traj, cfg)
        conflicts = prof.round_conflicts[0].tolist()
        assert prof.u_intra[0] == 0.3 * prof.flip_rate[0] + 0.7 * prof.belief_revision[0]
        assert prof.u_inter[0] == sum(conflicts) / len(conflicts)
        assert prof.u_sys[0] == (prof.entropy_norm[0] + prof.disagreement[0]
                                 + prof.loo_instability[0]) / 3.0


def test_metrics_bounded_in_unit_interval():
    rng = np.random.default_rng(4242)
    cfg = MetricConfig()
    for traj in random_trajectories(rng, 200):
        prof = full_profile(traj, cfg)
        for name in FLOAT_FIELDS:
            assert 0.0 <= getattr(prof, name)[0] <= 1.0
        assert np.all((0.0 <= prof.round_conflicts) & (prof.round_conflicts <= 1.0))


def test_unanimous_static_debate_is_all_zero():
    traj = make_traj((("A", "A", "A"), ("A", "A", "A")))
    prof = full_profile(traj, MetricConfig())
    for name in FLOAT_FIELDS:
        assert getattr(prof, name).tolist() == [0.0], name
    assert prof.round_conflicts.tolist() == [[0.0, 0.0]]


def test_round_0_counts_in_inter_uncertainty():
    # disagreement only at round 0 still registers
    prof = full_profile(make_traj((("A", "B"), ("A", "A"))), MetricConfig())
    assert prof.round_conflicts.tolist() == [[1.0, 0.0]]
    assert prof.u_inter.tolist() == [0.5]


def test_entropy_base_is_distinct_answer_count():
    # two distinct answers among 3 agents: H = -(2/3 ln 2/3 + 1/3 ln 1/3)/ln 2
    h = full_profile(make_traj((("A", "A", "B"), ("A", "A", "B"))), MetricConfig()).entropy_norm[0]
    assert abs(h - oracle.brute_entropy(("A", "A", "B"))) < 1e-15
    assert 0.0 < h < 1.0
    # all distinct: maximal entropy 1 regardless of K
    traj3 = make_traj((("A", "B", "C"), ("A", "B", "C")))
    assert abs(full_profile(traj3, MetricConfig()).entropy_norm[0] - 1.0) < 1e-12


# ------------------------------------------------------------ batched kernel


def code_grids(rng, b, n, t, k):
    """b random (t+1, n) code grids; half of them draw from few labels, so
    unanimous rounds and tied final rounds are common."""
    few = rng.integers(0, min(k, 3), size=(b, t + 1, n))
    any_ = rng.integers(0, k, size=(b, t + 1, n))
    return np.where(rng.random(b)[:, None, None] < 0.5, few, any_)


def check_against_references(codes, k, lam):
    """profiles_from_codes on a batch equals the brute oracle and full_profile
    of each debate alone, with exact ==, and its winner is brute_majority's."""
    cfg = MetricConfig(lambda_mix=lam)
    space = LABELS26[:k]
    batch = profiles_from_codes(codes, k, cfg)
    assert batch.winners.shape == (len(codes),)
    for name in FLOAT_FIELDS:
        column = getattr(batch, name)
        assert column.dtype == np.float64 and column.shape == (len(codes),)
    assert batch.round_conflicts.shape == codes.shape[:2]
    for j, grid in enumerate(codes.tolist()):
        rounds = tuple(tuple(space[a] for a in row) for row in grid)
        final = rounds[-1]
        assert same_profiles(full_profile(make_traj(rounds, space), cfg), profile_row(batch, j))
        assert space[batch.winners[j]] == oracle.brute_majority(final, space)
        assert batch.flip_rate[j] == oracle.brute_flip_rate(rounds)
        assert batch.belief_revision[j] == oracle.brute_belief_revision(rounds)
        assert batch.u_intra[j] == oracle.brute_intra(rounds, lam)
        assert batch.round_conflicts[j].tolist() == [oracle.brute_round_conflict(r) for r in rounds]
        assert batch.u_inter[j] == oracle.brute_inter(rounds)
        assert batch.entropy_norm[j] == oracle.brute_entropy(final)
        assert batch.disagreement[j] == oracle.brute_disagreement(final)
        assert batch.loo_instability[j] == oracle.brute_loo(final, space)
        assert batch.u_sys[j] == oracle.brute_usys(final, space)


@pytest.mark.parametrize("k", [2, 3, 5, 26])
def test_kernel_matches_oracle_and_full_profile_exactly(k):
    rng = np.random.default_rng(1000 + k)
    for n in range(2, 8):
        for t in (1, 2, 4, 7, 8):
            lam = (0.3, 0.5, 0.85)[(n + t) % 3]
            check_against_references(code_grids(rng, 12, n, t, k), k, lam)


def test_kernel_edge_grids():
    # N = 2, T = 1: every split final round is a tie, won by the lower code
    grids = np.array([[[0, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 0], [1, 0]]])
    check_against_references(grids, 2, 0.5)
    batch = profiles_from_codes(grids, 2, MetricConfig())
    assert batch.winners.tolist() == [0, 1, 0]
    assert batch.loo_instability[0] == 0.5 and batch.u_sys[1] == 0.0
    # unanimous rows, and tied final rounds among four and six agents, K = 26
    unanimous = np.full((1, 4, 5), 25)
    tied = np.array([[[3, 3, 9, 9], [9, 3, 3, 9], [25, 3, 25, 3]]])
    tied3 = np.array([[[0] * 6, [5, 2, 7, 2, 7, 5]]])
    for grids in (unanimous, tied, tied3):
        check_against_references(grids, 26, 0.3)
    assert profiles_from_codes(unanimous, 26, MetricConfig()).u_sys[0] == 0.0
    assert profiles_from_codes(tied, 26, MetricConfig()).winners.tolist() == [3]
    assert profiles_from_codes(tied3, 26, MetricConfig()).winners.tolist() == [2]


def test_kernel_matches_oracle_on_wide_ensembles():
    # np.log and math.log disagree in the last bit on a few shares c/n, 14/37
    # among them on x86-64 numpy 2.x; these 37-agent final rounds (labels in
    # order of first appearance) carry that difference into the entropy.
    rng = np.random.default_rng(37)
    for counts in ((14, 1, 22), (14, 16, 7), (14, 1, 3, 19), (9, 28)):
        grids = code_grids(rng, 4, 37, 2, 5)
        grids[:, -1] = np.repeat(np.arange(len(counts)), counts)
        check_against_references(grids, 5, 0.5)


def test_kernel_does_not_depend_on_the_rest_of_the_batch():
    rng = np.random.default_rng(7)
    codes = code_grids(rng, 40, 5, 6, 4)
    batch = profiles_from_codes(codes, 4, MetricConfig())
    for j in range(len(codes)):
        alone = profiles_from_codes(codes[j : j + 1], 4, MetricConfig())
        assert same_profiles(alone, profile_row(batch, j))
    empty = profiles_from_codes(codes[:0], 4, MetricConfig())
    assert empty.winners.shape == (0,) and empty.u_sys.shape == (0,)


def test_kernel_rejects_bad_codes_and_shapes():
    with pytest.raises(ValueError, match="shape"):
        profiles_from_codes(np.zeros((3, 1, 4), dtype=np.int64), 2, MetricConfig())
    with pytest.raises(ValueError, match="shape"):
        profiles_from_codes(np.zeros((3, 2, 1), dtype=np.int64), 2, MetricConfig())
    with pytest.raises(ValueError, match="shape"):
        profiles_from_codes(np.zeros((2, 2), dtype=np.int64), 2, MetricConfig())
    with pytest.raises(ValueError, match="0..2"):
        profiles_from_codes(np.full((1, 2, 2), 3), 3, MetricConfig())
    with pytest.raises(ValueError, match="0..2"):
        profiles_from_codes(np.full((1, 2, 2), -1), 3, MetricConfig())


def test_full_profile_reads_labels_by_their_place_in_the_answer_space():
    # the winner is a code; C beats A on two votes to one only as the code 2
    traj = make_traj((("C", "A", "C"), ("C", "A", "C")))
    assert full_profile(traj, MetricConfig()).winners.tolist() == [2]
    codes = np.array([[[2, 0, 2], [2, 0, 2]]])
    assert same_profiles(full_profile(traj, MetricConfig()),
                         profiles_from_codes(codes, 3, MetricConfig()))


def test_full_profile_raises_the_validator_text():
    # an out-of-space label and a ragged grid fail with validate_trajectory's text
    for rounds, problem in (
        ((("A", "Z"), ("A", "A")), "label 'Z' at (t=0, i=1) not in the answer space"),
        ((("A", "B"), ("A",)), "grid gap at t=1: 1 answers, round 0 has 2"),
    ):
        traj = make_traj(rounds)
        assert validate_trajectory(traj) == [problem]
        with pytest.raises(ValueError) as info:
            full_profile(traj, MetricConfig())
        assert str(info.value) == problem


def test_lambda_mix_validation():
    with pytest.raises(ValueError, match="lambda_mix"):
        MetricConfig(lambda_mix=1.5)
    MetricConfig(lambda_mix=0.0)
    MetricConfig(lambda_mix=1.0)


def test_profile_csv_format():
    batch = ProfileBatch(
        flip_rate=np.array([0.25]), belief_revision=np.array([0.5]), u_intra=np.array([0.375]),
        round_conflicts=np.array([[0.0, 1.0, 1.0]]), u_inter=np.array([2 / 3]),
        entropy_norm=np.array([1.0]), disagreement=np.array([1.0]),
        loo_instability=np.array([0.5]), u_sys=np.array([5 / 6]), winners=np.array([0]),
    )
    assert PROFILE_CSV_HEADER == "question_id,F,M,U_intra,U_inter,H,D,L,U_sys"
    row = "q-7,0.250000,0.500000,0.375000,0.666667,1.000000,1.000000,0.500000,0.833333"
    buf = io.StringIO()
    write_profiles_csv(buf, ["q-7"], batch)
    lines = buf.getvalue().splitlines()
    assert lines[0] == PROFILE_CSV_HEADER
    assert lines[1] == row
