"""Three-level uncertainty metrics over debate trajectories.

Within-agent: flip rate F (adjacent-round answer changes, all N*T transitions)
and belief revision M (first-vs-last answer changes), mixed as
U_intra = lam*F + (1-lam)*M.

Between-agent: round conflict C_t (disagreeing fraction of unordered agent
pairs at round t) averaged over all T+1 rounds into U_inter.

System: normalized final-round entropy (base = number of distinct final
answers, 0 when unanimous), a binary disagreement indicator, and leave-one-out
vote instability, averaged into U_sys. Every metric lives in [0, 1].

full_profile is the single source of these readings: rewards, replay
priorities, training history and every artifact read a trajectory's profile
instead of scoring its answer grid again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable

from madlab.debate import DebateTrajectory, ensemble_answer, leave_one_out_votes, with_fp


@dataclass(frozen=True)
class MetricConfig:
    """Mixing weight for the within-agent score: U_intra = lam*F + (1-lam)*M."""

    lambda_mix: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError(f"lambda_mix must be in [0, 1], got {self.lambda_mix}")


@dataclass(frozen=True)
class UncertaintyProfile:
    """All uncertainty readings of one trajectory."""

    flip_rate: float
    belief_revision: float
    u_intra: float
    round_conflicts: tuple[float, ...]
    u_inter: float
    entropy_norm: float
    disagreement: float
    loo_instability: float
    u_sys: float


def flip_rate(traj: DebateTrajectory) -> float:
    """Fraction of the N*T adjacent-round transitions where an agent flips."""
    n, t_rounds = traj.num_agents, traj.num_refinement_rounds
    flips = 0
    for prev, cur in zip(traj.rounds, traj.rounds[1:]):
        flips += sum(a != b for a, b in zip(prev, cur))
    return flips / (n * t_rounds)


def belief_revision(traj: DebateTrajectory) -> float:
    """Fraction of agents whose final answer differs from their initial one."""
    first, last = traj.rounds[0], traj.rounds[-1]
    return sum(a != b for a, b in zip(first, last)) / traj.num_agents


def round_conflict(traj: DebateTrajectory, t: int) -> float:
    """Disagreeing fraction of the N(N-1)/2 unordered agent pairs at round t."""
    if not 0 <= t < len(traj.rounds):
        raise ValueError(f"round index {t} out of range")
    row = traj.rounds[t]
    n = len(row)
    # agreeing pairs per label: c choose 2; disagreement is the complement
    agree = sum(c * (c - 1) // 2 for c in Counter(row).values())
    total = n * (n - 1) // 2
    return (total - agree) / total


def normalized_entropy(traj: DebateTrajectory) -> float:
    """Final-round answer entropy normalized by log K, K = distinct answers.

    Defined as 0 when the final round is unanimous (K = 1).
    """
    counts = Counter(traj.final_round)
    k = len(counts)
    if k == 1:
        return 0.0
    n = len(traj.final_round)
    h = -sum((c / n) * math.log(c / n) for c in counts.values())
    return h / math.log(k)


def disagreement_indicator(traj: DebateTrajectory) -> float:
    """1.0 unless the final round is unanimous."""
    return 0.0 if len(set(traj.final_round)) == 1 else 1.0


def full_profile(traj: DebateTrajectory, config: MetricConfig) -> UncertaintyProfile:
    """Compute every metric once, reusing the shared pieces.

    The leave-one-out reading is the fraction of agents whose removal changes
    the final majority answer.
    """
    f = flip_rate(traj)
    m = belief_revision(traj)
    lam = config.lambda_mix
    conflicts = tuple(round_conflict(traj, t) for t in range(len(traj.rounds)))
    h = normalized_entropy(traj)
    d = disagreement_indicator(traj)
    full_winner = ensemble_answer(traj)
    loo_votes = leave_one_out_votes(traj)
    loo = sum(v.winner != full_winner for v in loo_votes) / len(loo_votes)
    return UncertaintyProfile(
        flip_rate=f,
        belief_revision=m,
        u_intra=lam * f + (1.0 - lam) * m,
        round_conflicts=conflicts,
        u_inter=sum(conflicts) / len(conflicts),
        entropy_norm=h,
        disagreement=d,
        loo_instability=loo,
        u_sys=(h + d + loo) / 3.0,
    )


PROFILE_CSV_HEADER = "question_id,F,M,U_intra,U_inter,H,D,L,U_sys"


def profile_csv_row(question_id: str, profile: UncertaintyProfile) -> str:
    """Fixed 6-decimal CSV row matching PROFILE_CSV_HEADER."""
    values = (
        profile.flip_rate,
        profile.belief_revision,
        profile.u_intra,
        profile.u_inter,
        profile.entropy_norm,
        profile.disagreement,
        profile.loo_instability,
        profile.u_sys,
    )
    return question_id + "," + ",".join(f"{v:.6f}" for v in values)


def write_profiles_csv(
    path_or_fp: str | IO[str],
    rows: Iterable[tuple[str, UncertaintyProfile]],
) -> None:
    """Write (question_id, profile) pairs as a profiles CSV."""

    def _write(fp: IO[str]) -> None:
        fp.write(PROFILE_CSV_HEADER + "\n")
        for question_id, profile in rows:
            fp.write(profile_csv_row(question_id, profile) + "\n")

    with_fp(path_or_fp, "w", _write)
