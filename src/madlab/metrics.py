"""Three-level uncertainty metrics over debate trajectories.

Within-agent: flip rate F (adjacent-round answer changes, all N*T transitions)
and belief revision M (first-vs-last answer changes), mixed as
U_intra = lam*F + (1-lam)*M.

Between-agent: round conflict C_t (disagreeing fraction of unordered agent
pairs at round t) averaged over all T+1 rounds into U_inter.

System: normalized final-round entropy (base = number of distinct final
answers, 0 when unanimous), a binary disagreement indicator, and leave-one-out
vote instability, averaged into U_sys. Every metric lives in [0, 1].

profiles_from_codes is the batch entry point and the single source of these
readings: it profiles a (B, T+1, N) array of answer codes (indices into the
answer space) in numpy into a ProfileBatch, each reading a (B,) column, plus
the (B, T+1) round conflicts and each debate's winner. Rewards, replay
priorities, training history, summaries, artifacts and the statistics
reports read the columns without building per-debate objects; full_profile
reads one trajectory's label grid as a batch of one. The vote is counted
once, in _votes: per-round answer counts, the final-round winner with its
lowest-code tie-break, and which agents' removal changes it; warm-up
calibration reads the same helper. The floats equal a per-trajectory
evaluation in Python bit for bit: conflicts are summed left to right over
rounds, and the entropy terms come from math.log and are summed in the order
labels first appear in the final round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from madlab.debate import DebateTrajectory, answer_index, validate_trajectory, write_csv


@dataclass(frozen=True)
class MetricConfig:
    """Mixing weight for the within-agent score: U_intra = lam*F + (1-lam)*M."""

    lambda_mix: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError(f"lambda_mix must be in [0, 1], got {self.lambda_mix}")


@dataclass(frozen=True, eq=False)
class ProfileBatch:
    """The readings of B debates as columns.

    Each reading is a (B,) float64 array, round_conflicts is (B, T+1), and
    winners holds each debate's ensemble winner code.
    """

    flip_rate: np.ndarray
    belief_revision: np.ndarray
    u_intra: np.ndarray
    round_conflicts: np.ndarray
    u_inter: np.ndarray
    entropy_norm: np.ndarray
    disagreement: np.ndarray
    loo_instability: np.ndarray
    u_sys: np.ndarray
    winners: np.ndarray


def _votes(answers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round answer counts, each debate's winner and its leave-one-out pivots.

    counts[b, t, c] is how many agents answer c at round t. The winner is the
    final round's majority code, ties going to the lowest code, so the tie
    breaks in answer-space order. pivots[b, i] is True when removing agent i
    from the final round changes that winner.
    """
    if answers.ndim != 3 or answers.shape[1] < 2 or answers.shape[2] < 2:
        raise ValueError(f"need (B, T+1 >= 2, N >= 2) answer codes, got shape {answers.shape}")
    if answers.size and not 0 <= answers.min() <= answers.max() < k:
        raise ValueError(f"answer codes must lie in 0..{k - 1}")
    b, steps, n = answers.shape
    slots = np.arange(b * steps)[:, None] * k
    counts = np.bincount((slots + answers.reshape(b * steps, n)).ravel(), minlength=b * steps * k)
    counts = counts.reshape(b, steps, k)
    final, final_counts = answers[:, -1], counts[:, -1]
    winners = final_counts.argmax(axis=1)
    loo_counts = final_counts[:, None, :] - (final[:, :, None] == np.arange(k))
    return counts, winners, loo_counts.argmax(axis=2) != winners[:, None]


def profiles_from_codes(answers: np.ndarray, k: int, config: MetricConfig) -> ProfileBatch:
    """Every debate's readings and ensemble winner from its answer codes.

    answers[b, t, i] is agent i's answer at round t of debate b, as an index
    into an answer space of k labels; all B debates have N >= 2 agents and
    T >= 1 refinement rounds. The winner is the final round's majority code,
    ties going to the lowest code. The leave-one-out reading is the fraction
    of agents whose removal changes that winner.
    """
    counts, winners, pivots = _votes(answers, k)
    b, steps, n = answers.shape
    lam = config.lambda_mix
    flip = (answers[:, 1:] != answers[:, :-1]).sum(axis=(1, 2)) / (n * (steps - 1))
    revision = (answers[:, 0] != answers[:, -1]).sum(axis=1) / n
    intra = lam * flip + (1.0 - lam) * revision
    pairs = n * (n - 1) // 2
    conflicts = (pairs - (counts * (counts - 1) // 2).sum(axis=2)) / pairs
    inter = np.cumsum(conflicts, axis=1)[:, -1] / steps  # rounds added left to right

    final, final_counts = answers[:, -1], counts[:, -1]
    distinct = (final_counts > 0).sum(axis=1)
    # -sum over distinct labels of p log p, each label's term added where the
    # label first appears in the final round.
    term = np.array([0.0] + [(c / n) * math.log(c / n) for c in range(1, n + 1)])
    voter_terms = term[np.take_along_axis(final_counts, final, axis=1)]
    neg_h = np.zeros(b)
    for i in range(n):
        first = (final[:, :i] != final[:, i : i + 1]).all(axis=1)
        neg_h += np.where(first, voter_terms[:, i], 0.0)
    # Unanimous rounds read 0 below; the 1.0 placeholders keep log 1 = 0 out of the division.
    log_distinct = np.array([1.0, 1.0] + [math.log(d) for d in range(2, n + 1)])
    entropy = np.where(distinct == 1, 0.0, -neg_h / log_distinct[distinct])
    disagreement = (distinct > 1).astype(np.float64)
    loo = pivots.sum(axis=1) / n
    u_sys = (entropy + disagreement + loo) / 3.0

    return ProfileBatch(flip, revision, intra, conflicts, inter, entropy, disagreement, loo,
                        u_sys, winners)


def full_profile(traj: DebateTrajectory, config: MetricConfig) -> ProfileBatch:
    """One trajectory's readings as a batch of one; a malformed trajectory
    raises ValueError with validate_trajectory's problems."""
    problems = validate_trajectory(traj)
    if problems:
        raise ValueError("; ".join(problems))
    index = answer_index(traj.answer_space)
    codes = np.array([[[index[a] for a in row] for row in traj.rounds]], dtype=np.int64)
    return profiles_from_codes(codes, len(traj.answer_space), config)


PROFILE_CSV_HEADER = "question_id,F,M,U_intra,U_inter,H,D,L,U_sys"


def write_profiles_csv(
    path_or_fp: str | IO[str], question_ids: Sequence[str], profiles: ProfileBatch
) -> None:
    """Write each debate's readings as one profiles CSV row."""
    rows = np.column_stack([
        profiles.flip_rate, profiles.belief_revision, profiles.u_intra, profiles.u_inter,
        profiles.entropy_norm, profiles.disagreement, profiles.loo_instability, profiles.u_sys,
    ]).tolist()
    write_csv(path_or_fp, PROFILE_CSV_HEADER,
              ([question_id, *values] for question_id, values in zip(question_ids, rows)))
