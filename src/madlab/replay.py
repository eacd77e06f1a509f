"""Uncertainty-prioritized experience replay with importance weights.

Each entry is a question, its (T+1, H, K) tilts and its debate's (T+1, N)
answer codes, with a non-negative priority U = (1 - r_intra) + (1 - r_inter) +
(1 - r_sys), the unit-weight sum of the complements of its reward components.
Sampling draws with probability proportional to U**eta; eta = 0, or an
all-zero buffer, degrades to uniform.
Each draw gets the importance weight (1/len) / p, renormalized so the batch
mean is exactly 1 (so eta = 0 yields all-ones weights). Capacity eviction is
FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from madlab.debate import write_trajectories
from madlab.policy import SyntheticQuestion, derive_key
from madlab.rewards import RewardBatch


@dataclass(frozen=True)
class ReplayConfig:
    """Buffer shape, priority exponent, and refresh cadence."""

    enabled: bool = True
    capacity: int = 1024
    priority_exponent: float = 1.0  # eta
    fraction: float = 0.25  # share of each training minibatch drawn from the buffer
    refresh_period: int = 50  # iterations between re-rollouts of stored questions; 0 = never

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.priority_exponent < 0.0:
            raise ValueError("priority_exponent must be non-negative")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.refresh_period < 0:
            raise ValueError("refresh_period must be non-negative")


def replay_score(rewards: RewardBatch) -> np.ndarray:
    """(B,) priorities: each trajectory's unit-weight sum of its reward complements.

    Summing 1 - r, not F + U_inter + U_sys, is deliberate: the two differ in
    the last bit on some trajectories, and stored priorities follow the
    reward components.
    """
    return (1.0 - rewards.r_intra) + (1.0 - rewards.r_inter) + (1.0 - rewards.r_sys)


@dataclass
class BufferEntry:
    """A stored, scored debate: its question, (T+1, H, K) tilts and (T+1, N) answer codes."""

    question: SyntheticQuestion
    tilts: np.ndarray
    answers: np.ndarray
    score: float
    inserted_iteration: int
    policy_version: int


class ReplayBuffer:
    """FIFO-bounded store of scored debates with prioritized sampling."""

    def __init__(self, config: ReplayConfig) -> None:
        self.config = config
        self.entries: deque[BufferEntry] = deque(maxlen=config.capacity)

    def __len__(self) -> int:
        return len(self.entries)

    def push(
        self,
        question: SyntheticQuestion,
        tilts: np.ndarray,
        answers: np.ndarray,
        score: float,
        iteration: int = 0,
        policy_version: int = 0,
    ) -> None:
        if score < 0.0:
            raise ValueError(f"replay score must be non-negative, got {score}")
        self.entries.append(
            BufferEntry(
                question=question,
                tilts=tilts,
                answers=answers,
                score=float(score),
                inserted_iteration=iteration,
                policy_version=policy_version,
            )
        )

    def _probabilities(self) -> np.ndarray:
        n = len(self.entries)
        eta = self.config.priority_exponent
        if eta == 0.0:
            return np.full(n, 1.0 / n)
        scores = np.array([e.score for e in self.entries], dtype=np.float64)
        weights = scores**eta
        total = weights.sum()
        if total == 0.0:
            return np.full(n, 1.0 / n)
        return weights / total

    def sample(
        self, count: int, rng: np.random.Generator
    ) -> list[tuple[BufferEntry, float]]:
        """Draw entries with p ~ score**eta; returns (entry, importance weight).

        Weights are (1/len)/p renormalized to batch mean 1, so uniform
        sampling (eta = 0) gives every draw weight exactly 1.
        """
        if count == 0:
            return []
        if not self.entries:
            raise ValueError("cannot sample from an empty replay buffer")
        probs = self._probabilities()
        n = len(self.entries)
        idx = rng.choice(n, size=count, replace=True, p=probs)
        raw = 1.0 / (n * probs[idx])
        weights = raw / raw.mean()
        items = list(self.entries)
        return [(items[int(j)], float(w)) for j, w in zip(idx, weights)]

    def refresh(
        self,
        env,
        policies: np.ndarray,
        rollout_seed: int,
        policy_version: int,
        score: Callable[[list[SyntheticQuestion], np.ndarray], Sequence[float]],
    ) -> None:
        """Re-roll every stored question under the honest seats' (H, rows, K)
        logits, rescore, restamp.

        All entries roll as one batch on their stored tilts; score maps the
        questions and re-rolled (B, T+1, N) answer codes to one priority each.
        """
        questions = [entry.question for entry in self.entries]
        seeds = [derive_key(rollout_seed, j) for j in range(len(questions))]
        tilts = np.array([entry.tilts for entry in self.entries])  # shape (0,) when empty
        _, answers = env.rollout_batch(questions, tilts, policies, seeds)
        for entry, codes, priority in zip(self.entries, answers, score(questions, answers)):
            entry.answers = codes
            entry.score = priority
            entry.policy_version = policy_version

    def dump(self, path_or_fp: str | IO[str]) -> None:
        """Trajectory .jsonl with replay_score / policy_version side fields."""
        write_trajectories(
            path_or_fp,
            [e.question for e in self.entries],
            [e.answers for e in self.entries],
            extras=[
                {
                    "replay_score": e.score,
                    "policy_version": e.policy_version,
                    "inserted_iteration": e.inserted_iteration,
                }
                for e in self.entries
            ],
        )
