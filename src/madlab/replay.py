"""Uncertainty-prioritized experience replay with importance weights.

A buffer is a store over one training question set. Each entry is a
question's row in that set, its debate's (T+1, N) answer codes and a
non-negative priority U = (1 - r_intra) + (1 - r_inter) + (1 - r_sys), the
unit-weight sum of the complements of its reward components; the entries are
one array per field, oldest first. Sampling draws with probability
proportional to U**eta; eta = 0, or an all-zero buffer, degrades to uniform,
and a U**eta that overflows is refused.
Each draw gets the importance weight (1/len) / p, renormalized so the batch
mean is exactly 1 (so eta = 0 yields all-ones weights). Capacity eviction is
FIFO: a push keeps the newest capacity entries. The buffer rolls out nothing:
optim.train re-rolls its entries' questions and hands refresh the new codes
and priorities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from madlab.debate import write_trajectories
from madlab.policy import QuestionSet
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


def _priorities(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if (scores < 0.0).any():
        raise ValueError(f"replay score must be non-negative, got {scores.min()}")
    return scores


class ReplayBuffer:
    """FIFO-bounded store of scored debates over one question set, with
    prioritized sampling.

    The entries are parallel arrays, oldest first: index (the question's row),
    answers ((T+1, N) codes each), score, inserted_iteration and
    policy_version.
    """

    def __init__(self, config: ReplayConfig, questions: QuestionSet) -> None:
        self.config = config
        self.questions = questions
        empty = np.empty(0, dtype=np.int64)  # fields are rebound, never written into
        self.index = self.answers = self.inserted_iteration = self.policy_version = empty
        self.score = np.empty(0)

    def __len__(self) -> int:
        return len(self.index)

    def push(self, index: np.ndarray, answers: np.ndarray, scores: np.ndarray, iteration: int,
             policy_version: int) -> None:
        """Append B debates (question rows, (B, T+1, N) codes, priorities);
        keep the newest capacity entries."""
        new = [index, answers, _priorities(scores), np.full(len(index), iteration),
               np.full(len(index), policy_version)]
        old = [self.index, self.answers, self.score, self.inserted_iteration, self.policy_version]
        if len(self):  # answers takes its (T+1, N) shape from the first push
            new = [np.concatenate(pair) for pair in zip(old, new)]
        (self.index, self.answers, self.score, self.inserted_iteration,
         self.policy_version) = (np.asarray(f)[-self.config.capacity:] for f in new)

    def _probabilities(self) -> np.ndarray:
        n = len(self)
        eta = self.config.priority_exponent
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite sum is raised below
            weights = self.score**eta
            total = weights.sum()
        if not np.isfinite(total):
            raise ValueError(f"replay priorities score**priority_exponent overflow at "
                             f"priority_exponent = {eta}; lower it")
        if total == 0.0:
            return np.full(n, 1.0 / n)
        return weights / total

    def sample(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw entries with p ~ score**eta; returns their question rows and
        importance weights.

        Weights are (1/len)/p renormalized to batch mean 1, so uniform
        sampling (eta = 0) gives every draw weight exactly 1.
        """
        n = len(self)
        if count == 0:
            return self.index[:0], np.ones(0)
        if not n:
            raise ValueError("cannot sample from an empty replay buffer")
        probs = self._probabilities()
        drawn = rng.choice(n, size=count, replace=True, p=probs)
        raw = 1.0 / (n * probs[drawn])
        return self.index[drawn], raw / raw.mean()

    def refresh(self, answers: np.ndarray, scores: np.ndarray, policy_version: int) -> None:
        """Replace every entry's codes and priority, in entry order, with a
        re-roll's (B, T+1, N) codes and (B,) priorities, and restamp its
        policy version; index and inserted_iteration stay."""
        if len(answers) != len(self) or len(scores) != len(self):
            raise ValueError(f"refresh needs {len(self)} debates and scores, "
                             f"got {len(answers)} and {len(scores)}")
        self.score, self.answers = _priorities(scores), answers
        self.policy_version = np.full(len(self), policy_version)

    def dump(self, path_or_fp: str | IO[str]) -> None:
        """Trajectory .jsonl with replay_score / policy_version side fields."""
        write_trajectories(path_or_fp, self.questions[self.index], self.answers,
                           {"replay_score": self.score, "policy_version": self.policy_version,
                            "inserted_iteration": self.inserted_iteration})
