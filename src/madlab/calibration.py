"""Two-phase agent-tailored reward-coefficient calibration.

Phase 1 (warm-up) rolls out debates on a held-out warm-up split and averages
each agent's restricted uncertainty readings: the agent's own flip/revision
mix, the disagreement share of the answer pairs that contain the agent, and
how often removing the agent flips the final vote. The readings come from the
rollouts' answer codes, counted by the metric kernel's vote helper, as one
(3, N) array with a column per seat.

Phase 2 turns those readings into per-agent reward coefficients, one (N,)
array each, through monotone closed forms: agents that ran hot during warm-up
get their uncertainty-facing coefficients scaled up — and their task weight
scaled down — so optimization pressure lands where the instability is. All-zero
readings return every coefficient at its base value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from madlab.metrics import MetricConfig, _votes
from madlab.policy import QuestionSet
from madlab.rewards import CoefficientSet


@dataclass(frozen=True)
class CalibrationConfig:
    """Scaling strength, base coefficients, and the warm-up split size."""

    kappa: float = 1.5
    alpha_base: float = 1.0
    beta_base: float = 1.0
    gamma_base: float = 1.0
    lambda_base: float = 1.0
    eta_base: float = 0.01
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")
        for name in ("alpha_base", "beta_base", "gamma_base", "lambda_base", "eta_base"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0, 1)")
        top = 1.0 + self.kappa  # the largest factor calibration scales a base by
        if not math.isfinite(self.alpha_base * top + self.beta_base * top
                             + self.gamma_base * top + self.lambda_base):
            raise ValueError("alpha_base, beta_base, gamma_base, lambda_base and kappa "
                             "overflow the largest reward total")
        if not math.isfinite(self.eta_base * top):
            raise ValueError("eta_base and kappa overflow the largest anchor strength")


def split_warmup(questions: QuestionSet, fraction: float) -> tuple[QuestionSet, QuestionSet]:
    """Split questions into (warm-up, training) slices; the slices are disjoint.

    The warm-up slice takes the first ceil(fraction * n) questions and must
    leave at least one question for training.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_warm = math.ceil(fraction * len(questions))
    if n_warm >= len(questions):
        raise ValueError(
            f"warm-up split of {n_warm} would consume all {len(questions)} questions"
        )
    return questions[:n_warm], questions[n_warm:]


def warmup_profile(answers: np.ndarray, k: int, config: MetricConfig) -> np.ndarray:
    """Each agent's restricted uncertainty readings, averaged over warm-up runs.

    answers holds the warm-up debates' (B, T+1, N) answer codes over k labels.
    Returns a (3, N) float64 array in [0, 1]; column i holds agent i's U_intra,
    the flip/revision mix of its own answer sequence; its U_inter, the mean
    disagreement over rounds and peer pairs containing i; and its
    leave-one-out reading, the fraction of debates where dropping agent i
    changes the final vote. Sums run over rounds, then over debates, left to
    right.
    """
    if len(answers) == 0:
        raise ValueError("warm-up set must be non-empty")
    counts, _, pivots = _votes(answers, k)
    b, steps, n = answers.shape
    lam = config.lambda_mix
    flips = (answers[:, 1:] != answers[:, :-1]).sum(axis=1) / (steps - 1)
    revision = (answers[:, 0] != answers[:, -1]).astype(np.float64)
    # Share of agent i's n - 1 peers that answer differently at round t.
    conflict = (n - np.take_along_axis(counts, answers, axis=2)) / (n - 1)
    per_debate = (
        lam * flips + (1.0 - lam) * revision,
        np.cumsum(conflict, axis=1)[:, -1] / steps,
        pivots.astype(np.float64),
    )
    # np.cumsum adds left to right like Python's +=; np.sum may pair its terms.
    return np.cumsum(per_debate, axis=1)[:, -1] / b


def calibrate_coefficients(readings: np.ndarray, config: CalibrationConfig) -> CoefficientSet:
    """Closed-form per-agent coefficients from warmup_profile's (3, N) readings.

    alpha, beta and gamma scale up linearly with U_intra, U_inter and the
    leave-one-out reading; the anchor strength scales up, and the task weight
    down, with the system reading, the mean of the three. kappa = 0 or an
    all-zero reading returns every coefficient at its base value.
    """
    intra, inter, loo = readings
    u_sys = (intra + inter + loo) / 3.0
    k = config.kappa
    return CoefficientSet(
        alpha=config.alpha_base * (1.0 + k * intra),
        beta=config.beta_base * (1.0 + k * inter),
        gamma=config.gamma_base * (1.0 + k * loo),
        lambda_task=config.lambda_base / (1.0 + k * u_sys),
        eta_anchor=config.eta_base * (1.0 + k * u_sys),
    )
