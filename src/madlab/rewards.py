"""Uncertainty-shaped rewards for batches of debate trajectories.

The rewards are a map of the batch's ProfileBatch columns, their single
source: the stance-stability reward is the exact complement of the flip rate,
and the agreement and system rewards are exact complements of their
uncertainty levels. A binary task reward, whether the debate's winner from
profiles_from_codes is correct, completes the components. Per-agent
coefficients, one (N,) array per component, weigh the components into each
agent's total reward, one array expression over the batch and the agents; the
anchor strength eta rides along in the same coefficient set because
calibration scales it with the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from madlab.metrics import ProfileBatch

ABLATABLE = ("alpha", "beta", "gamma")  # components CoefficientSet.zeroed can switch off


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Per-agent reward weights (alpha, beta, gamma, lambda) and KL strength eta,
    one (N,) float64 array each, entry i seat i's."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    lambda_task: np.ndarray
    eta_anchor: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.alpha)
        for name in ("beta", "gamma", "lambda_task", "eta_anchor"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"coefficient length mismatch: {name}")

    @property
    def num_agents(self) -> int:
        return len(self.alpha)

    def zeroed(self, *components: str) -> "CoefficientSet":
        """Copy with the named components' weights set to 0 (ablation switch)."""
        for component in components:
            if component not in ABLATABLE:
                raise ValueError(f"unknown component {component!r}, expected {'/'.join(ABLATABLE)}")
        return replace(self, **{c: np.zeros(self.num_agents) for c in components})


@dataclass(frozen=True, eq=False)
class RewardBatch:
    """Shared (B,) reward components plus each agent's weighted (B, N) total."""

    r_intra: np.ndarray
    r_inter: np.ndarray
    r_sys: np.ndarray
    r_task: np.ndarray
    total: np.ndarray


def total_reward(profiles: ProfileBatch, correct: np.ndarray,
                 coeffs: CoefficientSet) -> RewardBatch:
    """Weighted per-agent totals over the four shared components, per debate.

    r_intra = 1 - F, r_inter = 1 - U_inter and r_sys = 1 - U_sys come from
    the batch's profile columns; r_task is 1 where correct holds, that is
    where the debate's winner, the final round's majority that
    profiles_from_codes returns, is right, else 0. Each total adds
    alpha*r_intra + beta*r_inter + gamma*r_sys + lambda*r_task left to right.
    """
    r_i = 1.0 - profiles.flip_rate
    r_e = 1.0 - profiles.u_inter
    r_s = 1.0 - profiles.u_sys
    r_t = np.asarray(correct, dtype=np.float64)
    totals = (coeffs.alpha * r_i[:, None] + coeffs.beta * r_e[:, None]
              + coeffs.gamma * r_s[:, None] + coeffs.lambda_task * r_t[:, None])
    return RewardBatch(r_intra=r_i, r_inter=r_e, r_sys=r_s, r_task=r_t, total=totals)
