"""Uncertainty-shaped rewards for debate trajectories.

The rewards are a map of the trajectory's uncertainty profile, its single
source: the stance-stability reward is the exact complement of the flip rate,
and the agreement and system rewards are exact complements of their
uncertainty levels. A binary task reward, whether the debate's winner from
profiles_from_codes is correct, completes the components. Per-agent
coefficients weigh the components into each agent's total reward; the anchor
strength eta rides along in the same coefficient set because calibration
scales it with the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from madlab.metrics import UncertaintyProfile

ABLATABLE = ("alpha", "beta", "gamma")  # components CoefficientSet.zeroed can switch off


@dataclass(frozen=True)
class CoefficientSet:
    """Per-agent reward weights (alpha, beta, gamma, lambda) and KL strength eta."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    lambda_task: tuple[float, ...]
    eta_anchor: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.alpha)
        for name in ("beta", "gamma", "lambda_task", "eta_anchor"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"coefficient length mismatch: {name}")

    @property
    def num_agents(self) -> int:
        return len(self.alpha)

    @classmethod
    def uniform(
        cls,
        num_agents: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        gamma: float = 1.0,
        lambda_task: float = 1.0,
        eta_anchor: float = 0.01,
    ) -> "CoefficientSet":
        return cls(
            alpha=(alpha,) * num_agents,
            beta=(beta,) * num_agents,
            gamma=(gamma,) * num_agents,
            lambda_task=(lambda_task,) * num_agents,
            eta_anchor=(eta_anchor,) * num_agents,
        )

    def zeroed(self, *components: str) -> "CoefficientSet":
        """Copy with the named components' weights set to 0 (ablation switch)."""
        for component in components:
            if component not in ABLATABLE:
                raise ValueError(f"unknown component {component!r}, expected {'/'.join(ABLATABLE)}")
        return replace(self, **{c: (0.0,) * self.num_agents for c in components})


@dataclass(frozen=True)
class RewardVector:
    """Shared reward components plus each agent's weighted total."""

    r_intra: float
    r_inter: float
    r_sys: float
    r_task: float
    total: tuple[float, ...]


def total_reward(
    profile: UncertaintyProfile, correct: bool, coeffs: CoefficientSet
) -> RewardVector:
    """Weighted per-agent totals over the four shared components.

    r_intra = 1 - F, r_inter = 1 - U_inter and r_sys = 1 - U_sys come from
    the trajectory's profile; r_task is 1 when the debate's winner, the final
    round's majority that profiles_from_codes returns, is correct, else 0.
    """
    r_i = 1.0 - profile.flip_rate
    r_e = 1.0 - profile.u_inter
    r_s = 1.0 - profile.u_sys
    r_t = 1.0 if correct else 0.0
    totals = tuple(
        coeffs.alpha[i] * r_i
        + coeffs.beta[i] * r_e
        + coeffs.gamma[i] * r_s
        + coeffs.lambda_task[i] * r_t
        for i in range(coeffs.num_agents)
    )
    return RewardVector(r_intra=r_i, r_inter=r_e, r_sys=r_s, r_task=r_t, total=totals)
