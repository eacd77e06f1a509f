"""Claims gate: the paper's headline holds on the ROADMAP ablation setting.

Default config, seeds 0, 1 and 2, the same 1,000 held-out questions per seed.
On every seed, default training raises accuracy and lowers mean U_sys, and
it raises accuracy more than the task-only arm (the calibrated alpha, beta
and gamma uncertainty rewards switched off). The seeds and sizes were fixed
before any change of the random streams was measured against them.
"""

from __future__ import annotations

import dataclasses

import pytest

from madlab.config import ExperimentConfig
from madlab.harness import Arm, run_arms, train_pipeline, with_seed

SEEDS = (0, 1, 2)
EVAL_QUESTIONS = 1000
TASK_ONLY = ("alpha", "beta", "gamma")


def gains(config, out_dir, zero_components=()):
    """(Δaccuracy, ΔU_sys) of the trained ensemble over the untrained one,
    evaluated as `train` evaluates its two arms."""
    _, state, _, _ = train_pipeline(config, zero_components)
    arms = [Arm("baseline", config.env), Arm("trained", config.env, trained=True)]
    (before, after), _ = run_arms(config, str(out_dir), arms, state.policies)
    return (after.summary.accuracy - before.summary.accuracy,
            after.summary.mean_u_sys - before.summary.mean_u_sys)


@pytest.mark.parametrize("seed", SEEDS)
def test_uncertainty_rewards_carry_the_training_gain(seed, tmp_path):
    config = dataclasses.replace(with_seed(ExperimentConfig(), seed), eval_questions=EVAL_QUESTIONS)
    d_acc, d_u_sys = gains(config, tmp_path / "default")
    task_d_acc, _ = gains(config, tmp_path / "task-only", TASK_ONLY)
    assert d_acc > 0.0, d_acc
    assert d_u_sys < 0.0, d_u_sys
    assert d_acc > task_d_acc, (d_acc, task_d_acc)
