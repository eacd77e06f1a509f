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
from madlab.harness import evaluate_ensemble, train_pipeline, with_seed

SEEDS = (0, 1, 2)
EVAL_QUESTIONS = 1000
TASK_ONLY = ("alpha", "beta", "gamma")


def gains(config, zero_components=()):
    """(Δaccuracy, ΔU_sys) of the trained ensemble over the untrained one."""
    env, state, _, _ = train_pipeline(config, zero_components)
    questions = env.generate_questions(config.eval_questions, "eval")
    tilts = env.batch_tilts(questions)
    before = evaluate_ensemble(env, questions, tilts, env.initial_policies(), config.metric,
                               "b").summary
    after = evaluate_ensemble(env, questions, tilts, state.policies, config.metric, "t").summary
    return after.accuracy - before.accuracy, after.mean_u_sys - before.mean_u_sys


@pytest.mark.parametrize("seed", SEEDS)
def test_uncertainty_rewards_carry_the_training_gain(seed):
    config = dataclasses.replace(with_seed(ExperimentConfig(), seed), eval_questions=EVAL_QUESTIONS)
    d_acc, d_u_sys = gains(config)
    task_d_acc, _ = gains(config, TASK_ONLY)
    assert d_acc > 0.0, d_acc
    assert d_u_sys < 0.0, d_u_sys
    assert d_acc > task_d_acc, (d_acc, task_d_acc)
