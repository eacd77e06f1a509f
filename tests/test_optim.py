"""Optimizer unit tests.

The analytic gradient is checked against central finite differences computed
here at run time -- an independent numerical oracle, not a stored constant.
Clip behaviour and the objective-at-reference identity are checked on
hand-built fixtures whose expected values follow directly from construction.
"""

import copy
import io
import math

import numpy as np
import pytest

from madlab.debate import DebateTrajectory
from madlab.metrics import MetricConfig, full_profile
from madlab.optim import (
    ClipConfig,
    IterationStats,
    RolloutBatch,
    TRAINING_CSV_HEADER,
    TrainState,
    clipped_surrogate,
    collect_batch,
    compute_advantages,
    gradient_step,
    kl_anchor,
    likelihood_ratio,
    objective_value,
    surrogate_is_clipped,
    train,
    write_training_csv,
)
from madlab.policy import (
    DebateEnv,
    EnvConfig,
    PolicyTable,
    SyntheticQuestion,
    context_key,
    save_policy,
)
from madlab.replay import ReplayConfig
from madlab.rewards import CoefficientSet, total_reward

MC = MetricConfig()


def small_env(num_agents=2, rounds=1, seed=17):
    return DebateEnv(
        EnvConfig(
            num_agents=num_agents,
            rounds=rounds,
            answer_space_size=4,
            skills=tuple(0.9 - 0.1 * i for i in range(num_agents)),
            difficulty="uniform:0.0,0.6",
            seed=seed,
        )
    )


def batch_totals(batch, coeffs):
    """Per-agent total rewards of every batch trajectory (batch x agents)."""
    return np.array(
        [total_reward(t, full_profile(t, MC), coeffs).total for t in batch.trajectories]
    )


def fresh_batch(env, n_questions, ref_version=0, rollout_seed=99):
    questions = env.generate_questions(n_questions, "t")
    policies = env.initial_policies()
    batch = collect_batch(env, questions, policies, ref_version, rollout_seed)
    return policies, batch


# ---------------------------------------------------------------- advantages


def test_compute_advantages_centering():
    rng = np.random.default_rng(5)
    totals = rng.normal(size=(7, 3))
    est = compute_advantages(totals)
    assert est.baselines == pytest.approx(tuple(totals.mean(axis=0)), abs=1e-15)
    np.testing.assert_allclose(est.advantages.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(est.advantages, totals - totals.mean(axis=0))


def test_compute_advantages_rejects_empty():
    with pytest.raises(ValueError):
        compute_advantages(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        compute_advantages(np.zeros(4))


# ------------------------------------------------------------ clip primitives


def test_clipped_surrogate_spot_values():
    assert clipped_surrogate(1.0, 0.7, 0.2) == 0.7
    assert clipped_surrogate(1.5, 1.0, 0.2) == 1.2  # positive advantage, clipped high
    assert clipped_surrogate(0.5, -1.0, 0.2) == -0.8  # negative advantage, clipped low
    assert clipped_surrogate(0.5, 1.0, 0.2) == 0.5  # pessimistic branch, unclipped
    assert clipped_surrogate(1.5, -1.0, 0.2) == -1.5
    assert clipped_surrogate(2.0, 0.0, 0.2) == 0.0


def test_surrogate_is_clipped_regions():
    assert surrogate_is_clipped(1.21, 1.0, 0.2)
    assert not surrogate_is_clipped(1.19, 1.0, 0.2)
    assert surrogate_is_clipped(0.79, -1.0, 0.2)
    assert not surrogate_is_clipped(0.81, -1.0, 0.2)
    assert not surrogate_is_clipped(5.0, 0.0, 0.2)
    assert not surrogate_is_clipped(0.01, 1.0, 0.2)


# --------------------------------------------------- objective at the reference


def test_objective_and_kl_vanish_at_reference():
    env = small_env(num_agents=3, rounds=2, seed=4)
    policies, batch = fresh_batch(env, 8)
    reference = [p.copy() if p is not None else None for p in policies]
    coeffs = CoefficientSet.uniform(3)
    totals = batch_totals(batch, coeffs)
    adv = compute_advantages(totals)
    values = objective_value(env, policies, reference, batch, adv, coeffs, ClipConfig())
    for i, value in values.items():
        assert abs(value) <= 1e-10, f"agent {i} objective {value} at reference"
    for q, traj in zip(batch.questions, batch.trajectories):
        for i in env.honest_indices:
            kl = kl_anchor(env, policies[i], reference[i], i, q, traj)
            assert abs(kl) <= 1e-10


# ------------------------------------------------------- finite differences


def perturbed(policies, scale, seed):
    rng = np.random.default_rng(seed)
    out = []
    for p in policies:
        if p is None:
            out.append(None)
            continue
        q = p.copy()
        q.update(rng.normal(0.0, scale, q.logits.shape))
        out.append(q)
    return out


def analytic_gradients(env, policies, reference, batch, coeffs, epsilon):
    """Per-agent (rows, K) gradient extracted from a unit-learning-rate step."""
    state = TrainState(
        policies=[p.copy() if p is not None else None for p in policies],
        reference=[p.copy() if p is not None else None for p in reference],
        ref_version=batch.ref_version,
        coeffs=coeffs,
        iteration=0,
    )
    before = [p.logits.copy() if p is not None else None for p in state.policies]
    clip = ClipConfig(epsilon=epsilon, learn_rate=1.0, batch_size=1)
    gradient_step(env, state, batch, clip, batch_totals(batch, coeffs))
    return [
        p.logits - old if p is not None else None for p, old in zip(state.policies, before)
    ]


@pytest.mark.parametrize(
    "case",
    ["surrogate_only", "anchor_only", "combined"],
)
def test_gradient_matches_central_differences(case):
    env = small_env(num_agents=2, rounds=1, seed=23)
    base_policies, _ = fresh_batch(env, 1)
    if case == "surrogate_only":
        coeffs = CoefficientSet.uniform(2, eta_anchor=0.0)
        epsilon = 1e6  # clip disabled so the objective is smooth everywhere
        scale = 0.3
    elif case == "anchor_only":
        coeffs = CoefficientSet.uniform(
            2, alpha=0.0, beta=0.0, gamma=0.0, lambda_task=0.0, eta_anchor=0.05
        )
        epsilon = 0.2
        scale = 0.3
    else:
        coeffs = CoefficientSet.uniform(2)
        epsilon = 0.5
        scale = 0.05  # keep every ratio inside the clip band
    current = perturbed(base_policies, scale, seed=71)
    reference = [p.copy() if p is not None else None for p in base_policies]
    questions = env.generate_questions(5, "t")
    batch = collect_batch(env, questions, reference, 0, 31)
    totals = batch_totals(batch, coeffs)
    adv = compute_advantages(totals)
    for i in env.honest_indices:
        for q, traj in zip(batch.questions, batch.trajectories):
            rho = likelihood_ratio(env, current[i], reference[i], i, q, traj)
            a = float(adv.advantages[list(batch.questions).index(q), i])
            assert not surrogate_is_clipped(rho, a, epsilon), "fixture must stay unclipped"

    grads = analytic_gradients(env, current, reference, batch, coeffs, epsilon)
    h = 1e-5
    checked = 0
    for i in env.honest_indices:
        visited = set()
        for q, traj in zip(batch.questions, batch.trajectories):
            visited.update(s.ctx for s in env.agent_steps(q, traj, i))
        for ctx in sorted(visited):
            for j in range(len(current[i].labels)):
                bump = np.zeros_like(current[i].logits)
                bump[ctx, j] = h
                plus = [p.copy() if p is not None else None for p in current]
                plus[i].update(bump)
                minus = [p.copy() if p is not None else None for p in current]
                minus[i].update(-bump)
                f_plus = objective_value(
                    env, plus, reference, batch, adv, coeffs,
                    ClipConfig(epsilon=epsilon),
                )[i]
                f_minus = objective_value(
                    env, minus, reference, batch, adv, coeffs,
                    ClipConfig(epsilon=epsilon),
                )[i]
                fd = (f_plus - f_minus) / (2.0 * h)
                an = float(grads[i][ctx, j])
                rel = abs(an - fd) / max(abs(fd), abs(an), 1e-6)
                assert rel < 1e-4, (
                    f"case={case} agent={i} ctx={context_key(ctx, env.answer_space)} label={j}: "
                    f"analytic={an} fd={fd} rel={rel}"
                )
                checked += 1
    assert checked >= 16, "finite-difference sweep covered too few coordinates"


def test_fully_clipped_batch_has_exactly_zero_gradient():
    # Full difficulty mutes the per-question evidence signal, so the ratio is
    # governed by the logits this test pushes around.
    env = DebateEnv(
        EnvConfig(
            num_agents=2,
            rounds=1,
            answer_space_size=4,
            skills=(0.9, 0.8),
            difficulty="fixed:1.0",
            seed=9,
        )
    )
    question = SyntheticQuestion("q0", ("A", "B", "C", "D"), "A", 1.0)
    correct = DebateTrajectory("q0", question.answer_space, (("A", "A"), ("A", "A")), "A")
    wrong = DebateTrajectory("q0", question.answer_space, (("B", "B"), ("B", "B")), "A")
    batch = RolloutBatch(
        questions=(question, question),
        trajectories=(correct, wrong),
        weights=(1.0, 1.0),
        ref_version=0,
    )
    coeffs = CoefficientSet.uniform(
        2, alpha=0.0, beta=0.0, gamma=0.0, lambda_task=1.0, eta_anchor=0.0
    )
    reference = env.initial_policies()
    current = [p.copy() if p is not None else None for p in reference]
    push = np.zeros(4)
    push[0], push[1] = 6.0, -6.0  # drive probability mass hard toward "A"
    for p in current:
        p.update(push)
    epsilon = 0.2
    for i in env.honest_indices:
        rho_hi = likelihood_ratio(env, current[i], reference[i], i, question, correct)
        rho_lo = likelihood_ratio(env, current[i], reference[i], i, question, wrong)
        assert surrogate_is_clipped(rho_hi, +0.5, epsilon), f"rho={rho_hi} not above band"
        assert surrogate_is_clipped(rho_lo, -0.5, epsilon), f"rho={rho_lo} not below band"
    state = TrainState(
        policies=current,
        reference=reference,
        ref_version=0,
        coeffs=coeffs,
        iteration=0,
    )
    snapshot = [p.logits.copy() for p in state.policies]
    clip = ClipConfig(epsilon=epsilon, learn_rate=1.0)
    gradient_step(env, state, batch, clip, batch_totals(batch, coeffs))
    for p, snap in zip(state.policies, snapshot):
        assert np.array_equal(p.logits, snap), "clipped batch moved a logit"


# ----------------------------------------------------------------- guards


def test_gradient_step_rejects_stale_batch():
    env = small_env(num_agents=2, rounds=1, seed=2)
    policies, batch = fresh_batch(env, 3, ref_version=4)
    state = TrainState(
        policies=policies,
        reference=[p.copy() if p is not None else None for p in policies],
        ref_version=0,
        coeffs=CoefficientSet.uniform(2),
        iteration=0,
    )
    with pytest.raises(ValueError, match="stale"):
        gradient_step(env, state, batch, ClipConfig(), batch_totals(batch, state.coeffs))


# ------------------------------------------------------------------ training


def policies_text(policies):
    chunks = []
    for i, p in enumerate(policies):
        if p is None:
            chunks.append(f"agent {i}: adversary")
            continue
        buf = io.StringIO()
        save_policy(buf, p, i, "deadbeefdeadbeef")
        chunks.append(buf.getvalue())
    return "\n".join(chunks)


def test_train_is_deterministic_for_a_seed():
    env = small_env(num_agents=3, rounds=2, seed=6)
    questions = env.generate_questions(12, "t")
    coeffs = CoefficientSet.uniform(3)
    clip = ClipConfig(batch_size=6, iterations=4)
    replay = ReplayConfig(capacity=32, fraction=0.25, refresh_period=2)

    def run(seed):
        state, buffer = train(env, questions, coeffs, clip, MC, seed, replay)
        return state, buffer

    state_a, buffer_a = run(11)
    state_b, buffer_b = run(11)
    state_c, _ = run(12)
    assert state_a.history == state_b.history
    assert policies_text(state_a.policies) == policies_text(state_b.policies)
    assert state_a.ref_version == 4  # refreshed every iteration
    assert len(buffer_a) == len(buffer_b) > 0
    assert state_a.history != state_c.history


def test_train_zero_iterations_keeps_initial_policies():
    env = small_env(num_agents=2, rounds=1, seed=3)
    questions = env.generate_questions(4, "t")
    state, buffer = train(
        env,
        questions,
        CoefficientSet.uniform(2),
        ClipConfig(iterations=0),
        MC,
        seed=5,
        replay_config=ReplayConfig(),
    )
    assert state.history == []
    assert state.iteration == 0
    assert policies_text(state.policies) == policies_text(env.initial_policies())
    assert buffer is not None and len(buffer) == 0


def test_collect_batch_deterministic_and_slot_keyed():
    env = DebateEnv(
        EnvConfig(
            num_agents=2,
            rounds=2,
            answer_space_size=4,
            skills=(0.9, 0.8),
            difficulty="fixed:1.0",
            seed=8,
        )
    )
    q = env.generate_questions(1, "t")[0]
    policies = env.initial_policies()
    slots = [q] * 6
    batch1 = collect_batch(env, slots, policies, 0, rollout_seed=44)
    batch2 = collect_batch(env, slots, policies, 0, rollout_seed=44)
    assert batch1.trajectories == batch2.trajectories
    assert len({t.rounds for t in batch1.trajectories}) > 1, (
        "identical slots should draw from distinct streams"
    )


def test_rollout_batch_validation():
    q = SyntheticQuestion("q0", ("A", "B"), "A", 0.0)
    t = DebateTrajectory("q0", ("A", "B"), (("A", "A"),), "A")
    with pytest.raises(ValueError):
        RolloutBatch(questions=(q,), trajectories=(t, t), weights=(1.0,), ref_version=0)
    with pytest.raises(ValueError):
        RolloutBatch(questions=(), trajectories=(), weights=(), ref_version=0)


def test_training_csv_golden():
    history = [
        IterationStats(1, 0.5, 0.25, 0.125, 0.0625, 1.5),
        IterationStats(2, 0.75, 0.2, 0.1, 0.05, 2.0),
    ]
    buf = io.StringIO()
    write_training_csv(buf, history)
    assert buf.getvalue() == (
        "iter,accuracy,mean_U_intra,mean_U_inter,mean_U_sys,mean_total_reward\n"
        "1,0.500000,0.250000,0.125000,0.062500,1.500000\n"
        "2,0.750000,0.200000,0.100000,0.050000,2.000000\n"
    )
    assert TRAINING_CSV_HEADER.split(",")[0] == "iter"
