"""Optimizer unit tests.

The analytic gradient is checked against central finite differences of
reference_impl's scalar objective, computed here at run time -- an independent
numerical oracle, not a stored constant.
Clip behaviour and the objective-at-reference identity are checked on
hand-built fixtures whose expected values follow directly from construction.
"""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

from madlab import optim
from madlab import policy as policy_module
from madlab.harness import evaluate_ensemble
from madlab.metrics import MetricConfig, profiles_from_codes
from madlab.optim import (
    ClipConfig,
    IterationStats,
    RolloutBatch,
    TRAINING_CSV_HEADER,
    TrainState,
    collect_batch,
    compute_advantages,
    gradient_step,
    surrogate_is_clipped,
    train,
    write_training_csv,
)
from madlab.policy import (
    LOGIT_CLAMP,
    DebateEnv,
    EnvConfig,
    context_key,
    derive_key,
    difficulty_bin,
    save_policy,
)
from madlab.replay import ReplayBuffer, ReplayConfig
from madlab.rewards import total_reward
from reference_impl import (
    build_context,
    clipped_surrogate,
    kl_anchor,
    likelihood_ratio,
    objective_value,
    question_set,
    same_questions,
    trajectory_log_prob,
    uniform_coefficients,
)
from test_policy import perturbed, record_philox_passes

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


def recorded_contexts(env, questions, answers):
    """The (B, T+1, N) context rows of hand-built (B, T+1, N) answer codes."""
    bins = difficulty_bin(questions.difficulty, env.config.difficulty_bins).tolist()
    grids = np.array(env.answer_space)[answers].tolist()
    return np.array([
        [
            [
                build_context(qf, grid[t - 1] if t else None, i, env.answer_space)
                for i in range(len(grid[0]))
            ]
            for t in range(len(grid))
        ]
        for qf, grid in zip(bins, grids)
    ])


def batch_totals(batch, coeffs):
    """Per-agent total rewards of every batch debate (batch x agents)."""
    profiles = profiles_from_codes(batch.trajectories, len(batch.questions.answer_space), MC)
    correct = profiles.winners == batch.questions.truth
    return total_reward(profiles, correct, coeffs).total


def fresh_collect(env, questions, policies, ref_version, rollout_seed, weights=None):
    """collect_batch on the questions' own tilts, weights 1 unless given."""
    weights = [1.0] * len(questions) if weights is None else weights
    return collect_batch(env, questions, env.batch_tilts(questions), policies, ref_version,
                         rollout_seed, weights)


def fresh_batch(env, n_questions, ref_version=0, rollout_seed=99):
    questions = env.generate_questions(n_questions, "t")
    policies = env.initial_policies()
    batch = fresh_collect(env, questions, policies, ref_version, rollout_seed)
    return policies, batch


# ---------------------------------------------------------------- advantages


def test_compute_advantages_centering():
    rng = np.random.default_rng(5)
    totals = rng.normal(size=(7, 3))
    adv = compute_advantages(totals)
    assert adv.shape == totals.shape
    np.testing.assert_allclose(adv.mean(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(adv, totals - totals.mean(axis=0))


def test_compute_advantages_rejects_empty():
    with pytest.raises(ValueError):
        compute_advantages(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        compute_advantages(np.zeros(4))


def test_compute_advantages_rejects_a_non_finite_total_or_batch_mean():
    totals = np.ones((4, 3))
    totals[2, 1] = np.inf
    totals[3, 0] = np.nan
    # the first in batch order is named
    with pytest.raises(ValueError, match=r"agent 1: reward total at batch slot 2 \(inf\) is not finite"):
        compute_advantages(totals)
    # each total is finite, but their sum, and so the batch mean, is not
    with pytest.raises(ValueError, match=r"agent 2: reward total at batch slot 0 \(1e\+308\) is finite, "
                                         r"but its batch mean is not finite"):
        compute_advantages(np.array([[0.0, 0.0, 1e308], [0.0, 0.0, 1e308]]))


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
    # on the band's edge the min() still takes rho * A, whose gradient is live
    assert not surrogate_is_clipped(1.25, 1.0, 0.25)
    assert not surrogate_is_clipped(0.75, -1.0, 0.25)
    assert clipped_surrogate(1.25, 1.0, 0.25) == 1.25 and clipped_surrogate(0.75, -1.0, 0.25) == -0.75


# --------------------------------------------------- objective at the reference


def test_objective_and_kl_vanish_at_reference():
    env = small_env(num_agents=3, rounds=2, seed=4)
    policies, batch = fresh_batch(env, 8)
    reference = policies.copy()
    coeffs = uniform_coefficients(3)
    totals = batch_totals(batch, coeffs)
    adv = compute_advantages(totals)
    values = objective_value(env, policies, reference, batch, adv, coeffs, ClipConfig())
    for i, value in values.items():
        assert abs(value) <= 1e-10, f"agent {i} objective {value} at reference"
    for m, traj in enumerate(batch.trajectories):
        for i in range(env.honest):
            kl = kl_anchor(env, policies[i], reference[i], i, batch.questions[m:m + 1], traj)
            assert abs(kl) <= 1e-10


# ------------------------------------------------------- finite differences


def analytic_gradients(env, policies, reference, batch, coeffs, epsilon):
    """(H, rows, K) gradient extracted from a unit-learning-rate step."""
    state = TrainState(policies=policies, reference=reference, ref_version=batch.ref_version,
                       coeffs=coeffs)
    clip = ClipConfig(epsilon=epsilon, learn_rate=1.0, batch_size=1)
    gradient_step(env, state, batch, clip, batch_totals(batch, coeffs))
    return state.policies - policies


@pytest.mark.parametrize(
    "case",
    ["surrogate_only", "anchor_only", "combined"],
)
def test_gradient_matches_central_differences(case):
    env = small_env(num_agents=2, rounds=1, seed=23)
    base_policies, _ = fresh_batch(env, 1)
    if case == "surrogate_only":
        coeffs = uniform_coefficients(2, eta_anchor=0.0)
        epsilon = 1e6  # clip disabled so the objective is smooth everywhere
        scale = 0.3
    elif case == "anchor_only":
        coeffs = uniform_coefficients(
            2, alpha=0.0, beta=0.0, gamma=0.0, lambda_task=0.0, eta_anchor=0.05
        )
        epsilon = 0.2
        scale = 0.3
    else:
        coeffs = uniform_coefficients(2)
        epsilon = 0.5
        scale = 0.05  # keep every ratio inside the clip band
    current = perturbed(base_policies, seed=71, scale=scale)
    reference = base_policies
    questions = env.generate_questions(5, "t")
    batch = fresh_collect(env, questions, reference, 0, 31)
    totals = batch_totals(batch, coeffs)
    adv = compute_advantages(totals)
    for i in range(env.honest):
        for m, traj in enumerate(batch.trajectories):
            rho = likelihood_ratio(env, current[i], reference[i], i, batch.questions[m:m + 1],
                                   traj)
            a = float(adv[m, i])
            assert not surrogate_is_clipped(rho, a, epsilon), "fixture must stay unclipped"

    grads = analytic_gradients(env, current, reference, batch, coeffs, epsilon)
    h = 1e-5
    checked = 0
    for i in range(env.honest):
        visited = set()
        for m, traj in enumerate(batch.trajectories):
            visited.update(env.agent_steps(batch.questions[m:m + 1], traj, i)[0].tolist())
        for ctx in sorted(visited):
            for j in range(len(env.answer_space)):
                plus, minus = current.copy(), current.copy()
                plus[i, ctx, j] += h
                minus[i, ctx, j] -= h
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
    question = question_set("ABCD", [0], [1.0])
    correct, wrong = answers = np.array([np.zeros((2, 2), dtype=np.int64),
                                         np.ones((2, 2), dtype=np.int64)])  # all A, all B
    twice = question[[0, 0]]
    batch = RolloutBatch(
        questions=twice,
        trajectories=answers,
        weights=np.ones(2),
        ref_version=0,
        contexts=recorded_contexts(env, twice, answers),
        tilts=env.batch_tilts(twice),
    )
    coeffs = uniform_coefficients(
        2, alpha=0.0, beta=0.0, gamma=0.0, lambda_task=1.0, eta_anchor=0.0
    )
    reference = env.initial_policies()
    push = np.zeros(4)
    push[0], push[1] = 6.0, -6.0  # drive probability mass hard toward "A"
    current = reference + push
    epsilon = 0.2
    for i in range(env.honest):
        rho_hi = likelihood_ratio(env, current[i], reference[i], i, question, correct)
        rho_lo = likelihood_ratio(env, current[i], reference[i], i, question, wrong)
        assert surrogate_is_clipped(rho_hi, +0.5, epsilon), f"rho={rho_hi} not above band"
        assert surrogate_is_clipped(rho_lo, -0.5, epsilon), f"rho={rho_lo} not below band"
    state = TrainState(
        policies=current,
        reference=reference,
        ref_version=0,
        coeffs=coeffs,
    )
    clip = ClipConfig(epsilon=epsilon, learn_rate=1.0)
    gradient_step(env, state, batch, clip, batch_totals(batch, coeffs))
    assert np.array_equal(state.policies, current), "clipped batch moved a logit"


def test_gradient_step_clamps_every_logit():
    # advantages of +-1e12 push the visited logits far past the clamp
    env = small_env(num_agents=2, rounds=1, seed=2)
    policies, batch = fresh_batch(env, 3)
    state = TrainState(policies=policies, reference=policies, ref_version=0,
                       coeffs=uniform_coefficients(2))
    totals = np.array([[1e12, 1e12], [0.0, 0.0], [-1e12, -1e12]])
    gradient_step(env, state, batch, ClipConfig(learn_rate=1.0), totals)
    assert np.abs(state.policies).max() == LOGIT_CLAMP


def test_gradient_step_binds_a_new_array_and_leaves_its_input_unchanged():
    # the reference snapshot and run_udpo's untrained baseline arm both keep
    # the array a step starts from
    env = small_env(num_agents=3, rounds=2, seed=4)
    policies, batch = fresh_batch(env, 8)
    snapshot = policies.tobytes()
    state = TrainState(policies=policies, reference=policies, ref_version=0,
                       coeffs=uniform_coefficients(3))
    gradient_step(env, state, batch, ClipConfig(), batch_totals(batch, state.coeffs))
    assert state.policies is not policies and state.reference is policies
    assert policies.tobytes() == snapshot
    assert not np.array_equal(state.policies, policies)


def visit_log_probs(policy, ctx, tilt):
    z = policy[ctx] + tilt
    z = z - z.max()
    return z - math.log(float(np.exp(z).sum()))


def per_visit_gradient_step(env, state, batch, clip, totals):
    """gradient_step as a loop over each agent's rebuilt steps: the reference
    the vectorized step must match bit for bit."""
    adv = compute_advantages(totals)
    m_total = len(batch.trajectories)
    stepped = np.empty_like(state.policies)
    for i in range(env.honest):
        cur, ref = state.policies[i], state.reference[i]
        eta = state.coeffs.eta_anchor[i]
        grad = np.zeros_like(cur)
        for m, traj in enumerate(batch.trajectories):
            w = batch.weights[m]
            a = float(adv[m, i])
            rows, tilts, picks = env.agent_steps(batch.questions[m:m + 1], traj, i)
            rows, picks = rows.tolist(), picks.tolist()
            lp_cur_rows = [visit_log_probs(cur, c, z) for c, z in zip(rows, tilts)]
            lp_ref_rows = [visit_log_probs(ref, c, z) for c, z in zip(rows, tilts)]
            lp_cur = sum(float(row[j]) for row, j in zip(lp_cur_rows, picks))
            lp_ref = sum(float(row[j]) for row, j in zip(lp_ref_rows, picks))
            rho = math.exp(lp_cur - lp_ref)
            if a != 0.0 and not surrogate_is_clipped(rho, a, clip.epsilon):
                coef = w * a * rho
                for row, c, j in zip(lp_cur_rows, rows, picks):
                    grad[c] -= coef * np.exp(row)
                    grad[c, j] += coef
            if eta != 0.0:
                scale = w * eta / len(rows)
                for lc, lr_row, c in zip(lp_cur_rows, lp_ref_rows, rows):
                    p = np.exp(lc)
                    diff = lc - lr_row
                    kl = float(np.dot(p, diff))
                    grad[c] -= scale * p * (diff - kl)
        stepped[i] = np.clip(cur + clip.learn_rate * (grad / m_total), -LOGIT_CLAMP, LOGIT_CLAMP)
    state.policies = stepped
    return state


@pytest.mark.parametrize("k", [2, 4, 12])
def test_gradient_step_matches_the_per_visit_loop_bit_for_bit(k, monkeypatch):
    env = DebateEnv(EnvConfig(num_agents=5, rounds=4, answer_space_size=k, difficulty_bins=2,
                              compromised_count=1, seed=12))
    questions = env.generate_questions(20, "t")
    # per-agent anchors, one of them off, so each agent's KL entries differ
    coeffs = dataclasses.replace(uniform_coefficients(5),
                                 eta_anchor=np.array([0.05, 0.0, 0.3, 0.01, 0.05]))
    clip = ClipConfig(learn_rate=3.0, ref_refresh_period=3)
    log_prob_passes = []
    real_log_probs = optim._log_probs

    def counting_log_probs(*args):
        log_prob_passes[-1] += 1
        return real_log_probs(*args)

    monkeypatch.setattr(optim, "_log_probs", counting_log_probs)
    states = [
        TrainState(policies=env.initial_policies(), reference=env.initial_policies(),
                   ref_version=0, coeffs=coeffs)
        for _ in range(2)
    ]
    weights = np.random.default_rng(k).uniform(0.5, 1.5, len(questions))
    clipped = active = 0
    for it in range(9):
        fast, slow = states
        batch = fresh_collect(env, questions, fast.reference, fast.ref_version, it,
                              weights / weights.mean())
        totals = batch_totals(batch, coeffs)
        adv = compute_advantages(totals)
        for i in range(env.honest):
            for m, traj in enumerate(batch.trajectories):
                rho = likelihood_ratio(env, fast.policies[i], fast.reference[i], i,
                                       batch.questions[m:m + 1], traj)
                if surrogate_is_clipped(rho, float(adv[m, i]), clip.epsilon):
                    clipped += 1
                else:
                    active += 1
        log_prob_passes.append(0)
        gradient_step(env, fast, batch, clip, totals)
        per_visit_gradient_step(env, slow, batch, clip, totals)
        assert np.array_equal(fast.policies, slow.policies), it
        if (it + 1) % clip.ref_refresh_period == 0:
            for state in states:
                state.reference = state.policies
                state.ref_version += 1
    assert clipped > 0 and active > clipped
    # one log-prob pass right after each reference refresh (reference equals
    # current), two on the steps between
    assert log_prob_passes == [1, 2, 2] * 3


def test_batched_paths_open_no_act_stream_and_rebuild_no_steps(monkeypatch):
    env = DebateEnv(EnvConfig(num_agents=4, rounds=3, compromised_count=1, seed=3))
    questions = env.generate_questions(6, "t")
    policies = env.initial_policies()
    tilts = env.batch_tilts(questions)
    opened = []
    real_stream = policy_module.rng_stream

    def counting_stream(*tokens):
        opened.append(tokens[1])
        return real_stream(*tokens)

    def no_steps(*args, **kwargs):
        raise AssertionError("agent_steps rebuilt a batch's visits")

    passes = record_philox_passes(monkeypatch)
    monkeypatch.setattr(policy_module, "rng_stream", counting_stream)
    monkeypatch.setattr(optim, "rng_stream", counting_stream)
    monkeypatch.setattr(DebateEnv, "agent_steps", no_steps)
    batch = collect_batch(env, questions, tilts, policies, 0, 5, [1.0] * 6)
    evaluate_ensemble(env, questions, tilts, policies, MC, "eval")
    evaluate_ensemble(env, questions, tilts, policies, MC, "eval")
    buffer = ReplayBuffer(ReplayConfig(), questions, tilts)
    buffer.push(np.arange(6), batch.trajectories, np.ones(6), iteration=1, policy_version=0)
    buffer.refresh(env, policies, rollout_seed=9, policy_version=1,
                   score=lambda qs, answers: [1.0] * len(qs))
    coeffs = uniform_coefficients(4)
    state = TrainState(policies=policies, reference=env.initial_policies(), ref_version=0,
                       coeffs=coeffs)
    gradient_step(env, state, batch, ClipConfig(), batch_totals(batch, coeffs))
    assert opened == []
    # collect_batch, evaluate_ensemble, refresh and gradient_step draw no tilt
    # key: every pass is one act key per debate of the batch, the evaluations
    # and the refresh

    def act_keys(seeds):
        return [policy_module._key_digest(s, "act", qid)
                for s, qid in zip(seeds, questions.ids.tolist())]

    eval_acts = act_keys([derive_key(3, "eval", qid) for qid in questions.ids.tolist()])
    assert [d for keys, _ in passes for d in keys] == (
        act_keys([derive_key(5, m) for m in range(6)]) + 2 * eval_acts
        + act_keys([derive_key(9, j) for j in range(6)]))


# ----------------------------------------------------------------- guards


def test_gradient_step_rejects_stale_batch():
    env = small_env(num_agents=2, rounds=1, seed=2)
    policies, batch = fresh_batch(env, 3, ref_version=4)
    state = TrainState(policies=policies, reference=policies, ref_version=0,
                       coeffs=uniform_coefficients(2))
    with pytest.raises(ValueError, match="stale"):
        gradient_step(env, state, batch, ClipConfig(), batch_totals(batch, state.coeffs))


def saturated_batch(rounds, env_seed=6):
    """Policies at opposite clamps and a hand-built batch on which every
    honest agent answers the label its current table favours, so each visit
    adds about 2 * LOGIT_CLAMP to log rho."""
    env = DebateEnv(EnvConfig(num_agents=2, rounds=rounds, answer_space_size=2,
                              difficulty="fixed:0.5", seed=env_seed))
    questions = env.generate_questions(3, "t")
    answers = np.zeros((3, rounds + 1, 2), dtype=np.int64)  # every answer A
    batch = RolloutBatch(questions, answers, np.ones(3), 0,
                         recorded_contexts(env, questions, answers), env.batch_tilts(questions))
    policies = env.initial_policies()
    policies[:] = [LOGIT_CLAMP, -LOGIT_CLAMP]
    state = TrainState(policies=policies, reference=-policies, ref_version=0,
                       coeffs=uniform_coefficients(2))
    return env, state, batch


def test_gradient_step_rejects_a_ratio_that_overflows_before_changing_a_table():
    env, state, batch = saturated_batch(rounds=13)
    q, traj = batch.questions[:1], batch.trajectories[0]
    log_rho = (trajectory_log_prob(env, state.policies[0], 0, q, traj)
               - trajectory_log_prob(env, state.reference[0], 0, q, traj))
    assert log_rho > math.log(np.finfo(float).max)
    before = state.policies.copy()
    totals = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]])
    with pytest.raises(ValueError, match=r"agent 0: likelihood ratio overflows at batch slot 0 "
                                         r"\(log rho = \d+\.\d+\)") as raised:
        gradient_step(env, state, batch, ClipConfig(), totals)
    assert float(re.search(r"log rho = ([\d.]+)", str(raised.value))[1]) == pytest.approx(log_rho)
    assert np.array_equal(state.policies, before)


def test_gradient_step_rejects_a_non_finite_gradient_before_changing_a_table():
    # log rho is about 120, but the second agent's advantages of +-1e300 push
    # its one unclipped slot (A < 0, the last) past the largest float
    env, state, batch = saturated_batch(rounds=1)
    before = state.policies.copy()
    totals = np.array([[1.0, 1e300], [0.0, 0.0], [-1.0, -1e300]])
    with pytest.raises(ValueError, match=r"agent 1: likelihood ratio overflows at batch slot 2 "):
        gradient_step(env, state, batch, ClipConfig(), totals)
    assert np.array_equal(state.policies, before)


# ------------------------------------------------------------------ training


def policies_text(env, policies):
    chunks = []
    for i, logits in enumerate(policies):
        buf = io.StringIO()
        save_policy(buf, env.answer_space, logits, i, "deadbeefdeadbeef")
        chunks.append(buf.getvalue())
    return "\n".join(chunks)


def test_train_is_deterministic_for_a_seed():
    env = small_env(num_agents=3, rounds=2, seed=6)
    questions = env.generate_questions(12, "t")
    coeffs = uniform_coefficients(3)
    clip = ClipConfig(batch_size=6, iterations=4)
    replay = ReplayConfig(capacity=32, fraction=0.25, refresh_period=2)

    def run(seed):
        state, buffer = train(env, questions, env.batch_tilts(questions), coeffs, clip, MC, seed,
                              replay)
        return state, buffer

    state_a, buffer_a = run(11)
    state_b, buffer_b = run(11)
    state_c, _ = run(12)
    assert state_a.history == state_b.history
    assert policies_text(env, state_a.policies) == policies_text(env, state_b.policies)
    assert state_a.ref_version == 4  # refreshed every iteration
    assert len(buffer_a) == len(buffer_b) > 0
    assert state_a.history != state_c.history


def test_full_replay_fraction_draws_every_later_batch_from_the_buffer(monkeypatch):
    # fraction = 1.0: the first batch is all fresh picks, since the buffer is
    # empty; every later one is all replayed rows, with an empty fresh-index
    # array. Reruns stay byte-identical.
    env = small_env(num_agents=3, rounds=2, seed=6)
    questions = env.generate_questions(12, "t")
    tilts = env.batch_tilts(questions)
    clip = ClipConfig(batch_size=6, iterations=4)
    replay = ReplayConfig(capacity=10, fraction=1.0, refresh_period=2)
    picks, samples, batches = [], [], []
    real_stream, real_sample, real_collect = optim.rng_stream, ReplayBuffer.sample, collect_batch

    class RecordedPicks:
        def __init__(self, rng):
            self.rng = rng

        def choice(self, *args, **kwargs):
            picks.append(self.rng.choice(*args, **kwargs))
            return picks[-1]

    def recording_sample(self, count, rng):
        samples.append(real_sample(self, count, rng))
        return samples[-1]

    def recording_collect(env, questions, *args):
        batches.append(real_collect(env, questions, *args))
        return batches[-1]

    monkeypatch.setattr(optim, "rng_stream", lambda *tokens: (
        RecordedPicks(real_stream(*tokens)) if tokens[1] == "pick" else real_stream(*tokens)))
    monkeypatch.setattr(ReplayBuffer, "sample", recording_sample)
    monkeypatch.setattr(optim, "collect_batch", recording_collect)

    def run():
        for log in (picks, samples, batches):
            log.clear()
        state, buffer = train(env, questions, tilts, uniform_coefficients(3), clip, MC, 11,
                              replay)
        dump = io.StringIO()
        buffer.dump(dump)
        return state.history, policies_text(env, state.policies), dump.getvalue()

    first = run()
    assert run() == first
    assert [len(p) for p in picks] == [6, 0, 0, 0]
    assert same_questions(batches[0].questions, questions[picks[0]])
    assert batches[0].weights.dtype == np.float64 and batches[0].weights.tolist() == [1.0] * 6
    assert len(samples) == 3
    for batch, (rows, weights) in zip(batches[1:], samples):
        assert same_questions(batch.questions, questions[rows])
        assert np.array_equal(batch.weights, weights)


def test_train_rejects_coefficients_for_another_seat_count():
    env = small_env(num_agents=2, rounds=1, seed=3)
    questions = env.generate_questions(4, "t")
    tilts = env.batch_tilts(questions)
    for seats in (1, 3):
        with pytest.raises(ValueError, match=f"covers {seats} agents.*2 seats"):
            train(env, questions, tilts, uniform_coefficients(seats), ClipConfig(iterations=1),
                  MC, seed=5, replay_config=ReplayConfig())
    # tilts of a longer question list fit every batch's shape, yet each
    # question would read another question's row: refused, naming both lengths
    longer = env.batch_tilts(env.generate_questions(5, "t"))
    with pytest.raises(ValueError, match="5 tilt rows for 4 questions"):
        train(env, questions, longer, uniform_coefficients(2), ClipConfig(iterations=1), MC,
              seed=5, replay_config=ReplayConfig())


def test_train_zero_iterations_keeps_initial_policies():
    env = small_env(num_agents=2, rounds=1, seed=3)
    questions = env.generate_questions(4, "t")
    state, buffer = train(
        env,
        questions,
        env.batch_tilts(questions),
        uniform_coefficients(2),
        ClipConfig(iterations=0),
        MC,
        seed=5,
        replay_config=ReplayConfig(),
    )
    assert state.history == []
    assert policies_text(env, state.policies) == policies_text(env, env.initial_policies())
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
    q = env.generate_questions(1, "t")
    policies = env.initial_policies()
    slots = q[np.zeros(6, dtype=np.intp)]
    batch1 = fresh_collect(env, slots, policies, 0, rollout_seed=44)
    batch2 = fresh_collect(env, slots, policies, 0, rollout_seed=44)
    assert np.array_equal(batch1.trajectories, batch2.trajectories)
    assert len(np.unique(batch1.trajectories, axis=0)) > 1, (
        "identical slots should draw from distinct streams"
    )


def test_rollout_batch_validation():
    q = question_set("AB", [0], [0.0])
    one, two = np.zeros((1, 1, 2), dtype=np.int64), np.zeros((2, 1, 2), dtype=np.int64)
    tilts = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError):
        RolloutBatch(questions=q, trajectories=two, weights=np.ones(1), ref_version=0,
                     contexts=two, tilts=tilts)
    with pytest.raises(ValueError):
        RolloutBatch(questions=q[:0], trajectories=one[:0], weights=np.ones(0), ref_version=0,
                     contexts=one[:0], tilts=tilts[:0])
    # one question's tilts would broadcast over a two-debate batch
    with pytest.raises(ValueError, match="equal length"):
        RolloutBatch(questions=q[[0, 0]], trajectories=two, weights=np.ones(2), ref_version=0,
                     contexts=two, tilts=tilts)
    RolloutBatch(questions=q, trajectories=one, weights=np.ones(1), ref_version=0, contexts=one,
                 tilts=tilts)


@pytest.mark.parametrize(
    "contexts_shape, answers_shape",
    # the last case's visit arrays agree, but the one-round tilts do not
    [((2, 1, 2), (1, 1, 2)), ((1, 1, 2), (1, 2, 2)), ((1, 1, 3), (1, 1, 2)), ((1, 2), (1, 2)),
     ((1, 2, 2), (1, 2, 2))],
)
def test_rollout_batch_rejects_visit_arrays_of_the_wrong_shape(contexts_shape, answers_shape):
    q = question_set("AB", [0], [0.0])
    with pytest.raises(ValueError, match="visit arrays"):
        RolloutBatch(questions=q, trajectories=np.zeros(answers_shape, dtype=np.int64),
                     weights=np.ones(1), ref_version=0,
                     contexts=np.zeros(contexts_shape, dtype=np.int64),
                     tilts=np.zeros((1, 1, 2, 2)))


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
