"""The clipped, reference-anchored objective one debate at a time: the
scalar reference the batched engine in madlab.policy and madlab.optim must
reproduce.

build_context rebuilds one agent's context row from a round's labels with a
dict of peer counts, probs is a table row's softmax, and trajectory_log_prob,
likelihood_ratio, kl_anchor and objective_value evaluate the objective of
madlab.optim on one (question, answer codes, agent) at a time: the question
a QuestionSet of one, its debate's answer codes the (T+1, N) grid
RolloutBatch.trajectories holds.
broadcast_round_contexts is the earlier whole-batch form of the context
formula, an oracle for policy._round_contexts. The tests check
rollout_batch's recorded contexts against build_context,
gradient_step against central differences of objective_value, and the clip
fixtures against likelihood_ratio. kl_anchor shares the log-softmax of
gradient_step. per_stream_questions draws each question from its own
rng_stream, the way DebateEnv.generate_questions must reproduce from one
vectorized Philox pass. Acts and tilts have no Generator draws to match: each
debate and each question reads raw words of its one Philox key at fixed
positions, and test_policy's per_draw_rollout and per_stream_tilts index
numpy's own Philox.random_raw at those positions one word at a time.
uniform_coefficients is the coefficient set the tests share: every seat at
CalibrationConfig's bases, the values an all-zero warm-up reading gives.
question_set builds a QuestionSet from plain lists, and same_questions
compares two sets column by column, bit for bit (a QuestionSet has no ==).
trajectory_codes encodes hand-made trajectories' label grids into answer
codes, profile_row takes one debate's row of a ProfileBatch as a batch of
one, and same_profiles compares two batches field by field, bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from madlab.calibration import CalibrationConfig, calibrate_coefficients
from madlab.debate import DebateTrajectory, answer_index
from madlab.metrics import ProfileBatch
from madlab.optim import ClipConfig, RolloutBatch, _log_probs
from madlab.policy import (
    TRUTH_SKEW,
    DebateEnv,
    QuestionSet,
    contexts_per_bin,
    parse_difficulty_spec,
    rng_stream,
)
from madlab.rewards import CoefficientSet


def uniform_coefficients(num_agents: int, **values: float) -> CoefficientSet:
    """Every seat's coefficients at CalibrationConfig's bases, or at the values
    given by field name (alpha, beta, gamma, lambda_task, eta_anchor)."""
    bases = calibrate_coefficients(np.zeros((3, num_agents)), CalibrationConfig())
    return dataclasses.replace(bases, **{f: np.full(num_agents, v) for f, v in values.items()})


def question_set(space: Sequence[str], truth: Sequence[int], difficulty: Sequence[float],
                 ids: Sequence[str] | None = None) -> QuestionSet:
    """A QuestionSet over space; ids default to q0, q1, ..."""
    ids = [f"q{j}" for j in range(len(truth))] if ids is None else ids
    return QuestionSet(tuple(space), np.array(ids, dtype=str), np.array(truth, dtype=np.int64),
                       np.array(difficulty, dtype=np.float64))


def same_questions(a: QuestionSet, b: QuestionSet) -> bool:
    """Whether two sets hold the same answer space and bit-identical columns."""
    return a.answer_space == b.answer_space and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.ids, b.ids), (a.truth, b.truth), (a.difficulty, b.difficulty)))


def trajectory_codes(trajectories: Sequence[DebateTrajectory]) -> np.ndarray:
    """(B, T+1, N) answer codes of trajectories that share one answer space and
    grid shape: each label's index in the first trajectory's answer space."""
    index = answer_index(trajectories[0].answer_space)
    return np.array([[[index[a] for a in row] for row in traj.rounds] for traj in trajectories],
                    dtype=np.int64)


def profile_row(profiles: ProfileBatch, j: int) -> ProfileBatch:
    """Debate j's readings as a batch of one."""
    return ProfileBatch(*(getattr(profiles, f.name)[j:j + 1]
                          for f in dataclasses.fields(ProfileBatch)))


def same_profiles(a: ProfileBatch, b: ProfileBatch) -> bool:
    """Whether two batches hold bit-identical columns, field by field."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in dataclasses.fields(ProfileBatch)))


def build_context(
    question_feature: int,
    prev_row: Sequence[str] | None,
    agent_index: int,
    order: Sequence[str],
) -> int:
    """Context row of one agent at one round; prev_row is None at round 0.

    The peer mode ties break order-minimal. The agreement bin splits the
    agreeing-peer fraction into thirds (exact integer arithmetic).
    """
    k = len(order)
    base = question_feature * contexts_per_bin(k)
    if prev_row is None:
        return base
    own = order.index(prev_row[agent_index])
    peers = [a for j, a in enumerate(prev_row) if j != agent_index]
    counts: dict[str, int] = {}
    for a in peers:
        counts[a] = counts.get(a, 0) + 1
    top = max(counts.values())
    mode = next(j for j, label in enumerate(order) if counts.get(label, 0) == top)
    p = len(peers)
    if 3 * top <= p:
        agreement = 0
    elif 3 * top <= 2 * p:
        agreement = 1
    else:
        agreement = 2
    return base + 1 + (own * k + mode) * 3 + agreement


def broadcast_round_contexts(base: np.ndarray | int, prev: np.ndarray, k: int) -> np.ndarray:
    """policy._round_contexts on one (B, N, K) one-hot broadcast: each seat's
    peers per label are the label's column sum less its own one-hot row, the
    mode their first argmax."""
    n = prev.shape[-1]
    own = prev[:, :, None] == np.arange(k)
    peers = own.sum(axis=1, keepdims=True) - own
    top = peers.max(axis=-1)
    agreement = (3 * top > n - 1).astype(np.int64) + (3 * top > 2 * (n - 1))
    return base + 1 + (prev * k + peers.argmax(axis=-1)) * 3 + agreement


def probs(policy: np.ndarray, row: int, tilt: np.ndarray) -> np.ndarray:
    """Softmax of one row of a seat's (rows, K) logits plus a tilt."""
    z = policy[row] + tilt
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def trajectory_log_prob(
    env: DebateEnv,
    policy: np.ndarray,
    agent_index: int,
    question: QuestionSet,
    answers: np.ndarray,
) -> float:
    """log pi(answers) for one honest agent on a set of one question: sum over rounds 0..T."""
    total = 0.0
    for ctx, tilt, answer in zip(*env.agent_steps(question, answers, agent_index)):
        p = probs(policy, ctx, tilt)
        total += float(np.log(p[answer]))
    return total


def likelihood_ratio(
    env: DebateEnv,
    current: np.ndarray,
    reference: np.ndarray,
    agent_index: int,
    question: QuestionSet,
    answers: np.ndarray,
) -> float:
    """exp(log pi_theta(tau) - log pi_ref(tau)) for one honest agent."""
    lp_cur = trajectory_log_prob(env, current, agent_index, question, answers)
    lp_ref = trajectory_log_prob(env, reference, agent_index, question, answers)
    return math.exp(lp_cur - lp_ref)


def clipped_surrogate(rho: float, advantage: float, epsilon: float) -> float:
    """min(rho * A, clip(rho, 1-eps, 1+eps) * A); reduces to A at rho = 1."""
    clipped = min(max(rho, 1.0 - epsilon), 1.0 + epsilon)
    return min(rho * advantage, clipped * advantage)


def kl_anchor(
    env: DebateEnv,
    current: np.ndarray,
    reference: np.ndarray,
    agent_index: int,
    question: QuestionSet,
    answers: np.ndarray,
) -> float:
    """Mean per-visited-context KL(current || reference) over the T+1 rounds."""
    rows, tilts, _ = env.agent_steps(question, answers, agent_index)
    total = 0.0
    for ctx, tilt in zip(rows, tilts):
        lp_cur = _log_probs(current, ctx, tilt)
        lp_ref = _log_probs(reference, ctx, tilt)
        p = np.exp(lp_cur)
        total += float(np.dot(p, lp_cur - lp_ref))
    return total / len(rows)


def objective_value(
    env: DebateEnv,
    policies: np.ndarray,
    reference: np.ndarray,
    batch: RolloutBatch,
    advantages: np.ndarray,
    coeffs: CoefficientSet,
    clip: ClipConfig,
) -> dict[int, float]:
    """Per-honest-agent objective on a fixed batch with fixed (batch x agents)
    advantages; policies and reference are (H, rows, K) logit arrays."""
    out: dict[int, float] = {}
    m_total = len(batch.trajectories)
    for i in range(env.honest):
        cur, ref = policies[i], reference[i]
        surr = 0.0
        kl = 0.0
        for m, answers in enumerate(batch.trajectories):
            q = batch.questions[m:m + 1]
            w = batch.weights[m]
            a = float(advantages[m, i])
            rho = likelihood_ratio(env, cur, ref, i, q, answers)
            surr += w * clipped_surrogate(rho, a, clip.epsilon)
            kl += w * kl_anchor(env, cur, ref, i, q, answers)
        out[i] = surr / m_total - coeffs.eta_anchor[i] * kl / m_total
    return out


def per_stream_questions(env: DebateEnv, count: int, label: str) -> QuestionSet:
    """generate_questions one rng_stream per question: a choice(K, p=weights)
    for the truth, then a uniform(lo, hi) for the difficulty unless lo == hi."""
    lo, hi = parse_difficulty_spec(env.config.difficulty)
    k = len(env.answer_space)
    weights = np.full(k, (1.0 - TRUTH_SKEW) / (k - 1))
    weights[0] = TRUTH_SKEW
    ids, truths, difficulties = [], [], []
    for idx in range(count):
        qid = f"{label}-{idx:05d}"
        rng = rng_stream(env.config.seed, "question", qid)
        ids.append(qid)
        truths.append(int(rng.choice(k, p=weights)))
        difficulties.append(lo if lo == hi else float(rng.uniform(lo, hi)))
    return question_set(env.answer_space, truths, difficulties, ids)
