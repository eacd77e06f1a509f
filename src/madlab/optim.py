"""Clipped asymmetric policy optimization with a reference-policy anchor.

Each honest agent maximizes, over its tabular softmax logits,

    L_i = mean_m[ w_m * min(rho * A, clip(rho, 1-eps, 1+eps) * A) ]
          - eta_i * mean_m[ w_m * KL_m ]

where rho is the trajectory likelihood ratio against a frozen reference
policy, A the per-agent batch-mean-baselined advantage, KL_m the mean
per-visited-context KL(current || reference) over the T+1 rounds, and w_m an
importance weight (1 for fresh rollouts). Gradients are exact: the surrogate
term contributes A * rho * score per visit and is exactly zero on
trajectories in the clipped regime; the KL term contributes
p * ((log p - log q) - KL) per visited context. gradient_step reads each
visit's context row, answer code and tilt from the RolloutBatch, computes the
log-probs of all honest agents' visits in one pass over the (H, rows, K) logit
array, and adds every agent's gradient with one np.bincount in per-visit order
before one update of the whole array, clamped to +-LOGIT_CLAMP so ratios and
KL terms stay finite. Training never evaluates L_i itself; its scalar form,
one trajectory at a time, lives with the tests as the reference this gradient
is checked against.

Rollouts always happen under the reference snapshot; the reference refreshes
every ref_refresh_period iterations, and gradient_step refuses batches whose
reference version is stale.

Each of train's batches is one index array into its question set and tilts:
the fresh picks, then the rows the replay buffer samples by priority; the
buffer stores each scored debate under its question's row.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import IO, Sequence

import numpy as np

from madlab.debate import write_csv
from madlab.metrics import (  # noqa: F401  full_profile: perfbench's tracer test patches this binding
    MetricConfig,
    full_profile,
    profiles_from_codes,
)
from madlab.policy import (
    LOGIT_CLAMP,
    DebateEnv,
    QuestionSet,
    derive_key,
    rng_stream,
)
from madlab.replay import ReplayBuffer, ReplayConfig, replay_score
from madlab.rewards import CoefficientSet, total_reward


@dataclass(frozen=True)
class ClipConfig:
    """Optimization knobs for the clipped objective."""

    epsilon: float = 0.2
    learn_rate: float = 0.1
    batch_size: int = 32
    iterations: int = 200
    ref_refresh_period: int = 1

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.learn_rate <= 0.0:
            raise ValueError("learn_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.ref_refresh_period < 1:
            raise ValueError("ref_refresh_period must be at least 1")


@dataclass(frozen=True)
class IterationStats:
    """One training-curve row."""

    iteration: int
    accuracy: float
    mean_u_intra: float
    mean_u_inter: float
    mean_u_sys: float
    mean_total_reward: float


@dataclass
class TrainState:
    """Mutable training snapshot; never shared across threads.

    policies and reference are (H, rows, K) logit arrays, block i honest seat
    i's table. Training never writes into either: gradient_step binds a new
    policies array, so a reference may be the very array it was taken from.
    """

    policies: np.ndarray
    reference: np.ndarray
    ref_version: int
    coeffs: CoefficientSet
    history: list[IterationStats] = field(default_factory=list)


@dataclass(frozen=True)
class RolloutBatch:
    """Debates collected under one reference snapshot, with their visits.

    trajectories[m, t, i] and contexts[m, t, i] are the answer code and context
    row of agent i at round t of debate m, and tilts[m] its (T+1, H, K) tilts,
    as recorded under the reference's (H, rows, K) logits; the benchmark's
    traced run reads len(trajectories) as the batch size. weights is the (B,)
    float64 array of importance weights, batch mean 1; fresh slots carry 1.
    """

    questions: QuestionSet
    trajectories: np.ndarray
    weights: np.ndarray
    ref_version: int
    contexts: np.ndarray
    tilts: np.ndarray

    def __post_init__(self) -> None:
        if len({len(f) for f in (self.questions, self.trajectories, self.weights, self.tilts)}) > 1:
            raise ValueError("batch fields must have equal length")
        if not self.questions:
            raise ValueError("empty batch")
        if (self.trajectories.ndim != 3 or self.contexts.shape != self.trajectories.shape
                or self.tilts.shape[:2] != self.contexts.shape[:2]):
            raise ValueError(f"visit arrays (B, T+1, N) and tilts (B, T+1, H, K) must agree, got "
                             f"{self.contexts.shape} {self.trajectories.shape} {self.tilts.shape}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite advantage is raised below
def compute_advantages(totals: np.ndarray) -> np.ndarray:
    """Per-agent totals (batch x agents) centered on their batch means; raises, naming
    the agent and batch slot, when a total or a total's batch mean is not finite."""
    totals = np.asarray(totals, dtype=np.float64)
    if totals.ndim != 2 or totals.shape[0] == 0:
        raise ValueError("totals must be a non-empty (batch x agents) array")
    finite = np.isfinite(totals)
    adv = totals - totals.mean(axis=0)
    broken = ~np.isfinite(adv) if finite.all() else ~finite
    if broken.any():
        m, i = np.unravel_index(np.argmax(broken), broken.shape)
        why = "is not finite" if not finite[m, i] else "is finite, but its batch mean is not finite"
        raise ValueError(
            f"agent {i}: reward total at batch slot {m} ({float(totals[m, i])!r}) {why}")
    return adv


def surrogate_is_clipped(rho, advantage, epsilon: float):
    """True (elementwise) when the min() selects the flat branch, killing the gradient."""
    return (advantage > 0.0) & (rho > 1.0 + epsilon) | (advantage < 0.0) & (rho < 1.0 - epsilon)


def _log_probs(logits: np.ndarray, rows: np.ndarray | int, tilts: np.ndarray) -> np.ndarray:
    """Log-softmax of logits[rows] + tilts over the labels, one row per visit."""
    z = logits[rows] + tilts
    z = z - z.max(axis=-1, keepdims=True)
    # math.log per visit: np.log differs from it in the last bit on some sums.
    norm = list(map(math.log, np.exp(z).sum(axis=-1).ravel().tolist()))
    return z - np.reshape(norm, z.shape[:-1] + (1,))


_MAX_LOG_RATIO = math.log(np.finfo(np.float64).max)  # math.exp overflows above it


def _ratio_error(log_rho: np.ndarray, size: np.ndarray) -> ValueError:
    m, h = np.unravel_index(np.argmax(size), size.shape)
    return ValueError(f"agent {h}: likelihood ratio overflows at batch slot {m} "
                      f"(log rho = {float(log_rho[m, h])!r}); no table was changed")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite gradient is raised below
def gradient_step(
    env: DebateEnv,
    state: TrainState,
    batch: RolloutBatch,
    clip: ClipConfig,
    totals: np.ndarray,
) -> TrainState:
    """One exact ascent step on every honest agent's objective.

    totals holds each batch trajectory's per-agent total reward (batch x
    agents); advantages are centered on their batch means. Refuses batches
    rolled out under a stale reference, and raises before changing any table
    when a likelihood ratio or a gradient is not finite. The stepped logits
    are a new array bound to state.policies; the array it held is unchanged.
    """
    if batch.ref_version != state.ref_version:
        raise ValueError(
            f"stale rollouts: batch reference version {batch.ref_version}, "
            f"state expects {state.ref_version}"
        )
    # The honest seats come first, so their columns are the first H.
    h, n_rows, k = state.policies.shape
    adv = compute_advantages(totals)[:, :h]
    m_total, steps = batch.contexts.shape[:2]
    weights = batch.weights[:, None]
    # The current and reference logits as (H * rows, K) arrays; visits index
    # their rows.
    cur, ref = state.policies.reshape(-1, k), state.reference.reshape(-1, k)
    visits = batch.contexts[:, :, :h] + n_rows * np.arange(h)
    answers = batch.trajectories[:, :, :h, None]
    lc = _log_probs(cur, visits, batch.tilts)
    # When the reference equals the current tables (each step at the default
    # ref_refresh_period = 1), its log-probs are the current ones and each KL
    # row adds only -0.0, so neither is computed.
    shared = np.array_equal(cur, ref)
    lr = lc if shared else _log_probs(ref, visits, batch.tilts)
    picked = np.take_along_axis(np.stack([lc, lr]), answers[None], -1)[..., 0]
    lp = picked.cumsum(axis=2)[:, :, -1]  # rounds added left to right; np.sum pairs 8+ terms
    log_rho = lp[0] - lp[1]
    if (log_rho > _MAX_LOG_RATIO).any():
        raise _ratio_error(log_rho, log_rho)
    rho = np.reshape(list(map(math.exp, log_rho.ravel().tolist())), log_rho.shape)
    active = (adv != 0.0) & ~surrogate_is_clipped(rho, adv, clip.epsilon)
    # One gradient entry per (part, round, agent, column) of each trajectory:
    # part 0 is each round's surrogate score (-coef * p over the labels, then
    # +coef at the answer), part 1 each round's KL row. np.bincount adds each
    # bin's entries in this per-visit order from +0.0, as np.add.at would. A
    # clipped slot or a zero anchor adds only +-0.0, which leaves a bin as it
    # is, so no entry needs masking.
    p = np.exp(lc)
    surrogate = weights * adv * rho
    coef = np.where(active, surrogate, 0.0)[:, None, :, None]
    parts = [np.concatenate([-(coef * p), np.broadcast_to(coef, answers.shape)], -1)]
    if not shared:
        eta = state.coeffs.eta_anchor[:h]
        diff = lc - lr
        kl = (p[..., None, :] @ diff[..., :, None])[..., 0]  # as np.dot; einsum is not
        scale = (weights * eta / steps)[:, None, :, None]
        parts.append(np.concatenate([-(scale * p * (diff - kl)), np.zeros(answers.shape)], -1))
    vals = np.stack(parts, axis=1)
    cols = np.concatenate([np.broadcast_to(np.arange(k), p.shape), answers], -1)
    at = np.broadcast_to((visits[..., None] * k + cols)[:, None], vals.shape)
    grad = np.bincount(at.ravel(), vals.ravel(), minlength=cur.size).reshape(h, n_rows, k)
    broken = ~np.isfinite(grad).all(axis=(1, 2))
    if broken.any():  # only an unclipped slot's ratio can carry a gradient this far
        raise _ratio_error(log_rho, np.where(active & broken, np.abs(surrogate), 0.0))
    state.policies = np.clip(state.policies + clip.learn_rate * (grad / m_total),
                             -LOGIT_CLAMP, LOGIT_CLAMP)
    return state


def collect_batch(
    env: DebateEnv,
    questions: QuestionSet,
    tilts: np.ndarray,
    policies: np.ndarray,
    ref_version: int,
    rollout_seed: int,
    weights: Sequence[float],
) -> RolloutBatch:
    """Roll out one debate per question on its tilts; each batch slot gets its own stream."""
    seeds = [derive_key(rollout_seed, m) for m in range(len(questions))]
    contexts, answers = env.rollout_batch(questions, tilts, policies, seeds)
    return RolloutBatch(
        questions=questions,
        trajectories=answers,
        weights=np.asarray(weights, dtype=np.float64),
        ref_version=ref_version,
        contexts=contexts,
        tilts=tilts,
    )


def train(
    env: DebateEnv,
    train_questions: QuestionSet,
    train_tilts: np.ndarray,
    coeffs: CoefficientSet,
    clip: ClipConfig,
    metric_config: MetricConfig,
    seed: int,
    replay_config: ReplayConfig,
) -> tuple[TrainState, ReplayBuffer | None]:
    """Full training loop: rollout under the reference, step, refresh, replay.

    train_tilts[j] is train_questions[j]'s tilts; the buffer is None when
    replay_config.enabled is false. Every random draw is keyed by (seed,
    purpose, iteration, ...), so same-argument reruns match exactly.
    """
    if not train_questions:
        raise ValueError("train() needs at least one question")
    if len(train_tilts) != len(train_questions):
        raise ValueError(f"{len(train_tilts)} tilt rows for {len(train_questions)} questions")
    if not env.honest:
        raise ValueError("train() needs at least one honest agent; every seat is compromised")
    if coeffs.num_agents != env.config.num_agents:
        raise ValueError(
            f"coefficient set covers {coeffs.num_agents} agents, "
            f"the debate has {env.config.num_agents} seats"
        )
    policies = env.initial_policies()
    state = TrainState(policies=policies, reference=policies, ref_version=0, coeffs=coeffs)
    buffer = (ReplayBuffer(replay_config, train_questions, train_tilts)
              if replay_config.enabled else None)

    def scored(questions: QuestionSet, answers: np.ndarray):
        profiles = profiles_from_codes(answers, len(env.answer_space), metric_config)
        return profiles, total_reward(profiles, profiles.winners == questions.truth, coeffs)

    for k in range(1, clip.iterations + 1):
        n_replay = 0
        if buffer is not None and len(buffer) > 0:
            n_replay = int(round(replay_config.fraction * clip.batch_size))
        n_fresh = clip.batch_size - n_replay
        pick_rng = rng_stream(seed, "pick", k)
        idx = pick_rng.choice(
            len(train_questions), size=n_fresh, replace=len(train_questions) < n_fresh
        )
        weights = np.ones(n_fresh)
        if n_replay > 0:
            replayed, replay_weights = buffer.sample(n_replay, rng_stream(seed, "replay", k))
            idx = np.concatenate([idx, replayed])
            weights = np.concatenate([weights, replay_weights])
        batch = collect_batch(
            env,
            train_questions[idx],
            train_tilts[idx],
            state.reference,
            state.ref_version,
            derive_key(seed, "rollout", k),
            weights,
        )
        profiles, rewards = scored(batch.questions, batch.trajectories)
        gradient_step(env, state, batch, clip, rewards.total)
        state.history.append(
            IterationStats(
                iteration=k,
                accuracy=float(np.mean(rewards.r_task)),
                mean_u_intra=float(np.mean(profiles.u_intra)),
                mean_u_inter=float(np.mean(profiles.u_inter)),
                mean_u_sys=float(np.mean(profiles.u_sys)),
                # the honest columns copied column-major: the order this mean was pinned in
                mean_total_reward=float(rewards.total[:, :env.honest].copy(order="F").mean()),
            )
        )
        if buffer is not None:
            buffer.push(idx, batch.trajectories, replay_score(rewards), k, state.ref_version)
            if replay_config.refresh_period and k % replay_config.refresh_period == 0:
                buffer.refresh(
                    env,
                    state.policies,
                    rollout_seed=derive_key(seed, "buffer-refresh", k),
                    policy_version=state.ref_version,
                    score=lambda questions, answers: replay_score(scored(questions, answers)[1]),
                )
        if k % clip.ref_refresh_period == 0:
            state.reference = state.policies
            state.ref_version += 1
    return state, buffer


TRAINING_CSV_HEADER = "iter,accuracy,mean_U_intra,mean_U_inter,mean_U_sys,mean_total_reward"


def write_training_csv(path_or_fp: str | IO[str], history: Sequence[IterationStats]) -> None:
    """Training-curve CSV, one row per iteration."""
    write_csv(path_or_fp, TRAINING_CSV_HEADER, map(astuple, history))
