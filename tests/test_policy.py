"""Environment determinism, context building, policy tables, serialization."""

from __future__ import annotations

import collections
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from numpy.random import bit_generator

from madlab import policy as policy_module
from madlab.harness import run_attack, run_baseline, run_sweep, run_udpo
from madlab.metrics import MetricConfig
from madlab.optim import ClipConfig, train
from madlab.policy import (
    LOGIT_CLAMP,
    DebateEnv,
    EnvConfig,
    answer_labels,
    context_key,
    contexts_per_bin,
    derive_key,
    difficulty_bin,
    parse_difficulty_spec,
    rng_stream,
    save_policy,
)
from madlab.replay import ReplayConfig
from reference_impl import (
    broadcast_round_contexts,
    build_context,
    per_stream_questions,
    probs,
    question_set,
    same_questions,
    trajectory_log_prob,
    uniform_coefficients,
)
from test_golden import k3_below_ramp_config, k12_config
from test_harness import tiny_config


def small_env(**overrides):
    defaults = dict(num_agents=3, rounds=2, answer_space_size=3, seed=11)
    defaults.update(overrides)
    return DebateEnv(EnvConfig(**defaults))


def test_answer_labels_are_letters():
    assert answer_labels(4) == ("A", "B", "C", "D")
    with pytest.raises(ValueError):
        answer_labels(1)
    with pytest.raises(ValueError):
        answer_labels(27)


def test_rng_streams_are_reproducible_and_disjoint():
    a1 = rng_stream(5, "act", "q-1", 0, 0).random(4)
    a2 = rng_stream(5, "act", "q-1", 0, 0).random(4)
    b = rng_stream(5, "act", "q-1", 0, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    # the same draws as numpy's Philox built on the key
    fresh = np.random.Generator(np.random.Philox(key=derive_key(5, "act", "q-1", 0, 0)))
    assert np.array_equal(a1, fresh.random(4))


def test_difficulty_bin_edges():
    # 0.0, each inner edge of 5 bins and a value just below it, and 1.0, which
    # lands in the top bin: the scalar rule min(int(d * bins), bins - 1) on each
    d = np.array([0.0, 0.19, 0.2, 0.39, 0.4, 0.59, 0.6, 0.79, 0.8, 0.99, 1.0])
    got = difficulty_bin(d, 5)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4]
    assert got.tolist() == [min(int(x * 5), 4) for x in d.tolist()]
    assert difficulty_bin(d, 1).tolist() == [0] * len(d)


def test_parse_difficulty_spec():
    assert parse_difficulty_spec("uniform") == (0.0, 1.0)
    assert parse_difficulty_spec("uniform:0.2,0.8") == (0.2, 0.8)
    assert parse_difficulty_spec("fixed:0.5") == (0.5, 0.5)
    for bad in ("fixed:2", "uniform:0.9,0.1", "gauss", "uniform:1"):
        with pytest.raises(ValueError):
            parse_difficulty_spec(bad)


def test_null_context_at_round_zero():
    ctx = build_context(3, None, 0, ("A", "B"))
    assert ctx == 3 * contexts_per_bin(2)
    assert context_key(ctx, ("A", "B")) == "3|-|-|0"


def test_context_peer_mode_and_agreement_bins():
    order = ("A", "B", "C")
    cases = [
        (("A", "B", "B", "B", "C"), 0, "0|A|B|2"),  # 4 peers, 3 agree on B: frac 3/4 -> top third
        # 3 peers, 1 each: mode ties break to order-minimal, frac 1/3 -> bottom third
        (("C", "A", "B", "C"), 3, "0|C|A|0"),
        (("B", "C", "C", "A"), 0, "0|B|C|1"),  # 3 peers, 2 agree: frac 2/3 -> middle third
    ]
    for prev_row, i, key in cases:
        assert context_key(build_context(0, prev_row, i, order), order) == key
        codes = np.array([[order.index(a) for a in prev_row]])
        assert context_key(int(policy_module._round_contexts(0, codes, 3)[0, i]), order) == key


@pytest.mark.parametrize("batch", [0, 1, 1000])
def test_round_contexts_match_the_broadcast_oracle(batch):
    rng = np.random.default_rng(batch)
    for k in range(2, 27):
        for n in range(2, 10):
            # few distinct answers per debate, so peer-mode ties are common
            prev = rng.integers(0, rng.integers(1, k + 1), (batch, n))
            base = contexts_per_bin(k) * rng.integers(0, 3, (batch, 1))
            got = policy_module._round_contexts(base, prev, k)
            assert got.shape == (batch, n)
            assert np.array_equal(got, broadcast_round_contexts(base, prev, k)), (k, n)


@pytest.mark.parametrize("k", range(2, 27))
def test_label_sum_adds_in_numpys_order(k):
    # a softmax over the leading label axis must normalize bit for bit as
    # numpy sums a contiguous last axis, pairwise from K = 8 up
    rng = np.random.default_rng(k)
    z = np.exp(rng.normal(0.0, 3.0, (5000, 6, k)))
    expected = z.sum(axis=-1)
    assert policy_module._label_sum(z.transpose(2, 0, 1)).tobytes() == expected.tobytes()
    assert policy_module._label_sum(np.moveaxis(z, -1, 0).copy()).tobytes() == expected.tobytes()


def test_context_key_round_trip():
    labels = ("A", "B", "C", "D")
    keys = [context_key(row, labels) for row in range(2 * contexts_per_bin(4))]
    assert len(set(keys)) == len(keys) == 98
    assert keys[0] == "0|-|-|0" and keys[49] == "1|-|-|0" and keys[-1] == "1|D|D|2"
    for row, key in enumerate(keys):
        question_feature, own, mode, agreement = key.split("|")
        offset = 0 if own == "-" else 1 + (labels.index(own) * 4 + labels.index(mode)) * 3
        assert int(question_feature) * contexts_per_bin(4) + offset + int(agreement) == row


def test_policy_probs_with_tilt():
    p = probs(np.zeros((1, 2)), 0, tilt=np.array([math.log(3.0), 0.0]))
    assert abs(p[0] - 0.75) < 1e-12


def test_sample_answer_follows_distribution():
    # Round-0 answers follow the softmax of the null-context logits plus each tilt.
    env = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=2, skills=(0.5,),
                              seed=8, difficulty="fixed:1.0"))
    questions = env.generate_questions(2000, "t")
    policies = env.initial_policies()
    policies[:, 0, 0] += math.log(9.0)
    seeds = [derive_key(1, m) for m in range(len(questions))]
    batch = env.batch_tilts(questions)
    _, answers = env.rollout_batch(questions, batch, policies, seeds)
    expected = np.mean([probs(p, 0, tilts[0, i])[0]
                        for tilts in batch for i, p in enumerate(policies)])
    assert 0.6 < expected < 0.9
    assert abs(np.mean(answers[:, 0] == 0) - expected) < 0.025


def test_env_config_validation():
    with pytest.raises(ValueError, match="num_agents"):
        EnvConfig(num_agents=1)
    with pytest.raises(ValueError, match="rounds"):
        EnvConfig(rounds=0)
    with pytest.raises(ValueError, match="adversarial_target_policy"):
        EnvConfig(adversarial_target_policy="chaos")
    with pytest.raises(ValueError, match="outside the answer space"):
        EnvConfig(answer_space_size=3, adversarial_target_policy="fixed:D")
    with pytest.raises(ValueError, match="seed"):
        EnvConfig(seed=-1)
    with pytest.raises(ValueError, match="compromised_count 4 exceeds num_agents"):
        EnvConfig(num_agents=3, compromised_count=4)
    for skill in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"skills must be in \[0, 1\]"):
            EnvConfig(skills=(0.5, skill))
    # every seat compromised stays legal: attack evaluation uses it
    assert DebateEnv(EnvConfig(num_agents=3, compromised_count=3)).honest == 0


def test_generated_questions_are_valid_and_stable():
    env = small_env()
    qs1 = env.generate_questions(10, "train")
    assert len(qs1) == 10 and qs1.answer_space == env.answer_space
    assert qs1.ids.dtype.kind == "U" and qs1.truth.dtype == np.int64
    assert qs1.difficulty.dtype == np.float64
    assert same_questions(qs1, env.generate_questions(10, "train"))
    # ids, and every column, stable under count growth
    qs3 = env.generate_questions(20, "train")
    assert same_questions(qs3[:10], qs1)
    assert qs1.ids[:2].tolist() == ["train-00000", "train-00001"]
    assert ((0 <= qs1.truth) & (qs1.truth < len(qs1.answer_space))).all()
    assert ((0.0 <= qs1.difficulty) & (qs1.difficulty <= 1.0)).all()
    # different labels give different questions
    qs_eval = env.generate_questions(10, "eval")
    assert qs_eval.ids[0] == "eval-00000"
    assert not (np.array_equal(qs1.truth, qs_eval.truth)
                and np.array_equal(qs1.difficulty, qs_eval.difficulty))
    # rows select by slice or index array; a set does not iterate
    picked = qs3[np.array([12, 0, 12])]
    assert picked.ids.tolist() == ["train-00012", "train-00000", "train-00012"]
    assert picked.truth.tolist() == qs3.truth[[12, 0, 12]].tolist()
    with pytest.raises(TypeError):
        iter(qs1)
    with pytest.raises(TypeError):
        list(qs1)
    # nor does it hand out one row alone, whose columns would be 0-d
    for j in (0, np.int64(3)):
        with pytest.raises(TypeError, match=re.escape("qs[j:j + 1]")):
            qs1[j]


def test_fixed_difficulty_spec_is_constant():
    env = small_env(difficulty="fixed:0.25")
    assert env.generate_questions(5, "t").difficulty.tolist() == [0.25] * 5


def test_rollout_shape_validity_and_determinism():
    env = small_env()
    qs = env.generate_questions(12, "train")
    pols = env.initial_policies()
    any_differ = False
    for j in range(len(qs)):
        q = qs[j:j + 1]
        codes = env.rollout_debate(q, pols, rollout_seed=99)
        assert codes.shape == (2 + 1, 3) and codes.dtype == np.int64  # (T+1, N)
        assert 0 <= codes.min() and codes.max() < len(env.answer_space)
        assert np.array_equal(codes, env.rollout_debate(q, pols, rollout_seed=99))
        any_differ = any_differ or not np.array_equal(
            codes, env.rollout_debate(q, pols, rollout_seed=100))
    # a fresh seed must change something somewhere in the batch
    assert any_differ


def philox_words(count, *tokens):
    """Words 0..count-1 of the Philox stream keyed by the hashed scope tokens,
    from numpy's own Philox."""
    return np.random.Philox(key=derive_key(*tokens)).random_raw(count)


def unit(word):
    """numpy's random() of one raw word."""
    return (int(word) >> 11) * 2.0**-53


def per_stream_tilts(env, question):
    """The (T+1, H, K) honest-seat tilts of a set of one question read word by
    word from its tilt key: the reference DebateEnv.batch_tilts reproduces.

    Normal (t, i, label) is number j = (t * N + i) * K + label, the cosine
    (even j) or sine (odd j) half of the Box-Muller pair on words j - j % 2
    and j - j % 2 + 1. The two words after the normals, their count rounded
    up to even, are the flare's fire and pick uniforms.
    """
    cfg = env.config
    n, k, steps = cfg.num_agents, len(env.answer_space), cfg.rounds + 1
    paired = steps * n * k + steps * n * k % 2
    words = philox_words(paired + 2, cfg.seed, "tilt", question.ids[0])
    truth, difficulty = int(question.truth[0]), float(question.difficulty[0])

    def normal(t, i, label):
        j = (t * n + i) * k + label
        u1, u2 = unit(words[j - j % 2]), unit(words[j - j % 2 + 1])
        trig = np.sin if j % 2 else np.cos
        return np.sqrt(-2.0 * np.log1p(-u1)) * trig(2.0 * np.pi * u2)

    ramp = min(1.0, difficulty / policy_module.AVERSION_RAMP)
    persist = policy_module.SIGNAL_PERSIST + (1.0 - policy_module.SIGNAL_PERSIST) * (1.0 - ramp)
    scale = policy_module.SIGNAL_WOBBLE + policy_module.SIGNAL_WOBBLE_SLOPE * difficulty
    tilts = np.zeros((steps, env.honest, k))
    for i in range(env.honest):
        skill = cfg.skills[i % len(cfg.skills)]
        signal = np.array([policy_module.SIGNAL_NOISE * normal(0, i, label) for label in range(k)])
        signal[truth] += policy_module.SIGNAL_GAIN * skill * (1.0 - difficulty)
        tilts[0, i] = signal
        for t in range(1, steps):
            wobble = np.array([normal(t, i, label) for label in range(k)])
            tilts[t, i] = persist * signal + scale * wobble
    if cfg.rounds >= 4 and unit(words[paired]) < difficulty:
        wrong = [j for j in range(k) if j != truth]
        flare = wrong[math.floor(unit(words[paired + 1]) * (k - 1))]
        push = cfg.rounds - 3
        tilts[push, :, flare] += policy_module.FLARE_SCALE
        tilts[push + 1, :, flare] -= policy_module.FLARE_SCALE
    tilts[1:, :, 0] += policy_module.LABEL_AVERSION * ramp
    return tilts


def adversary_label(rule, truth, labels):
    """The label compromised seats answer on truth code `truth`: the fixed:X
    target X, or the first (min_wrong) or last (max_wrong) other label."""
    if rule.startswith("fixed:"):
        return rule[len("fixed:") :]
    order = labels if rule == "min_wrong" else labels[::-1]
    return next(label for label in order if label != labels[truth])


def per_draw_rollout(env, question, policies, rollout_seed):
    """The rounds of a set of one question's debate drawn one act at a time
    from its act key, seat i at round t reading word t * N + i, and the
    compromised seats answering adversary_label: the reference the batched
    engine reproduces."""
    target = adversary_label(env.config.adversarial_target_policy, int(question.truth[0]),
                             env.answer_space)
    qf = int(difficulty_bin(question.difficulty, env.config.difficulty_bins)[0])
    tilts = per_stream_tilts(env, question)
    n, steps = env.config.num_agents, env.config.rounds + 1
    words = philox_words(steps * n, rollout_seed, "act", question.ids[0])
    rows = []
    for t in range(steps):
        prev = rows[t - 1] if t else None
        row = []
        for i in range(n):
            if i >= env.honest:
                row.append(target)
                continue
            p = probs(policies[i], build_context(qf, prev, i, env.answer_space), tilts[t, i])
            idx = int(np.searchsorted(np.cumsum(p), unit(words[t * n + i]), side="right"))
            row.append(env.answer_space[min(idx, len(p) - 1)])
        rows.append(tuple(row))
    return tuple(rows)


def perturbed(policies, seed, scale=1.5):
    """A new (H, rows, K) logit array: policies plus seeded normal noise,
    clamped to +-LOGIT_CLAMP as a training step clamps."""
    rng = np.random.default_rng(seed)
    return np.clip(policies + rng.normal(0.0, scale, policies.shape), -LOGIT_CLAMP, LOGIT_CLAMP)


ENGINE_CONFIGS = {
    "default": {},
    # K = 7, 8, 16 and 26: each side of _label_sum's switch to lane sums, and the widest K
    "k7-six-agents": dict(answer_space_size=7, num_agents=6, compromised_count=1),
    "k8-two-bins": dict(answer_space_size=8, rounds=4, difficulty_bins=2),
    "k16-four-agents": dict(answer_space_size=16, num_agents=4, rounds=3),
    "k26-nine-agents": dict(answer_space_size=26, num_agents=9, rounds=4, compromised_count=2,
                            skills=(0.99, 0.9, 0.8)),
    "eval-wide": dict(num_agents=7, rounds=8, difficulty_bins=2, compromised_count=1,
                      skills=(0.95, 0.88, 0.81, 0.74, 0.67, 0.6, 0.53)),
    "k2-two-compromised": dict(answer_space_size=2, compromised_count=2),
    "k12-nine-rounds-three-bins": dict(answer_space_size=12, rounds=9, difficulty_bins=3),
    "fixed-target": dict(compromised_count=1, adversarial_target_policy="fixed:C"),
    "max-wrong": dict(num_agents=6, compromised_count=2, adversarial_target_policy="max_wrong"),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_rollout_batch_matches_per_draw_rollouts(name):
    env = DebateEnv(EnvConfig(seed=4, **ENGINE_CONFIGS[name]))
    questions = env.generate_questions(32, "t")
    policies = perturbed(env.initial_policies(), seed=1)
    seeds = [derive_key(77, m) for m in range(32)]
    tilts = env.batch_tilts(questions)
    contexts, answers = env.rollout_batch(questions, tilts, policies, seeds)
    labels = env.answer_space
    assert contexts.shape == answers.shape == (32, env.config.rounds + 1, env.config.num_agents)
    bins = difficulty_bin(questions.difficulty, env.config.difficulty_bins).tolist()
    for m, qf in enumerate(bins):
        q = questions[m:m + 1]
        rounds = per_draw_rollout(env, q, policies, seeds[m])
        for t, row in enumerate(rounds):
            prev = rounds[t - 1] if t else None
            for i, answer in enumerate(row):
                assert contexts[m, t, i] == build_context(qf, prev, i, labels)
                assert answers[m, t, i] == labels.index(answer)
        for i in range(env.honest):
            rows, seat_tilts, seat_answers = env.agent_steps(q, answers[m], i)
            assert np.array_equal(rows, contexts[m, :, i])
            assert np.array_equal(seat_tilts, tilts[m, :, i])
            assert np.array_equal(seat_answers, answers[m, :, i])
    assert len(np.unique(answers, axis=0)) > 1


def test_a_trajectory_does_not_depend_on_its_batch(monkeypatch):
    env = DebateEnv(EnvConfig(seed=6, compromised_count=1))
    questions = env.generate_questions(300, "t")
    policies = perturbed(env.initial_policies(), seed=2)
    seeds = [derive_key(5, "eval", qid) for qid in questions.ids.tolist()]
    tilts = env.batch_tilts(questions)
    alone = np.array([env.rollout_batch(questions[j:j + 1], tilts[j:j + 1], policies, [s])[1][0]
                      for j, s in enumerate(seeds)])
    assert np.array_equal([env.rollout_debate(questions[j:j + 1], policies, s)
                           for j, s in enumerate(seeds)], alone)
    # a permuted index array: each debate follows its question to its new slot
    perm = np.random.default_rng(0).permutation(len(questions))
    got = env.rollout_batch(questions[perm], tilts[perm], policies, [seeds[j] for j in perm])[1]
    assert np.array_equal(got, alone[perm])
    # A batch that takes its act draws in several Philox passes: 6 rounds x 5
    # seats = 30 act words, 8 blocks, per debate, so 8 debates per 64-block pass.
    monkeypatch.setattr(policy_module, "PHILOX_BLOCKS_PER_PASS", 64)
    passes = record_philox_passes(monkeypatch)
    assert np.array_equal(env.rollout_batch(questions, tilts, policies, seeds)[1], alone)
    assert [(len(keys), blocks) for keys, blocks in passes] == [(8, 8)] * 37 + [(4, 8)]
    for pos in range(32):
        order = list(range(1, 32))
        order.insert(pos, 0)
        batch_seeds = [seeds[j] for j in order]
        got = env.rollout_batch(questions[order], tilts[order], policies, batch_seeds)[1][pos]
        assert np.array_equal(got, alone[0])


def test_rollout_batch_rejects_bad_arguments():
    env = small_env(num_agents=3, compromised_count=1)
    questions = env.generate_questions(2, "t")
    policies = env.initial_policies()
    tilts = env.batch_tilts(questions)
    with pytest.raises(ValueError, match="rollout seeds"):
        env.rollout_batch(questions, tilts, policies, [1])
    # tilts of another batch, another round count or with the compromised
    # seat's row would broadcast or misalign: each is refused by name
    longer = DebateEnv(dataclasses.replace(env.config, rounds=3)).batch_tilts(questions)
    wider = DebateEnv(dataclasses.replace(env.config, compromised_count=0)).batch_tilts(questions)
    for bad in (tilts[:1], longer, wider):
        expected = re.escape(f"need (B, T+1, H, K) = (2, 3, 2, 3) tilts, got {bad.shape}")
        with pytest.raises(ValueError, match=expected):
            env.rollout_batch(questions, bad, policies, [1, 2])
    contexts, answers = env.rollout_batch(questions[:0], env.batch_tilts(questions[:0]), policies,
                                          [])
    assert contexts.shape == answers.shape == (0, 3, 3)


def test_rollout_batch_with_every_seat_compromised():
    env = small_env(num_agents=3, compromised_count=3, adversarial_target_policy="fixed:B")
    questions = env.generate_questions(4, "t")
    no_seats = np.zeros((0, contexts_per_bin(3), 3))
    _, answers = env.rollout_batch(questions, env.batch_tilts(questions), no_seats, [1] * 4)
    assert answers.shape == (4, 3, 3) and np.all(answers == 1)


def test_rollout_refuses_policy_logits_of_the_wrong_shape():
    # 2 honest seats of 3, 2 difficulty bins of 28 rows, 3 labels
    env = small_env(compromised_count=1, difficulty_bins=2)
    questions = env.generate_questions(2, "t")
    tilts = env.batch_tilts(questions)
    policies = env.initial_policies()
    wider = DebateEnv(dataclasses.replace(env.config, compromised_count=0)).initial_policies()
    for bad in (policies[:1], wider, policies[:, :28], policies[..., :2], policies[0]):
        expected = re.escape(f"need (H, rows, K) = (2, 56, 3) policy logits, got {bad.shape}")
        with pytest.raises(ValueError, match=expected):
            env.rollout_batch(questions, tilts, bad, [1, 2])
        with pytest.raises(ValueError, match=expected):
            env.rollout_debate(questions[:1], bad, 0)


def test_signal_tilt_favors_truth_and_scales_with_difficulty():
    env = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=4,
                              skills=(1.0,), seed=3, difficulty="fixed:0.0"))
    q = env.generate_questions(1, "t")
    tilt = env.batch_tilts(q)[0][0, 0]
    assert tilt[q.truth[0]] == max(tilt)
    assert tilt[q.truth[0]] > 3.0
    # a batch stacks each question's tensor
    both = env.batch_tilts(q[[0, 0]])
    assert both.shape == (2, 2, 2, 4) and np.array_equal(both[1], env.batch_tilts(q)[0])
    assert env.batch_tilts(q[:0]).shape == (0, 2, 2, 4)
    env_hard = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=4,
                                   skills=(1.0,), seed=3, difficulty="fixed:1.0"))
    q_hard = env_hard.generate_questions(1, "t")
    tilt_hard = env_hard.batch_tilts(q_hard)[0][0, 0]
    assert abs(tilt_hard).max() < 3.0  # noise only


@pytest.mark.parametrize("rounds", [3, 5])
def test_tilts_are_drawn_once_per_question_and_copied_out(monkeypatch, rounds):
    # the caller draws each training question's tilt key once, in one pass;
    # train's fresh slots, replay samples and buffer refreshes all reuse those
    # rows, so every pass train makes draws act keys only
    env = DebateEnv(EnvConfig(num_agents=4, rounds=rounds, compromised_count=1, seed=2))
    questions = env.generate_questions(6, "t")
    passes = record_philox_passes(monkeypatch)
    tilts = env.batch_tilts(questions)
    # (T+1) x 4 seats x 4 labels normals and 2 flare words per tilt key
    tilt_keys = [policy_module._key_digest(2, "tilt", qid) for qid in questions.ids.tolist()]
    assert passes == [(tilt_keys, -(-((rounds + 1) * 16 + 2) // 4))]
    assert tilts.shape == (6, rounds + 1, 3, 4)  # the compromised seat has no row
    replay = ReplayConfig(capacity=8, refresh_period=2)
    _, buffer = train(env, questions, tilts, uniform_coefficients(4),
                      ClipConfig(batch_size=4, iterations=5), MetricConfig(), 9, replay)
    drawn = [d for keys, _ in passes[1:] for d in keys]
    assert not set(drawn) & set(tilt_keys)
    assert len(drawn) == 5 * 4 + 2 * 8  # 5 batches and 2 full-buffer refreshes
    # the buffer reads the one array of training tilts, not per-batch
    # copies, and each stored index names the question its debate was rolled
    # on: the compromised seat answers adversary[truth] of that question
    assert buffer.tilts is tilts and buffer.questions is questions
    assert len(buffer) == 8
    for j, codes in zip(buffer.index.tolist(), buffer.answers):
        assert (codes[:, 3] == env.adversary[questions.truth[j]]).all()
    # every batch_tilts call is a fresh array: writing into one leaves the next as it was
    first = tilts.copy()
    tilts += 1.0
    assert np.array_equal(env.batch_tilts(questions), first)


@pytest.mark.parametrize("run, labels", [
    (run_udpo, ("train", "eval")),
    (lambda config, out: run_attack(config, out, m_values=[1, 2]), ("train", "eval")),
    (lambda config, out: run_sweep(config, out, "compromised", [0, 1, 2]), ("eval",)),
    (lambda config, out: run_sweep(config, out, "compromised", [2, 0, 1]), ("eval",)),
], ids=["udpo", "attack-m1-m2", "sweep-compromised-0-1-2", "sweep-compromised-2-0-1"])
def test_each_question_set_draws_its_tilts_once(tmp_path, monkeypatch, run, labels):
    # run_udpo evaluates its eval set twice, this attack six times and these
    # sweeps three times, and the training set feeds both the warm-up and
    # train(); each pipeline still draws every question's tilt key exactly once
    config = tiny_config()
    passes = record_philox_passes(monkeypatch)
    run(config, str(tmp_path))
    drawn = collections.Counter(d for keys, _ in passes for d in keys)
    sizes = {"train": config.train_questions, "eval": config.eval_questions}
    for label in labels:
        for j in range(sizes[label]):
            key = policy_module._key_digest(config.env.seed, "tilt", f"{label}-{j:05d}")
            assert drawn[key] == 1, (label, j, drawn[key])


def record_philox_passes(monkeypatch):
    """Route policy._philox_blocks through a recorder; returns the list that
    receives each pass's (key digests, blocks per key)."""
    passes = []
    real = policy_module._philox_blocks

    def recording(digests, blocks):
        passes.append((list(digests), blocks))
        return real(digests, blocks)

    monkeypatch.setattr(policy_module, "_philox_blocks", recording)
    return passes


def random_keys(seed, count):
    rng = np.random.default_rng(seed)
    return [int.from_bytes(rng.bytes(16), "little") for _ in range(count)] + [0, 2**128 - 1]


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_philox_blocks_match_random_raw(blocks):
    # one generator is reseated per key, so repeated keys and keys in
    # reverse order each read exactly what a fresh Philox(key=...) reads
    keys = random_keys(blocks, 300)
    keys += keys[::-1] + keys[:1] * 3
    got = policy_module._philox_blocks([key.to_bytes(16, "little") for key in keys], blocks)
    expected = [np.random.Philox(key=key).random_raw(4 * blocks) for key in keys]
    assert got.dtype == np.uint64 and got.shape == (len(keys), 4 * blocks)
    assert np.array_equal(got, np.array(expected))
    assert policy_module._philox_blocks([], blocks).shape == (0, 4 * blocks)


def test_no_run_reads_os_entropy(tmp_path, monkeypatch):
    # every draw comes from a hashed key: a run that asked numpy for OS
    # entropy (a SeedSequence without one) would fail here
    def refuse(bits):
        raise AssertionError(f"{bits} bits of OS entropy read")

    monkeypatch.setattr(bit_generator, "randbits", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.SeedSequence()
    config = tiny_config()
    run_udpo(config, str(tmp_path / "train"))
    run_baseline(config, str(tmp_path / "baseline"))


@pytest.mark.parametrize("k", [2, 4, 7, 26])
def test_generate_questions_match_per_stream_questions(k):
    for spec in ("uniform", "uniform:0.0,0.8", "uniform:0.3,0.35", "fixed:0.6"):
        env = small_env(answer_space_size=k, difficulty=spec, seed=9 + k)
        assert same_questions(env.generate_questions(500, "t"), per_stream_questions(env, 500, "t"))
    assert same_questions(env.generate_questions(0, "t"), per_stream_questions(env, 0, "t"))


TILT_CONFIGS = {
    "default": {},
    "eval-wide": ENGINE_CONFIGS["eval-wide"],
    "golden-k12": dataclasses.asdict(k12_config().env),
    "golden-k3-below-ramp": dataclasses.asdict(k3_below_ramp_config().env),
}


@pytest.mark.parametrize("name", sorted(TILT_CONFIGS))
def test_batch_tilts_match_per_stream_tilts(name):
    config = dict(TILT_CONFIGS[name])
    config.setdefault("seed", 4)
    env = DebateEnv(EnvConfig(**config))
    questions = env.generate_questions(300, "t")
    tilts = env.batch_tilts(questions)
    for j, got in enumerate(tilts):
        assert got.tobytes() == per_stream_tilts(env, questions[j:j + 1]).tobytes(), j


def test_batch_tilts_do_not_depend_on_the_batch(monkeypatch):
    config = EnvConfig(seed=6, rounds=5, compromised_count=1)
    questions = DebateEnv(config).generate_questions(120, "t")
    alone = [DebateEnv(config).batch_tilts(questions[j:j + 1])[0] for j in range(120)]
    monkeypatch.setattr(policy_module, "PHILOX_BLOCKS_PER_PASS", 100)
    passes = record_philox_passes(monkeypatch)
    env = DebateEnv(config)
    order = np.r_[60:120, 0:60, 0:5]
    got = env.batch_tilts(questions[order])
    assert [t.tobytes() for t in got] == [alone[j].tobytes() for j in order]
    # 6 rounds x 5 seats x 4 labels = 120 normals and 2 flare words, 31 blocks,
    # per question: 3 questions per 100-block pass, one tilt key per question
    # given, repeats included
    assert [(len(keys), blocks) for keys, blocks in passes] == [(3, 31)] * 41 + [(2, 31)]
    assert [d for keys, _ in passes for d in keys] == [
        policy_module._key_digest(6, "tilt", qid) for qid in questions.ids[order].tolist()]
    # the environment keeps nothing: a second call draws its questions again
    assert np.array_equal(env.batch_tilts(questions[:3]), got[60:63])
    assert passes[42:] == [([policy_module._key_digest(6, "tilt", qid)
                             for qid in questions.ids[:3].tolist()], 31)]
    # a permuted index array: each question's tilts follow it to its new slot
    perm = np.random.default_rng(1).permutation(120)
    assert [t.tobytes() for t in env.batch_tilts(questions[perm])] == [
        alone[j].tobytes() for j in perm]


def test_box_muller_is_finite_at_the_edges_and_standard_normal():
    # u1 = 0 gives r = 0; the top word gives u1 = 1 - 2**-53 and r about 8.6
    edges = policy_module._box_muller(np.array([0, 0, 2**64 - 1, 2**64 - 1], dtype=np.uint64))
    assert edges[:2].tolist() == [0.0, 0.0] and np.all(np.isfinite(edges))
    assert 8.5 < math.hypot(*edges[2:]) < 8.7
    # Kolmogorov-Smirnov against N(0, 1) at level 0.001, fixed before the run:
    # reject if sqrt(n) * D exceeds 1.949. Cosine and sine halves separately.
    words = policy_module._philox_blocks([policy_module._key_digest(0, "box-muller")], 5000)
    normals = policy_module._box_muller(words.ravel())
    for half in (normals[0::2], normals[1::2]):
        x = np.sort(half)
        cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
        n = len(x)
        d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert math.sqrt(n) * d < 1.949, d


def test_honest_seats_do_not_depend_on_the_compromised_count():
    # run_attack compares ensembles that differ only in their compromised seats
    questions = DebateEnv(EnvConfig(num_agents=6, seed=7)).generate_questions(200, "t")
    seeds = [derive_key(3, m) for m in range(200)]
    runs = {}
    for m in (0, 1, 2, 4):
        env = DebateEnv(EnvConfig(num_agents=6, compromised_count=m, seed=7))
        tilts = env.batch_tilts(questions)
        _, answers = env.rollout_batch(questions, tilts, perturbed(env.initial_policies(), 3),
                                       seeds)
        runs[m] = tilts, answers[:, 0]
    clean_tilts, clean_answers = runs[0]
    for m, (tilts, answers) in runs.items():
        h = 6 - m
        assert all(t.tobytes() == c[:, :h].tobytes() for t, c in zip(tilts, clean_tilts)), m
        assert np.array_equal(answers[:, :h], clean_answers[:, :h]), m


def test_earlier_rounds_do_not_depend_on_later_rounds():
    # an early stop after round t must see the debate a longer run would have had
    runs = []
    for rounds in (2, 3):
        env = DebateEnv(EnvConfig(rounds=rounds, compromised_count=1, seed=8))
        questions = env.generate_questions(200, "t")
        seeds = [derive_key(4, m) for m in range(200)]
        tilts = env.batch_tilts(questions)
        _, answers = env.rollout_batch(questions, tilts, perturbed(env.initial_policies(), 4),
                                       seeds)
        runs.append((tilts, answers))
    (short_tilts, short_answers), (long_tilts, long_answers) = runs
    assert all(s.tobytes() == t[:3].tobytes() for s, t in zip(short_tilts, long_tilts))
    assert np.array_equal(short_answers, long_answers[:, :3])


def test_tilts_follow_the_question_truth_and_difficulty_not_its_id():
    env = DebateEnv(EnvConfig(seed=3, difficulty="fixed:0.2"))
    questions = question_set(env.answer_space, [0, 2, 2], [0.2, 0.2, 0.7], ["q1"] * 3)
    tilts = np.concatenate([env.batch_tilts(questions[:1]), env.batch_tilts(questions[1:])])
    for j, got in enumerate(tilts):
        assert got.tobytes() == per_stream_tilts(env, questions[j:j + 1]).tobytes()
    # the boost lands on each question's own truth
    assert tilts[0][0, 0, 0] > tilts[1][0, 0, 0] and tilts[1][0, 0, 2] > tilts[0][0, 0, 2]
    assert not np.array_equal(tilts[1], tilts[2])


def test_easy_questions_start_mostly_correct():
    env = DebateEnv(EnvConfig(num_agents=5, rounds=1, answer_space_size=4,
                              skills=(0.9,), seed=5, difficulty="fixed:0.0"))
    qs = env.generate_questions(40, "t")
    pols = env.initial_policies()
    correct = 0
    total = 0
    for j in range(len(qs)):
        codes = env.rollout_debate(qs[j:j + 1], pols, rollout_seed=1)
        correct += int((codes[0] == qs.truth[j]).sum())
        total += 5
    assert correct / total > 0.85


@pytest.mark.parametrize("n, m", [(2, 0), (4, 2), (5, 1), (3, 3), (7, 6)])
def test_honest_seats_come_first(n, m):
    env = small_env(num_agents=n, compromised_count=m, skills=(0.9, 0.4))
    assert env.honest == n - m
    assert env.initial_policies().shape == (n - m, contexts_per_bin(3), 3)
    assert env.skills.tolist() == [(0.9, 0.4)[i % 2] for i in range(n - m)]
    q = env.generate_questions(1, "t")
    codes = np.zeros((env.config.rounds + 1, n), dtype=np.int64)
    for seat in (-1, n - m):  # no seat outside 0..H-1 has a policy
        with pytest.raises(ValueError, match=f"agent {seat} is compromised"):
            env.agent_steps(q, codes, seat)


ADVERSARY_RULES = {  # rule: the label the compromised seats answer on truths A, B, C, D
    "min_wrong": "BAAA",
    "max_wrong": "DDDC",
    "fixed:C": "CCCC",
    "fixed:A": "AAAA",
}


@pytest.mark.parametrize("rule", sorted(ADVERSARY_RULES))
def test_compromised_answer_columns_follow_the_rule(rule):
    env = small_env(num_agents=5, compromised_count=2, answer_space_size=4,
                    adversarial_target_policy=rule)
    questions = question_set(env.answer_space, range(4), [0.3] * 4)
    _, answers = env.rollout_batch(questions, env.batch_tilts(questions), env.initial_policies(),
                                   [1, 2, 3, 4])
    expected = [env.answer_space.index(label) for label in ADVERSARY_RULES[rule]]
    assert np.all(answers[:, :, 3:] == np.array(expected)[:, None, None])
    # per_draw_rollout's reference rule agrees with the table
    reference = "".join(adversary_label(rule, j, env.answer_space) for j in range(4))
    assert reference == ADVERSARY_RULES[rule]


def test_compromised_agents_hammer_target_every_round():
    env = small_env(num_agents=4, compromised_count=2)
    q = env.generate_questions(1, "t")
    codes = env.rollout_debate(q, env.initial_policies(), 7)
    wrong = next(c for c in range(len(q.answer_space)) if c != q.truth[0])
    assert np.all(codes[:, 2:] == wrong)


def test_fixed_adversarial_target():
    env = small_env(num_agents=3, compromised_count=1,
                    adversarial_target_policy="fixed:C")
    q = env.generate_questions(1, "t")
    codes = env.rollout_debate(q, env.initial_policies(), 7)
    assert np.all(codes[:, 2] == env.answer_space.index("C"))


def test_trajectory_log_prob_matches_manual_product():
    env = small_env()
    q = env.generate_questions(1, "t")
    pols = env.initial_policies()
    codes = env.rollout_debate(q, pols, 42)
    for i in range(env.honest):
        manual = 0.0
        rows, tilts, _ = env.agent_steps(q, codes, i)
        for t, (ctx, tilt) in enumerate(zip(rows.tolist(), tilts)):
            p = probs(pols[i], ctx, tilt)
            manual += math.log(p[codes[t, i]])
        assert abs(trajectory_log_prob(env, pols[i], i, q, codes) - manual) < 1e-12
        assert trajectory_log_prob(env, pols[i], i, q, codes) < 0.0


def test_agent_steps_rejects_compromised_index():
    env = small_env(num_agents=3, compromised_count=1)
    q = env.generate_questions(1, "t")
    codes = env.rollout_debate(q, env.initial_policies(), 1)
    with pytest.raises(ValueError, match="compromised"):
        env.agent_steps(q, codes, 2)


@pytest.mark.parametrize("count", [0, 2, 3])
def test_rollout_debate_needs_a_set_of_one(count):
    env = small_env()
    questions = env.generate_questions(3, "t")[:count]
    with pytest.raises(ValueError, match=f"need a set of one question, got {count}"):
        env.rollout_debate(questions, env.initial_policies(), 1)


@pytest.mark.parametrize("count", [0, 2, 3])
def test_agent_steps_needs_a_set_of_one(count):
    env = small_env()
    questions = env.generate_questions(3, "t")
    codes = env.rollout_debate(questions[:1], env.initial_policies(), 1)
    with pytest.raises(ValueError, match=f"need a set of one question, got {count}"):
        env.agent_steps(questions[:count], codes, 0)


def test_policy_serialization_round_trip():
    env = small_env()
    logits = env.initial_policies()[0]
    logits[0] += [0.125, -1.7, 3.14159]
    buf = io.StringIO()
    save_policy(buf, env.answer_space, logits, agent_index=0, config_hash="deadbeef")
    text = buf.getvalue()
    assert text.startswith("# madlab-policy v1\n")
    assert "# labels: A,B,C\n" in text
    assert "# config-hash: deadbeef\n" in text
    assert "# agent: 0\n" in text
    assert text.count("\n") == 4 + contexts_per_bin(3)
    # every row once, under its context key, each logit as its exact repr
    rows = dict(line.split("\t") for line in text.splitlines()[4:])
    assert list(rows) == sorted(rows)
    keys = [context_key(r, env.answer_space) for r in range(len(logits))]
    loaded = np.array([[float(v) for v in rows[key].split(",")] for key in keys])
    assert np.array_equal(loaded, logits)


def test_policy_serialization_is_byte_stable():
    env = small_env()
    logits = env.initial_policies()[0]
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        save_policy(buf, env.answer_space, logits, 0, "c0ffee")
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
