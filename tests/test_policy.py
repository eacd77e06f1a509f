"""Environment determinism, context building, policy tables, serialization."""

from __future__ import annotations

import dataclasses
import io
import math
import subprocess
import sys

import numpy as np
import pytest

from madlab import policy as policy_module
from madlab.debate import validate_trajectory
from madlab.policy import (
    ACT_KEYS_PER_PASS,
    LOGIT_CLAMP,
    DebateEnv,
    EnvConfig,
    PolicyTable,
    SyntheticQuestion,
    answer_labels,
    context_key,
    contexts_per_bin,
    derive_key,
    difficulty_bin,
    parse_difficulty_spec,
    philox_uniforms,
    rng_stream,
    save_policy,
)
from reference_impl import build_context, per_stream_questions, probs, trajectory_log_prob
from test_golden import k3_below_ramp_config, k12_config


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


def test_philox_uniforms_match_numpy_generators():
    rng = np.random.default_rng(2024)
    keys = [int.from_bytes(rng.bytes(16), "little") for _ in range(1000)] + [0, 2**128 - 1]
    expected = [np.random.Generator(np.random.Philox(key=key)).random() for key in keys]
    assert philox_uniforms([key.to_bytes(16, "little") for key in keys]).tolist() == expected


def test_philox_uniforms_match_the_act_streams():
    tokens = [
        (derive_key(3, m), "act", f"train-{m:05d}", t, i)
        for m in range(4)
        for t in range(6)
        for i in range(5)
    ]
    digests = [derive_key(*tok).to_bytes(16, "little") for tok in tokens]
    assert philox_uniforms(digests).tolist() == [rng_stream(*tok).random() for tok in tokens]
    assert philox_uniforms([]).shape == (0,)


@pytest.mark.parametrize("n_keys", [1, ACT_KEYS_PER_PASS + 1])
def test_philox_uniforms_on_one_key_and_past_a_pass(n_keys):
    rng = np.random.default_rng(n_keys)
    digests = [rng.bytes(16) for _ in range(n_keys)]
    expected = [np.random.Generator(np.random.Philox(key=int.from_bytes(d, "little"))).random()
                for d in digests]
    assert philox_uniforms(digests).tolist() == expected


@pytest.mark.parametrize("question_id", ["train-00007", "q-\u00e9\u4e2d-\U0001f600"])
def test_prefixed_digests_match_key_digest_in_every_scope(question_id):
    seed = 2**64 - 1
    rollout_seed = derive_key(seed, "rollout", 3)
    scopes = [  # (leading tokens, trailing tokens of each key) as the environment forms them
        ((seed, "question"), [(question_id,), ("eval-00000",)]),
        ((seed, "signal", question_id), [(i,) for i in range(5)]),
        ((seed, "wobble", question_id), [(i, t) for t in range(1, 4) for i in range(5)]),
        ((seed, "flare"), [(question_id,), ("train-00008",)]),
        ((rollout_seed, "act", question_id), [(t, i) for t in range(4) for i in (0, 2, 3)]),
    ]
    for head, tails in scopes:
        prefix = "".join(f"{token}|" for token in head)
        suffixes = ["|".join(str(token) for token in tail).encode() for tail in tails]
        assert policy_module._prefixed_digests(prefix, suffixes) == [
            policy_module._key_digest(*head, *tail) for tail in tails
        ]
        assert policy_module._prefixed_digests(prefix, []) == []


def test_difficulty_bin_edges():
    assert difficulty_bin(0.0, 5) == 0
    assert difficulty_bin(0.19, 5) == 0
    assert difficulty_bin(0.2, 5) == 1
    assert difficulty_bin(1.0, 5) == 4


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


def test_context_key_round_trip():
    labels = ("A", "B", "C", "D")
    keys = [context_key(row, labels) for row in range(2 * contexts_per_bin(4))]
    assert len(set(keys)) == len(keys) == 98
    assert keys[0] == "0|-|-|0" and keys[49] == "1|-|-|0" and keys[-1] == "1|D|D|2"
    for row, key in enumerate(keys):
        question_feature, own, mode, agreement = key.split("|")
        offset = 0 if own == "-" else 1 + (labels.index(own) * 4 + labels.index(mode)) * 3
        assert int(question_feature) * contexts_per_bin(4) + offset + int(agreement) == row


def test_policy_table_update_clamps():
    table = PolicyTable(("A", "B"), np.zeros((3, 2)))
    table.update(np.array([[100.0, -100.0], [1.0, 2.0], [0.0, 0.0]]))
    assert np.array_equal(table.logits[0], np.array([LOGIT_CLAMP, -LOGIT_CLAMP]))
    assert np.array_equal(table.logits[1:], np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_policy_probs_with_tilt():
    table = PolicyTable(("A", "B"), np.zeros((1, 2)))
    p = probs(table, 0, tilt=np.array([math.log(3.0), 0.0]))
    assert abs(p[0] - 0.75) < 1e-12


def test_sample_answer_follows_distribution():
    # Round-0 answers follow the softmax of the null-context logits plus each tilt.
    env = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=2, skills=(0.5,),
                              seed=8, difficulty="fixed:1.0"))
    questions = env.generate_questions(2000, "t")
    policies = env.initial_policies()
    for p in policies:
        p.update(np.array([math.log(9.0), 0.0]) * (np.arange(len(p.logits)) == 0)[:, None])
    seeds = [derive_key(1, m) for m in range(len(questions))]
    _, _, answers = env.rollout_batch(questions, policies, seeds)
    expected = np.mean([probs(p, 0, tilts[0, i])[0]
                        for tilts in env.batch_tilts(questions) for i, p in enumerate(policies)])
    assert 0.6 < expected < 0.9
    assert abs(np.mean(answers[:, 0] == 0) - expected) < 0.025


def test_policy_copy_is_deep():
    table = PolicyTable(("A", "B"), np.array([[1.0, 0.0]]))
    clone = table.copy()
    clone.update(np.array([[5.0, 0.0]]))
    assert table.logits[0, 0] == 1.0


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
    assert DebateEnv(EnvConfig(num_agents=3, compromised_count=3)).honest_indices == []


def test_generated_questions_are_valid_and_stable():
    env = small_env()
    qs1 = env.generate_questions(10, "train")
    qs2 = env.generate_questions(10, "train")
    assert qs1 == qs2
    # ids stable under count growth
    qs3 = env.generate_questions(20, "train")
    assert qs3[:10] == qs1
    assert [q.question_id for q in qs1[:2]] == ["train-00000", "train-00001"]
    for q in qs1:
        assert q.ground_truth in q.answer_space
        assert 0.0 <= q.difficulty <= 1.0
    # different labels give different questions
    qs_eval = env.generate_questions(10, "eval")
    assert qs_eval[0].question_id == "eval-00000"
    assert any(a.ground_truth != b.ground_truth or a.difficulty != b.difficulty
               for a, b in zip(qs1, qs_eval))


def test_fixed_difficulty_spec_is_constant():
    env = small_env(difficulty="fixed:0.25")
    assert all(q.difficulty == 0.25 for q in env.generate_questions(5, "t"))


def test_rollout_shape_validity_and_determinism():
    env = small_env()
    qs = env.generate_questions(12, "train")
    pols = env.initial_policies()
    any_differ = False
    for q in qs:
        traj = env.rollout_debate(q, pols, rollout_seed=99)
        assert validate_trajectory(traj) == []
        assert traj.num_agents == 3
        assert len(traj.rounds) - 1 == 2
        assert traj.ground_truth == q.ground_truth
        assert traj == env.rollout_debate(q, pols, rollout_seed=99)
        any_differ = any_differ or traj != env.rollout_debate(q, pols, rollout_seed=100)
    # a fresh seed must change something somewhere in the batch
    assert any_differ


def per_stream_tilts(env, question):
    """One question's (T+1, H, K) honest-seat tilts, one rng_stream per signal,
    wobble and flare scope: the reference DebateEnv.batch_tilts reproduces."""
    cfg = env.config
    qid = question.question_id
    k = len(env.answer_space)
    honest = env.honest_indices
    ramp = min(1.0, question.difficulty / policy_module.AVERSION_RAMP)
    persist = policy_module.SIGNAL_PERSIST + (1.0 - policy_module.SIGNAL_PERSIST) * (1.0 - ramp)
    scale = policy_module.SIGNAL_WOBBLE + policy_module.SIGNAL_WOBBLE_SLOPE * question.difficulty
    truth = env.answer_space.index(question.ground_truth)
    tilts = np.zeros((cfg.rounds + 1, len(honest), k))
    for i in honest:
        skill = cfg.skills[i % len(cfg.skills)]
        signal = rng_stream(cfg.seed, "signal", qid, i).normal(0.0, policy_module.SIGNAL_NOISE, k)
        signal[truth] += policy_module.SIGNAL_GAIN * skill * (1.0 - question.difficulty)
        tilts[0, i] = signal
        for t in range(1, cfg.rounds + 1):
            wobble = rng_stream(cfg.seed, "wobble", qid, i, t).normal(0.0, 1.0, k)
            tilts[t, i] = persist * signal + scale * wobble
    if cfg.rounds >= 4:
        rng = rng_stream(cfg.seed, "flare", qid)
        if rng.random() < question.difficulty:
            wrong = [j for j in range(k) if j != truth]
            flare = wrong[int(rng.integers(len(wrong)))]
            push = cfg.rounds - 3
            tilts[push, :, flare] += policy_module.FLARE_SCALE
            tilts[push + 1, :, flare] -= policy_module.FLARE_SCALE
    tilts[1:, :, 0] += policy_module.LABEL_AVERSION * ramp
    return tilts


def per_draw_rollout(env, question, policies, rollout_seed):
    """The rounds of one debate drawn one act stream at a time: the reference
    the batched engine reproduces."""
    qf = difficulty_bin(question.difficulty, env.config.difficulty_bins)
    tilts = per_stream_tilts(env, question)
    rows = []
    for t in range(env.config.rounds + 1):
        prev = rows[t - 1] if t else None
        row = []
        for i in range(env.config.num_agents):
            if i not in env.honest_indices:
                row.append(env.adversary_answer(question))
                continue
            p = probs(policies[i], build_context(qf, prev, i, env.answer_space), tilts[t, i])
            u = rng_stream(rollout_seed, "act", question.question_id, t, i).random()
            idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
            row.append(env.answer_space[min(idx, len(p) - 1)])
        rows.append(tuple(row))
    return tuple(rows)


def perturbed_policies(env, seed, scale=1.5):
    rng = np.random.default_rng(seed)
    policies = env.initial_policies()
    for p in policies:
        if p is not None:
            p.update(rng.normal(0.0, scale, p.logits.shape))
    return policies


ENGINE_CONFIGS = {
    "default": {},
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
    policies = perturbed_policies(env, seed=1)
    seeds = [derive_key(77, m) for m in range(32)]
    trajectories, contexts, answers = env.rollout_batch(questions, policies, seeds)
    labels = env.answer_space
    assert contexts.shape == answers.shape == (32, env.config.rounds + 1, env.config.num_agents)
    for m, (q, traj) in enumerate(zip(questions, trajectories)):
        assert traj.rounds == per_draw_rollout(env, q, policies, seeds[m])
        assert traj.question_id == q.question_id and traj.ground_truth == q.ground_truth
        qf = difficulty_bin(q.difficulty, env.config.difficulty_bins)
        for t, row in enumerate(traj.rounds):
            prev = traj.rounds[t - 1] if t else None
            for i, answer in enumerate(row):
                assert contexts[m, t, i] == build_context(qf, prev, i, labels)
                assert answers[m, t, i] == labels.index(answer)
        for i in env.honest_indices:
            assert [s.ctx for s in env.agent_steps(q, traj, i)] == contexts[m, :, i].tolist()
    assert len({t.rounds for t in trajectories}) > 1


def test_a_trajectory_does_not_depend_on_its_batch():
    env = DebateEnv(EnvConfig(seed=6, compromised_count=1))
    questions = env.generate_questions(300, "t")
    policies = perturbed_policies(env, seed=2)
    seeds = [derive_key(5, "eval", q.question_id) for q in questions]
    alone = [env.rollout_batch([q], policies, [s])[0][0] for q, s in zip(questions, seeds)]
    assert [env.rollout_debate(q, policies, s) for q, s in zip(questions, seeds)] == alone
    # A batch large enough to take its act draws in several Philox passes.
    assert env.rollout_batch(questions, policies, seeds)[0] == alone
    for pos in range(32):
        batch = questions[1:32]
        batch.insert(pos, questions[0])
        batch_seeds = [seeds[questions.index(q)] for q in batch]
        assert env.rollout_batch(batch, policies, batch_seeds)[0][pos] == alone[0]


def test_rollout_batch_rejects_bad_arguments():
    env = small_env(num_agents=3, compromised_count=1)
    questions = env.generate_questions(2, "t")
    policies = env.initial_policies()
    with pytest.raises(ValueError, match="rollout seeds"):
        env.rollout_batch(questions, policies, [1])
    with pytest.raises(ValueError, match="honest agent 1 has no policy"):
        env.rollout_batch(questions, [policies[0], None, None], [1, 2])
    trajectories, contexts, answers = env.rollout_batch([], policies, [])
    assert trajectories == [] and contexts.shape == answers.shape == (0, 3, 3)


def test_rollout_batch_with_every_seat_compromised():
    env = small_env(num_agents=3, compromised_count=3, adversarial_target_policy="fixed:B")
    questions = env.generate_questions(4, "t")
    trajectories, _, answers = env.rollout_batch(questions, [None] * 3, [1] * 4)
    assert all(row == ("B", "B", "B") for t in trajectories for row in t.rounds)
    assert np.all(answers == 1)


def test_rollout_policy_count_mismatch():
    env = small_env()
    q = env.generate_questions(1, "t")[0]
    with pytest.raises(ValueError, match="policies"):
        env.rollout_debate(q, env.initial_policies()[:2], 0)


def test_signal_tilt_favors_truth_and_scales_with_difficulty():
    env = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=4,
                              skills=(1.0,), seed=3, difficulty="fixed:0.0"))
    q = env.generate_questions(1, "t")[0]
    tilt = env.batch_tilts([q])[0][0, 0]
    truth_idx = q.answer_space.index(q.ground_truth)
    assert tilt[truth_idx] == max(tilt)
    assert tilt[truth_idx] > 3.0
    # the same question gives the same tensor object (computed once)
    assert env.batch_tilts([q])[0] is env.batch_tilts([q, q])[1]
    env_hard = DebateEnv(EnvConfig(num_agents=2, rounds=1, answer_space_size=4,
                                   skills=(1.0,), seed=3, difficulty="fixed:1.0"))
    q_hard = env_hard.generate_questions(1, "t")[0]
    tilt_hard = env_hard.batch_tilts([q_hard])[0][0, 0]
    assert abs(tilt_hard).max() < 3.0  # noise only


@pytest.mark.parametrize("rounds", [3, 5])
def test_tilts_are_drawn_once_per_question_and_read_only(monkeypatch, rounds):
    env = DebateEnv(EnvConfig(num_agents=4, rounds=rounds, compromised_count=1, seed=2))
    q = env.generate_questions(1, "t")[0]
    drawn = record_tilt_streams(monkeypatch)
    monkeypatch.setattr(policy_module, "rng_stream", None)  # no tilt opens a stream of its own
    pols = env.initial_policies()
    for seed in range(4):
        traj = env.rollout_debate(q, pols, seed)
        env.agent_steps(q, traj, 0)
    # one signal stream per honest seat, one wobble stream per (seat, round >= 1)
    # and, from 4 rounds on, one flare stream: each drawn once, none per rollout
    expected = [derive_key(2, "signal", q.question_id, i) for i in range(3)]
    expected += [derive_key(2, "wobble", q.question_id, i, t)
                 for i in range(3) for t in range(1, rounds + 1)]
    expected += [derive_key(2, "flare", q.question_id)] * (rounds >= 4)
    keys = [int.from_bytes(d, "little") for call in drawn for d in call]
    assert sorted(keys) == sorted(expected)
    tilts = env.batch_tilts([q])[0]
    assert tilts.shape == (rounds + 1, 3, 4)  # the compromised seat has no row
    assert not tilts.flags.writeable
    with pytest.raises(ValueError):
        tilts[0, 0, 0] = 1.0


def record_tilt_streams(monkeypatch):
    """Route policy._stream_normals and policy._reseated_streams through a
    recorder; returns the list that receives each call's key digests. The
    reseated fallback inside a _stream_normals call belongs to that call and
    is not recorded again."""
    calls = []
    inside = []
    real_normals, real_streams = policy_module._stream_normals, policy_module._reseated_streams

    def normals(digests, k):
        calls.append(list(digests))
        inside.append(True)
        try:
            return real_normals(calls[-1], k)
        finally:
            inside.pop()

    def streams(digests):
        if inside:
            return real_streams(digests)
        calls.append(list(digests))
        return real_streams(calls[-1])

    monkeypatch.setattr(policy_module, "_stream_normals", normals)
    monkeypatch.setattr(policy_module, "_reseated_streams", streams)
    return calls


def test_reseated_streams_draw_what_a_fresh_philox_draws():
    rng = np.random.default_rng(2025)
    keys = [int.from_bytes(rng.bytes(16), "little") for _ in range(2000)] + [0, 2**128 - 1]
    sizes = [2 + j % 25 for j in range(len(keys))]
    digests = [key.to_bytes(16, "little") for key in keys]
    slow_paths = 0
    for key, k, gen in zip(keys, sizes, policy_module._reseated_streams(digests)):
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert gen.normal(0.0, 1.0, k).tobytes() == fresh.normal(0.0, 1.0, k).tobytes()
        # words consumed: each normal takes one unless its ziggurat leaves the fast path
        state = fresh.bit_generator.state
        slow_paths += 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"] > k
        assert str(gen.bit_generator.state) == str(state)
    assert slow_paths > 0
    # other draws; the one 32-bit integer leaves half a word buffered for the next key
    p = np.array([0.5, 0.2, 0.2, 0.1])

    def draws(g):
        return [g.integers(7), g.random(), g.choice(4, p=p), g.uniform(0.1, 0.9),
                g.random(3).tobytes(), str(g.bit_generator.state)]

    for key, gen in zip(keys, policy_module._reseated_streams(digests)):
        assert draws(gen) == draws(np.random.Generator(np.random.Philox(key=key)))


def test_reseated_streams_match_rng_stream_on_scope_tokens():
    tokens = [(5, "wobble", f"eval-{q:05d}", i, t) for q in range(3) for i in range(4)
              for t in range(1, 4)] + [(5, "question", "train-00001"), (5, "flare", "t-00000")]
    digests = [derive_key(*tok).to_bytes(16, "little") for tok in tokens]
    for tok, gen in zip(tokens, policy_module._reseated_streams(digests)):
        stream = rng_stream(*tok)
        assert gen.normal(0.0, 1.0, 5).tobytes() == stream.normal(0.0, 1.0, 5).tobytes()
        assert (gen.random(), gen.integers(3)) == (stream.random(), stream.integers(3))


def random_keys(seed, count):
    rng = np.random.default_rng(seed)
    return [int.from_bytes(rng.bytes(16), "little") for _ in range(count)] + [0, 2**128 - 1]


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_philox_blocks_match_random_raw(blocks):
    keys = random_keys(blocks, 300)
    got = policy_module._philox_blocks([key.to_bytes(16, "little") for key in keys], blocks)
    expected = [np.random.Philox(key=key).random_raw(4 * blocks) for key in keys]
    assert got.dtype == np.uint64 and got.shape == (len(keys), 4 * blocks)
    assert np.array_equal(got, np.array(expected))
    assert policy_module._philox_blocks([], blocks).shape == (0, 4 * blocks)


def test_stream_normals_match_fresh_philox_normals(monkeypatch):
    fallback = []
    real = policy_module._reseated_streams

    def recording(digests):
        fallback.extend(digests)
        return real(digests)

    monkeypatch.setattr(policy_module, "_reseated_streams", recording)
    for k in range(2, 27):
        keys = random_keys(100 + k, 400)
        digests = [key.to_bytes(16, "little") for key in keys]
        fallback.clear()
        got = policy_module._stream_normals(digests, k)
        for key, row in zip(keys, got):
            fresh = np.random.Generator(np.random.Philox(key=key)).normal(0.0, 1.0, k)
            assert row.tobytes() == fresh.tobytes(), (k, key)
        # some keys left the fast path and were drawn by the scalar fallback, not all
        assert 0 < len(fallback) < len(keys) // 2, k
    assert policy_module._stream_normals([], 4).shape == (0, 4)


def test_ziggurat_tables_are_exact_or_conservative():
    wi, ki = policy_module._ziggurat_tables()
    assert policy_module._ziggurat_tables()[1] is ki  # derived once
    assert not wi.flags.writeable and not ki.flags.writeable
    # numpy's ki[1] is 0, so index 1 always falls back; every other entry is kept
    assert ki[1] == 0 and np.count_nonzero(ki) == 255
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = bits.state
    for idx in np.flatnonzero(ki):
        for rabs in (1, int(ki[idx]) - 1):
            for sign in (0, 1):
                state["buffer"] = np.array([(rabs << 9) | (sign << 8) | int(idx), 0, 0, 0],
                                           dtype=np.uint64)
                state["buffer_pos"] = 0
                bits.state = state
                value = gen.standard_normal()
                # the fast path consumed one word and returned +-rabs * wi[idx]
                assert bits.state["buffer_pos"] == 1, (idx, rabs)
                assert value == (-1.0) ** sign * (rabs * wi[idx]), (idx, rabs)


def test_ziggurat_tables_are_derived_lazily():
    code = ("import madlab.cli, madlab.policy as p; "
            "print(p._ziggurat_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("k", [2, 4, 7, 26])
def test_generate_questions_match_per_stream_questions(k):
    for spec in ("uniform", "uniform:0.0,0.8", "uniform:0.3,0.35", "fixed:0.6"):
        env = small_env(answer_space_size=k, difficulty=spec, seed=9 + k)
        assert env.generate_questions(500, "t") == per_stream_questions(env, 500, "t")
    assert env.generate_questions(0, "t") == []


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
    for q, got in zip(questions, tilts):
        assert got.tobytes() == per_stream_tilts(env, q).tobytes(), q.question_id


def test_batch_tilts_do_not_depend_on_the_batch(monkeypatch):
    config = EnvConfig(seed=6, rounds=5, compromised_count=1)
    questions = DebateEnv(config).generate_questions(120, "t")
    alone = [DebateEnv(config).batch_tilts([q])[0] for q in questions]
    monkeypatch.setattr(policy_module, "ACT_KEYS_PER_PASS", 100)
    drawn = record_tilt_streams(monkeypatch)
    env = DebateEnv(config)
    mixed = questions[60:] + questions[:60] + questions[:5]
    got = env.batch_tilts(mixed)
    assert [t.tobytes() for t in got] == [alone[questions.index(q)].tobytes() for q in mixed]
    # 4 honest seats x 6 rounds = 24 keys per question: 4 questions per pass
    sizes = [len(call) for call in drawn]
    assert max(sizes) <= 100 and sizes.count(96) == 30
    assert sum(sizes) == 120 * 25  # every tilt stream (and each flare stream) drawn once
    again = env.batch_tilts(questions[:3])
    assert all(a is b for a, b in zip(again, got[60:63]))
    assert len(drawn) == len(sizes)  # cached questions draw nothing


def test_tilt_cache_is_keyed_by_the_question_not_its_id():
    env = DebateEnv(EnvConfig(seed=3, difficulty="fixed:0.2"))
    first = SyntheticQuestion("q1", env.answer_space, "A", 0.2)
    second = SyntheticQuestion("q1", env.answer_space, "C", 0.2)
    harder = SyntheticQuestion("q1", env.answer_space, "C", 0.7)
    tilts = env.batch_tilts([first]) + env.batch_tilts([second, harder])
    for q, got in zip((first, second, harder), tilts):
        assert got.tobytes() == per_stream_tilts(env, q).tobytes()
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
    for q in qs:
        traj = env.rollout_debate(q, pols, rollout_seed=1)
        correct += sum(a == q.ground_truth for a in traj.rounds[0])
        total += 5
    assert correct / total > 0.85


@pytest.mark.parametrize("n, m", [(2, 0), (4, 2), (5, 1), (3, 3), (7, 6)])
def test_honest_seats_come_first(n, m):
    env = small_env(num_agents=n, compromised_count=m, skills=(0.9, 0.4))
    assert env.honest_indices == list(range(n - m))
    policies = env.initial_policies()
    assert [p is None for p in policies] == [False] * (n - m) + [True] * m
    assert env.skills.tolist() == [(0.9, 0.4)[i % 2] for i in range(n - m)]


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
    questions = [SyntheticQuestion(f"q{j}", env.answer_space, truth, 0.3)
                 for j, truth in enumerate("ABCD")]
    trajectories, _, answers = env.rollout_batch(questions, env.initial_policies(), [1, 2, 3, 4])
    expected = [env.answer_space.index(label) for label in ADVERSARY_RULES[rule]]
    assert np.all(answers[:, :, 3:] == np.array(expected)[:, None, None])
    assert [{row[3:] for row in t.rounds} for t in trajectories] == [
        {(label, label)} for label in ADVERSARY_RULES[rule]]


def test_compromised_agents_hammer_target_every_round():
    env = small_env(num_agents=4, compromised_count=2)
    q = env.generate_questions(1, "t")[0]
    traj = env.rollout_debate(q, env.initial_policies(), 7)
    wrong = next(lab for lab in q.answer_space if lab != q.ground_truth)
    for row in traj.rounds:
        assert row[2] == wrong and row[3] == wrong


def test_fixed_adversarial_target():
    env = small_env(num_agents=3, compromised_count=1,
                    adversarial_target_policy="fixed:C")
    q = env.generate_questions(1, "t")[0]
    traj = env.rollout_debate(q, env.initial_policies(), 7)
    assert all(row[2] == "C" for row in traj.rounds)


def test_trajectory_log_prob_matches_manual_product():
    env = small_env()
    q = env.generate_questions(1, "t")[0]
    pols = env.initial_policies()
    traj = env.rollout_debate(q, pols, 42)
    for i in env.honest_indices:
        manual = 0.0
        for step in env.agent_steps(q, traj, i):
            p = probs(pols[i], step.ctx, step.tilt)
            manual += math.log(p[env.answer_space.index(step.answer)])
        assert abs(trajectory_log_prob(env, pols[i], i, q, traj) - manual) < 1e-12
        assert trajectory_log_prob(env, pols[i], i, q, traj) < 0.0


def test_agent_steps_rejects_compromised_index():
    env = small_env(num_agents=3, compromised_count=1)
    q = env.generate_questions(1, "t")[0]
    traj = env.rollout_debate(q, env.initial_policies(), 1)
    with pytest.raises(ValueError, match="compromised"):
        env.agent_steps(q, traj, 2)


def test_policy_serialization_round_trip():
    env = small_env()
    pols = env.initial_policies()
    table = pols[0]
    delta = np.zeros_like(table.logits)
    delta[0] = [0.125, -1.7, 3.14159]
    table.update(delta)
    buf = io.StringIO()
    save_policy(buf, table, agent_index=0, config_hash="deadbeef")
    text = buf.getvalue()
    assert text.startswith("# madlab-policy v1\n")
    assert "# labels: A,B,C\n" in text
    assert "# config-hash: deadbeef\n" in text
    assert "# agent: 0\n" in text
    assert text.count("\n") == 4 + contexts_per_bin(3)
    # every row once, under its context key, each logit as its exact repr
    rows = dict(line.split("\t") for line in text.splitlines()[4:])
    assert list(rows) == sorted(rows)
    keys = [context_key(r, table.labels) for r in range(len(table.logits))]
    loaded = np.array([[float(v) for v in rows[key].split(",")] for key in keys])
    assert np.array_equal(loaded, table.logits)


def test_policy_serialization_is_byte_stable():
    env = small_env()
    table = env.initial_policies()[0]
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        save_policy(buf, table, 0, "c0ffee")
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
