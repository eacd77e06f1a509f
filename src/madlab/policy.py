"""Simulated categorical agent policies and the debate environment.

Honest agents are tabular softmax policies over a context made of (difficulty
bin, own previous answer, peer modal answer, peer agreement bin). Round 0 uses
the null context (no previous answers); a per-(question, agent) logit tilt
biased toward the true answer by skill * (1 - difficulty), plus seeded noise,
carries each question's private signal. The honest seats come first: with
compromised_count = m of N seats, seats 0..H-1 (H = N - m) are honest and the
last m are compromised. Compromised seats ignore the debate and answer
adversary[truth] (see DebateEnv) every round.

With K answer labels each difficulty bin owns contexts_per_bin(K) = 1 + 3K^2
consecutive context rows: the null context first, then (own, mode, agreement)
in row-major order. The honest seats' policies are one (H, rows, K) logit
array over them, block i seat i's table; compromised seats have none. A
question's (T+1, H, K) tilts, row i for honest seat i, are drawn once by its
owner (batch_tilts) and passed down; the env keeps none. A question set is one
QuestionSet of columns that every stage indexes by slice or index array. Its
truths and a debate's (T+1, N) answers are codes, indices into the answer
space; their labels appear only where debate.write_trajectories writes them.
_round_contexts is the one context formula: rollout_batch applies it to the
whole batch each round, and agent_steps rebuilds one agent's visits along a
recorded grid from it. rollout_batch runs its rounds label-major: the visits'
logits plus tilts form a (K, B, H) stack, so each reduction over the K labels
is elementwise work on (B, H) slabs, summed in numpy's own order (_label_sum).

The environment has a deliberate blind spot: debate-round tilts under-weight
the first answer label even though ground truth favors it (the aversion fades
on trivially easy questions), so untrained ensembles systematically herd away
from the usually-right label and training has a consistent error mode to
compensate. Harder questions can also flare mid-debate: a seeded distractor
label turns collectively tempting for one round and then collapses, so
undefended ensembles hop onto it in lockstep and need the closing rounds to
recover their answer.

All randomness flows from counter-based Philox4x64 streams keyed by hashed
scope tokens; nothing reads ambient entropy, so identical (config, seed) reruns
are bit-identical. Each scope hashes one key and reads its draws at fixed
counter positions: word j of a key is word j % 4 of its Philox block j // 4,
and _philox_blocks reads many keys' blocks from one numpy Philox, reseated to
each key in turn. A question's key (seed, "question", id) gives its truth (word
0) and difficulty (word 1). Its tilt key (seed, "tilt", id) lays the tilt
normals out as [round, seat (stride N), label], pairing words for Box-Muller,
and the two words after them decide the flare. A debate's act key (rollout
seed, "act", id) gives seat i its round-t uniform at word t * N + i. The stride
of N seats keeps an honest seat's draws independent of compromised_count, and
the round-major layout keeps earlier rounds independent of the number of
rounds. rng_stream opens one scope's numpy Generator for draws off these paths.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from madlab.debate import with_fp

LOGIT_CLAMP = 30.0

# Untrained behavioral prior: inertia toward one's own previous answer and
# conformity toward the peer mode, stronger the larger the agreeing fraction.
OWN_PRIOR = 0.95
PEER_PRIOR = (0.0, 0.4, 2.8)

# Debate rounds under-weight the first answer label (a baked-in blind spot),
# while ground truth lands on that label more often than chance (see
# TRUTH_SKEW). The mismatch is a persistent, learnable bias: untrained
# ensembles herd away from the label that is usually right, and training has
# to discover it. The aversion rides the round tilt and fades out linearly
# below AVERSION_RAMP difficulty, so trivially-easy questions stay clean and
# saturated ensembles (skill 1, difficulty 0) are near-deterministic.
LABEL_AVERSION = -1.1
AVERSION_RAMP = 0.02
TRUTH_SKEW = 0.75

# Private signal: logit boost on the true answer scaled by
# skill * (1 - difficulty), plus seeded per-(question, agent) noise. The
# full signal drives round 0; a damped copy persists through debate rounds
# (agents keep their own reading of the question while they argue).
SIGNAL_GAIN = 8.0
SIGNAL_NOISE = 1.0
SIGNAL_PERSIST = 0.2
# Per-round re-reading wobble, wider on harder questions, so near-tied
# debates keep stirring instead of freezing into an early accident.
SIGNAL_WOBBLE = 0.3
SIGNAL_WOBBLE_SLOPE = 1.2
# Mid-debate distractor flare: on harder questions (with probability equal
# to the difficulty) one seeded wrong label turns collectively tempting for
# a single round, then collapses just as abruptly. The push/pop pair is
# shared by every agent, so an undefended ensemble hops onto the distractor
# in lockstep and has to re-find its footing afterwards — stance churn plus
# a recovery scramble, a failure mode that per-agent answer inertia (and
# little else) can absorb. Needs at least two debate rounds after the pop,
# so it only fires when rounds >= 4.
FLARE_SCALE = 7.0

PHILOX_BLOCKS_PER_PASS = 4096  # bounds the raw words (and normals) a pass holds


def _key_digest(*tokens: object) -> bytes:
    text = "|".join(str(t) for t in tokens)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


def derive_key(*tokens: object) -> int:
    """128-bit stream key from hashed scope tokens."""
    return int.from_bytes(_key_digest(*tokens), "little")


def _reseat(gen: np.random.Philox, key: Sequence[int]) -> np.random.Philox:
    """gen at counter 0 under a key's two words with nothing buffered, the state
    Philox(key=...) starts in; a gen built as Philox(0) reads no entropy."""
    gen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def rng_stream(*tokens: object) -> np.random.Generator:
    """Independent counter-based generator for one scope: numpy's Philox keyed by
    derive_key(*tokens)."""
    key = np.frombuffer(_key_digest(*tokens), "<u8").tolist()
    return np.random.Generator(_reseat(np.random.Philox(0), key))


def _philox_blocks(digests: Sequence[bytes], blocks: int) -> np.ndarray:
    """Philox(key).random_raw(4 * blocks) for each 16-byte key digest, as rows,
    read by one numpy Philox reseated to each key in turn."""
    keys = np.frombuffer(b"".join(digests), "<u8").reshape(-1, 2).tolist()
    out = np.empty((len(keys), 4 * blocks), dtype=np.uint64)
    gen = np.random.Philox(0)
    for row, key in zip(out, keys):
        row[:] = _reseat(gen, key).random_raw(4 * blocks)
    return out


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's random() of each raw word: (w >> 11) * 2**-53, in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw words, one Box-Muller pair per two words.

    Normal j reads uniforms u1, u2 from words 2 * (j // 2) and 2 * (j // 2) + 1:
    r * cos(2 pi u2) for even j and r * sin(2 pi u2) for odd j, with r =
    sqrt(-2 log(1 - u1)), finite on all of u1's range [0, 1).
    """
    u = _unit_doubles(words)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    normals = np.empty_like(u)
    normals[..., 0::2] = r * np.cos(theta)
    normals[..., 1::2] = r * np.sin(theta)
    return normals


def _keys_per_pass(words: int) -> int:
    """Keys whose first `words` words fit one Philox pass of at most
    PHILOX_BLOCKS_PER_PASS blocks, or one key."""
    return max(1, PHILOX_BLOCKS_PER_PASS // -(-words // 4))


def answer_labels(size: int) -> tuple[str, ...]:
    if not 2 <= size <= 26:
        raise ValueError(f"answer_space_size must be in [2, 26], got {size}")
    return tuple(string.ascii_uppercase[:size])


def contexts_per_bin(k: int) -> int:
    """Rows per difficulty bin: the null context and each (own, mode, agreement)."""
    return 1 + 3 * k * k


def context_key(row: int, labels: Sequence[str]) -> str:
    """Policy-file key 'bin|own|mode|agreement' of a context row ('-' at round 0)."""
    k = len(labels)
    question_feature, offset = divmod(row, contexts_per_bin(k))
    if offset == 0:
        return f"{question_feature}|-|-|0"
    pair, agreement = divmod(offset - 1, 3)
    own, mode = divmod(pair, k)
    return f"{question_feature}|{labels[own]}|{labels[mode]}|{agreement}"


@dataclass(frozen=True, eq=False)
class QuestionSet:
    """Questions as columns over one answer space: ids (str), truth (int64 codes)
    and difficulty (float64 in [0, 1]). qs[rows] takes a slice or an index
    array and returns a set; a set does not iterate, its stages read columns."""

    answer_space: tuple[str, ...]
    ids: np.ndarray
    truth: np.ndarray
    difficulty: np.ndarray

    __iter__ = None  # else iteration falls back to qs[0], qs[1], ... with 0-d columns

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows: slice | np.ndarray) -> QuestionSet:
        if isinstance(rows, (int, np.integer)):  # its columns would be 0-d
            raise TypeError("index a QuestionSet by slice or index array, as qs[j:j + 1]")
        return QuestionSet(self.answer_space, self.ids[rows], self.truth[rows],
                           self.difficulty[rows])


def difficulty_bin(difficulty: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bin index of each difficulty in [0, 1]; 1.0 lands in the top bin."""
    return np.minimum((difficulty * bins).astype(np.int64), bins - 1)


def _round_contexts(base: np.ndarray | int, prev: np.ndarray, k: int) -> np.ndarray:
    """Context rows of every seat in the round after the answer codes prev (B, N).

    base is each debate's difficulty-bin offset, broadcast against (B, N). A
    seat's peers on label c are the debate's count of c (one bincount) less
    its own answer's. The peer mode is the first label to reach the top peer
    count (ranking peers * K + K - 1 - c), and the agreement bin splits the
    agreeing-peer fraction into thirds, all in exact integer arithmetic.
    """
    b, n = prev.shape
    labels = np.arange(k)[:, None, None]
    counts = np.bincount((prev + k * np.arange(b)[:, None]).ravel(), minlength=b * k)
    rank = (counts.reshape(b, k).T[:, :, None] - (prev == labels)) * k + (k - 1 - labels)
    top, tie = np.divmod(rank.max(axis=0), k)
    agreement = (3 * top > n - 1).astype(np.int64) + (3 * top > 2 * (n - 1))
    return base + 1 + (prev * k + k - 1 - tie) * 3 + agreement


def _label_sum(z: np.ndarray) -> np.ndarray:
    """z.sum(axis=0) of a (K, ...) stack in numpy's order for a contiguous last
    axis of length K, so a label-major softmax keeps every bit: in order below
    K = 8; from 8 to numpy's 128-element block, eight lane sums over labels j,
    j + 8, ..., combined pairwise, then the tail in order."""
    k = len(z)
    if k < 8:
        return sum(z[1:], z[0])
    head = k - k % 8
    r = sum((z[j:j + 8] for j in range(8, head, 8)), z[:8])
    return sum(z[head:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def parse_difficulty_spec(spec: str) -> tuple[float, float]:
    """Difficulty sampling range (lo, hi); fixed values have lo == hi.

    Accepts "uniform", "uniform:<lo>,<hi>", "fixed:<x>".
    """
    if spec == "uniform":
        return (0.0, 1.0)
    if spec.startswith("uniform:"):
        parts = spec[len("uniform:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad difficulty spec {spec!r}")
        lo, hi = float(parts[0]), float(parts[1])
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"difficulty range must satisfy 0 <= lo <= hi <= 1: {spec!r}")
        return (lo, hi)
    if spec.startswith("fixed:"):
        x = float(spec[len("fixed:") :])
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"fixed difficulty must be in [0, 1]: {spec!r}")
        return (x, x)
    raise ValueError(f"bad difficulty spec {spec!r}")


@dataclass(frozen=True)
class EnvConfig:
    """Shape of the simulated debate environment."""

    num_agents: int = 5
    rounds: int = 5  # refinement rounds T after the initial response
    answer_space_size: int = 4
    difficulty_bins: int = 1
    compromised_count: int = 0
    adversarial_target_policy: str = "min_wrong"
    seed: int = 0
    skills: tuple[float, ...] = (0.95, 0.85, 0.75, 0.65, 0.55)
    difficulty: str = "uniform:0.0,0.8"

    def __post_init__(self) -> None:
        if self.num_agents < 2:
            raise ValueError("num_agents must be at least 2")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        answer_labels(self.answer_space_size)  # range check
        if self.difficulty_bins < 1:
            raise ValueError("difficulty_bins must be at least 1")
        if self.compromised_count < 0:
            raise ValueError("compromised_count must be non-negative")
        if self.compromised_count > self.num_agents:
            raise ValueError(f"compromised_count {self.compromised_count} exceeds num_agents")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not self.skills:
            raise ValueError("skills must be non-empty")
        for s in self.skills:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"skills must be in [0, 1], got {s}")
        parse_difficulty_spec(self.difficulty)
        policy = self.adversarial_target_policy
        if policy not in ("min_wrong", "max_wrong") and not policy.startswith("fixed:"):
            raise ValueError(
                "adversarial_target_policy must be 'min_wrong', 'max_wrong', or "
                f"'fixed:<LABEL>', got {policy!r}"
            )
        if policy.startswith("fixed:"):
            label = policy[len("fixed:") :]
            if label not in answer_labels(self.answer_space_size):
                raise ValueError(f"fixed adversarial target {label!r} outside the answer space")


class DebateEnv:
    """Deterministic simulator tying questions, agents, and policies together.

    honest is H, the count of honest seats: they come first, as seats
    0..H-1, so every per-seat array's honest part is its first H entries.
    skills holds their skills, config.skills repeated to length H.
    """

    def __init__(self, config: EnvConfig) -> None:
        self.config = config
        self.answer_space = answer_labels(config.answer_space_size)
        self.honest = h = config.num_agents - config.compromised_count
        self.skills = np.array([config.skills[i % len(config.skills)] for i in range(h)])
        k, target = len(self.answer_space), config.adversarial_target_policy
        # adversary[c]: every compromised seat's answer code when the truth is c
        if target == "min_wrong":  # the first other label
            self.adversary = np.array([1] + [0] * (k - 1))
        elif target == "max_wrong":  # the last other label
            self.adversary = np.array([k - 1] * (k - 1) + [k - 2])
        else:  # fixed:X, whatever the truth
            self.adversary = np.full(k, self.answer_space.index(target[len("fixed:") :]))

    def initial_policies(self) -> np.ndarray:
        """Fresh untrained (H, rows, K) logits of the honest seats, block i seat i's table.

        Every seat's every bin starts from the same block: zero logits at the
        null context and the inertia and conformity prior everywhere else.
        """
        k = len(self.answer_space)
        block = np.zeros((contexts_per_bin(k), k))
        for own in range(k):
            for mode in range(k):
                for agreement in range(3):
                    row = block[1 + (own * k + mode) * 3 + agreement]
                    row[own] += OWN_PRIOR
                    row[mode] += PEER_PRIOR[agreement]
        return np.tile(block, (self.honest, self.config.difficulty_bins, 1))

    def generate_questions(self, count: int, label: str) -> QuestionSet:
        """Seeded question batch; ids are stable under count changes.

        Ground truth lands on the first answer label with probability
        TRUTH_SKEW and uniformly on the rest, pairing with the prior's
        LABEL_AVERSION to give untrained ensembles a systematic blind spot.
        One Philox pass draws each id's choice(K, p=weights) (word 0's uniform
        searched in the weights' cdf) and uniform(lo, hi) (word 1's), exactly.
        """
        lo, hi = parse_difficulty_spec(self.config.difficulty)
        k = len(self.answer_space)
        weights = np.full(k, (1.0 - TRUTH_SKEW) / (k - 1))
        weights[0] = TRUTH_SKEW
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        qids = [f"{label}-{idx:05d}" for idx in range(count)]
        digests = [_key_digest(self.config.seed, "question", qid) for qid in qids]
        uniforms = _unit_doubles(_philox_blocks(digests, 1)[:, :2])
        return QuestionSet(self.answer_space, np.array(qids, dtype=str),
                           cdf.searchsorted(uniforms[:, 0], side="right"),
                           lo + (hi - lo) * uniforms[:, 1])

    def batch_tilts(self, questions: QuestionSet) -> np.ndarray:
        """(B, T+1, H, K) logit tilts of every honest seat at every round of each question.

        Round 0 carries the full private signal. Later rounds carry a damped
        copy plus fresh per-round noise (a re-reading wobble) so that near-tied
        debates keep stirring instead of freezing, plus the difficulty-ramped
        aversion against the first answer label. Below AVERSION_RAMP
        difficulty the aversion fades out and the signal persistence ramps to
        full strength, so trivially-easy questions are debated
        near-deterministically. A question flares with probability equal to
        its difficulty when rounds >= 4: a uniformly picked wrong label spikes
        at round rounds-3 and reverses at rounds-2, leaving the last two rounds
        clean for the ensemble to regroup. Compromised seats have no tilts.

        Every call draws every question it is given into one fresh array;
        nothing is cached. A question reads everything from its one tilt key
        (seed, "tilt", id): the (T+1, N, K) normals, round 0 the signal and
        later rounds the wobble, of which the honest rows are kept, then the
        flare's fire and pick uniforms. Passes run over whole questions,
        PHILOX_BLOCKS_PER_PASS blocks at most (or one question), so a
        question's tilts do not depend on the rest of the batch.
        """
        cfg = self.config
        n, k, steps = cfg.num_agents, len(self.answer_space), cfg.rounds + 1
        h, normals = self.honest, steps * n * k
        paired = normals + normals % 2  # Box-Muller takes words in pairs
        words = paired + 2
        chunk = _keys_per_pass(words)
        out = np.empty((len(questions), steps, h, k))
        for start in range(0, len(questions), chunk):
            part = questions[start:start + chunk]
            c = len(part)
            raw = _philox_blocks([_key_digest(cfg.seed, "tilt", qid) for qid in part.ids.tolist()],
                                 -(-words // 4))
            noise = _box_muller(raw[:, :paired])[:, :normals].reshape(c, steps, n, k)[:, :, :h]
            difficulty, truth = part.difficulty, part.truth
            ramp = np.minimum(1.0, difficulty / AVERSION_RAMP)[:, None, None]
            persist = SIGNAL_PERSIST + (1.0 - SIGNAL_PERSIST) * (1.0 - ramp)
            scale = SIGNAL_WOBBLE + SIGNAL_WOBBLE_SLOPE * difficulty[:, None, None]
            signal = SIGNAL_NOISE * noise[:, 0]
            signal[np.arange(c), :, truth] += SIGNAL_GAIN * self.skills * (1.0 - difficulty[:, None])
            tilts = out[start:start + c]
            tilts[:, 0] = signal
            tilts[:, 1:] = persist[..., None] * signal[:, None] + scale[..., None] * noise[:, 1:]
            if cfg.rounds >= 4:
                push = cfg.rounds - 3
                fire, pick = _unit_doubles(raw[:, paired:words]).T
                fired = np.flatnonzero(fire < difficulty)
                wrong = (pick[fired] * (k - 1)).astype(np.intp)
                flare = wrong + (wrong >= truth[fired])  # the wrong labels in order, truth skipped
                tilts[fired, push, :, flare] += FLARE_SCALE
                tilts[fired, push + 1, :, flare] -= FLARE_SCALE
            tilts[:, 1:, :, 0] += LABEL_AVERSION * ramp
        return out

    def rollout_debate(
        self,
        question: QuestionSet,
        policies: np.ndarray,
        rollout_seed: int,
    ) -> np.ndarray:
        """The (T+1, N) answer codes of the debate of a set of one question; its
        acts read the key (rollout_seed, "act", question id) and it draws its own tilts."""
        _check_one(question)
        return self.rollout_batch(question, self.batch_tilts(question), policies,
                                  [rollout_seed])[1][0]

    def rollout_batch(
        self,
        questions: QuestionSet,
        tilts: np.ndarray,
        policies: np.ndarray,
        rollout_seeds: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one debate per question, advancing the whole batch a round at a time.

        Debate b's acts read one key, (rollout_seeds[b], "act", question id):
        seat i's uniform at round t is word t * N + i, searched in the cumsum
        of the softmax of its table row plus tilt. Passes run over whole
        debates, PHILOX_BLOCKS_PER_PASS blocks at most (or one debate), so a
        debate does not depend on the rest of the batch. The H honest seats
        draw from their blocks of the (H, rows, K) policy logits, gathered
        label-major from one (K, H * rows) transpose, and their tilts
        (batch_tilts of the questions); the last m answer columns hold each
        question's adversary[truth]. Returns the (B, T+1, N) context rows and
        answer codes of every seat's visits.
        """
        n = self.config.num_agents
        b, h, k = len(questions), self.honest, len(self.answer_space)
        shape = (h, self.config.difficulty_bins * contexts_per_bin(k), k)
        if policies.shape != shape:
            raise ValueError(f"need (H, rows, K) = {shape} policy logits, got {policies.shape}")
        if len(rollout_seeds) != b:
            raise ValueError(f"need {b} rollout seeds, got {len(rollout_seeds)}")
        steps = self.config.rounds + 1
        contexts, answers = np.empty((2, b, steps, n), dtype=np.int64)
        if b == 0:
            return contexts, answers
        if tilts.shape != (b, steps, h, k):
            raise ValueError(f"need (B, T+1, H, K) = {(b, steps, h, k)} tilts, got {tilts.shape}")
        if h < n:
            answers[:, :, h:] = self.adversary[questions.truth][:, None, None]
        bins = difficulty_bin(questions.difficulty, self.config.difficulty_bins)
        base = contexts_per_bin(k) * bins[:, None]
        words = steps * n
        chunk = _keys_per_pass(words)
        digests = [_key_digest(seed, "act", qid)
                   for qid, seed in zip(questions.ids.tolist(), rollout_seeds)]
        uniforms = np.concatenate([
            _unit_doubles(_philox_blocks(digests[j:j + chunk], -(-words // 4))[:, :words])
            for j in range(0, b, chunk)
        ]).reshape(b, steps, n)[:, :, :h]
        table = policies.transpose(2, 0, 1).reshape(k, -1)
        seat_rows = np.arange(h) * shape[1]
        contexts[:, 0] = base
        for t in range(steps):
            if t:
                contexts[:, t] = _round_contexts(base, answers[:, t - 1], k)
            # Each visit's softmax, then a right-side search of its cumsum's
            # first K - 1 entries, so the answer stops at K - 1.
            z = table.take(contexts[:, t, :h] + seat_rows, axis=1)
            z += tilts[:, t].transpose(2, 0, 1)
            z -= z.max(axis=0)
            np.exp(z, out=z)
            z /= _label_sum(z)
            for c in range(1, k - 1):
                z[c] += z[c - 1]
            answers[:, t, :h] = (z[:-1] <= uniforms[:, t]).sum(axis=0)
        return contexts, answers

    def agent_steps(
        self, question: QuestionSet, answers: np.ndarray, agent_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One honest agent's visits along the (T+1, N) answer codes of a set of
        one question's debate, in round order: its (T+1,) context rows, its
        (T+1, K) tilts (row agent_index of the question's (T+1, H, K) tilts)
        and its (T+1,) answer codes."""
        _check_one(question)
        if not 0 <= agent_index < self.honest:
            raise ValueError(f"agent {agent_index} is compromised and has no policy")
        k = len(self.answer_space)
        base = difficulty_bin(question.difficulty, self.config.difficulty_bins) * contexts_per_bin(k)
        rows = np.concatenate([base, _round_contexts(base, answers[:-1], k)[:, agent_index]])
        return rows, self.batch_tilts(question)[0, :, agent_index], answers[:, agent_index]


def _check_one(question: QuestionSet) -> None:
    if len(question) != 1:
        raise ValueError(f"need a set of one question, got {len(question)}")


def save_policy(
    path_or_fp: str | IO[str],
    labels: Sequence[str],
    logits: np.ndarray,
    agent_index: int,
    config_hash: str,
) -> None:
    """Versioned text format of one seat's (rows, K) logits: header, then every
    'context-key<TAB>logits' row, sorted by key text."""

    def _write(fp: IO[str]) -> None:
        fp.write("# madlab-policy v1\n")
        fp.write(f"# labels: {','.join(labels)}\n")
        fp.write(f"# config-hash: {config_hash}\n")
        fp.write(f"# agent: {agent_index}\n")
        keys = sorted((context_key(r, labels), r) for r in range(len(logits)))
        for key, r in keys:
            fp.write(key + "\t" + ",".join(repr(float(v)) for v in logits[r]) + "\n")

    with_fp(path_or_fp, "w", _write)
