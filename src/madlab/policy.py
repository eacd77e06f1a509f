"""Simulated categorical agent policies and the debate environment.

Honest agents are tabular softmax policies over a context made of (difficulty
bin, own previous answer, peer modal answer, peer agreement bin). Round 0 uses
the null context (no previous answers); a per-(question, agent) logit tilt
biased toward the true answer by skill * (1 - difficulty), plus seeded noise,
carries each question's private signal. Compromised agents ignore the debate
and emit a fixed or per-question adversarial target every round.

The environment has a deliberate blind spot: debate-round tilts under-weight
the first answer label even though ground truth favors it (the aversion fades
on trivially easy questions), so untrained ensembles systematically herd away
from the usually-right label and training has a consistent error mode to
compensate. Harder questions can also flare mid-debate: a seeded distractor
label turns collectively tempting for one round and then collapses, so
undefended ensembles hop onto it in lockstep and need the closing rounds to
recover their answer.

All randomness flows from counter-based streams keyed by hashed scope tokens
(seed, purpose, question, round, agent); nothing reads ambient entropy, so
identical (config, seed) reruns are bit-identical.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from madlab.debate import DebateTrajectory, with_fp

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

HONEST = "honest"
COMPROMISED = "compromised"


def derive_key(*tokens: object) -> int:
    """128-bit stream key from hashed scope tokens."""
    text = "|".join(str(t) for t in tokens)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def rng_stream(*tokens: object) -> np.random.Generator:
    """Independent counter-based generator for one scope."""
    return np.random.Generator(np.random.Philox(key=derive_key(*tokens)))


def answer_labels(size: int) -> tuple[str, ...]:
    if not 2 <= size <= 26:
        raise ValueError(f"answer_space_size must be in [2, 26], got {size}")
    return tuple(string.ascii_uppercase[:size])


@dataclass(frozen=True)
class DebateContext:
    """Observable state a policy conditions on at one round.

    Round 0 is the per-difficulty-bin null context: no previous answers, so
    own_prev and peer_mode are None and peer_agreement is 0.
    """

    question_feature: int
    own_prev: str | None
    peer_mode: str | None
    peer_agreement: int

    def key(self) -> str:
        own = self.own_prev if self.own_prev is not None else "-"
        mode = self.peer_mode if self.peer_mode is not None else "-"
        return f"{self.question_feature}|{own}|{mode}|{self.peer_agreement}"

    @classmethod
    def from_key(cls, key: str) -> "DebateContext":
        parts = key.split("|")
        if len(parts) != 4:
            raise ValueError(f"bad context key {key!r}")
        return cls(
            question_feature=int(parts[0]),
            own_prev=None if parts[1] == "-" else parts[1],
            peer_mode=None if parts[2] == "-" else parts[2],
            peer_agreement=int(parts[3]),
        )


@dataclass(frozen=True)
class AgentSpec:
    """One seat in the ensemble: honest with a skill, or compromised."""

    kind: str
    skill: float = 0.5
    adversarial_target: str | None = None  # None means per-question minimal wrong label

    def __post_init__(self) -> None:
        if self.kind not in (HONEST, COMPROMISED):
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if not 0.0 <= self.skill <= 1.0:
            raise ValueError(f"skill must be in [0, 1], got {self.skill}")


@dataclass(frozen=True)
class SyntheticQuestion:
    """A task instance: id, answer space, true answer, difficulty in [0, 1]."""

    question_id: str
    answer_space: tuple[str, ...]
    ground_truth: str
    difficulty: float

    def __post_init__(self) -> None:
        if self.ground_truth not in self.answer_space:
            raise ValueError("ground_truth outside the answer space")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError(f"difficulty must be in [0, 1], got {self.difficulty}")


def difficulty_bin(difficulty: float, bins: int) -> int:
    """Equal-width bin index of a difficulty in [0, 1]; 1.0 lands in the top bin."""
    return min(int(difficulty * bins), bins - 1)


def build_context(
    question_feature: int,
    prev_row: Sequence[str] | None,
    agent_index: int,
    order: Sequence[str],
) -> DebateContext:
    """Context for one agent at one round; prev_row is None at round 0.

    The peer mode ties break order-minimal. The agreement bin splits the
    agreeing-peer fraction into thirds (exact integer arithmetic).
    """
    if prev_row is None:
        return DebateContext(question_feature, None, None, 0)
    own = prev_row[agent_index]
    peers = [a for j, a in enumerate(prev_row) if j != agent_index]
    counts: dict[str, int] = {}
    for a in peers:
        counts[a] = counts.get(a, 0) + 1
    top = max(counts.values())
    mode = next(label for label in order if counts.get(label, 0) == top)
    p = len(peers)
    if 3 * top <= p:
        agreement = 0
    elif 3 * top <= 2 * p:
        agreement = 1
    else:
        agreement = 2
    return DebateContext(question_feature, own, mode, agreement)


class PolicyTable:
    """Tabular softmax policy: context -> logit vector over the answer space.

    Contexts never seen before materialize with zero logits. Updates clamp
    every logit to +-LOGIT_CLAMP so ratios and KL terms stay finite.
    """

    def __init__(
        self,
        labels: Sequence[str],
        table: dict[DebateContext, np.ndarray] | None = None,
    ) -> None:
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.table: dict[DebateContext, np.ndarray] = {}
        if table:
            for ctx, logits in table.items():
                self.table[ctx] = np.clip(
                    np.asarray(logits, dtype=np.float64), -LOGIT_CLAMP, LOGIT_CLAMP
                )

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def logits(self, ctx: DebateContext) -> np.ndarray:
        row = self.table.get(ctx)
        if row is None:
            row = np.zeros(self.num_labels, dtype=np.float64)
            self.table[ctx] = row
        return row

    def probs(self, ctx: DebateContext, tilt: np.ndarray | None = None) -> np.ndarray:
        z = self.logits(ctx)
        if tilt is not None:
            z = z + tilt
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    def update(self, ctx: DebateContext, delta: np.ndarray) -> None:
        new = self.logits(ctx) + delta
        self.table[ctx] = np.clip(new, -LOGIT_CLAMP, LOGIT_CLAMP)

    def sample(
        self, ctx: DebateContext, rng: np.random.Generator, tilt: np.ndarray | None = None
    ) -> str:
        p = self.probs(ctx, tilt)
        u = rng.random()
        idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
        return self.labels[min(idx, self.num_labels - 1)]

    def copy(self) -> "PolicyTable":
        clone = PolicyTable(self.labels)
        clone.table = {ctx: row.copy() for ctx, row in self.table.items()}
        return clone


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


@dataclass(frozen=True)
class AgentStep:
    """One (context, round-0 tilt, chosen answer) visit along a trajectory."""

    ctx: DebateContext
    tilt: np.ndarray | None
    answer: str


class DebateEnv:
    """Deterministic simulator tying questions, agents, and policies together."""

    def __init__(self, config: EnvConfig) -> None:
        self.config = config
        self.answer_space = answer_labels(config.answer_space_size)
        self.agents = self._make_agents()
        self._tilt_cache: dict[tuple[str, int], np.ndarray] = {}
        self._wobble_cache: dict[tuple[str, int, int], np.ndarray] = {}
        self._flare_cache: dict[str, str | None] = {}

    def _make_agents(self) -> list[AgentSpec]:
        cfg = self.config
        m = cfg.compromised_count
        honest = max(cfg.num_agents - m, 0)
        fixed: str | None = None
        if cfg.adversarial_target_policy.startswith("fixed:"):
            fixed = cfg.adversarial_target_policy[len("fixed:") :]
        agents = [
            AgentSpec(HONEST, skill=cfg.skills[i % len(cfg.skills)]) for i in range(honest)
        ]
        agents += [
            AgentSpec(COMPROMISED, adversarial_target=fixed)
            for _ in range(cfg.num_agents - honest)
        ]
        return agents

    @property
    def honest_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.agents) if a.kind == HONEST]

    def initial_policies(self) -> list[PolicyTable | None]:
        """Fresh untrained policies; compromised seats get None.

        Honest tables pre-populate every reachable context with the inertia
        and conformity prior; unreachable contexts stay lazy-zero.
        """
        out: list[PolicyTable | None] = []
        for spec in self.agents:
            if spec.kind != HONEST:
                out.append(None)
                continue
            table: dict[DebateContext, np.ndarray] = {}
            k = len(self.answer_space)
            for qf in range(self.config.difficulty_bins):
                table[DebateContext(qf, None, None, 0)] = np.zeros(k)
                for own in self.answer_space:
                    for mode in self.answer_space:
                        for agreement in range(3):
                            v = np.zeros(k)
                            v[self.answer_space.index(own)] += OWN_PRIOR
                            v[self.answer_space.index(mode)] += PEER_PRIOR[agreement]
                            table[DebateContext(qf, own, mode, agreement)] = v
            out.append(PolicyTable(self.answer_space, table))
        return out

    def generate_questions(self, count: int, label: str) -> list[SyntheticQuestion]:
        """Seeded question batch; ids are stable under count changes.

        Ground truth lands on the first answer label with probability
        TRUTH_SKEW and uniformly on the rest, pairing with the prior's
        LABEL_AVERSION to give untrained ensembles a systematic blind spot.
        """
        lo, hi = parse_difficulty_spec(self.config.difficulty)
        k = len(self.answer_space)
        weights = np.full(k, (1.0 - TRUTH_SKEW) / (k - 1))
        weights[0] = TRUTH_SKEW
        questions = []
        for idx in range(count):
            qid = f"{label}-{idx:05d}"
            rng = rng_stream(self.config.seed, "question", qid)
            truth = self.answer_space[int(rng.choice(k, p=weights))]
            difficulty = lo if lo == hi else float(rng.uniform(lo, hi))
            questions.append(SyntheticQuestion(qid, self.answer_space, truth, difficulty))
        return questions

    def signal_tilt(self, question: SyntheticQuestion, agent_index: int) -> np.ndarray:
        """Round-0 private signal logits for one honest agent on one question."""
        cache_key = (question.question_id, agent_index)
        cached = self._tilt_cache.get(cache_key)
        if cached is not None:
            return cached
        spec = self.agents[agent_index]
        rng = rng_stream(self.config.seed, "signal", question.question_id, agent_index)
        tilt = rng.normal(0.0, SIGNAL_NOISE, len(self.answer_space))
        strength = SIGNAL_GAIN * spec.skill * (1.0 - question.difficulty)
        tilt[self.answer_space.index(question.ground_truth)] += strength
        self._tilt_cache[cache_key] = tilt
        return tilt

    def flare_label(self, question: SyntheticQuestion) -> str | None:
        """The distractor label flaring mid-debate on this question, if any.

        Seeded per question: fires with probability equal to the difficulty
        (so trivially-easy questions never flare) and picks a wrong label
        uniformly. Debates shorter than four rounds never flare.
        """
        if self.config.rounds < 4:
            return None
        cached = self._flare_cache.get(question.question_id)
        if cached is not None or question.question_id in self._flare_cache:
            return cached
        rng = rng_stream(self.config.seed, "flare", question.question_id)
        label: str | None = None
        if rng.random() < question.difficulty:
            wrong = [lab for lab in self.answer_space if lab != question.ground_truth]
            label = wrong[int(rng.integers(len(wrong)))]
        self._flare_cache[question.question_id] = label
        return label

    def round_tilt(
        self, question: SyntheticQuestion, agent_index: int, t: int
    ) -> np.ndarray | None:
        """Signal logits entering round t: full at 0, damped afterwards.

        The damped copy carries fresh per-round noise (a re-reading wobble)
        so that near-tied debates keep stirring instead of freezing, plus the
        difficulty-ramped aversion against the first answer label. Below
        AVERSION_RAMP difficulty the aversion fades out and the signal
        persistence ramps to full strength, so trivially-easy questions are
        debated near-deterministically. On flaring questions the shared
        distractor spike lands at round rounds-3 and reverses at rounds-2,
        leaving the last two rounds clean for the ensemble to regroup.
        """
        if t == 0:
            return self.signal_tilt(question, agent_index)
        ramp = min(1.0, question.difficulty / AVERSION_RAMP)
        persist = SIGNAL_PERSIST + (1.0 - SIGNAL_PERSIST) * (1.0 - ramp)
        tilt = persist * self.signal_tilt(question, agent_index)
        scale = SIGNAL_WOBBLE + SIGNAL_WOBBLE_SLOPE * question.difficulty
        if scale != 0.0:
            cache_key = (question.question_id, agent_index, t)
            wobble = self._wobble_cache.get(cache_key)
            if wobble is None:
                rng = rng_stream(
                    self.config.seed, "wobble", question.question_id, agent_index, t
                )
                wobble = rng.normal(0.0, 1.0, len(self.answer_space))
                self._wobble_cache[cache_key] = wobble
            tilt = tilt + scale * wobble
        push = self.config.rounds - 3
        if t == push or t == push + 1:
            label = self.flare_label(question)
            if label is not None:
                sign = 1.0 if t == push else -1.0
                tilt[self.answer_space.index(label)] += sign * FLARE_SCALE
        tilt[0] += LABEL_AVERSION * ramp
        return tilt

    def adversary_answer(self, spec: AgentSpec, question: SyntheticQuestion) -> str:
        """The wrong label a compromised seat advocates on this question."""
        if spec.adversarial_target is not None:
            return spec.adversarial_target
        order = self.answer_space
        if self.config.adversarial_target_policy == "max_wrong":
            order = tuple(reversed(order))
        for label in order:
            if label != question.ground_truth:
                return label
        raise ValueError("answer space has no wrong label to target")

    def rollout_debate(
        self,
        question: SyntheticQuestion,
        policies: Sequence[PolicyTable | None],
        rollout_seed: int,
    ) -> DebateTrajectory:
        """Run one full debate; every draw is keyed (seed, question, round, agent)."""
        if len(policies) != len(self.agents):
            raise ValueError(
                f"need {len(self.agents)} policies, got {len(policies)}"
            )
        qf = difficulty_bin(question.difficulty, self.config.difficulty_bins)
        rows: list[tuple[str, ...]] = []
        for t in range(self.config.rounds + 1):
            prev = rows[t - 1] if t > 0 else None
            row = []
            for i, spec in enumerate(self.agents):
                if spec.kind == COMPROMISED:
                    row.append(self.adversary_answer(spec, question))
                    continue
                policy = policies[i]
                if policy is None:
                    raise ValueError(f"honest agent {i} has no policy")
                ctx = build_context(qf, prev, i, self.answer_space)
                tilt = self.round_tilt(question, i, t)
                rng = rng_stream(rollout_seed, "act", question.question_id, t, i)
                row.append(policy.sample(ctx, rng, tilt))
            rows.append(tuple(row))
        return DebateTrajectory(
            question_id=question.question_id,
            answer_space=self.answer_space,
            rounds=tuple(rows),
            ground_truth=question.ground_truth,
        )

    def agent_steps(
        self, question: SyntheticQuestion, traj: "DebateTrajectory", agent_index: int
    ) -> list[AgentStep]:
        """The (context, tilt, answer) visits of one honest agent, in round order."""
        if self.agents[agent_index].kind != HONEST:
            raise ValueError(f"agent {agent_index} is compromised and has no policy")
        qf = difficulty_bin(question.difficulty, self.config.difficulty_bins)
        steps = []
        for t, row in enumerate(traj.rounds):
            prev = traj.rounds[t - 1] if t > 0 else None
            ctx = build_context(qf, prev, agent_index, self.answer_space)
            tilt = self.round_tilt(question, agent_index, t)
            steps.append(AgentStep(ctx=ctx, tilt=tilt, answer=row[agent_index]))
        return steps

    def trajectory_log_prob(
        self,
        policy: PolicyTable,
        agent_index: int,
        question: SyntheticQuestion,
        traj: "DebateTrajectory",
    ) -> float:
        """log pi(trajectory) for one honest agent: sum over rounds 0..T."""
        total = 0.0
        for step in self.agent_steps(question, traj, agent_index):
            p = policy.probs(step.ctx, step.tilt)
            total += float(np.log(p[policy.index[step.answer]]))
        return total


def save_policy(
    path_or_fp: str | IO[str],
    policy: PolicyTable,
    agent_index: int,
    config_hash: str,
) -> None:
    """Versioned text format: header, then sorted 'context-key<TAB>logits' rows."""

    def _write(fp: IO[str]) -> None:
        fp.write("# madlab-policy v1\n")
        fp.write(f"# labels: {','.join(policy.labels)}\n")
        fp.write(f"# config-hash: {config_hash}\n")
        fp.write(f"# agent: {agent_index}\n")
        for ctx in sorted(policy.table, key=lambda c: c.key()):
            row = policy.table[ctx]
            fp.write(ctx.key() + "\t" + ",".join(repr(float(v)) for v in row) + "\n")

    with_fp(path_or_fp, "w", _write)


def load_policy(path_or_fp: str | IO[str]) -> tuple[PolicyTable, int, str]:
    """Read a policy file; returns (policy, agent_index, config_hash).

    Bad headers, malformed rows, non-finite logits and repeated contexts are
    rejected with their line number; logits are clamped to +-LOGIT_CLAMP.
    """

    def _read(fp: IO[str]) -> tuple[PolicyTable, int, str]:
        lines = fp.readlines()
        if not lines or lines[0].strip() != "# madlab-policy v1":
            raise ValueError("not a v1 policy file")
        labels: tuple[str, ...] | None = None
        config_hash = ""
        agent_index = -1
        body_start = 0
        for n, line in enumerate(lines):
            if not line.startswith("#"):
                body_start = n
                break
            body_start = n + 1
            if line.startswith("# labels:"):
                labels = tuple(line.split(":", 1)[1].strip().split(","))
            elif line.startswith("# config-hash:"):
                config_hash = line.split(":", 1)[1].strip()
            elif line.startswith("# agent:"):
                try:
                    agent_index = int(line.split(":", 1)[1].strip())
                except ValueError as exc:
                    raise ValueError(f"line {n + 1}: bad agent header ({exc})")
        if labels is None:
            raise ValueError("policy file lacks a labels header")
        table: dict[DebateContext, np.ndarray] = {}
        for n, line in enumerate(lines[body_start:], start=body_start + 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                key, values = line.split("\t")
                ctx = DebateContext.from_key(key)
                row = np.array([float(v) for v in values.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"line {n}: bad policy row ({exc})")
            if len(row) != len(labels):
                raise ValueError(f"line {n}: expected {len(labels)} logits, got {len(row)}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"line {n}: non-finite logit in {values!r}")
            if ctx in table:
                raise ValueError(f"line {n}: context {key!r} repeats an earlier row")
            table[ctx] = row
        return PolicyTable(labels, table), agent_index, config_hash

    return with_fp(path_or_fp, "r", _read)
