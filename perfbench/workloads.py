"""The benchmark's workloads: the madlab command each runs and how to check it.

Every workload is one ``madlab`` command line, run as a user would type it.
``prepare`` writes any input the command needs into a work directory and
returns the command line plus everything the output checks expect.

- train-default: ``madlab train`` on the built-in default config. The only
  workload where optim, replay, calibration and rewards do real work.
- eval-wide: ``madlab baseline`` on a wide, long config (7 agents, 8 rounds,
  2 difficulty bins, 1 compromised seat). Rollout, metrics and trajectory
  writing dominate; optim and replay are never called.
- analyze-large: ``madlab analyze`` on a trajectory file this module generates
  from the seed with numpy alone, so every version of madlab reads
  byte-identical input. Parsing, metrics and stats dominate; no rollout runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

SUMMARY_HEADER = "label,questions,accuracy,mean_U_intra,mean_U_inter,mean_U_sys"

# Built-in defaults of madlab's config that the train-default item count rests
# on; the output checks confirm them (200 eval rows per label, 200 iterations).
DEFAULT_ITERATIONS = 200
DEFAULT_BATCH = 32
DEFAULT_EVAL_QUESTIONS = 200
DEFAULT_HONEST_AGENTS = 5

EVAL_WIDE_QUESTIONS = 1000
EVAL_WIDE_CONFIG = """\
[environment]
num_agents = 7
rounds = 8
answer_space_size = 4
difficulty_bins = 2
compromised_count = 1
skills = 0.95,0.88,0.81,0.74,0.67,0.6,0.53
eval_questions = {questions}
"""

ANALYZE_RECORDS = 30000
ANALYZE_AGENTS = 5
ANALYZE_ROUNDS = 5
ANALYZE_LABELS = ("A", "B", "C", "D")
ANALYZE_SKILLS = (0.9, 0.8, 0.7, 0.6, 0.5)
HERD_PROB = 0.45  # an agent adopts the previous round's plurality answer
STAY_PROB = 0.40  # an agent keeps its own previous answer; otherwise it guesses
NO_TRUTH_FRAC = 0.03

# Tiny variants for the benchmark's own smoke test: same commands, less work.
SMOKE_TRAIN_CONFIG = """\
[environment]
train_questions = 24
eval_questions = 12

[udpo]
iterations = 3
batch_size = 4

[replay]
refresh_period = 2
"""
SMOKE_EVAL_QUESTIONS = 40
SMOKE_ANALYZE_RECORDS = 300


@dataclass
class Prepared:
    """One workload's command line and what its outputs must show."""

    argv: list[str]
    items: int
    rows: list[tuple[str, int]]  # expected summary (label, questions), in order
    artifacts: list[str]
    line_counts: dict[str, int] = field(default_factory=dict)
    accuracy: str | None = None  # expected last-row accuracy, as printed
    info: dict[str, object] = field(default_factory=dict)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return path


def prepare_train_default(workdir: str, seed: int, smoke: bool) -> Prepared:
    argv = ["train", "--seed", str(seed)]
    iterations, batch, questions = DEFAULT_ITERATIONS, DEFAULT_BATCH, DEFAULT_EVAL_QUESTIONS
    if smoke:
        config = _write(os.path.join(workdir, "smoke-train.ini"), SMOKE_TRAIN_CONFIG)
        argv += ["--config", config]
        iterations, batch, questions = 3, 4, 12
    artifacts = [
        "coefficients.csv", "profiles.csv", "replay_buffer.jsonl", "rewards.csv",
        "summary.csv", "training_metrics.csv", "trajectories.jsonl",
    ] + [f"policy_agent_{i}.txt" for i in range(DEFAULT_HONEST_AGENTS)]
    return Prepared(
        argv=argv,
        items=iterations * batch,
        rows=[("baseline", questions), ("trained", questions)],
        artifacts=artifacts,
        line_counts={"training_metrics.csv": iterations + 1, "trajectories.jsonl": questions},
    )


def prepare_eval_wide(workdir: str, seed: int, smoke: bool) -> Prepared:
    questions = SMOKE_EVAL_QUESTIONS if smoke else EVAL_WIDE_QUESTIONS
    config = _write(
        os.path.join(workdir, "eval-wide.ini"), EVAL_WIDE_CONFIG.format(questions=questions)
    )
    return Prepared(
        argv=["baseline", "--config", config, "--seed", str(seed)],
        items=questions,
        rows=[("baseline", questions)],
        artifacts=["profiles.csv", "rewards.csv", "summary.csv", "trajectories.jsonl"],
        line_counts={"trajectories.jsonl": questions, "profiles.csv": questions + 1},
    )


def herding_answers(seed: int, records: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded herding debates: (answers (R, T+1, N), truth (R,), has_truth (R,)).

    Round 0 answers are right with a probability that falls with difficulty
    and rises with the agent's skill. Each later answer copies the previous
    round's plurality (ties to the lowest label), keeps the agent's own
    answer, or is a uniform guess.
    """
    rng = np.random.default_rng([seed, 0xA7A1])
    k, n, t_rounds = len(ANALYZE_LABELS), ANALYZE_AGENTS, ANALYZE_ROUNDS
    truth = rng.integers(0, k, size=records)
    difficulty = rng.uniform(0.0, 1.0, size=records)
    signal = np.asarray(ANALYZE_SKILLS)[None, :] * (1.0 - difficulty[:, None])
    p_right = signal + (1.0 - signal) / k
    right = rng.random((records, n)) < p_right
    wrong = (truth[:, None] + rng.integers(1, k, size=(records, n))) % k
    answers = np.empty((records, t_rounds + 1, n), dtype=np.int64)
    answers[:, 0] = np.where(right, truth[:, None], wrong)
    for t in range(1, t_rounds + 1):
        prev = answers[:, t - 1]
        plurality = _counts(prev, k).argmax(axis=1)
        u = rng.random((records, n))
        guess = rng.integers(0, k, size=(records, n))
        answers[:, t] = np.where(
            u < HERD_PROB, plurality[:, None], np.where(u < HERD_PROB + STAY_PROB, prev, guess)
        )
    has_truth = rng.random(records) >= NO_TRUTH_FRAC
    return answers, truth, has_truth


def _counts(rows: np.ndarray, k: int) -> np.ndarray:
    """Per-row label counts: (R, N) label codes -> (R, k)."""
    return (rows[:, :, None] == np.arange(k)).sum(axis=1)


def write_analyze_input(path: str, seed: int, records: int) -> dict[str, object]:
    """Write the analyze-large trajectory file; returns the benchmark's recount.

    The recount is an order-minimal majority vote over each final round,
    skipping records without ground truth, plus the input's sha256 and the
    share of records whose final round is unanimous or tied.
    """
    answers, truth, has_truth = herding_answers(seed, records)
    labels = ANALYZE_LABELS
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for r in range(records):
            record = {
                "question_id": f"gen-{r:06d}",
                "answer_space": list(labels),
                "ground_truth": labels[truth[r]] if has_truth[r] else None,
                "rounds": [[labels[a] for a in row] for row in answers[r].tolist()],
            }
            fp.write(json.dumps(record) + "\n")
    final_counts = _counts(answers[:, -1], len(labels))
    winner = final_counts.argmax(axis=1)
    top = final_counts.max(axis=1)
    tied = (final_counts == top[:, None]).sum(axis=1) > 1
    correct = (winner == truth)[has_truth]
    return {
        "input_sha256": sha256_file(path),
        "records": records,
        "questions": int(has_truth.sum()),
        "accuracy": float(correct.mean()),
        "unanimous_frac": float((top == ANALYZE_AGENTS).mean()),
        "tied_frac": float(tied.mean()),
    }


def prepare_analyze_large(workdir: str, seed: int, smoke: bool) -> Prepared:
    records = SMOKE_ANALYZE_RECORDS if smoke else ANALYZE_RECORDS
    path = os.path.join(workdir, "analyze-input.jsonl")
    recount = write_analyze_input(path, seed, records)
    return Prepared(
        argv=["analyze", path],
        items=records,
        rows=[("analysis", recount["questions"])],
        artifacts=["correlation.csv", "selective.csv", "separation.csv", "strata.csv"],
        accuracy=f"{recount['accuracy']:.6f}",
        info=recount,
    )


WORKLOADS = {
    "train-default": prepare_train_default,
    "eval-wide": prepare_eval_wide,
    "analyze-large": prepare_analyze_large,
}


def parse_summary(text: str) -> list[list[str]]:
    """Rows of the summary table a madlab command prints on stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != SUMMARY_HEADER:
        raise ValueError("stdout does not start with the summary header")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != 6:
            raise ValueError(f"summary row has {len(row)} fields: {row}")
        int(row[1])
        for value in row[2:]:
            float(value)
    return rows


def check_outputs(prep: Prepared, out_dir: str, stdout: str) -> list[str]:
    """Every way one invocation's outputs differ from what prep expects."""
    problems = []
    for name in prep.artifacts:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing or empty artifact {name}")
    for name, expected in prep.line_counts.items():
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fp:
                lines = sum(1 for _ in fp)
            if lines != expected:
                problems.append(f"{name} has {lines} lines, expected {expected}")
    try:
        rows = parse_summary(stdout)
    except ValueError as exc:
        return problems + [str(exc)]
    got = [(row[0], int(row[1])) for row in rows]
    if got != prep.rows:
        problems.append(f"summary rows {got}, expected {prep.rows}")
    for row in rows:
        values = [float(v) for v in row[2:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"summary row {row[0]} has a value outside [0, 1]: {row}")
    if prep.accuracy is not None and rows and rows[-1][2] != prep.accuracy:
        problems.append(f"accuracy {rows[-1][2]}, recount gives {prep.accuracy}")
    return problems


def artifact_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file a command wrote, by name."""
    return {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if os.path.isfile(os.path.join(out_dir, name))
    }
