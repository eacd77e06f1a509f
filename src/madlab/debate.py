"""Debate transcripts and the trajectory interchange format.

A trajectory is a complete (T+1) x N grid of answer labels: round 0 holds the
initial responses, rounds 1..T the refinements. Labels live in a finite
ordered answer space; every tie anywhere in the package breaks toward the
order-minimal label so that reruns are reproducible. Votes are counted over
answer codes, in metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Mapping, TypeVar

Label = str
T = TypeVar("T")


@dataclass(frozen=True)
class DebateTrajectory:
    """One debate transcript.

    rounds[t][i] is agent i's answer at round t; rounds[0] are the initial
    responses. ground_truth is None for unsupervised transcripts.
    """

    question_id: str
    answer_space: tuple[Label, ...]
    rounds: tuple[tuple[Label, ...], ...]
    ground_truth: Label | None = None

    @property
    def num_agents(self) -> int:
        return len(self.rounds[0]) if self.rounds else 0


def validate_trajectory(traj: DebateTrajectory) -> list[str]:
    """Return every invariant violation with its location; empty means valid.

    Checks: at least 2 agents, at least 1 refinement round, a non-empty
    duplicate-free answer space, a complete rectangular grid, every stored
    label inside the answer space, ground truth inside the answer space.
    """
    problems: list[str] = []
    space = traj.answer_space
    if not space:
        problems.append("answer_space is empty")
    if len(set(space)) != len(space):
        problems.append("answer_space contains duplicate labels")
    if not traj.rounds:
        problems.append("no rounds at all (need initial round plus T >= 1)")
        return problems
    n = len(traj.rounds[0])
    if n < 2:
        problems.append(f"need at least 2 agents, round 0 has {n}")
    if len(traj.rounds) < 2:
        problems.append("need at least 1 refinement round (T >= 1)")
    in_space = set(space)
    for t, row in enumerate(traj.rounds):
        if len(row) != n:
            problems.append(
                f"grid gap at t={t}: {len(row)} answers, round 0 has {n}"
            )
        for i, label in enumerate(row):
            if label not in in_space:
                problems.append(
                    f"label {label!r} at (t={t}, i={i}) not in the answer space"
                )
    if traj.ground_truth is not None and traj.ground_truth not in in_space:
        problems.append(f"ground_truth {traj.ground_truth!r} not in the answer space")
    return problems


def trajectory_to_record(
    traj: DebateTrajectory, extra: Mapping[str, object] | None = None
) -> dict:
    """JSON-serializable record for one trajectory line."""
    record: dict[str, object] = {
        "question_id": traj.question_id,
        "answer_space": list(traj.answer_space),
        "ground_truth": traj.ground_truth,
        "rounds": [list(row) for row in traj.rounds],
    }
    if extra:
        record.update(extra)
    return record


def trajectory_from_record(record: Mapping[str, object]) -> DebateTrajectory:
    """Build and validate a trajectory from a parsed record. Raises ValueError."""
    for key in ("question_id", "answer_space", "rounds"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    if not isinstance(record["answer_space"], list):
        raise ValueError("field 'answer_space' must be a list of labels")
    rounds_raw = record["rounds"]
    if not isinstance(rounds_raw, list) or not all(
        isinstance(row, list) for row in rounds_raw
    ):
        raise ValueError("field 'rounds' must be a list of per-round lists")
    traj = DebateTrajectory(
        question_id=str(record["question_id"]),
        answer_space=tuple(str(x) for x in record["answer_space"]),
        rounds=tuple(tuple(str(a) for a in row) for row in rounds_raw),
        ground_truth=(
            None if record.get("ground_truth") is None else str(record["ground_truth"])
        ),
    )
    problems = validate_trajectory(traj)
    if problems:
        raise ValueError("; ".join(problems))
    return traj


def with_fp(path_or_fp: str | IO[str], mode: str, use: Callable[[IO[str]], T]) -> T:
    """Call use on an open text stream: the one given, or the path opened in mode.

    A path is opened as UTF-8 and closed when use returns; a stream is left open.
    """
    if isinstance(path_or_fp, str):
        with open(path_or_fp, mode, encoding="utf-8") as fp:
            return use(fp)
    return use(path_or_fp)


def write_trajectories(
    path_or_fp: str | IO[str],
    trajectories: Iterable[DebateTrajectory],
    extras: Iterable[Mapping[str, object]] | None = None,
) -> None:
    """Write trajectories as one JSON record per line.

    extras, when given, is a parallel iterable of additional per-line fields
    (used by the replay-buffer dump format).
    """

    def _write(fp: IO[str]) -> None:
        if extras is None:
            for traj in trajectories:
                fp.write(json.dumps(trajectory_to_record(traj)) + "\n")
        else:
            for traj, extra in zip(trajectories, extras):
                fp.write(json.dumps(trajectory_to_record(traj, extra)) + "\n")

    with_fp(path_or_fp, "w", _write)


def read_trajectories(path_or_fp: str | IO[str]) -> list[DebateTrajectory]:
    """Read a trajectory .jsonl file, rejecting bad lines with their number.

    Errors name the line, and the file when given a path. Fields beyond the
    trajectory's own (replay score, difficulty) are ignored.
    """
    where = f"{path_or_fp}: " if isinstance(path_or_fp, str) else ""

    def _read(fp: Iterator[str]) -> list[DebateTrajectory]:
        out: list[DebateTrajectory] = []
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}line {lineno}: not valid JSON ({exc.msg})")
            if not isinstance(record, dict):
                raise ValueError(f"{where}line {lineno}: record must be a JSON object")
            try:
                out.append(trajectory_from_record(record))
            except ValueError as exc:
                raise ValueError(f"{where}line {lineno}: {exc}")
        return out

    return with_fp(path_or_fp, "r", _read)
