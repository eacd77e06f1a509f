"""Debate transcripts and the artifact formats: JSONL trajectories and CSV tables.

In memory a debate is its row of a policy.QuestionSet and a (T+1) x N grid of
answer codes: a code is the label's index in the finite ordered answer space
(answer_index), round 0 holds the initial responses and rounds 1..T the
refinements. Labels appear only in .jsonl trajectory files, which
write_trajectories formats from codes and read_trajectories encodes back.
Every tie anywhere in the package breaks toward the order-minimal label so
that reruns are reproducible. Votes are counted over answer codes, in metrics.

A .jsonl trajectory file is parsed in one place, read_trajectories, and codes
first: each well-formed record is checked and encoded into answer codes in
one walk over its labels, and streams straight into the flat typed buffers
of its (answer space, T+1, N) group, so no per-record object outlives its
line. _encode rejects exactly the records trajectory_from_record rejects,
and a rejected record fails with trajectory_from_record's error, so
validate_trajectory is the one source of error text. The TrajectoryFile it
returns hands analysis those groups as numpy views of the buffers.
DebateTrajectory, a record's label grid, serves that error path and
metrics.full_profile.

Every CSV artifact goes through write_csv, which owns the cell rule: a float
is written 6-decimal fixed, None as nan, any other cell with str().
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:  # policy imports this module
    from madlab.policy import QuestionSet

Label = str
T = TypeVar("T")
NO_TRUTH = -1  # truth code of a record without ground truth


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


def answer_index(space: Sequence[Label]) -> dict[Label, int]:
    """Each label's answer code: its index in the answer space."""
    return {label: code for code, label in enumerate(space)}


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


def trajectory_from_record(record: Mapping[str, object]) -> DebateTrajectory:
    """Build and validate a trajectory from a parsed record. Raises ValueError."""
    for key in ("question_id", "answer_space", "rounds"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    if type(record["question_id"]) not in (str, int):
        raise ValueError("field 'question_id' must be a string or an integer")
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


def undecodable_line(path: str) -> str:
    """"line N: ..." where the file first fails to decode as UTF-8, found in its bytes
    (text mode decodes blocks ahead of its lines) and counting lines as text mode does."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"x").splitlines())
        return f"line {line}: not UTF-8 text (byte {data[exc.start]:#04x}, {exc.reason})"
    return "not UTF-8 text"  # the file changed after the failed read


def write_csv(path_or_fp: str | IO[str], header: str, rows: Iterable[Iterable[object]]) -> None:
    """Write a CSV artifact: the header line, then one comma-joined line per row.

    A float cell is written 6-decimal fixed, None as nan, and any other cell
    with str(), so a cell that needs another format arrives as a string.
    """

    def _write(fp: IO[str]) -> None:
        fp.write(header + "\n")
        for row in rows:  # float first, the common cell; numpy float64 is one
            fp.write(",".join(f"{v:.6f}" if isinstance(v, float) else "nan" if v is None
                              else str(v) for v in row) + "\n")

    with_fp(path_or_fp, "w", _write)


def write_trajectories(
    path_or_fp: str | IO[str],
    questions: QuestionSet,
    answers: np.ndarray,
    extras: Mapping[str, np.ndarray],
) -> None:
    """Write debates as one JSON record per line.

    questions is a policy.QuestionSet and answers[b] question b's (T+1, N)
    grid of answer codes in its answer space; grids and truths become labels
    here, once per call. extras maps each additional per-line field to its
    (B,) column, written after the trajectory's own fields in mapping order:
    the replay-buffer dump's, or the eval artifacts' difficulty.
    """

    def _write(fp: IO[str]) -> None:
        space = list(questions.answer_space)
        grids = np.array(space, dtype=object)[answers]
        columns = [column.tolist() for column in extras.values()]
        for qid, truth, grid, *values in zip(questions.ids.tolist(), questions.truth.tolist(),
                                             grids, *columns):
            record = {"question_id": qid, "answer_space": space,
                      "ground_truth": space[truth], "rounds": grid.tolist()}
            record.update(zip(extras, values))
            fp.write(json.dumps(record) + "\n")

    with_fp(path_or_fp, "w", _write)


@dataclass(frozen=True)
class CodeGroup:
    """A file's records of one (answer space, T+1, N) shape, in file order.

    Record j is record positions[j] of the file (blank lines not counted);
    truth[j] is its ground truth's code or NO_TRUTH; codes[j] its grid's codes.
    truth is int64; codes is uint8 for a space of at most 256 labels, else
    int64. Both wrap the reader's flat buffers without a copy.
    """

    answer_space: tuple[Label, ...]
    positions: list[int]
    question_ids: list[str]
    truth: np.ndarray
    codes: np.ndarray


def _encode(record: dict, spaces: dict) -> tuple | None:
    """(question id, answer space, grid shape, truth code, codes) of a valid
    record, else None. Labels and ground truth are str()-coerced as in
    trajectory_from_record. spaces caches each answer space's label index
    (None if invalid) by its str() labels, so [1, true] and [1, 1] stay apart.
    """
    qid, space_raw, rounds = record.get("question_id"), record.get("answer_space"), record.get("rounds")
    if type(qid) not in (str, int) or type(space_raw) is not list or type(rounds) is not list:
        return None
    space = tuple(map(str, space_raw))
    if space not in spaces:
        index = answer_index(space)
        spaces[space] = index if space and len(index) == len(space) else None
    index = spaces[space]
    n = len(rounds[0]) if len(rounds) >= 2 and type(rounds[0]) is list else 0
    if index is None or n < 2:
        return None
    for row in rounds:
        if type(row) is not list or len(row) != n:  # a string has a length too
            return None
    truth = record.get("ground_truth")
    try:
        try:
            codes = [index[a] for row in rounds for a in row]
        except (KeyError, TypeError):  # a number, bool or list label, or one outside
            codes = [index[str(a)] for row in rounds for a in row]
        truth = NO_TRUTH if truth is None else index[str(truth)]
    except KeyError:
        return None
    return str(qid), space, (len(rounds), n), truth, codes


class TrajectoryFile:
    """A trajectory file's records as answer codes: groups holds one CodeGroup
    per (answer space, T+1, N), and len() is the record count."""

    def __init__(self, groups: list[CodeGroup]) -> None:
        self.groups = groups
        self._count = sum(len(g.positions) for g in groups)

    def __len__(self) -> int:
        return self._count


def read_trajectories(path_or_fp: str | IO[str]) -> TrajectoryFile:
    """Read a trajectory .jsonl file as answer codes, one group per shape.

    Errors name the line, and the file when given a path; a stream that is
    not UTF-8 raises its UnicodeDecodeError. Fields beyond the trajectory's
    own (replay score, difficulty) are ignored.
    """
    where = f"{path_or_fp}: " if isinstance(path_or_fp, str) else ""

    def _read(fp: Iterator[str]) -> TrajectoryFile:
        spaces: dict = {}
        groups: dict[tuple, tuple[list, list, array, array]] = {}
        decode = json.JSONDecoder().raw_decode
        position = 0
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):  # json.loads words the error (a BOM, extra data)
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}line {lineno}: not valid JSON ({exc.msg})")
            if not isinstance(record, dict):
                raise ValueError(f"{where}line {lineno}: record must be a JSON object")
            parsed = _encode(record, spaces)
            if parsed is None:
                try:
                    trajectory_from_record(record)
                except ValueError as exc:
                    raise ValueError(f"{where}line {lineno}: {exc}")
                raise AssertionError(f"{where}line {lineno}: a valid record was not encoded")
            qid, space, shape, truth, codes = parsed
            if (space, shape) not in groups:  # one byte a code while the codes fit in one
                groups[space, shape] = ([], [], array("q"), array("B" if len(space) <= 256 else "q"))
            positions, qids, truths, grids = groups[space, shape]
            positions.append(position)
            qids.append(qid)
            truths.append(truth)
            grids.extend(codes)
            position += 1
        return TrajectoryFile([
            CodeGroup(space, positions, qids, np.frombuffer(truths, np.int64),
                      np.frombuffer(grids, grids.typecode).reshape(-1, *shape))
            for (space, shape), (positions, qids, truths, grids) in groups.items()
        ])

    try:
        return with_fp(path_or_fp, "r", _read)
    except UnicodeDecodeError:
        if not where:
            raise
        raise ValueError(where + undecodable_line(path_or_fp)) from None
