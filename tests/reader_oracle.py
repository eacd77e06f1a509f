"""The trajectory reader and analysis regrouping as they stood before the
answer-code reader: a reference for what read_trajectories and run_analysis
must reproduce.

read_trajectories builds every record through trajectory_from_record, and
outcome_records regroups the supervised trajectories by (answer space, T+1,
N), encodes each group with reference_impl.trajectory_codes and holds each
record's readings as a batch of one. trajectories_of decodes the answer-code
reader's groups back into trajectories, to compare the two.
trajectory_record and write_records write hand-made trajectories in the file
format, for inputs no debate batch produces: records without ground truth, or
several answer spaces in one file.
"""

from __future__ import annotations

import json

import numpy as np

from madlab.debate import NO_TRUTH, DebateTrajectory, trajectory_from_record, with_fp
from madlab.metrics import profiles_from_codes
from reference_impl import profile_row, trajectory_codes
from stats_oracle import OutcomeRecord


def read_trajectories(path_or_fp):
    where = f"{path_or_fp}: " if isinstance(path_or_fp, str) else ""

    def _read(fp):
        out = []
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


def trajectory_record(traj):
    """One hand-made trajectory's .jsonl record, in the order the writer lays out its keys."""
    return {"question_id": traj.question_id, "answer_space": list(traj.answer_space),
            "ground_truth": traj.ground_truth, "rounds": [list(row) for row in traj.rounds]}


def write_records(path_or_fp, trajectories):
    """Write hand-made trajectories as one JSON record per line."""
    with_fp(path_or_fp, "w", lambda fp: fp.writelines(
        json.dumps(trajectory_record(traj)) + "\n" for traj in trajectories))


def trajectories_of(read):
    """The trajectories of a debate.TrajectoryFile in file order, decoded from its groups."""
    out = [None] * len(read)
    for g in read.groups:
        space = g.answer_space
        grids = np.array(space, dtype=object)[g.codes].tolist()
        for position, qid, truth, grid in zip(g.positions, g.question_ids, g.truth.tolist(), grids):
            out[position] = DebateTrajectory(
                qid, space, tuple(map(tuple, grid)), None if truth == NO_TRUTH else space[truth]
            )
    return out


def outcome_records(trajectories, metric_config, chunk_size=4096):
    groups = {}
    for j, traj in enumerate(trajectories):
        key = (traj.answer_space, len(traj.rounds), len(traj.rounds[0]))
        groups.setdefault(key, []).append(j)
    records = [None] * len(trajectories)
    for (space, _, _), members in groups.items():
        for start in range(0, len(members), chunk_size):
            chunk = [trajectories[j] for j in members[start : start + chunk_size]]
            profiles = profiles_from_codes(trajectory_codes(chunk), len(space), metric_config)
            for u, (j, traj) in enumerate(zip(members[start:], chunk)):
                correct = space[profiles.winners[u]] == traj.ground_truth
                records[j] = OutcomeRecord(traj.question_id, correct, profile_row(profiles, u))
    return records


def analysis_records(paths, metric_config, chunk_size=4096):
    """The OutcomeRecords the reports are built from, over every file in order."""
    records = []
    for path in paths:
        supervised = [t for t in read_trajectories(path) if t.ground_truth is not None]
        records += outcome_records(supervised, metric_config, chunk_size)
    return records
