"""Trajectory container, the final-round vote, validation, and .jsonl round-trips."""

from __future__ import annotations

import io
import json
import re

import numpy as np
import pytest

from brute_oracle import brute_majority
from madlab.debate import (
    DebateTrajectory,
    read_trajectories,
    trajectory_from_record,
    validate_trajectory,
    write_csv,
    write_trajectories,
)
from madlab.metrics import _votes
from madlab.policy import DebateEnv, EnvConfig, QuestionSet
from reader_oracle import trajectories_of, trajectory_record, write_records
from reference_impl import trajectory_codes

SPACE = ("A", "B", "C")


def make_traj(rounds, ground_truth=None, space=SPACE, qid="q-0"):
    return DebateTrajectory(
        question_id=qid, answer_space=tuple(space), rounds=rounds, ground_truth=ground_truth
    )


def vote(final, space=SPACE):
    """The answer-code kernel's vote on one final round: the counts per label,
    the winning label and which agents' removal changes the winner."""
    codes = trajectory_codes([make_traj((tuple(final), tuple(final)), space=space)])
    counts, winners, pivots = _votes(codes, len(space))
    return counts[0, -1].tolist(), space[int(winners[0])], pivots[0].tolist()


def test_majority_vote_plain_winner():
    counts, winner, pivots = vote(["A", "B", "A"])
    assert winner == "A"
    assert counts == [2, 1, 0]
    assert pivots == [False, False, False]


def test_majority_vote_tie_breaks_order_minimal():
    assert vote(["B", "A"])[1] == "A"
    # order is the declared order, not lexicographic
    assert vote(["B", "A"], ("B", "A"))[1] == "B"


def test_majority_vote_empty_raises():
    with pytest.raises(ValueError, match="N >= 2"):
        _votes(np.zeros((1, 2, 0), dtype=np.int64), 3)


def test_majority_vote_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ballot = [SPACE[rng.integers(0, 3)] for _ in range(n)]
        assert vote(ballot)[1] == brute_majority(ballot, SPACE)


def test_unanimous_vote_is_stable_under_any_order():
    for order in (SPACE, tuple(reversed(SPACE))):
        assert vote(["B", "B", "B"], order)[1] == "B"


def test_leave_one_out_votes_drop_each_agent():
    # without agent 0 B still wins; without agent 1 or 2 the A/B tie goes to A
    assert vote(["A", "B", "B"])[2] == [False, True, True]


def test_leave_one_out_single_agent_raises():
    with pytest.raises(ValueError, match="N >= 2"):
        vote(["A"])


def test_validate_accepts_good_trajectory():
    assert validate_trajectory(make_traj((("A", "B"), ("B", "B")))) == []


def test_validate_reports_gap_with_location():
    traj = DebateTrajectory("q", SPACE, (("A", "B"), ("B",)))
    problems = validate_trajectory(traj)
    assert any("t=1" in p for p in problems)


def test_validate_reports_out_of_space_label():
    traj = DebateTrajectory("q", SPACE, (("A", "Z"), ("B", "B")))
    problems = validate_trajectory(traj)
    assert any("'Z'" in p and "t=0, i=1" in p for p in problems)


def test_validate_rejects_too_few_agents_and_rounds():
    assert any("2 agents" in p for p in validate_trajectory(
        DebateTrajectory("q", SPACE, (("A",), ("B",)))))
    assert any("refinement" in p for p in validate_trajectory(
        DebateTrajectory("q", SPACE, (("A", "B"),))))


def test_validate_rejects_bad_ground_truth_and_dup_space():
    traj = DebateTrajectory("q", ("A", "A"), (("A", "A"), ("A", "A")), "B")
    problems = validate_trajectory(traj)
    assert any("duplicate" in p for p in problems)
    assert any("ground_truth" in p for p in problems)


def test_jsonl_round_trip_preserves_everything():
    rng = np.random.default_rng(3)
    ids = [f"q-{k}" for k in range(20)]
    questions = QuestionSet(SPACE, np.array(ids), np.ones(20, dtype=np.int64), np.full(20, 0.5))
    codes = rng.integers(0, len(SPACE), size=(20, 3, 3))
    buf = io.StringIO()
    write_trajectories(buf, questions, codes, {})
    back = read_trajectories(io.StringIO(buf.getvalue()))
    labels = np.array(SPACE, dtype=object)[codes].tolist()
    assert trajectories_of(back) == [
        make_traj(tuple(map(tuple, grid)), ground_truth="B", qid=qid)
        for qid, grid in zip(ids, labels)
    ]


# The eval-wide benchmark's shape (7 agents, 8 rounds, one compromised seat),
# and K = 12 labels with two max_wrong seats.
ROUND_TRIP_CONFIGS = {
    "eval-wide": EnvConfig(num_agents=7, rounds=8, difficulty_bins=2, compromised_count=1,
                           skills=(0.95, 0.88, 0.81, 0.74, 0.67, 0.6, 0.53)),
    "k12": EnvConfig(num_agents=5, rounds=9, answer_space_size=12, difficulty_bins=3,
                     compromised_count=2, adversarial_target_policy="max_wrong",
                     difficulty="uniform:0.0,1.0"),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CONFIGS))
def test_written_debates_read_back_as_their_codes(name):
    env = DebateEnv(ROUND_TRIP_CONFIGS[name])
    questions = env.generate_questions(64, "rt")
    _, answers = env.rollout_batch(questions, env.batch_tilts(questions), env.initial_policies(),
                                   list(range(64)))
    assert len(np.unique(answers)) > 2
    buf = io.StringIO()
    write_trajectories(buf, questions, answers, {})
    [group] = read_trajectories(io.StringIO(buf.getvalue())).groups
    assert group.answer_space == env.answer_space
    np.testing.assert_array_equal(group.codes, answers)
    np.testing.assert_array_equal(group.truth, questions.truth)
    assert group.question_ids == questions.ids.tolist()
    assert group.positions == list(range(len(questions)))


def test_write_trajectories_of_no_debates_writes_an_empty_file():
    env = DebateEnv(EnvConfig(num_agents=3, rounds=2))
    questions = env.generate_questions(0, "t")
    _, answers = env.rollout_batch(questions, env.batch_tilts(questions), env.initial_policies(),
                                   [])
    buf = io.StringIO()
    write_trajectories(buf, questions, answers, {"difficulty": questions.difficulty})
    assert buf.getvalue() == ""


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stream"])
def test_write_csv_cell_rule(tmp_path, to_path):
    # floats (numpy's too) 6-decimal fixed, None as nan, anything else str()
    rows = [(0.1, np.float64(2.5), -0.0, None), (3, "q-7", f"{1.5e-9:.6e}", float("nan"))]
    expected = "a,b,c,d\n0.100000,2.500000,-0.000000,nan\n3,q-7,1.500000e-09,nan\n"
    if to_path:
        path = tmp_path / "table.csv"
        write_csv(str(path), "a,b,c,d", rows)
        assert path.read_bytes() == expected.encode("utf-8")
    else:
        buf = io.StringIO()
        write_csv(buf, "a,b,c,d", iter(rows))
        assert not buf.closed and buf.getvalue() == expected


def test_jsonl_null_ground_truth_round_trips():
    traj = make_traj((("A", "B"), ("B", "B")))
    buf = io.StringIO()
    write_records(buf, [traj])
    assert '"ground_truth": null' in buf.getvalue()
    assert trajectories_of(read_trajectories(io.StringIO(buf.getvalue())))[0].ground_truth is None


def test_jsonl_parse_error_carries_line_number():
    text = '{"question_id": "q", "answer_space": ["A","B"], "ground_truth": null, "rounds": [["A","B"],["A","A"]]}\nnot json\n'
    with pytest.raises(ValueError, match="line 2"):
        read_trajectories(io.StringIO(text))


def test_jsonl_invalid_record_carries_line_number():
    text = '{"question_id": "q", "answer_space": ["A","B"], "ground_truth": null, "rounds": [["A","Z"],["A","A"]]}\n'
    with pytest.raises(ValueError, match="line 1.*'Z'"):
        read_trajectories(io.StringIO(text))


def test_jsonl_missing_field_rejected():
    with pytest.raises(ValueError, match="rounds"):
        trajectory_from_record({"question_id": "q", "answer_space": ["A", "B"]})


def test_jsonl_extra_fields_survive_in_records():
    question = QuestionSet(SPACE, np.array(["q-0"]), np.zeros(1, dtype=np.int64), np.full(1, 0.5))
    buf = io.StringIO()
    write_trajectories(buf, question, np.array([[[0, 1], [1, 1]]]),
                       {"replay_score": np.full(1, 0.5), "policy_version": np.full(1, 3)})
    record = json.loads(buf.getvalue())
    # the extras follow the trajectory's own fields, in the mapping's order
    assert list(record) == ["question_id", "answer_space", "ground_truth", "rounds",
                            "replay_score", "policy_version"]
    assert record["replay_score"] == 0.5
    assert record["policy_version"] == 3
    assert trajectories_of(read_trajectories(io.StringIO(buf.getvalue()))) == [
        make_traj((("A", "B"), ("B", "B")), ground_truth="A")]


@pytest.mark.parametrize("space", [5, "AB"])
def test_non_list_answer_space_rejected_with_file_and_line(tmp_path, space):
    good = trajectory_record(make_traj((("A", "B"), ("B", "B"))))
    path = str(tmp_path / "t.jsonl")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(good) + "\n" + json.dumps(dict(good, answer_space=space)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: field 'answer_space' must be a list")):
        read_trajectories(path)


@pytest.mark.parametrize("qid", [None, True, 1.5, ["q"], {"q": 1}])
def test_question_id_must_be_a_string_or_an_integer(tmp_path, qid):
    good = trajectory_record(make_traj((("A", "B"), ("B", "B"))))
    path = str(tmp_path / "t.jsonl")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(good) + "\n" + json.dumps(dict(good, question_id=qid)) + "\n")
    message = f"{path}: line 2: field 'question_id' must be a string or an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trajectories(path)


def test_integer_question_id_reads_as_its_digits():
    record = dict(trajectory_record(make_traj((("A", "B"), ("B", "B")))), question_id=7)
    assert trajectories_of(read_trajectories(io.StringIO(json.dumps(record))))[0].question_id == "7"


def test_relabeling_equivariance_of_vote():
    # order-preserving bijection commutes with the vote
    rng = np.random.default_rng(11)
    mapping = {"A": "x1", "B": "x2", "C": "x3"}
    new_space = ("x1", "x2", "x3")
    for _ in range(100):
        ballot = [SPACE[rng.integers(0, 3)] for _ in range(int(rng.integers(2, 6)))]
        mapped = [mapping[a] for a in ballot]
        assert mapping[vote(ballot)[1]] == vote(mapped, new_space)[1]
