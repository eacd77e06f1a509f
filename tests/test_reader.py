"""The answer-code reader against the reference reader in reader_oracle.

Valid files must give run_analysis's reports the very columns that the
reference regrouping's outcome records give, in file order; malformed records
must fail with exactly the reference message, file and line.
"""

import dataclasses
import importlib
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

import reader_oracle as oracle
import stats_oracle
from madlab import debate, harness
from madlab.debate import _encode, read_trajectories, trajectory_from_record
from madlab.metrics import profiles_from_codes
from test_golden import write_mixed_analysis_input
from test_harness import analysed_columns, assert_same_columns, tiny_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

GOOD = {"question_id": "q", "answer_space": ["A", "B"], "ground_truth": "A",
        "rounds": [["A", "B"], ["A", "A"]]}


def decoded(path):
    """The trajectories read_trajectories reads from path, in file order."""
    return oracle.trajectories_of(read_trajectories(str(path)))


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("count", [300, 5000])
def test_bench_records_match_the_reference(workloads, count, tmp_path, monkeypatch):
    path = tmp_path / "herding.jsonl"
    workloads.write_analyze_input(str(path), 8, count)
    expected = oracle.analysis_records([str(path)], tiny_config().metric)
    handed, _ = analysed_columns([path], tiny_config(), tmp_path / "reports", monkeypatch)
    assert_same_columns(handed, stats_oracle.record_columns(expected))
    assert decoded(path) == oracle.read_trajectories(str(path))


def test_mixed_records_match_the_reference_in_file_order(tmp_path, monkeypatch):
    first, second = tmp_path / "mixed.jsonl", tmp_path / "mixed-2.jsonl"
    write_mixed_analysis_input(str(first))
    write_mixed_analysis_input(str(second), records=50, seed=7)
    expected = oracle.analysis_records([str(first), str(second)], tiny_config().metric, 3)
    monkeypatch.setattr(harness, "ANALYSIS_CHUNK", 3)
    handed, _ = analysed_columns([first, second], tiny_config(), tmp_path / "reports", monkeypatch)
    assert_same_columns(handed, stats_oracle.record_columns(expected))
    read, trajectories = read_trajectories(str(first)), oracle.read_trajectories(str(first))
    assert len(read.groups) > 1
    assert len(read) == len(trajectories)  # the record count a traced run reports
    assert oracle.trajectories_of(read) == trajectories


def test_groups_are_keyed_by_the_coerced_answer_space(tmp_path):
    path = tmp_path / "t.jsonl"
    free = dict(GOOD, answer_space=["1", "2"], ground_truth=None)
    lines = [dict(GOOD, answer_space=[1, 2], rounds=[[1, 2], ["2", 2]], ground_truth=2),
             dict(free, rounds=[["1", "1"], ["1", "2"]]),
             dict(free, rounds=[["1", "1"], ["1", "2"]], ground_truth="1"),
             dict(free, rounds=[["1", "1"], ["1", "2"], ["2", "2"]])]
    path.write_text("".join(json.dumps(r) + "\n\n" for r in lines), encoding="utf-8")
    groups = read_trajectories(str(path)).groups
    assert [(g.answer_space, g.codes.shape, g.positions) for g in groups] == [
        (("1", "2"), (3, 2, 2), [0, 1, 2]), (("1", "2"), (1, 3, 2), [3])]
    assert groups[0].truth.tolist() == [1, -1, 0]
    assert groups[0].codes[0].tolist() == [[0, 1], [1, 1]]
    assert groups[1].truth.tolist() == [-1]


def test_valid_records_are_encoded_without_the_validation_path(tmp_path, monkeypatch):
    # numeric labels, ids and ground truth are str()-coerced by the encoder
    # itself; trajectory_from_record only writes the error text of a bad record
    path = tmp_path / "mixed.jsonl"
    write_mixed_analysis_input(str(path))
    expected = oracle.read_trajectories(str(path))
    monkeypatch.setattr(debate, "trajectory_from_record", None)
    assert decoded(path) == expected


MALFORMED = {
    "empty space": dict(GOOD, answer_space=[], ground_truth=None),
    "duplicate space": dict(GOOD, answer_space=["A", "B", "A"]),
    "no rounds": dict(GOOD, rounds=[]),
    "one agent": dict(GOOD, rounds=[["A"], ["B"]]),
    "no refinement": dict(GOOD, rounds=[["A", "B"]]),
    "grid gap": dict(GOOD, rounds=[["A", "B"], ["A"]]),
    "ragged long row": dict(GOOD, rounds=[["A", "B"], ["A", "B", "A"]]),
    "label outside": dict(GOOD, rounds=[["A", "Z"], ["A", "A"]]),
    "truth outside": dict(GOOD, ground_truth="Z"),
    "numeric truth": dict(GOOD, ground_truth=1),
    "numeric label": dict(GOOD, rounds=[["A", 0], ["A", "A"]]),
    "bool label": dict(GOOD, answer_space=["1", "2"], ground_truth=None,
                       rounds=[[True, "1"], ["1", "1"]]),
    "unhashable label": dict(GOOD, rounds=[[["A"], "B"], ["A", "A"]]),
    "unhashable truth": dict(GOOD, ground_truth={"A": 1}),
    "every problem at once": dict(GOOD, answer_space=["A", "A"], ground_truth="C",
                                  rounds=[["A"], ["B", "A"]]),
    "string rows": dict(GOOD, rounds=["AB", "BA"]),
    "string first row": dict(GOOD, rounds=["AB", ["A", "B"]]),
    "string later row": dict(GOOD, rounds=[["A", "B"], "AB"]),
    "number rows": dict(GOOD, rounds=[1, 2]),
    "object rows": dict(GOOD, rounds=[{"A": 1, "B": 2}, {"A": 1, "B": 2}]),
    "rounds not a list": dict(GOOD, rounds="AB"),
    "space a string": dict(GOOD, answer_space="AB"),
    "space a number": dict(GOOD, answer_space=5),
    "space null": dict(GOOD, answer_space=None),
    "space an object": dict(GOOD, answer_space={"A": 0, "B": 1}),
    "missing id": {k: v for k, v in GOOD.items() if k != "question_id"},
    "missing space": {k: v for k, v in GOOD.items() if k != "answer_space"},
    "missing rounds": {k: v for k, v in GOOD.items() if k != "rounds"},
    "not an object": ["A", "B"],
}


@pytest.mark.parametrize("record", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_fails_like_the_reference(tmp_path, record):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD) + "\n\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as reference:
        oracle.read_trajectories(str(path))
    assert str(reference.value).startswith(f"{path}: line 3: ")
    with pytest.raises(ValueError) as got:
        read_trajectories(str(path))
    assert str(got.value) == str(reference.value)


def rejected(record):
    """Whether trajectory_from_record rejects a record."""
    try:
        trajectory_from_record(record)
    except ValueError:
        return True
    return False


def random_record(rng):
    """A record of mixed-type id, space, grid and truth, often a valid one."""
    values = ["A", "B", "C", "1", 1, 2, True, 1.0, None, ["A"], {"A": 1}, "AB"]
    spaces = [["A", "B"], ["A", "B", "C"], [1, 2], [1, True], ["A", "A"], [], "AB", None]
    space = spaces[rng.integers(len(spaces))]
    labels = space if isinstance(space, list) and space else ["A", "B"]

    def label():
        return values[rng.integers(len(values))] if rng.random() < 0.02 else labels[rng.integers(len(labels))]

    n, steps = (int(rng.integers(2, 4)) - (rng.random() < 0.1) for _ in range(2))
    record = {"question_id": ["q", 7, True, 1.5, None][rng.integers(5)] if rng.random() < 0.2 else "q",
              "answer_space": space, "ground_truth": label() if rng.random() < 0.8 else None,
              "rounds": [[label() for _ in range(n + (rng.random() < 0.1))] for _ in range(steps)]}
    if rng.random() < 0.1:
        del record[["question_id", "answer_space", "rounds"][rng.integers(3)]]
    return record


def test_encoder_and_validator_reject_the_same_records(tmp_path):
    # read_trajectories asks trajectory_from_record only for the error text of
    # a record _encode rejects, so the two must reject exactly the same records
    path = tmp_path / "mixed.jsonl"
    write_mixed_analysis_input(str(path))
    with open(path, encoding="utf-8") as fp:
        records = [json.loads(line) for line in fp if line.strip()]
    records += [r for r in MALFORMED.values() if isinstance(r, dict)]
    rng = np.random.default_rng(14)
    records += [random_record(rng) for _ in range(3000)]
    spaces: dict = {}
    verdicts = [(_encode(r, spaces) is None, rejected(r)) for r in records]
    assert [r for r, (enc, val) in zip(records, verdicts) if enc != val] == []
    assert 500 < sum(enc for enc, _ in verdicts) < len(records) - 500


def test_space_cache_keeps_true_and_one_apart(tmp_path):
    # [1, true] is the valid space ("1", "True"); [1, 1] has a duplicate label,
    # though the two lists compare equal as JSON values.
    valid = dict(GOOD, answer_space=[1, True], ground_truth=True,
                 rounds=[["1", "True"], ["True", "True"]])
    dup = dict(GOOD, answer_space=[1, 1], ground_truth="1", rounds=[["1", "1"], ["1", "1"]])
    path = tmp_path / "spaces.jsonl"
    path.write_text(json.dumps(valid) + "\n" + json.dumps(dup) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as reference:
        oracle.read_trajectories(str(path))
    assert "line 2: answer_space contains duplicate labels" in str(reference.value)
    with pytest.raises(ValueError) as got:
        read_trajectories(str(path))
    assert str(got.value) == str(reference.value)
    path.write_text(json.dumps(valid) + "\n" + json.dumps(valid) + "\n", encoding="utf-8")
    assert decoded(path) == oracle.read_trajectories(str(path))


NOT_JSON = {
    "trailing data": (json.dumps(GOOD) + " x", "Extra data"),
    "BOM prefix": ("\ufeff" + json.dumps(GOOD), "Unexpected UTF-8 BOM"),
    "truncated": (json.dumps(GOOD)[:-3], "Expecting"),
    "bare bracket": ("]", "Expecting value"),
}


@pytest.mark.parametrize("line, words", NOT_JSON.values(), ids=NOT_JSON.keys())
def test_invalid_json_fails_like_the_reference(tmp_path, line, words):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as reference:
        oracle.read_trajectories(str(path))
    assert str(reference.value).startswith(f"{path}: line 2: not valid JSON ({words}")
    with pytest.raises(ValueError) as got:
        read_trajectories(str(path))
    assert str(got.value) == str(reference.value)


def test_a_non_utf8_byte_names_the_file_and_line(tmp_path):
    # Text mode decodes about 8 KB ahead of the lines it returns, so the bad
    # byte, past 16 KB here, fails a decode before the good lines ahead of it
    # are read; the error still names its line. Lines end in \n and \r\n
    # alike, and a blank line counts, as the reader counts them.
    good = json.dumps(GOOD).encode()
    head = b"".join(good + (b"\r\n" if j % 2 else b"\n") for j in range(300)) + b"\n"
    assert len(head) > 16 * 1024
    path = tmp_path / "bad.jsonl"
    path.write_bytes(head + good.replace(b'"q"', b'"q\xff"') + b"\n" + good + b"\n")
    with pytest.raises(ValueError) as raised:
        read_trajectories(str(path))
    assert str(raised.value) == (f"{path}: line 302: not UTF-8 text (byte 0xff, "
                                 "invalid start byte)")
    # a stream has no file to read again: its decode error stands
    with open(path, encoding="utf-8") as fp, pytest.raises(UnicodeDecodeError):
        read_trajectories(fp)


@pytest.mark.parametrize("k, dtype", [(4, np.uint8), (256, np.uint8), (257, np.int64), (300, np.int64)])
def test_codes_are_bytes_up_to_256_labels(tmp_path, k, dtype):
    space = [f"L{c}" for c in range(k)]
    rows = [[space[0], space[-1]], [space[k // 2], space[-1]], [space[-1], space[-1]]]
    path = tmp_path / "wide.jsonl"
    record = dict(GOOD, answer_space=space, ground_truth=space[-2], rounds=rows)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    [group] = read_trajectories(str(path)).groups
    assert group.codes.dtype == dtype and group.truth.dtype == np.int64
    assert group.codes.tolist() == [[[0, k - 1], [k // 2, k - 1], [k - 1, k - 1]]]
    assert group.truth.tolist() == [k - 2]
    assert decoded(path) == oracle.read_trajectories(str(path))


BENCH_RECORDS = 5000


@pytest.fixture(scope="module")
def bench_input(workloads, tmp_path_factory):
    """5,000 records of the analyze-large input (seed 8)."""
    path = tmp_path_factory.mktemp("bench") / "herding.jsonl"
    workloads.write_analyze_input(str(path), 8, BENCH_RECORDS)
    return str(path)


def test_byte_codes_profile_like_int64_codes(bench_input):
    [group] = read_trajectories(bench_input).groups
    assert group.codes.dtype == np.uint8
    k, config = len(group.answer_space), tiny_config().metric
    narrow = profiles_from_codes(group.codes, k, config)
    wide = profiles_from_codes(group.codes.astype(np.int64), k, config)
    for field in dataclasses.fields(narrow):
        assert np.array_equal(getattr(narrow, field.name), getattr(wide, field.name)), field.name


def test_reading_holds_a_few_hundred_bytes_per_record(bench_input):
    # the records stream into flat typed buffers; no per-record list or
    # tuple of codes lives until the end of the file
    tracemalloc.start()
    try:
        read = read_trajectories(bench_input)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read) == BENCH_RECORDS
    assert peak <= 400 * BENCH_RECORDS, f"{peak / BENCH_RECORDS:.0f} bytes per record"
