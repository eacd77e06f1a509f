"""Statistics layer against frozen high-precision oracle values, and the
columnar reports against the record-based ones in stats_oracle.

The expected constants were computed beforehand with an arbitrary-precision
library (30 significant digits, rounded to double) independently of this
implementation.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

import stats_oracle as oracle
from madlab.config import DEFAULT_STRATA_BINS
from madlab.harness import SummaryRow
from madlab.metrics import MetricConfig, profiles_from_codes
from madlab.stats import (
    SELECTIVE_CSV_HEADER,
    SEPARATION_CSV_HEADER,
    STRATA_CSV_HEADER,
    SeparationReport,
    cohens_d,
    correlation_matrix,
    metric_columns,
    pearson_r,
    regularized_incomplete_beta,
    selective_prediction_curve,
    separation_report,
    stratify_by_uncertainty,
    student_t_p_value,
    welch_t_test,
    write_correlation_csv,
    write_selective_csv,
    write_separation_csv,
    write_strata_csv,
)
from reference_impl import profile_row


def make_record(qid, correct, ui=0.0, ue=0.0, us=0.0):
    """One question's outcome: (question id, correct, metric values by report label)."""
    return qid, correct, {"U_intra": ui, "U_inter": ue, "U_sys": us}


def columns(records):
    """(values, correct, question ids) of make_record outcomes, as the reports read them."""
    values = {name: np.array([r[2][name] for r in records], dtype=np.float64)
              for name in ("U_intra", "U_inter", "U_sys")}
    return values, np.array([r[1] for r in records], dtype=bool), [r[0] for r in records]


def separation(records):
    values, correct, _ = columns(records)
    return separation_report(values, correct)


def correlation(records):
    values, correct, _ = columns(records)
    return correlation_matrix(values, correct)


def selective(records, k_grid):
    values, correct, ids = columns(records)
    return selective_prediction_curve(values["U_sys"], correct, ids, k_grid)


def stratify(records, boundaries=DEFAULT_STRATA_BINS):
    values, correct, _ = columns(records)
    return stratify_by_uncertainty(values["U_sys"], correct, boundaries)


# --- incomplete beta / t CDF ------------------------------------------------


def test_incomplete_beta_endpoints_and_uniform_case():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for x in (0.1, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_incomplete_beta_reflection_symmetry():
    for a, b in ((0.5, 2.0), (3.0, 1.5), (4.0, 4.0)):
        for x in (0.05, 0.3, 0.5, 0.7, 0.95):
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-12)


def test_incomplete_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_t_p_value_frozen_spots():
    assert student_t_p_value(1.5, 3) == pytest.approx(0.23058386524482305, abs=1e-12)
    assert student_t_p_value(-2.0, 6) == pytest.approx(0.09242631153167513, abs=1e-12)
    assert student_t_p_value(0.5, 1) == pytest.approx(0.7048327646991335, abs=1e-12)
    assert student_t_p_value(4.2, 17.3) == pytest.approx(
        0.0005813404571487155, abs=1e-12
    )


def test_t_p_value_edges():
    assert student_t_p_value(0.0, 5) == 1.0
    assert student_t_p_value(math.inf, 5) == 0.0
    with pytest.raises(ValueError):
        student_t_p_value(1.0, 0.0)


# --- pearson ---------------------------------------------------------------


def test_pearson_perfect_correlations():
    assert pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_frozen_value():
    assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(
        0.9819805060619657, abs=1e-12
    )


def test_pearson_test_frozen_values():
    x = list(range(1, 9))
    y = [8.2, 6.9, 6.1, 5.4, 4.0, 3.3, 2.1, 1.5]
    r, t, p = oracle.pearson_test(x, y)
    assert r == pytest.approx(-0.9971241572662433, abs=1e-12)
    assert t == pytest.approx(-32.228475625575674, abs=1e-9)
    assert p == pytest.approx(5.9333260369744306e-8, rel=1e-9)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20).tolist()
    y = rng.normal(size=20).tolist()
    base = pearson_r(x, y)
    shifted = pearson_r([3.0 * v + 5.0 for v in x], y)
    assert shifted == pytest.approx(base, abs=1e-12)
    negated = pearson_r([-2.0 * v for v in x], y)
    assert negated == pytest.approx(-base, abs=1e-12)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson_r([1], [1])
    with pytest.raises(ValueError, match="degenerate"):
        pearson_r([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        oracle.pearson_test([1, 2], [2, 1])


def test_pearson_test_perfect_line_gives_zero_p():
    r, t, p = oracle.pearson_test([1, 2, 3], [2, 4, 6])
    assert r == 1.0
    assert math.isinf(t)
    assert p == 0.0


# --- cohen's d ---------------------------------------------------------------


def test_cohens_d_identical_groups_is_zero():
    assert cohens_d([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_cohens_d_frozen_value():
    d = cohens_d([0, 1], [2, 3])
    assert d == pytest.approx(-2.8284271247461901, abs=1e-12)
    assert abs(d) == pytest.approx(2.8284, abs=1e-4)


def test_cohens_d_antisymmetry_and_shift_invariance():
    a = [0.1, 0.4, 0.3]
    b = [0.9, 0.7, 1.1, 0.8]
    assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), abs=1e-12)
    shifted = cohens_d([v + 10 for v in a], [v + 10 for v in b])
    assert shifted == pytest.approx(cohens_d(a, b), abs=1e-12)
    scaled = cohens_d([3 * v for v in a], [3 * v for v in b])
    assert scaled == pytest.approx(cohens_d(a, b), abs=1e-12)


def test_cohens_d_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cohens_d([1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="pooled"):
        cohens_d([1.0, 1.0], [2.0, 2.0])


# --- welch -------------------------------------------------------------------


def test_welch_identical_groups():
    t, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == 1.0


def test_welch_frozen_values():
    t, p = welch_t_test([0, 0, 0, 1], [1, 1, 1, 0])
    assert t == pytest.approx(-1.4142135623730951, abs=1e-12)
    assert p == pytest.approx(0.20703125, abs=1e-12)
    t, p = welch_t_test([1.1, 2.3, 3.1, 4.8], [2.0, 2.1, 3.9])
    assert t == pytest.approx(0.15966386554621849, abs=1e-12)
    assert p == pytest.approx(0.8793992259793666, abs=1e-12)


def test_welch_symmetry():
    a = [0.2, 0.5, 0.9, 0.4]
    b = [1.1, 1.3, 0.8]
    t_ab, p_ab = welch_t_test(a, b)
    t_ba, p_ba = welch_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_welch_separated_groups_significant():
    rng = np.random.default_rng(11)
    a = (rng.uniform(-0.01, 0.01, 10)).tolist()
    b = (1.0 + rng.uniform(-0.01, 0.01, 10)).tolist()
    _, p = welch_t_test(a, b)
    assert p < 0.001


def test_welch_one_sided_degeneracy_is_fine_both_is_error():
    t, p = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.5, 3.0])
    assert t < 0 and 0.0 <= p <= 1.0
    with pytest.raises(ValueError, match="degenerate"):
        welch_t_test([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])


# --- separation report --------------------------------------------------------


def test_separation_report_directions_and_errors():
    records = [
        make_record("q0", False, ui=0.8, ue=0.7, us=0.9),
        make_record("q1", False, ui=0.7, ue=0.8, us=0.8),
        make_record("q2", False, ui=0.9, ue=0.6, us=0.7),
        make_record("q3", True, ui=0.1, ue=0.2, us=0.1),
        make_record("q4", True, ui=0.2, ue=0.1, us=0.2),
        make_record("q5", True, ui=0.3, ue=0.3, us=0.05),
    ]
    report = separation(records)
    assert {row.metric for row in report.rows} == {"U_intra", "U_inter", "U_sys"}
    for row in report.rows:
        assert row.mean_fail > row.mean_success
        assert row.cohens_d > 0.8
        assert 0.0 <= row.p_value <= 1.0
    sys_row = next(row for row in report.rows if row.metric == "U_sys")
    assert sys_row.mean_fail == pytest.approx((0.9 + 0.8 + 0.7) / 3, abs=1e-12)


def test_separation_report_requires_both_classes():
    records = [make_record(f"q{i}", True, us=i / 10) for i in range(5)]
    with pytest.raises(ValueError, match="no contrast"):
        separation(records)


# --- selective prediction ------------------------------------------------------


def test_selective_curve_k100_is_overall_accuracy():
    records = [make_record(f"q{i}", i % 3 == 0, us=i / 10) for i in range(10)]
    curve = selective(records, [100.0])
    k, acc, n = curve[0]
    assert (k, n) == (100.0, 10)
    assert acc == pytest.approx(sum(r[1] for r in records) / 10, abs=1e-12)


def test_selective_curve_low_uncertainty_correct_construction():
    records = [make_record(f"g{i}", True, us=0.1) for i in range(5)]
    records += [make_record(f"x{i}", False, us=0.9) for i in range(5)]
    curve = selective(records, [10, 50, 100])
    assert curve[0] == (10.0, 1.0, 1)
    assert curve[1] == (50.0, 1.0, 5)
    assert curve[2][1] == pytest.approx(0.5, abs=1e-12)


def test_selective_curve_retention_counts_use_ceiling():
    records = [make_record(f"q{i}", True, us=i / 10) for i in range(7)]
    curve = selective(records, [30, 43, 100])
    assert [n for _, _, n in curve] == [3, 4, 7]  # ceil(0.30*7)=3, ceil(0.43*7)=4


def test_selective_curve_ties_break_by_question_id():
    records = [
        make_record("b", False, us=0.5),
        make_record("a", True, us=0.5),
    ]
    curve = selective(records, [50.0])
    assert curve[0] == (50.0, 1.0, 1)  # "a" sorts first and is correct


def test_selective_curve_input_validation():
    with pytest.raises(ValueError):
        selective([], [50.0])
    with pytest.raises(ValueError):
        selective([make_record("q", True)], [0.0])
    with pytest.raises(ValueError):
        selective([make_record("q", True)], [101.0])


# --- stratification -------------------------------------------------------------


def test_stratify_all_zero_lands_in_first_bin():
    records = [make_record(f"q{i}", True, us=0.0) for i in range(4)]
    strata = stratify(records)
    assert [b.count for b in strata] == [4, 0, 0, 0, 0]
    assert strata[0].accuracy == 1.0
    assert all(b.accuracy is None for b in strata[1:])


def test_stratify_uniform_spread_fills_all_bins():
    records = [make_record(f"q{i}", i % 2 == 0, us=u) for i, u in
               enumerate([0.1, 0.3, 0.5, 0.7, 0.9])]
    strata = stratify(records)
    assert [b.count for b in strata] == [1, 1, 1, 1, 1]
    assert [(b.lo, b.hi) for b in strata] == [
        (0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)
    ]


def test_stratify_boundary_values_go_up_and_one_is_kept():
    records = [
        make_record("q0", True, us=0.2),   # exactly on a boundary -> bin 2
        make_record("q1", False, us=1.0),  # top of range -> last bin
    ]
    strata = stratify(records)
    assert strata[1].count == 1
    assert strata[4].count == 1


def test_stratify_validation():
    with pytest.raises(ValueError):
        stratify([])
    rec = [make_record("q", True, us=0.5)]
    with pytest.raises(ValueError):
        stratify(rec, boundaries=())
    with pytest.raises(ValueError):
        stratify(rec, boundaries=(0.4, 0.2))
    with pytest.raises(ValueError):
        stratify(rec, boundaries=(0.0, 0.5))


# --- correlation matrix -----------------------------------------------------------


def test_correlation_matrix_shape_and_symmetry():
    rng = np.random.default_rng(3)
    records = []
    for i in range(30):
        u = float(rng.uniform(0, 1))
        records.append(
            make_record(
                f"q{i}",
                bool(rng.uniform() > u),  # higher uncertainty -> more failures
                ui=u,
                ue=float(rng.uniform(0, 1)),
                us=u * 0.8 + 0.1,
            )
        )
    labels, matrix = correlation(records)
    assert labels == ("U_intra", "U_inter", "U_sys", "accuracy")
    for i in range(4):
        assert matrix[i][i] == 1.0
        for j in range(4):
            assert matrix[i][j] == matrix[j][i]
    # U_intra and U_sys are affinely linked in this construction
    assert matrix[0][2] == pytest.approx(1.0, abs=1e-12)


def test_correlation_matrix_degenerate_column_raises():
    records = [make_record(f"q{i}", True, ui=i / 10, ue=i / 10, us=i / 10)
               for i in range(5)]
    with pytest.raises(ValueError, match="degenerate"):
        correlation(records)  # accuracy column is constant


# --- CSV writers --------------------------------------------------------------------


def test_csv_writers_emit_declared_headers():
    records = [
        make_record("q0", False, ui=0.8, ue=0.7, us=0.9),
        make_record("q1", False, ui=0.7, ue=0.8, us=0.8),
        make_record("q2", True, ui=0.1, ue=0.2, us=0.1),
        make_record("q3", True, ui=0.2, ue=0.1, us=0.2),
    ]
    buf = io.StringIO()
    write_separation_csv(buf, separation(records))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == SEPARATION_CSV_HEADER
    assert len(lines) == 4

    buf = io.StringIO()
    rng = np.random.default_rng(5)
    noisy = [
        make_record(
            f"q{i}",
            bool(rng.uniform() > 0.5),
            ui=float(rng.uniform()),
            ue=float(rng.uniform()),
            us=float(rng.uniform()),
        )
        for i in range(12)
    ]
    labels, matrix = correlation(noisy)
    write_correlation_csv(buf, labels, matrix)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "metric,U_intra,U_inter,U_sys,accuracy"
    assert len(lines) == 5

    buf = io.StringIO()
    write_selective_csv(buf, selective(records, [50, 100]))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == SELECTIVE_CSV_HEADER
    assert len(lines) == 3

    buf = io.StringIO()
    write_strata_csv(buf, stratify(records))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == STRATA_CSV_HEADER
    assert len(lines) == 6
    assert lines[3].endswith(",0,nan")  # empty middle bin


# --- columnar reports against the record-based oracle --------------------------------


K_GRID = (5.0, 10.0, 33.3, 50.0, 66.7, 90.0, 100.0)
BINS = (0.2, 0.4, 0.6, 0.8)


def csv_text(writer, *args):
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


def run_reports(separation_of, correlation_of, selective_of, strata_of):
    """Each report's result, its CSV text and the warnings, with the
    separation and correlation reports degraded as run_analysis degrades them."""
    results, texts, warnings = [], [], []
    try:
        report = separation_of()
    except ValueError as exc:
        warnings.append(f"separation report skipped: {exc}")
        report = SeparationReport(rows=())
    results.append(report)
    texts.append(csv_text(write_separation_csv, report))
    try:
        labels, matrix = correlation_of()
        results.append((labels, matrix))
        texts.append(csv_text(write_correlation_csv, labels, matrix))
    except ValueError as exc:
        warnings.append(f"correlation matrix skipped: {exc}")
    for name in ("U_sys", "U_intra", "U_inter"):
        curve, strata = selective_of(name), strata_of(name)
        results += [curve, strata]
        texts += [csv_text(write_selective_csv, curve), csv_text(write_strata_csv, strata)]
    return results, texts, warnings


def outcome_case(rng, case):
    """Random outcomes of one kind: (question ids, correct, ProfileBatch)."""
    n = int(rng.integers(1, 7)) if case == "tiny" else int(rng.integers(20, 300))
    if case == "ties":  # two or three agents, one refinement round: few distinct U values
        agents, steps, k = int(rng.integers(2, 4)), 2, 2
    else:
        agents, steps, k = int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    codes = rng.integers(0, k, size=(n, steps, agents))
    if case == "zero-variance":
        codes[:] = codes[0]
    profiles = profiles_from_codes(codes, k, MetricConfig(lambda_mix=float(rng.uniform())))
    correct = profiles.winners == rng.integers(0, k, size=n)
    if case == "single-class":
        correct[:] = bool(rng.integers(2))
    # ids drawn from a small pool: they repeat and come in no particular order
    ids = [f"q{int(j)}" for j in rng.integers(0, max(1, n // 3), size=n)]
    return ids, correct, profiles


# What each degenerate case must make run_analysis warn, somewhere in its draws.
CASES = {
    "ties": (),
    "wide": (),
    "single-class": ("no contrast",),
    "zero-variance": ("degenerate variance in both groups", "degenerate sample: zero variance"),
    "tiny": ("no contrast", "need at least 2 paired samples"),
}


@pytest.mark.parametrize("case", CASES)
def test_columnar_reports_write_what_the_record_reports_write(case):
    rng = np.random.default_rng(list(CASES).index(case))
    warned = []
    for _ in range(25):
        ids, correct, profiles = outcome_case(rng, case)
        records = [oracle.OutcomeRecord(qid, ok, profile_row(profiles, j))
                   for j, (qid, ok) in enumerate(zip(ids, correct.tolist()))]
        values = metric_columns(profiles)
        expected = run_reports(
            lambda: oracle.separation_report(records),
            lambda: oracle.correlation_matrix(records),
            lambda name: oracle.selective_prediction_curve(records, K_GRID, metric=name),
            lambda name: oracle.stratify_by_uncertainty(records, metric=name, boundaries=BINS),
        )
        got = run_reports(
            lambda: separation_report(values, correct),
            lambda: correlation_matrix(values, correct),
            lambda name: selective_prediction_curve(values[name], correct, ids, K_GRID),
            lambda name: stratify_by_uncertainty(values[name], correct, boundaries=BINS),
        )
        assert got == expected
        assert SummaryRow.from_columns("s", correct, values) == oracle.summary_from_records(
            "s", records)
        warned += got[2]
    for text in CASES[case]:
        assert any(text in w for w in warned), text
