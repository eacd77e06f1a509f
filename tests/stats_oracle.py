"""The statistics reports as they stood before the columnar reports: a
reference for what the array versions in madlab.stats must reproduce.

Each report walks per-question OutcomeRecords and reads every value through
OutcomeRecord.metric, summing with Python's sum; summary_from_records is the
record form of harness.SummaryRow.from_columns. The result types, the band
checks and the t distribution are shared with madlab.stats, which did not
change them. pearson_test, a correlation's significance, has no report in
madlab.stats; it stays here to check student_t_p_value on frozen values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from madlab.harness import SummaryRow
from madlab.metrics import ProfileBatch
from madlab.stats import (
    MetricSeparation,
    SeparationReport,
    StrataBin,
    check_strata_boundaries,
    student_t_p_value,
)

METRIC_FIELDS = {
    "U_intra": "u_intra",
    "U_inter": "u_inter",
    "U_sys": "u_sys",
}


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; rejects unequal lengths and zero-variance input."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 paired samples")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    ss_x = sum(v * v for v in dx)
    ss_y = sum(v * v for v in dy)
    if ss_x == 0.0 or ss_y == 0.0:
        raise ValueError("degenerate sample: zero variance")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    return min(max(r, -1.0), 1.0)


def pearson_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """(r, t, two-sided p) under the no-correlation null with n-2 df."""
    r = pearson_r(x, y)
    n = len(x)
    if n < 3:
        raise ValueError("significance needs at least 3 paired samples")
    if 1.0 - r * r <= 0.0:
        return r, math.copysign(math.inf, r), 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, t, student_t_p_value(t, n - 2)


def _moments(group: Sequence[float]) -> tuple[int, float, float]:
    """(n, mean, sample variance with n-1 denominator) of one of two groups."""
    n = len(group)
    if n < 2:
        raise ValueError("both groups need at least 2 samples")
    mean = sum(group) / n
    return n, mean, sum((v - mean) ** 2 for v in group) / (n - 1)


def cohens_d(group_a: Sequence[float], group_b: Sequence[float]) -> float:
    """(mean_a - mean_b) / pooled SD, sample variances with n-1 denominators."""
    (n_a, mean_a, var_a), (n_b, mean_b, var_b) = _moments(group_a), _moments(group_b)
    pooled = math.sqrt(((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2))
    if pooled == 0.0:
        raise ValueError("degenerate groups: pooled standard deviation is zero")
    return (mean_a - mean_b) / pooled


def welch_t_test(
    group_a: Sequence[float], group_b: Sequence[float]
) -> tuple[float, float]:
    """Welch unequal-variance t-test; returns (t, two-sided p)."""
    (n_a, mean_a, var_a), (n_b, mean_b, var_b) = _moments(group_a), _moments(group_b)
    se_a, se_b = var_a / n_a, var_b / n_b
    se2 = se_a + se_b
    if se2 == 0.0:
        raise ValueError("degenerate variance in both groups")
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2 * se2 / (
        (se_a * se_a) / (n_a - 1) + (se_b * se_b) / (n_b - 1)
    )
    return t, student_t_p_value(t, df)


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-question evaluation outcome: correctness plus the question's
    readings, a ProfileBatch of one."""

    question_id: str
    correct: bool
    profile: ProfileBatch

    def metric(self, name: str) -> float:
        try:
            return getattr(self.profile, METRIC_FIELDS[name]).item()
        except KeyError:
            raise ValueError(
                f"unknown metric {name!r}; expected one of {sorted(METRIC_FIELDS)}"
            )


def separation_report(records: Sequence[OutcomeRecord]) -> SeparationReport:
    """Contrast each uncertainty metric between failed and successful questions."""
    fails = [r for r in records if not r.correct]
    succs = [r for r in records if r.correct]
    if len(fails) < 2 or len(succs) < 2:
        raise ValueError(
            "no contrast: need at least 2 records in each outcome class, got "
            f"{len(fails)} failures / {len(succs)} successes"
        )
    rows = []
    for name in METRIC_FIELDS:
        f_vals = [r.metric(name) for r in fails]
        s_vals = [r.metric(name) for r in succs]
        t, p = welch_t_test(f_vals, s_vals)
        rows.append(
            MetricSeparation(
                metric=name,
                mean_fail=sum(f_vals) / len(f_vals),
                mean_success=sum(s_vals) / len(s_vals),
                cohens_d=cohens_d(f_vals, s_vals),
                t_statistic=t,
                p_value=p,
            )
        )
    return SeparationReport(rows=tuple(rows))


def selective_prediction_curve(
    records: Sequence[OutcomeRecord],
    k_grid: Sequence[float],
    metric: str = "U_sys",
) -> list[tuple[float, float, int]]:
    """Accuracy when only the lowest-uncertainty k% of questions are retained.

    Sorts ascending by the chosen metric (ties break by question_id), keeps
    ceil(k*n/100) records per k, and reports (k, retained accuracy, n kept).
    k = 100 reproduces overall accuracy.
    """
    if not records:
        raise ValueError("selective prediction needs at least one record")
    for k in k_grid:
        if not 0.0 < k <= 100.0:
            raise ValueError(f"retention percentage must be in (0, 100], got {k}")
    ranked = sorted(records, key=lambda r: (r.metric(metric), r.question_id))
    n = len(ranked)
    curve = []
    for k in k_grid:
        kept = ranked[: math.ceil(k * n / 100.0)]
        accuracy = sum(r.correct for r in kept) / len(kept)
        curve.append((float(k), accuracy, len(kept)))
    return curve


def stratify_by_uncertainty(
    records: Sequence[OutcomeRecord],
    metric: str = "U_sys",
    boundaries: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
) -> list[StrataBin]:
    """Bucket records into uncertainty bands and report per-band accuracy.

    Default boundaries carve [0, 1] into five bands. Empty bands are kept
    with count 0 and accuracy None.
    """
    if not records:
        raise ValueError("stratification needs at least one record")
    bounds = check_strata_boundaries(boundaries)
    edges = [0.0] + bounds + [1.0]
    counts = [0] * (len(edges) - 1)
    correct = [0] * (len(edges) - 1)
    for r in records:
        idx = bisect_right(bounds, r.metric(metric))
        counts[idx] += 1
        correct[idx] += int(r.correct)
    return [
        StrataBin(
            lo=edges[i],
            hi=edges[i + 1],
            count=counts[i],
            accuracy=(correct[i] / counts[i]) if counts[i] else None,
        )
        for i in range(len(counts))
    ]


def correlation_matrix(
    records: Sequence[OutcomeRecord],
) -> tuple[tuple[str, ...], list[list[float]]]:
    """Symmetric Pearson matrix over the three metrics plus correctness."""
    labels = tuple(METRIC_FIELDS) + ("accuracy",)
    series = [[r.metric(name) for r in records] for name in METRIC_FIELDS]
    series.append([float(r.correct) for r in records])
    size = len(series)
    matrix = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            r = pearson_r(series[i], series[j])
            matrix[i][j] = r
            matrix[j][i] = r
    return labels, matrix


def summary_from_records(label: str, records: Sequence[OutcomeRecord]) -> SummaryRow:
    """Accuracy and mean uncertainty levels over per-question outcomes."""
    return SummaryRow(
        label=label,
        questions=len(records),
        accuracy=float(np.mean([r.correct for r in records])),
        mean_u_intra=float(np.mean([r.metric("U_intra") for r in records])),
        mean_u_inter=float(np.mean([r.metric("U_inter") for r in records])),
        mean_u_sys=float(np.mean([r.metric("U_sys") for r in records])),
    )


def record_columns(records: Sequence[OutcomeRecord]):
    """(values, correct, question ids): the columns the array reports read."""
    values = {name: np.array([r.metric(name) for r in records]) for name in METRIC_FIELDS}
    correct = np.array([r.correct for r in records], dtype=bool)
    return values, correct, [r.question_id for r in records]
