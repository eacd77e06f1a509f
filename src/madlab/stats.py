"""Statistical analyses over per-question debate outcomes.

Failure/success separation (Welch t-test and pooled-SD Cohen's d),
Pearson correlation matrices, selective prediction curves
(retain the lowest-uncertainty k%), and uncertainty stratification.

The reports read columns: the uncertainty metrics' float arrays by report
label (metric_columns), a bool array of correct answers and, for the
selective curve, the question ids. Sums run left to right, through np.cumsum.

The t-distribution CDF is computed here via the regularized incomplete
beta function (Lentz continued fraction, absolute error < 1e-8) so the
package needs no statistics dependency.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from madlab.debate import write_csv
from madlab.metrics import ProfileBatch


def metric_columns(profiles: ProfileBatch) -> dict[str, np.ndarray]:
    """The reported uncertainty columns of a profile batch, by report label."""
    return {"U_intra": profiles.u_intra, "U_inter": profiles.u_inter, "U_sys": profiles.u_sys}


def _sum(values: np.ndarray) -> float:
    """Left-to-right sum of a non-empty array; np.sum pairs its terms."""
    return float(np.cumsum(values)[-1])


_BETA_EPS = 1e-15
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction: both half-steps
    of an iteration share one update of (c, d), floored at _BETA_TINY (NaN passes)."""

    def floored(v: float) -> float:
        return _BETA_TINY if abs(v) < _BETA_TINY else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 / floored(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / floored(1.0 + aa * d)
            c = floored(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("incomplete beta requires positive shape parameters")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_p_value(t: float, df: float) -> float:
    """Two-sided p-value of a t statistic with df degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return min(max(p, 0.0), 1.0)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; rejects unequal lengths and zero-variance input."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 paired samples")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    dx = x - _sum(x) / n
    dy = y - _sum(y) / n
    ss_x = _sum(dx * dx)
    ss_y = _sum(dy * dy)
    if ss_x == 0.0 or ss_y == 0.0:
        raise ValueError("degenerate sample: zero variance")
    r = _sum(dx * dy) / math.sqrt(ss_x * ss_y)
    return min(max(r, -1.0), 1.0)


def _moments(group: Sequence[float]) -> tuple[int, float, float]:
    """(n, mean, sample variance with n-1 denominator) of one of two groups."""
    n = len(group)
    if n < 2:
        raise ValueError("both groups need at least 2 samples")
    group = np.asarray(group, dtype=np.float64)
    mean = _sum(group) / n
    d = group - mean
    return n, mean, _sum(d * d) / (n - 1)


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
class MetricSeparation:
    """Failure-vs-success contrast of one uncertainty metric."""

    metric: str
    mean_fail: float
    mean_success: float
    cohens_d: float
    t_statistic: float
    p_value: float


@dataclass(frozen=True)
class SeparationReport:
    rows: tuple[MetricSeparation, ...]


def separation_report(values: Mapping[str, np.ndarray], correct: np.ndarray) -> SeparationReport:
    """Contrast each uncertainty metric between failed and successful questions."""
    succs = np.asarray(correct, dtype=bool)
    fails = ~succs
    n_fail, n_succ = int(fails.sum()), int(succs.sum())
    if n_fail < 2 or n_succ < 2:
        raise ValueError(
            "no contrast: need at least 2 records in each outcome class, got "
            f"{n_fail} failures / {n_succ} successes"
        )
    rows = []
    for name, column in values.items():
        f_vals, s_vals = column[fails], column[succs]
        t, p = welch_t_test(f_vals, s_vals)
        rows.append(
            MetricSeparation(
                metric=name,
                mean_fail=_sum(f_vals) / n_fail,
                mean_success=_sum(s_vals) / n_succ,
                cohens_d=cohens_d(f_vals, s_vals),
                t_statistic=t,
                p_value=p,
            )
        )
    return SeparationReport(rows=tuple(rows))


def selective_prediction_curve(
    values: np.ndarray,
    correct: np.ndarray,
    question_ids: Sequence[str],
    k_grid: Sequence[float],
) -> list[tuple[float, float, int]]:
    """Accuracy when only the lowest-uncertainty k% of questions are retained.

    Sorts ascending by the metric values (ties break by question id), keeps
    ceil(k*n/100) questions per k, and reports (k, retained accuracy, n kept).
    k = 100 reproduces overall accuracy.
    """
    n = len(values)
    if not n:
        raise ValueError("selective prediction needs at least one record")
    for k in k_grid:
        if not 0.0 < k <= 100.0:
            raise ValueError(f"retention percentage must be in (0, 100], got {k}")
    by_id = np.array(sorted(range(n), key=question_ids.__getitem__), dtype=np.intp)
    ranked = by_id[np.argsort(np.asarray(values)[by_id], kind="stable")]
    hits = np.cumsum(np.asarray(correct, dtype=bool)[ranked]).tolist()
    curve = []
    for k in k_grid:
        kept = math.ceil(k * n / 100.0)
        curve.append((float(k), hits[kept - 1] / kept, kept))
    return curve


@dataclass(frozen=True)
class StrataBin:
    """One uncertainty band: [lo, hi) except the top band, which includes hi."""

    lo: float
    hi: float
    count: int
    accuracy: float | None


def check_strata_boundaries(boundaries: Sequence[float]) -> list[float]:
    """The band boundaries as a list; raises unless strictly increasing in (0, 1)."""
    bounds = list(boundaries)
    if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be strictly increasing and non-empty")
    if bounds[0] <= 0.0 or bounds[-1] >= 1.0:
        raise ValueError("boundaries must lie strictly inside (0, 1)")
    return bounds


def stratify_by_uncertainty(
    values: np.ndarray,
    correct: np.ndarray,
    boundaries: Sequence[float],
) -> list[StrataBin]:
    """Bucket questions into uncertainty bands and report per-band accuracy.

    The boundaries, strictly increasing inside (0, 1), carve [0, 1] into
    bands. Empty bands are kept with count 0 and accuracy None.
    """
    if not len(values):
        raise ValueError("stratification needs at least one record")
    bounds = check_strata_boundaries(boundaries)
    edges = [0.0] + bounds + [1.0]
    band = np.searchsorted(bounds, values, side="right")  # bisect_right per value
    counts = np.bincount(band, minlength=len(edges) - 1).tolist()
    hits = np.bincount(band[np.asarray(correct, dtype=bool)], minlength=len(edges) - 1).tolist()
    return [
        StrataBin(
            lo=edges[i],
            hi=edges[i + 1],
            count=counts[i],
            accuracy=(hits[i] / counts[i]) if counts[i] else None,
        )
        for i in range(len(counts))
    ]


def correlation_matrix(
    values: Mapping[str, np.ndarray], correct: np.ndarray
) -> tuple[tuple[str, ...], list[list[float]]]:
    """Symmetric Pearson matrix over the metric columns plus correctness."""
    labels = tuple(values) + ("accuracy",)
    series = list(values.values()) + [np.asarray(correct, dtype=np.float64)]
    size = len(series)
    matrix = [[1.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            r = pearson_r(series[i], series[j])
            matrix[i][j] = r
            matrix[j][i] = r
    return labels, matrix


SEPARATION_CSV_HEADER = "metric,mean_fail,mean_success,cohens_d,t_statistic,p_value"
SELECTIVE_CSV_HEADER = "k_percent,accuracy,n_retained"
STRATA_CSV_HEADER = "bin_lo,bin_hi,count,accuracy"


def write_separation_csv(path_or_fp: str | IO[str], report: SeparationReport) -> None:
    write_csv(path_or_fp, SEPARATION_CSV_HEADER,
              ((r.metric, r.mean_fail, r.mean_success, r.cohens_d, r.t_statistic,
                f"{r.p_value:.6e}") for r in report.rows))


def write_correlation_csv(
    path_or_fp: str | IO[str],
    labels: Sequence[str],
    matrix: Sequence[Sequence[float]],
) -> None:
    write_csv(path_or_fp, "metric," + ",".join(labels),
              ([label, *row] for label, row in zip(labels, matrix)))


def write_selective_csv(
    path_or_fp: str | IO[str], curve: Sequence[tuple[float, float, int]]
) -> None:
    write_csv(path_or_fp, SELECTIVE_CSV_HEADER, curve)


def write_strata_csv(path_or_fp: str | IO[str], strata: Sequence[StrataBin]) -> None:
    write_csv(path_or_fp, STRATA_CSV_HEADER, map(astuple, strata))
