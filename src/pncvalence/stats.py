"""Correlation and significance statistics shared by the scoring and regression layers.

Pearson and Spearman coefficients are computed from first principles with
compensated summation; p-values come from the two-sided Student t survival
function, which is the F survival function with one numerator degree of
freedom, evaluated through the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UndefinedCorrelationError, ValidationError


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation coefficient with sample size and significance.

    Attributes
    ----------
    coefficient : float
        Sample coefficient in [-1, 1].
    n : int
        Number of paired observations.
    method : str
        "pearson" or "spearman".
    p_value : float or None
        Two-sided p-value from the t approximation, computed when read;
        None when n < 3, where the test statistic has no degrees of freedom.
    """

    coefficient: float
    n: int
    method: str

    @property
    def p_value(self) -> float | None:
        if self.n < 3:
            return None
        r = self.coefficient
        denom = 1.0 - r * r
        if denom <= 0.0:
            return 0.0
        return student_t_sf(abs(r) * math.sqrt((self.n - 2) / denom), self.n - 2)


def _check_pair(x: Sequence[float], y: Sequence[float]) -> tuple[list[float], list[float]]:
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValidationError(f"vectors differ in length: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValidationError("correlation needs at least 2 paired observations")
    return xs, ys


def _pearson_core(xs: list[float], ys: list[float], method: str) -> CorrelationResult:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    syy = math.fsum((v - my) ** 2 for v in ys)
    if sxx == 0.0 or syy == 0.0:
        what = "ranks" if method == "spearman" else "values"
        raise UndefinedCorrelationError(f"zero variance in {what}; correlation undefined")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    # guard against |r| exceeding 1 by an ulp of rounding noise
    r = max(-1.0, min(1.0, r))
    return CorrelationResult(coefficient=r, n=n, method=method)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided t-test p-value.

    Raises
    ------
    ValidationError
        If the vectors differ in length or hold fewer than 2 items.
    UndefinedCorrelationError
        If either vector has zero variance.
    """
    xs, ys = _check_pair(x, y)
    return _pearson_core(xs, ys, "pearson")


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties resolved to the group mean rank (mid-ranks)."""
    vals = [float(v) for v in values]
    order = sorted(range(len(vals)), key=vals.__getitem__)
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Tie-corrected Spearman rank correlation: Pearson over mid-ranks.

    An input whose values are all tied leaves the ranks constant, so the
    coefficient is undefined and UndefinedCorrelationError is raised.
    """
    xs, ys = _check_pair(x, y)
    return _pearson_core(average_ranks(xs), average_ranks(ys), "spearman")


def student_t_sf(t: float, df: int) -> float:
    """Two-sided survival probability P(|T| >= t) for Student's t.

    T squared follows F(1, df), so this is fisher_f_sf(t * t, 1, df).

    Parameters
    ----------
    t : float
        Observed statistic; only |t| matters.
    df : int
        Degrees of freedom, at least 1.
    """
    t = float(t)
    return fisher_f_sf(t * t, 1, df)


def fisher_f_sf(f: float, df1: int, df2: int) -> float:
    """Survival probability P(F >= f) for the F distribution.

    Used for the overall-significance test of a regression fit, and with
    df1 = 1 for the t tests.
    """
    if int(df1) != df1 or df1 < 1 or int(df2) != df2 or df2 < 1:
        raise ValidationError(f"degrees of freedom must be positive integers, got ({df1!r}, {df2!r})")
    f = float(f)
    if math.isnan(f):
        raise ValidationError("F statistic is NaN")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    from scipy import special  # imported on first use: stages without p-values skip it

    x = df2 / (df2 + df1 * f)
    return float(special.betainc(0.5 * df2, 0.5 * df1, x))
