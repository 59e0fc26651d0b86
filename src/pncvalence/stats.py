"""Correlation and significance statistics shared by the scoring and regression layers.

Pearson and Spearman coefficients are computed from first principles with
compensated summation; p-values come from the two-sided Student t survival
function, which is the F survival function with one numerator degree of
freedom, evaluated through the regularized incomplete beta function. That
function is computed here, by its continued fraction, so the package needs
no special-function library.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import ConvergenceError, UndefinedCorrelationError, ValidationError


class CorrelationResult(NamedTuple):
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
    # P(F >= f) = I_x(a, b) = 1 - I_y(b, a), with y = 1 - x formed from f:
    # 1.0 - x would lose the digits of a small y
    a, b = 0.5 * df2, 0.5 * df1
    x = df2 / (df2 + df1 * f)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, df1 * f / (df2 + df1 * f))
    return _betainc(a, b, x)


_EPS = 2.0 ** -52
_TINY = 1e-300  # stands in for a zero denominator in the Lentz recurrences
_MAX_TERMS = 10_000


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and
    x <= (a + 1) / (a + b + 2), where its continued fraction converges fast;
    above that bound, use I_x(a, b) = 1 - I_{1-x}(b, a).

    The continued fraction of Press et al., Numerical Recipes (3rd ed.,
    section 6.4), evaluated by the modified Lentz method (Lentz, Appl. Opt.
    1976). The prefactor x^a (1-x)^b / (a B(a, b)) is formed in log space,
    so a deep tail keeps its digits until it underflows. Raises
    ConvergenceError if _MAX_TERMS pairs of terms do not converge.
    """
    if x <= 0.0:
        return 0.0

    def nonzero(v: float) -> float:
        return v if abs(v) > _TINY else _TINY

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_TERMS + 1):
        # the even term, then the odd term, of the fraction
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + term * d)
            c = nonzero(1.0 + term / c)
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                         + a * math.log(x) + b * math.log1p(-x))
            return math.exp(log_front) * h / a
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge (a={a!r}, b={b!r}, x={x!r})")
