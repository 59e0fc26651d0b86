"""Regression models over per-target features.

Explains the compound-minus-name valence shift (delta) from target features:
univariate and multivariate ordinary least squares with the usual inference
(coefficient t-tests, R-squared, F-test), plus an elastic-net model

    (1/2n) * ||y - X b||^2 + lambda * (alpha * ||b||_1 + (1-alpha)/2 * ||b||^2)

fitted by cyclic coordinate descent on the Gram form of each training set,
with alpha and lambda tuned by random search under repeated k-fold
cross-validation whose fits all run as one lockstep batch.

Factors are one-hot encoded against a reference category, the
lexicographically smallest observed level. Rows with a missing response or
missing predictor values are dropped listwise and reported.
"""

from __future__ import annotations

import logging
import math
from array import array
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .csvio import read_csv
from .errors import ConvergenceError, RankDeficiencyError, ValidationError, check_settings
from .stats import fisher_f_sf, student_t_sf

# each function that computes with numpy imports it in its own body, so the
# stages that fit no model start without loading numpy
if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

NUMERIC_FIELDS = frozenset({"delta", "name_valence", "pnc_valence",
                            "modifier_valence", "age"})
FACTOR_FIELDS = frozenset({"gender", "domain", "nationality", "birthplace",
                           "party", "frame"})

INTERCEPT = "(Intercept)"

DEFAULT_UNIVARIATE_PREDICTORS = (
    "name_valence", "pnc_valence", "modifier_valence", "age", "gender",
    "domain", "nationality", "birthplace", "party", "frame")

# multivariate models reported by default: blocks of person-level, compound-
# level and domain-level features, then full models leaving out the valence
# covariates that nearly determine the response
DEFAULT_MODEL_SPECS = (
    ("personal", "delta ~ age + gender"),
    ("personal_extended", "delta ~ age + gender + nationality + birthplace"),
    ("compound", "delta ~ modifier_valence + frame"),
    ("compound_extended", "delta ~ modifier_valence + frame + pnc_valence"),
    ("domain", "delta ~ domain + party"),
    ("all_except_name_valence",
     "delta ~ pnc_valence + modifier_valence + age + gender + domain"
     " + nationality + birthplace + party + frame"),
    ("all_except_pnc_valence",
     "delta ~ name_valence + modifier_valence + age + gender + domain"
     " + nationality + birthplace + party + frame"),
    ("all_except_both_valences",
     "delta ~ modifier_valence + age + gender + domain + nationality"
     " + birthplace + party + frame"),
)


def significance_stars(p: float | None) -> str:
    if p is None:
        return ""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


class FeatureRow(NamedTuple):
    """Per-target feature values; None marks a missing value."""

    target_id: str
    values: Mapping[str, float | str | None]


def parse_formula(formula: str) -> tuple[str, tuple[str, ...]]:
    """Split "response ~ term + term + ..." into (response, terms).

    The response must be a numeric field and each term a known field; a bare
    "1" stands for the always-present intercept and adds no term.
    """
    if formula.count("~") != 1:
        raise ValidationError(f"formula must contain exactly one '~': {formula!r}")
    left, right = formula.split("~")
    response = left.strip()
    if response not in NUMERIC_FIELDS:
        raise ValidationError(f"response {response!r} is not a numeric field")
    terms: list[str] = []
    for raw in right.split("+"):
        term = raw.strip()
        if not term or term == "1":
            continue
        if term not in NUMERIC_FIELDS and term not in FACTOR_FIELDS:
            raise ValidationError(f"unknown term {term!r} in formula {formula!r}")
        if term == response:
            raise ValidationError(f"response {response!r} cannot appear as a term")
        if term in terms:
            raise ValidationError(f"duplicate term {term!r} in formula {formula!r}")
        terms.append(term)
    return response, tuple(terms)


class DesignMatrix(NamedTuple):
    """Encoded regression problem.

    columns[0] is the intercept. reference_levels maps each factor term to
    its dropped reference category; dropped_factors lists terms removed for
    having a single observed level; excluded_ids lists rows removed by
    listwise deletion.
    """

    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    row_ids: tuple[str, ...]
    reference_levels: Mapping[str, str]
    dropped_factors: tuple[str, ...]
    excluded_ids: tuple[str, ...]


def _as_float(value, field: str, row_id: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"row {row_id!r}: non-numeric value {value!r} for field {field!r}") from exc
    if not math.isfinite(out):
        raise ValidationError(f"row {row_id!r}: non-finite value for field {field!r}")
    return out


def encode_features(rows: Sequence[FeatureRow], formula: str) -> DesignMatrix:
    """Build the design matrix for a formula over per-target feature rows."""
    import numpy as np

    response, terms = parse_formula(formula)

    def missing(row: FeatureRow, fld: str) -> bool:
        v = row.values.get(fld)
        return v is None or v == ""

    kept: list[FeatureRow] = []
    excluded: list[str] = []
    for row in rows:
        if missing(row, response) or any(missing(row, t) for t in terms):
            excluded.append(row.target_id)
        else:
            kept.append(row)
    if excluded:
        logger.info("listwise deletion dropped %d row(s): %s",
                    len(excluded), ", ".join(excluded))
    if not kept:
        raise ValidationError(f"no complete rows left for formula {formula!r}")

    reference_levels: dict[str, str] = {}
    dropped_factors: list[str] = []
    columns: list[str] = [INTERCEPT]
    column_values: list[list[float]] = [[1.0] * len(kept)]

    for term in terms:
        if term in NUMERIC_FIELDS:
            columns.append(term)
            column_values.append(
                [_as_float(r.values[term], term, r.target_id) for r in kept])
            continue
        levels = sorted({str(r.values[term]) for r in kept})
        if len(levels) < 2:
            logger.warning("factor %r has a single observed level %r; dropped",
                           term, levels[0])
            dropped_factors.append(term)
            continue
        reference_levels[term] = levels[0]
        for level in levels[1:]:
            columns.append(f"{term}={level}")
            column_values.append(
                [1.0 if str(r.values[term]) == level else 0.0 for r in kept])

    x = np.array(column_values, dtype=float).T
    y = np.array([_as_float(r.values[response], response, r.target_id) for r in kept])
    return DesignMatrix(
        columns=tuple(columns), x=x, y=y,
        row_ids=tuple(r.target_id for r in kept),
        reference_levels=reference_levels,
        dropped_factors=tuple(dropped_factors),
        excluded_ids=tuple(excluded))


def _check_problem(x: np.ndarray, y: np.ndarray, columns: Sequence[str],
                   ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """x, y and columns as float arrays and a tuple, once x is checked to be
    a finite matrix with a row per value of finite y and a name per column."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    columns = tuple(columns)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValidationError(f"incompatible shapes x{x.shape} y{y.shape}")
    if len(columns) != x.shape[1]:
        raise ValidationError(f"{x.shape[1]} columns in x but {len(columns)} names")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("predictors and response must be finite")
    return x, y, columns


class OlsFit(NamedTuple):
    """Ordinary least squares fit with standard inference.

    p-values, adj_r_squared (unless the model is the intercept alone) and
    residual_se are None when residual degrees of freedom run out. For a
    model with only the intercept, r_squared is 0 and the F-test is undefined.
    """

    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: tuple[float | None, ...]
    n: int
    df_model: int
    df_resid: int
    r_squared: float
    adj_r_squared: float | None
    residual_se: float | None
    f_statistic: float | None
    f_p_value: float | None
    residuals: np.ndarray
    fitted: np.ndarray


def ols_fit(x: np.ndarray, y: np.ndarray, columns: Sequence[str]) -> OlsFit:
    """Least-squares fit of y on x (x must already carry its intercept
    column if one is wanted), solved via QR decomposition.

    A column whose R diagonal is negligible against the column's own largest
    entry is linearly dependent on the columns before it; such columns raise
    RankDeficiencyError naming them. The test does not depend on how the
    columns are scaled against each other.
    """
    import numpy as np

    x, y, columns = _check_problem(x, y, columns)
    n, p = x.shape
    if n < p:
        raise ValidationError(f"need at least {p} rows for {p} columns, got {n}")

    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    tol = max(n, p) * np.finfo(float).eps * np.abs(x).max(axis=0, initial=0.0)
    bad = [columns[j] for j in range(p) if diag[j] <= tol[j]]
    if bad:
        raise RankDeficiencyError(bad)

    beta = np.linalg.solve(r, q.T @ y)
    fitted = x @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    df_resid = n - p
    has_intercept = bool(columns) and columns[0] == INTERCEPT
    df_model = p - 1 if has_intercept else p

    if df_resid > 0:
        sigma2 = rss / df_resid
        residual_se = math.sqrt(sigma2)
        r_inv = np.linalg.solve(r, np.eye(p))
        cov = sigma2 * (r_inv @ r_inv.T)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        t_list = [
            b / s if s > 0 else (math.inf if b > 0 else (-math.inf if b < 0 else 0.0))
            for b, s in zip(beta, se)
        ]
        t_vals = np.array(t_list)
        # student_t_sf already carries both tails of the t distribution
        p_vals: tuple[float | None, ...] = tuple(
            student_t_sf(abs(t), df_resid) for t in t_list)
    else:
        residual_se = None
        se = np.full(p, np.nan)
        t_vals = np.full(p, np.nan)
        p_vals = tuple(None for _ in range(p))

    y_bar = float(y.mean())
    tss = float(((y - y_bar) ** 2).sum()) if has_intercept else float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    r2 = min(max(r2, 0.0), 1.0)

    if df_model >= 1 and df_resid > 0:
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid
        if r2 < 1.0:
            f_stat = (r2 / df_model) / ((1.0 - r2) / df_resid)
        else:
            f_stat = float("inf")
        f_p = fisher_f_sf(f_stat, df_model, df_resid)
    else:
        adj_r2 = r2 if df_model == 0 else None
        f_stat = None
        f_p = None

    return OlsFit(
        columns=columns, coefficients=beta, standard_errors=se, t_values=t_vals,
        p_values=p_vals, n=n, df_model=df_model, df_resid=df_resid,
        r_squared=r2, adj_r_squared=adj_r2, residual_se=residual_se,
        f_statistic=f_stat, f_p_value=f_p, residuals=resid, fitted=fitted)


class UnivariateResult(NamedTuple):
    """One row of the single-predictor scan: numeric predictors yield one
    row (level is empty), factors one row per non-reference level sharing
    the model's fit. The row's slope is fit's coefficient at column."""

    predictor: str
    level: str
    column: int
    stars: str
    fit: OlsFit


def univariate_scan(rows: Sequence[FeatureRow], predictors: Sequence[str],
                    ) -> tuple[list[UnivariateResult], list[str]]:
    """Fit delta ~ predictor separately for each predictor. Predictors
    that cannot be fitted (all values missing, single-level factor, rank
    deficiency) are skipped with a note."""
    results: list[UnivariateResult] = []
    notes: list[str] = []
    for predictor in predictors:
        formula = f"delta ~ {predictor}"
        try:
            design = encode_features(rows, formula)
            if len(design.columns) < 2:
                raise ValidationError(
                    f"predictor {predictor!r} contributes no column")
            fit = ols_fit(design.x, design.y, design.columns)
        except ValidationError as exc:
            notes.append(f"{predictor}: skipped ({exc})")
            continue
        stars = significance_stars(fit.f_p_value)
        for j, column in enumerate(design.columns[1:], start=1):
            level = column.split("=", 1)[1] if "=" in column else ""
            results.append(UnivariateResult(
                predictor=predictor, level=level, column=j, stars=stars, fit=fit))
    return results, notes


class MultivariateResult(NamedTuple):
    """One named model's fit; its fit statistics are those of fit."""

    model: str
    formula: str
    stars: str
    fit: OlsFit
    design: DesignMatrix


def multivariate_suite(rows: Sequence[FeatureRow], specs: Sequence[tuple[str, str]],
                       ) -> tuple[list[MultivariateResult], list[str]]:
    """Fit a list of named model formulas; models that cannot be fitted on
    the available rows are skipped with a note."""
    results: list[MultivariateResult] = []
    notes: list[str] = []
    for name, formula in specs:
        try:
            design = encode_features(rows, formula)
            fit = ols_fit(design.x, design.y, design.columns)
        except ValidationError as exc:
            notes.append(f"{name}: skipped ({exc})")
            continue
        results.append(MultivariateResult(
            model=name, formula=formula, stars=significance_stars(fit.f_p_value),
            fit=fit, design=design))
    return results, notes


# ---------------------------------------------------------------------------
# elastic net

# a fit stops after the first sweep in which every coefficient moves by less
# than STEP_TOL, and fails after MAX_SWEEPS sweeps
STEP_TOL = 1e-7
MAX_SWEEPS = 100_000


def _constant_columns(x: np.ndarray) -> np.ndarray:
    """Columns whose values are all equal. Decided from the values: the mean
    of equal floats is often not exactly that float, so a centred constant
    column need not come out zero."""
    return x.min(axis=0) == x.max(axis=0)


def standardize_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and scale it to unit standard deviation.

    Constant columns become exactly zero and their scale is recorded as 0;
    downstream their coefficient stays at zero. Returns (standardized x,
    means, stds).
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    means = x.mean(axis=0)
    constant = _constant_columns(x)
    stds = np.where(constant, 0.0, x.std(axis=0))
    xs = (x - means) / np.where(stds > 0, stds, 1.0)
    xs[:, constant] = 0.0
    return xs, means, stds


def elastic_net_objective(x: np.ndarray, y: np.ndarray, beta: np.ndarray,
                          lam: float, alpha: float) -> float:
    import numpy as np

    n = x.shape[0]
    resid = y - x @ beta
    loss = float(resid @ resid) / (2 * n)
    penalty = lam * (alpha * float(np.abs(beta).sum())
                     + 0.5 * (1 - alpha) * float(beta @ beta))
    return loss + penalty


class ElasticNetFit(NamedTuple):
    """Elastic-net solution on the given predictor scale. The intercept is
    unpenalized and recovered from the column means."""

    columns: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    lam: float
    alpha: float
    n_sweeps: int
    objective: float
    objective_trace: tuple[float, ...]


class _Centred(NamedTuple):
    """One training set, centred, with its Gram form over m rows:
    gram = xcᵀxc/m, cov = xcᵀyc/m and yy = ycᵀyc/m. Constant columns are
    exactly zero in xc, so their rows of gram and cov are too."""

    x_mean: np.ndarray
    y_mean: float
    xc: np.ndarray
    yc: np.ndarray
    gram: np.ndarray
    cov: np.ndarray
    yy: float


def _centre(x: np.ndarray, y: np.ndarray) -> _Centred:
    m = x.shape[0]
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    xc[:, _constant_columns(x)] = 0.0
    yc = y - y_mean
    return _Centred(x_mean=x_mean, y_mean=y_mean, xc=xc, yc=yc,
                    gram=xc.T @ xc / m, cov=xc.T @ yc / m,
                    yy=float(yc @ yc) / m)


def _objectives(cov: np.ndarray, grad: np.ndarray, yy: np.ndarray,
                beta: np.ndarray, lam: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """elastic_net_objective of each row, from the Gram form: the loss
    yy/2 - covᵀβ + βᵀ gram β/2 is yy/2 - βᵀ(cov + grad)/2, because
    gram β = cov - grad. Sums run along each row only."""
    import numpy as np

    loss = 0.5 * yy - 0.5 * (beta * (cov + grad)).sum(axis=1)
    return loss + lam * (alpha * np.abs(beta).sum(axis=1)
                         + 0.5 * (1 - alpha) * (beta * beta).sum(axis=1))


def _descend(sets: Sequence[_Centred], fold: np.ndarray, lam: np.ndarray,
             alpha: np.ndarray, *, max_sweeps: int, tol: float,
             ) -> tuple[np.ndarray, list[array]]:
    """Cyclic coordinate descent on many elastic-net problems in lockstep.

    Row r fits the training set sets[fold[r]] at penalty lam[r] and mix
    alpha[r]. Each row keeps its coefficients beta and its gradient
    grad = cov - gram beta. A coordinate step is the closed-form
    soft-threshold update of every running row at once, followed by an O(p)
    update of grad: the covariance updates of Friedman, Hastie & Tibshirani
    (JSS 2010, section 2.2). After each sweep a row's objective must not have
    increased; a row stops once its largest step in the sweep is below tol.
    A row does the same arithmetic whatever else is in the batch.

    Returns the coefficients, one row per problem, and each row's objective
    before its first sweep and after each one. A row that increases its
    objective or still runs after max_sweeps raises ConvergenceError
    carrying its trace.
    """
    import numpy as np

    gram = np.stack([s.gram for s in sets])
    gram_cols = [np.ascontiguousarray(gram[:, :, j]) for j in range(gram.shape[1])]
    cov = np.stack([s.cov for s in sets])[fold]
    yy = np.array([s.yy for s in sets])[fold]
    curv = np.diagonal(gram, axis1=1, axis2=2)[fold]
    thresh = lam * alpha
    # a constant column has no curvature; dividing by inf keeps it at zero
    denom = np.where(curv > 0, curv + (lam * (1.0 - alpha))[:, None], np.inf)
    beta = np.zeros(cov.shape)
    grad = cov.copy()
    rows = np.arange(len(fold))
    row_fold = fold
    done_beta = np.zeros(cov.shape)
    prev = _objectives(cov, grad, yy, beta, lam, alpha)
    # 8 bytes a row and sweep: a failing search keeps every row's trace
    # until the last sweep
    traces = [array("d", [value]) for value in prev.tolist()]

    for sweep in range(1, max_sweeps + 1):
        start = beta.copy()
        for j in range(cov.shape[1]):
            old = beta[:, j]
            rho = grad[:, j] + curv[:, j] * old
            new = (rho - np.minimum(np.maximum(rho, -thresh), thresh)) / denom[:, j]
            change = old - new
            beta[:, j] = new
            grad += np.take(gram_cols[j], row_fold, axis=0) * change[:, None]

        obj = _objectives(cov, grad, yy, beta, lam, alpha)
        for r, value in zip(rows.tolist(), obj.tolist()):
            traces[r].append(value)
        for k in np.flatnonzero(obj > prev + 1e-12 * np.maximum(1.0, np.abs(prev))):
            # the Gram form cancels digits near convergence; judge this
            # sweep again from the residuals before calling it an increase
            data = sets[row_fold[k]]
            before, after = (float(elastic_net_objective(
                data.xc, data.yc, b[k], lam[k], alpha[k])) for b in (start, beta))
            trace = traces[rows[k]]
            trace[-2], trace[-1] = before, after
            obj[k] = after
            if after > before + 1e-12 * max(1.0, abs(before)):
                raise ConvergenceError(
                    f"objective increased from {before!r} to {after!r} in sweep {sweep}",
                    trace=trace)

        step = np.abs(beta - start).max(axis=1, initial=0.0)
        running = step >= tol
        if not running.all():
            done_beta[rows[~running]] = beta[~running]
            if not running.any():
                return done_beta, traces
            (rows, row_fold, beta, grad, cov, yy, curv, denom, thresh, lam, alpha,
             step, obj) = (a[running] for a in (
                 rows, row_fold, beta, grad, cov, yy, curv, denom, thresh, lam, alpha,
                 step, obj))
        prev = obj

    raise ConvergenceError(
        f"no convergence after {max_sweeps} sweeps (last step {step[0]:.3g})",
        trace=traces[rows[0]])


def elastic_net_fit(x: np.ndarray, y: np.ndarray, lam: float, alpha: float, *,
                    columns: Sequence[str]) -> ElasticNetFit:
    """Cyclic coordinate descent on the elastic-net objective.

    x holds predictors only (no intercept column); predictors and response
    are centered internally, so the intercept comes out as
    mean(y) - mean(x) . beta. Each coordinate update is the closed-form
    soft-threshold step; the objective is checked to be non-increasing after
    every sweep, and failure to reach STEP_TOL within MAX_SWEEPS raises
    ConvergenceError carrying the objective trace. The fit is a batch of one
    for the solver cv_random_search runs on all its folds at once.
    """
    import numpy as np

    x, y, columns = _check_problem(x, y, columns)
    # each check is written so that NaN fails it
    if not 0.0 <= lam < math.inf:
        raise ValidationError(f"lambda must be finite and >= 0, got {lam!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("alpha must lie in [0, 1]")
    if x.shape[0] < 1:
        raise ValidationError("need at least one row")

    data = _centre(x, y)
    beta, (trace,) = _descend(
        [data], np.zeros(1, dtype=int), np.array([lam], dtype=float),
        np.array([alpha], dtype=float), max_sweeps=MAX_SWEEPS, tol=STEP_TOL)
    intercept = data.y_mean - float(data.x_mean @ beta[0])
    return ElasticNetFit(columns=columns, coefficients=beta[0], intercept=intercept,
                         lam=lam, alpha=alpha, n_sweeps=len(trace) - 1,
                         objective=trace[-1], objective_trace=tuple(trace))


# lambda_max divides by max(alpha, ALPHA_FLOOR), keeping the bound finite at
# the pure-ridge end
ALPHA_FLOOR = 1e-3


def lambda_max(x: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Smallest penalty that zeroes every coefficient at the given alpha."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    if x.shape[1] == 0:
        raise ValidationError("need at least one predictor")
    top = float(np.abs(xc.T @ yc).max())
    return top / (n * max(alpha, ALPHA_FLOOR))


class CvCandidate(NamedTuple):
    index: int
    alpha: float
    lam: float
    mean_error: float


class CvSearchResult(NamedTuple):
    """Random-search outcome: the tried candidates in draw order, the winner
    (lowest mean validation error, earliest draw on ties), and the winning
    model refitted on all rows. Predictors are standardized once up front;
    coefficients are on that standardized scale."""

    candidates: tuple[CvCandidate, ...]
    best: CvCandidate
    fit: ElasticNetFit
    n_repeats: int
    n_folds: int
    column_means: np.ndarray
    column_stds: np.ndarray
    train_r_squared: float


# the default and the least value of each count of a CV search
CV_DEFAULTS = {"n_candidates": 25, "n_repeats": 5, "n_folds": 5}
_CV_MINIMA = {"n_candidates": 1, "n_repeats": 1, "n_folds": 2}


def check_cv_settings(**settings) -> dict[str, int]:
    """The given counts of a cv_random_search over CV_DEFAULTS; a setting that
    is unknown, no integer or out of range is rejected, naming it."""
    check_settings(settings, dict.fromkeys(_CV_MINIMA, int))
    for name, least in _CV_MINIMA.items():
        if name in settings and settings[name] < least:
            raise ValidationError(f"{name} must be >= {least}, got {settings[name]!r}")
    return CV_DEFAULTS | settings


def cv_random_search(x: np.ndarray, y: np.ndarray, *, columns: Sequence[str], seed: int,
                     n_candidates: int, n_repeats: int, n_folds: int) -> CvSearchResult:
    """Tune (alpha, lambda) by random search under repeated k-fold CV.

    Draw order is fixed by the seed: first the candidate list (alpha uniform
    on [0, 1], lambda log-uniform on [1e-4 * lambda_max(alpha),
    lambda_max(alpha)]), then one row permutation per repeat; each
    permutation is split into n_folds nearly equal folds. Each training fold
    is centred once, and the fits of every candidate on every fold run as
    one batch. Mean squared validation errors are averaged over all repeats
    and folds; candidates are scored in draw order.
    """
    import numpy as np

    check_cv_settings(n_candidates=n_candidates, n_repeats=n_repeats, n_folds=n_folds)
    x, y, columns = _check_problem(x, y, columns)
    n = x.shape[0]
    if n < n_folds:
        raise ValidationError(f"{n_folds}-fold CV needs at least {n_folds} rows, got {n}")

    x_std, means, stds = standardize_columns(x)

    rng = np.random.default_rng(seed)
    draws: list[tuple[float, float]] = []
    for _ in range(n_candidates):
        alpha = float(rng.uniform(0.0, 1.0))
        lam_hi = lambda_max(x_std, y, alpha)
        if lam_hi <= 0:
            raise ValidationError("predictors carry no signal; lambda range is empty")
        lam = float(math.exp(rng.uniform(math.log(lam_hi * 1e-4), math.log(lam_hi))))
        draws.append((alpha, lam))
    permutations = [rng.permutation(n) for _ in range(n_repeats)]

    sets: list[_Centred] = []
    val_folds: list[np.ndarray] = []
    for perm in permutations:
        parts = np.array_split(perm, n_folds)
        for k in range(n_folds):
            train_idx = np.concatenate([parts[i] for i in range(n_folds) if i != k])
            sets.append(_centre(x_std[train_idx], y[train_idx]))
            val_folds.append(parts[k])

    # row i * len(sets) + f fits candidate i on training set f
    alphas, lams = (np.repeat(v, len(sets)) for v in zip(*draws))
    beta, _ = _descend(sets, np.tile(np.arange(len(sets)), n_candidates),
                          lams, alphas, max_sweeps=MAX_SWEEPS, tol=STEP_TOL)
    errors = np.empty((n_candidates, len(sets)))
    for f, (data, val_idx) in enumerate(zip(sets, val_folds)):
        coef = beta[f::len(sets)]
        pred = (data.y_mean - coef @ data.x_mean)[:, None] + coef @ x_std[val_idx].T
        err = y[val_idx] - pred
        errors[:, f] = (err * err).mean(axis=1)
    mean_errors = errors.mean(axis=1).tolist()

    candidates = tuple(
        CvCandidate(index=i, alpha=a, lam=l, mean_error=e)
        for i, ((a, l), e) in enumerate(zip(draws, mean_errors)))
    best = min(candidates, key=lambda c: (c.mean_error, c.index))
    fit = elastic_net_fit(x_std, y, best.lam, best.alpha, columns=columns)

    resid = y - (fit.intercept + x_std @ fit.coefficients)
    tss = float(((y - y.mean()) ** 2).sum())
    train_r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0

    return CvSearchResult(candidates=candidates, best=best, fit=fit,
                          n_repeats=n_repeats, n_folds=n_folds,
                          column_means=means, column_stds=stds,
                          train_r_squared=train_r2)


# ---------------------------------------------------------------------------
# feature assembly

METADATA_FIELDS = ("target_id", "age", "gender", "nationality", "birthplace",
                   "party", "frame")

# the largest |age| accepted: n * age**2, the scale of the least-squares and
# standardisation sums, stays finite for fewer than 1e8 rows
AGE_LIMIT = 1e150


def read_metadata_csv(path: str) -> dict[str, dict[str, float | str | None]]:
    """Load per-target metadata. Empty cells become None; age is a number
    no larger than AGE_LIMIT in magnitude, so NaN and infinities are
    rejected too."""
    seen: set[str] = set()

    def parse(row) -> tuple[str, dict[str, float | str | None]]:
        target_id = (row["target_id"] or "").strip()
        if not target_id:
            raise ValueError("empty target_id")
        if target_id in seen:
            raise ValueError(f"duplicate target_id {target_id!r}")
        seen.add(target_id)
        fields: dict[str, float | str | None] = {}
        for key in METADATA_FIELDS[1:]:
            raw = (row.get(key) or "").strip()
            if not raw:
                fields[key] = None
            elif key == "age":
                try:
                    age = float(raw)
                except ValueError:
                    raise ValueError(f"non-numeric age {raw!r}") from None
                if not abs(age) <= AGE_LIMIT:
                    raise ValueError(f"age {raw!r} is not a number within ±{AGE_LIMIT:g}")
                fields[key] = age
            else:
                fields[key] = raw
        return target_id, fields

    return dict(read_csv(path, METADATA_FIELDS, parse))


def assemble_rows(deltas, metadata: Mapping[str, Mapping[str, float | str | None]],
                  targets) -> list[FeatureRow]:
    """Join lexicon-based delta records with per-target metadata into feature
    rows. The domain comes from targets, which list every delta's target;
    metadata supplies the person-level fields. Targets without metadata get
    None there and fall to listwise deletion when such a field is used."""
    domain_by_id = {t.target_id: t.domain for t in targets}
    rows: list[FeatureRow] = []
    for d in deltas:
        meta = metadata.get(d.target_id, {})
        values: dict[str, float | str | None] = {
            "delta": d.delta,
            "name_valence": d.name_valence,
            "pnc_valence": d.pnc_valence,
            "modifier_valence": d.modifier_valence,
            "domain": domain_by_id[d.target_id],
        }
        for key in METADATA_FIELDS[1:]:
            values[key] = meta.get(key)
        rows.append(FeatureRow(target_id=d.target_id, values=values))
    return rows
