import math
import random
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from pncvalence.corpus import TargetSpec
from pncvalence.errors import (ConvergenceError, ParseError,
                               RankDeficiencyError, ValidationError)
from pncvalence.regression import (AGE_LIMIT, CV_DEFAULTS, DEFAULT_MODEL_SPECS,
                                   DEFAULT_UNIVARIATE_PREDICTORS, INTERCEPT,
                                   MAX_SWEEPS, STEP_TOL, FeatureRow, _centre,
                                   _descend, assemble_rows, check_cv_settings,
                                   cv_random_search,
                                   elastic_net_fit, elastic_net_objective,
                                   encode_features, lambda_max,
                                   multivariate_suite, ols_fit, parse_formula,
                                   read_metadata_csv, significance_stars,
                                   standardize_columns, univariate_scan)
from pncvalence.valence import DeltaRecord


def synth_rows(n=24, seed=0, missing_party=True):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        age = rng.uniform(30, 70)
        gender = rng.choice(["female", "male"])
        pnc_v = rng.uniform(2, 8)
        delta = (0.8 * pnc_v - 0.05 * age - 2
                 + (0.5 if gender == "male" else 0.0) + rng.gauss(0, 0.3))
        rows.append(FeatureRow(target_id=f"t{i:02d}", values={
            "delta": delta, "name_valence": pnc_v - delta,
            "pnc_valence": pnc_v, "modifier_valence": rng.uniform(0, 10),
            "age": age, "gender": gender,
            "domain": rng.choice(["politics", "sports"]),
            "nationality": "germany", "birthplace": "berlin",
            "party": None if missing_party else "x",
            "frame": rng.choice(["praise", "mock"])}))
    return rows


class TestParseFormula:
    def test_basic(self):
        assert parse_formula("delta ~ age + gender") == ("delta", ("age", "gender"))

    def test_intercept_token_ignored(self):
        assert parse_formula("delta ~ 1") == ("delta", ())
        assert parse_formula("delta ~ 1 + age") == ("delta", ("age",))

    def test_errors(self):
        with pytest.raises(ValidationError, match="exactly one"):
            parse_formula("delta + age")
        with pytest.raises(ValidationError, match="exactly one"):
            parse_formula("delta ~ age ~ gender")
        with pytest.raises(ValidationError, match="not a numeric field"):
            parse_formula("gender ~ age")
        with pytest.raises(ValidationError, match="unknown term"):
            parse_formula("delta ~ shoe_size")
        with pytest.raises(ValidationError, match="cannot appear"):
            parse_formula("delta ~ delta")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_formula("delta ~ age + age")


class TestEncodeFeatures:
    def test_numeric_design(self):
        rows = synth_rows(10)
        design = encode_features(rows, "delta ~ age + pnc_valence")
        assert design.columns == (INTERCEPT, "age", "pnc_valence")
        assert design.x.shape == (10, 3)
        assert np.all(design.x[:, 0] == 1.0)
        assert design.x[3, 1] == pytest.approx(rows[3].values["age"])
        assert design.y[3] == pytest.approx(rows[3].values["delta"])
        assert design.row_ids == tuple(f"t{i:02d}" for i in range(10))

    def test_factor_one_hot_drops_smallest_level(self):
        rows = synth_rows(30)
        design = encode_features(rows, "delta ~ gender")
        assert design.columns == (INTERCEPT, "gender=male")
        assert design.reference_levels == {"gender": "female"}
        male = [r.values["gender"] == "male" for r in rows]
        assert list(design.x[:, 1]) == [1.0 if m else 0.0 for m in male]

    def test_multi_level_factor_sorted(self):
        rows = [FeatureRow(f"r{i}", {"delta": float(i), "frame": f})
                for i, f in enumerate(["c_mock", "a_praise", "b_irony",
                                       "c_mock", "a_praise"])]
        design = encode_features(rows, "delta ~ frame")
        assert design.columns == (INTERCEPT, "frame=b_irony", "frame=c_mock")
        assert design.reference_levels["frame"] == "a_praise"

    def test_listwise_deletion_on_none_and_empty(self):
        rows = synth_rows(6)
        rows[1] = FeatureRow("t01", {**rows[1].values, "age": None})
        rows[4] = FeatureRow("t04", {**rows[4].values, "age": ""})
        design = encode_features(rows, "delta ~ age")
        assert design.excluded_ids == ("t01", "t04")
        assert design.x.shape[0] == 4

    def test_single_level_factor_dropped_with_warning(self, caplog):
        rows = synth_rows(8)
        with caplog.at_level("WARNING", logger="pncvalence.regression"):
            design = encode_features(rows, "delta ~ nationality + age")
        assert design.dropped_factors == ("nationality",)
        assert design.columns == (INTERCEPT, "age")
        assert any("nationality" in r.message for r in caplog.records)

    def test_no_complete_rows_rejected(self):
        rows = synth_rows(5)  # party is None everywhere
        with pytest.raises(ValidationError, match="no complete rows"):
            encode_features(rows, "delta ~ party")

    def test_non_numeric_value_rejected(self):
        rows = [FeatureRow("r0", {"delta": 1.0, "age": "fifty"}),
                FeatureRow("r1", {"delta": 2.0, "age": 30.0})]
        with pytest.raises(ValidationError, match="r0"):
            encode_features(rows, "delta ~ age")


class TestOlsFit:
    def test_matches_normal_equations_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(8, 41))
            p = int(rng.integers(1, 7))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))]) \
                if p > 1 else np.ones((n, 1))
            y = rng.normal(size=n)
            fit = ols_fit(x, y, [INTERCEPT] + [f"v{j}" for j in range(p - 1)])
            beta_ref = np.linalg.solve(x.T @ x, x.T @ y)
            assert np.allclose(fit.coefficients, beta_ref, atol=1e-8)
            # residuals orthogonal to the column space
            assert np.allclose(x.T @ fit.residuals, 0.0, atol=1e-8)
            assert np.allclose(fit.fitted + fit.residuals, y, atol=1e-12)

    def test_simple_regression_matches_linregress(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            xs = rng.normal(size=n)
            ys = 1.5 * xs + rng.normal(size=n)
            fit = ols_fit(np.column_stack([np.ones(n), xs]), ys,
                          [INTERCEPT, "x"])
            ref = scipy_stats.linregress(xs, ys)
            assert fit.coefficients[1] == pytest.approx(ref.slope, rel=1e-9)
            assert fit.coefficients[0] == pytest.approx(ref.intercept, rel=1e-9)
            assert fit.standard_errors[1] == pytest.approx(ref.stderr, rel=1e-9)
            assert fit.p_values[1] == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
            assert fit.r_squared == pytest.approx(ref.rvalue ** 2, abs=1e-12)

    def test_fit_statistics_identities(self):
        rng = np.random.default_rng(3)
        n, p = 40, 4
        x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = rng.normal(size=n)
        fit = ols_fit(x, y, [INTERCEPT, "a", "b", "c"])
        assert fit.df_model == p - 1
        assert fit.df_resid == n - p
        assert fit.adj_r_squared == pytest.approx(
            1 - (1 - fit.r_squared) * (n - 1) / (n - p), abs=1e-12)
        expect_f = (fit.r_squared / fit.df_model) / ((1 - fit.r_squared) / fit.df_resid)
        assert fit.f_statistic == pytest.approx(expect_f, rel=1e-12)
        rss = float(fit.residuals @ fit.residuals)
        assert fit.residual_se == pytest.approx(math.sqrt(rss / fit.df_resid))

    def test_f_test_matches_scipy_regression(self):
        rng = np.random.default_rng(4)
        n = 25
        xs = rng.normal(size=n)
        ys = 0.7 * xs + rng.normal(size=n)
        fit = ols_fit(np.column_stack([np.ones(n), xs]), ys, [INTERCEPT, "x"])
        # one predictor: model F test equals the slope t test
        assert fit.f_p_value == pytest.approx(fit.p_values[1], rel=1e-9)

    def test_intercept_only_model(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        fit = ols_fit(np.ones((5, 1)), y, [INTERCEPT])
        assert fit.coefficients[0] == pytest.approx(y.mean())
        assert fit.r_squared == 0.0
        assert fit.f_statistic is None
        assert fit.f_p_value is None
        # the intercept test is the one-sample t test of the mean
        ref = scipy_stats.ttest_1samp(y, 0.0)
        assert fit.p_values[0] == pytest.approx(ref.pvalue, rel=1e-9)

    def test_perfect_fit(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        fit = ols_fit(np.column_stack([np.ones(4), xs]), 2 * xs + 1,
                      [INTERCEPT, "x"])
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.f_statistic == math.inf
        assert fit.f_p_value == 0.0

    def test_rank_deficiency_names_columns(self):
        n = 10
        xs = np.linspace(0, 1, n)
        x = np.column_stack([np.ones(n), xs, 2 * xs])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(x, np.arange(float(n)), [INTERCEPT, "a", "a_doubled"])
        assert "a_doubled" in exc.value.columns

    def test_rank_test_ignores_column_scale(self):
        # one age of 1e15 must not make the gender column look collinear
        rng = np.random.default_rng(5)
        n = 12
        age = rng.uniform(30, 70, n)
        age[0] = 1e15
        male = (np.arange(n) % 2).astype(float)
        y = rng.normal(size=n)
        fit = ols_fit(np.column_stack([np.ones(n), age, male]), y,
                      [INTERCEPT, "age", "male"])
        shrunk = ols_fit(np.column_stack([np.ones(n), age * 1e-15, male]), y,
                         [INTERCEPT, "age", "male"])
        assert fit.coefficients[[0, 2]] == pytest.approx(
            shrunk.coefficients[[0, 2]], rel=1e-9)
        assert fit.coefficients[1] * 1e15 == pytest.approx(
            shrunk.coefficients[1], rel=1e-9)

    def test_dependent_column_found_at_any_scale(self):
        n = 10
        xs = np.linspace(1, 2, n) * 1e150
        x = np.column_stack([np.ones(n), xs, 2 * xs])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(x, np.arange(float(n)), [INTERCEPT, "a", "a_doubled"])
        assert exc.value.columns == ["a_doubled"]

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least"):
            ols_fit(np.ones((2, 3)), np.array([1.0, 2.0]), names(3))

    def test_non_finite_rejected(self):
        x = np.ones((4, 1))
        with pytest.raises(ValidationError):
            ols_fit(x, np.array([1.0, 2.0, math.nan, 4.0]), [INTERCEPT])

    def test_saturated_model_has_no_p_values(self):
        x = np.column_stack([np.ones(2), [1.0, 2.0]])
        fit = ols_fit(x, np.array([3.0, 5.0]), [INTERCEPT, "x"])
        assert fit.df_resid == 0
        assert fit.p_values == (None, None)


class TestSignificanceStars:
    def test_thresholds(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.05) == ""
        assert significance_stars(0.5) == ""
        assert significance_stars(None) == ""


class TestUnivariateScan:
    def test_numeric_predictor_single_row(self):
        rows = synth_rows(30)
        results, notes = univariate_scan(rows, ["pnc_valence"])
        assert len(results) == 1
        r = results[0]
        assert (r.predictor, r.level) == ("pnc_valence", "")
        design = encode_features(rows, "delta ~ pnc_valence")
        fit = ols_fit(design.x, design.y, design.columns)
        assert r.column == 1
        assert r.fit.coefficients[r.column] == pytest.approx(float(fit.coefficients[1]))
        assert r.fit.f_p_value == fit.f_p_value
        assert r.stars == significance_stars(fit.f_p_value)
        assert notes == []

    def test_factor_predictor_one_row_per_level(self):
        rows = [FeatureRow(f"r{i}", {"delta": float(i % 5), "frame": f})
                for i, f in enumerate(["a", "b", "c", "a", "b", "c", "a", "b"])]
        results, _ = univariate_scan(rows, ["frame"])
        assert [(r.predictor, r.level) for r in results] == [
            ("frame", "b"), ("frame", "c")]
        # shared fit statistics across the factor's rows
        assert results[0].fit is results[1].fit
        assert [r.column for r in results] == [1, 2]
        assert results[0].stars == results[1].stars

    def test_unusable_predictors_noted(self):
        rows = synth_rows(12)
        results, notes = univariate_scan(rows, ["party", "nationality", "age"])
        assert [r.predictor for r in results] == ["age"]
        assert len(notes) == 2
        assert notes[0].startswith("party: skipped")
        assert notes[1].startswith("nationality: skipped")

    def test_default_predictor_list(self):
        assert "name_valence" in DEFAULT_UNIVARIATE_PREDICTORS
        assert "delta" not in DEFAULT_UNIVARIATE_PREDICTORS
        assert len(DEFAULT_UNIVARIATE_PREDICTORS) == 10


class TestMultivariateSuite:
    def test_named_models_fit(self):
        rows = synth_rows(40)
        specs = [("personal", "delta ~ age + gender"),
                 ("compound", "delta ~ modifier_valence + frame")]
        results, notes = multivariate_suite(rows, specs)
        assert [r.model for r in results] == ["personal", "compound"]
        assert notes == []
        personal = results[0]
        assert personal.formula == "delta ~ age + gender"
        assert 0.0 <= personal.fit.r_squared <= 1.0
        assert personal.fit.n == 40

    def test_unfittable_model_noted(self):
        rows = synth_rows(10)
        results, notes = multivariate_suite(rows, [("p", "delta ~ party")])
        assert results == []
        assert notes[0].startswith("p: skipped")

    def test_default_spec_names(self):
        assert [name for name, _ in DEFAULT_MODEL_SPECS] == [
            "personal", "personal_extended", "compound", "compound_extended",
            "domain", "all_except_name_valence", "all_except_pnc_valence",
            "all_except_both_valences"]


class TestStandardize:
    def test_unit_variance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.5, size=(50, 3))
        xs, means, stds = standardize_columns(x)
        assert np.allclose(xs.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(xs.std(axis=0), 1.0, atol=1e-12)
        assert np.allclose(means, x.mean(axis=0))
        assert np.allclose(stds, x.std(axis=0))

    def test_constant_column_kept_centered(self):
        x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        xs, _, stds = standardize_columns(x)
        assert np.all(xs[:, 0] == 0.0)
        assert stds[0] == 0.0

    def test_constant_column_with_inexact_mean(self):
        # the mean of 253 copies of this value is not the value itself, so
        # centring alone leaves a column of rounding noise
        column = np.full(253, -130.09456497604953)
        assert column.mean() != column[0]
        x, y = make_problem(n=253, p=2, seed=73)
        x = np.column_stack([x, column])
        xs, means, stds = standardize_columns(x)
        assert stds[2] == 0.0
        assert np.all(xs[:, 2] == 0.0)
        assert elastic_net_fit(x, y, 0.0, 0.5, columns=names(3)).coefficients[2] == 0.0
        search = cv_random_search(x, y, columns=names(3), seed=0, n_candidates=3,
                                  n_repeats=1, n_folds=3)
        assert search.column_stds[2] == 0.0
        assert search.fit.coefficients[2] == 0.0


def names(p):
    """Column names for a matrix of p predictors."""
    return [f"x{j}" for j in range(p)]


def make_problem(n=60, p=4, seed=0, rho=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if rho:
        for j in range(1, p):
            x[:, j] = rho * x[:, 0] + (1 - rho) * x[:, j]
    beta = np.array([1.5, -2.0, 0.0, 0.5][:p])
    y = 3.0 + x @ beta + rng.normal(scale=0.1, size=n)
    return x, y


class TestElasticNet:
    def test_zero_penalty_matches_ols(self):
        x, y = make_problem(seed=11)
        enet = elastic_net_fit(x, y, lam=0.0, alpha=1.0, columns=names(4))
        ols = ols_fit(np.column_stack([np.ones(len(y)), x]), y,
                      [INTERCEPT] + names(x.shape[1]))
        assert np.allclose(enet.coefficients, ols.coefficients[1:], atol=1e-5)
        assert enet.intercept == pytest.approx(float(ols.coefficients[0]), abs=1e-5)

    def test_single_predictor_closed_form(self):
        rng = np.random.default_rng(21)
        xs = rng.normal(size=80)
        xs = (xs - xs.mean()) / xs.std()
        y = 2.0 + 1.3 * xs + rng.normal(scale=0.2, size=80)
        rho = float(xs @ (y - y.mean())) / len(y)
        for lam, alpha in [(0.05, 1.0), (0.3, 0.5), (1.0, 0.2), (2.0, 0.9)]:
            fit = elastic_net_fit(xs.reshape(-1, 1), y, lam, alpha, columns=["x"])
            shrunk = math.copysign(max(abs(rho) - lam * alpha, 0.0), rho)
            expect = shrunk / (1.0 + lam * (1 - alpha))
            assert fit.coefficients[0] == pytest.approx(expect, abs=1e-8)

    def test_full_shrinkage_at_lambda_max(self):
        x, y = make_problem(seed=31)
        xs, _, _ = standardize_columns(x)
        for alpha in (0.3, 0.7, 1.0):
            lam_hi = lambda_max(xs, y, alpha)
            # at the exact bound a single ulp can leak through; nudging the
            # penalty up by 1e-10 keeps the assertion exact
            fit = elastic_net_fit(xs, y, lam_hi * (1 + 1e-10), alpha,
                                  columns=names(4))
            assert np.all(fit.coefficients == 0.0)
            assert fit.intercept == pytest.approx(float(y.mean()))
            at_bound = elastic_net_fit(xs, y, lam_hi, alpha, columns=names(4))
            assert np.allclose(at_bound.coefficients, 0.0, atol=1e-12)
        # just below the bound something activates (lasso end)
        lasso_hi = lambda_max(xs, y, 1.0)
        below = elastic_net_fit(xs, y, 0.98 * lasso_hi, 1.0, columns=names(4))
        assert np.any(below.coefficients != 0.0)

    def test_objective_trace_non_increasing(self):
        x, y = make_problem(seed=41, rho=0.6)
        fit = elastic_net_fit(x, y, lam=0.05, alpha=0.5, columns=names(4))
        trace = fit.objective_trace
        assert len(trace) == fit.n_sweeps + 1
        for prev, nxt in zip(trace, trace[1:]):
            assert nxt <= prev + 1e-12 * max(1.0, abs(prev))
        assert fit.objective == trace[-1]

    def test_objective_function_value(self):
        x, y = make_problem(n=20, p=2, seed=51)
        beta = np.array([0.5, -0.25])
        lam, alpha = 0.1, 0.5
        l1 = float(np.abs(beta).sum())
        l2sq = float(beta @ beta)
        expect = (float((y - x @ beta) @ (y - x @ beta)) / (2 * 20)
                  + lam * (alpha * l1 + (1 - alpha) / 2 * l2sq))
        assert elastic_net_objective(x, y, beta, lam, alpha) == pytest.approx(expect)

    def test_exhausted_sweeps_raise_with_trace(self):
        x, y = make_problem(seed=61, rho=0.9)
        with pytest.raises(ConvergenceError) as exc:
            _descend([_centre(x, y)], np.array([0]), np.array([1e-6]),
                     np.array([0.5]), max_sweeps=2, tol=STEP_TOL)
        assert len(exc.value.trace) == 3  # start plus two sweeps

    def test_constant_column_gets_zero_coefficient(self):
        x, y = make_problem(n=30, p=2, seed=71)
        x = np.column_stack([x, np.full(30, 4.0)])
        fit = elastic_net_fit(x, y, lam=0.01, alpha=0.5, columns=names(3))
        assert fit.coefficients[2] == 0.0

    def test_prediction_on_training_scale(self):
        x, y = make_problem(seed=81)
        fit = elastic_net_fit(x, y, lam=0.01, alpha=0.5, columns=names(4))
        pred = fit.intercept + x @ fit.coefficients
        assert pred.shape == y.shape
        assert float(np.corrcoef(pred, y)[0, 1]) > 0.9

    def test_validation(self):
        x, y = make_problem(n=10, p=2)
        with pytest.raises(ValidationError):
            elastic_net_fit(x, y, lam=-0.1, alpha=0.5, columns=names(2))
        with pytest.raises(ValidationError):
            elastic_net_fit(x, y, lam=0.1, alpha=1.5, columns=names(2))
        with pytest.raises(ValidationError):
            elastic_net_fit(x, y[:5], lam=0.1, alpha=0.5, columns=names(2))

    @pytest.mark.parametrize("name, value", [("lam", math.nan), ("lam", math.inf)])
    def test_rejects_a_setting_out_of_range(self, name, value):
        # unchecked, a NaN penalty gives NaN coefficients and an infinite
        # one a RuntimeWarning
        x, y = make_problem(n=10, p=2)
        settings = {"lam": 0.1, "alpha": 0.5, name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="lambda"):
                elastic_net_fit(x, y, columns=names(2), **settings)


@pytest.mark.parametrize("fit", [
    lambda x, y: ols_fit(x, y, names(x.shape[1] - 1)),
    lambda x, y: elastic_net_fit(x, y, 0.1, 0.5, columns=names(x.shape[1] - 1)),
    lambda x, y: cv_random_search(x, y, columns=names(x.shape[1] - 1), seed=0,
                                  **CV_DEFAULTS),
], ids=["ols_fit", "elastic_net_fit", "cv_random_search"])
def test_every_fit_needs_a_name_per_column(fit):
    # a short list would otherwise cut the coefficient mapping of elasticnet.json
    x, y = make_problem(n=30, p=3)
    with pytest.raises(ValidationError, match="3 columns in x but 2 names"):
        fit(x, y)


def reference_fit(x, y, lam, alpha, tol=1e-7):
    """The residual-form coordinate descent the batched Gram-form solver
    replaced: one fit at a time, an n-length dot and axpy per coordinate.
    Returns (intercept, coefficients)."""
    n, p = x.shape
    x_mean, y_mean = x.mean(axis=0), float(y.mean())
    xc, resid = x - x_mean, y - y_mean
    z = (xc * xc).sum(axis=0) / n
    thresh, ridge = lam * alpha, lam * (1.0 - alpha)
    beta = np.zeros(p)
    while True:
        max_step = 0.0
        for j in range(p):
            if z[j] == 0.0:
                continue
            old = beta[j]
            rho = float(xc[:, j] @ resid) / n + z[j] * old
            shrunk = rho - thresh if rho > thresh else rho + thresh if rho < -thresh else 0.0
            new = shrunk / (z[j] + ridge)
            if new != old:
                resid += xc[:, j] * (old - new)
                beta[j] = new
                max_step = max(max_step, abs(new - old))
        if max_step < tol:
            return y_mean - float(x_mean @ beta), beta


def reference_cv_errors(x, y, seed, n_candidates, n_repeats, n_folds):
    """Mean validation errors of cv_random_search's draws and folds, each
    fit made by reference_fit."""
    xs, _, _ = standardize_columns(x)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_candidates):
        alpha = float(rng.uniform(0.0, 1.0))
        lam_hi = lambda_max(xs, y, alpha)
        draws.append((alpha, math.exp(rng.uniform(math.log(lam_hi * 1e-4),
                                                  math.log(lam_hi)))))
    folds = []
    for _ in range(n_repeats):
        parts = np.array_split(rng.permutation(len(y)), n_folds)
        folds += [(np.concatenate(parts[:k] + parts[k + 1:]), parts[k])
                  for k in range(n_folds)]
    errors = []
    for alpha, lam in draws:
        per_fold = []
        for train, val in folds:
            intercept, beta = reference_fit(xs[train], y[train], lam, alpha)
            err = y[val] - (intercept + xs[val] @ beta)
            per_fold.append(float((err * err).mean()))
        errors.append(float(np.mean(per_fold)))
    return errors


class TestBatchedSolver:
    def test_cv_matches_the_residual_form(self):
        x, y = make_problem(n=40, p=4, seed=91, rho=0.9)
        settings = {"n_candidates": 8, "n_repeats": 2, "n_folds": 4}
        search = cv_random_search(x, y, columns=names(4), seed=5, **settings)
        expect = reference_cv_errors(x, y, 5, **settings)
        for cand, error in zip(search.candidates, expect):
            assert cand.mean_error == pytest.approx(error, rel=1e-12, abs=0.0)
        assert search.best.index == min(range(len(expect)),
                                        key=lambda i: (expect[i], i))

    def test_batch_row_is_bit_identical_to_its_single_fit(self):
        x, y = make_problem(n=40, p=4, seed=91, rho=0.9)
        train = [np.arange(0, 30), np.arange(10, 40)]
        fold = np.array([0, 1, 0, 1, 1])
        lam = np.array([1e-3, 0.05, 0.2, 1e-3, 2.0])
        alpha = np.array([0.2, 0.5, 0.9, 0.7, 0.4])
        sets = [_centre(x[t], y[t]) for t in train]
        beta, traces = _descend(sets, fold, lam, alpha,
                                max_sweeps=MAX_SWEEPS, tol=STEP_TOL)
        # the rows leave the batch at different sweeps
        assert len({len(t) for t in traces}) > 1
        for r in range(len(fold)):
            t = train[fold[r]]
            single = elastic_net_fit(x[t], y[t], lam[r], alpha[r], columns=names(4))
            assert np.array_equal(beta[r], single.coefficients)
            assert list(traces[r]) == list(single.objective_trace)

    def test_one_row_out_of_sweeps_raises_with_its_trace(self):
        x, y = make_problem(seed=61, rho=0.9)
        cap = elastic_net_fit(x, y, lam=0.5, alpha=0.5, columns=names(4)).n_sweeps + 2
        with pytest.raises(ConvergenceError) as single:
            _descend([_centre(x, y)], np.array([0]), np.array([1e-6]),
                     np.array([0.5]), max_sweeps=cap, tol=STEP_TOL)
        with pytest.raises(ConvergenceError) as batch:
            _descend([_centre(x, y)], np.array([0, 0]), np.array([0.5, 1e-6]),
                     np.array([0.5, 0.5]), max_sweeps=cap, tol=STEP_TOL)
        assert len(batch.value.trace) == cap + 1
        assert batch.value.trace == single.value.trace
        assert str(batch.value) == str(single.value)

    def test_gram_form_rounding_is_not_an_increase(self):
        # with the response 1e4 times larger than the residuals, the Gram
        # form's objective rounds at a scale above the non-increase
        # tolerance; those sweeps are judged again from the residuals
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 6))
        x[:, 1:] = 0.9 * x[:, :1] + 0.1 * x[:, 1:]
        y = 1e4 * (x @ rng.normal(size=6) + rng.normal(scale=1e-3, size=30))
        fit = elastic_net_fit(x, y, lam=1e-3, alpha=0.5, columns=names(6))
        intercept, beta = reference_fit(x, y, 1e-3, 0.5)
        assert np.allclose(fit.coefficients, beta, rtol=1e-9, atol=0.0)
        trace = fit.objective_trace
        for prev, nxt in zip(trace, trace[1:]):
            assert nxt <= prev + 1e-12 * max(1.0, abs(prev))


class TestCvRandomSearch:
    def search(self, seed=0, **kw):
        x, y = make_problem(n=45, p=3, seed=7)
        kw.setdefault("n_candidates", 6)
        kw.setdefault("n_repeats", 2)
        kw.setdefault("n_folds", 3)
        return cv_random_search(x, y, columns=names(3), seed=seed, **kw)

    def test_deterministic_for_fixed_seed(self):
        a = self.search(seed=3)
        b = self.search(seed=3)
        assert a.candidates == b.candidates
        assert a.best == b.best
        assert np.array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_seed_changes_draws(self):
        a = self.search(seed=1)
        b = self.search(seed=2)
        assert [c.alpha for c in a.candidates] != [c.alpha for c in b.candidates]

    def test_best_is_argmin_with_index_tie_break(self):
        res = self.search(seed=9)
        expect = min(res.candidates, key=lambda c: (c.mean_error, c.index))
        assert res.best == expect

    def test_candidate_ranges(self):
        res = self.search(seed=11, n_candidates=20)
        assert len(res.candidates) == 20
        for c in res.candidates:
            assert 0.0 <= c.alpha <= 1.0
            assert c.lam > 0.0
            assert math.isfinite(c.mean_error)

    def test_refit_uses_standardized_scale(self):
        res = self.search(seed=13)
        assert res.column_stds.shape == (3,)
        assert np.all(res.column_stds > 0)
        assert -1.0 <= res.train_r_squared <= 1.0

    def test_validation(self):
        x, y = make_problem(n=10, p=2)
        with pytest.raises(ValidationError, match="n_candidates"):
            cv_random_search(x, y, columns=names(2), seed=0,
                             **CV_DEFAULTS | {"n_candidates": 0})
        with pytest.raises(ValidationError):
            cv_random_search(x, y, columns=names(2), seed=0,
                             **CV_DEFAULTS | {"n_folds": 11})

    def test_settings_are_completed_with_the_defaults(self):
        assert check_cv_settings() == CV_DEFAULTS
        assert check_cv_settings(n_folds=3) == CV_DEFAULTS | {"n_folds": 3}


class TestMetadataAssembly:
    def test_read_metadata(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text(
            "target_id,age,gender,nationality,birthplace,party,frame\n"
            "t1,51,male,germany,bonn,spd,praise\n"
            "t2,,female,germany,,,mock\n", encoding="utf-8")
        meta = read_metadata_csv(str(p))
        assert meta["t1"]["age"] == 51.0
        assert meta["t1"]["party"] == "spd"
        assert meta["t2"]["age"] is None
        assert meta["t2"]["birthplace"] is None

    def test_read_metadata_errors(self, tmp_path):
        p = tmp_path / "meta.csv"
        p.write_text("target_id,age\nt1,51\n", encoding="utf-8")
        with pytest.raises(ParseError, match="missing columns"):
            read_metadata_csv(str(p))
        p.write_text(
            "target_id,age,gender,nationality,birthplace,party,frame\n"
            "t1,young,male,,,,\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-numeric age"):
            read_metadata_csv(str(p))
        p.write_text(
            "target_id,age,gender,nationality,birthplace,party,frame\n"
            "t1,51,male,,,,\nt1,52,male,,,,\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            read_metadata_csv(str(p))

    def test_age_limit(self, tmp_path):
        p = tmp_path / "meta.csv"
        header = "target_id,age,gender,nationality,birthplace,party,frame\n"
        p.write_text(header + "t1,1e150,,,,,\nt2,-1e150,,,,,\n", encoding="utf-8")
        meta = read_metadata_csv(str(p))
        assert (meta["t1"]["age"], meta["t2"]["age"]) == (AGE_LIMIT, -AGE_LIMIT)
        for age in ("1.0000001e150", "-1e308", "inf", "nan"):
            p.write_text(header + f"t1,51,,,,,\nt2,{age},,,,,\n", encoding="utf-8")
            with pytest.raises(ParseError, match="not a number within") as exc:
                read_metadata_csv(str(p))
            assert exc.value.line == 3

    def test_assemble_rows_joins_sources(self):
        deltas = [DeltaRecord(target_id="t1", approach="norms", pnc_valence=6.0,
                              name_valence=5.0, delta=1.0, modifier_valence=7.0,
                              modifier_delta=1.0),
                  DeltaRecord(target_id="t2", approach="norms", pnc_valence=3.0,
                              name_valence=5.0, delta=-2.0)]
        metadata = {"t1": {"age": 40.0, "gender": "male", "nationality": None,
                           "birthplace": None, "party": None, "frame": "praise"}}
        targets = [TargetSpec(target_id=t, pnc_surface="A-B",
                              modifier_surface="", head_surface="",
                              first_name="F", last_name="L", domain=domain)
                   for t, domain in (("t1", "sports"), ("t2", "politics"))]
        rows = assemble_rows(deltas, metadata, targets)
        assert rows[0].values["delta"] == 1.0
        assert rows[0].values["age"] == 40.0
        assert rows[0].values["domain"] == "sports"
        assert rows[0].values["modifier_valence"] == 7.0
        # t2 has no metadata: everything person-level is None
        assert rows[1].values["age"] is None
        assert rows[1].values["gender"] is None
        assert rows[1].values["domain"] == "politics"
        assert rows[1].values["pnc_valence"] == 3.0
