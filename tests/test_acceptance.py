"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so a plain pytest run shows the
per-criterion outcome at a glance. Oracles are independent of the
implementation: plain-Python arithmetic, closed forms, numeric integration,
normal equations, and byte comparison of repeated runs with each other
and with committed hashes.
"""

import filecmp
import hashlib
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from pncvalence.cli import main
from pncvalence.corpus import (H_ALT_SPELLING, H_ESZETT, H_INTERFIX_DROP,
                               H_NUMBER, H_ORIGINAL, H_UMLAUT, ContextMatch,
                               TargetSpec, generate_variants, _ESZETT_FOLD,
                               _UMLAUT_FOLD)
from pncvalence.lexicon import TaggedContext, TaggedToken, ValenceLexicon
from pncvalence.regression import (FeatureRow, elastic_net_fit,
                                   encode_features, lambda_max,
                                   ols_fit, standardize_columns)
from pncvalence.sentiment import LabelHistogram, eq2_valence
from pncvalence.stats import pearson, spearman, student_t_sf
from pncvalence.valence import ScoreRecord, compute_deltas, target_valence

TOY_CONFIG = str(Path(__file__).parent / "data" / "toy" / "config.json")
GOLDEN = Path(__file__).parent / "data" / "golden"


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number:2d}: {description}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number:2d}: {description}")


# ---------------------------------------------------------------- criterion 1

CONTENT = ("NN", "ADJA", "ADJD", "VVFIN", "VVPP")
NON_CONTENT = ("NE", "ART", "APPR", "KON", "PPER", "$.")


def test_criterion_01_context_valence_brute_force(capsys):
    with criterion(capsys, 1, "lexicon context valence equals the "
                              "brute-force mean on randomized fixtures"):
        rng = random.Random(101)
        pool = [f"lemma{i}" for i in range(30)]
        start = time.perf_counter()
        for case in range(50):
            entries = {w: round(rng.uniform(0.0, 10.0), 3)
                       for w in rng.sample(pool, rng.randint(1, 10))}
            lexicon = ValenceLexicon(entries)
            contexts = []
            for c in range(rng.randint(1, 6)):
                tokens = []
                for _ in range(rng.randint(1, 20)):
                    lemma = rng.choice(pool)
                    content = rng.random() < 0.6
                    tokens.append(TaggedToken(
                        surface=lemma.capitalize(),
                        lemma=lemma if rng.random() < 0.9 else "<unknown>",
                        pos=rng.choice(CONTENT if content else NON_CONTENT)))
                contexts.append(TaggedContext(doc_id=f"d{c}", lines=tuple(
                    "\t".join(tok) for tok in tokens)))
            # oracle: resolve every content token by lemma (surface when the
            # lemma is unusable), keep lexicon hits, average them
            hits = []
            for ctx in contexts:
                for tok in ctx.tokens:
                    if tok.pos not in CONTENT:
                        continue
                    form = tok.lemma if tok.lemma and tok.lemma != "<unknown>" \
                        else tok.surface
                    value = entries.get(form.lower())
                    if value is not None:
                        hits.append(value)
            matches = [ContextMatch(target_id="t", doc_id=c.doc_id, kind="pnc",
                                    matched_variant="v", byte_start=0, byte_end=1)
                       for c in contexts]
            records, _ = target_valence(
                matches, {c.doc_id: c for c in contexts}, lexicon)
            score = records[0] if records else None
            if not hits:
                assert score is None, f"case {case}: expected unscorable"
            else:
                expected = sum(hits) / len(hits)
                assert score is not None, f"case {case}"
                assert abs(score.valence - expected) < 1e-12, f"case {case}"
                assert score.n_context_lemmas == len(hits)
                assert score.n_contexts == len(contexts)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_label_valence_exhaustive(capsys):
    with criterion(capsys, 2, "label-distribution valence is exact and "
                              "monotone over every histogram up to 12 labels"):
        def value(neg, neu, pos):
            rec = eq2_valence(LabelHistogram("t", neg, neu, pos),
                              "pnc", "human")
            return None if rec is None else rec.valence

        cases = 0
        for total in range(13):
            for neg in range(total + 1):
                for neu in range(total + 1 - neg):
                    pos = total - neg - neu
                    cases += 1
                    got = value(neg, neu, pos)
                    if total == 0:
                        assert got is None
                        continue
                    assert got == (pos + 0.5 * neu) / total * 10.0
                    # upgrading any one label strictly raises the score
                    if neg > 0:
                        assert value(neg - 1, neu + 1, pos) > got
                    if neu > 0:
                        assert value(neg, neu - 1, pos + 1) > got
        assert cases == 455


# ---------------------------------------------------------------- criterion 3

def make_target(pnc, alts=()):
    mod, _, head = pnc.partition("-")
    return TargetSpec(target_id="t", pnc_surface=pnc, modifier_surface=mod,
                      head_surface=head, first_name="X", last_name=head,
                      domain="politics", alt_spellings=tuple(alts))


def test_criterion_03_variant_mappings_and_fuzz(capsys):
    with criterion(capsys, 3, "variant generation reproduces the documented "
                              "spelling mappings and survives fuzzing"):
        expected = [
            ("Spaß-Guido", "Spass-Guido", H_ESZETT, ()),
            ("Bätschi-Nahles", "Baetschi-Nahles", H_UMLAUT, ()),
            ("Hoffnungs-Obama", "Hoffnung-Obama", H_INTERFIX_DROP, ()),
            ("Tore-Klose", "Tor-Klose", H_NUMBER, ()),
            ("Gazprom-Schröder", "Gasprom-Schröder", H_ALT_SPELLING,
             ("Gasprom-Schröder",)),
        ]
        for pnc, variant, tag, alts in expected:
            assert (variant, tag) in generate_variants(make_target(pnc, alts)), pnc

        letters = "abdehiklmnorstuäöüß"
        rng = random.Random(7)
        for _ in range(100):
            mod = "".join(rng.choice(letters)
                          for _ in range(rng.randint(3, 8))).capitalize()
            head = "".join(rng.choice(letters)
                           for _ in range(rng.randint(3, 8))).capitalize()
            target = make_target(f"{mod}-{head}")
            variants = generate_variants(target)
            again = generate_variants(target)
            assert variants == again  # deterministic
            strings = [v for v, _ in variants]
            assert strings[0] == target.pnc_surface
            assert variants[0][1] == H_ORIGINAL
            assert len(set(strings)) == len(strings)
            # every fold variant must transliterate one or both sides
            for table, tag in ((_UMLAUT_FOLD, H_UMLAUT),
                               (_ESZETT_FOLD, H_ESZETT)):
                folded_mod = mod.translate(table)
                folded_head = head.translate(table)
                candidates = {f"{m}-{h}"
                              for m in (mod, folded_mod)
                              for h in (head, folded_head)
                              if (m, h) != (mod, head)}
                for value, vtag in variants:
                    if vtag == tag:
                        assert value in candidates, (mod, head, value)


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_delta_is_exact_difference(capsys):
    with criterion(capsys, 4, "compound-minus-name and modifier shifts are "
                              "exact floating-point differences"):
        def rec(kind, valence, approach="norms"):
            return ScoreRecord(target_id="t1", kind=kind, approach=approach,
                               valence=valence, n_contexts=3,
                               n_context_lemmas=5)

        deltas, notes = compute_deltas([rec("pnc", 5.89),
                                        rec("full_name", 4.99)])
        assert notes == []
        (d,) = deltas
        assert d.delta == 5.89 - 4.99
        assert abs(d.delta - 0.90) < 1e-12

        target = TargetSpec(target_id="t1", pnc_surface="Hoffnungs-Obama",
                            modifier_surface="Hoffnungs",
                            head_surface="Obama", first_name="Barack",
                            last_name="Obama", domain="politics",
                            modifier_lemma="hoffnung")
        lexicon = ValenceLexicon({"hoffnung": 7.9})
        deltas, _ = compute_deltas([rec("pnc", 4.42), rec("full_name", 6.0)],
                                   targets=[target], lexicon=lexicon)
        (d,) = deltas
        assert d.modifier_valence == 7.9
        assert d.modifier_delta == 7.9 - 4.42
        assert abs(d.modifier_delta - 3.48) < 1e-12


# ---------------------------------------------------------------- criterion 5

def brute_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


def brute_ranks(values):
    ranks = [0.0] * len(values)
    ordered = sorted(range(len(values)), key=lambda i: values[i])
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) \
                and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[ordered[k]] = mean_rank
        i = j + 1
    return ranks


def t_density(u, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi)
                                    * math.gamma(df / 2))
    return c * (1 + u * u / df) ** (-(df + 1) / 2)


def test_criterion_05_correlation_oracles(capsys):
    with criterion(capsys, 5, "correlation coefficients and t tail areas "
                              "match independent oracles"):
        rng = random.Random(55)
        checked = 0
        while checked < 100:
            n = rng.randint(3, 12)
            xs = [float(rng.choice((1, 2, 2, 3, 5))) for _ in range(n)]
            ys = [float(rng.choice((0, 1, 1, 4))) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            checked += 1
            assert abs(pearson(xs, ys).coefficient
                       - brute_pearson(xs, ys)) < 1e-12
            rx, ry = brute_ranks(xs), brute_ranks(ys)
            if len(set(rx)) < 2 or len(set(ry)) < 2:
                continue
            assert abs(spearman(xs, ys).coefficient
                       - brute_pearson(rx, ry)) < 1e-12

        for df in (1, 2, 5, 10, 30):
            for t in (0.25, 1.0, 2.0, 4.0):
                tail, _ = integrate.quad(t_density, t, math.inf, args=(df,))
                assert student_t_sf(t, df) == pytest.approx(2 * tail,
                                                            abs=1e-6)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_ols_against_normal_equations(capsys):
    with criterion(capsys, 6, "least-squares fits reproduce normal-equation "
                              "solutions with consistent inference"):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(10, 40))
            p = int(rng.integers(1, 7))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
            beta = rng.normal(size=p + 1)
            y = x @ beta + rng.normal(scale=0.5, size=n)
            names = ["(Intercept)"] + [f"x{j}" for j in range(p)]
            fit = ols_fit(x, y, names)
            oracle = np.linalg.solve(x.T @ x, x.T @ y)
            assert np.allclose(fit.coefficients, oracle, atol=1e-8)
            assert np.max(np.abs(x.T @ fit.residuals)) < 1e-8
            assert np.allclose(fit.fitted + fit.residuals, y, atol=1e-10)

        x = np.column_stack([np.ones(10), np.arange(10.0)])
        exact = x @ np.array([2.0, -0.75])
        perfect = ols_fit(x, exact, ["(Intercept)", "x"])
        assert perfect.r_squared == 1.0
        assert perfect.f_statistic == math.inf
        assert perfect.f_p_value == 0.0

        only_intercept = ols_fit(np.ones((12, 1)),
                                 np.linspace(0.0, 3.0, 12), ["(Intercept)"])
        assert only_intercept.r_squared == 0.0
        assert only_intercept.f_statistic is None


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_elastic_net_closed_forms(capsys):
    with criterion(capsys, 7, "elastic net matches closed forms, shrinks "
                              "fully at the penalty bound, and descends "
                              "monotonically"):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 4))
        y = x @ np.array([1.5, 0.0, -2.0, 0.4]) + rng.normal(scale=0.3,
                                                             size=60)
        names = ["a", "b", "c", "d"]
        unpenalized = elastic_net_fit(x, y, 0.0, 0.5, columns=names)
        reference = ols_fit(np.column_stack([np.ones(60), x]), y,
                            ["(Intercept)"] + names)
        assert np.allclose(unpenalized.coefficients,
                           reference.coefficients[1:], atol=1e-4)
        assert unpenalized.intercept == pytest.approx(
            reference.coefficients[0], abs=1e-4)

        xs = rng.normal(size=80)
        xs = (xs - xs.mean()) / xs.std()
        yv = 2.0 + 1.3 * xs + rng.normal(scale=0.2, size=80)
        rho = float(xs @ (yv - yv.mean())) / len(yv)
        for lam, alpha in [(0.05, 1.0), (0.3, 0.5), (1.0, 0.2), (2.0, 0.9)]:
            fit = elastic_net_fit(xs.reshape(-1, 1), yv, lam, alpha, columns=["x"])
            shrunk = math.copysign(max(abs(rho) - lam * alpha, 0.0), rho)
            expect = shrunk / (1.0 + lam * (1 - alpha))
            assert fit.coefficients[0] == pytest.approx(expect, abs=1e-8)
            trace = np.asarray(fit.objective_trace)
            assert np.all(np.diff(trace) <= 0)

        std, _, _ = standardize_columns(x)
        for alpha in (0.4, 1.0):
            bound = lambda_max(std, y, alpha)
            # one ulp separates the bound computation from the coordinate
            # update; the tiny nudge keeps the all-zero assertion exact
            shrunkfit = elastic_net_fit(std, y, bound * (1 + 1e-10), alpha,
                                        columns=names)
            assert np.all(shrunkfit.coefficients == 0.0)
            assert shrunkfit.intercept == pytest.approx(float(y.mean()))


# ---------------------------------------------------------------- criterion 8

SIGMA = 0.18612422537844792  # gives an expected R^2 of 0.88 for this design


def test_criterion_08_recovers_planted_linear_model(capsys):
    with criterion(capsys, 8, "a planted linear relationship is recovered "
                              "across 20 simulated corpora"):
        start = time.perf_counter()
        intercepts, slopes, rsquareds = [], [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.uniform(3.95, 5.89, 289)
            y = -4.35 + 0.90 * x + rng.normal(0.0, SIGMA, 289)
            rows = [FeatureRow(target_id=f"r{i}",
                               values={"delta": float(y[i]),
                                       "pnc_valence": float(x[i])})
                    for i in range(len(x))]
            design = encode_features(rows, "delta ~ pnc_valence")
            fit = ols_fit(design.x, design.y, design.columns)
            assert design.columns == ("(Intercept)", "pnc_valence")
            intercepts.append(fit.coefficients[0])
            slopes.append(fit.coefficients[1])
            rsquareds.append(fit.r_squared)
            # every single run stays in a sane band
            assert abs(fit.r_squared - 0.88) <= 0.03, seed
            assert abs(fit.coefficients[0] - -4.35) <= 0.10 * 4.35, seed
            assert abs(fit.coefficients[1] - 0.90) <= 0.10 * 0.90, seed
        # across the runs the estimates center on the planted values
        assert abs(np.mean(intercepts) - -4.35) <= 0.05 * 4.35
        assert abs(np.mean(slopes) - 0.90) <= 0.05 * 0.90
        assert abs(np.mean(rsquareds) - 0.88) <= 0.03
        assert time.perf_counter() - start < 10.0


# ----------------------------------------------------------- criteria 9 + 10

COMMANDS = ("variants", "match", "score", "sentiment", "compare", "regress",
            "report")
# the toy outputs that tests/data/golden/toy_outputs.sha256 leaves out; it
# lists every other one as `sha256sum` does, run inside the out_dir
NUMPY_OUTPUTS = {"univariate.csv", "multivariate.csv", "regression.json",
                 "elasticnet.json", "manifest_regress.json", "manifest_report.json",
                 "report/table6.csv", "report/table7.csv"}


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    dirs = []
    start = time.perf_counter()
    for label in ("a", "b", "c"):
        out = tmp_path_factory.mktemp(f"run_{label}")
        for command in COMMANDS:
            code = main([command, "--config", TOY_CONFIG, "--out", str(out)])
            assert code == 0, (label, command)
        dirs.append(out)
    return dirs, time.perf_counter() - start


def test_criterion_09_pipeline_is_deterministic(capsys, pipeline_runs):
    with criterion(capsys, 9, "repeated pipeline runs produce byte-identical "
                              "artifacts"):
        (run_a, run_b, run_c), elapsed = pipeline_runs
        files_a = sorted(p.relative_to(run_a)
                         for p in run_a.rglob("*") if p.is_file())
        assert files_a
        for other in (run_b, run_c):
            files_other = sorted(p.relative_to(other)
                                 for p in other.rglob("*") if p.is_file())
            assert files_other == files_a
            for rel in files_a:
                assert filecmp.cmp(run_a / rel, other / rel,
                                   shallow=False), rel
        assert elapsed < 30.0
        # and they hold the committed bytes, apart from the outputs of regress
        # and the report's copies of them, whose last bits may vary with numpy
        golden = dict(line.split("  ")[::-1] for line in (
            GOLDEN / "toy_outputs.sha256").read_text(encoding="utf-8").splitlines())
        pinned = {rel.as_posix() for rel in files_a} - NUMPY_OUTPUTS
        assert sorted(golden) == sorted(pinned)
        for rel in pinned:
            digest = hashlib.sha256((run_a / rel).read_bytes()).hexdigest()
            assert digest == golden[rel], rel


def test_criterion_10_report_table_headers(capsys, pipeline_runs):
    with criterion(capsys, 10, "report tables carry the expected column "
                               "headers"):
        (run_a, _, _), _ = pipeline_runs
        for table in ("table2", "table3", "table6", "table7"):
            golden = (GOLDEN / f"{table}_header.txt").read_text(
                encoding="utf-8").strip()
            lines = (run_a / "report" / f"{table}.csv").read_text(
                encoding="utf-8").splitlines()
            header = next(line for line in lines
                          if not line.startswith("#"))
            assert header == golden, table
