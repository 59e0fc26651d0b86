"""Checks a pipeline run's artifacts against the workload's plan.

The checker never imports pncvalence: it recomputes every expected value
from ``plan.json``, the config and the input files, following the rules the
README states. Artifacts are read past their ``#`` header line and numbers
are compared within ``TOLERANCE``, so a change of printed precision is not a
failure. Each check returns a list of failure messages; an artifact that
cannot be read fails its check instead of raising.
"""

from __future__ import annotations

import csv
import json
import math
import unicodedata
from collections import Counter, defaultdict
from pathlib import Path

TOLERANCE = 1e-6
STAGES = ("variants", "match", "score", "sentiment", "compare", "regress", "report")
ARTIFACTS = (
    "variants.csv", "matches.csv", "freq_report.csv", "scores.csv", "deltas.csv",
    "exclusions.csv", "domain_summary.csv", "frequent_words.csv",
    "correlations.csv", "plm_scores.csv", "plm_deltas.csv", "sign_breakdown.csv",
    "iaa.csv", "comparison.csv", "comparison_detail.csv", "univariate.csv",
    "multivariate.csv", "regression.json", "elasticnet.json",
    "report/table2.csv", "report/table3.csv", "report/table6.csv",
    "report/table7.csv", "report/fig1.json", "report/fig3.json",
) + tuple(f"manifest_{stage}.json" for stage in STAGES)
MAX_REPORTED = 5


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _key(form: str) -> str:
    return unicodedata.normalize("NFC", form).lower()


class Expected:
    """What a correct run of the workload in ``work`` writes."""

    def __init__(self, work: Path):
        self.work = work
        self.config = json.loads((work / "config.json").read_text(encoding="utf-8"))
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        self.contexts: dict[str, list[str]] = plan["contexts"]

        # full-name matches are dropped from documents where the same target
        # also matches as a compound, unless overlaps are included
        planted = {(t, k, d): n for t, k, d, n in plan["mentions"]}
        if not self.config.get("include_overlaps", True):
            planted = {(t, k, d): n for (t, k, d), n in planted.items()
                       if k == "pnc" or (t, "pnc", d) not in planted}
        self.matches = planted

        pnc = Counter()
        for (t, k, _), n in planted.items():
            if k == "pnc":
                pnc[t] += n
        min_freq = self.config.get("min_freq", 1)
        self.retained = {t for t, n in pnc.items() if n >= min_freq}
        self.kinds: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.docs: dict[tuple[str, str], set[str]] = defaultdict(set)
        for (t, k, d) in planted:
            if t in self.retained:
                self.kinds[(t, d)].add(k)
                self.docs[(t, k)].add(d)

    def lexicon(self) -> dict[str, float]:
        entries: dict[str, float] = {}
        path = self.work / self.config["lexicon"]
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                form, score = line.split("\t")
                entries.setdefault(_key(form.strip()), float(score))
        return entries

    def norms_scores(self) -> dict[tuple[str, str], tuple[float, int, int]]:
        """(target, kind) -> (bag mean, contexts, resolved lemmas)."""
        lexicon = self.lexicon()
        out = {}
        for (t, k), docs in self.docs.items():
            tagged = [d for d in docs if d in self.contexts]
            bag = [lexicon[lemma] for d in tagged for lemma in self.contexts[d]
                   if lemma in lexicon]
            if bag:
                out[(t, k)] = (math.fsum(bag) / len(bag), len(tagged), len(bag))
        return out

    def label_scores(self) -> dict[tuple[str, str, str], tuple[float, int]]:
        """(approach, target, kind) -> (label valence, labelled contexts)."""
        by_approach: dict[str, list[dict]] = defaultdict(list)
        for rel in self.config.get("label_files", []):
            for rec in _read_jsonl(self.work / rel):
                by_approach[f"plm:{rec['source_id']}"].append(rec)
        human_rel = self.config.get("human_label_file")
        if human_rel:
            records = _read_jsonl(self.work / human_rel)
            annotators = set(self.config.get("annotators") or
                             {r["source_id"] for r in records})
            by_approach["human"] = [r for r in records if r["source_id"] in annotators]
        out = {}
        for approach, records in by_approach.items():
            hist: dict[tuple[str, str], Counter] = defaultdict(Counter)
            for r in records:
                for k in self.kinds.get((r["target_id"], r["context_id"]), ()):
                    hist[(r["target_id"], k)][r["label"]] += 1
            for (t, k), c in hist.items():
                n = sum(c.values())
                out[(approach, t, k)] = ((c["positive"] + 0.5 * c["neutral"]) / n * 10.0, n)
        return out


def _diff(what: str, expected: dict, actual: dict, close) -> list[str]:
    failures = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            failures.append(f"{what}: missing {key}")
        elif key not in expected:
            failures.append(f"{what}: unexpected {key}")
        elif not close(expected[key], actual[key]):
            failures.append(f"{what}: {key} expected {expected[key]}, got {actual[key]}")
    if len(failures) > MAX_REPORTED:
        failures = failures[:MAX_REPORTED] + [f"{what}: {len(failures)} differences in all"]
    return failures


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check_match_counts(exp: Expected, out: Path) -> list[str]:
    actual = Counter((r["target_id"], r["kind"], r["doc_id"])
                     for r in read_rows(out / "matches.csv"))
    return _diff("matches.csv", exp.matches, dict(actual), lambda a, b: a == b)


def check_norms_valence(exp: Expected, out: Path) -> list[str]:
    actual = {(r["target_id"], r["kind"]): (float(r["valence"]), int(r["n_contexts"]),
                                            int(r["n_context_lemmas"]))
              for r in read_rows(out / "scores.csv") if r["approach"] == "norms"}
    return _diff("scores.csv", exp.norms_scores(), actual,
                 lambda a, b: _close(a[0], b[0]) and a[1:] == b[1:])


def check_label_valence(exp: Expected, out: Path) -> list[str]:
    actual = {(r["approach"], r["target_id"], r["kind"]): (float(r["valence"]),
                                                           int(r["n_contexts"]))
              for r in read_rows(out / "plm_scores.csv")}
    return _diff("plm_scores.csv", exp.label_scores(), actual,
                 lambda a, b: _close(a[0], b[0]) and a[1] == b[1])


def check_artifacts(exp: Expected, out: Path) -> list[str]:
    failures = []
    for name in ARTIFACTS:
        path = out / name
        if not path.is_file():
            failures.append(f"{name}: missing")
        elif name.endswith(".json"):
            json.loads(path.read_text(encoding="utf-8"))
        elif not any(not line.startswith("#")
                     for line in path.read_text(encoding="utf-8").splitlines()):
            failures.append(f"{name}: no header row")
    return failures


CHECKS = (check_match_counts, check_norms_valence, check_label_valence, check_artifacts)


def check_run(work: Path) -> dict[str, list[str]]:
    """Run every check on the artifacts in work's out_dir; name -> failures."""
    exp = Expected(work)
    out = work / exp.config["out_dir"]
    results = {}
    for check in CHECKS:
        try:
            results[check.__name__] = check(exp, out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            results[check.__name__] = [f"unreadable artifact: {exc!r}"]
    return results
