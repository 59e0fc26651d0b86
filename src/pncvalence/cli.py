"""Command-line pipeline around the library.

Subcommands mirror the processing stages: variants, match, score, sentiment,
compare, regress, report; beside them, label asks a classification service for
labels that sentiment reads as one of its label_files. A run is driven by one
JSON config file; relative paths inside it resolve against the config file's
directory. Every artifact lands in the config's out_dir when the command
succeeds; a command that exits non-zero leaves out_dir as it was. CSV
artifacts begin with a comment line carrying the config hash, the seed, and
the package version; JSON artifacts carry the same fields in a "meta" object.
The config hash ignores out_dir, so the same inputs and settings yield
byte-identical artifacts wherever they are written. Each command also writes
manifest_<command>.json, listing the files it read and the artifacts it wrote.

Exit codes: 0 on success, 2 when a required input, an upstream artifact or
numpy (regress) is missing or the out_dir cannot be written, 3 when
configuration or data fails validation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Collection, Iterable, Sequence

from . import __version__
from .corpus import (ContextMatch, TargetSpec, dedupe_documents, frequency_filter,
                     generate_variants, match_contexts, read_corpus_jsonl, read_targets_csv)
from .csvio import parse_json, read_csv, write_csv
from .errors import ParseError, PncValenceError, ValidationError, typed
from .lexicon import load_lexicon, read_tagged_contexts
from .regression import (DEFAULT_MODEL_SPECS, DEFAULT_UNIVARIATE_PREDICTORS,
                         assemble_rows, check_cv_settings, cv_random_search,
                         encode_features, multivariate_suite, parse_formula,
                         read_metadata_csv, univariate_scan)
from .sentiment import (ContextItem, ServiceConfig, build_histograms,
                        classify_contexts, compare_approaches, eq2_valence,
                        filter_records_by_kind, kind_index, pairwise_iaa,
                        pool_annotators, read_label_jsonl)
from .stats import pearson, spearman
from .valence import (DECIMALS, DeltaRecord, KINDS, ScoreRecord, compute_deltas,
                      domain_summary, frequent_context_words, sign_breakdown,
                      target_valence)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_INVALID = 3


class MissingArtifactError(PncValenceError):
    """A required input file, upstream artifact or dependency is missing."""


# the columns of every CSV artifact, in order, for its one writer and reader.
# A float cell is formatted by its column's name: .4g for a *p_value, .2f for
# a pct_*, and DECIMALS places otherwise. Tables 2 and 3 of the report copy a
# subset of the columns of sign_breakdown.csv and comparison.csv. A row of
# matches.csv is a ContextMatch, of scores.csv a ScoreRecord and of a delta
# artifact a DeltaRecord, each written as it is
CSV_ARTIFACTS: dict[str, tuple[str, ...]] = {
    "variants.csv": ("target_id", "position", "variant", "heuristic"),
    "matches.csv": ContextMatch._fields,
    "freq_report.csv": ("target_id", "n_pnc_matches", "min_freq", "retained"),
    "scores.csv": ScoreRecord._fields,
    "deltas.csv": DeltaRecord._fields,
    "exclusions.csv": ("stage", "item", "reason"),
    "domain_summary.csv": ("group", "n", "n_negative", "n_positive", "n_zero",
                           "mean_delta", "pct_negative", "pct_positive"),
    "frequent_words.csv": ("target_id", "kind", "lemma", "count", "valence"),
    "correlations.csv": ("pair", "method", "n", "coefficient", "p_value"),
    "plm_scores.csv": ("target_id", "kind", "approach", "valence", "n_contexts"),
    "plm_deltas.csv": DeltaRecord._fields,
    "iaa.csv": ("kind", "annotator_a", "annotator_b", "n_shared", "rho"),
    "sign_breakdown.csv": ("approach", "n", "n_negative", "n_positive", "n_zero",
                           "pct_delta_negative", "pct_delta_positive",
                           "pct_delta_zero"),
    "comparison.csv": ("plm_approach", "mode", "epsilon", "n_common",
                       "pct_plm_more_negative", "pct_plm_more_positive",
                       "pct_agree"),
    "comparison_detail.csv": ("plm_approach", "target_id", "class"),
    "univariate.csv": ("predictor", "level", "n", "intercept", "slope",
                       "slope_p_value", "r_squared", "adj_r_squared",
                       "model_p_value", "stars"),
    "multivariate.csv": ("model", "formula", "n", "r_squared", "adj_r_squared",
                         "residual_se", "f_statistic", "f_p_value", "stars"),
    "report/table2.csv": ("approach", "n", "pct_delta_negative",
                          "pct_delta_positive", "pct_delta_zero"),
    "report/table3.csv": ("plm_approach", "n_common", "pct_plm_more_negative",
                          "pct_plm_more_positive", "pct_agree"),
}


# the one home of every top-level default; the config hash covers them
_DEFAULTS: dict[str, object] = {
    "min_freq": 1,
    "seed": 0,
    "case_insensitive": False,
    "include_overlaps": True,
    "top_k_words": 10,
    "annotators": [],
    "label_files": [],
    "univariate_predictors": list(DEFAULT_UNIVARIATE_PREDICTORS),
    "model_specs": [list(spec) for spec in DEFAULT_MODEL_SPECS],
    "elasticnet_formula": dict(DEFAULT_MODEL_SPECS)["all_except_name_valence"],
    "elasticnet": {},
    "out_dir": "out",
}

# keys older configs may still set: accepted, read by no stage, left out of the hash
_IGNORED_KEYS = frozenset({"workers", "unit_policy"})

# every top-level key a config may set
_KEYS = frozenset(_DEFAULTS) | _IGNORED_KEYS | {
    "targets", "corpus", "lexicon", "tagged_contexts", "metadata",
    "human_label_file", "service"}


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _not_json(constant: str):
    # json.loads would read NaN, Infinity and -Infinity as floats
    raise ValueError(f"{constant} is not a JSON value")


class RunConfig:
    """Flat JSON run configuration, with out_dir settable by --out.

    It also records the files a command reads (inputs) and the artifacts it
    writes (outputs) as their paths are resolved, for the command's manifest.
    """

    def __init__(self, data: dict, config_dir: Path):
        self.data = data
        self.config_dir = config_dir
        self.inputs: list[Path] = []
        self.outputs: list[str] = []
        self.staging: Path | None = None

    @classmethod
    def load(cls, path: str, out_dir: str | None) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise MissingArtifactError(f"config file not found: {path}")
        try:
            data = parse_json(p.read_text(encoding="utf-8-sig"),
                              parse_constant=_not_json)
        except ValueError as exc:
            raise ParseError(f"config is not valid JSON: {exc}", path=path) from exc
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        merged = dict(_DEFAULTS)
        merged.update(data)
        if out_dir is not None:
            # --out names a directory from where the command runs; a relative
            # out_dir in the file names one from the config file's directory
            merged["out_dir"] = str(Path(out_dir).resolve())
        cfg = cls(merged, p.parent.resolve())
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        def require(ok: bool, message: str) -> None:
            if not ok:
                raise ValidationError(message)

        unknown = sorted(set(self.data) - _KEYS)
        require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
        for key in ("min_freq", "top_k_words"):
            require(typed(self[key], int) and self[key] >= 1,
                    f"{key} must be an integer >= 1")
        require(typed(self["seed"], int) and self["seed"] >= 0,
                "seed must be an integer >= 0")
        for key in ("case_insensitive", "include_overlaps"):
            require(isinstance(self[key], bool), f"{key} must be true or false")
        for key in ("annotators", "label_files", "univariate_predictors"):
            require(_strings(self[key]), f"{key} must be a list of strings")
        for key in ("targets", "corpus", "lexicon", "tagged_contexts", "metadata",
                    "out_dir", "human_label_file", "elasticnet_formula"):
            require(key not in self.data or isinstance(self[key], str),
                    f"{key} must be a string")
        specs = self["model_specs"]
        require(isinstance(specs, list)
                and all(_strings(s) and len(s) == 2 for s in specs),
                "model_specs must be a list of [name, formula] pairs")
        for key, names in (("model_specs", [name for name, _ in specs]),
                           ("univariate_predictors", self["univariate_predictors"]),
                           ("annotators", self["annotators"])):
            require(len(set(names)) == len(names), f"{key} must not repeat a name")

        def check(where: str, test, /, *args, **kwargs):
            try:
                return test(*args, **kwargs)
            except ValidationError as exc:
                raise ValidationError(f"{where}{exc}") from None

        # each nested block is checked and completed by the code that takes it
        for block, resolve in (("elasticnet", check_cv_settings),
                               ("service", lambda **s: vars(ServiceConfig.from_settings(**s)))):
            if block in self.data:
                require(isinstance(self[block], dict), f"{block} must be an object")
                self.data[block] = check(f"{block}.", resolve, **self[block])
        # the annotators form one pool, so their order is no setting
        self.data["annotators"] = sorted(self["annotators"])
        for name, formula in specs:
            check(f"model_specs {name}: ", parse_formula, formula)
        for predictor in self["univariate_predictors"]:
            check("univariate_predictors: ", parse_formula, f"delta ~ {predictor}")
        check("elasticnet_formula: ", parse_formula, self["elasticnet_formula"])

    # config identity: everything that shapes artifact content, every default
    # included. Where the artifacts land does not, nor do the ignored keys.
    @property
    def hash(self) -> str:
        hashed = {k: v for k, v in self.data.items() if k not in _IGNORED_KEYS | {"out_dir"}}
        canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    @property
    def out_dir(self) -> Path:
        return (self.config_dir / self.data["out_dir"]).resolve()

    def __getitem__(self, key: str):
        return self.data[key]

    def input_path(self, key: str) -> Path:
        """Resolve a required input file named by config key."""
        raw = self.data.get(key)
        if not raw:
            raise ValidationError(f"config lacks required key {key!r}")
        return self.input_file(raw, key)

    def input_file(self, raw: str, what: str) -> Path:
        """Resolve an input file given relative to the config file."""
        p = (self.config_dir / raw).resolve()
        if not p.is_file():
            raise MissingArtifactError(f"{what} file not found: {p}")
        self.inputs.append(p)
        return p

    def artifact_path(self, name: str) -> Path:
        """Resolve an upstream artifact in out_dir, which must already exist."""
        p = self.out_dir / name
        if not p.is_file():
            raise MissingArtifactError(
                f"missing upstream artifact {name}; run the producing command first ({p})")
        self.inputs.append(p)
        return p

    def output_path(self, name: str) -> Path:
        """Where to write the artifact out_dir/name: in the staging directory,
        from which publishing moves it into place."""
        p = self.staging / name
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return p

    @contextmanager
    def publishing(self, command: str):
        """Move the artifacts the block writes into out_dir, in the order
        written, only if the block completes. Their staging directory is
        removed on every exit, and first, in case a killed run left it behind."""
        self.staging = self.out_dir / f".staging-{command}"
        shutil.rmtree(self.staging, ignore_errors=True)
        try:
            yield
            for name in self.outputs:
                (self.out_dir / name).parent.mkdir(parents=True, exist_ok=True)
                os.replace(self.staging / name, self.out_dir / name)
        finally:
            shutil.rmtree(self.staging, ignore_errors=True)

    def comment(self) -> str:
        return f"config={self.hash} seed={self.data['seed']} version={__version__}"

    def meta(self) -> dict:
        return {"config": self.hash, "seed": self.data["seed"],
                "version": __version__}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _float_format(column: str) -> str:
    if column.endswith("p_value"):
        return ".4g"
    if column.startswith("pct_"):
        return ".2f"
    return f".{DECIMALS}f"


def write_csv_artifact(cfg: RunConfig, name: str,
                       rows: Iterable[Sequence[object]]) -> Path:
    """Write rows under the artifact's declared columns. A finite float takes its
    column's format; None and any other float, null in JSON, are empty cells."""
    header = CSV_ARTIFACTS[name]
    formats = [_float_format(column) for column in header]

    def cells(row: Sequence[object]) -> list[object]:
        return [(format(v, spec) if math.isfinite(v) else "") if isinstance(v, float)
                else "" if v is None else v for v, spec in zip(row, formats, strict=True)]

    write_csv(str(cfg.output_path(name)), header, map(cells, rows), cfg.comment())
    return cfg.out_dir / name


def read_csv_artifact(cfg: RunConfig, name: str, parse=dict,
                      target_ids: Collection[str] | None = None) -> list:
    """Every row of an upstream CSV artifact: parse receives the declared
    columns, in order, as strings. A row cut short is a ParseError, and so,
    given the listed target_ids, is a row naming any other target."""
    columns = CSV_ARTIFACTS[name]

    def parse_row(row: dict[str, str | None]):
        values = {c: row[c] for c in columns}
        if None in values.values():
            raise ValueError("missing values")
        if target_ids is not None and values["target_id"] not in target_ids:
            raise ValueError(f"unlisted target_id {values['target_id']!r}")
        return parse(values)

    return read_csv(str(cfg.artifact_path(name)), columns, parse_row)


def _finite(value):
    # strict JSON has no NaN or Infinity; None is written as null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_json_artifact(cfg: RunConfig, name: str, payload: dict) -> Path:
    body = {"meta": cfg.meta()}
    body.update(payload)
    with open(cfg.output_path(name), "w", encoding="utf-8") as fh:
        json.dump(_finite(body), fh, ensure_ascii=False, indent=2, allow_nan=False)
        fh.write("\n")
    return cfg.out_dir / name


def write_manifest(cfg: RunConfig, command: str) -> None:
    # file names only: manifests must not vary with where the tree lives
    # two inputs may share a name; their hashes order them
    inputs = sorted((p.name, _sha256(p)) for p in set(cfg.inputs))
    payload = {
        "command": command,
        "inputs": [{"file": name, "sha256": digest} for name, digest in inputs],
        "outputs": sorted(cfg.outputs),
    }
    write_json_artifact(cfg, f"manifest_{command}.json", payload)


# ---------------------------------------------------------------------------
# commands

def cmd_variants(cfg: RunConfig) -> None:
    targets = read_targets_csv(str(cfg.input_path("targets")))
    rows = []
    for target in targets:
        for position, (variant, heuristic) in enumerate(generate_variants(target)):
            rows.append([target.target_id, position, variant, heuristic])
    out = write_csv_artifact(cfg, "variants.csv", rows)
    print(f"variants: {len(rows)} rows for {len(targets)} targets -> {out}")


def cmd_match(cfg: RunConfig) -> None:
    targets_path = cfg.input_path("targets")
    corpus_path = cfg.input_path("corpus")
    targets = read_targets_csv(str(targets_path))
    corpus = read_corpus_jsonl(str(corpus_path))
    n_raw = len(corpus)
    corpus = dedupe_documents(corpus)
    if len(corpus) != n_raw:
        logger.info("url dedupe removed %d document(s)", n_raw - len(corpus))
    matches = match_contexts(
        corpus, targets, case_insensitive=cfg["case_insensitive"],
        include_overlaps=cfg["include_overlaps"])
    matches_path = write_csv_artifact(cfg, "matches.csv", matches)

    min_freq = cfg["min_freq"]
    retained, _, counts = frequency_filter(matches, min_freq, targets)
    retained_set = set(retained)
    freq_rows = [[t.target_id, counts[t.target_id], min_freq,
                  str(t.target_id in retained_set).lower()]
                 for t in targets]
    write_csv_artifact(cfg, "freq_report.csv", freq_rows)
    print(f"match: {len(matches)} matches over {len(corpus)} documents; "
          f"{len(retained)} of {len(targets)} targets pass min_freq={min_freq} "
          f"-> {matches_path}")


def _retained_matches(cfg: RunConfig, targets: Sequence[TargetSpec],
                      ) -> tuple[list[ContextMatch], list[str], list[str]]:
    """The matches.csv rows of targets that pass min_freq; retained and dropped ids."""
    matches = read_csv_artifact(cfg, "matches.csv", _match_record,
                                {t.target_id for t in targets})
    retained, dropped, _ = frequency_filter(matches, cfg["min_freq"], targets)
    keep = set(retained)
    return [m for m in matches if m.target_id in keep], retained, dropped


def cmd_score(cfg: RunConfig) -> None:
    targets_path = cfg.input_path("targets")
    lexicon_path = cfg.input_path("lexicon")
    tagged_path = cfg.input_path("tagged_contexts")

    targets = read_targets_csv(str(targets_path))
    lexicon = load_lexicon(str(lexicon_path))
    matches, retained, dropped = _retained_matches(cfg, targets)
    # keep only the contexts a retained match reads; every line is still checked
    tagged = {c.doc_id: c for c in read_tagged_contexts(
        str(tagged_path), {m.doc_id for m in matches})}

    scores, score_notes = target_valence(matches, tagged, lexicon)
    deltas, delta_notes = compute_deltas(scores, targets, lexicon)

    scores_out = write_csv_artifact(cfg, "scores.csv", scores)
    write_csv_artifact(cfg, "deltas.csv", deltas)

    exclusion_rows = [["frequency", t, f"fewer than {cfg['min_freq']} compound matches"]
                      for t in dropped]
    for stage, notes in (("score", score_notes), ("delta", delta_notes)):
        exclusion_rows.extend([stage, item, reason] for item, reason in notes)
    write_csv_artifact(cfg, "exclusions.csv", exclusion_rows)
    write_csv_artifact(cfg, "domain_summary.csv", (
        [s.group, s.n, s.n_negative, s.n_positive, s.n_zero, s.mean_delta,
         s.pct_negative, s.pct_positive] for s in domain_summary(deltas, targets)))
    write_csv_artifact(cfg, "frequent_words.csv", frequent_context_words(
        retained, matches, tagged, k=cfg["top_k_words"], lexicon=lexicon))

    _write_correlations(cfg, deltas)
    print(f"score: {len(scores)} scores, {len(deltas)} deltas "
          f"({len(exclusion_rows)} exclusions) -> {scores_out.parent}")


def _optional_float(raw: str) -> float | None:
    return float(raw) if raw != "" else None


def _match_record(row: dict[str, str]) -> ContextMatch:
    """A ContextMatch from a row of matches.csv, whose columns are its fields."""
    if row["kind"] not in KINDS:
        raise ValueError(f"unknown kind {row['kind']!r}; expected one of {KINDS}")
    return ContextMatch(**(row | {"byte_start": int(row["byte_start"]),
                                  "byte_end": int(row["byte_end"])}))


def _delta_record(row: dict[str, str]) -> DeltaRecord:
    """A DeltaRecord from a row of deltas.csv or plm_deltas.csv."""
    return DeltaRecord(
        target_id=row["target_id"], approach=row["approach"],
        pnc_valence=float(row["pnc_valence"]),
        name_valence=float(row["name_valence"]),
        delta=float(row["delta"]),
        modifier_valence=_optional_float(row["modifier_valence"]),
        modifier_delta=_optional_float(row["modifier_delta"]))


def _norm_deltas(cfg: RunConfig,
                 target_ids: Collection[str] | None = None) -> list[DeltaRecord]:
    """The rows of deltas.csv, which score writes for the lexicon-based
    approach alone; a row of another approach is a ParseError."""
    def parse(row: dict[str, str]) -> DeltaRecord:
        if row["approach"] != "norms":
            raise ValueError(f"approach {row['approach']!r}; expected 'norms'")
        return _delta_record(row)

    return read_csv_artifact(cfg, "deltas.csv", parse, target_ids)


def _write_correlations(cfg: RunConfig, deltas: Sequence[DeltaRecord]) -> None:
    pairs = (
        ("pnc_valence_vs_name_valence",
         [d.pnc_valence for d in deltas], [d.name_valence for d in deltas]),
        ("delta_vs_name_valence",
         [d.delta for d in deltas], [d.name_valence for d in deltas]),
        ("delta_vs_pnc_valence",
         [d.delta for d in deltas], [d.pnc_valence for d in deltas]),
    )
    rows = []
    for label, xs, ys in pairs:
        for func in (pearson, spearman):
            res = func(xs, ys)
            if res.coefficient is None:
                logger.warning("correlation %s/%s undefined over %d delta(s)",
                               label, res.method, res.n)
            rows.append([label, res.method, res.n, res.coefficient, res.p_value])
    write_csv_artifact(cfg, "correlations.csv", rows)


def cmd_label(cfg: RunConfig) -> None:
    if "service" not in cfg.data:
        raise ValidationError("config lacks required key 'service'")
    targets = read_targets_csv(str(cfg.input_path("targets")))
    matches, _retained, _dropped = _retained_matches(cfg, targets)
    texts = {d.doc_id: d.text for d in read_corpus_jsonl(str(cfg.input_path("corpus")))}
    items = []
    # the kind index holds each (target, document) once, in first-match order
    for target_id, doc_id in kind_index(matches):
        if doc_id not in texts:
            raise ValidationError(f"matches.csv names document {doc_id!r}, "
                                  f"which the corpus lacks")
        items.append(ContextItem(target_id, doc_id, texts[doc_id]))
    service = ServiceConfig(**cfg["service"])
    records, errors = classify_contexts(items, service, service.model_id)
    for err in errors:
        logger.warning("classification: %s", err)
    cfg.output_path("labels_live.jsonl").write_text("".join(
        json.dumps(r._asdict(), ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    print(f"label: {len(records)} labels of {len(items)} contexts from "
          f"{service.model_id} -> {cfg.out_dir / 'labels_live.jsonl'}")


def cmd_sentiment(cfg: RunConfig) -> None:
    if "service" in cfg.data:
        raise ValidationError("service is a setting of the label command: list the "
                              "labels_live.jsonl that label writes in label_files")
    targets = read_targets_csv(str(cfg.input_path("targets")))
    matches, _retained, _dropped = _retained_matches(cfg, targets)
    kinds = kind_index(matches)

    # a triple is labelled once over the human file, read first, and the label files
    seen: set[tuple[str, str, str]] = set()
    human_records = []
    human_path = None
    if cfg.data.get("human_label_file"):
        human_path = cfg.input_file(cfg["human_label_file"], "human label")
        human_records = read_label_jsonl(str(human_path), seen)
    model_records: dict[str, list] = {}
    for rel in cfg["label_files"]:
        for rec in read_label_jsonl(str(cfg.input_file(rel, "label")), seen):
            model_records.setdefault(rec.source_id, []).append(rec)
    labelled = {r.source_id for r in human_records}
    unlabelled = [a for a in cfg["annotators"] if a not in labelled]
    if unlabelled:
        raise ValidationError(
            f"annotators without a label in human_label_file "
            f"{human_path or '(not set)'}: {', '.join(unlabelled)}")

    scores: list[ScoreRecord] = []
    for source_id in sorted(model_records):
        scores.extend(_label_scores(model_records[source_id], kinds,
                                    f"plm:{source_id}"))
    if human_records:
        annotators = cfg["annotators"] or sorted(labelled)
        pooled = pool_annotators(human_records, annotators)
        scores.extend(_label_scores(pooled, kinds, "human"))

    scores.sort(key=lambda s: (s.approach, s.target_id, s.kind))
    scores_out = write_csv_artifact(cfg, "plm_scores.csv", (
        [s.target_id, s.kind, s.approach, s.valence, s.n_contexts] for s in scores))

    deltas, delta_notes = compute_deltas(scores)
    write_csv_artifact(cfg, "plm_deltas.csv", deltas)
    for item, reason in delta_notes:
        logger.info("sentiment delta: %s: %s", item, reason)

    if human_records:
        _write_iaa(cfg, human_records)
    print(f"sentiment: {len(scores)} label-based scores, {len(deltas)} deltas "
          f"-> {scores_out.parent}")


def _label_scores(records, kinds, approach: str) -> list[ScoreRecord]:
    # build_histograms makes no empty histogram, so eq2_valence never gives None
    return [eq2_valence(hist, kind, approach) for kind in KINDS
            for hist in build_histograms(filter_records_by_kind(records, kinds, kind))]


def _write_iaa(cfg: RunConfig, human_records) -> None:
    annotators = sorted({r.source_id for r in human_records})
    if len(annotators) < 2:
        logger.warning("inter-annotator agreement undefined: the human labels "
                       "hold one annotator, %s", annotators[0])
    result = pairwise_iaa(human_records)
    rows = [["pair", p.annotator_a, p.annotator_b, p.n_shared, p.rho]
            for p in result.pairs]
    rows.append(["mean", "", "", "", result.mean_rho])
    if len(annotators) >= 3:
        rows.extend(["mean_excluding", left_out, "", "",
                     result.mean_rho_without(left_out)]
                    for left_out in annotators)
    write_csv_artifact(cfg, "iaa.csv", rows)


def cmd_compare(cfg: RunConfig) -> None:
    norm_deltas = _norm_deltas(cfg)
    label_deltas = read_csv_artifact(cfg, "plm_deltas.csv", _delta_record)
    write_csv_artifact(cfg, "sign_breakdown.csv", (
        [b.group, b.n, b.n_negative, b.n_positive, b.n_zero, b.pct_negative,
         b.pct_positive, b.pct_zero] for b in sign_breakdown(label_deltas + norm_deltas)))

    by_approach: dict[str, list[DeltaRecord]] = {}
    for d in label_deltas:
        by_approach.setdefault(d.approach, []).append(d)

    agg_rows = []
    detail_rows = []
    for approach in sorted(by_approach):
        result = compare_approaches(by_approach[approach], norm_deltas)
        if not result.n_common:
            logger.warning("compare: %s shares no target with the lexicon-based "
                           "deltas; its shares are undefined", approach)
        # mode and epsilon stay as fixed columns: deltas compare by sign alone
        agg_rows.append([approach, "sign_class", 0.0, result.n_common,
                         result.pct_plm_more_negative, result.pct_plm_more_positive,
                         result.pct_agree])
        for target_id, cls in result.per_target:
            detail_rows.append([approach, target_id, cls])

    agg_out = write_csv_artifact(cfg, "comparison.csv", agg_rows)
    write_csv_artifact(cfg, "comparison_detail.csv", detail_rows)
    print(f"compare: {len(agg_rows)} approach(es) against lexicon deltas -> {agg_out}")


def cmd_regress(cfg: RunConfig) -> None:
    # the first regression function to run would load numpy; load it here so
    # the cost counts against this stage, not against a model fit
    try:
        import numpy  # noqa: F401
    except ImportError as exc:
        raise MissingArtifactError(f"regress needs numpy, which failed to import: {exc}")

    targets = read_targets_csv(str(cfg.input_path("targets")))
    deltas = _norm_deltas(cfg, {t.target_id for t in targets})
    metadata = read_metadata_csv(str(cfg.input_path("metadata")))
    rows = assemble_rows(deltas, metadata, targets)

    uni_results, uni_notes = univariate_scan(rows, cfg["univariate_predictors"])
    uni_out = write_csv_artifact(cfg, "univariate.csv", (
        [u.predictor, u.level, u.fit.n, u.fit.coefficients[0],
         u.fit.coefficients[u.column], u.fit.p_values[u.column], u.fit.r_squared,
         u.fit.adj_r_squared, u.fit.f_p_value, u.stars] for u in uni_results))

    multi_results, multi_notes = multivariate_suite(rows, cfg["model_specs"])
    fit_stats = CSV_ARTIFACTS["multivariate.csv"][2:-1]  # n to f_p_value: OlsFit fields
    write_csv_artifact(cfg, "multivariate.csv", (
        [m.model, m.formula, *(getattr(m.fit, stat) for stat in fit_stats), m.stars]
        for m in multi_results))

    detail = {
        "univariate_notes": uni_notes,
        "multivariate_notes": multi_notes,
        "models": [
            {
                "model": m.model,
                "formula": m.formula,
                **{stat: getattr(m.fit, stat) for stat in fit_stats},
                "reference_levels": dict(m.design.reference_levels),
                "dropped_factors": list(m.design.dropped_factors),
                "excluded_rows": list(m.design.excluded_ids),
                "coefficients": [
                    {"column": col,
                     "estimate": float(m.fit.coefficients[j]),
                     "std_error": float(m.fit.standard_errors[j]),
                     "t_value": float(m.fit.t_values[j]),
                     "p_value": m.fit.p_values[j]}
                    for j, col in enumerate(m.fit.columns)
                ],
            }
            for m in multi_results
        ],
    }
    write_json_artifact(cfg, "regression.json", detail)

    formula = cfg["elasticnet_formula"]
    try:
        design = encode_features(rows, formula)
        x = design.x[:, 1:]
        columns = design.columns[1:]
        if x.shape[1] == 0:
            raise ValidationError("elastic net needs at least one predictor")
        search = cv_random_search(x, design.y, columns=columns, seed=cfg["seed"],
                                  **cfg["elasticnet"])
    except PncValenceError as exc:
        logger.warning("elastic net skipped: %s", exc)
        write_json_artifact(cfg, "elasticnet.json",
                            {"skipped": str(exc), "formula": formula})
    else:
        write_json_artifact(cfg, "elasticnet.json", {
            "formula": formula,
            "scoring": "mse",  # CV error is always the mean squared error
            "n_candidates": len(search.candidates),
            "n_repeats": search.n_repeats,
            "n_folds": search.n_folds,
            "n_rows": len(design.row_ids),
            "excluded_rows": list(design.excluded_ids),
            "best": {"index": search.best.index, "alpha": search.best.alpha,
                     "lambda": search.best.lam,
                     "mean_error": search.best.mean_error},
            "intercept": search.fit.intercept,
            "coefficients": {col: float(b) for col, b in
                             zip(search.fit.columns, search.fit.coefficients)},
            "column_means": {col: float(v) for col, v in
                             zip(columns, search.column_means)},
            "column_stds": {col: float(v) for col, v in
                            zip(columns, search.column_stds)},
            "train_r_squared": search.train_r_squared,
            "cv_table": [
                {"index": c.index, "alpha": c.alpha, "lambda": c.lam,
                 "mean_error": c.mean_error} for c in search.candidates
            ],
        })
    print(f"regress: {len(uni_results)} univariate rows, {len(multi_results)} "
          f"models -> {uni_out.parent}")


def cmd_report(cfg: RunConfig) -> None:
    tables = {table: [[row[c] for c in CSV_ARTIFACTS[table]]
                      for row in read_csv_artifact(cfg, source)]
              for source, table in (("sign_breakdown.csv", "report/table2.csv"),
                                    ("comparison.csv", "report/table3.csv"))}
    uni_path = cfg.artifact_path("univariate.csv")
    multi_path = cfg.artifact_path("multivariate.csv")
    target_by_id = {t.target_id: t for t in read_targets_csv(
        str(cfg.input_path("targets")))}
    deltas = _norm_deltas(cfg, target_by_id)
    counts = dict(read_csv_artifact(cfg, "freq_report.csv", lambda row: (
        row["target_id"], int(row["n_pnc_matches"]))))
    # fig3 holds each domain's counts as ints and its mean and shares as floats
    domains = read_csv_artifact(cfg, "domain_summary.csv", lambda row: {
        c: v if c == "group" else int(v) if c.startswith("n") else float(v)
        for c, v in row.items()})

    for table, rows in tables.items():
        write_csv_artifact(cfg, table, rows)
    # tables 6 and 7 are the regression artifacts verbatim
    cfg.output_path("report/table6.csv").write_bytes(uni_path.read_bytes())
    cfg.output_path("report/table7.csv").write_bytes(multi_path.read_bytes())

    # without overlaps, targets that share a full name may differ in its valence
    names: dict[tuple[str, float], dict] = {}
    for d in sorted(deltas, key=lambda d: d.target_id):
        t = target_by_id[d.target_id]
        entry = names.setdefault((t.full_name, d.name_valence), {
            "full_name": t.full_name, "name_valence": d.name_valence, "pncs": []})
        entry["pncs"].append({
            "target_id": d.target_id,
            "pnc_surface": t.pnc_surface,
            "pnc_valence": d.pnc_valence,
            "delta": d.delta,
            "n_pnc_matches": counts.get(d.target_id, 0)})
    write_json_artifact(cfg, "report/fig1.json", {
        "names": sorted(names.values(), key=lambda e: (e["name_valence"],
                                                       e["full_name"]))})
    write_json_artifact(cfg, "report/fig3.json", {"domains": domains})
    print(f"report: tables 2/3/6/7 and figure data -> {cfg.out_dir / 'report'}")


# ---------------------------------------------------------------------------
# argument handling

# (name, help, command) of every stage, in pipeline order
STAGES = (
    ("variants", "expand targets into orthographic search variants", cmd_variants),
    ("match", "match compounds and full names against the corpus", cmd_match),
    ("score", "lexicon-based valence scores and deltas", cmd_score),
    ("sentiment", "label-distribution scores, deltas and agreement", cmd_sentiment),
    ("compare", "label-based vs lexicon-based delta comparison", cmd_compare),
    ("regress", "univariate, multivariate and elastic-net models", cmd_regress),
    ("report", "assemble the report tables and figure data", cmd_report),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pncvalence",
        description="Quantify how personal name compounds shift valence "
                    "against the bare full name.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, command in (*STAGES, ("label", "label the retained "
                                     "contexts through a classification service", cmd_label)):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=command)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="write artifacts here, not to the configured out_dir")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    # a command logs each distinct message once: encode_features, for one,
    # warns about a factor in every design it encodes. Every handler passes
    # the first record of a message and drops the others
    first: dict[tuple[str, int, str], logging.LogRecord] = {}

    def once(record: logging.LogRecord) -> bool:
        key = (record.name, record.levelno, record.getMessage())
        return first.setdefault(key, record) is record

    handlers = logging.getLogger().handlers
    for handler in handlers:
        handler.addFilter(once)
    try:
        cfg = RunConfig.load(args.config, args.out)
        with cfg.publishing(args.command):
            args.run(cfg)
            write_manifest(cfg, args.command)
    except (MissingArtifactError, OSError) as exc:
        # an OSError is e.g. an out_dir that cannot be created
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except PncValenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        for handler in handlers:
            handler.removeFilter(once)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
