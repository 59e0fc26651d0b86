import csv
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import unicodedata
import warnings
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import pncvalence
from pncvalence import cli, regression
from pncvalence.cli import RunConfig, main, write_csv_artifact
from pncvalence.corpus import dedupe_documents, read_corpus_jsonl, read_targets_csv
from pncvalence.sentiment import MAX_WAIT, ServiceConfig
from test_matching import brute_force

TOY = Path(__file__).parent / "data" / "toy"
CONFIG = str(TOY / "config.json")
REPO = Path(__file__).resolve().parents[1]
SCRIPT = "pncvalence"

ALL_COMMANDS = ("variants", "match", "score", "sentiment", "compare",
                "regress", "report")


def run(command, out_dir, *extra):
    return main([command, "--config", CONFIG, "--out", str(out_dir), *extra])


def pipeline_tree(config, out_dir):
    """Run every command on config into out_dir; return tree(out_dir)."""
    for command in ALL_COMMANDS:
        assert main([command, "--config", config, "--out", str(out_dir)]) == 0, command
    return tree(out_dir)


def toy_config(directory, **changes):
    """Write the toy config to directory with absolute input paths and the
    given keys changed (a None value removes the key); return its path."""
    base = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
    for key in ("targets", "corpus", "lexicon", "tagged_contexts",
                "metadata", "human_label_file"):
        base[key] = str(TOY / base[key])
    base["label_files"] = [str(TOY / f) for f in base["label_files"]]
    base.update(changes)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "cfg.json"
    path.write_text(json.dumps({k: v for k, v in base.items() if v is not None}),
                    encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


GOLDEN = Path(__file__).parent / "data" / "golden"
REGRESS_OUTPUTS = ("univariate.csv", "multivariate.csv", "regression.json",
                   "elasticnet.json")
# the largest change a numpy release has made to a regress output is 1.45e-12
# relative on a p-value and 1.2e-12 on a coefficient; 1e-9 is about 700 times
# that, and a CSV cell written to 6 decimals holds no more anyway
REGRESS_REL_TOL = 1e-9


def _cell(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def regress_record(out_dir):
    """Every value the regress outputs in out_dir hold: the CSV rows with
    their cells as ints, floats or strings, and each JSON body without meta.
    tests/data/golden/toy_regress.json is this record of the toy run."""
    record = {}
    for name in REGRESS_OUTPUTS:
        if name.endswith(".csv"):
            record[name] = [{k: _cell(v) for k, v in row.items()}
                            for row in read_rows(out_dir / name)]
        else:
            body = json.loads((out_dir / name).read_text(encoding="utf-8"))
            del body["meta"]
            record[name] = body
    return record


def assert_close(actual, expected, where):
    """Floats agree to REGRESS_REL_TOL; every other value, key and length
    is equal."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=REGRESS_REL_TOL), (
            where, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, (
            where, actual, expected)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli_out")
    for command in ALL_COMMANDS:
        assert run(command, out_dir) == 0, command
    return out_dir


class TestPipelineArtifacts:
    def test_all_artifacts_present(self, out):
        for name in ("variants.csv", "matches.csv", "freq_report.csv",
                     "scores.csv", "deltas.csv", "exclusions.csv",
                     "domain_summary.csv", "frequent_words.csv",
                     "correlations.csv", "plm_scores.csv", "plm_deltas.csv",
                     "sign_breakdown.csv", "iaa.csv", "comparison.csv",
                     "comparison_detail.csv", "univariate.csv",
                     "multivariate.csv", "regression.json", "elasticnet.json",
                     "report/table2.csv", "report/table3.csv",
                     "report/table6.csv", "report/table7.csv",
                     "report/fig1.json", "report/fig3.json"):
            assert (out / name).is_file(), name
        for command in ALL_COMMANDS:
            assert (out / f"manifest_{command}.json").is_file()

    def test_header_comment_format(self, out):
        first = (out / "scores.csv").read_text(encoding="utf-8").splitlines()[0]
        assert re.fullmatch(r"# config=[0-9a-f]{12} seed=7 version=\d+\.\d+\.\d+",
                            first)
        # every CSV artifact opens with the same provenance line
        for name in ("matches.csv", "deltas.csv", "univariate.csv"):
            assert (out / name).read_text(encoding="utf-8").splitlines()[0] == first

    def test_variant_expansion_includes_planted_forms(self, out):
        rows = read_rows(out / "variants.csv")
        pairs = {(r["target_id"], r["variant"]): r["heuristic"] for r in rows}
        assert pairs[("t1", "Tor-Klose")] == "number"
        assert pairs[("t2", "Knast-Hoeness")] == "eszett"
        assert pairs[("t5", "Spass-Guido")] == "eszett"
        assert pairs[("t5", "Spassi-Guido")] == "alt_spelling"
        assert pairs[("t6", "Baetschi-Nahles")] == "umlaut"
        assert pairs[("t8", "Hoffnung-Obama")] == "interfix_drop"
        # position 0 is always the original surface
        zero = [r for r in rows if r["position"] == "0"]
        assert len(zero) == 8
        assert all(r["heuristic"] == "original" for r in zero)

    def test_matches_hit_planted_variants(self, out):
        rows = read_rows(out / "matches.csv")
        used = {(r["target_id"], r["matched_variant"]) for r in rows}
        assert ("t1", "Tor-Klose") in used
        assert ("t1", "Tore.{0,2}Klose") in used
        assert ("t5", "Spass-Guido") in used
        assert ("t5", "Spassi-Guido") in used
        assert ("t6", "Baetschi-Nahles") in used
        assert ("t8", "Hoffnung-Obama") in used
        kinds = {r["kind"] for r in rows}
        assert kinds == {"pnc", "full_name"}

    def test_url_duplicates_do_not_match_twice(self, out):
        # dup1/dup2 repeat the URLs of t1p1 and t3p1; the retweets are dropped
        rows = read_rows(out / "matches.csv")
        assert not any(r["doc_id"] in ("dup1", "dup2") for r in rows)

    def test_frequency_report(self, out):
        rows = read_rows(out / "freq_report.csv")
        by_id = {r["target_id"]: r for r in rows}
        assert len(by_id) == 8
        assert by_id["t8"]["retained"] == "false"
        assert by_id["t8"]["n_pnc_matches"] == "4"
        assert all(by_id[t]["retained"] == "true"
                   for t in ("t1", "t2", "t3", "t4", "t5", "t6", "t7"))
        assert all(r["min_freq"] == "5" for r in rows)

    def test_lexicon_scores_and_deltas(self, out):
        deltas = {r["target_id"]: r for r in read_rows(out / "deltas.csv")}
        assert sorted(deltas) == ["t1", "t2", "t3", "t4", "t5", "t7"]
        t1 = deltas["t1"]
        assert float(t1["pnc_valence"]) == pytest.approx(6.953846, abs=1e-6)
        assert float(t1["name_valence"]) == pytest.approx(5.5, abs=1e-6)
        assert float(t1["delta"]) == pytest.approx(1.453846, abs=1e-6)
        assert float(t1["modifier_valence"]) == pytest.approx(6.9, abs=1e-6)
        assert float(t1["modifier_delta"]) == pytest.approx(-0.053846, abs=1e-6)
        assert float(deltas["t2"]["delta"]) == pytest.approx(-4.2, abs=1e-6)
        # t4 carries no modifier lemma: the modifier columns stay empty
        assert deltas["t4"]["modifier_valence"] == ""
        assert deltas["t4"]["modifier_delta"] == ""

    def test_exclusions_cover_filter_and_oov(self, out):
        rows = read_rows(out / "exclusions.csv")
        staged = {(r["stage"], r["item"]) for r in rows}
        assert ("frequency", "t8") in staged
        assert ("score", "t6/pnc") in staged
        assert ("score", "t6/full_name") in staged
        assert len(rows) == 3

    def test_domain_summary(self, out):
        rows = read_rows(out / "domain_summary.csv")
        by_group = {r["group"]: r for r in rows}
        assert list(by_group) == ["all", "politics", "show_business", "sports"]
        assert by_group["all"]["n"] == "6"
        assert by_group["politics"]["n"] == "3"
        assert by_group["politics"]["n_negative"] == "2"
        assert by_group["sports"]["n_negative"] == "1"

    def test_frequent_words_for_planted_target(self, out):
        rows = read_rows(out / "frequent_words.csv")
        t1_pnc = [r["lemma"] for r in rows
                  if r["target_id"] == "t1" and r["kind"] == "pnc"]
        assert len(t1_pnc) == 5  # top_k_words from the config
        assert "feiern" in t1_pnc
        assert "tor" in t1_pnc

    def test_correlations_table(self, out):
        rows = read_rows(out / "correlations.csv")
        assert len(rows) == 6
        pairs = {(r["pair"], r["method"]) for r in rows}
        assert ("delta_vs_name_valence", "pearson") in pairs
        assert ("delta_vs_name_valence", "spearman") in pairs
        for r in rows:
            assert r["n"] == "6"
            assert -1.0 <= float(r["coefficient"]) <= 1.0

    def test_label_scores_approaches(self, out):
        rows = read_rows(out / "plm_scores.csv")
        approaches = {r["approach"] for r in rows}
        assert approaches == {"plm:xlm-demo", "plm:gbert-demo", "human"}
        assert all(r["n_contexts"] != "0" for r in rows)

    def test_sign_breakdown_includes_all_approaches(self, out):
        rows = read_rows(out / "sign_breakdown.csv")
        assert [r["approach"] for r in rows] == [
            "human", "norms", "plm:gbert-demo", "plm:xlm-demo"]
        norms = rows[1]
        assert norms["n"] == "6"
        assert norms["pct_delta_negative"] == "50.00"
        assert norms["pct_delta_positive"] == "50.00"

    def test_iaa_table(self, out):
        rows = read_rows(out / "iaa.csv")
        pair_rows = [r for r in rows if r["kind"] == "pair"]
        assert len(pair_rows) == 3
        a1a2 = next(r for r in pair_rows
                    if (r["annotator_a"], r["annotator_b"]) == ("a1", "a2"))
        assert a1a2["n_shared"] == "6"
        assert float(a1a2["rho"]) == pytest.approx(0.839146, abs=1e-6)
        mean_row = next(r for r in rows if r["kind"] == "mean")
        assert float(mean_row["rho"]) == pytest.approx(0.207493, abs=1e-6)
        # dropping the contrarian annotator lifts the mean to the a1-a2 pair
        excl = {r["annotator_a"]: r["rho"] for r in rows
                if r["kind"] == "mean_excluding"}
        assert float(excl["a3"]) == pytest.approx(0.839146, abs=1e-6)

    def test_comparison_table(self, out):
        rows = read_rows(out / "comparison.csv")
        by_approach = {r["plm_approach"]: r for r in rows}
        assert sorted(by_approach) == ["human", "plm:gbert-demo", "plm:xlm-demo"]
        human = by_approach["human"]
        assert human["n_common"] == "3"
        assert human["pct_plm_more_negative"] == "33.33"
        assert human["pct_plm_more_positive"] == "0.00"
        assert human["pct_agree"] == "66.67"
        for plm in ("plm:gbert-demo", "plm:xlm-demo"):
            assert by_approach[plm]["n_common"] == "6"
            assert by_approach[plm]["pct_plm_more_negative"] == "50.00"
            assert by_approach[plm]["pct_agree"] == "50.00"
        detail = read_rows(out / "comparison_detail.csv")
        assert len(detail) == 3 + 6 + 6

    def test_univariate_table(self, out):
        rows = read_rows(out / "univariate.csv")
        assert len(rows) == 9
        predictors = [r["predictor"] for r in rows]
        assert "nationality" not in predictors  # single level: skipped
        party_levels = sorted(r["level"] for r in rows
                              if r["predictor"] == "party")
        assert party_levels == ["FDP", "no_party"]  # reference CDU dropped
        numeric = next(r for r in rows if r["predictor"] == "pnc_valence")
        assert numeric["level"] == ""
        assert numeric["n"] == "6"

    def test_multivariate_table(self, out):
        rows = read_rows(out / "multivariate.csv")
        assert [r["model"] for r in rows] == ["personal", "compound", "simple"]
        simple = rows[2]
        assert simple["formula"] == "delta ~ pnc_valence"
        assert float(simple["r_squared"]) == pytest.approx(0.839944, abs=1e-6)
        assert simple["stars"] == "*"
        # modifier_valence is missing for t4, so that model loses one row
        assert rows[1]["n"] == "5"

    def test_regression_detail_json(self, out):
        detail = json.loads((out / "regression.json").read_text(encoding="utf-8"))
        assert detail["meta"]["seed"] == 7
        assert any("nationality" in note for note in detail["univariate_notes"])
        simple = next(m for m in detail["models"] if m["model"] == "simple")
        cols = [c["column"] for c in simple["coefficients"]]
        assert cols == ["(Intercept)", "pnc_valence"]

    def test_elasticnet_json(self, out):
        net = json.loads((out / "elasticnet.json").read_text(encoding="utf-8"))
        assert net["formula"] == "delta ~ pnc_valence + modifier_valence + age"
        assert net["excluded_rows"] == ["t4"]
        assert net["n_rows"] == 5
        assert len(net["cv_table"]) == 8
        assert net["best"]["index"] == min(
            net["cv_table"],
            key=lambda c: (c["mean_error"], c["index"]))["index"]
        assert set(net["coefficients"]) == {"pnc_valence", "modifier_valence",
                                            "age"}

    def test_regress_outputs_match_the_golden_record(self, out):
        # tables 6 and 7 and the elastic net, down to best.index and the
        # coefficients; toy_outputs.sha256 cannot pin their bytes
        golden = json.loads((GOLDEN / "toy_regress.json").read_text(encoding="utf-8"))
        assert_close(regress_record(out), golden, "toy")

    def test_report_tables(self, out):
        table2 = read_rows(out / "report" / "table2.csv")
        assert [r["approach"] for r in table2] == [
            "human", "norms", "plm:gbert-demo", "plm:xlm-demo"]
        table3 = read_rows(out / "report" / "table3.csv")
        assert len(table3) == 3
        # tables 6 and 7 are verbatim copies of the regression artifacts
        assert ((out / "report" / "table6.csv").read_bytes()
                == (out / "univariate.csv").read_bytes())
        assert ((out / "report" / "table7.csv").read_bytes()
                == (out / "multivariate.csv").read_bytes())

    def test_fig1_names_ordered_by_name_valence(self, out):
        fig1 = json.loads((out / "report" / "fig1.json").read_text(encoding="utf-8"))
        names = fig1["names"]
        valences = [e["name_valence"] for e in names]
        assert valences == sorted(valences)
        assert names[0]["full_name"] == "Guido Westerwelle"
        merkel = next(e for e in names if e["full_name"] == "Angela Merkel")
        assert [p["target_id"] for p in merkel["pncs"]] == ["t3", "t4"]

    def test_fig3_domain_rows(self, out):
        fig3 = json.loads((out / "report" / "fig3.json").read_text(encoding="utf-8"))
        assert [d["group"] for d in fig3["domains"]] == [
            "all", "politics", "show_business", "sports"]
        # the rows of domain_summary.csv, counts as ints and the rest as floats
        rows = read_rows(out / "domain_summary.csv")
        assert len(fig3["domains"]) == len(rows)
        for domain, row in zip(fig3["domains"], rows):
            assert list(domain) == list(row)
            for column, cell in row.items():
                if column == "group":
                    assert domain[column] == cell
                elif column.startswith("n"):
                    assert type(domain[column]) is int, column
                    assert domain[column] == int(cell)
                else:
                    assert type(domain[column]) is float, column
                    assert domain[column] == float(cell)

    def test_manifest_paths_are_relative(self, out):
        manifest = json.loads(
            (out / "manifest_score.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "score"
        for entry in manifest["inputs"]:
            assert "/" not in entry["file"]
            assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])
        for name in manifest["outputs"]:
            assert not name.startswith("/")
        assert "deltas.csv" in manifest["outputs"]


class TestExitCodes:
    def test_missing_upstream_artifact_is_exit_2(self, tmp_path, capsys):
        assert run("score", tmp_path) == 2
        assert "matches.csv" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["variants", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_value_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        base = json.loads(Path(CONFIG).read_text(encoding="utf-8"))
        base["min_freq"] = 0
        bad.write_text(json.dumps(base), encoding="utf-8")
        assert main(["variants", "--config", str(bad)]) == 3
        assert "min_freq" in capsys.readouterr().err

    def test_config_may_begin_with_a_byte_order_mark(self, tmp_path):
        # like every input file the config names
        plain = Path(toy_config(tmp_path / "cfg"))
        bom = plain.with_name("bom.json")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["variants", "--config", str(plain),
                     "--out", str(tmp_path / "plain")]) == 0
        assert main(["variants", "--config", str(bom),
                     "--out", str(tmp_path / "with_bom")]) == 0
        assert ((tmp_path / "with_bom" / "variants.csv").read_bytes()
                == (tmp_path / "plain" / "variants.csv").read_bytes())

    def test_unparseable_config_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["variants", "--config", str(bad)]) == 3

    def test_broken_input_file_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        targets = tmp_path / "targets.csv"
        targets.write_text("target_id,pnc_surface\nt1,A-B\n", encoding="utf-8")
        cfg.write_text(json.dumps({"targets": str(targets)}), encoding="utf-8")
        assert main(["variants", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_field_over_the_csv_size_limit_is_exit_3(self, tmp_path, capsys):
        bad = (tmp_path / "targets.csv").resolve()
        lines = (TOY / "targets.csv").read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1].rstrip("\n") + "x" * 200_000 + "\n"
        bad.write_text("".join(lines), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", targets=str(bad))
        assert main(["variants", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:2]" in err
        assert "field larger than field limit" in err

    def test_target_without_names_is_exit_3(self, tmp_path, capsys):
        # a full name of " " would match every space in the corpus
        bad = (tmp_path / "targets.csv").resolve()
        lines = (TOY / "targets.csv").read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1].replace(",Miroslav,Klose,", ",,,")
        bad.write_text("".join(lines), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", targets=str(bad))
        out_dir = tmp_path / "o"
        assert main(["match", "--config", cfg, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:2]" in err
        assert "empty first_name for target 't1'" in err
        assert not (out_dir / "matches.csv").exists()

    @pytest.mark.parametrize("parts, message", [
        ("ToreKlose,,", "cannot separate modifier and head in 'ToreKlose'"),
        ("Tore-Klose,,Kloss", "head 'Kloss' is not 'Klose', its side of 'Tore-Klose'"),
    ])
    def test_unresolvable_compound_is_exit_3_with_its_line(self, tmp_path, capsys,
                                                           parts, message):
        bad = (tmp_path / "targets.csv").resolve()
        lines = (TOY / "targets.csv").read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1].replace("t1,Tore-Klose,Tore,Klose,", f"t1,{parts},")
        bad.write_text("".join(lines), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", targets=str(bad))
        out_dir = tmp_path / "o"
        assert main(["variants", "--config", cfg, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert f"target 't1': {message} [{bad}:2]" in err
        assert not (out_dir / "variants.csv").exists()


class TestOverrides:
    def test_min_freq_override_changes_retention_and_hash(self, tmp_path):
        cfg = toy_config(tmp_path, min_freq=1)
        assert main(["match", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = read_rows(tmp_path / "o" / "freq_report.csv")
        by_id = {r["target_id"]: r for r in rows}
        assert by_id["t8"]["retained"] == "true"
        assert all(r["min_freq"] == "1" for r in rows)

    def test_ignored_keys_do_not_change_hash_or_bytes(self, tmp_path):
        # a key that is accepted and ignored, at a value no stage could take,
        # leaves the hash and every byte of every stage as they are without it
        values = {"workers": 3, "unit_policy": "sentences"}
        without = dict.fromkeys(cli._IGNORED_KEYS)  # None removes the key
        cfg = toy_config(tmp_path / "none", **without)
        expected = RunConfig.load(cfg, None).hash, pipeline_tree(cfg, tmp_path / "o")
        for key in sorted(cli._IGNORED_KEYS):
            cfg = toy_config(tmp_path / key, **{**without, key: values[key]})
            assert (RunConfig.load(cfg, None).hash,
                    pipeline_tree(cfg, tmp_path / key / "o")) == expected, key

    def test_spelled_out_defaults_change_no_hash_or_byte(self, tmp_path):
        # a config of input paths alone, and one that also spells out every
        # default, regress's models as the regression module states them
        paths = {key: str(TOY / name) for key, name in (
            ("targets", "targets.csv"), ("corpus", "corpus.jsonl"),
            ("lexicon", "lexicon.tsv"), ("tagged_contexts", "tagged_contexts.tsv"),
            ("metadata", "metadata.csv"), ("human_label_file", "labels_human.jsonl"))}
        spelled = dict(
            cli._DEFAULTS, **paths,
            univariate_predictors=list(regression.DEFAULT_UNIVARIATE_PREDICTORS),
            model_specs=[list(spec) for spec in regression.DEFAULT_MODEL_SPECS],
            elasticnet_formula=dict(regression.DEFAULT_MODEL_SPECS)[
                "all_except_name_valence"],
            elasticnet={"n_candidates": 25, "n_repeats": 5, "n_folds": 5})
        results = []
        for name, data in (("paths", paths), ("spelled", spelled)):
            cfg = tmp_path / name / "cfg.json"
            cfg.parent.mkdir()
            cfg.write_text(json.dumps(data), encoding="utf-8")
            results.append((RunConfig.load(str(cfg), None).hash,
                            pipeline_tree(str(cfg), tmp_path / name / "o")))
        assert results[0] == results[1]

    def test_spelled_out_service_defaults_change_no_hash(self, tmp_path):
        # the service settings as README states them, waits in whole seconds
        url = "http://127.0.0.1:9"
        spelled = {"base_url": url, "model_id": "live", "batch_size": 32,
                   "timeout": 30, "max_retries": 3, "backoff_base": 0.5,
                   "backoff_cap": 8}
        hashes = {RunConfig.load(toy_config(tmp_path / name, service=block), None).hash
                  for name, block in (("bare", {"base_url": url}), ("spelled", spelled))}
        assert len(hashes) == 1

    def test_annotator_order_changes_no_hash(self, tmp_path):
        # the listed annotators are pooled into one set
        hashes = {RunConfig.load(toy_config(tmp_path / "".join(ids), annotators=ids),
                                 None).hash
                  for ids in (["a1", "a2", "a3"], ["a3", "a1", "a2"])}
        assert len(hashes) == 1

    def test_different_config_values_change_hash(self, tmp_path):
        # the two configs differ in min_freq alone
        heads = []
        for name, changes in (("default", {}), ("override", {"min_freq": 1})):
            cfg = toy_config(tmp_path / name, **changes)
            out_dir = tmp_path / name / "o"
            assert main(["match", "--config", cfg, "--out", str(out_dir)]) == 0
            heads.append((out_dir / "matches.csv").read_text(
                encoding="utf-8").splitlines()[0])
        head_default, head_override = heads
        assert head_default != head_override

    @pytest.mark.parametrize("flag, value", [
        ("--min-freq", "1"), ("--seed", "3"), ("--unit", "per_sentence"),
        ("--compare-mode", "numeric_epsilon"), ("--epsilon", "0.5"),
    ])
    def test_setting_flags_are_usage_errors(self, tmp_path, flag, value):
        # every setting comes from the config file; --out is the only option
        with pytest.raises(SystemExit) as exc:
            run("variants", tmp_path, flag, value)
        assert exc.value.code == 2


@contextmanager
def neutral_service():
    """A classification service on a free local port that labels every text
    neutral; yields its base URL."""
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            n = len(json.loads(self.rfile.read(
                int(self.headers["Content-Length"])))["texts"])
            body = json.dumps({"labels": ["neutral"] * n}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def manifest_files(out_dir, command):
    """The input file names and the outputs of a command's manifest."""
    manifest = json.loads((out_dir / f"manifest_{command}.json").read_text(encoding="utf-8"))
    return {e["file"] for e in manifest["inputs"]}, manifest["outputs"]


class TestLiveClassification:
    def test_service_block_drives_live_labeling(self, tmp_path):
        # label asks the service; sentiment reads its labels as a label file
        out_dir = tmp_path / "o"
        with neutral_service() as url:
            cfg_path = toy_config(tmp_path / "label", service={
                "base_url": url, "model_id": "stub-model", "batch_size": 16})
            for command in ("match", "label"):
                assert main([command, "--config", cfg_path, "--out", str(out_dir)]) == 0
        live = out_dir / "labels_live.jsonl"
        records = [json.loads(line) for line in live.read_text(encoding="utf-8").splitlines()]
        assert records
        assert all(r["source_id"] == "stub-model" for r in records)
        assert all(r["label"] == "neutral" for r in records)
        cfg_path = toy_config(tmp_path / "sentiment",
                              label_files=[TestLabelFiles.MODELS, str(live)])
        assert main(["sentiment", "--config", cfg_path, "--out", str(out_dir)]) == 0
        scores = read_rows(out_dir / "plm_scores.csv")
        stub_scores = [r for r in scores if r["approach"] == "plm:stub-model"]
        assert stub_scores
        # an all-neutral labeling sits exactly mid-scale
        assert all(float(r["valence"]) == 5.0 for r in stub_scores)
        label_inputs, label_outputs = manifest_files(out_dir, "label")
        assert "corpus.jsonl" in label_inputs and label_outputs == ["labels_live.jsonl"]
        sentiment_inputs, _ = manifest_files(out_dir, "sentiment")
        assert "labels_live.jsonl" in sentiment_inputs
        assert "corpus.jsonl" not in sentiment_inputs

    def test_sentiment_reads_no_corpus_and_asks_no_service(self, tmp_path, out,
                                                           monkeypatch):
        live = tmp_path / "labels_live.jsonl"
        live.write_text('{"target_id": "t1", "context_id": "t1n1", '
                        '"label": "neutral", "source_id": "live"}\n', encoding="utf-8")

        def forbidden(*args, **kwargs):
            raise AssertionError("sentiment reads the corpus or asks the service")

        monkeypatch.setattr(cli, "read_corpus_jsonl", forbidden)
        monkeypatch.setattr(cli, "classify_contexts", forbidden)
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path / "cfg", label_files=[TestLabelFiles.MODELS, str(live)])
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 0
        assert "plm:live" in {r["approach"] for r in read_rows(run_dir / "plm_scores.csv")}

    def test_matched_document_missing_from_the_corpus_is_exit_3(
            self, tmp_path, out, capsys):
        # the corpus lost t1n1 after match wrote matches.csv
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            line for line in (TOY / "corpus.jsonl").read_text(
                encoding="utf-8").splitlines(keepends=True)
            if '"t1n1"' not in line), encoding="utf-8")
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        before = tree(run_dir)
        with neutral_service() as url:
            cfg = toy_config(tmp_path / "cfg", corpus=str(corpus), service={
                "base_url": url, "model_id": "stub-model"})
            assert main(["label", "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert "matches.csv" in err and "'t1n1'" in err
        assert tree(run_dir) == before


# a service address; each config below that names it is rejected before
# any request is sent
LOCAL = "http://127.0.0.1:9"


class TestConfigValidation:
    @pytest.mark.parametrize("command, change, key", [
        ("score", {"top_k_words": "x"}, "top_k_words"),
        ("regress", {"elasticnet": {"n_candidates": "x"}},
         "elasticnet.n_candidates"),
        ("regress", {"model_specs": [["only_name"]]}, "model_specs"),
        ("sentiment", {"service": {"model_id": "m"}}, "service.base_url"),
        ("sentiment", {"label_files": "l"}, "label_files"),
        ("regress", {"univariate_predictors": "age"}, "univariate_predictors"),
        ("match", {"case_insensitive": "no"}, "case_insensitive"),
        ("sentiment", {"service": {"base_url": LOCAL, "timeout": 1e10}},
         "service.timeout"),
        ("regress", {"elasticnet": {"scoring": "rmse"}}, "elasticnet.scoring"),
        ("regress", {"univariate_predictors": ["age", "agee"]},
         "univariate_predictors"),
        ("regress", {"model_specs": [["simple", "delta ~ pnc_valence"],
                                     ["typo", "delta ~ pnc_valenc"]]},
         "model_specs"),
        ("match", {"min_freqq": 1}, "min_freqq"),
        ("regress", {"elasticnet_formula": "delta ~ agee"}, "elasticnet_formula"),
        ("sentiment", {"service": {"base_url": LOCAL, "timeout": 0}}, "service.timeout"),
        ("sentiment", {"service": {"base_url": LOCAL, "batch_size": 0}},
         "service.batch_size"),
        ("sentiment", {"service": {"base_url": LOCAL, "max_retries": -1}},
         "service.max_retries"),
        ("sentiment", {"service": {"base_url": LOCAL, "backoff_base": -0.5}},
         "service.backoff_base"),
        ("sentiment", {"service": {"base_url": LOCAL, "backoff_cap": -1}},
         "service.backoff_cap"),
        ("match", {"min_freq": True}, "min_freq"),
        ("score", {"top_k_words": True}, "top_k_words"),
        ("match", {"seed": False}, "seed"),
        ("compare", {"epsilon": True}, "epsilon"),
        ("regress", {"elasticnet": {"n_candidates": True}}, "elasticnet.n_candidates"),
        ("sentiment", {"service": {"base_url": LOCAL, "batch_size": True}},
         "service.batch_size"),
        ("sentiment", {"service": {"base_url": LOCAL, "timeout": True}},
         "service.timeout"),
        ("regress", {"seed": -1}, "seed"),
        ("sentiment", {"service": {"base_url": "file:///etc"}}, "service.base_url"),
        # settings that no longer exist are unknown keys, even at their old
        # defaults
        ("score", {"pooling": "bag"}, "pooling"),
        ("score", {"duplicate_policy": "first_wins"}, "duplicate_policy"),
        ("compare", {"compare_mode": "sign_class"}, "compare_mode"),
        ("match", {"dedupe_urls": True}, "dedupe_urls"),
        # a path must be a string, not a list or a number
        ("variants", {"targets": ["targets.csv"]}, "targets"),
        ("match", {"corpus": 5}, "corpus"),
        ("score", {"lexicon": ["lexicon.tsv"]}, "lexicon"),
        ("score", {"tagged_contexts": 1.5}, "tagged_contexts"),
        ("regress", {"metadata": {"path": "metadata.csv"}}, "metadata"),
        ("variants", {"out_dir": 5}, "out_dir"),
        ("variants", {"out_dir": None}, "out_dir"),
        # a name that tables 6 and 7 and regression.json would hold twice
        ("regress", {"model_specs": [["simple", "delta ~ pnc_valence"],
                                     ["simple", "delta ~ age"]]}, "model_specs"),
        ("regress", {"univariate_predictors": ["age", "age"]}, "univariate_predictors"),
        # an empty object is a service block all the same
        ("sentiment", {"service": {}}, "service.base_url"),
        # a wait that urlopen or time.sleep would reject
        ("sentiment", {"service": {"base_url": LOCAL, "timeout": MAX_WAIT + 0.5}},
         "service.timeout"),
        ("sentiment", {"service": {"base_url": LOCAL, "backoff_base": 1e300,
                                   "backoff_cap": 1e300, "max_retries": 1}},
         "service.backoff_base"),
        ("sentiment", {"service": {"base_url": LOCAL, "backoff_cap": 1e300,
                                   "max_retries": 1}}, "service.backoff_cap"),
        # a setting that shares a name with a parameter of the code checking it
        ("regress", {"elasticnet": {"test": 1}}, "elasticnet.test"),
        ("sentiment", {"service": {"base_url": LOCAL, "cls": 1}}, "service.cls"),
        ("regress", {"elasticnet": [5]}, "elasticnet"),
        ("sentiment", {"annotators": ["a3", "a1", "a2", "a1"]}, "annotators"),
        # the service block is label's alone, and label needs one; every
        # command checks the block as it loads the config
        ("sentiment", {"service": {"base_url": LOCAL}}, "service is a setting of the label"),
        ("label", {}, "'service'"),
        ("label", {"service": {"base_url": LOCAL, "timeout": 0}}, "service.timeout"),
    ])
    def test_bad_value_is_exit_3_naming_the_key(self, tmp_path, out, capsys,
                                                command, change, key):
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path, **change)
        if "out_dir" in change:
            # --out would replace the configured out_dir before it is checked
            cfg_path = Path(cfg)
            data = json.loads(cfg_path.read_text(encoding="utf-8"))
            data["out_dir"] = change["out_dir"]
            cfg_path.write_text(json.dumps(data), encoding="utf-8")
            args = [command, "--config", cfg]
        else:
            args = [command, "--config", cfg, "--out", str(run_dir)]
        assert main(args) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, change", [
        ("compare", {"service": {"base_url": LOCAL, "backoff_cap": float("inf")}}),
        ("sentiment", {"service": {"base_url": LOCAL, "timeout": float("inf")}}),
    ])
    def test_non_json_constant_is_exit_3(self, tmp_path, out, capsys, command, change):
        # the constant is rejected as the config is parsed, before any setting
        # is checked, and the message names the config file
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path, **change)  # json.dumps writes inf as Infinity
        assert main([command, "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert "Infinity" in err and cfg in err

    @pytest.mark.parametrize("key", ["timeout", "backoff_base", "backoff_cap"])
    def test_number_beyond_a_float_is_exit_3(self, tmp_path, out, capsys, key):
        # json reads 1e400 as inf, a wait that urlopen or time.sleep rejects
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = Path(toy_config(tmp_path, service={"base_url": LOCAL, key: 0}))
        cfg.write_text(cfg.read_text(encoding="utf-8").replace(
            f'"{key}": 0', f'"{key}": 1e400'), encoding="utf-8")
        assert main(["label", "--config", str(cfg), "--out", str(run_dir)]) == 3
        assert f"service.{key}" in capsys.readouterr().err


def saturated(rows, deltas):
    # three complete rows for three columns (intercept, age, gender)
    for row in rows:
        if row["target_id"] not in ("t1", "t2", "t3"):
            row["age"] = ""
    return "delta ~ age + gender"


def perfect(rows, deltas):
    # age equal to delta: a fit with no residual
    for row in rows:
        row["age"] = deltas.get(row["target_id"], "")
    return "delta ~ age"


class TestStrictJson:
    @staticmethod
    def regress(tmp_path, out, model):
        """Run regress on a copy of out with the model alone; return the
        config path and the copy."""
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        rows = read_rows(TOY / "metadata.csv")
        deltas = {r["target_id"]: r["delta"] for r in read_rows(out / "deltas.csv")}
        formula = model(rows, deltas)
        metadata = tmp_path / "metadata.csv"
        with open(metadata, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        cfg = toy_config(tmp_path, metadata=str(metadata),
                         model_specs=[[model.__name__, formula]],
                         univariate_predictors=["age"])
        assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 0
        return cfg, run_dir

    @pytest.mark.parametrize("model", [saturated, perfect])
    def test_non_finite_values_are_written_as_null(self, tmp_path, out, model):
        _, run_dir = self.regress(tmp_path, out, model)

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        fit = json.loads((run_dir / "regression.json").read_text(encoding="utf-8"),
                         parse_constant=reject)["models"][0]
        if model is saturated:
            assert fit["n"] == 3
            assert fit["adj_r_squared"] is None and fit["residual_se"] is None
            assert all(c["std_error"] is None and c["t_value"] is None
                       for c in fit["coefficients"])
        else:
            assert fit["r_squared"] == 1.0
            assert fit["f_statistic"] is None
        for path in run_dir.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)

    @pytest.mark.parametrize("model", [saturated, perfect])
    def test_undefined_values_are_empty_cells(self, tmp_path, out, model):
        cfg, run_dir = self.regress(tmp_path, out, model)
        assert main(["report", "--config", cfg, "--out", str(run_dir)]) == 0
        for name in ("univariate.csv", "multivariate.csv",
                     "report/table6.csv", "report/table7.csv"):
            cells = [v for row in read_rows(run_dir / name) for v in row.values()]
            assert cells and not {"inf", "-inf", "nan"} & set(cells), name
        row = read_rows(run_dir / "multivariate.csv")[0]
        if model is saturated:
            assert row["r_squared"] == "1.000000"
            assert [row[c] for c in ("adj_r_squared", "residual_se", "f_statistic",
                                     "f_p_value")] == ["", "", "", ""]
        else:
            # the +inf F statistic, null in regression.json
            assert row["f_statistic"] == ""


def write_metadata(tmp_path, rows):
    """Write rows, a changed copy of the toy metadata.csv's, as
    tmp_path/metadata.csv; return its absolute path."""
    metadata = (tmp_path / "metadata.csv").resolve()
    with open(metadata, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return metadata


def metadata_with_t1_age(tmp_path, age):
    """A copy of the toy metadata.csv with t1's age replaced; t1 is data row 1,
    on line 2."""
    rows = read_rows(TOY / "metadata.csv")
    assert rows[0]["target_id"] == "t1"
    rows[0]["age"] = age
    return write_metadata(tmp_path, rows)


class TestHugeAge:
    def test_age_far_beyond_the_others_fits_every_model(self, tmp_path, out):
        # one age dwarfs every other value; the gender column beside it is
        # still independent, and the rank test must say so
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path, metadata=str(metadata_with_t1_age(tmp_path, "1e15")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 0
        detail = json.loads((run_dir / "regression.json").read_text(encoding="utf-8"))
        assert detail["multivariate_notes"] == []
        assert [m["model"] for m in detail["models"]] == ["personal", "compound", "simple"]
        assert "age" in {r["predictor"] for r in read_rows(run_dir / "univariate.csv")}
        net = json.loads((run_dir / "elasticnet.json").read_text(encoding="utf-8"))
        assert "skipped" not in net and net["column_stds"]["age"] > 0

    def test_age_beyond_the_limit_is_exit_3_with_path_and_line(
            self, tmp_path, out, capsys):
        # its squares would overflow in the elastic net's standardisation
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        metadata = metadata_with_t1_age(tmp_path, "1e308")
        cfg = toy_config(tmp_path, metadata=str(metadata))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 3
        assert f"{metadata}:2]" in capsys.readouterr().err


class TestElasticNetSkipped:
    def test_convergence_failure_writes_the_skipped_form(self, tmp_path, out,
                                                         monkeypatch):
        # one sweep is too few for the toy CV search to converge
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        monkeypatch.setattr(regression, "MAX_SWEEPS", 1)
        assert run("regress", run_dir) == 0
        net = json.loads((run_dir / "elasticnet.json").read_text(encoding="utf-8"))
        assert set(net) == {"meta", "skipped", "formula"}
        assert net["skipped"].startswith("no convergence after 1 sweeps")
        assert net["formula"] == json.loads(
            (out / "elasticnet.json").read_text(encoding="utf-8"))["formula"]
        for name in ("regression.json", "univariate.csv", "multivariate.csv"):
            assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name


class TestRegressDefaults:
    def test_config_without_models_runs_the_default_ones(self, tmp_path, out):
        cfg = toy_config(tmp_path, univariate_predictors=None, model_specs=None,
                         elasticnet_formula=None)
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 0
        detail = json.loads((run_dir / "regression.json").read_text(encoding="utf-8"))
        # each default predictor and model is fitted or skipped with a note
        fitted = {r["predictor"] for r in read_rows(run_dir / "univariate.csv")}
        noted = {note.split(":")[0] for note in detail["univariate_notes"]}
        assert sorted(fitted | noted) == sorted(regression.DEFAULT_UNIVARIATE_PREDICTORS) == [
            "age", "birthplace", "domain", "frame", "gender", "modifier_valence",
            "name_valence", "nationality", "party", "pnc_valence"]
        fitted = {r["model"] for r in read_rows(run_dir / "multivariate.csv")}
        noted = {note.split(":")[0] for note in detail["multivariate_notes"]}
        assert sorted(fitted | noted) == sorted(
            name for name, _ in regression.DEFAULT_MODEL_SPECS) == [
            "all_except_both_valences", "all_except_name_valence",
            "all_except_pnc_valence", "compound", "compound_extended", "domain",
            "personal", "personal_extended"]
        net = json.loads((run_dir / "elasticnet.json").read_text(encoding="utf-8"))
        assert net["formula"] == dict(regression.DEFAULT_MODEL_SPECS)[
            "all_except_name_valence"]

    @pytest.mark.parametrize("key, table, other", [
        ("univariate_predictors", "univariate.csv", "multivariate.csv"),
        ("model_specs", "multivariate.csv", "univariate.csv"),
    ])
    def test_an_empty_list_fits_nothing(self, tmp_path, out, key, table, other):
        cfg = toy_config(tmp_path, **{key: []})
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 0
        assert read_rows(run_dir / table) == []
        # the other list is the toy config's, fitted as before
        assert read_rows(run_dir / other) == read_rows(out / other)


def metadata_all_female(tmp_path):
    """A copy of the toy metadata.csv in which every gender is female."""
    rows = read_rows(TOY / "metadata.csv")
    for row in rows:
        row["gender"] = "female"
    return write_metadata(tmp_path, rows)


GENDER_DROPPED = "factor 'gender' has a single observed level 'female'; dropped"


class TestWarningsOnce:
    # the toy config fits gender alone and in the personal model, so
    # encode_features warns about it twice
    def test_regress_prints_a_repeated_warning_once(self, tmp_path, out):
        cfg = toy_config(tmp_path, metadata=str(metadata_all_female(tmp_path)))
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        proc = run_python("-m", "pncvalence", "regress", "--config", cfg,
                          "--out", str(run_dir), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count(GENDER_DROPPED) == 1

    def test_each_command_logs_its_own_warnings(self, tmp_path, out, caplog):
        cfg = toy_config(tmp_path, metadata=str(metadata_all_female(tmp_path)))
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        for _ in range(2):
            caplog.clear()
            assert main(["regress", "--config", cfg, "--out", str(run_dir)]) == 0
            assert [r.getMessage() for r in caplog.records].count(GENDER_DROPPED) == 1


def bad_value_in_row_1(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n").rsplit(",", 1)[0] + ",abc\n"
    path.write_text("".join(lines), encoding="utf-8")
    return 3


def cut_inside_row_1(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    second_comma = lines[2].index(",", lines[2].index(",") + 1)
    path.write_text("".join(lines[:2]) + lines[2][:second_comma + 2],
                    encoding="utf-8")
    return 3


def bad_byte_in_row_1(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))
    return 3


def bad_kind_in_row_1(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    target_id, doc_id, _kind, rest = lines[2].split(",", 3)
    lines[2] = ",".join((target_id, doc_id, "foo", rest))
    path.write_text("".join(lines), encoding="utf-8")
    return 3


def label_approach_in_row_1(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    target_id, _approach, rest = lines[2].split(",", 2)
    lines[2] = ",".join((target_id, "plm:m1", rest))
    path.write_text("".join(lines), encoding="utf-8")
    return 3


class TestCorruptArtifacts:
    @pytest.mark.parametrize("artifact, command, corrupt", [
        ("deltas.csv", "compare", bad_value_in_row_1),
        ("deltas.csv", "regress", cut_inside_row_1),
        ("deltas.csv", "compare", bad_byte_in_row_1),
        ("matches.csv", "score", bad_value_in_row_1),
        ("matches.csv", "sentiment", cut_inside_row_1),
        ("matches.csv", "score", bad_byte_in_row_1),
        ("matches.csv", "score", bad_kind_in_row_1),
        ("matches.csv", "sentiment", bad_kind_in_row_1),
        ("deltas.csv", "compare", label_approach_in_row_1),
        ("deltas.csv", "report", label_approach_in_row_1),
    ])
    def test_reading_stage_exits_3_with_path_and_line(
            self, tmp_path, out, capsys, artifact, command, corrupt):
        run_dir = (tmp_path / "o").resolve()
        shutil.copytree(out, run_dir)
        line = corrupt(run_dir / artifact)
        assert run(command, run_dir) == 3
        assert f"{run_dir / artifact}:{line}]" in capsys.readouterr().err


class TestStaleTargetList:
    """A target-keyed artifact read with targets.csv may name only listed
    targets: t3's row deleted from targets.csv after the artifact was written
    makes the reading stage exit 3 at t3's first row."""

    @pytest.mark.parametrize("artifact, command", [
        ("matches.csv", "score"), ("matches.csv", "sentiment"),
        ("deltas.csv", "regress"), ("deltas.csv", "report"),
    ])
    def test_reading_stage_exits_3_at_the_unlisted_target(
            self, tmp_path, out, capsys, artifact, command):
        run_dir = (tmp_path / "o").resolve()
        shutil.copytree(out, run_dir)
        targets = tmp_path / "targets.csv"
        targets.write_text("".join(
            line for line in (TOY / "targets.csv").read_text(
                encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("t3,")), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", targets=str(targets))
        line = next(i for i, text in enumerate((run_dir / artifact).read_text(
            encoding="utf-8").splitlines(), start=1) if text.startswith("t3,"))
        before = tree(run_dir)
        assert main([command, "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert f"{run_dir / artifact}:{line}]" in err
        assert "'t3'" in err
        assert tree(run_dir) == before


class TestNonUtf8Input:
    @pytest.mark.parametrize("key, command", [
        ("targets", "variants"), ("corpus", "match"), ("lexicon", "score"),
        ("tagged_contexts", "score"), ("human_label_file", "sentiment"),
        ("metadata", "regress"),
    ])
    def test_exit_3_with_path_and_line(self, tmp_path, out, capsys, key, command):
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        source = TOY / json.loads(Path(CONFIG).read_text(encoding="utf-8"))[key]
        bad = (tmp_path / source.name).resolve()
        shutil.copy(source, bad)
        line = bad_byte_in_row_1(bad)
        cfg = toy_config(tmp_path / "cfg", **{key: str(bad)})
        assert main([command, "--config", cfg, "--out", str(run_dir)]) == 3
        assert f"{bad}:{line}]" in capsys.readouterr().err


class TestJsonOutsideUtf8OrRecursionLimit:
    """JSON that json.loads cannot turn into usable values without a
    JSONDecodeError: nesting past the recursion limit, and an unpaired
    surrogate escape, which no UTF-8 output or hash can take."""

    DEEP = "[" * 100_000
    LONE = '{"doc_id": "lone", "source": "tweet", "text": "\\ud800 Tore-Klose feiert"}'

    @pytest.mark.parametrize("line", [DEEP, LONE], ids=["deep", "surrogate"])
    def test_corpus_line_is_exit_3_with_path_and_line(self, tmp_path, capsys, line):
        bad = (tmp_path / "corpus.jsonl").resolve()
        lines = (TOY / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)
        lines.insert(1, line + "\n")
        bad.write_text("".join(lines), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", corpus=str(bad))
        assert main(["match", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert f"{bad}:2]" in capsys.readouterr().err

    def test_surrogate_pair_escape_is_a_character(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d", "text": "\\ud83d\\ude00 Tore-Klose"}\n',
                        encoding="utf-8")
        assert [d.text for d in read_corpus_jsonl(str(path))] == ["\U0001f600 Tore-Klose"]

    def test_deep_config_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.DEEP, encoding="utf-8")
        assert main(["variants", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert str(cfg) in capsys.readouterr().err

    def test_lone_surrogate_in_config_is_exit_3(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, annotators=["\ud800"])  # written as an escape
        assert main(["variants", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert cfg in capsys.readouterr().err


class TestOutDir:
    def test_out_override_is_relative_to_working_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["variants", "--config", CONFIG, "--out", "rel"]) == 0
        assert (tmp_path / "rel" / "variants.csv").is_file()
        assert not (TOY / "rel").exists()

    def test_configured_out_dir_is_relative_to_config(self, tmp_path, monkeypatch):
        cfg = toy_config(tmp_path / "c", out_dir="o")
        monkeypatch.chdir(tmp_path)
        assert main(["variants", "--config", cfg]) == 0
        assert (tmp_path / "c" / "o" / "variants.csv").is_file()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["is_a_file", "under_a_file"])
    def test_out_dir_that_cannot_be_created_is_exit_2(self, tmp_path, under):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        proc = run_python("-m", "pncvalence", "variants", "--config", CONFIG,
                          "--out", str(blocker / under), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(blocker) in errors[0], proc.stderr


def tree(directory):
    """Every path under directory: a file's bytes, None for a directory."""
    return {p.relative_to(directory): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


def disk_full(*args):
    raise OSError(28, "No space left on device")


class TestPublish:
    def test_failed_sentiment_leaves_out_dir_as_it_was(
            self, tmp_path, out, capsys, monkeypatch):
        # sentiment fails at the agreement table, after it has written its
        # label-based scores and deltas; under a config of another hash, each
        # would differ from the one it replaces
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path / "cfg", top_k_words=3)
        before = tree(run_dir)
        monkeypatch.setattr(cli, "_write_iaa", disk_full)
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert tree(run_dir) == before

    def test_write_failing_midway_leaves_out_dir_as_it_was(
            self, tmp_path, out, capsys, monkeypatch):
        # score has written five artifacts when it comes to the sixth; under
        # a config of another hash, each would differ from the one it replaces
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        cfg = toy_config(tmp_path / "cfg", top_k_words=3)
        before = tree(run_dir)
        monkeypatch.setattr(cli, "_write_correlations", disk_full)
        assert main(["score", "--config", cfg, "--out", str(run_dir)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert tree(run_dir) == before

    def test_staging_left_by_a_killed_run_is_removed(self, tmp_path):
        stale = tmp_path / ".staging-variants" / "variants.csv"
        stale.parent.mkdir()
        stale.write_text("stale", encoding="utf-8")
        assert run("variants", tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest_variants.json", "variants.csv"]
        assert (tmp_path / "variants.csv").read_text(encoding="utf-8") != "stale"


def run_python(*args, timeout, hash_seed=None):
    """Run the current interpreter with this checkout's `src` first on
    PYTHONPATH, and PYTHONHASHSEED set when a hash seed is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


class TestLabelFiles:
    MODELS = str(TOY / "labels_models.jsonl")

    @pytest.mark.parametrize("changes", [
        {"label_files": [MODELS, MODELS]}, {"human_label_file": MODELS}])
    def test_a_label_file_read_twice_is_exit_3_with_the_repeat(
            self, tmp_path, out, capsys, changes):
        cfg = toy_config(tmp_path / "cfg", **changes)
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        before = tree(run_dir)
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert "duplicate label for" in err and f"[{self.MODELS}:1]" in err
        assert tree(run_dir) == before

    def test_a_label_repeated_in_another_file_names_its_line(
            self, tmp_path, out, capsys):
        lines = (TOY / "labels_models.jsonl").read_text(encoding="utf-8").splitlines(True)
        second = tmp_path / "labels_more.jsonl"
        second.write_text('{"target_id": "t1", "context_id": "t1p1", '
                          '"label": "neutral", "source_id": "m3"}\n' + lines[3],
                          encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", label_files=[self.MODELS, str(second)])
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 3
        assert f"[{second}:2]" in capsys.readouterr().err

    # the model of a label file, and an annotator of the human file
    @pytest.mark.parametrize("model_id", ["xlm-demo", "a1"])
    def test_a_live_label_repeating_a_file_is_exit_3_naming_its_line(
            self, tmp_path, out, capsys, model_id):
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        with neutral_service() as url:
            cfg = toy_config(tmp_path / "label",
                             service={"base_url": url, "model_id": model_id})
            assert main(["label", "--config", cfg, "--out", str(run_dir)]) == 0
        before = tree(run_dir)
        # the live labels come last, after the human file and the other label file
        live = run_dir / "labels_live.jsonl"
        cfg = toy_config(tmp_path / "sentiment", label_files=[self.MODELS, str(live)])
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        # the live labels' first line, (t1, t1n1), is labelled in both files
        assert (f"duplicate label for ('t1', 't1n1', '{model_id}') "
                f"[{live}:1]") in err
        assert tree(run_dir) == before

    def test_one_annotator_scores_the_human_approach_with_one_warning(
            self, tmp_path, out):
        labels = tmp_path / "labels_human.jsonl"
        labels.write_text("".join(
            line for line in (TOY / "labels_human.jsonl").read_text(
                encoding="utf-8").splitlines(keepends=True)
            if json.loads(line)["source_id"] == "a1"), encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", human_label_file=str(labels),
                         annotators=["a1"])
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        proc = run_python("-m", "pncvalence", "sentiment", "--config", cfg,
                          "--out", str(run_dir), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("WARNING") == 1 and "one annotator" in proc.stderr
        assert read_rows(run_dir / "iaa.csv") == [{
            "kind": "mean", "annotator_a": "", "annotator_b": "", "n_shared": "",
            "rho": ""}]
        scores = read_rows(run_dir / "plm_scores.csv")
        assert "human" in {row["approach"] for row in scores}

    @pytest.mark.parametrize("changes, missing", [
        ({"annotators": ["a1", "a2", "a9"]}, "a9"),
        ({"annotators": ["zz"]}, "zz"),
        ({"human_label_file": None}, "a1, a2, a3")])
    def test_an_annotator_without_labels_is_exit_3_naming_it_and_the_file(
            self, tmp_path, out, capsys, changes, missing):
        cfg = toy_config(tmp_path / "cfg", **changes)
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        before = tree(run_dir)
        assert main(["sentiment", "--config", cfg, "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        human = "(not set)" if "human_label_file" in changes else str(
            TOY / "labels_human.jsonl")
        assert f"human_label_file {human}: {missing}" in err
        assert tree(run_dir) == before


class TestManifest:
    def test_inputs_sharing_a_name_keep_their_order_under_any_hash_seed(
            self, tmp_path):
        # the model labels split over two files that are both called labels.jsonl
        lines = (TOY / "labels_models.jsonl").read_text(encoding="utf-8").splitlines(True)
        label_files = []
        for part in (0, 1):
            path = tmp_path / f"m{part + 1}" / "labels.jsonl"
            path.parent.mkdir()
            path.write_text("".join(lines[part::2]), encoding="utf-8")
            label_files.append(str(path))
        cfg = toy_config(tmp_path / "cfg", label_files=label_files)
        manifests = set()
        for seed in range(8):
            out_dir = tmp_path / f"out{seed}"
            argvs = [[command, "--config", cfg, "--out", str(out_dir)]
                     for command in ("match", "sentiment")]
            proc = run_python(
                "-c", "import sys; from pncvalence.cli import main; "
                f"sys.exit(max(main(argv) for argv in {argvs!r}))",
                timeout=120, hash_seed=seed)
            assert proc.returncode == 0, proc.stderr
            manifests.add((out_dir / "manifest_sentiment.json").read_bytes())
        assert len(manifests) == 1
        inputs = json.loads(manifests.pop())["inputs"]
        assert [entry["file"] for entry in inputs].count("labels.jsonl") == 2


class TestModuleEntryPoint:
    def test_pyproject_declares_the_package_version(self):
        # every artifact carries __version__; a regex, since Python 3.10 has
        # no tomllib
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        table = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
        line = table and re.search(r'^version\s*=\s*"([^"]*)"', table.group(1), re.M)
        assert line and line.group(1) == pncvalence.__version__

    def test_python_m_pncvalence_runs_a_stage(self, tmp_path):
        proc = run_python("-m", "pncvalence", "variants", "--config", CONFIG,
                          "--out", str(tmp_path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "variants.csv").is_file()

    def test_importing_the_cli_loads_neither_scipy_nor_requests(self):
        # nor an HTTP client, since only live classification speaks HTTP, nor
        # numpy, since only regress fits a model
        proc = run_python(
            "-c", "import sys, pncvalence.cli; print(sorted({'scipy', 'requests', "
            "'urllib.request', 'http.client', 'numpy'} & set(sys.modules)))",
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_regress_loads_numpy(self, tmp_path):
        before = [[command, "--config", CONFIG, "--out", str(tmp_path)]
                  for command in ("variants", "match", "score", "sentiment", "compare")]
        regress = ["regress", "--config", CONFIG, "--out", str(tmp_path)]
        proc = run_python(
            "-c", "import sys; from pncvalence.cli import main; "
            f"codes = [main(argv) for argv in {before!r}]; "
            "print(codes, 'numpy' in sys.modules); "
            f"print(main({regress!r}), 'numpy' in sys.modules)",
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "[0, 0, 0, 0, 0] False" in lines
        assert lines[-1] == "0 True"

    def test_regress_without_numpy_exits_2_with_one_message(self, tmp_path):
        before = [[command, "--config", CONFIG, "--out", str(tmp_path)]
                  for command in ("variants", "match", "score", "sentiment", "compare")]
        regress = ["regress", "--config", CONFIG, "--out", str(tmp_path)]
        proc = run_python(
            "-c", "import sys; sys.modules['numpy'] = None; "
            "from pncvalence.cli import main; "
            f"codes = [main(argv) for argv in {before!r}]; "
            f"sys.exit(main({regress!r}) if codes == [0] * 5 else codes)",
            timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "numpy" in errors[0], proc.stderr

    def test_toy_pipeline_loads_neither_scipy_nor_requests(self, tmp_path):
        argvs = [[command, "--config", CONFIG, "--out", str(tmp_path)]
                 for command in ALL_COMMANDS]
        proc = run_python(
            "-c", "import sys; from pncvalence.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(codes, sorted({'scipy', 'requests'} & set(sys.modules)))",
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(ALL_COMMANDS)} []"


class TestRecords:
    def test_only_records_that_compute_when_built_are_dataclasses(self):
        # every other record is a NamedTuple, which costs far less to define
        # when a stage starts
        proc = run_python(
            "-c", "import dataclasses, sys, pncvalence.cli; print(sorted("
            "name for module in list(sys.modules.values()) "
            "if module.__name__.split('.')[0] == 'pncvalence' "
            "for name, obj in vars(module).items() if isinstance(obj, type) "
            "and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__))",
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['ServiceConfig', 'TaggedContext', 'TargetSpec']"


class TestFig1:
    def test_each_pnc_sits_under_its_own_name_valence(self, tmp_path):
        # without overlaps, a document holding Willkommens-Merkel and Angela
        # Merkel is a full-name context of t4 alone, so t3 and t4 give
        # Angela Merkel different valences
        toy = tmp_path / "toy"
        shutil.copytree(TOY, toy)
        with open(toy / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "both", "source": "tweet", "text": '
                     '"Willkommens-Merkel oder Angela Merkel: Hass und Chaos."}\n')
        with open(toy / "tagged_contexts.tsv", "a", encoding="utf-8") as fh:
            fh.write("#doc:both\n" + "".join(f"{token}\n" for token in (
                "Willkommens-Merkel\tWillkommens-Merkel\tNE", "oder\toder\tKON",
                "Angela\tAngela\tNE", "Merkel\tMerkel\tNE", ":\t:\t$.",
                "Hass\tHass\tNN", "und\tund\tKON", "Chaos\tChaos\tNN", ".\t.\t$.")))
        cfg = toy_config(tmp_path, include_overlaps=False,
                         corpus=str(toy / "corpus.jsonl"),
                         tagged_contexts=str(toy / "tagged_contexts.tsv"))
        pipeline_tree(cfg, tmp_path / "o")
        names = {r["target_id"]: float(r["name_valence"])
                 for r in read_rows(tmp_path / "o" / "deltas.csv")}
        assert names["t3"] != names["t4"]
        fig1 = json.loads((tmp_path / "o" / "report" / "fig1.json").read_text(
            encoding="utf-8"))
        pncs = [(entry, pnc) for entry in fig1["names"] for pnc in entry["pncs"]]
        assert len(pncs) == len(names)
        for entry, pnc in pncs:
            assert abs(pnc["pnc_valence"] - entry["name_valence"]
                       - pnc["delta"]) <= 2e-6, pnc["target_id"]


class TestUnmatchedContexts:
    def test_blocks_no_match_reads_change_no_artifact(self, tmp_path):
        # the toy tagged file, then every block again under a doc id that no
        # match references: score reads past them and writes the same bytes
        runs = {}
        for name in ("plain", "padded"):
            shutil.copytree(TOY, tmp_path / name)
            tagged = tmp_path / name / "tagged_contexts.tsv"
            text = tagged.read_text(encoding="utf-8")
            if name == "padded":
                tagged.write_text(text + "\n" + text.replace("#doc:", "#doc:unmatched-"),
                                  encoding="utf-8")
            out_dir = tmp_path / name / "o"
            for command in ("match", "score"):
                assert main([command, "--config", str(tmp_path / name / "config.json"),
                             "--out", str(out_dir)]) == 0, (name, command)
            runs[name] = {str(p.relative_to(out_dir)): p.read_bytes()
                          for p in sorted(out_dir.rglob("*")) if p.is_file()}
        plain, padded = runs["plain"], runs["padded"]
        assert "unmatched-" not in padded["matches.csv"].decode("utf-8")
        assert plain.keys() == padded.keys()
        manifests = [json.loads(run.pop("manifest_score.json")) for run in (plain, padded)]
        assert plain == padded
        for manifest in manifests:
            [tagged_input] = [i for i in manifest["inputs"]
                              if i["file"] == "tagged_contexts.tsv"]
            tagged_input["sha256"] = None
        assert manifests[0] == manifests[1]


class TestMatchedDocumentWithoutContext:
    def test_only_its_pair_loses_a_context(self, tmp_path, out, caplog):
        # t1n1 is matched only as t1/full_name; its #doc: block is gone
        shutil.copytree(TOY, tmp_path / "toy")
        tagged = tmp_path / "toy" / "tagged_contexts.tsv"
        text = tagged.read_text(encoding="utf-8")
        start = text.index("#doc:t1n1\n")
        tagged.write_text(text[:start] + text[text.index("#doc:", start + 1):],
                          encoding="utf-8")
        cfg = str(tmp_path / "toy" / "config.json")
        run_dir = tmp_path / "o"
        for command in ("match", "score"):
            assert main([command, "--config", cfg, "--out", str(run_dir)]) == 0
        assert [r.getMessage() for r in caplog.records
                if "no tagged context" in r.getMessage()] == [
            "no tagged context for 1 matched document(s): t1n1"]
        toy = read_rows(out / "scores.csv")
        scores = read_rows(run_dir / "scores.csv")
        assert len(scores) == len(toy)
        for row, toy_row in zip(scores, toy):
            if (row["target_id"], row["kind"]) == ("t1", "full_name"):
                assert int(row["n_contexts"]) == int(toy_row["n_contexts"]) - 1
            else:
                assert row == toy_row


class TestLineEndings:
    def test_crlf_inputs_write_the_lf_artifacts(self, tmp_path):
        # every toy input with CRLF line ends: each stage writes the bytes the
        # LF run writes; only the manifests, which hash the inputs, differ
        runs = {}
        for name in ("lf", "crlf"):
            shutil.copytree(TOY, tmp_path / name)
            if name == "crlf":
                for path in (tmp_path / name).iterdir():
                    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            out_dir = tmp_path / name / "o"
            for command in ALL_COMMANDS:
                assert main([command, "--config", str(tmp_path / name / "config.json"),
                             "--out", str(out_dir)]) == 0, (name, command)
            runs[name] = {str(p.relative_to(out_dir)): p.read_bytes()
                          for p in sorted(out_dir.rglob("*")) if p.is_file()
                          and not p.name.startswith("manifest_")}
        assert runs["crlf"] == runs["lf"]


class TestNfdTargets:
    def test_nfd_targets_without_parts_write_the_toy_artifacts(self, tmp_path, out):
        # targets.csv in NFD with modifier_surface and head_surface blank: each
        # target resolves to the same NFC parts, so the matching artifacts are
        # the toy run's bytes
        shutil.copytree(TOY, tmp_path / "toy")
        with open(TOY / "targets.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            row[header.index("modifier_surface")] = row[header.index("head_surface")] = ""
        nfd = [[unicodedata.normalize("NFD", cell) for cell in row] for row in rows]
        assert nfd != rows
        with open(tmp_path / "toy" / "targets.csv", "w", encoding="utf-8",
                  newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *nfd])
        out_dir = tmp_path / "o"
        for command in ("variants", "match"):
            assert main([command, "--config", str(tmp_path / "toy" / "config.json"),
                         "--out", str(out_dir)]) == 0, command
        for name in ("variants.csv", "matches.csv", "freq_report.csv"):
            assert (out_dir / name).read_bytes() == (out / name).read_bytes(), name


class TestCaseInsensitiveMatch:
    def test_matches_equal_the_brute_force_oracle(self, tmp_path):
        # the toy corpus with two documents in three upper- or swap-cased,
        # matched under IGNORECASE and overlap suppression
        corpus_path = tmp_path / "corpus.jsonl"
        lines, recased = [], set()
        for i, line in enumerate((TOY / "corpus.jsonl").read_text(
                encoding="utf-8").splitlines()):
            doc = json.loads(line)
            if i % 3:
                doc["text"] = (str.upper if i % 3 == 1 else str.swapcase)(doc["text"])
                recased.add(doc["doc_id"])
            lines.append(json.dumps(doc, ensure_ascii=False) + "\n")
        corpus_path.write_text("".join(lines), encoding="utf-8")
        config = toy_config(tmp_path, corpus=str(corpus_path),
                            case_insensitive=True, include_overlaps=False)
        out_dir = tmp_path / "o"
        assert main(["match", "--config", config, "--out", str(out_dir)]) == 0

        expected = brute_force(
            dedupe_documents(read_corpus_jsonl(str(corpus_path))),
            read_targets_csv(str(TOY / "targets.csv")),
            case_insensitive=True, include_overlaps=False)
        assert {m.doc_id for m in expected} & recased
        written = (out_dir / "matches.csv").read_text(encoding="utf-8")
        cfg = RunConfig.load(config, str(tmp_path / "expected"))
        with cfg.publishing("match"):
            expected_path = write_csv_artifact(cfg, "matches.csv", expected)
        assert written == expected_path.read_text(encoding="utf-8")


class TestUndefinedStatistics:
    def test_an_approach_sharing_no_target_is_an_empty_comparison_row(
            self, tmp_path, out, caplog):
        # the lonely source labels only t6, which the lexicon cannot score
        lonely = tmp_path / "labels_lonely.jsonl"
        lonely.write_text(
            '{"target_id": "t6", "context_id": "t6p1", "label": "negative", '
            '"source_id": "lonely"}\n'
            '{"target_id": "t6", "context_id": "t6n1", "label": "positive", '
            '"source_id": "lonely"}\n', encoding="utf-8")
        cfg = toy_config(tmp_path / "cfg", label_files=[
            str(TOY / "labels_models.jsonl"), str(lonely)])
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        for command in ("sentiment", "compare", "report"):
            assert main([command, "--config", cfg, "--out", str(run_dir)]) == 0, command
        lines = (run_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert "plm:lonely,sign_class,0.000000,0,,," in lines
        assert not any(row["plm_approach"] == "plm:lonely"
                       for row in read_rows(run_dir / "comparison_detail.csv"))
        assert {"plm_approach": "plm:lonely", "n_common": "0",
                "pct_plm_more_negative": "", "pct_plm_more_positive": "",
                "pct_agree": ""} in read_rows(run_dir / "report" / "table3.csv")
        assert sum("plm:lonely shares no target" in r.getMessage()
                   for r in caplog.records) == 1

    def test_one_delta_writes_six_undefined_correlations(self, tmp_path):
        # only t1 has 6 compound matches, so score sees one delta
        cfg = toy_config(tmp_path / "cfg", min_freq=6)
        for command in ("match", "score"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_rows(tmp_path / "o" / "deltas.csv")) == 1
        rows = read_rows(tmp_path / "o" / "correlations.csv")
        assert [(r["pair"], r["method"]) for r in rows] == [
            (pair, method) for pair in ("pnc_valence_vs_name_valence",
                                        "delta_vs_name_valence", "delta_vs_pnc_valence")
            for method in ("pearson", "spearman")]
        for r in rows:
            assert (r["n"], r["coefficient"], r["p_value"]) == ("1", "", "")


    def test_no_delta_runs_every_stage(self, tmp_path):
        # no toy target has 1000 compound matches: deltas.csv holds no row
        cfg = toy_config(tmp_path / "cfg", min_freq=1000)
        run_dir = tmp_path / "o"
        for command in ALL_COMMANDS:
            assert main([command, "--config", cfg, "--out", str(run_dir)]) == 0, command
        assert read_rows(run_dir / "deltas.csv") == []
        for table in ("table2.csv", "table3.csv"):
            assert read_rows(run_dir / "report" / table) == [], table
        elasticnet = json.loads((run_dir / "elasticnet.json").read_text(encoding="utf-8"))
        assert "skipped" in elasticnet
        fig1 = json.loads((run_dir / "report" / "fig1.json").read_text(encoding="utf-8"))
        assert fig1["names"] == []


class TestStageOrder:
    def test_sign_breakdown_does_not_depend_on_stage_order(self, tmp_path, out):
        for command in ("match", "sentiment", "score", "compare"):
            assert run(command, tmp_path) == 0, command
        assert ((tmp_path / "sign_breakdown.csv").read_bytes()
                == (out / "sign_breakdown.csv").read_bytes())


class TestExclusions:
    def test_keeps_a_target_id_with_a_colon(self, tmp_path):
        # the toy t6 is unscorable; renamed, its id holds the separator
        # that the exclusion notes use between item and reason
        targets = tmp_path / "targets.csv"
        targets.write_text(
            (TOY / "targets.csv").read_text(encoding="utf-8").replace("\nt6,", "\nt:6,"),
            encoding="utf-8")
        cfg = toy_config(tmp_path, targets=str(targets))
        for command in ("match", "score"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = {(r["stage"], r["item"]): r["reason"]
                for r in read_rows(tmp_path / "o" / "exclusions.csv")}
        assert rows[("score", "t:6/full_name")] == (
            "no content lemma found in lexicon; unscorable")
        assert ("score", "t:6/pnc") in rows


class TestSignRule:
    def test_figure_and_table_count_a_tiny_delta_alike(self, tmp_path):
        # the compound's contexts rate 0.1 and 0.2 and the name's 0.15, so
        # delta = 0.15000000000000002 - 0.15 = 2.8e-17, written as 0.000000
        (tmp_path / "targets.csv").write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,first_name,"
            "last_name,domain,alt_spellings\n"
            "t1,Tore-Klose,Tore,Klose,Miroslav,Klose,sports,\n", encoding="utf-8")
        docs = {"d1": ("Tore-Klose jubelt", "jubeln"),
                "d2": ("Tore-Klose trauert", "trauern"),
                "d3": ("Miroslav Klose rennt", "rennen")}
        (tmp_path / "corpus.jsonl").write_text("".join(
            json.dumps({"doc_id": d, "source": "tweet", "text": text}) + "\n"
            for d, (text, _) in docs.items()), encoding="utf-8")
        (tmp_path / "tagged.tsv").write_text("".join(
            f"#doc:{d}\n{text.split()[-1]}\t{lemma}\tVVFIN\n\n"
            for d, (text, lemma) in docs.items()), encoding="utf-8")
        (tmp_path / "lexicon.tsv").write_text(
            "jubeln\t0.1\ntrauern\t0.2\nrennen\t0.15\n", encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "targets": "targets.csv", "corpus": "corpus.jsonl",
            "lexicon": "lexicon.tsv", "tagged_contexts": "tagged.tsv",
            "min_freq": 1}), encoding="utf-8")
        for command in ("match", "score", "sentiment", "compare"):
            assert main([command, "--config", str(cfg)]) == 0, command

        out_dir = tmp_path / "out"
        assert read_rows(out_dir / "deltas.csv")[0]["delta"] == "0.000000"
        fig3 = next(r for r in read_rows(out_dir / "domain_summary.csv")
                    if r["group"] == "all")
        table2 = next(r for r in read_rows(out_dir / "sign_breakdown.csv")
                      if r["approach"] == "norms")
        counts = ("n", "n_negative", "n_positive", "n_zero")
        assert [fig3[c] for c in counts] == [table2[c] for c in counts] == [
            "1", "0", "0", "1"]


class TestReadme:
    def test_configuration_section_names_every_key(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = (set(cli._KEYS) | set(regression._CV_MINIMA)
                | {f.name for f in dataclasses.fields(ServiceConfig)})
        assert sorted(k for k in keys if f"`{k}`" not in section) == []

    def test_stage_table_lists_each_manifests_outputs(self, tmp_path, out):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = readme.split("What each stage produces:", 1)[1].split("\n\n", 2)[1]
        listed = {}
        for line in table.splitlines()[2:]:
            command, artifacts = (cell.strip() for cell in line.strip("|").split("|"))
            listed[command] = sorted(re.findall(r"`([^`]+\.(?:csv|json|jsonl))`", artifacts))
        run_dir = tmp_path / "o"
        shutil.copytree(out, run_dir)
        with neutral_service() as url:
            cfg = toy_config(tmp_path, service={"base_url": url})
            assert main(["label", "--config", cfg, "--out", str(run_dir)]) == 0
        manifests = {command: manifest_files(run_dir, command)[1]
                     for command in (*ALL_COMMANDS, "label")}
        assert listed == manifests

    def test_library_use_example_runs_on_toy_fixture(self, monkeypatch):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(TOY)
        namespace = {}
        exec(example, namespace)
        assert namespace["deltas"]


def declared_entry_point():
    """The `module:attr` that `[project.scripts]` in pyproject.toml gives
    for the console script."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table line
        table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                          text, re.M | re.S)
        line = table and re.search(
            rf'^\s*"?{SCRIPT}"?\s*=\s*"([^"]*)"', table.group(1),
            re.M)
        target = line.group(1) if line else None
    else:
        target = (tomllib.loads(text).get("project", {})
                  .get("scripts", {}).get(SCRIPT))
    if not target:
        pytest.fail(f"pyproject.toml declares no [project.scripts] {SCRIPT}")
    return target


def run_script(*args, timeout):
    """Run the `pncvalence` console script with `args`.

    An installed script on PATH is run as is. From an uninstalled checkout,
    the `[project.scripts]` target is run the way the installed wrapper
    runs it, through the current interpreter with this checkout's `src`
    first on PYTHONPATH.
    """
    if not shutil.which(SCRIPT):
        module, _, attr = declared_entry_point().partition(":")
        return run_python("-c", f"import sys; sys.argv[0] = {SCRIPT!r}; "
                          f"from {module} import {attr}; sys.exit({attr}())",
                          *args, timeout=timeout)
    return subprocess.run([SCRIPT, *args], capture_output=True, text=True,
                          timeout=timeout)


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = run_script("variants", "--config", CONFIG,
                          "--out", str(tmp_path), timeout=120)
        assert proc.returncode == 0
        assert "variants" in proc.stdout
        assert (tmp_path / "variants.csv").is_file()

    def test_usage_error_without_command(self):
        proc = run_script(timeout=60)
        assert proc.returncode == 2
