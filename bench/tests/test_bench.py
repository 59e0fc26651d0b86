"""Tests of the benchmark's own parts: generator, output checker, spans.

Run with ``python3 -m pytest -q bench/tests``.
"""

import csv
import json
import shutil
from pathlib import Path

import pytest

import checker
import run
from spans import Span, SpanRecorder, install, self_times
from workloads import generate


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    generate("variants-casefold", 5, tmp_path / "a")
    generate("variants-casefold", 5, tmp_path / "b")
    generate("variants-casefold", 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert set(a) == set(c)
    assert a["corpus.jsonl"] != c["corpus.jsonl"]


def test_each_source_labels_a_pair_at_most_once(tmp_path):
    # on this seed two stray labels of clf-a draw the same pair; the program
    # rejects a second label for a pair as a duplicate
    generate("contexts-deep", 4, tmp_path)
    for path in tmp_path.glob("labels_*.jsonl"):
        keys = [(r["target_id"], r["context_id"], r["source_id"])
                for r in map(json.loads, path.read_text(encoding="utf-8").splitlines())]
        assert len(keys) == len(set(keys)), path.name


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    from pncvalence import cli
    work = tmp_path_factory.mktemp("work")
    generate("variants-casefold", 3, work)
    for stage in checker.STAGES:
        assert cli.main([stage, "--config", str(work / "config.json")]) == 0
    return work


@pytest.fixture
def work(finished_run, tmp_path):
    copy = tmp_path / "work"
    shutil.copytree(finished_run, copy)
    return copy


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    comment = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(comment)
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _failing(work: Path) -> set[str]:
    return {name for name, failures in checker.check_run(work).items() if failures}


def test_checker_passes_the_current_pipeline(finished_run):
    assert checker.check_run(finished_run) == {c.__name__: [] for c in checker.CHECKS}


def test_checker_flags_a_dropped_match_row(work):
    _rewrite(work / "out" / "matches.csv", lambda rows: rows[:-1])
    assert _failing(work) == {"check_match_counts"}


def test_checker_flags_a_perturbed_norms_valence(work):
    def perturb(rows):
        rows[0]["valence"] = f"{float(rows[0]['valence']) + 1e-4:.6f}"
        return rows
    _rewrite(work / "out" / "scores.csv", perturb)
    assert _failing(work) == {"check_norms_valence"}


def test_checker_flags_a_perturbed_label_valence(work):
    def perturb(rows):
        rows[-1]["valence"] = f"{float(rows[-1]['valence']) - 0.5:.6f}"
        return rows
    _rewrite(work / "out" / "plm_scores.csv", perturb)
    assert _failing(work) == {"check_label_valence"}


def test_checker_flags_a_missing_report_artifact(work):
    (work / "out" / "report" / "fig1.json").unlink()
    assert _failing(work) == {"check_artifacts"}


def test_checker_accepts_full_precision_numbers(work):
    # artifacts written at repr precision differ from the 6-decimal ones by
    # less than the rounding step
    def widen(rows):
        for row in rows:
            row["valence"] = repr(float(row["valence"]) + 4e-7)
        return rows
    _rewrite(work / "out" / "scores.csv", widen)
    assert _failing(work) == set()


def test_checker_reports_an_unreadable_artifact(work):
    (work / "out" / "scores.csv").write_text("# header\nnot,a,scores,file\n1,2,3,4\n")
    assert _failing(work) == {"check_norms_valence"}


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id=span_id, name=name, start=start, end=end, parent=parent,
                run_id="r")


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, "root"),
        _span("a1", 2.0, 3.0, "a"),
        _span("b", 3.0, 6.0, "root"),      # overlaps a: counted once
        _span("c", 8.0, 12.0, "root"),     # runs past root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 10.0 - 5.0 - 2.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0})


def test_recorder_nests_spans_and_counts_outside_them():
    ticks = iter(range(100))
    recorder = SpanRecorder("run-1", clock=lambda: float(next(ticks)))

    def layer(items):
        return items * 2

    wrapped = recorder.wrap("mod.layer", layer, lambda args, result: {"n": len(args["items"])})
    with recorder.span("cli.stage"):
        assert wrapped([1, 2]) == [1, 2, 1, 2]
    root, child = recorder.spans
    assert (root.name, root.parent, child.parent) == ("cli.stage", None, root.span_id)
    assert child.counts == {"n": 2}
    assert {s.run_id for s in recorder.spans} == {"run-1"}
    assert self_times(recorder.spans)[root.span_id] == 2.0


def test_install_wraps_the_layer_functions_cli_imports():
    import types

    from pncvalence import cli
    module = types.ModuleType("pncvalence.cli")
    module.__dict__.update(vars(cli))
    names = install(SpanRecorder("r"), module)
    assert {"corpus.match_contexts", "lexicon.read_tagged_contexts",
            "valence.target_valence", "regression.cv_random_search"} <= set(names)
    assert module.match_contexts is not cli.match_contexts


def test_a_layer_no_longer_imported_is_missing_not_zero():
    spans = [_span("root", 0.0, 5.0, name="cli.match"),
             _span("m", 1.0, 4.0, "root", name="corpus.match_contexts")]
    spans[1].counts = {"docs": 10, "matches": 4, "hit_docs": 2}
    wrapped = {"corpus.match_contexts"}
    pipeline = run.Pipeline(stages=[], check_failures={}, spans=(wrapped, spans))
    metrics, missing = run.layer_metrics(pipeline)
    assert metrics["corpus.match_s"] == 3.0
    assert metrics["corpus.doc_hit_ratio"] == 0.2
    assert metrics["cli.match_self_s"] == 2.0
    assert "lexicon.load_s" not in metrics
    assert any(m.startswith("lexicon.load_s:") for m in missing)
