"""Pipeline benchmark: generate a workload, run the seven stages, check, report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each stage runs as its own child process, ``python -m pncvalence.cli
<stage> --config ...`` with ``src`` on the path, exactly as a user runs it.
The runner is one caller in a closed loop: a stage starts only when the
previous one has exited. Wall time and peak RSS of every child come from
``os.wait4``. Whole pipelines repeat while they fit in ``--seconds``,
each round on an input set of its own drawn from ``--seed``; every
pipeline's outputs are checked against the generator's plan, and the
reported values are medians over pipelines.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced pipelines with traced ones, whose children run the stage through
``bench/spans.py``, and reports the per-layer metrics. ``--workload all``
runs every workload both ways and prints every metric. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Generated inputs live under ``.bench_runs/`` and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(BENCH))

from checker import STAGES, check_run  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import SHAPES, generate  # noqa: E402

WARMUP_PROBES = 2
END_TO_END_UNITS = {"pipeline_s": "s", "match_s": "s", "score_s": "s",
                    "regress_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer time metric -> the spans (<module>.<function>) it sums
LAYER_SPANS = {
    "corpus.read_corpus_s": ("corpus.read_corpus_jsonl",),
    "corpus.match_s": ("corpus.match_contexts",),
    "lexicon.load_s": ("lexicon.load_lexicon",),
    "lexicon.tagged_parse_s": ("lexicon.read_tagged_contexts",),
    "valence.target_valence_s": ("valence.target_valence",),
    "valence.frequent_words_s": ("valence.frequent_context_words",),
    "sentiment.read_labels_s": ("sentiment.read_label_jsonl",),
    "sentiment.label_scores_s": (
        "sentiment.kind_index", "sentiment.pool_annotators",
        "sentiment.filter_records_by_kind", "sentiment.build_histograms",
        "sentiment.eq2_valence"),
    "sentiment.iaa_s": ("sentiment.pairwise_iaa",),
    "stats.correlations_s": ("stats.pearson", "stats.spearman"),
    "regression.ols_s": ("regression.univariate_scan",
                         "regression.multivariate_suite"),
    "regression.cv_s": ("regression.cv_random_search",),
}
# per-layer count -> (span, count); a ratio divides one count by another
MATCHING = "corpus.match_contexts"
TAGGED = "lexicon.read_tagged_contexts"
SCORING = "valence.target_valence"
LAYER_COUNTS = {
    "corpus.docs": ((MATCHING, "docs"), None),
    "corpus.matches": ((MATCHING, "matches"), None),
    "corpus.doc_hit_ratio": ((MATCHING, "hit_docs"), (MATCHING, "docs")),
    "lexicon.contexts": ((TAGGED, "contexts"), None),
    "lexicon.tokens": ((TAGGED, "tokens"), None),
    "lexicon.context_use_ratio": ((SCORING, "used_contexts"), (TAGGED, "contexts")),
    "lexicon.coverage": ((SCORING, "resolved_lemmas"), (SCORING, "content_lemmas")),
    "valence.unscorable_pairs": ((SCORING, "unscorable_pairs"), None),
    "sentiment.labels": (("sentiment.read_label_jsonl", "labels"), None),
    "regression.cv_fits": (("regression.cv_random_search", "cv_fits"), None),
}


@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mb: float
    exit_code: int


@dataclass
class Pipeline:
    stages: list[StageRun]
    check_failures: dict[str, list[str]]
    # traced pipelines: the span names the stages wrapped, and the spans
    spans: tuple[set[str], list[Span]] | None

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    @property
    def attempted(self) -> int:
        return len(self.stages) + len(self.check_failures)

    @property
    def failed(self) -> int:
        return (sum(s.exit_code != 0 for s in self.stages)
                + sum(bool(f) for f in self.check_failures.values()))


def run_child(argv: list[str], log) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def run_pipeline(work: Path, spans_path: Path | None, run_id: str) -> Pipeline:
    config = str(work / "config.json")
    shutil.rmtree(work / "out", ignore_errors=True)
    stages = []
    with open(work / "stderr.log", "a", encoding="utf-8") as log:
        for stage in STAGES:
            if spans_path is None:
                argv = [sys.executable, "-m", "pncvalence.cli", stage, "--config", config]
            else:
                argv = [sys.executable, str(BENCH / "spans.py"), str(spans_path),
                        run_id, stage, "--config", config]
            log.write(f"--- {run_id} {stage}\n")
            log.flush()
            stages.append(StageRun(stage, *run_child(argv, log)))
    spans = None if spans_path is None else _read_spans(spans_path)
    return Pipeline(stages, check_run(work), spans)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            ) -> tuple[list[float], list[Pipeline], list[Pipeline]]:
    """Set-up probe times, untraced pipelines and traced pipelines."""
    run_dir = RUNS / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    draw = random.Random(seed)
    try:
        run_dir.mkdir(parents=True)
        setup: list[float] = []

        def probe() -> float:
            with open(run_dir / "stderr.log", "a", encoding="utf-8") as log:
                return run_child([sys.executable, "-c", "import pncvalence.cli"],
                                 log)[0]

        # warm-up: the first probes also write the bytecode caches every
        # stage reads, so they are not timed
        for _ in range(WARMUP_PROBES):
            probe()
        plain: list[Pipeline] = []
        spanned: list[Pipeline] = []
        deadline = time.monotonic() + seconds
        while True:
            began = time.monotonic()
            # Each round runs on inputs of its own, the first generated from
            # --seed and the others from seeds drawn from it. Some inputs
            # make a stage much slower than others (the elastic net's
            # coordinate descent needs twice the sweeps on some designs), so
            # a median over several input sets varies less from seed to seed.
            # A traced pipeline and the untraced one it is compared with
            # share their round's inputs.
            work = run_dir / f"inputs-{len(plain)}"
            generate(workload, draw.randrange(2**32) if plain else seed, work)
            if not traced:
                setup.append(probe())  # spread over the run, like the pipelines
            n = len(plain) + len(spanned)
            # traced runs alternate which side goes first
            order = [False, True] if n % 4 == 0 else [True, False]
            for trace_it in (order if traced else [False]):
                run_id = f"{workload}-{seed}-{len(plain) + len(spanned)}"
                if trace_it:
                    spans_path = run_dir / f"spans-{len(spanned)}.jsonl"
                    spanned.append(run_pipeline(work, spans_path, run_id))
                else:
                    plain.append(run_pipeline(work, None, run_id))
            # another round starts if at least half of it fits, so a run
            # measures for --seconds on average
            if time.monotonic() + (time.monotonic() - began) / 2 > deadline:
                break
        for p in plain + spanned:
            for check, failures in p.check_failures.items():
                for failure in failures:
                    print(f"check failed: {check}: {failure}", file=sys.stderr)
            for s in p.stages:
                if s.exit_code:
                    print(f"stage {s.stage} exited {s.exit_code}; see stderr below",
                          file=sys.stderr)
        if any(p.failed for p in plain + spanned):
            for log in sorted(run_dir.rglob("stderr.log")):
                sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
        return setup, plain, spanned
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _read_spans(path: Path) -> tuple[set[str], list[Span]]:
    wrapped: set[str] = set()
    spans = []
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            if "wrapped" in obj:
                wrapped.update(obj["wrapped"])
            else:
                spans.append(Span(**obj))
    return wrapped, spans


def end_to_end(setup: list[float], pipelines: list[Pipeline]) -> dict[str, float]:
    def stage_wall(name):
        return statistics.median(s.wall_s for p in pipelines for s in p.stages
                                 if s.stage == name)
    return {
        "pipeline_s": statistics.median(p.wall_s for p in pipelines),
        "match_s": stage_wall("match"),
        "score_s": stage_wall("score"),
        "regress_s": stage_wall("regress"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p.stages)
                                         for p in pipelines),
    }


def layer_metrics(pipeline: Pipeline) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one traced pipeline, plus why any metric is
    missing: a function it needs is no longer imported by pncvalence.cli, or
    the layer's data no longer has the shape its counts are taken from."""
    wrapped, spans = pipeline.spans
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    missing: set[str] = set()
    for metric, names in LAYER_SPANS.items():
        absent = set(names) - wrapped
        if absent:
            missing |= {f"{metric}: {n} is not imported by pncvalence.cli"
                        for n in absent}
            continue
        metrics[metric] = sum(s.end - s.start for s in spans if s.name in names)

    def total(span_name: str, count: str) -> float | None:
        counts = [s.counts for s in spans if s.name == span_name]
        if span_name not in wrapped or not counts or any(count not in c for c in counts):
            return None
        return sum(c[count] for c in counts)

    for metric, (num, den) in LAYER_COUNTS.items():
        value = total(*num)
        divisor = total(*den) if den else 1
        if value is None or divisor is None:
            missing.add(f"{metric}: no counts from {num[0]}" + (f" and {den[0]}" if den else ""))
            continue
        metrics[metric] = value / divisor if den else value
    for s in spans:
        if s.parent is None and s.name.startswith("cli."):
            metrics[f"{s.name}_s"] = s.end - s.start
            metrics[f"{s.name}_self_s"] = selfs[s.span_id]
    return metrics, missing


def per_layer(plain: list[Pipeline], spanned: list[Pipeline],
              ) -> tuple[dict[str, float], set[str]]:
    per_pipeline = [layer_metrics(p) for p in spanned]
    missing = set().union(*(m for _, m in per_pipeline))
    names = set().union(*(m.keys() for m, _ in per_pipeline))
    metrics = {name: statistics.median(m[name] for m, _ in per_pipeline if name in m)
               for name in sorted(names)}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in spanned)
                                   - statistics.median(p.wall_s for p in plain))
    return metrics, missing


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") or metric.endswith("coverage") else "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 ) -> tuple[dict[str, float], int, int]:
    setup, plain, spanned = measure(workload, seed, seconds, traced)
    if traced:
        metrics, missing = per_layer(plain, spanned)
        for reason in sorted(missing):
            print(f"{workload}: missing {reason}")
    else:
        metrics = end_to_end(setup, plain)
    pipelines = plain + spanned
    attempted = sum(p.attempted for p in pipelines)
    failed = sum(p.failed for p in pipelines)
    for name, value in metrics.items():
        print(f"{workload:18s} {name:28s} {value:14.6f} {unit(name)}")
    print(f"{workload:18s} {'ops_failed':28s} {failed:14d} count "
          f"of {attempted} ops_attempted ({len(pipelines)} pipelines)")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pncvalence" / "cli.py").is_file():
        print(f"error: the package source {SRC / 'pncvalence'} is missing", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in sorted(SHAPES) for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload, traced in runs:
        values, n_attempted, n_failed = run_workload(workload, args.seed,
                                                     args.seconds, traced)
        attempted += n_attempted
        failed += n_failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({f"{prefix}{k}": {"value": v, "unit": unit(k)}
                        for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
