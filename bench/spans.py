"""Span recorder for the traced run, and the traced stage entry point.

The traced run measures each layer from outside the program: it wraps every
function that ``pncvalence.cli`` imports from the other package modules in
a span, and runs the stage inside a root span ``cli.<stage>``. Nothing in
the package changes. Spans stay in memory and are appended as JSON lines to
a file outside the run's out_dir when the stage ends.

Usage: ``python3 bench/spans.py SPANS_JSONL RUN_ID STAGE --config CONFIG``
with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: str
    name: str
    start: float
    end: float
    parent: str | None
    run_id: str
    counts: dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Records nested spans of one process; all share one run id."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].span_id if self._open else None
        span = Span(span_id=f"{os.getpid()}-{len(self.spans)}", name=name,
                    start=self.clock(), end=float("nan"), parent=parent,
                    run_id=self.run_id)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(arguments, result) -> counts, taken after
        the span closes so counting does not inflate the layer's time."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    span.counts = count(bound.arguments, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    span.counts = {}  # the layer's data changed shape
            return result
        return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.span_id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


# -- counts taken at layer boundaries ---------------------------------------

def _count_matching(args, matches):
    return {"docs": len(args["corpus"]), "matches": len(matches),
            "hit_docs": len({m.doc_id for m in matches})}


def _count_tagged(args, contexts):
    return {"contexts": len(contexts), "tokens": sum(len(c.tokens) for c in contexts)}


def _count_scoring(args, result):
    from pncvalence.lexicon import CONTENT_POS_TAGS
    tagged, lexicon = args["tagged"], args["lexicon"]
    used = {m.doc_id for m in args["matches"]} & tagged.keys()
    content = resolved = 0
    for doc_id in used:
        for token in tagged[doc_id].tokens:
            if token.pos in CONTENT_POS_TAGS:
                content += 1
                resolved += lexicon.get(token.effective_lemma()) is not None
    return {"unscorable_pairs": len(result[1]), "used_contexts": len(used),
            "content_lemmas": content, "resolved_lemmas": resolved}


def _count_labels(args, records):
    return {"labels": len(records)}


def _count_cv_fits(args, result):
    return {"cv_fits": args["n_candidates"] * args["n_repeats"] * args["n_folds"] + 1}


COUNTERS = {
    "match_contexts": _count_matching,
    "read_tagged_contexts": _count_tagged,
    "target_valence": _count_scoring,
    "read_label_jsonl": _count_labels,
    "cv_random_search": _count_cv_fits,
}


def install(recorder: SpanRecorder, cli) -> list[str]:
    """Wrap every function cli imported from another package module; the
    span is named <module>.<function>. Returns the span names."""
    names = []
    for attr, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (inspect.isfunction(obj) and module.startswith("pncvalence.")
                and module != cli.__name__):
            name = f"{module.rsplit('.', 1)[1]}.{attr}"
            setattr(cli, attr, recorder.wrap(name, obj, COUNTERS.get(attr)))
            names.append(name)
    return names


def main(argv: list[str]) -> int:
    spans_path, run_id, stage = argv[:3]
    from pncvalence import cli
    recorder = SpanRecorder(run_id)
    wrapped = install(recorder, cli)
    code = 1
    try:
        with recorder.span(f"cli.{stage}"):
            code = cli.main(argv[2:])
    finally:
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": run_id, "stage": stage,
                                 "wrapped": wrapped}) + "\n")
            for span in recorder.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
