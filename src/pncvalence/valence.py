"""Context valence scores and compound-vs-name comparisons.

The lexicon-based valence of a target is the mean rating of all content-word
lemmas found in the lexicon across the target's matched contexts:

    v(t) = (1 / |W_t|) * sum(valence(w) for w in W_t)

where W_t is the bag of resolved content lemmas. A target with an empty bag
is unscorable and yields no record. The evaluative shift of a compound is
the difference between its score and the score of the bare full name,
delta = v(pnc) - v(name); for the lexicon-based approach the shift of the
modifier itself, delta_mod = v(modifier) - v(pnc), is reported too.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import Counter, defaultdict
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import ContextMatch, TargetSpec
from .errors import ValidationError
from .lexicon import TaggedContext, ValenceLexicon

logger = logging.getLogger(__name__)

KINDS = ("pnc", "full_name")

# decimals of every valence and delta written to an artifact
DECIMALS = 6

# an item left out of scoring and the reason, e.g. ("t6/pnc", "... unscorable")
Note = tuple[str, str]


def delta_sign(delta: float) -> int:
    """-1, 0 or 1: the sign of a delta as written with DECIMALS decimals.

    Every sign count and sign comparison goes through here, so a delta that
    rounds to 0.000000 counts as zero whether it comes from memory or from a
    delta file.
    """
    written = round(delta, DECIMALS)
    return (written > 0) - (written < 0)


class ScoreRecord(NamedTuple):
    """Valence score for one (target, kind) under one scoring approach.

    approach is "norms" for lexicon-based scores, "plm:<model_id>" for scores
    derived from a classifier's label distribution, or "human" for scores
    from pooled manual annotation. For label-distribution scores,
    n_context_lemmas is 0 and n_contexts is the number of labeled contexts.
    """

    target_id: str
    kind: str
    approach: str
    valence: float
    n_contexts: int
    n_context_lemmas: int


class DeltaRecord(NamedTuple):
    """Compound-minus-name valence shift for one target under one approach."""

    target_id: str
    approach: str
    pnc_valence: float
    name_valence: float
    delta: float
    modifier_valence: float | None = None
    modifier_delta: float | None = None


def _docs_by_pair(matches: Iterable[ContextMatch]) -> dict[tuple[str, str], dict[str, None]]:
    """(target_id, kind) -> the ids of the documents it matched, each once, in
    the order of their first match (the dict keys)."""
    docs: dict[tuple[str, str], dict[str, None]] = defaultdict(dict)
    for m in matches:
        docs[(m.target_id, m.kind)][m.doc_id] = None
    return docs


def target_valence(matches: Iterable[ContextMatch],
                   tagged: Mapping[str, TaggedContext], lexicon: ValenceLexicon,
                   ) -> tuple[list[ScoreRecord], list[Note]]:
    """Score every (target, kind) pair that has matches and tagged contexts.

    The bag W_t pools the content lemmas of each matched document once.
    tagged maps doc_id to its tagged context; matched documents without an
    entry are skipped with a warning. Returns the records sorted by
    (target_id, kind) plus a note on each unscorable pair.
    """
    docs = _docs_by_pair(matches)
    records: list[ScoreRecord] = []
    notes: list[Note] = []
    missing_docs: set[str] = set()
    for (target_id, kind) in sorted(docs):
        contexts = []
        for doc_id in docs[(target_id, kind)]:
            ctx = tagged.get(doc_id)
            if ctx is None:
                missing_docs.add(doc_id)
                continue
            contexts.append(ctx)
        bag = [v for c in contexts for v in map(lexicon.entries.get, c.content_keys)
               if v is not None]
        if not bag:
            notes.append((f"{target_id}/{kind}",
                          "no content lemma found in lexicon; unscorable"))
            continue
        records.append(ScoreRecord(
            target_id=target_id, kind=kind, approach="norms",
            valence=math.fsum(bag) / len(bag), n_contexts=len(contexts),
            n_context_lemmas=len(bag)))
    if missing_docs:
        logger.warning("no tagged context for %d matched document(s): %s",
                       len(missing_docs), ", ".join(sorted(missing_docs)[:5]))
    return records, notes


def modifier_valence(target: TargetSpec, lexicon: ValenceLexicon) -> float | None:
    """Lexicon rating of the compound's modifier lemma, when one is given
    and present in the lexicon."""
    if target.modifier_lemma is None:
        return None
    return lexicon.get(target.modifier_lemma)


def compute_deltas(scores: Sequence[ScoreRecord],
                   targets: Sequence[TargetSpec] | None = None,
                   lexicon: ValenceLexicon | None = None,
                   ) -> tuple[list[DeltaRecord], list[Note]]:
    """Pair pnc and full_name scores per (target, approach) and take the
    difference. Targets lacking either side are reported in the notes, not
    silently dropped. For the lexicon-based approach, when the lexicon is
    supplied with targets that list every scored target, modifier valence
    and its shift against the compound are attached.
    """
    by_pair: dict[tuple[str, str], dict[str, ScoreRecord]] = defaultdict(dict)
    for rec in scores:
        slot = by_pair[(rec.target_id, rec.approach)]
        if rec.kind in slot:
            raise ValidationError(
                f"duplicate score for target {rec.target_id!r} kind {rec.kind!r} "
                f"approach {rec.approach!r}")
        slot[rec.kind] = rec

    target_by_id = {t.target_id: t for t in targets} if targets else {}
    deltas: list[DeltaRecord] = []
    notes: list[Note] = []
    for (target_id, approach) in sorted(by_pair):
        slot = by_pair[(target_id, approach)]
        if "pnc" not in slot or "full_name" not in slot:
            have = ", ".join(sorted(slot))
            notes.append((f"{target_id}/{approach}", f"only {have} scored; no delta"))
            continue
        pnc_v = slot["pnc"].valence
        name_v = slot["full_name"].valence
        mod_v = None
        mod_delta = None
        if approach == "norms" and lexicon is not None:
            mod_v = modifier_valence(target_by_id[target_id], lexicon)
            if mod_v is not None:
                mod_delta = mod_v - pnc_v
        deltas.append(DeltaRecord(
            target_id=target_id, approach=approach,
            pnc_valence=pnc_v, name_valence=name_v, delta=pnc_v - name_v,
            modifier_valence=mod_v, modifier_delta=mod_delta))
    return deltas, notes


class SignSummary(NamedTuple):
    """How many deltas of one group fall below, above and at zero (delta_sign)."""

    group: str
    n: int
    n_negative: int
    n_positive: int
    n_zero: int
    mean_delta: float
    pct_negative: float
    pct_positive: float
    pct_zero: float


def sign_summary(deltas: Sequence[DeltaRecord], group: str) -> SignSummary:
    if not deltas:
        raise ValidationError(f"group {group!r} holds no deltas")
    n = len(deltas)
    signs = Counter(delta_sign(d.delta) for d in deltas)
    return SignSummary(
        group=group, n=n, n_negative=signs[-1], n_positive=signs[1], n_zero=signs[0],
        mean_delta=math.fsum(d.delta for d in deltas) / n,
        pct_negative=100.0 * signs[-1] / n, pct_positive=100.0 * signs[1] / n,
        pct_zero=100.0 * signs[0] / n)


def domain_summary(deltas: Sequence[DeltaRecord], targets: Sequence[TargetSpec],
                   ) -> list[SignSummary]:
    """Delta sign breakdown per domain (plus an 'all' row), for one approach's
    deltas, each of a target in targets."""
    domain_by_id = {t.target_id: t.domain for t in targets}
    by_domain: dict[str, list[DeltaRecord]] = defaultdict(list)
    for d in deltas:
        by_domain[domain_by_id[d.target_id]].append(d)
    summaries = [sign_summary(deltas, "all")] if deltas else []
    return summaries + [sign_summary(by_domain[domain], domain)
                        for domain in sorted(by_domain)]


def sign_breakdown(deltas: Sequence[DeltaRecord]) -> list[SignSummary]:
    """Delta sign breakdown per approach, sorted by approach."""
    by_approach: dict[str, list[DeltaRecord]] = defaultdict(list)
    for d in deltas:
        by_approach[d.approach].append(d)
    return [sign_summary(by_approach[a], a) for a in sorted(by_approach)]


def frequent_context_words(target_ids: Sequence[str],
                           matches: Iterable[ContextMatch],
                           tagged: Mapping[str, TaggedContext], k: int,
                           lexicon: ValenceLexicon,
                           ) -> list[tuple[str, str, str, int, float | None]]:
    """Top-k most frequent content lemmas in the matched contexts of each
    target and kind, counted by lemma_key as the lexicon keys them, with
    their lexicon valence, None for a lemma the lexicon lacks: (target_id,
    kind, lemma, count, valence) rows, in target_ids order, then KINDS
    order. Ties break lexicographically."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    docs = _docs_by_pair(matches)
    rows = []
    for target_id in target_ids:
        for kind in KINDS:
            counts: Counter = Counter()
            for doc_id in docs.get((target_id, kind), ()):
                ctx = tagged.get(doc_id)
                if ctx is None:
                    continue
                counts.update(ctx.content_keys)
            for w, c in heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0])):
                rows.append((target_id, kind, w, c, lexicon.entries.get(w)))
    return rows
