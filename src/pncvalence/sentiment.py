"""Sentiment-label handling: classifier client, label stores, and the
label-distribution valence measure.

Besides lexicon lookups, contexts can be scored by sentiment labels from
pretrained classifiers or human annotators; a live classifier service is
reached with the standard library's urllib. A target's valence under a
label source is derived from the label distribution over its contexts:

    v(t) = (n_positive + 0.5 * n_neutral) / L_t * 10

with L_t the number of labeled contexts, so all-negative maps to 0,
all-positive to 10, and all-neutral to 5, commensurable with lexicon scores.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence, get_type_hints

from .corpus import ContextMatch
from .csvio import read_jsonl
from .errors import ClassificationError, ValidationError, check_settings
from .stats import spearman
from .valence import DeltaRecord, ScoreRecord, delta_sign

logger = logging.getLogger(__name__)

LABELS = ("negative", "neutral", "positive")
_LABEL_RANK = {"negative": 0, "neutral": 1, "positive": 2}


class LabelRecord(NamedTuple):
    """One sentiment label for one context of one target, from one source
    (a classifier model id or an annotator id)."""

    target_id: str
    context_id: str
    label: str
    source_id: str


class LabelHistogram(NamedTuple):
    target_id: str
    n_negative: int
    n_neutral: int
    n_positive: int

    @property
    def total(self) -> int:
        return self.n_negative + self.n_neutral + self.n_positive


class ContextItem(NamedTuple):
    """One text to classify, keyed back to its target and document."""

    target_id: str
    context_id: str
    text: str


# the longest wait in seconds, a day: time.sleep fails near threading.TIMEOUT_MAX
MAX_WAIT = 86_400


@dataclass(frozen=True)
class ServiceConfig:
    """Connection settings for a sentiment classification HTTP service.

    The service takes POST <base_url>/classify with {"texts": [...]} and
    answers {"labels": [...]} of equal length. A setting out of range
    raises ValidationError naming it.
    """

    base_url: str
    model_id: str = "live"
    batch_size: int = 32
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0

    @classmethod
    def from_settings(cls, /, **settings) -> ServiceConfig:
        """The config of a service block, each setting a field of its type."""
        check_settings(settings, {name: (int, float) if kind is float else kind
                                  for name, kind in get_type_hints(cls).items()})
        if "base_url" not in settings:
            raise ValidationError("base_url is required")
        return cls(**settings)

    def __post_init__(self) -> None:
        # urllib would also open file:, ftp: and data: URLs
        http = self.base_url.lower().startswith(("http://", "https://"))
        waits = ("timeout", "backoff_base", "backoff_cap")
        for key, ok, bound in (("base_url", http, "an http:// or https:// URL"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("max_retries", self.max_retries >= 0, ">= 0"),
                               ("timeout", self.timeout > 0, "> 0"),
                               ("backoff_base", self.backoff_base >= 0, ">= 0"),
                               ("backoff_cap", self.backoff_cap >= 0, ">= 0"),
                               *((k, getattr(self, k) <= MAX_WAIT, f"<= {MAX_WAIT}") for k in waits)):
            if not ok:
                raise ValidationError(f"{key} must be {bound}, got {getattr(self, key)!r}")
        # a whole number of seconds is the same setting as its float
        for key in waits:
            object.__setattr__(self, key, float(getattr(self, key)))


def classify_contexts(items: Sequence[ContextItem], config: ServiceConfig,
                      source_id: str) -> tuple[list[LabelRecord], list[str]]:
    """Label every context via the HTTP service.

    Transient failures (connection errors, 5xx) are retried per batch with
    bounded exponential backoff; a batch that stays down raises
    ClassificationError naming its context ids. A single unknown label in an
    otherwise valid response is recorded as a per-item error and the run
    continues. Returns (records, per-item error messages).
    """
    url = config.base_url.rstrip("/") + "/classify"
    records: list[LabelRecord] = []
    errors: list[str] = []
    for start in range(0, len(items), config.batch_size):
        batch = items[start:start + config.batch_size]
        labels = _classify_batch(url, batch, config)
        for item, label in zip(batch, labels):
            if label not in LABELS:
                errors.append(
                    f"{item.target_id}/{item.context_id}: unknown label {label!r}")
                continue
            records.append(LabelRecord(
                target_id=item.target_id, context_id=item.context_id,
                label=label, source_id=source_id))
    return records, errors


def _classify_batch(url: str, batch: Sequence[ContextItem],
                    config: ServiceConfig) -> list[str]:
    # imported on first use: only live classification speaks HTTP
    import http.client
    import urllib.error
    import urllib.request

    ids = [item.context_id for item in batch]
    data = json.dumps({"texts": [item.text for item in batch]}).encode("utf-8")
    last_error = None
    # doubled after each retry: backoff_base * 2 ** retries can overflow a float
    delay = min(config.backoff_base, config.backoff_cap)
    for attempt in range(config.max_retries + 1):
        if attempt:
            logger.info("retrying batch of %d after %.1fs (attempt %d)",
                        len(batch), delay, attempt + 1)
            time.sleep(delay)
            delay = min(delay * 2, config.backoff_cap)
        try:
            request = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request, timeout=config.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # a status outside 2xx
            exc.close()
            status, body = exc.code, b""
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # no reply: refused, timed out, cut off, or a malformed URL
            last_error = f"request failed: {exc}"
            continue
        if status >= 500:
            last_error = f"server error {status}"
            continue
        if status != 200:
            raise ClassificationError(
                f"classification rejected with status {status}", context_ids=ids)
        try:
            labels = json.loads(body)["labels"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ClassificationError(f"malformed response: {exc}", context_ids=ids) from exc
        if not isinstance(labels, list) or len(labels) != len(batch):
            raise ClassificationError(
                f"expected {len(batch)} labels, got "
                f"{len(labels) if isinstance(labels, list) else type(labels).__name__}",
                context_ids=ids)
        return labels
    raise ClassificationError(
        f"batch failed after {config.max_retries + 1} attempts: {last_error}",
        context_ids=ids)


def read_label_jsonl(path: str, seen: set[tuple[str, str, str]]) -> list[LabelRecord]:
    """Load label records, one JSON object per line. A (target, context,
    source) triple may appear only once, and not in seen, the triples of the
    label files read before this one; seen gains this file's triples."""

    def parse(obj: dict) -> LabelRecord:
        rec = LabelRecord(
            target_id=str(obj["target_id"]), context_id=str(obj["context_id"]),
            label=str(obj["label"]), source_id=str(obj["source_id"]))
        if rec.label not in LABELS:
            raise ValueError(f"unknown label {rec.label!r}")
        key = (rec.target_id, rec.context_id, rec.source_id)
        if key in seen:
            raise ValueError(f"duplicate label for {key}")
        seen.add(key)
        return rec

    return read_jsonl(path, parse)


def build_histograms(records: Iterable[LabelRecord]) -> list[LabelHistogram]:
    """Aggregate label records into per-target histograms, sorted by
    target_id. The records are those of one source or one pool of sources."""
    counts: dict[str, dict[str, int]] = defaultdict(
        lambda: {label: 0 for label in LABELS})
    for rec in records:
        counts[rec.target_id][rec.label] += 1
    return [
        LabelHistogram(target_id=t, n_negative=c["negative"],
                       n_neutral=c["neutral"], n_positive=c["positive"])
        for t, c in sorted(counts.items())
    ]


def pool_annotators(records: Iterable[LabelRecord],
                    annotators: Sequence[str]) -> list[LabelRecord]:
    """The labels of the listed annotators, one pool: its histograms count
    each individual judgement."""
    pool = set(annotators)
    return [r for r in records if r.source_id in pool]


def kind_index(matches: Iterable[ContextMatch]) -> dict[tuple[str, str], frozenset[str]]:
    """Map (target_id, doc_id) to the set of match kinds found there, for
    joining label records back to compound vs full-name contexts."""
    kinds: dict[tuple[str, str], set[str]] = defaultdict(set)
    for m in matches:
        kinds[(m.target_id, m.doc_id)].add(m.kind)
    return {k: frozenset(v) for k, v in kinds.items()}


def filter_records_by_kind(records: Iterable[LabelRecord],
                           kinds: Mapping[tuple[str, str], frozenset[str]],
                           kind: str) -> list[LabelRecord]:
    """Keep the label records whose (target, context) matched as the given
    kind. A context matching as both kinds counts for both."""
    return [r for r in records if kind in kinds.get((r.target_id, r.context_id), frozenset())]


def eq2_valence(hist: LabelHistogram, kind: str, approach: str) -> ScoreRecord | None:
    """Label-distribution valence for one histogram, or None when it is
    empty (unscorable)."""
    total = hist.total
    if total == 0:
        return None
    valence = (hist.n_positive + 0.5 * hist.n_neutral) / total * 10.0
    return ScoreRecord(target_id=hist.target_id, kind=kind, approach=approach,
                       valence=valence, n_contexts=total, n_context_lemmas=0)


class CompareResult(NamedTuple):
    """Per-target classification of one label-based approach's deltas against
    the lexicon-based deltas, plus aggregate shares, None when no target is
    shared."""

    n_common: int
    pct_agree: float | None
    pct_plm_more_negative: float | None
    pct_plm_more_positive: float | None
    per_target: tuple[tuple[str, str], ...]  # (target_id, class)


def compare_approaches(plm_deltas: Sequence[DeltaRecord],
                       norm_deltas: Sequence[DeltaRecord]) -> CompareResult:
    """Classify each shared target as agree / plm_more_negative /
    plm_more_positive between a label-based and the lexicon-based approach.

    The two deltas compare by delta_sign: equal signs agree, a smaller sign
    on the label side is more negative, a larger one more positive (zeros
    order between the signs, keeping the three classes a partition).
    """
    plm_approaches = {d.approach for d in plm_deltas}
    if len(plm_approaches) > 1:
        raise ValidationError(
            f"compare expects one label-based approach at a time, got {sorted(plm_approaches)}")
    plm_by_id = {d.target_id: d for d in plm_deltas}
    norm_by_id = {d.target_id: d for d in norm_deltas}
    common = sorted(set(plm_by_id) & set(norm_by_id))

    per_target: list[tuple[str, str]] = []
    for target_id in common:
        sp = delta_sign(plm_by_id[target_id].delta)
        sn = delta_sign(norm_by_id[target_id].delta)
        if sp == sn:
            cls = "agree"
        elif sp < sn:
            cls = "plm_more_negative"
        else:
            cls = "plm_more_positive"
        per_target.append((target_id, cls))

    n_common = len(common)
    counts = Counter(cls for _, cls in per_target)

    def pct(cls: str) -> float | None:
        return 100.0 * counts[cls] / n_common if n_common else None

    return CompareResult(
        n_common=n_common, pct_agree=pct("agree"),
        pct_plm_more_negative=pct("plm_more_negative"),
        pct_plm_more_positive=pct("plm_more_positive"),
        per_target=tuple(per_target))


class PairAgreement(NamedTuple):
    annotator_a: str
    annotator_b: str
    n_shared: int
    rho: float | None  # None when agreement is undefined for the pair


class AgreementResult(NamedTuple):
    pairs: tuple[PairAgreement, ...]

    @property
    def mean_rho(self) -> float | None:
        return self.mean_rho_without(None)

    def mean_rho_without(self, annotator: str | None) -> float | None:
        """Mean rho of the defined pairs, in pair order, leaving out the
        pairs of annotator; None when no such pair is defined."""
        defined = [p.rho for p in self.pairs if p.rho is not None
                   and annotator not in (p.annotator_a, p.annotator_b)]
        return sum(defined) / len(defined) if defined else None


def pairwise_iaa(records: Sequence[LabelRecord]) -> AgreementResult:
    """Inter-annotator agreement: Spearman correlation per annotator pair
    over their shared items, labels encoded ordinally (negative < neutral <
    positive). Pairs with fewer than two shared items, or whose shared
    labels are all tied on either side, have undefined agreement, which
    the means leave out; fewer than two annotators make no pair."""
    by_annotator: dict[str, dict[tuple[str, str], str]] = defaultdict(dict)
    for rec in records:
        by_annotator[rec.source_id][(rec.target_id, rec.context_id)] = rec.label

    pairs: list[PairAgreement] = []
    for a, b in combinations(sorted(by_annotator), 2):
        shared = sorted(set(by_annotator[a]) & set(by_annotator[b]))
        rho = spearman([float(_LABEL_RANK[by_annotator[a][item]]) for item in shared],
                       [float(_LABEL_RANK[by_annotator[b][item]]) for item in shared],
                       ).coefficient
        pairs.append(PairAgreement(annotator_a=a, annotator_b=b,
                                   n_shared=len(shared), rho=rho))
    return AgreementResult(pairs=tuple(pairs))
