"""Target ingestion, orthographic search variants, and context matching.

A target is a personal name compound (modifier + name head, e.g.
"Willkommens-Merkel") tied to the referent's full name. To maximize recall
against noisy social-media text, each compound is expanded into a set of
search variants (umlaut/eszett transliteration, German linking-element
toggles, singular/plural toggles, user-supplied alternative spellings, and
a bounded-gap wildcard between modifier and head). Matching runs over
NFC-normalized text; spans are reported in bytes of the normalized UTF-8
text, computed only for the spans that match.

Each document is case-folded once (see _CaseFold): every character becomes
one representative of its re.IGNORECASE class, or stays as it is when
matching is case-sensitive. On the folded text, literal variants and full
names are found with str.find, and each target's one wildcard is the pair
(folded modifier, folded head), scanned with str.find and str.startswith
(see _wildcard_spans); the fold keeps every index, so the spans are those
that the variants' own patterns find in the unfolded text.

A gate keeps the scan to the targets that can match a document. Every match
of a target contains one of its anchors (see _anchors). One pattern over all
distinct folded anchors reads each folded document once and yields, at each
position, the longest anchor that starts there (see _Gate); a target is
scanned if it owns that anchor or one of its prefixes. The gate is a
necessary condition only: the per-target scan decides what matches, exactly
as if every target were scanned in every document.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, Sequence

from .csvio import read_csv, read_jsonl
from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

DOMAINS = ("politics", "sports", "show_business", "others")
DOC_SOURCES = ("tweet", "news_sentence", "other")

# variant heuristics, in generation order
H_ORIGINAL = "original"
H_UMLAUT = "umlaut"
H_ESZETT = "eszett"
H_INTERFIX_ADD = "interfix_add"
H_INTERFIX_DROP = "interfix_drop"
H_NUMBER = "number"
H_ALT_SPELLING = "alt_spelling"
H_WILDCARD = "wildcard_pattern"

HEURISTICS = (H_ORIGINAL, H_UMLAUT, H_ESZETT, H_INTERFIX_ADD, H_INTERFIX_DROP,
              H_NUMBER, H_ALT_SPELLING, H_WILDCARD)

_UMLAUT_FOLD = str.maketrans({"ä": "ae", "ö": "oe", "ü": "ue", "Ä": "Ae", "Ö": "Oe", "Ü": "Ue"})
_ESZETT_FOLD = str.maketrans({"ß": "ss"})

# German linking elements toggled between modifier and head ("Hoffnungs-" vs
# "Hoffnung-"), and the final letters toggled for singular/plural pairs
# ("Tore-" vs "Tor-").
INTERFIXES = ("s", "es", "n", "en")
NUMBER_SUFFIXES = ("e", "en", "n", "s")

# wildcard between modifier and head: 0 to WILDCARD_MAX_GAP arbitrary
# non-newline characters (hyphen, space, hashtag, nothing, ...);
# _wildcard_spans scans this gap without re
WILDCARD_MAX_GAP = 2
WILDCARD_GAP = f".{{0,{WILDCARD_MAX_GAP}}}"


def nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


@dataclass(frozen=True)
class TargetSpec:
    """A personal name compound linked to a full name and a domain.

    A target is resolved when it is built. Every field but target_id and
    domain is NFC-normalised. modifier_surface and head_surface become the
    compound's two parts: given both, they must be pnc_surface's sides of
    one separator character; otherwise pnc_surface is split at its one
    hyphen, and a part given alone must equal its side. A compound that
    does not split raises ValidationError.
    """

    target_id: str
    pnc_surface: str
    modifier_surface: str
    head_surface: str
    first_name: str
    last_name: str
    domain: str
    alt_spellings: tuple[str, ...] = ()
    modifier_lemma: str | None = None

    def __post_init__(self) -> None:
        resolve = partial(object.__setattr__, self)
        for field in ("pnc_surface", "modifier_surface", "head_surface",
                      "first_name", "last_name"):
            resolve(field, nfc(getattr(self, field)))
        resolve("alt_spellings", tuple(map(nfc, self.alt_spellings)))
        resolve("modifier_lemma", self.modifier_lemma and nfc(self.modifier_lemma))

        pnc, mod, head = self.pnc_surface, self.modifier_surface, self.head_surface
        if mod and head:
            if not (len(pnc) == len(mod) + len(head) + 1
                    and pnc.startswith(mod) and pnc.endswith(head)):
                raise ValidationError(
                    f"target {self.target_id!r}: modifier {mod!r} and head {head!r} "
                    f"do not concatenate (with one separator) to {pnc!r}")
            return
        sides = pnc.split("-")
        if len(sides) != 2 or not all(sides):
            raise ValidationError(f"target {self.target_id!r}: cannot separate "
                                  f"modifier and head in {pnc!r}")
        for part, given, side in (("modifier", mod, sides[0]), ("head", head, sides[1])):
            if given not in ("", side):
                raise ValidationError(f"target {self.target_id!r}: {part} {given!r} "
                                      f"is not {side!r}, its side of {pnc!r}")
        resolve("modifier_surface", sides[0])
        resolve("head_surface", sides[1])

    @property
    def separator(self) -> str:
        """The one character between modifier and head in pnc_surface."""
        return self.pnc_surface[len(self.modifier_surface)]

    @property
    def full_name(self) -> str:
        return f"{self.first_name} {self.last_name}"


class Document(NamedTuple):
    """One context unit: a tweet, an already-sentence-split news line, or other."""

    doc_id: str
    text: str
    url: str | None = None


class ContextMatch(NamedTuple):
    """One occurrence of a target (as compound or full name) in a document."""

    target_id: str
    doc_id: str
    kind: str  # "pnc" | "full_name"
    matched_variant: str
    byte_start: int
    byte_end: int


def generate_variants(target: TargetSpec) -> tuple[tuple[str, str], ...]:
    """Expand a target into its ordered, deduplicated (variant, heuristic) pairs.

    The first pair is always the original surface. Heuristics are applied to
    the original one at a time (never composed): umlaut and eszett
    transliteration on modifier and head independently and jointly,
    linking-element and singular/plural toggles on the modifier,
    user-supplied alternative spellings, and a single bounded-gap wildcard,
    the regex pattern modifier + WILDCARD_GAP + head; every other variant is
    a literal string. Deterministic: repeated calls yield identical pairs.
    """
    mod, sep, head = target.modifier_surface, target.separator, target.head_surface

    entries: list[tuple[str, str]] = []
    seen: set[str] = set()

    def add(variant: str, tag: str) -> None:
        if variant not in seen:
            seen.add(variant)
            entries.append((variant, tag))

    add(target.pnc_surface, H_ORIGINAL)

    for table, tag in ((_UMLAUT_FOLD, H_UMLAUT), (_ESZETT_FOLD, H_ESZETT)):
        mod_f = mod.translate(table)
        head_f = head.translate(table)
        if mod_f != mod:
            add(mod_f + sep + head, tag)
        if head_f != head:
            add(mod + sep + head_f, tag)
        if mod_f != mod and head_f != head:
            add(mod_f + sep + head_f, tag)

    for suffix in INTERFIXES:
        add(mod + suffix + sep + head, H_INTERFIX_ADD)
    for suffix in INTERFIXES:
        if mod.endswith(suffix) and len(mod) > len(suffix):
            add(mod[: -len(suffix)] + sep + head, H_INTERFIX_DROP)

    for suffix in NUMBER_SUFFIXES:
        add(mod + suffix + sep + head, H_NUMBER)
    for suffix in NUMBER_SUFFIXES:
        if mod.endswith(suffix) and len(mod) > len(suffix):
            add(mod[: -len(suffix)] + sep + head, H_NUMBER)

    for alt in target.alt_spellings:
        if alt:
            add(alt, H_ALT_SPELLING)

    add(re.escape(mod) + WILDCARD_GAP + re.escape(head), H_WILDCARD)

    return tuple(entries)


class _CaseFold(dict):
    """Fold each character to one representative of its class under the flags.

    The representative is the smallest character of the alphabet (every
    character the targets' patterns hold) that re, with these flags, treats
    as equal to it; a character equal to none of them folds to itself.
    Folding keeps the length, one character for one, so spans found in the
    folded text index the unfolded text. re matches a literal sequence
    character by character, and its IGNORECASE equality of characters is an
    equivalence (TestCaseFold checks the classes beyond simple case pairs),
    so a string over the alphabet matches where its fold occurs in the
    text's fold. Without re.IGNORECASE the fold is the identity.

    It is a str.translate table that fills itself as characters turn up; a
    new character equal to no alphabet character costs one fullmatch.
    """

    def __init__(self, alphabet: Iterable[str], flags: int) -> None:
        super().__init__()
        self.alphabet = sorted(set(alphabet))
        self.flags = flags
        self.in_alphabet = re.compile(
            "|".join(map(re.escape, self.alphabet)), flags).fullmatch

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if self.in_alphabet(ch):
            ch = next((a for a in self.alphabet
                       if re.fullmatch(re.escape(a), ch, self.flags)), ch)
        self[code] = ch
        return ch

    def __call__(self, s: str) -> str:
        return s.translate(self)


class _CompiledTarget(NamedTuple):
    target_id: str
    # (folded literal or the wildcard's (folded modifier, folded head),
    # variant_string)
    pnc_needles: tuple[tuple[str | tuple[str, str], str], ...]
    name_needle: str  # folded full name
    name_string: str
    anchors: tuple[str, ...]  # folded


def _anchors(variants: Sequence[tuple[str, str]], head: str,
             name: str) -> tuple[str, ...]:
    """Literal strings at least one of which occurs in every match of the target.

    A literal variant is its own anchor, the wildcard pattern (modifier, gap,
    head) has the head, and the full-name pattern has the full name. An
    anchor that contains another anchor of the same target is dropped:
    wherever it matches, the shorter one matches too, with or without
    IGNORECASE. Taken shortest first, an anchor is kept unless it contains
    one kept before: containment is transitive, so that drops the same ones.
    """
    found = {name, head} | {v for v, tag in variants if tag != H_WILDCARD}
    kept: list[str] = []
    for anchor in sorted(found, key=len):
        if not any(shorter in anchor for shorter in kept):
            kept.append(anchor)
    return tuple(sorted(kept))


def _compile_targets(targets: Sequence[TargetSpec],
                     flags: int) -> tuple[_CaseFold, list[_CompiledTarget]]:
    """The case fold of all targets' patterns, and each target's needles under it.

    Literal variants and the full name become folded strings; the one
    wildcard becomes the pair (folded modifier, folded head).
    """
    expanded, alphabet = [], set()
    for target in targets:
        variants = generate_variants(target)
        expanded.append((target, variants))
        # the original surface, a literal, holds modifier and head
        alphabet.update(target.full_name,
                        *(v for v, tag in variants if tag != H_WILDCARD))
    fold = _CaseFold(alphabet, flags)
    compiled = []
    for target, variants in expanded:
        head, name = target.head_surface, target.full_name
        wildcard = (fold(target.modifier_surface), fold(head))
        compiled.append(_CompiledTarget(
            target_id=target.target_id,
            pnc_needles=tuple(
                (wildcard if tag == H_WILDCARD else fold(variant), variant)
                for variant, tag in variants),
            name_needle=fold(name),
            name_string=name,
            anchors=tuple(fold(a) for a in _anchors(variants, head, name)),
        ))
    return fold, compiled


def _wildcard_spans(mod: str, head: str, text: str) -> Iterable[tuple[int, int]]:
    """Spans of re.finditer(re.escape(mod) + WILDCARD_GAP + re.escape(head), text).

    At each occurrence of mod, from the left, gaps of WILDCARD_MAX_GAP
    characters down to none, each without a line break, are tried before
    head, the longest (greedy) first; after a hit the search resumes at its
    end, so the spans are leftmost and do not overlap.
    """
    start = text.find(mod)
    while start >= 0:
        gap_start = start + len(mod)
        for gap in range(WILDCARD_MAX_GAP, -1, -1):
            gap_end = gap_start + gap
            if "\n" not in text[gap_start:gap_end] and text.startswith(head, gap_end):
                end = gap_end + len(head)
                yield start, end
                start = text.find(mod, end)
                break
        else:
            start = text.find(mod, start + 1)


def _spans(needle: str | tuple[str, str], text: str) -> Iterable[tuple[int, int]]:
    """Leftmost non-overlapping spans of needle in text, as re.finditer gives them."""
    if isinstance(needle, str):
        start = text.find(needle)
        while start >= 0:
            end = start + len(needle)
            yield start, end
            start = text.find(needle, end)
    else:
        yield from _wildcard_spans(*needle, text)


def _match_document(doc_id: str, text: str, folded: str,
                    candidates: Iterable[_CompiledTarget],
                    include_overlaps: bool) -> list[ContextMatch]:
    def byte_at(i: int) -> int:
        return len(text[:i].encode("utf-8"))

    found: list[ContextMatch] = []
    for target in candidates:
        taken: set[tuple[int, int]] = set()
        pnc_hit = False
        for needle, variant in target.pnc_needles:
            for span in _spans(needle, folded):
                if span in taken:
                    continue  # earlier variant already claimed this occurrence
                taken.add(span)
                pnc_hit = True
                found.append(ContextMatch(
                    target_id=target.target_id, doc_id=doc_id, kind="pnc",
                    matched_variant=variant,
                    byte_start=byte_at(span[0]), byte_end=byte_at(span[1])))
        name_matches = [
            ContextMatch(
                target_id=target.target_id, doc_id=doc_id, kind="full_name",
                matched_variant=target.name_string,
                byte_start=byte_at(start), byte_end=byte_at(end))
            for start, end in _spans(target.name_needle, folded)
        ]
        if name_matches and (include_overlaps or not pnc_hit):
            found.extend(name_matches)
    return found


class _Gate:
    """The targets that can match a folded text, found in one pass over it.

    It takes each target's folded anchors, in target order. The pattern is a
    lookahead around an alternation of all
    anchors, so findall yields, at each position of the text, the longest
    anchor that starts there. Every anchor that occurs at a position is a
    prefix of that one, so the candidates are the owners of the anchors found
    and of their prefixes among the anchors, a closure computed once.

    The alternation is flat: anchors grouped by first character, the rests
    of a group longest first, so the first rest that matches is the longest.
    Its nesting depth does not grow with an anchor's length, and at each
    position re enters only the group whose first character is there.
    """

    def __init__(self, anchors: Iterable[tuple[str, ...]]) -> None:
        owners: dict[str, list[int]] = {}  # anchor -> indices of its targets
        for i, target_anchors in enumerate(anchors):
            for anchor in target_anchors:
                owners.setdefault(anchor, []).append(i)
        groups: dict[str, list[str]] = {}
        for anchor in owners:
            groups.setdefault(anchor[0], []).append(anchor[1:])
        alternation = "|".join(
            re.escape(first) + "(?:" + "|".join(
                map(re.escape, sorted(rests, key=len, reverse=True))) + ")"
            for first, rests in sorted(groups.items()))
        # with no anchors, a pattern that never matches
        self.findall = re.compile(f"(?=({alternation or '(?!)'}))").findall
        lengths = sorted({len(anchor) for anchor in owners})
        self.closure = {
            anchor: tuple(i for n in lengths if n <= len(anchor)
                          for i in owners.get(anchor[:n], ()))
            for anchor in owners}

    def __call__(self, folded: str) -> list[int]:
        """Sorted indices of the targets owning an anchor that occurs in folded."""
        return sorted({i for anchor in set(self.findall(folded))
                       for i in self.closure[anchor]})


def match_contexts(corpus: Sequence[Document], targets: Sequence[TargetSpec], *,
                   case_insensitive: bool = False,
                   include_overlaps: bool = True) -> list[ContextMatch]:
    """Find every compound and full-name occurrence of each target in the corpus.

    Each document is one context unit, a tweet or a news sentence alike.
    With include_overlaps=False, full-name matches are dropped from
    documents that also contain the compound for the same target. Output
    order is fixed by the final sort.

    Each document is folded once (see _CaseFold; the identity unless
    case_insensitive) and searched with str operations on the folded text;
    a wildcard is its (modifier, head) pair, scanned with str.find and
    str.startswith. Only the targets one of whose folded anchors it contains
    are scanned (see _anchors). One pattern over all anchors finds them in
    a single pass over the document (see _Gate). The gate is a necessary
    condition, so the result equals scanning every target in every document.
    """
    fold, compiled = _compile_targets(
        targets, re.IGNORECASE if case_insensitive else 0)
    gate = _Gate(target.anchors for target in compiled)
    matches = []
    for doc in corpus:
        text = nfc(doc.text)
        folded = fold(text)
        matches.extend(_match_document(
            doc.doc_id, text, folded, (compiled[i] for i in gate(folded)),
            include_overlaps))
    matches.sort(key=lambda m: (m.target_id, m.doc_id, m.byte_start, m.byte_end, m.kind))
    return matches


def dedupe_documents(corpus: Sequence[Document]) -> list[Document]:
    """Drop retweet-style duplicates: keep the first document per distinct URL.

    Documents without a URL never collide and are always kept. Order is stable.
    """
    seen: set[str] = set()
    kept = []
    for doc in corpus:
        if doc.url is not None:
            if doc.url in seen:
                continue
            seen.add(doc.url)
        kept.append(doc)
    return kept


def frequency_filter(matches: Iterable[ContextMatch], min_freq: int,
                     targets: Sequence[TargetSpec]) -> tuple[list[str], list[str], Counter]:
    """Partition targets into (retained, dropped) by compound match count, and
    give that count: the kind="pnc" matches of each matched target.

    A target is retained iff it has at least min_freq kind="pnc" matches.
    The targets partitioned are those of the list and those matched, so a
    listed target without a match is dropped. Both lists are sorted.
    """
    if min_freq < 1:
        raise ValidationError(f"min_freq must be >= 1, got {min_freq}")
    counts = Counter(m.target_id for m in matches if m.kind == "pnc")
    ids = set(counts) | {t.target_id for t in targets}
    retained = sorted(t for t in ids if counts[t] >= min_freq)
    dropped = sorted(t for t in ids if counts[t] < min_freq)
    return retained, dropped, counts


# ---------------------------------------------------------------------------
# file interfaces

TARGETS_FIELDS = ("target_id", "pnc_surface", "modifier_surface", "head_surface",
                  "first_name", "last_name", "domain", "alt_spellings")


def read_targets_csv(path: str) -> list[TargetSpec]:
    """Load the target list. Header columns per TARGETS_FIELDS; an optional
    trailing modifier_lemma column carries manually determined modifier lemmas.
    alt_spellings are semicolon-joined. first_name and last_name must not be
    empty: the full name " " would match every space."""
    seen_ids: set[str] = set()

    def parse(row) -> TargetSpec:
        cell = {c: (row.get(c) or "").strip() for c in TARGETS_FIELDS + ("modifier_lemma",)}
        target_id = cell["target_id"]
        if not target_id:
            raise ValueError("empty target_id")
        if target_id in seen_ids:
            raise ValueError(f"duplicate target_id {target_id!r}")
        seen_ids.add(target_id)
        for column in ("first_name", "last_name"):
            if not cell[column]:
                raise ValueError(f"empty {column} for target {target_id!r}")
        if cell["domain"] not in DOMAINS:
            raise ValueError(f"unknown domain {cell['domain']!r} for target {target_id!r}")
        cell["alt_spellings"] = tuple(a.strip() for a in cell["alt_spellings"].split(";")
                                      if a.strip())
        cell["modifier_lemma"] = cell["modifier_lemma"] or None
        return TargetSpec(**cell)

    targets = read_csv(path, TARGETS_FIELDS, parse)
    if not targets:
        raise ParseError("targets file holds no rows", path=path)
    return targets


def read_corpus_jsonl(path: str) -> list[Document]:
    """Load a corpus: one Document JSON object per line."""
    seen: set[str] = set()

    def parse(obj: dict) -> Document:
        doc_id = str(obj.get("doc_id", "")).strip()
        if not doc_id:
            raise ValueError("missing doc_id")
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        source = obj.get("source", "other")
        if source not in DOC_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        text = obj.get("text", "")
        if not isinstance(text, str):
            raise ValueError(f"text of doc {doc_id!r} is not a string")
        if not text:
            raise ValueError(f"empty text for doc {doc_id!r}")
        for key in ("url", "date"):
            if not isinstance(obj.get(key), (str, type(None))):
                raise ValueError(f"{key} of doc {doc_id!r} is not a string")
        return Document(doc_id=doc_id, text=text, url=obj.get("url"))

    return read_jsonl(path, parse)
