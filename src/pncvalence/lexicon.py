"""Valence lexicon and tagged-context handling.

The lexicon maps lemma forms to affective valence ratings on a 0..10 scale.
Context texts arrive pre-tagged (token, lemma, part-of-speech per line,
grouped per document); this module reduces them to the content-word lemmas
that valence lookups operate on.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Container, NamedTuple

from .csvio import data_lines, utf8_lines
from .errors import ParseError

# STTS tags counted as content words: common nouns, adjectives, full verbs.
CONTENT_POS_TAGS = frozenset(
    {"NN", "ADJA", "ADJD", "VVFIN", "VVIMP", "VVINF", "VVIZU", "VVPP"})

VALENCE_MIN = 0.0
VALENCE_MAX = 10.0


def lemma_key(form: str) -> str:
    """The key a lemma is stored and counted under: lowercased, then
    NFC-normalized, so that the key of a key is the key itself."""
    return unicodedata.normalize("NFC", form.lower())


class ValenceLexicon:
    """Lemma -> valence mapping with case-insensitive, NFC-normalized lookup:
    entries is keyed by lemma_key, and get keys the form looked up."""

    def __init__(self, entries: dict[str, float]):
        self.entries = entries

    def get(self, form: str) -> float | None:
        return self.entries.get(lemma_key(form))


def load_lexicon(path: str) -> ValenceLexicon:
    """Load a two-column TSV (form, valence score in 0..10).

    Each form is keyed once, by lemma_key, which can collide distinct input
    rows; the first row of a key wins. Every row is still checked.
    """
    entries: dict[str, float] = {}
    for line_no, line in data_lines(path):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(parts)}",
                             path=path, line=line_no)
        form, raw_score = parts
        key = lemma_key(form.strip())
        if not key:
            raise ParseError("empty form", path=path, line=line_no)
        try:
            score = float(raw_score)
        except ValueError as exc:
            raise ParseError(f"non-numeric score {raw_score!r}",
                             path=path, line=line_no) from exc
        if not VALENCE_MIN <= score <= VALENCE_MAX:
            raise ParseError(f"score {score} outside [0, 10]", path=path, line=line_no)
        entries.setdefault(key, score)

    if not entries:
        raise ParseError("lexicon holds no entries", path=path)
    return ValenceLexicon(entries)


def effective_lemma(surface: str, lemma: str) -> str:
    """Lemma form used for lookups; falls back to the surface when the
    tagger produced no usable lemma."""
    if lemma and lemma != "<unknown>":
        return lemma
    return surface


class TaggedToken(NamedTuple):
    surface: str
    lemma: str
    pos: str

    def effective_lemma(self) -> str:
        """This token's lemma form used for lookups (see effective_lemma)."""
        return effective_lemma(self.surface, self.lemma)


@dataclass(frozen=True)
class TaggedContext:
    doc_id: str
    lines: tuple[str, ...]  # checked surface<TAB>lemma<TAB>pos lines

    @cached_property
    def tokens(self) -> tuple[TaggedToken, ...]:
        return tuple([TaggedToken(*line.split("\t")) for line in self.lines])

    @cached_property
    def content_keys(self) -> tuple[str, ...]:
        """The lemma_key of each content word's effective lemma, in token
        order: the one content-word rule that scoring and counting read."""
        return tuple([lemma_key(effective_lemma(surface, lemma))
                      for surface, lemma, pos in (line.split("\t") for line in self.lines)
                      if pos in CONTENT_POS_TAGS])


def read_tagged_contexts(path: str, doc_ids: Container[str] | None = None,
                         ) -> list[TaggedContext]:
    """Parse pre-tagged contexts, keeping the blocks of doc_ids (all blocks
    when None) in file order. Every line of every block is checked.

    Format: a "#doc:<doc_id>" line starts a context, each following line is
    surface<TAB>lemma<TAB>pos, and a blank line (or the next header, or end
    of file) terminates it.
    """
    contexts = _read_blocks(path, doc_ids)
    if contexts is None:
        contexts = _read_lines(path, doc_ids)
    return contexts


# the block reader's read size, in characters
_CHUNK_CHARS = 1 << 20
_HEADER = "\n#doc:"
# a block's body: token lines, each starting with a non-space character and
# holding exactly two tabs, then only empty lines
_BLOCK_BODY = re.compile(r"(?:\S[^\t\n]*\t[^\t\n]*\t[^\t\n]*(?:\n|\Z))*\n*")


def _read_blocks(path: str, doc_ids: Container[str] | None,
                 ) -> list[TaggedContext] | None:
    """read_tagged_contexts for a file of well-formed blocks, checked a block
    at a time, or None for any other file: _read_lines then reads it again
    and reports what is wrong, so errors come from one place.

    A \\r, which _read_lines takes as a line end, an undecodable byte, text
    before the first header, an empty or repeated id and a body _BLOCK_BODY
    rejects all give None.
    """
    contexts = []
    seen = {""}
    pending = "\n"  # the line end before the first header
    with open(path, encoding="utf-8-sig", newline="") as fh:
        while pending:
            try:
                chunk = fh.read(_CHUNK_CHARS)
            except UnicodeDecodeError:
                return None
            if "\r" in chunk:
                return None
            text = pending + chunk
            if not text.startswith(_HEADER):
                return None
            # the last block may go on in the next chunk
            cut = text.rfind(_HEADER, 1) if chunk else len(text)
            if cut < 0:
                pending = text
                continue
            pending = text[cut:]
            for block in text[len(_HEADER):cut].split(_HEADER):
                head, _, body = block.partition("\n")
                doc_id = head.strip()
                if doc_id in seen or not _BLOCK_BODY.fullmatch(body):
                    return None
                seen.add(doc_id)
                if doc_ids is None or doc_id in doc_ids:
                    body = body.rstrip("\n")
                    contexts.append(TaggedContext(
                        doc_id, tuple(body.split("\n")) if body else ()))
    return contexts


def _read_lines(path: str, doc_ids: Container[str] | None) -> list[TaggedContext]:
    """read_tagged_contexts a line at a time: the reader that raises its
    ParseErrors."""
    blocks: dict[str, list[str] | None] = {}  # None for a block not kept
    lines: list[str] | None = None  # the open block's, if any
    for line_no, line in utf8_lines(path):
        line = line.rstrip("\r\n")
        if line.startswith("#doc:"):
            doc_id = line[len("#doc:"):].strip()
            if not doc_id:
                raise ParseError("empty doc id in header", path=path, line=line_no)
            if doc_id in blocks:
                raise ParseError(f"duplicate context for doc {doc_id!r}",
                                 path=path, line=line_no)
            lines = []
            blocks[doc_id] = lines if doc_ids is None or doc_id in doc_ids else None
            continue
        if not line.strip():
            lines = None
            continue
        if lines is None:
            raise ParseError("token line outside any #doc: block", path=path, line=line_no)
        tabs = line.count("\t")
        if tabs != 2:
            raise ParseError(f"expected 3 tab-separated fields, got {tabs + 1}",
                             path=path, line=line_no)
        lines.append(line)
    return [TaggedContext(doc_id, tuple(lines)) for doc_id, lines in blocks.items()
            if lines is not None]
