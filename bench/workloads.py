"""Seeded generator for the benchmark workloads.

Each workload has a fixed shape and takes only its seed: the same
(workload, seed) pair writes byte-identical files. Next to the program's
inputs (targets, corpus, lexicon, tagged contexts, label files, metadata,
config) it writes ``plan.json``, the ground truth the output checker
compares against: the planted mentions per (target, kind, doc) and each
tagged context's content lemmas.

Planted mentions are the only places a target pattern can match. Filler
text uses the letters ``F_CONS``/``F_VOWELS`` (plus umlauts) only. Every
modifier starts with one of ``MOD_INITIALS`` followed by a four-letter
prefix unique to its target, and every name part (head, first name, last
name, nickname) starts with one of ``NAME_INITIALS``. Neither set of
initials occurs anywhere else, so a modifier stem can only begin at its own
target's mentions, and a full name only at its own person's mentions.
Mentions are always separated by filler, so no two mentions run together.

Run ``python3 bench/workloads.py --workload NAME --seed N --out DIR`` to
write one workload.
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Why each workload exists. BENCHMARK.json carries the same reasons.
WHY = {
    "targets-wide": (
        "320 targets over a corpus where most documents mention none: "
        "isolates scanning every pattern of every target over every document; "
        "scoring stays light"),
    "contexts-deep": (
        "30 targets, every document matches, as many unmatched tagged contexts "
        "as matched: isolates tagged-context parsing, scoring and their memory; "
        "a matcher gate has nothing to skip"),
    "variants-casefold": (
        "100 targets with many variants, nested heads, shared names, mixed case: "
        "runs the IGNORECASE, overlap-suppression and 2-worker paths and three "
        "classifiers plus three annotators"),
}

F_CONS = "bdghklmnprst"
F_VOWELS = "aeiou"
UMLAUTS = "äöü"
MOD_INITIALS = "QXJY"
NAME_INITIALS = "ZWVF"

CONTENT_POS = ("NN", "NN", "NN", "ADJA", "ADJD", "VVFIN", "VVINF", "VVPP")
# (surface, lemma, pos); lemmas "und", "der" and "sehr" are also in the
# lexicon, so a scorer that ignored part of speech would count them
FUNCTION_WORDS = (
    ("und", "und", "KON"), ("der", "der", "ART"), ("die", "der", "ART"),
    ("das", "der", "ART"), ("ein", "ein", "ART"), ("mit", "mit", "APPR"),
    ("in", "in", "APPR"), ("bei", "bei", "APPR"), ("oder", "oder", "KON"),
    ("sehr", "sehr", "ADV"), ("heute", "heute", "ADV"), ("nie", "nie", "ADV"),
    ("aber", "aber", "KON"))
FUNCTION_LEXICON = (("und", 5.0), ("der", 5.0), ("sehr", 6.5))
PUNCT = ((".", ".", "$."), ("!", "!", "$."), (",", ",", "$,"))

LABELS = ("negative", "neutral", "positive")
DOMAINS = ("politics", "sports", "show_business", "others")
INTERFIX_SUFFIXES = ("s", "es", "n", "en", "e")
WILDCARD_GAPS = ("#", "", " ", "--")

LEXICON_SIZE = 100_000


@dataclass(frozen=True)
class Shape:
    n_targets: int
    pnc_per_target: int
    names_per_person: int
    two_target_persons: float  # share of persons owning two targets
    nested_heads: float        # share of last names extending another's
    variant_mentions: float    # share of compound mentions in a variant form
    mentions_per_doc: int
    empty_docs: float          # docs without mentions, per mention doc
    unmatched_contexts: float  # extra tagged contexts, per corpus doc
    tag_empty_docs: bool
    unscorable_targets: int
    context_tokens: tuple[int, int]
    # levels per metadata factor, and the number of target domains. With 30
    # targets and every level, the default elastic-net design has 17 columns
    # for about 22 training rows and its CV search took 8-18 s depending on
    # the seed. With one level per factor but all four domains, its
    # coordinate descent still needed 8,000-18,000 sweeps depending on the
    # seed; with two domains, 4,000-8,000
    factor_levels: int
    classifiers: tuple[str, ...]
    annotators: tuple[str, ...]
    config: dict  # run config beyond the input paths
    mixed_case: float = 0.0
    alt_spellings: int = 0
    domains: int = len(DOMAINS)


SHAPES = {
    "targets-wide": Shape(
        n_targets=320, pnc_per_target=2, names_per_person=1,
        two_target_persons=0.05, nested_heads=0.05, variant_mentions=0.25,
        mentions_per_doc=2, empty_docs=1.1, unmatched_contexts=0.0,
        tag_empty_docs=False, unscorable_targets=4, context_tokens=(8, 16),
        factor_levels=4, classifiers=("clf-a",), annotators=("a1", "a2"),
        config={"workers": 1}),
    "contexts-deep": Shape(
        n_targets=30, pnc_per_target=85, names_per_person=85,
        two_target_persons=0.0, nested_heads=0.0, variant_mentions=0.1,
        mentions_per_doc=1, empty_docs=0.0, unmatched_contexts=1.0,
        tag_empty_docs=True, unscorable_targets=1, context_tokens=(12, 24),
        factor_levels=1, classifiers=("clf-a",), annotators=("a1", "a2"),
        domains=2, config={"workers": 1}),
    "variants-casefold": Shape(
        n_targets=100, pnc_per_target=6, names_per_person=2,
        two_target_persons=0.2, nested_heads=0.25, variant_mentions=0.7,
        mentions_per_doc=2, empty_docs=0.3, unmatched_contexts=0.0,
        tag_empty_docs=True, unscorable_targets=2, context_tokens=(8, 16),
        factor_levels=3, classifiers=("clf-a", "clf-b", "clf-c"), annotators=("a1", "a2", "a3"),
        mixed_case=0.25, alt_spellings=2,
        config={"workers": 2, "case_insensitive": True,
                "include_overlaps": False, "unit_policy": "per_sentence",
                "annotators": ["a1", "a2", "a3"]}),
}


@dataclass
class Person:
    first: str
    last: str
    targets: list[str] = field(default_factory=list)

    @property
    def full_name(self) -> str:
        return f"{self.first} {self.last}"


@dataclass
class Target:
    target_id: str
    modifier: str
    head: str
    person: Person
    domain: str
    alts: tuple[str, ...]
    unscorable: bool


class _Names:
    """Draws name parts that never equal one another (case-insensitively)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()
        self.prefixes: set[str] = set()

    def _syllables(self, n: int, umlaut: float = 0.0) -> str:
        out = []
        for _ in range(n):
            vowel = (self.rng.choice(UMLAUTS) if self.rng.random() < umlaut
                     else self.rng.choice(F_VOWELS))
            out.append(self.rng.choice(F_CONS) + vowel)
        return "".join(out)

    def _fresh(self, make) -> str:
        while True:
            word = make()
            if word.lower() not in self.used:
                self.used.add(word.lower())
                return word

    def modifier(self, fancy: bool) -> str:
        def make():
            while True:
                prefix = (self.rng.choice(MOD_INITIALS) + self.rng.choice(F_VOWELS)
                          + self.rng.choice(F_CONS) + self.rng.choice(F_VOWELS))
                if prefix.lower() not in self.prefixes:
                    break
            body = self._syllables(self.rng.randint(1, 2), 0.4 if fancy else 0.0)
            if fancy and self.rng.random() < 0.2:
                body += "ß" + self.rng.choice(F_VOWELS)
            ending = self.rng.choice(("", "", "s", "en", "n", "e") if fancy else ("", "s"))
            return prefix + body + ending
        word = self._fresh(make)
        self.prefixes.add(word[:4].lower())
        return word

    def name(self, length: int | None = None, fancy: bool = False) -> str:
        def make():
            initial = self.rng.choice(NAME_INITIALS)
            if length is not None:
                rest = "".join(self.rng.choice(F_CONS if i % 2 else F_VOWELS)
                               for i in range(length - 1))
                return initial + rest
            word = initial + self._syllables(self.rng.randint(2, 3),
                                             0.3 if fancy else 0.0)[1:]
            if fancy and self.rng.random() < 0.15:
                word += "ß" + self.rng.choice(F_VOWELS)
            return word
        return self._fresh(make)

    def extend(self, base: str) -> str:
        return self._fresh(lambda: base + self._syllables(1))


def _fold(s: str, table: dict[str, str]) -> str:
    return "".join(table.get(ch, ch) for ch in s)


_UMLAUT_FOLD = {"ä": "ae", "ö": "oe", "ü": "ue", "Ä": "Ae", "Ö": "Oe", "Ü": "Ue"}
_ESZETT_FOLD = {"ß": "ss"}


def _compound_forms(target: Target) -> list[str]:
    """Spellings of the compound other than the original that the variant
    rules promise to find: one transliteration, linking-element or
    wildcard-gap change at a time, plus the alternative spellings."""
    mod, head = target.modifier, target.head
    forms = []
    for table in (_UMLAUT_FOLD, _ESZETT_FOLD):
        mod_f, head_f = _fold(mod, table), _fold(head, table)
        if mod_f != mod:
            forms.append(f"{mod_f}-{head}")
        if head_f != head:
            forms.append(f"{mod}-{head_f}")
        if mod_f != mod and head_f != head:
            forms.append(f"{mod_f}-{head_f}")
    for suffix in INTERFIX_SUFFIXES:
        forms.append(f"{mod}{suffix}-{head}")
        if mod.endswith(suffix) and len(mod) > len(suffix):
            forms.append(f"{mod[:-len(suffix)]}-{head}")
    for gap in WILDCARD_GAPS:
        forms.append(f"{mod}{gap}{head}")
    forms.extend(target.alts)
    return forms


def _mixed_case(rng: random.Random, text: str) -> str:
    # ß has no one-character upper case, so it is left alone
    return "".join(ch if ch == "ß" else (ch.upper() if rng.random() < 0.5 else ch.lower())
                   for ch in text)


class _Generator:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.shape = SHAPES[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.names = _Names(self.rng)

    # -- vocabulary ---------------------------------------------------------

    def _lexicon(self):
        rng = self.rng
        words: dict[str, float] = {}
        while len(words) < LEXICON_SIZE:
            word = "".join(rng.choice(F_CONS) + rng.choice(F_VOWELS)
                           for _ in range(rng.randint(2, 4)))
            if rng.random() < 0.1:
                word += rng.choice("nrst")
            if word not in words:
                words[word] = round(rng.uniform(0.0, 10.0), 2)
        self.lexicon = words
        vocab = list(words)
        self.in_vocab = rng.sample(vocab, 4000)
        oov: set[str] = set()
        while len(oov) < 1500:
            word = "".join(rng.choice(F_CONS) + rng.choice(F_VOWELS)
                           for _ in range(5)) + "l"
            if word not in words:
                oov.add(word)
        self.oov_vocab = sorted(oov)

    # -- targets ------------------------------------------------------------

    def _targets(self):
        shape, rng, names = self.shape, self.rng, self.names
        fancy = self.workload == "variants-casefold"
        self.persons: list[Person] = []
        self.targets: list[Target] = []
        n_unscorable = shape.unscorable_targets
        while len(self.targets) < shape.n_targets:
            if self.persons and rng.random() < shape.nested_heads:
                last = names.extend(rng.choice(self.persons).last)
            else:
                last = names.name(fancy=fancy)
            person = Person(first=names.name(length=5), last=last)
            self.persons.append(person)
            n_own = 2 if rng.random() < shape.two_target_persons else 1
            for _ in range(min(n_own, shape.n_targets - len(self.targets))):
                roll = rng.random()
                if roll < 0.75:
                    head = person.last
                elif roll < 0.9:
                    head = person.first
                else:
                    head = names.name(fancy=fancy)
                target_id = f"t{len(self.targets) + 1:03d}"
                modifier = names.modifier(fancy)
                alts = self._alt_spellings(modifier, head)
                person.targets.append(target_id)
                self.targets.append(Target(
                    target_id=target_id, modifier=modifier, head=head,
                    person=person, domain=rng.choice(DOMAINS[:shape.domains]),
                    alts=alts,
                    unscorable=len(self.targets) < n_unscorable))

    def _alt_spellings(self, modifier: str, head: str) -> tuple[str, ...]:
        # the nickname replaces the head, so the spelling lacks the anchor; it
        # must not extend or shorten any other spelling, or one mention would
        # match at two spans
        taken = [_fold(head, table).lower() for table in (_UMLAUT_FOLD, _ESZETT_FOLD)]
        taken.append(head.lower())
        nicknames: list[str] = []
        while len(nicknames) < self.shape.alt_spellings:
            nick = self.names.name()
            if not any(nick.lower().startswith(t) or t.startswith(nick.lower())
                       for t in taken):
                taken.append(nick.lower())
                nicknames.append(nick)
        return tuple(f"{modifier}-{nick}" for nick in nicknames)

    # -- documents ----------------------------------------------------------

    def _filler_token(self, oov_only: bool):
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(FUNCTION_WORDS)
        lemma = rng.choice(self.oov_vocab if oov_only or rng.random() < 0.15
                           else self.in_vocab)
        pos = rng.choice(CONTENT_POS)
        if pos == "NN":
            surface = lemma.capitalize()
            tagged_lemma = surface
        elif pos.startswith("ADJ"):
            surface, tagged_lemma = lemma + rng.choice(("", "e", "en")), lemma
        else:
            surface, tagged_lemma = lemma + rng.choice(("t", "en", "e")), lemma
        if rng.random() < 0.05:
            # the tagger found no lemma: the surface is looked up instead
            surface, tagged_lemma = tagged_lemma, "<unknown>"
        return (surface, tagged_lemma, pos)

    def _mentions(self):
        shape, rng = self.shape, self.rng
        mentions = []  # (oov_only, kind, owner, text)
        for target in self.targets:
            variants = _compound_forms(target)
            for _ in range(shape.pnc_per_target):
                text = f"{target.modifier}-{target.head}"
                if rng.random() < shape.variant_mentions:
                    text = rng.choice(variants)
                if rng.random() < shape.mixed_case:
                    text = _mixed_case(rng, text)
                mentions.append((target.unscorable, "pnc", target, text))
        for person in self.persons:
            for _ in range(shape.names_per_person):
                text = person.full_name
                if rng.random() < shape.mixed_case:
                    text = _mixed_case(rng, text)
                mentions.append((False, "full_name", person, text))
        rng.shuffle(mentions)
        return mentions

    def _documents(self):
        shape, rng = self.shape, self.rng
        mentions = self._mentions()
        groups: list[list] = []
        i = 0
        while i < len(mentions):
            size = 1 if mentions[i][0] else rng.randint(1, shape.mentions_per_doc)
            group = [mentions[i]]
            i += 1
            while len(group) < size and i < len(mentions) and not mentions[i][0]:
                group.append(mentions[i])
                i += 1
            groups.append(group)
        n_empty = round(len(groups) * shape.empty_docs)
        groups.extend([] for _ in range(n_empty))
        rng.shuffle(groups)

        self.docs = []       # (doc_id, text)
        self.tagged = {}     # doc_id -> tokens
        self.planted = Counter()  # (target_id, kind, doc_id) -> mentions
        lo, hi = shape.context_tokens
        for n, group in enumerate(groups, start=1):
            doc_id = f"d{n:06d}"
            oov_only = any(m[0] for m in group)
            tokens = [self._filler_token(oov_only) for _ in range(rng.randint(1, 3))]
            for _, kind, owner, text in group:
                tokens.extend((part, part, "NE") for part in text.split(" "))
                tokens.extend(self._filler_token(oov_only)
                              for _ in range(rng.randint(1, 3)))
                owners = [owner.target_id] if kind == "pnc" else owner.targets
                for target_id in owners:
                    self.planted[(target_id, kind, doc_id)] += 1
            length = rng.randint(lo, hi)
            while len(tokens) < length:
                tokens.append(self._filler_token(oov_only))
            tokens.append(rng.choice(PUNCT[:2]))
            self.docs.append((doc_id, " ".join(t[0] for t in tokens)))
            if group or shape.tag_empty_docs:
                self.tagged[doc_id] = tokens
        n_unmatched = round(len(self.docs) * shape.unmatched_contexts)
        for n in range(1, n_unmatched + 1):
            tokens = [self._filler_token(False)
                      for _ in range(rng.randint(lo, hi))]
            self.tagged[f"u{n:06d}"] = tokens + [PUNCT[0]]

    # -- labels and metadata ------------------------------------------------

    def _labels(self):
        rng = self.rng
        pairs = sorted({(t, d) for (t, _, d) in self.planted})
        doc_ids = [d for d, _ in self.docs]
        bias = {t.target_id: rng.random() for t in self.targets}

        def draw(target_id):
            weights = (1.0 - bias[target_id], 0.6, 0.4 + bias[target_id])
            return rng.choices(LABELS, weights)[0]

        self.label_files = {}
        for source in self.shape.classifiers:
            rows = [(t, d, draw(t), source) for t, d in pairs]
            # labels for documents the target does not match: the pipeline
            # must ignore them. A source labels each pair at most once, as
            # the program requires
            stray: set[tuple[str, str]] = set()
            for _ in range(len(pairs) // 20):
                t = rng.choice(self.targets).target_id
                d = rng.choice(doc_ids)
                if (t, d) not in self.planted_pairs and (t, d) not in stray:
                    stray.add((t, d))
                    rows.append((t, d, draw(t), source))
            self.label_files[f"labels_{source}.jsonl"] = sorted(rows)
        self.label_files["labels_human.jsonl"] = [
            (t, d, draw(t), a) for t, d in pairs
            for a in self.shape.annotators if rng.random() < 0.7]

    def _metadata(self):
        rng = self.rng
        k = self.shape.factor_levels
        self.metadata = []
        for t in self.targets:
            self.metadata.append((
                t.target_id,
                "" if rng.random() < 0.05 else str(rng.randint(25, 85)),
                rng.choice(("male", "female")),
                rng.choice(("germany", "austria", "usa")[:k]),
                rng.choice(("west", "east", "outside")[:k]),
                rng.choice(("CDU", "SPD", "FDP", "no_party")[:k]),
                rng.choice(("not_eventive", "Finish_competition",
                            "Committing_crime", "unknown")[:k])))

    # -- output -------------------------------------------------------------

    def generate(self, out: Path) -> None:
        self._lexicon()
        self._targets()
        self._documents()
        self.planted_pairs = {(t, d) for (t, _, d) in self.planted}
        self._labels()
        self._metadata()
        out.mkdir(parents=True, exist_ok=True)
        self._write(out)

    def _write(self, out: Path) -> None:
        shape = self.shape
        source = "news_sentence" if shape.config.get("unit_policy") == "per_sentence" else "tweet"

        lines = ["target_id,pnc_surface,modifier_surface,head_surface,first_name,"
                 "last_name,domain,alt_spellings,modifier_lemma"]
        for t in self.targets:
            lines.append(",".join((
                t.target_id, f"{t.modifier}-{t.head}", t.modifier, t.head,
                t.person.first, t.person.last, t.domain, ";".join(t.alts),
                t.modifier.lower())))
        _write_lines(out / "targets.csv", lines)

        _write_lines(out / "corpus.jsonl", [
            json.dumps({"doc_id": d, "source": source, "text": text},
                       ensure_ascii=False) for d, text in self.docs])

        entries = list(self.lexicon.items())
        entries.extend((t.modifier.lower(), round(self.rng.uniform(0, 10), 2))
                       for t in self.targets)
        entries.extend(FUNCTION_LEXICON)
        # case-colliding rows after their first spelling: the first one wins
        entries.extend((w.upper(), 10.0 - v) for w, v in entries[:50])
        _write_lines(out / "lexicon.tsv", [f"{w}\t{v}" for w, v in entries])

        blocks = []
        for doc_id in sorted(self.tagged):
            blocks.append(f"#doc:{doc_id}")
            blocks.extend("\t".join(tok) for tok in self.tagged[doc_id])
            blocks.append("")
        _write_lines(out / "tagged_contexts.tsv", blocks)

        for name, rows in self.label_files.items():
            _write_lines(out / name, [
                json.dumps({"target_id": t, "context_id": d, "label": label,
                            "source_id": s}) for t, d, label, s in rows])

        _write_lines(out / "metadata.csv",
                     ["target_id,age,gender,nationality,birthplace,party,frame"]
                     + [",".join(row) for row in self.metadata])

        config = {
            "targets": "targets.csv", "corpus": "corpus.jsonl",
            "lexicon": "lexicon.tsv", "tagged_contexts": "tagged_contexts.tsv",
            "metadata": "metadata.csv", "out_dir": "out",
            "label_files": [f"labels_{s}.jsonl" for s in shape.classifiers],
            "human_label_file": "labels_human.jsonl",
        }
        config.update(shape.config)
        (out / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                         encoding="utf-8")

        plan = {
            "workload": self.workload,
            "seed": self.seed,
            "why": WHY[self.workload],
            "mentions": [[t, k, d, n] for (t, k, d), n in sorted(self.planted.items())],
            "contexts": {doc_id: [_effective_lemma(tok).lower() for tok in tokens
                                  if tok[2] in CONTENT_POS]
                         for doc_id, tokens in sorted(self.tagged.items())},
        }
        (out / "plan.json").write_text(json.dumps(plan, ensure_ascii=False) + "\n",
                                       encoding="utf-8")


def _effective_lemma(token) -> str:
    surface, lemma, _ = token
    return surface if lemma == "<unknown>" else lemma


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs, config.json and plan.json of one workload to out."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(SHAPES)}")
    _Generator(workload, seed).generate(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
