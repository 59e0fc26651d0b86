import random
import re
import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncvalence.cli import RunConfig, _match_record, read_csv_artifact, write_csv_artifact
from pncvalence.corpus import (H_WILDCARD, WILDCARD_GAP, ContextMatch, Document,
                               TargetSpec, _CaseFold, _wildcard_spans,
                               dedupe_documents, frequency_filter,
                               generate_variants, match_contexts,
                               read_corpus_jsonl, read_targets_csv)
from pncvalence.errors import ParseError, ValidationError


def target(tid, pnc, first, last, domain="sports", alts=()):
    return TargetSpec(target_id=tid, pnc_surface=pnc, modifier_surface="",
                      head_surface="", first_name=first, last_name=last,
                      domain=domain, alt_spellings=tuple(alts))


KLOSE = target("klose", "Tore-Klose", "Miroslav", "Klose")
MERKEL = target("merkel", "Willkommens-Merkel", "Angela", "Merkel",
                domain="politics")


def doc(doc_id, text, url=None):
    return Document(doc_id=doc_id, text=text, url=url)


def brute_force(corpus, targets, case_insensitive=False, include_overlaps=True):
    """Reference matcher: every pattern of every target over every document,
    with a byte offset for every character position."""
    flags = re.IGNORECASE if case_insensitive else 0
    found = []
    for d in corpus:
        text = unicodedata.normalize("NFC", d.text)
        offsets = [0]
        for ch in text:
            offsets.append(offsets[-1] + len(ch.encode("utf-8")))
        for t in targets:
            taken, pnc_hit = set(), False
            for variant, tag in generate_variants(t):
                source = variant if tag == H_WILDCARD else re.escape(variant)
                for m in re.finditer(source, text, flags):
                    if m.span() in taken:
                        continue
                    taken.add(m.span())
                    pnc_hit = True
                    found.append(ContextMatch(t.target_id, d.doc_id, "pnc", variant,
                                              offsets[m.start()], offsets[m.end()]))
            name = unicodedata.normalize("NFC", t.full_name)
            names = [ContextMatch(t.target_id, d.doc_id, "full_name", name,
                                  offsets[m.start()], offsets[m.end()])
                     for m in re.finditer(re.escape(name), text, flags)]
            if names and (include_overlaps or not pnc_hit):
                found.extend(names)
    found.sort(key=lambda m: (m.target_id, m.doc_id, m.byte_start, m.byte_end, m.kind))
    return found


# few letters, so heads nest inside one another and names are shared; umlauts,
# ß and the long s (which IGNORECASE matches to "s") among them, and the
# unusual IGNORECASE classes a case fold must get right: the Kelvin sign with
# k and K, dotted and dotless i with i and I, micro sign and mu, the three
# sigmas, ß and capital ß, and the DŽ digraph's three cases
LETTERS = "aäAÄsSßnNeoöÖſ\u212akKİıiIµμΜσςΣẞǅǆǄ"
# a combining diaeresis composes under NFC; the wildcard's gap skips no line break
FILLER = LETTERS + " -#€日\u0308\n"
CASINGS = (str, str.lower, str.upper, str.swapcase)


@st.composite
def targets_and_corpus(draw):
    part = st.text(LETTERS, min_size=1, max_size=4)
    heads = draw(st.lists(part, min_size=1, max_size=4))
    targets = []
    for i in range(draw(st.integers(1, 5))):
        mod, head = draw(part), draw(st.sampled_from(heads))
        last = draw(st.one_of(st.sampled_from(heads), part))
        targets.append(TargetSpec(
            target_id=f"t{i}", pnc_surface=f"{mod}-{head}", modifier_surface=mod,
            head_surface=head, first_name=draw(st.sampled_from(("Uli", "Anna"))),
            last_name=last, domain="sports",
            alt_spellings=tuple(draw(st.lists(part, max_size=2)))))
    mentions = [m for t in targets for m in (
        *(v for v, tag in generate_variants(t) if tag != H_WILDCARD),
        t.modifier_surface + "#" + t.head_surface, t.head_surface, t.full_name)]
    piece = st.one_of(st.sampled_from(mentions), st.text(FILLER, max_size=5))
    corpus = []
    for i in range(draw(st.integers(1, 4))):
        pieces = draw(st.lists(st.tuples(piece, st.sampled_from(CASINGS)), max_size=6))
        text = draw(st.sampled_from(("", " "))).join(case(p) for p, case in pieces)
        corpus.append(doc(f"d{i}", text or "x"))
    return targets, corpus


class TestGatedMatchingEqualsBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(targets_and_corpus(), st.booleans(), st.booleans())
    def test_random_targets_and_texts(self, drawn, case_insensitive, include_overlaps):
        targets, corpus = drawn
        options = dict(case_insensitive=case_insensitive,
                       include_overlaps=include_overlaps)
        assert (match_contexts(corpus, targets, **options)
                == brute_force(corpus, targets, **options))


# characters with a meaning in a regular expression, to be matched literally
METACHARACTERS = ".()|\\*+?[]^$"


class TestGateUnderStress:
    """The gate's one pattern over all anchors, where anchors nest deeply,
    run long or hold regex metacharacters: matches equal brute_force's."""

    @pytest.mark.parametrize("case_insensitive", [False, True])
    def test_heads_nested_600_deep(self, case_insensitive):
        targets = [TargetSpec(
            target_id=f"t{n:03d}", pnc_surface=f"M-{'a' * n}", modifier_surface="M",
            head_surface="a" * n, first_name="Uli", last_name="b" * n,
            domain="sports") for n in range(1, 601)]
        corpus = [doc("d1", "M-" + "a" * 300 + " Uli bbb\nx" + "A" * 650 + "M#a")]
        options = dict(case_insensitive=case_insensitive)
        assert (match_contexts(corpus, targets, **options)
                == brute_force(corpus, targets, **options))

    def test_full_name_of_5000_characters(self):
        last = "Kl" + "o" * 4_996 + "se"
        targets = [target("long", "Tore-Klose", "Miroslav", last), KLOSE]
        corpus = [doc("d1", f"Miroslav {last} und Tore-Klose"),
                  doc("d2", f"Miroslav {last[:-1]}")]
        for case_insensitive in (False, True):
            found = match_contexts(corpus, targets, case_insensitive=case_insensitive)
            assert found == brute_force(corpus, targets,
                                        case_insensitive=case_insensitive)
            assert ("long", "d1", "full_name") in {
                (m.target_id, m.doc_id, m.kind) for m in found}

    @pytest.mark.parametrize("meta", METACHARACTERS)
    def test_metacharacters_are_literal(self, meta):
        mod, head, last = f"Spa{meta}", f"{meta}Gu{meta}ido", f"W{meta}"
        targets = [TargetSpec(
            target_id="t1", pnc_surface=f"{mod}-{head}", modifier_surface=mod,
            head_surface=head, first_name=meta, last_name=last, domain="politics",
            alt_spellings=(f"{meta}Spassi{meta}", meta * 2))]
        corpus = [doc("d1", f"{mod}-{head}, {mod}##{head} und {meta} {last}"),
                  doc("d2", f"{meta}Spassi{meta} {meta * 3} Spa-Guido"),
                  doc("d3", "SpaxxGuido Spa Gu ido W " + METACHARACTERS)]
        for case_insensitive in (False, True):
            for include_overlaps in (False, True):
                options = dict(case_insensitive=case_insensitive,
                               include_overlaps=include_overlaps)
                assert (match_contexts(corpus, targets, **options)
                        == brute_force(corpus, targets, **options))

    def test_all_metacharacters_in_one_target(self):
        meta = METACHARACTERS
        targets = [TargetSpec(
            target_id="t1", pnc_surface=f"{meta}-{meta}", modifier_surface=meta,
            head_surface=meta, first_name=meta, last_name=meta, domain="others",
            alt_spellings=(meta[::-1],))]
        corpus = [doc("d1", f"{meta}-{meta} {meta}{meta} {meta} {meta}"),
                  doc("d2", meta[::-1] + "\n" + meta)]
        assert match_contexts(corpus, targets) == brute_force(corpus, targets)


# texts over a small alphabet with a line break, so the gap's greedy tries,
# its refusal of "\n" and the resumption after a hit all show up
WILDCARD_ALPHABET = "ab\n-"


@st.composite
def wildcard_case(draw):
    word = st.text(WILDCARD_ALPHABET, min_size=1, max_size=3)
    mod = draw(word)
    head = draw(st.one_of(st.just(mod), word, st.builds(
        lambda n: mod[:n], st.integers(1, len(mod)))))
    text = draw(st.one_of(
        st.text(WILDCARD_ALPHABET, max_size=len(mod) + 1),
        st.text(WILDCARD_ALPHABET, max_size=30),
        st.lists(st.sampled_from((mod, head, "a", "b", "\n", "-", "--")),
                 max_size=8).map("".join)))
    return mod, head, text


class TestWildcardSpans:
    @settings(max_examples=500, deadline=None)
    @given(wildcard_case())
    def test_equal_to_finditer(self, case):
        mod, head, text = case
        pattern = re.escape(mod) + WILDCARD_GAP + re.escape(head)
        assert (list(_wildcard_spans(mod, head, text))
                == [m.span() for m in re.finditer(pattern, text)])

    @pytest.mark.parametrize("mod, head, text, spans", [
        ("ab", "ab", "abab", [(0, 4)]),
        ("ab", "a", "ab--a ab\na aba", [(0, 5), (11, 14)]),
        ("aa", "a", "aaaa", [(0, 4)]),
        ("ab", "b", "a", []),
        ("a", "b", "a-\nb", []),
    ])
    def test_hand_cases(self, mod, head, text, spans):
        assert list(_wildcard_spans(mod, head, text)) == spans


# the IGNORECASE classes of LETTERS, ASCII letters and a character without case
FOLD_POOL = "\u212akKİıiIµμΜσςΣßẞǅǆǄ" + string.ascii_letters + "日"


class TestCaseFold:
    def test_equal_folds_exactly_where_ignorecase_matches(self):
        fold = _CaseFold(FOLD_POOL, re.IGNORECASE)
        for a in FOLD_POOL:
            for b in FOLD_POOL:
                assert (fold(a) == fold(b)) == bool(
                    re.fullmatch(re.escape(a), b, re.IGNORECASE)), (a, b)

    def test_folds_to_the_smallest_alphabet_member(self):
        fold = _CaseFold("kK", re.IGNORECASE)
        assert fold("\u212a k K x X") == "K K K x X"

    def test_identity_without_ignorecase_or_alphabet(self):
        text = FOLD_POOL + FOLD_POOL.swapcase() + " -#\n"
        assert _CaseFold(FOLD_POOL, 0)(text) == text
        assert _CaseFold("", re.IGNORECASE)(text) == text


class TestMatchContexts:
    def test_direct_variant_hit(self):
        matches = match_contexts([doc("d1", "Sieg für Tor-Klose heute")], [KLOSE])
        assert len(matches) == 1
        m = matches[0]
        assert (m.target_id, m.kind, m.matched_variant) == ("klose", "pnc", "Tor-Klose")

    def test_full_name_hit(self):
        matches = match_contexts([doc("d1", "Miroslav Klose trifft")], [KLOSE])
        assert len(matches) == 1
        assert matches[0].kind == "full_name"
        assert matches[0].matched_variant == "Miroslav Klose"

    def test_byte_offsets_utf8(self):
        # "für " spans bytes 0-5 because ü is two bytes
        matches = match_contexts([doc("d1", "für Tore-Klose")], [KLOSE])
        assert matches[0].byte_start == 5
        assert matches[0].byte_end == 5 + len("Tore-Klose".encode())

    def test_byte_offsets_multibyte_before_name(self):
        text = "heißt Miroslav Klose"
        matches = match_contexts([doc("d1", text)], [KLOSE])
        assert matches[0].byte_start == len("heißt ".encode())

    def test_wildcard_gap_match(self):
        matches = match_contexts([doc("d1", "was für ein Tore#Klose Moment")],
                                 [KLOSE])
        assert len(matches) == 1
        assert matches[0].matched_variant == "Tore.{0,2}Klose"
        assert matches[0].kind == "pnc"

    def test_identical_span_keeps_earliest_variant(self):
        # "Tore-Klose" is hit by the original and the wildcard pattern at the
        # same span; the original is generated first and claims it
        matches = match_contexts([doc("d1", "Tore-Klose!")], [KLOSE])
        assert len(matches) == 1
        assert matches[0].matched_variant == "Tore-Klose"

    def test_case_sensitivity_default_and_flag(self):
        corpus = [doc("d1", "tore-klose war da")]
        assert match_contexts(corpus, [KLOSE]) == []
        loose = match_contexts(corpus, [KLOSE], case_insensitive=True)
        assert len(loose) == 1

    def test_include_overlaps_toggle(self):
        corpus = [doc("d1", "Tore-Klose alias Miroslav Klose")]
        both = match_contexts(corpus, [KLOSE])
        assert sorted(m.kind for m in both) == ["full_name", "pnc"]
        only_pnc = match_contexts(corpus, [KLOSE], include_overlaps=False)
        assert [m.kind for m in only_pnc] == ["pnc"]

    def test_overlap_drop_is_per_document(self):
        corpus = [doc("d1", "Tore-Klose alias Miroslav Klose"),
                  doc("d2", "Miroslav Klose allein")]
        matches = match_contexts(corpus, [KLOSE], include_overlaps=False)
        kinds = [(m.doc_id, m.kind) for m in matches]
        assert kinds == [("d1", "pnc"), ("d2", "full_name")]

    def test_overlapping_occurrences_report_the_leftmost(self):
        # as re.finditer does: after "Ha-Ha" at 0 the search resumes at 5,
        # so the occurrence starting at 3 is not reported
        ha = target("ha", "Ha-Ha", "Hans", "Ha")
        corpus = [doc("d1", "Ha-Ha-Ha"), doc("d2", "ha-hA-HA")]
        for case_insensitive in (False, True):
            matches = match_contexts(corpus, [ha], case_insensitive=case_insensitive)
            assert matches == brute_force(corpus, [ha], case_insensitive)
        assert [(m.doc_id, m.byte_start, m.byte_end) for m in matches] == [
            ("d1", 0, 5), ("d2", 0, 5)]

    def test_no_targets_no_matches(self):
        assert match_contexts([doc("d1", "Tore-Klose")], []) == []

    def test_multiple_occurrences_in_one_doc(self):
        matches = match_contexts([doc("d1", "Tore-Klose und Tore-Klose")], [KLOSE])
        assert len(matches) == 2
        assert matches[0].byte_start < matches[1].byte_start

    def test_planted_fixture_five_matches(self):
        corpus = [
            doc("d01", "Sieg für Tor-Klose heute"),          # klose pnc
            doc("d02", "nur Rauschen"),
            doc("d03", "Miroslav Klose trifft"),             # klose full_name
            doc("d04", "Willkommens-Merkel entscheidet"),    # merkel pnc
            doc("d05", "kein Treffer hier"),
            doc("d06", "Angela Merkel spricht"),             # merkel full_name
            doc("d07", "irrelevant"),
            doc("d08", "WillkommensMerkel ohne Bindestrich"),  # merkel wildcard
            doc("d09", "nichts"),
            doc("d10", "nichts"),
            doc("d11", "nichts"),
            doc("d12", "nichts"),
        ]
        matches = match_contexts(corpus, [KLOSE, MERKEL])
        assert len(matches) == 5
        assert [(m.target_id, m.doc_id, m.kind) for m in matches] == [
            ("klose", "d01", "pnc"),
            ("klose", "d03", "full_name"),
            ("merkel", "d04", "pnc"),
            ("merkel", "d06", "full_name"),
            ("merkel", "d08", "pnc"),
        ]

    def test_order_invariant_under_corpus_permutation(self):
        corpus = [doc(f"d{i}", t) for i, t in enumerate(
            ["Tore-Klose", "Miroslav Klose", "Willkommens-Merkel",
             "Angela Merkel", "Tor-Klose und Angela Merkel"])]
        base = match_contexts(corpus, [KLOSE, MERKEL])
        shuffled = corpus[:]
        random.Random(5).shuffle(shuffled)
        assert match_contexts(shuffled, [KLOSE, MERKEL]) == base


class TestDedupeDocuments:
    def test_three_docs_one_url(self):
        docs = [doc("a", "x", url="http://u/1"), doc("b", "y", url="http://u/1"),
                doc("c", "z", url="http://u/1")]
        kept = dedupe_documents(docs)
        assert [d.doc_id for d in kept] == ["a"]

    def test_absent_url_never_collides(self):
        docs = [doc("a", "x"), doc("b", "y"), doc("c", "z")]
        assert len(dedupe_documents(docs)) == 3

    def test_mixed_fixture_hand_count(self):
        # 10 docs: 8 with urls over 7 distinct values, 2 without -> 9 survive
        urls = ["u1", "u2", "u3", "u4", "u5", "u6", "u7", "u1"]
        docs = [doc(f"d{i}", "t", url=f"http://x/{u}") for i, u in enumerate(urls)]
        docs.insert(3, doc("n1", "t"))
        docs.append(doc("n2", "t"))
        kept = dedupe_documents(docs)
        assert len(kept) == 9
        assert "d7" not in [d.doc_id for d in kept]


def fake_match(tid, n):
    return [ContextMatch(target_id=tid, doc_id=f"doc{i}", kind="pnc",
                         matched_variant="v", byte_start=0, byte_end=1)
            for i in range(n)]


class TestFrequencyFilter:
    def test_boundary_inclusive(self):
        retained, dropped, _ = frequency_filter(fake_match("a", 5), 5, [])
        assert retained == ["a"] and dropped == []

    def test_below_boundary_dropped(self):
        retained, dropped, _ = frequency_filter(fake_match("a", 4), 5, [])
        assert retained == [] and dropped == ["a"]

    def test_hand_counted_fixture(self):
        matches = (fake_match("a", 7) + fake_match("b", 5) + fake_match("c", 4)
                   + fake_match("d", 1))
        retained, dropped, _ = frequency_filter(matches, 5, [])
        assert retained == ["a", "b"]
        assert dropped == ["c", "d"]

    def test_full_name_matches_do_not_count(self):
        matches = fake_match("a", 4) + [
            ContextMatch(target_id="a", doc_id="dX", kind="full_name",
                         matched_variant="First Last", byte_start=0, byte_end=1)]
        retained, _, _ = frequency_filter(matches, 5, [])
        assert retained == []

    def test_min_freq_one_retains_any_match(self):
        retained, _, _ = frequency_filter(fake_match("a", 1), 1, [])
        assert retained == ["a"]

    def test_monotone_in_min_freq(self):
        matches = (fake_match("a", 7) + fake_match("b", 5) + fake_match("c", 4)
                   + fake_match("d", 1))
        previous = None
        for mf in range(1, 10):
            retained = set(frequency_filter(matches, mf, [])[0])
            if previous is not None:
                assert retained <= previous
            previous = retained

    def test_unmatched_targets_reported_when_targets_given(self):
        retained, dropped, _ = frequency_filter(fake_match("a", 5), 5, [KLOSE, MERKEL])
        assert retained == ["a"]
        assert dropped == ["klose", "merkel"]

    def test_min_freq_validation(self):
        with pytest.raises(ValidationError):
            frequency_filter([], 0, [])

    def test_counts_helper(self):
        _, _, counts = frequency_filter(fake_match("a", 3) + fake_match("b", 1), 1, [])
        assert counts == {"a": 3, "b": 1}


class TestFileInterfaces:
    def test_targets_round_trip(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,Tore-Klose,Tore,Klose,Miroslav,Klose,sports,\n"
            "t2,Gazprom-Schröder,Gazprom,Schröder,Gerhard,Schröder,politics,"
            "Gasprom-Schröder;Gazprom Schröder\n",
            encoding="utf-8")
        targets = read_targets_csv(str(p))
        assert [t.target_id for t in targets] == ["t1", "t2"]
        assert targets[1].alt_spellings == ("Gasprom-Schröder", "Gazprom Schröder")
        assert targets[0].modifier_lemma is None

    def test_targets_optional_lemma_column(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings,modifier_lemma\n"
            "t1,Tore-Klose,Tore,Klose,Miroslav,Klose,sports,,Tor\n",
            encoding="utf-8")
        assert read_targets_csv(str(p))[0].modifier_lemma == "Tor"

    def test_targets_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,Tore-Klose,,,Miroslav,Klose,sports,\n"
            "t1,Spaß-Guido,,,Guido,Westerwelle,politics,\n",
            encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_targets_csv(str(p))
        assert exc.value.line == 3

    def test_targets_bad_domain_rejected(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,Tore-Klose,,,Miroslav,Klose,football,\n",
            encoding="utf-8")
        with pytest.raises(ParseError, match="domain"):
            read_targets_csv(str(p))

    @pytest.mark.parametrize("first, last, column", [
        ("", "", "first_name"), ("Miroslav", " ", "last_name"),
        ("", "Klose", "first_name"),
    ])
    def test_targets_empty_name_rejected(self, tmp_path, first, last, column):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,Spaß-Guido,,,Guido,Westerwelle,politics,\n"
            f"t2,Tore-Klose,,,{first},{last},sports,\n",
            encoding="utf-8")
        with pytest.raises(ParseError, match=f"empty {column} for target 't2'") as exc:
            read_targets_csv(str(p))
        assert exc.value.line == 3
        assert f"{p}:3]" in str(exc.value)

    def test_targets_missing_column_rejected(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text("target_id,pnc_surface\nt1,Tore-Klose\n", encoding="utf-8")
        with pytest.raises(ParseError, match="missing columns"):
            read_targets_csv(str(p))

    def test_targets_inseparable_pnc_rejected(self, tmp_path):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,ToreKlose,,,Miroslav,Klose,sports,\n",
            encoding="utf-8")
        with pytest.raises(ValidationError, match="t1"):
            read_targets_csv(str(p))

    @pytest.mark.parametrize("parts, message", [
        ("ToreKlose,,", "cannot separate modifier and head in 'ToreKlose'"),
        ("Tore-Klose,,Kloss", "head 'Kloss' is not 'Klose', its side of 'Tore-Klose'"),
        ("Tore-Klose,Tor,", "modifier 'Tor' is not 'Tore', its side of 'Tore-Klose'"),
        ("Tore-Klose,Tor,Klose", "do not concatenate"),
    ])
    def test_targets_unresolvable_compound_names_its_line(self, tmp_path, parts,
                                                          message):
        p = tmp_path / "targets.csv"
        p.write_text(
            "target_id,pnc_surface,modifier_surface,head_surface,"
            "first_name,last_name,domain,alt_spellings\n"
            "t1,Spaß-Guido,,,Guido,Westerwelle,politics,\n"
            f"t2,{parts},Miroslav,Klose,sports,\n",
            encoding="utf-8")
        with pytest.raises(ParseError, match=f"target 't2': .*{re.escape(message)}") as exc:
            read_targets_csv(str(p))
        assert exc.value.line == 3
        assert str(exc.value).endswith(f"[{p}:3]")

    def test_corpus_jsonl_round_trip(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"doc_id": "d1", "source": "tweet", "text": "hallo", '
            '"url": "http://x/1", "date": "2020-01-01"}\n'
            '{"doc_id": "d2", "source": "news_sentence", "text": "Zeile"}\n',
            encoding="utf-8")
        docs = read_corpus_jsonl(str(p))
        assert len(docs) == 2
        assert docs[0].url == "http://x/1"
        assert docs[1].url is None

    def test_corpus_duplicate_doc_id(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"doc_id": "d1", "source": "tweet", "text": "a"}\n'
                     '{"doc_id": "d1", "source": "tweet", "text": "b"}\n',
                     encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_corpus_jsonl(str(p))
        assert exc.value.line == 2

    def test_corpus_bad_json(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"doc_id": "d1", "source": "tweet", "text": "a"}\n{oops\n',
                     encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_corpus_jsonl(str(p))

    def test_corpus_unknown_source(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"doc_id": "d1", "source": "forum", "text": "a"}\n',
                     encoding="utf-8")
        with pytest.raises(ParseError, match="source"):
            read_corpus_jsonl(str(p))

    @pytest.mark.parametrize("bad_line, message", [
        (b"[1]", "expected a JSON object"),
        (b'{"doc_id": "d2", "source": "tweet", "text": 5}', "not a string"),
        (b'{"doc_id": "d2", "source": "tweet", "text": "a", "url": [1]}',
         "url of doc"),
        (b'{"doc_id": "d2", "source": "tweet", "text": "Kn\xffast"}', "not UTF-8"),
        (b'{"doc_id": null, "source": "tweet", "text": "a"}',
         "doc_id must be a string or an integer"),
    ])
    def test_corpus_bad_line_names_its_line(self, tmp_path, bad_line, message):
        p = tmp_path / "corpus.jsonl"
        p.write_bytes(b'{"doc_id": "d1", "source": "tweet", "text": "a"}\n\n'
                      + bad_line + b"\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_corpus_jsonl(str(p))
        assert exc.value.line == 3

    def test_matches_csv_round_trip(self, tmp_path):
        matches = match_contexts(
            [doc("d1", "für Tore-Klose und Miroslav Klose")], [KLOSE])
        cfg = RunConfig({"out_dir": ".", "seed": 1}, tmp_path)
        with cfg.publishing("match"):
            p = write_csv_artifact(cfg, "matches.csv", matches)
        text = p.read_text(encoding="utf-8")
        assert text.startswith(f"# {cfg.comment()}\n")
        assert read_csv_artifact(cfg, "matches.csv", _match_record) == matches
