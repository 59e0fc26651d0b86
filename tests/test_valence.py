import math
import random
import unicodedata

import pytest

from pncvalence.cli import _match_record
from pncvalence.corpus import ContextMatch, TargetSpec
from pncvalence.errors import ValidationError
from pncvalence.lexicon import TaggedContext, ValenceLexicon
from pncvalence.valence import (DeltaRecord, ScoreRecord, compute_deltas,
                                delta_sign, domain_summary,
                                frequent_context_words, modifier_valence,
                                sign_summary, target_valence)


def ctx(doc_id, *lemma_pos):
    return TaggedContext(doc_id=doc_id, lines=tuple(
        "\t".join((lp[0], lp[0], lp[1])) for lp in lemma_pos))


# a lexicon that holds no lemma: every frequent word's valence is None
NO_LEXICON = ValenceLexicon({})


def match(tid, doc_id, kind="pnc"):
    return ContextMatch(target_id=tid, doc_id=doc_id, kind=kind,
                        matched_variant="v", byte_start=0, byte_end=1)


def target(tid, domain="politics", modifier_lemma=None):
    return TargetSpec(target_id=tid, pnc_surface="Beispiel-Name",
                      modifier_surface="", head_surface="", first_name="Vor",
                      last_name="Nach", domain=domain,
                      modifier_lemma=modifier_lemma)


LEX = ValenceLexicon({"gut": 8.0, "schlecht": 2.0, "tor": 5.89, "mittel": 5.0,
                      "feiern": 7.5})


def pnc_score(contexts, lexicon=LEX):
    """The record of target t matched as a compound in every context's
    document, or None when the pair is unscorable."""
    records, _ = target_valence([match("t", c.doc_id) for c in contexts],
                                {c.doc_id: c for c in contexts}, lexicon)
    return records[0] if records else None


class TestContextValence:
    def test_pooled_mean_over_lemma_bag(self):
        contexts = [ctx("d1", ("gut", "ADJD"), ("schlecht", "ADJA")),
                    ctx("d2", ("gut", "ADJD"))]
        rec = pnc_score(contexts)
        assert rec.valence == pytest.approx((8.0 + 2.0 + 8.0) / 3)
        assert rec.n_contexts == 2
        assert rec.n_context_lemmas == 3
        assert rec.approach == "norms"

    def test_function_words_and_oov_ignored(self):
        contexts = [ctx("d1", ("gut", "ADJD"), ("der", "ART"),
                        ("gut", "KON"), ("unbekannt", "NN"))]
        rec = pnc_score(contexts)
        # "der" wrong POS, "gut/KON" wrong POS, "unbekannt" out of vocabulary
        assert rec.valence == 8.0
        assert rec.n_context_lemmas == 1

    def test_unscorable_yields_none(self):
        contexts = [ctx("d1", ("unbekannt", "NN"), ("der", "ART"))]
        assert pnc_score(contexts) is None
        # a matched document without a tagged context adds nothing to the bag
        assert target_valence([match("t", "d1")], {}, LEX) == (
            [], [("t/pnc", "no content lemma found in lexicon; unscorable")])

    def test_invalid_kind_and_pooling(self):
        # a kind outside KINDS is rejected where matches.csv is read
        row = {"target_id": "t", "doc_id": "d1", "kind": "modifier",
               "matched_variant": "v", "byte_start": "0", "byte_end": "1"}
        with pytest.raises(ValueError, match="modifier"):
            _match_record(row)

    def test_brute_force_randomized(self):
        rng = random.Random(77)
        vocab = {f"w{i}": round(rng.uniform(0, 10), 3) for i in range(30)}
        lex = ValenceLexicon(vocab)
        for _ in range(100):
            contexts = []
            expected = []
            for d in range(rng.randint(1, 6)):
                pairs = []
                for _ in range(rng.randint(0, 8)):
                    w = f"w{rng.randint(0, 49)}"  # some are out of vocabulary
                    pos = rng.choice(["NN", "ADJD", "ART", "VVFIN"])
                    pairs.append((w, pos))
                    if pos != "ART" and w in vocab:
                        expected.append(vocab[w])
                contexts.append(ctx(f"d{d}", *pairs))
            rec = pnc_score(contexts, lex)
            if not expected:
                assert rec is None
            else:
                assert rec.valence == pytest.approx(
                    sum(expected) / len(expected), abs=1e-12)


class TestTargetValence:
    def test_scores_grouped_and_sorted(self):
        tagged = {"d1": ctx("d1", ("gut", "ADJD")),
                  "d2": ctx("d2", ("schlecht", "ADJA")),
                  "d3": ctx("d3", ("mittel", "NN"))}
        matches = [match("b", "d3"), match("a", "d1"),
                   match("a", "d2", kind="full_name")]
        records, notes = target_valence(matches, tagged, LEX)
        assert [(r.target_id, r.kind) for r in records] == [
            ("a", "full_name"), ("a", "pnc"), ("b", "pnc")]
        assert notes == []

    def test_duplicate_doc_counted_once(self):
        tagged = {"d1": ctx("d1", ("gut", "ADJD"))}
        # two pnc hits in the same document: the context enters the bag once
        matches = [match("a", "d1"), match("a", "d1")]
        records, _ = target_valence(matches, tagged, LEX)
        assert records[0].n_contexts == 1
        assert records[0].n_context_lemmas == 1

    def test_unscorable_pair_noted(self):
        tagged = {"d1": ctx("d1", ("unbekannt", "NN"))}
        records, notes = target_valence([match("a", "d1")], tagged, LEX)
        assert records == []
        assert notes == [("a/pnc", "no content lemma found in lexicon; unscorable")]

    def test_missing_tagged_doc_skipped_with_warning(self, caplog):
        tagged = {"d1": ctx("d1", ("gut", "ADJD"))}
        matches = [match("a", "d1"), match("a", "d9")]
        with caplog.at_level("WARNING", logger="pncvalence.valence"):
            records, _ = target_valence(matches, tagged, LEX)
        assert records[0].n_contexts == 1
        assert any("d9" in r.message for r in caplog.records)


class TestDeltas:
    def score(self, tid, kind, valence, approach="norms"):
        return ScoreRecord(target_id=tid, kind=kind, approach=approach,
                           valence=valence, n_contexts=1, n_context_lemmas=1)

    def test_delta_is_pnc_minus_name(self):
        deltas, notes = compute_deltas([self.score("a", "pnc", 5.89),
                                        self.score("a", "full_name", 4.99)])
        assert len(deltas) == 1
        assert deltas[0].delta == 5.89 - 4.99
        assert notes == []

    def test_missing_side_noted(self):
        deltas, notes = compute_deltas([self.score("a", "pnc", 5.0)])
        assert deltas == []
        assert notes == [("a/norms", "only pnc scored; no delta")]

    def test_duplicate_score_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            compute_deltas([self.score("a", "pnc", 5.0),
                            self.score("a", "pnc", 6.0)])

    def test_approaches_kept_separate(self):
        scores = [self.score("a", "pnc", 5.0), self.score("a", "full_name", 4.0),
                  self.score("a", "pnc", 3.0, approach="plm:m1"),
                  self.score("a", "full_name", 6.0, approach="plm:m1")]
        deltas, _ = compute_deltas(scores)
        by_approach = {d.approach: d.delta for d in deltas}
        assert by_approach == {"norms": 1.0, "plm:m1": -3.0}

    def test_modifier_shift_attached_for_lexicon_approach_only(self):
        t = target("a", modifier_lemma="Tor")
        scores = [self.score("a", "pnc", 5.0), self.score("a", "full_name", 4.0),
                  self.score("a", "pnc", 5.0, approach="plm:m1"),
                  self.score("a", "full_name", 4.0, approach="plm:m1")]
        deltas, _ = compute_deltas(scores, targets=[t], lexicon=LEX)
        norms = next(d for d in deltas if d.approach == "norms")
        plm = next(d for d in deltas if d.approach == "plm:m1")
        assert norms.modifier_valence == 5.89
        assert norms.modifier_delta == pytest.approx(5.89 - 5.0)
        assert plm.modifier_valence is None
        assert plm.modifier_delta is None

    def test_modifier_valence_helper(self):
        assert modifier_valence(target("a", modifier_lemma="Tor"), LEX) == 5.89
        assert modifier_valence(target("a", modifier_lemma="Floskel"), LEX) is None
        assert modifier_valence(target("a"), LEX) is None


def delta(tid, value, approach="norms"):
    return DeltaRecord(target_id=tid, approach=approach, pnc_valence=5 + value,
                       name_valence=5.0, delta=value)


class TestSummaries:
    def test_summarize_counts_and_percentages(self):
        s = sign_summary([delta("a", -1.0), delta("b", -0.5),
                          delta("c", 2.0), delta("d", 0.0)], "all")
        assert (s.n, s.n_negative, s.n_positive, s.n_zero) == (4, 2, 1, 1)
        assert s.pct_negative == 50.0
        assert s.pct_positive == 25.0
        assert s.pct_zero == 25.0
        assert s.mean_delta == pytest.approx(0.125)

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            sign_summary([], "all")

    def test_domain_summary_rows(self):
        targets = [target("a", domain="politics"), target("b", domain="sports"),
                   target("c", domain="politics")]
        deltas = [delta("a", -1.0), delta("b", 1.0), delta("c", -2.0)]
        summaries = domain_summary(deltas, targets)
        assert [s.group for s in summaries] == ["all", "politics", "sports"]
        assert summaries[0].n == 3
        assert summaries[1].n == 2
        assert summaries[1].pct_negative == 100.0

    def test_domain_summary_of_no_delta_is_empty(self):
        assert domain_summary([], [target("a")]) == []


class TestDeltaSign:
    @pytest.mark.parametrize("value, sign", [
        (-1.0, -1), (1.0, 1), (0.0, 0), (-0.0, 0),
        (0.1 + 0.2 - 0.3, 0),  # 5.6e-17 is written as 0.000000
        (4e-7, 0), (-4e-7, 0), (6e-7, 1), (-6e-7, -1), (1e-6, 1)])
    def test_sign_of_the_written_value(self, value, sign):
        assert delta_sign(value) == sign

    def test_agrees_with_the_written_value(self):
        rng = random.Random(11)
        for _ in range(10_000):
            value = rng.uniform(-2e-6, 2e-6)
            written = float(f"{value:.6f}")
            assert delta_sign(value) == delta_sign(written) == (
                (written > 0) - (written < 0))


class TestFrequentWords:
    def test_counts_and_tie_break(self):
        tagged = {"d1": ctx("d1", ("feiern", "VVFIN"), ("gold", "NN"),
                            ("feiern", "VVINF")),
                  "d2": ctx("d2", ("herrlich", "ADJD"), ("gold", "NN"),
                            ("der", "ART"))}
        matches = [match("a", "d1"), match("a", "d2")]
        lex = ValenceLexicon({"feiern": 7.5, "gold": 7.0})
        top = frequent_context_words(["a"], matches, tagged, k=10, lexicon=lex)
        assert top == [("a", "pnc", "feiern", 2, 7.5), ("a", "pnc", "gold", 2, 7.0),
                       ("a", "pnc", "herrlich", 1, None)]

    def test_lemmas_lowercased(self):
        tagged = {"d1": ctx("d1", ("Gold", "NN"), ("gold", "NN"))}
        top = frequent_context_words(["a"], [match("a", "d1")], tagged, k=10,
                                     lexicon=NO_LEXICON)
        assert top == [("a", "pnc", "gold", 2, None)]

    def test_nfc_and_nfd_spellings_count_as_one_lemma(self):
        nfc = unicodedata.normalize("NFC", "größe")
        nfd = unicodedata.normalize("NFD", "größe")
        tagged = {"d1": ctx("d1", (nfc, "NN"), (nfd, "NN"))}
        lex = ValenceLexicon({nfc: 6.0})
        top = frequent_context_words(["a"], [match("a", "d1")], tagged, k=10,
                                     lexicon=lex)
        assert top == [("a", "pnc", nfc, 2, 6.0)]

    def test_k_truncates(self):
        tagged = {"d1": ctx("d1", ("a", "NN"), ("b", "NN"), ("c", "NN"))}
        top = frequent_context_words(["a"], [match("a", "d1")], tagged, k=2,
                                     lexicon=NO_LEXICON)
        assert len(top) == 2

    def test_kind_filter(self):
        tagged = {"d1": ctx("d1", ("gut", "ADJD")),
                  "d2": ctx("d2", ("schlecht", "ADJA"))}
        matches = [match("a", "d1"), match("a", "d2", kind="full_name")]
        top = frequent_context_words(["a"], matches, tagged, k=10, lexicon=NO_LEXICON)
        assert top == [("a", "pnc", "gut", 1, None),
                       ("a", "full_name", "schlecht", 1, None)]

    def test_rows_follow_target_order_then_kinds(self):
        tagged = {"d1": ctx("d1", ("gut", "ADJD")), "d2": ctx("d2", ("alt", "ADJD")),
                  "d3": ctx("d3", ("neu", "ADJD"))}
        # b's matches come first, and its full_name match before its pnc one
        matches = [match("b", "d2", kind="full_name"), match("b", "d1"),
                   match("a", "d3"), match("c", "d1")]
        top = frequent_context_words(["b", "a", "z"], matches, tagged, k=10,
                                     lexicon=NO_LEXICON)
        assert [row[:3] for row in top] == [
            ("b", "pnc", "gut"), ("b", "full_name", "alt"), ("a", "pnc", "neu")]

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            frequent_context_words(["a"], [], {}, k=0, lexicon=NO_LEXICON)
