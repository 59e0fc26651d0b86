import codecs
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncvalence import lexicon
from pncvalence.errors import ParseError
from pncvalence.lexicon import (CONTENT_POS_TAGS, TaggedContext, TaggedToken,
                                lemma_key, load_lexicon, read_tagged_contexts)


def write_lexicon(tmp_path, body, name="lex.tsv"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


class TestLoadLexicon:
    def test_basic_load_and_lookup(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "Liebe\t8.9\nfolter\t0.89\n"))
        assert len(lex.entries) == 2
        assert lex.get("liebe") == 8.9
        assert lex.get("LIEBE") == 8.9
        assert lex.get("Folter") is not None
        assert lex.get("hass") is None

    def test_nfc_normalized_keys(self, tmp_path):
        # decomposed umlaut in the file, composed in the query
        lex = load_lexicon(write_lexicon(tmp_path, "schön\t7.5\n"))
        assert lex.get("schön") == 7.5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "# header\n\nwort\t5.0\n\n"))
        assert len(lex.entries) == 1

    def test_first_wins_policy(self, tmp_path):
        # three rows share the key "wort"; the first one is kept
        path = write_lexicon(tmp_path, "Wort\t2.0\nwort\t8.0\nWORT\t5.0\nx\t1.0\n")
        lex = load_lexicon(path)
        assert lex.entries == {"wort": 2.0, "x": 1.0}

    def test_parse_error_reports_line(self, tmp_path):
        path = write_lexicon(tmp_path, "wort\t5.0\nkaputt 3.0\n")
        with pytest.raises(ParseError) as exc:
            load_lexicon(path)
        assert exc.value.line == 2

    def test_score_out_of_range(self, tmp_path):
        with pytest.raises(ParseError, match=r"outside \[0, 10\]"):
            load_lexicon(write_lexicon(tmp_path, "wort\t10.5\n"))
        with pytest.raises(ParseError):
            load_lexicon(write_lexicon(tmp_path, "wort\t-0.1\n"))
        # a row whose key an earlier row already holds is checked all the same
        with pytest.raises(ParseError, match=r"outside \[0, 10\]"):
            load_lexicon(write_lexicon(tmp_path, "wort\t2.0\nWort\t12.0\n"))

    def test_boundary_scores_accepted(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "a\t0.0\nb\t10.0\n"))
        assert lex.get("a") == 0.0
        assert lex.get("b") == 10.0

    def test_non_numeric_score(self, tmp_path):
        with pytest.raises(ParseError, match="non-numeric"):
            load_lexicon(write_lexicon(tmp_path, "wort\tviel\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_lexicon(write_lexicon(tmp_path, "# nur Kommentar\n"))


class TestLemmaKey:
    def test_one_key_per_lowercase_lemma(self):
        # T + combining diaeresis lowercases to t + diaeresis, which NFC
        # composes to the precomposed letter
        assert lemma_key("T\u0308") == lemma_key("\u1e97") == "\u1e97"

    # capitals whose lowercase letter composes with a following mark, such
    # marks, and any letter or combining mark
    @given(st.text(st.sampled_from("HJTWYİΑΗΙΡΥΩ")
                   | st.sampled_from("\u0300\u0301\u0308\u030a\u030c\u0331\u0342\u0345")
                   | st.characters(whitelist_categories=("Lu", "Ll", "Lt", "Mn"))))
    @settings(max_examples=500)
    def test_key_of_a_key_is_itself(self, form):
        assert lemma_key(lemma_key(form)) == lemma_key(form)


def tok(surface, lemma=None, pos="NN"):
    return TaggedToken(surface=surface, lemma=lemma if lemma is not None else surface,
                       pos=pos)


class TestTaggedContexts:
    def test_parse_two_blocks(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("#doc:d1\nHunde\tHund\tNN\nbellen\tbellen\tVVFIN\n"
                     "\n#doc:d2\nschön\tschön\tADJD\n", encoding="utf-8")
        contexts = read_tagged_contexts(str(p))
        assert [c.doc_id for c in contexts] == ["d1", "d2"]
        assert contexts[0].tokens[0].lemma == "Hund"
        assert len(contexts[1].tokens) == 1

    def test_header_terminates_previous_block(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("#doc:d1\na\ta\tNN\n#doc:d2\nb\tb\tNN\n", encoding="utf-8")
        contexts = read_tagged_contexts(str(p))
        assert [len(c.tokens) for c in contexts] == [1, 1]

    def test_empty_block_allowed(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("#doc:d1\n\n#doc:d2\nb\tb\tNN\n", encoding="utf-8")
        contexts = read_tagged_contexts(str(p))
        assert contexts[0].tokens == ()

    def test_duplicate_doc_rejected(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("#doc:d1\na\ta\tNN\n\n#doc:d1\nb\tb\tNN\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_tagged_contexts(str(p))
        assert exc.value.line == 4

    def test_token_outside_block_rejected(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("a\ta\tNN\n", encoding="utf-8")
        with pytest.raises(ParseError, match="outside"):
            read_tagged_contexts(str(p))

    def test_wrong_field_count_rejected(self, tmp_path):
        p = tmp_path / "tagged.tsv"
        p.write_text("#doc:d1\na\ta\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_tagged_contexts(str(p))
        assert exc.value.line == 2

    def test_well_formed_file_is_read_a_block_at_a_time(self, tmp_path):
        # the per-line reader is only the fallback: the block reader accepts
        # the toy tagged file, with or without a byte-order mark
        p = tmp_path / "tagged.tsv"
        data = (Path(__file__).parent / "data" / "toy" / "tagged_contexts.tsv").read_bytes()
        for bom in (b"", codecs.BOM_UTF8):
            p.write_bytes(bom + data)
            contexts = lexicon._read_blocks(str(p), None)
            assert contexts and contexts == lexicon._read_lines(str(p), None)


class TestContentFilter:
    def test_content_tags(self):
        ctx = TaggedContext(doc_id="d", lines=tuple("\t".join(t) for t in (
            tok("Hund", pos="NN"), tok("der", pos="ART"), tok("schnell", pos="ADJD"),
            tok("läuft", "laufen", pos="VVFIN"), tok("und", pos="KON"),
            tok("gesehen", "sehen", pos="VVPP"), tok("er", pos="PPER"),
        )))
        assert list(ctx.content_keys) == ["hund", "schnell", "laufen", "sehen"]

    @given(st.lists(st.tuples(
        st.sampled_from(["Tor", "TORE", "Gru\u0308n", "ÄRGER", "x"]),
        st.sampled_from(["", "<unknown>", "Tor", "SCHO\u0308N", "Ärger"]),
        st.sampled_from(["NN", "ADJD", "VVPP", "NE", "ART", "$."])), max_size=12))
    @settings(max_examples=200)
    def test_content_keys_apply_the_content_rule(self, triples):
        tokens = tuple(TaggedToken(*t) for t in triples)
        ctx = TaggedContext(doc_id="d", lines=tuple("\t".join(t) for t in triples))
        assert list(ctx.content_keys) == [lemma_key(t.effective_lemma()) for t in tokens
                                          if t.pos in CONTENT_POS_TAGS]
        assert ctx.content_keys is ctx.content_keys  # derived once, then kept

    def test_tag_inventory(self):
        assert CONTENT_POS_TAGS == {"NN", "ADJA", "ADJD", "VVFIN", "VVIMP",
                                    "VVINF", "VVIZU", "VVPP"}
        # proper nouns stay out: a name is the target, not its description
        assert "NE" not in CONTENT_POS_TAGS

    def test_effective_lemma_fallback(self):
        assert tok("Tore", "<unknown>").effective_lemma() == "Tore"
        assert tok("Tore", "").effective_lemma() == "Tore"
        assert tok("Tore", "Tor").effective_lemma() == "Tor"
