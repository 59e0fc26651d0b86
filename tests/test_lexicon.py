import pytest

from pncvalence.errors import ParseError, ValidationError
from pncvalence.lexicon import (CONTENT_POS_TAGS, TaggedContext, TaggedToken,
                                filter_content_tokens, load_lexicon,
                                read_tagged_contexts)


def write_lexicon(tmp_path, body, name="lex.tsv"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


class TestLoadLexicon:
    def test_basic_load_and_lookup(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "Liebe\t8.9\nfolter\t0.89\n"))
        assert len(lex) == 2
        assert lex.get("liebe") == 8.9
        assert lex.get("LIEBE") == 8.9
        assert "Folter" in lex
        assert lex.get("hass") is None

    def test_nfc_normalized_keys(self, tmp_path):
        # decomposed umlaut in the file, composed in the query
        lex = load_lexicon(write_lexicon(tmp_path, "schön\t7.5\n"))
        assert lex.get("schön") == 7.5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, "# header\n\nwort\t5.0\n\n"))
        assert len(lex) == 1

    def test_first_wins_policy(self, tmp_path):
        path = write_lexicon(tmp_path, "Wort\t2.0\nwort\t8.0\n")
        assert load_lexicon(path, "first_wins").get("wort") == 2.0

    def test_seeded_random_policy_is_reproducible(self, tmp_path):
        path = write_lexicon(tmp_path, "Wort\t2.0\nwort\t8.0\nWORT\t5.0\nx\t1.0\n")
        picks = {load_lexicon(path, "seeded_random", seed=s).get("wort")
                 for s in range(30)}
        assert picks <= {2.0, 8.0, 5.0}
        assert len(picks) > 1  # the seed really drives the choice
        for s in (0, 7, 1234):
            a = load_lexicon(path, "seeded_random", seed=s)
            b = load_lexicon(path, "seeded_random", seed=s)
            assert dict(a.items()) == dict(b.items())

    def test_unknown_policy_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, "wort\t5.0\n")
        with pytest.raises(ValidationError):
            load_lexicon(path, "last_wins")

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


class TestContentFilter:
    def test_content_tags(self):
        ctx = TaggedContext(doc_id="d", tokens=(
            tok("Hund", pos="NN"), tok("der", pos="ART"), tok("schnell", pos="ADJD"),
            tok("läuft", "laufen", pos="VVFIN"), tok("und", pos="KON"),
            tok("gesehen", "sehen", pos="VVPP"), tok("er", pos="PPER"),
        ))
        kept = [t.surface for t in filter_content_tokens(ctx)]
        assert kept == ["Hund", "schnell", "läuft", "gesehen"]

    def test_tag_inventory(self):
        assert CONTENT_POS_TAGS == {"NN", "ADJA", "ADJD", "VVFIN", "VVIMP",
                                    "VVINF", "VVIZU", "VVPP"}
        # proper nouns stay out: a name is the target, not its description
        assert "NE" not in CONTENT_POS_TAGS

    def test_effective_lemma_fallback(self):
        assert tok("Tore", "<unknown>").effective_lemma() == "Tore"
        assert tok("Tore", "").effective_lemma() == "Tore"
        assert tok("Tore", "Tor").effective_lemma() == "Tor"
