import re
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncvalence.corpus import (H_ALT_SPELLING, H_ESZETT, H_INTERFIX_ADD,
                               H_INTERFIX_DROP, H_NUMBER, H_ORIGINAL,
                               H_UMLAUT, H_WILDCARD, HEURISTICS, TargetSpec,
                               generate_variants, _UMLAUT_FOLD, _ESZETT_FOLD)
from pncvalence.errors import ValidationError


def make_target(pnc, first="Max", last="Muster", tid="t1", alts=(),
                modifier="", head=""):
    return TargetSpec(target_id=tid, pnc_surface=pnc,
                      modifier_surface=modifier, head_surface=head,
                      first_name=first, last_name=last, domain="politics",
                      alt_spellings=tuple(alts))


def parts(target):
    return target.modifier_surface, target.separator, target.head_surface


def nfd(s):
    return unicodedata.normalize("NFD", s)


class TestSplitCompound:
    """TargetSpec splits the compound when it is built."""

    def test_single_hyphen(self):
        assert parts(make_target("Tore-Klose")) == ("Tore", "-", "Klose")

    def test_explicit_parts_override(self):
        t = make_target("Willkommens Merkel", modifier="Willkommens",
                        head="Merkel")
        assert parts(t) == ("Willkommens", " ", "Merkel")

    def test_explicit_parts_must_concatenate(self):
        with pytest.raises(ValidationError, match="t1"):
            make_target("Tore-Klose", modifier="Tor", head="Klose")

    def test_no_hyphen_rejected(self):
        with pytest.raises(ValidationError, match="t1"):
            make_target("ToreKlose")

    def test_two_hyphens_rejected(self):
        with pytest.raises(ValidationError):
            make_target("a-b-c")

    @pytest.mark.parametrize("modifier, head", [("Tore", ""), ("", "Klose")])
    def test_lone_part_equal_to_its_side_is_kept(self, modifier, head):
        t = make_target("Tore-Klose", modifier=modifier, head=head)
        assert parts(t) == ("Tore", "-", "Klose")

    @pytest.mark.parametrize("modifier, head, message", [
        ("Tor", "", "modifier 'Tor' is not 'Tore'"),
        ("", "Kloss", "head 'Kloss' is not 'Klose'"),
        ("Klose", "", "modifier 'Klose' is not 'Tore'"),
    ])
    def test_lone_part_must_equal_its_side(self, modifier, head, message):
        with pytest.raises(ValidationError, match=f"t1.*{message}"):
            make_target("Tore-Klose", modifier=modifier, head=head)

    def test_fields_are_nfc_normalised(self):
        t = TargetSpec(target_id="t1", pnc_surface=nfd("Bätschi-Nahles"),
                       modifier_surface="", head_surface="",
                       first_name=nfd("Andréa"), last_name=nfd("Nählés"),
                       domain="politics", alt_spellings=(nfd("Bätsch-Nahles"),),
                       modifier_lemma=nfd("bätschi"))
        assert parts(t) == ("Bätschi", "-", "Nahles")
        assert t.pnc_surface == "Bätschi-Nahles"
        assert t.full_name == "Andréa Nählés"
        assert t.alt_spellings == ("Bätsch-Nahles",)
        assert t.modifier_lemma == "bätschi"
        same = make_target("Bätschi-Nahles", modifier=nfd("Bätschi"),
                           head=nfd("Nahles"))
        assert parts(same) == parts(t)

    @given(st.text(alphabet="abäöüß\u0308\u0301 ", min_size=1, max_size=6),
           st.text(alphabet="abäöüß\u0308\u0301 ", min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_nfd_surface_resolves_like_its_nfc(self, mod, head):
        t = make_target(nfd(f"{mod}-{head}"))
        assert parts(t) == tuple(unicodedata.normalize("NFC", s)
                                 for s in (mod, "-", head))
        assert generate_variants(t) == generate_variants(make_target(f"{mod}-{head}"))


class TestPublishedMappings:
    """The four derivable example mappings plus the user-supplied one."""

    def test_eszett(self):
        variants = generate_variants(make_target("Spaß-Guido"))
        assert "Spass-Guido" in [v for v, _ in variants]
        assert ("Spass-Guido", H_ESZETT) in variants

    def test_umlaut(self):
        variants = generate_variants(make_target("Bätschi-Nahles"))
        assert ("Baetschi-Nahles", H_UMLAUT) in variants

    def test_interfix_drop(self):
        variants = generate_variants(make_target("Hoffnungs-Obama"))
        assert ("Hoffnung-Obama", H_INTERFIX_DROP) in variants

    def test_number_toggle(self):
        variants = generate_variants(make_target("Tore-Klose"))
        assert "Tor-Klose" in [v for v, _ in variants]

    def test_alt_spelling_user_supplied(self):
        variants = generate_variants(
            make_target("Gazprom-Schröder", alts=["Gasprom-Schröder"]))
        assert ("Gasprom-Schröder", H_ALT_SPELLING) in variants


class TestVariantSetShape:
    def test_original_comes_first(self):
        variants = generate_variants(make_target("Tore-Klose"))
        assert variants[0] == ("Tore-Klose", H_ORIGINAL)

    def test_no_duplicates(self):
        strings = [v for v, _ in generate_variants(make_target("Masse-Mustermann"))]
        assert len(strings) == len(set(strings))

    def test_known_tags_only(self):
        variants = generate_variants(make_target("Größen-Özil", alts=["Groessen-Oezil"]))
        assert set(tag for _, tag in variants) <= set(HEURISTICS)

    def test_plain_target_has_no_transliteration_entries(self):
        # no umlaut, no eszett: only toggles and the wildcard remain
        tags = set(tag for _, tag in generate_variants(make_target("Abc-Xyz")))
        assert H_UMLAUT not in tags
        assert H_ESZETT not in tags
        assert tags == {H_ORIGINAL, H_INTERFIX_ADD, H_NUMBER, H_WILDCARD}

    def test_umlaut_applies_to_both_sides_and_jointly(self):
        strings = [v for v, _ in generate_variants(make_target("Bär-Löwe"))]
        assert "Baer-Löwe" in strings
        assert "Bär-Loewe" in strings
        assert "Baer-Loewe" in strings

    def test_interfix_add_forms(self):
        strings = [v for v, _ in generate_variants(make_target("Hoffnung-Obama"))]
        for suffix in ("s", "es", "n", "en"):
            assert f"Hoffnung{suffix}-Obama" in strings

    def test_wildcard_pattern_is_escaped_and_bounded(self):
        pattern = [v for v, tag in generate_variants(make_target("Tore-Klose"))
                   if tag == H_WILDCARD]
        assert pattern == ["Tore.{0,2}Klose"]
        rx = re.compile(pattern[0])
        assert rx.search("Tore#Klose")
        assert rx.search("ToreKlose")
        assert rx.search("Tore -Klose")
        assert not rx.search("Tore - Klose")  # three gap characters

    def test_wildcard_escapes_regex_metacharacters(self):
        variants = generate_variants(make_target("C++-Meier", modifier="C++",
                                                 head="Meier"))
        pattern = [v for v, tag in variants if tag == H_WILDCARD][0]
        assert re.compile(pattern).search("C++?Meier")
        assert not re.compile(pattern).search("CxxyMeier")


class TestFold:
    def test_umlaut(self):
        assert "Bätschi".translate(_UMLAUT_FOLD) == "Baetschi"

    def test_eszett(self):
        assert "Spaß".translate(_ESZETT_FOLD) == "Spass"

    @given(st.text(alphabet="aäoöuüsßAÄOÖUÜxyz-", min_size=0, max_size=20))
    @settings(max_examples=200)
    def test_folded_side_holds_no_table_character(self, s):
        for table in (_UMLAUT_FOLD, _ESZETT_FOLD):
            folded = s.translate(table)
            for code in table:
                assert chr(code) not in folded


UMLAUT_POOL = "abdehiklmnorstuäöüß"


def random_targets(seed, count=100):
    rng = random.Random(seed)
    targets = []
    for i in range(count):
        mod = "".join(rng.choice(UMLAUT_POOL)
                      for _ in range(rng.randint(2, 9))).capitalize()
        head = "".join(rng.choice(UMLAUT_POOL)
                       for _ in range(rng.randint(2, 9))).capitalize()
        alts = [f"Alt{i}-Form"] if rng.random() < 0.3 else []
        targets.append(make_target(f"{mod}-{head}", tid=f"f{i}", alts=alts))
    return targets


class TestFuzz:
    def test_idempotent_and_deterministic_over_100_targets(self):
        for target in random_targets(1234):
            first = generate_variants(target)
            second = generate_variants(target)
            assert first == second
            assert first[0][1] == H_ORIGINAL
            strings = [v for v, _ in first]
            assert len(strings) == len(set(strings))

    def test_transliterations_are_side_folds_over_100_targets(self):
        # every transliteration variant folds one or both sides of the original
        for target in random_targets(99):
            mod, sep, head = parts(target)
            for variant, tag in generate_variants(target):
                if tag == H_UMLAUT:
                    table = _UMLAUT_FOLD
                elif tag == H_ESZETT:
                    table = _ESZETT_FOLD
                else:
                    continue
                candidates = set()
                for m in (mod, mod.translate(table)):
                    for h in (head, head.translate(table)):
                        if (m, h) != (mod, head):
                            candidates.add(m + sep + h)
                assert variant in candidates
