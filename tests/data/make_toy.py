"""Regenerate the toy fixture under tests/data/toy/.

The fixture is a miniature end-to-end dataset: eight compound targets, a
corpus of ~60 short documents with planted orthographic-variant mentions,
an affective lexicon, pre-tagged contexts, classifier and human label files,
per-target metadata, and a pipeline config. Deliberate features:

- t1 has a document matched only through the singular variant (Tor-Klose)
  and one only through the bounded-gap wildcard (Tore#Klose); one t1
  document contains the compound and the full name together.
- t5 plants an eszett transliteration hit (Spass-Guido) and a user-supplied
  alternative spelling (Spassi-Guido); t6 plants an umlaut hit
  (Baetschi-Nahles); t8 an interfix-drop hit (Hoffnung-Obama).
- t3 and t4 share the same full name and therefore the same name contexts.
- every content word around t6 is out of lexicon, so t6 is unscorable.
- t4 has no modifier lemma, t8 stays under the frequency threshold.
- two retweet documents duplicate existing URLs and one document mentions
  no target at all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).parent / "toy"

LEXICON = [
    ("folter", 0.89), ("hass", 1.0), ("knast", 1.2), ("skandal", 1.5),
    ("angst", 1.6), ("wut", 1.8), ("chaos", 1.9), ("schlecht", 2.0),
    ("krise", 2.1), ("niederlage", 2.4), ("urteil", 3.5), ("gericht", 3.8),
    ("steuer", 4.0), ("grenze", 4.1), ("partei", 4.2), ("politik", 4.5),
    ("jahr", 5.0), ("rede", 5.1), ("kanzlerin", 5.2), ("winter", 5.5),
    ("mannschaft", 5.8), ("ski", 6.0), ("witz", 6.2), ("spiel", 6.5),
    ("zukunft", 6.8), ("tor", 6.9), ("gut", 7.0), ("medaille", 7.4),
    ("gold", 7.5), ("spaß", 7.6), ("hoffnung", 7.7), ("feiern", 7.8),
    ("held", 7.8), ("sieg", 7.9), ("traum", 7.9), ("willkommen", 7.9),
    ("erfolg", 8.0), ("herrlich", 8.2), ("freude", 8.3), ("liebe", 8.9),
]

TARGETS = [
    # target_id, pnc, modifier, head, first, last, domain, alt_spellings, modifier_lemma
    ("t1", "Tore-Klose", "Tore", "Klose", "Miroslav", "Klose", "sports", "", "tor"),
    ("t2", "Knast-Hoeneß", "Knast", "Hoeneß", "Uli", "Hoeneß", "sports", "", "knast"),
    ("t3", "Willkommens-Merkel", "Willkommens", "Merkel", "Angela", "Merkel",
     "politics", "", "willkommen"),
    ("t4", "Migranten-Merkel", "Migranten", "Merkel", "Angela", "Merkel",
     "politics", "", ""),
    ("t5", "Spaß-Guido", "Spaß", "Guido", "Guido", "Westerwelle", "politics",
     "Spassi-Guido", "spaß"),
    ("t6", "Bätschi-Nahles", "Bätschi", "Nahles", "Andrea", "Nahles",
     "politics", "", ""),
    ("t7", "Gold-Rosi", "Gold", "Rosi", "Rosi", "Mittermaier", "show_business",
     "", "gold"),
    ("t8", "Hoffnungs-Obama", "Hoffnungs", "Obama", "Barack", "Obama",
     "others", "", "hoffnung"),
]

METADATA = [
    # target_id, age, gender, nationality, birthplace, party, frame
    ("t1", "45", "male", "germany", "west", "no_party", "Finish_competition"),
    ("t2", "71", "male", "germany", "west", "no_party", "Committing_crime"),
    ("t3", "69", "female", "germany", "east", "CDU", "not_eventive"),
    ("t4", "69", "female", "germany", "east", "CDU", "unknown"),
    ("t5", "54", "male", "germany", "west", "FDP", "not_eventive"),
    ("t6", "53", "female", "germany", "west", "SPD", "not_eventive"),
    ("t7", "72", "female", "germany", "west", "no_party", "Finish_competition"),
    ("t8", "62", "male", "usa", "outside", "no_party", "not_eventive"),
]


def T(surface, lemma, pos):
    return (surface, lemma, pos)


# doc_id, source, url, date, text, tokens
DOCS = [
    ("t1p1", "tweet", "https://x.test/1001", "2016-07-04",
     "Tore-Klose feiert wieder einen herrlichen Sieg!",
     [T("Tore-Klose", "Tore-Klose", "NE"), T("feiert", "feiern", "VVFIN"),
      T("wieder", "wieder", "ADV"), T("einen", "ein", "ART"),
      T("herrlichen", "herrlich", "ADJA"), T("Sieg", "Sieg", "NN"),
      T("!", "!", "$.")]),
    ("t1p2", "tweet", None, None,
     "Was für ein Tor von Tore-Klose im Spiel gestern.",
     [T("Was", "was", "PWS"), T("für", "für", "APPR"), T("ein", "ein", "ART"),
      T("Tor", "Tor", "NN"), T("von", "von", "APPR"),
      T("Tore-Klose", "Tore-Klose", "NE"), T("im", "in", "APPRART"),
      T("Spiel", "Spiel", "NN"), T("gestern", "gestern", "ADV"),
      T(".", ".", "$.")]),
    ("t1p3", "tweet", None, None,
     "Tore-Klose ist der Held der Mannschaft.",
     [T("Tore-Klose", "Tore-Klose", "NE"), T("ist", "sein", "VAFIN"),
      T("der", "der", "ART"), T("Held", "Held", "NN"),
      T("der", "der", "ART"), T("Mannschaft", "Mannschaft", "NN"),
      T(".", ".", "$.")]),
    ("t1p4", "tweet", None, None,
     "Tor-Klose trifft und die Fans feiern den Erfolg.",
     [T("Tor-Klose", "Tor-Klose", "NE"), T("trifft", "treffen", "VVFIN"),
      T("und", "und", "KON"), T("die", "der", "ART"), T("Fans", "Fan", "NN"),
      T("feiern", "feiern", "VVFIN"), T("den", "der", "ART"),
      T("Erfolg", "Erfolg", "NN"), T(".", ".", "$.")]),
    ("t1p5", "tweet", None, None,
     "Tore#Klose mit einem Traum von Tor!",
     [T("Tore#Klose", "Tore#Klose", "NE"), T("mit", "mit", "APPR"),
      T("einem", "ein", "ART"), T("Traum", "<unknown>", "NN"),
      T("von", "von", "APPR"), T("Tor", "Tor", "NN"), T("!", "!", "$.")]),
    ("t1p6", "news_sentence", None, "2016-07-05",
     "Tore-Klose, also Miroslav Klose, rettet das Spiel vor der Niederlage.",
     [T("Tore-Klose", "Tore-Klose", "NE"), T(",", ",", "$,"),
      T("also", "also", "ADV"), T("Miroslav", "Miroslav", "NE"),
      T("Klose", "Klose", "NE"), T(",", ",", "$,"),
      T("rettet", "retten", "VVFIN"), T("das", "der", "ART"),
      T("Spiel", "Spiel", "NN"), T("vor", "vor", "APPR"),
      T("der", "der", "ART"), T("Niederlage", "Niederlage", "NN"),
      T(".", ".", "$.")]),
    ("t1n1", "news_sentence", None, None,
     "Miroslav Klose bleibt der Mannschaft noch ein Jahr erhalten.",
     [T("Miroslav", "Miroslav", "NE"), T("Klose", "Klose", "NE"),
      T("bleibt", "bleiben", "VVFIN"), T("der", "der", "ART"),
      T("Mannschaft", "Mannschaft", "NN"), T("noch", "noch", "ADV"),
      T("ein", "ein", "ART"), T("Jahr", "Jahr", "NN"),
      T("erhalten", "erhalten", "VVPP"), T(".", ".", "$.")]),
    ("t1n2", "tweet", None, None,
     "Miroslav Klose spricht über das Spiel und die Zukunft.",
     [T("Miroslav", "Miroslav", "NE"), T("Klose", "Klose", "NE"),
      T("spricht", "sprechen", "VVFIN"), T("über", "über", "APPR"),
      T("das", "der", "ART"), T("Spiel", "Spiel", "NN"),
      T("und", "und", "KON"), T("die", "der", "ART"),
      T("Zukunft", "Zukunft", "NN"), T(".", ".", "$.")]),

    ("t2p1", "tweet", None, None,
     "Knast-Hoeneß und der Skandal um die Steuer.",
     [T("Knast-Hoeneß", "Knast-Hoeneß", "NE"), T("und", "und", "KON"),
      T("der", "der", "ART"), T("Skandal", "Skandal", "NN"),
      T("um", "um", "APPR"), T("die", "der", "ART"),
      T("Steuer", "Steuer", "NN"), T(".", ".", "$.")]),
    ("t2p2", "tweet", None, None,
     "Das Urteil ist da: Knast-Hoeneß muss sitzen.",
     [T("Das", "der", "ART"), T("Urteil", "Urteil", "NN"),
      T("ist", "sein", "VAFIN"), T("da", "da", "ADV"), T(":", ":", "$."),
      T("Knast-Hoeneß", "Knast-Hoeneß", "NE"), T("muss", "müssen", "VMFIN"),
      T("sitzen", "sitzen", "VVINF"), T(".", ".", "$.")]),
    ("t2p3", "tweet", None, None,
     "Knast-Hoeneß vor Gericht, was für ein Chaos.",
     [T("Knast-Hoeneß", "Knast-Hoeneß", "NE"), T("vor", "vor", "APPR"),
      T("Gericht", "Gericht", "NN"), T(",", ",", "$,"), T("was", "was", "PWS"),
      T("für", "für", "APPR"), T("ein", "ein", "ART"),
      T("Chaos", "Chaos", "NN"), T(".", ".", "$.")]),
    ("t2p4", "news_sentence", None, None,
     "Die Krise des FC Bayern heißt Knast-Hoeneß.",
     [T("Die", "der", "ART"), T("Krise", "Krise", "NN"),
      T("des", "der", "ART"), T("FC", "FC", "NE"), T("Bayern", "Bayern", "NE"),
      T("heißt", "heißen", "VVFIN"), T("Knast-Hoeneß", "Knast-Hoeneß", "NE"),
      T(".", ".", "$.")]),
    ("t2p5", "tweet", None, None,
     "Knast-Hoeneß: der Hass der Fans ist schlecht für den Verein.",
     [T("Knast-Hoeneß", "Knast-Hoeneß", "NE"), T(":", ":", "$."),
      T("der", "der", "ART"), T("Hass", "Hass", "NN"), T("der", "der", "ART"),
      T("Fans", "Fan", "NN"), T("ist", "sein", "VAFIN"),
      T("schlecht", "schlecht", "ADJD"), T("für", "für", "APPR"),
      T("den", "der", "ART"), T("Verein", "Verein", "NN"), T(".", ".", "$.")]),
    ("t2n1", "news_sentence", None, None,
     "Uli Hoeneß führt den Verein seit einem Jahr zum Erfolg.",
     [T("Uli", "Uli", "NE"), T("Hoeneß", "Hoeneß", "NE"),
      T("führt", "führen", "VVFIN"), T("den", "der", "ART"),
      T("Verein", "Verein", "NN"), T("seit", "seit", "APPR"),
      T("einem", "ein", "ART"), T("Jahr", "Jahr", "NN"),
      T("zum", "zu", "APPRART"), T("Erfolg", "Erfolg", "NN"),
      T(".", ".", "$.")]),
    ("t2n2", "tweet", None, None,
     "Uli Hoeneß lobt die Mannschaft nach dem Sieg.",
     [T("Uli", "Uli", "NE"), T("Hoeneß", "Hoeneß", "NE"),
      T("lobt", "loben", "VVFIN"), T("die", "der", "ART"),
      T("Mannschaft", "Mannschaft", "NN"), T("nach", "nach", "APPR"),
      T("dem", "der", "ART"), T("Sieg", "Sieg", "NN"), T(".", ".", "$.")]),

    ("t3p1", "tweet", "https://x.test/3001", "2015-09-10",
     "Willkommens-Merkel öffnet die Grenze, welch ein Chaos.",
     [T("Willkommens-Merkel", "Willkommens-Merkel", "NE"),
      T("öffnet", "öffnen", "VVFIN"), T("die", "der", "ART"),
      T("Grenze", "Grenze", "NN"), T(",", ",", "$,"),
      T("welch", "welch", "PWAT"), T("ein", "ein", "ART"),
      T("Chaos", "Chaos", "NN"), T(".", ".", "$.")]),
    ("t3p2", "tweet", None, None,
     "Willkommens-Merkel und die Krise an der Grenze.",
     [T("Willkommens-Merkel", "Willkommens-Merkel", "NE"),
      T("und", "und", "KON"), T("die", "der", "ART"), T("Krise", "Krise", "NN"),
      T("an", "an", "APPR"), T("der", "der", "ART"),
      T("Grenze", "Grenze", "NN"), T(".", ".", "$.")]),
    ("t3p3", "tweet", None, None,
     "Willkommens-Merkel sagt: Flüchtlinge sind willkommen.",
     [T("Willkommens-Merkel", "Willkommens-Merkel", "NE"),
      T("sagt", "sagen", "VVFIN"), T(":", ":", "$."),
      T("Flüchtlinge", "Flüchtling", "NN"), T("sind", "sein", "VAFIN"),
      T("willkommen", "willkommen", "ADJD"), T(".", ".", "$.")]),
    ("t3p4", "news_sentence", None, None,
     "Die Politik von Willkommens-Merkel macht vielen Angst.",
     [T("Die", "der", "ART"), T("Politik", "Politik", "NN"),
      T("von", "von", "APPR"),
      T("Willkommens-Merkel", "Willkommens-Merkel", "NE"),
      T("macht", "machen", "VVFIN"), T("vielen", "viel", "PIAT"),
      T("Angst", "Angst", "NN"), T(".", ".", "$.")]),
    ("t3p5", "tweet", None, None,
     "Willkommens-Merkel bleibt bei ihrer Rede gut und freundlich.",
     [T("Willkommens-Merkel", "Willkommens-Merkel", "NE"),
      T("bleibt", "bleiben", "VVFIN"), T("bei", "bei", "APPR"),
      T("ihrer", "ihr", "PPOSAT"), T("Rede", "Rede", "NN"),
      T("gut", "gut", "ADJD"), T("und", "und", "KON"),
      T("freundlich", "freundlich", "ADJD"), T(".", ".", "$.")]),

    ("t4p1", "tweet", None, None,
     "Migranten-Merkel schafft das Chaos an der Grenze.",
     [T("Migranten-Merkel", "Migranten-Merkel", "NE"),
      T("schafft", "schaffen", "VVFIN"), T("das", "der", "ART"),
      T("Chaos", "Chaos", "NN"), T("an", "an", "APPR"),
      T("der", "der", "ART"), T("Grenze", "Grenze", "NN"), T(".", ".", "$.")]),
    ("t4p2", "tweet", None, None,
     "Migranten-Merkel und der Hass im Netz.",
     [T("Migranten-Merkel", "Migranten-Merkel", "NE"), T("und", "und", "KON"),
      T("der", "der", "ART"), T("Hass", "Hass", "NN"), T("im", "in", "APPRART"),
      T("Netz", "Netz", "NN"), T(".", ".", "$.")]),
    ("t4p3", "tweet", None, None,
     "Die Wut auf Migranten-Merkel wächst.",
     [T("Die", "der", "ART"), T("Wut", "Wut", "NN"), T("auf", "auf", "APPR"),
      T("Migranten-Merkel", "Migranten-Merkel", "NE"),
      T("wächst", "wachsen", "VVFIN"), T(".", ".", "$.")]),
    ("t4p4", "news_sentence", None, None,
     "Migranten-Merkel in der Krise: die Partei murrt.",
     [T("Migranten-Merkel", "Migranten-Merkel", "NE"), T("in", "in", "APPR"),
      T("der", "der", "ART"), T("Krise", "Krise", "NN"), T(":", ":", "$."),
      T("die", "der", "ART"), T("Partei", "Partei", "NN"),
      T("murrt", "murren", "VVFIN"), T(".", ".", "$.")]),
    ("t4p5", "tweet", None, None,
     "Migranten-Merkel und die Angst vor der Zukunft.",
     [T("Migranten-Merkel", "Migranten-Merkel", "NE"), T("und", "und", "KON"),
      T("die", "der", "ART"), T("Angst", "Angst", "NN"),
      T("vor", "vor", "APPR"), T("der", "der", "ART"),
      T("Zukunft", "Zukunft", "NN"), T(".", ".", "$.")]),

    ("mn1", "news_sentence", None, None,
     "Angela Merkel hält eine Rede zur Politik.",
     [T("Angela", "Angela", "NE"), T("Merkel", "Merkel", "NE"),
      T("hält", "halten", "VVFIN"), T("eine", "ein", "ART"),
      T("Rede", "Rede", "NN"), T("zur", "zu", "APPRART"),
      T("Politik", "Politik", "NN"), T(".", ".", "$.")]),
    ("mn2", "tweet", None, None,
     "Die Kanzlerin Angela Merkel feiert ein gutes Jahr.",
     [T("Die", "der", "ART"), T("Kanzlerin", "Kanzlerin", "NN"),
      T("Angela", "Angela", "NE"), T("Merkel", "Merkel", "NE"),
      T("feiert", "feiern", "VVFIN"), T("ein", "ein", "ART"),
      T("gutes", "gut", "ADJA"), T("Jahr", "Jahr", "NN"), T(".", ".", "$.")]),
    ("mn3", "news_sentence", None, None,
     "Angela Merkel spricht über die Zukunft der Partei.",
     [T("Angela", "Angela", "NE"), T("Merkel", "Merkel", "NE"),
      T("spricht", "sprechen", "VVFIN"), T("über", "über", "APPR"),
      T("die", "der", "ART"), T("Zukunft", "Zukunft", "NN"),
      T("der", "der", "ART"), T("Partei", "Partei", "NN"), T(".", ".", "$.")]),
    ("mn4", "tweet", None, None,
     "Angela Merkel und die Partei in der Krise.",
     [T("Angela", "Angela", "NE"), T("Merkel", "Merkel", "NE"),
      T("und", "und", "KON"), T("die", "der", "ART"),
      T("Partei", "Partei", "NN"), T("in", "in", "APPR"),
      T("der", "der", "ART"), T("Krise", "Krise", "NN"), T(".", ".", "$.")]),

    ("t5p1", "tweet", None, None,
     "Spaß-Guido macht wieder Witze, was für eine Freude.",
     [T("Spaß-Guido", "Spaß-Guido", "NE"), T("macht", "machen", "VVFIN"),
      T("wieder", "wieder", "ADV"), T("Witze", "Witz", "NN"), T(",", ",", "$,"),
      T("was", "was", "PWS"), T("für", "für", "APPR"), T("eine", "ein", "ART"),
      T("Freude", "Freude", "NN"), T(".", ".", "$.")]),
    ("t5p2", "tweet", None, None,
     "Spass-Guido bringt Spaß in die Politik.",
     [T("Spass-Guido", "Spass-Guido", "NE"), T("bringt", "bringen", "VVFIN"),
      T("Spaß", "Spaß", "NN"), T("in", "in", "APPR"), T("die", "der", "ART"),
      T("Politik", "Politik", "NN"), T(".", ".", "$.")]),
    ("t5p3", "tweet", None, None,
     "Spassi-Guido und seine herrliche Show.",
     [T("Spassi-Guido", "Spassi-Guido", "NE"), T("und", "und", "KON"),
      T("seine", "sein", "PPOSAT"), T("herrliche", "herrlich", "ADJA"),
      T("Show", "Show", "NN"), T(".", ".", "$.")]),
    ("t5p4", "tweet", None, None,
     "Spaß-Guido feiert mit Liebe und Freude.",
     [T("Spaß-Guido", "Spaß-Guido", "NE"), T("feiert", "feiern", "VVFIN"),
      T("mit", "mit", "APPR"), T("Liebe", "Liebe", "NN"), T("und", "und", "KON"),
      T("Freude", "Freude", "NN"), T(".", ".", "$.")]),
    ("t5p5", "news_sentence", None, None,
     "Der Traum von Spaß-Guido: gute Laune überall.",
     [T("Der", "der", "ART"), T("Traum", "Traum", "NN"), T("von", "von", "APPR"),
      T("Spaß-Guido", "Spaß-Guido", "NE"), T(":", ":", "$."),
      T("gute", "gut", "ADJA"), T("Laune", "Laune", "NN"),
      T("überall", "überall", "ADV"), T(".", ".", "$.")]),
    ("t5n1", "news_sentence", None, None,
     "Guido Westerwelle hält eine Rede für die Partei.",
     [T("Guido", "Guido", "NE"), T("Westerwelle", "Westerwelle", "NE"),
      T("hält", "halten", "VVFIN"), T("eine", "ein", "ART"),
      T("Rede", "Rede", "NN"), T("für", "für", "APPR"), T("die", "der", "ART"),
      T("Partei", "Partei", "NN"), T(".", ".", "$.")]),
    ("t5n2", "tweet", None, None,
     "Guido Westerwelle spricht über Politik und Steuer.",
     [T("Guido", "Guido", "NE"), T("Westerwelle", "Westerwelle", "NE"),
      T("spricht", "sprechen", "VVFIN"), T("über", "über", "APPR"),
      T("Politik", "Politik", "NN"), T("und", "und", "KON"),
      T("Steuer", "Steuer", "NN"), T(".", ".", "$.")]),

    ("t6p1", "tweet", None, None,
     "Bätschi-Nahles sorgt für Zoff auf dem Parteitag.",
     [T("Bätschi-Nahles", "Bätschi-Nahles", "NE"), T("sorgt", "sorgen", "VVFIN"),
      T("für", "für", "APPR"), T("Zoff", "Zoff", "NN"), T("auf", "auf", "APPR"),
      T("dem", "der", "ART"), T("Parteitag", "Parteitag", "NN"),
      T(".", ".", "$.")]),
    ("t6p2", "tweet", None, None,
     "Baetschi-Nahles und das Getöse im Bundestag.",
     [T("Baetschi-Nahles", "Baetschi-Nahles", "NE"), T("und", "und", "KON"),
      T("das", "der", "ART"), T("Getöse", "Getöse", "NN"),
      T("im", "in", "APPRART"), T("Bundestag", "Bundestag", "NN"),
      T(".", ".", "$.")]),
    ("t6p3", "tweet", None, None,
     "Bätschi-Nahles liefert Klamauk statt Inhalten.",
     [T("Bätschi-Nahles", "Bätschi-Nahles", "NE"),
      T("liefert", "liefern", "VVFIN"), T("Klamauk", "Klamauk", "NN"),
      T("statt", "statt", "APPR"), T("Inhalten", "Inhalt", "NN"),
      T(".", ".", "$.")]),
    ("t6p4", "news_sentence", None, None,
     "Bätschi-Nahles erntet Buhrufe und Gelächter.",
     [T("Bätschi-Nahles", "Bätschi-Nahles", "NE"),
      T("erntet", "ernten", "VVFIN"), T("Buhrufe", "Buhruf", "NN"),
      T("und", "und", "KON"), T("Gelächter", "Gelächter", "NN"),
      T(".", ".", "$.")]),
    ("t6p5", "tweet", None, None,
     "Das Tamtam um Bätschi-Nahles nervt die Basis.",
     [T("Das", "der", "ART"), T("Tamtam", "Tamtam", "NN"), T("um", "um", "APPR"),
      T("Bätschi-Nahles", "Bätschi-Nahles", "NE"), T("nervt", "nerven", "VVFIN"),
      T("die", "der", "ART"), T("Basis", "Basis", "NN"), T(".", ".", "$.")]),
    ("t6n1", "news_sentence", None, None,
     "Andrea Nahles übernimmt den Vorsitz der Fraktion.",
     [T("Andrea", "Andrea", "NE"), T("Nahles", "Nahles", "NE"),
      T("übernimmt", "übernehmen", "VVFIN"), T("den", "der", "ART"),
      T("Vorsitz", "Vorsitz", "NN"), T("der", "der", "ART"),
      T("Fraktion", "Fraktion", "NN"), T(".", ".", "$.")]),
    ("t6n2", "tweet", None, None,
     "Andrea Nahles plant die Klausur der Fraktion.",
     [T("Andrea", "Andrea", "NE"), T("Nahles", "Nahles", "NE"),
      T("plant", "planen", "VVFIN"), T("die", "der", "ART"),
      T("Klausur", "Klausur", "NN"), T("der", "der", "ART"),
      T("Fraktion", "Fraktion", "NN"), T(".", ".", "$.")]),

    ("t7p1", "tweet", None, None,
     "Gold-Rosi holt die Medaille im Winter.",
     [T("Gold-Rosi", "Gold-Rosi", "NE"), T("holt", "holen", "VVFIN"),
      T("die", "der", "ART"), T("Medaille", "Medaille", "NN"),
      T("im", "in", "APPRART"), T("Winter", "Winter", "NN"), T(".", ".", "$.")]),
    ("t7p2", "tweet", None, None,
     "Gold-Rosi und ihr Traum vom Gold.",
     [T("Gold-Rosi", "Gold-Rosi", "NE"), T("und", "und", "KON"),
      T("ihr", "ihr", "PPOSAT"), T("Traum", "Traum", "NN"),
      T("vom", "von", "APPRART"), T("Gold", "Gold", "NN"), T(".", ".", "$.")]),
    ("t7p3", "tweet", None, None,
     "Ganz Deutschland feiert Gold-Rosi.",
     [T("Ganz", "ganz", "ADV"), T("Deutschland", "Deutschland", "NE"),
      T("feiert", "feiern", "VVFIN"), T("Gold-Rosi", "Gold-Rosi", "NE"),
      T(".", ".", "$.")]),
    ("t7p4", "news_sentence", None, None,
     "Gold-Rosi fährt ein herrliches Rennen auf Ski.",
     [T("Gold-Rosi", "Gold-Rosi", "NE"), T("fährt", "fahren", "VVFIN"),
      T("ein", "ein", "ART"), T("herrliches", "herrlich", "ADJA"),
      T("Rennen", "Rennen", "NN"), T("auf", "auf", "APPR"),
      T("Ski", "Ski", "NN"), T(".", ".", "$.")]),
    ("t7p5", "tweet", None, None,
     "Gold-Rosi ist der Held des Winters, ein Sieg mit Liebe.",
     [T("Gold-Rosi", "Gold-Rosi", "NE"), T("ist", "sein", "VAFIN"),
      T("der", "der", "ART"), T("Held", "Held", "NN"), T("des", "der", "ART"),
      T("Winters", "Winter", "NN"), T(",", ",", "$,"), T("ein", "ein", "ART"),
      T("Sieg", "Sieg", "NN"), T("mit", "mit", "APPR"),
      T("Liebe", "Liebe", "NN"), T(".", ".", "$.")]),
    ("t7n1", "news_sentence", None, None,
     "Rosi Mittermaier spricht über den Winter und das Skifahren.",
     [T("Rosi", "Rosi", "NE"), T("Mittermaier", "Mittermaier", "NE"),
      T("spricht", "sprechen", "VVFIN"), T("über", "über", "APPR"),
      T("den", "der", "ART"), T("Winter", "Winter", "NN"),
      T("und", "und", "KON"), T("das", "der", "ART"),
      T("Skifahren", "Skifahren", "NN"), T(".", ".", "$.")]),
    ("t7n2", "tweet", None, None,
     "Rosi Mittermaier feiert ein herrliches Jubiläum.",
     [T("Rosi", "Rosi", "NE"), T("Mittermaier", "Mittermaier", "NE"),
      T("feiert", "feiern", "VVFIN"), T("ein", "ein", "ART"),
      T("herrliches", "herrlich", "ADJA"), T("Jubiläum", "Jubiläum", "NN"),
      T(".", ".", "$.")]),
    ("t7n3", "tweet", None, None,
     "Rosi Mittermaier und die Medaille von damals.",
     [T("Rosi", "Rosi", "NE"), T("Mittermaier", "Mittermaier", "NE"),
      T("und", "und", "KON"), T("die", "der", "ART"),
      T("Medaille", "Medaille", "NN"), T("von", "von", "APPR"),
      T("damals", "damals", "ADV"), T(".", ".", "$.")]),

    ("t8p1", "tweet", None, None,
     "Hoffnungs-Obama weckt Hoffnung auf Frieden.",
     [T("Hoffnungs-Obama", "Hoffnungs-Obama", "NE"),
      T("weckt", "wecken", "VVFIN"), T("Hoffnung", "Hoffnung", "NN"),
      T("auf", "auf", "APPR"), T("Frieden", "Frieden", "NN"),
      T(".", ".", "$.")]),
    ("t8p2", "tweet", None, None,
     "Hoffnung-Obama hält eine gute Rede.",
     [T("Hoffnung-Obama", "Hoffnung-Obama", "NE"), T("hält", "halten", "VVFIN"),
      T("eine", "ein", "ART"), T("gute", "gut", "ADJA"),
      T("Rede", "Rede", "NN"), T(".", ".", "$.")]),
    ("t8p3", "news_sentence", None, None,
     "Hoffnungs-Obama und der Traum von einer guten Zukunft.",
     [T("Hoffnungs-Obama", "Hoffnungs-Obama", "NE"), T("und", "und", "KON"),
      T("der", "der", "ART"), T("Traum", "Traum", "NN"),
      T("von", "von", "APPR"), T("einer", "ein", "ART"),
      T("guten", "gut", "ADJA"), T("Zukunft", "Zukunft", "NN"),
      T(".", ".", "$.")]),
    ("t8p4", "tweet", None, None,
     "Hoffnungs-Obama feiert den Erfolg.",
     [T("Hoffnungs-Obama", "Hoffnungs-Obama", "NE"),
      T("feiert", "feiern", "VVFIN"), T("den", "der", "ART"),
      T("Erfolg", "Erfolg", "NN"), T(".", ".", "$.")]),
    ("t8n1", "news_sentence", None, None,
     "Barack Obama spricht über Politik.",
     [T("Barack", "Barack", "NE"), T("Obama", "Obama", "NE"),
      T("spricht", "sprechen", "VVFIN"), T("über", "über", "APPR"),
      T("Politik", "Politik", "NN"), T(".", ".", "$.")]),
    ("t8n2", "tweet", None, None,
     "Barack Obama lobt die Zukunft der Jugend.",
     [T("Barack", "Barack", "NE"), T("Obama", "Obama", "NE"),
      T("lobt", "loben", "VVFIN"), T("die", "der", "ART"),
      T("Zukunft", "Zukunft", "NN"), T("der", "der", "ART"),
      T("Jugend", "Jugend", "NN"), T(".", ".", "$.")]),

    # retweet duplicates of existing URLs: removed by the url dedupe
    ("dup1", "tweet", "https://x.test/1001", "2016-07-04",
     "RT @fan: Tore-Klose feiert wieder einen herrlichen Sieg!", None),
    ("dup2", "tweet", "https://x.test/3001", "2015-09-11",
     "RT: Willkommens-Merkel öffnet die Grenze, welch ein Chaos.", None),
    # mentions no target at all
    ("noise1", "tweet", None, None,
     "Heute scheint die Sonne und alle sind draußen.",
     [T("Heute", "heute", "ADV"), T("scheint", "scheinen", "VVFIN"),
      T("die", "der", "ART"), T("Sonne", "Sonne", "NN"), T("und", "und", "KON"),
      T("alle", "alle", "PIS"), T("sind", "sein", "VAFIN"),
      T("draußen", "draußen", "ADV"), T(".", ".", "$.")]),
]

# documents per target, in corpus order: (compound docs, standalone name docs)
TARGET_DOCS = {
    "t1": (["t1p1", "t1p2", "t1p3", "t1p4", "t1p5", "t1p6"], ["t1n1", "t1n2"]),
    "t2": (["t2p1", "t2p2", "t2p3", "t2p4", "t2p5"], ["t2n1", "t2n2"]),
    "t3": (["t3p1", "t3p2", "t3p3", "t3p4", "t3p5"], ["mn1", "mn2", "mn3", "mn4"]),
    "t4": (["t4p1", "t4p2", "t4p3", "t4p4", "t4p5"], ["mn1", "mn2", "mn3", "mn4"]),
    "t5": (["t5p1", "t5p2", "t5p3", "t5p4", "t5p5"], ["t5n1", "t5n2"]),
    "t6": (["t6p1", "t6p2", "t6p3", "t6p4", "t6p5"], ["t6n1", "t6n2"]),
    "t7": (["t7p1", "t7p2", "t7p3", "t7p4", "t7p5"], ["t7n1", "t7n2", "t7n3"]),
    "t8": (["t8p1", "t8p2", "t8p3", "t8p4"], ["t8n1", "t8n2"]),
}

# deterministic classifier label patterns, by position within a target's
# compound / name document lists
MODEL_PATTERNS = {
    "xlm-demo": {
        "pnc": ["negative", "neutral", "negative", "negative", "positive"],
        "name": ["positive", "neutral", "neutral", "positive"],
    },
    "gbert-demo": {
        "pnc": ["negative", "negative", "neutral"],
        "name": ["neutral", "positive"],
    },
}

HUMAN_LABELS = [
    # annotator, target, doc, label
    ("a1", "t1", "t1p1", "negative"), ("a1", "t1", "t1n1", "positive"),
    ("a1", "t3", "t3p1", "negative"), ("a1", "t3", "mn1", "neutral"),
    ("a1", "t5", "t5p1", "positive"), ("a1", "t5", "t5n1", "neutral"),
    ("a2", "t1", "t1p1", "negative"), ("a2", "t1", "t1n1", "positive"),
    ("a2", "t3", "t3p1", "neutral"), ("a2", "t3", "mn1", "neutral"),
    ("a2", "t5", "t5p1", "positive"), ("a2", "t5", "t5n1", "positive"),
    ("a3", "t1", "t1p1", "neutral"), ("a3", "t1", "t1n1", "negative"),
    ("a3", "t3", "t3p1", "negative"), ("a3", "t3", "mn1", "positive"),
    ("a3", "t5", "t5p1", "neutral"), ("a3", "t5", "t5n1", "neutral"),
]

CONFIG = {
    "targets": "targets.csv",
    "corpus": "corpus.jsonl",
    "lexicon": "lexicon.tsv",
    "tagged_contexts": "tagged_contexts.tsv",
    "label_files": ["labels_models.jsonl"],
    "human_label_file": "labels_human.jsonl",
    "annotators": ["a1", "a2", "a3"],
    "metadata": "metadata.csv",
    "out_dir": "out",
    "min_freq": 5,
    "seed": 7,
    "unit_policy": "whole_document",
    "case_insensitive": False,
    "include_overlaps": True,
    "workers": 1,
    "top_k_words": 5,
    "univariate_predictors": ["name_valence", "pnc_valence", "modifier_valence",
                              "age", "gender", "domain", "party", "nationality"],
    "model_specs": [["personal", "delta ~ age + gender"],
                    ["compound", "delta ~ modifier_valence + pnc_valence"],
                    ["simple", "delta ~ pnc_valence"]],
    "elasticnet_formula": "delta ~ pnc_valence + modifier_valence + age",
    "elasticnet": {"n_candidates": 8, "n_repeats": 3, "n_folds": 5},
}


def check_consistency():
    doc_ids = [d[0] for d in DOCS]
    assert len(doc_ids) == len(set(doc_ids)), "duplicate doc ids"
    lex = {form for form, _ in LEXICON}
    content = {"NN", "ADJA", "ADJD", "VVFIN", "VVIMP", "VVINF", "VVIZU", "VVPP"}
    by_id = {d[0]: d for d in DOCS}
    for pnc_docs, name_docs in TARGET_DOCS.values():
        for did in pnc_docs + name_docs:
            assert did in by_id, f"unknown doc {did}"
    # t6 must stay unscorable: every content lemma out of lexicon
    for did in TARGET_DOCS["t6"][0] + TARGET_DOCS["t6"][1]:
        tokens = by_id[did][5]
        for surface, lemma, pos in tokens:
            if pos in content:
                assert lemma.lower() not in lex, (did, lemma)
    # every other target must resolve at least one content lemma per side
    for tid, (pnc_docs, name_docs) in TARGET_DOCS.items():
        if tid == "t6":
            continue
        for docs in (pnc_docs, name_docs):
            hits = 0
            for did in docs:
                for surface, lemma, pos in by_id[did][5] or []:
                    if pos in content and lemma.lower() in lex:
                        hits += 1
            assert hits > 0, (tid, docs)


def write_all():
    OUT.mkdir(parents=True, exist_ok=True)

    with open(OUT / "targets.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("target_id,pnc_surface,modifier_surface,head_surface,"
                 "first_name,last_name,domain,alt_spellings,modifier_lemma\n")
        for row in TARGETS:
            fh.write(",".join(row) + "\n")

    with open(OUT / "metadata.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("target_id,age,gender,nationality,birthplace,party,frame\n")
        for row in METADATA:
            fh.write(",".join(row) + "\n")

    with open(OUT / "lexicon.tsv", "w", encoding="utf-8") as fh:
        for form, score in LEXICON:
            fh.write(f"{form}\t{score}\n")

    with open(OUT / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, source, url, date, text, _tokens in DOCS:
            obj = {"doc_id": doc_id, "source": source, "text": text}
            if url:
                obj["url"] = url
            if date:
                obj["date"] = date
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")

    with open(OUT / "tagged_contexts.tsv", "w", encoding="utf-8") as fh:
        for doc_id, _source, _url, _date, _text, tokens in DOCS:
            if tokens is None:  # retweet duplicates vanish before tagging
                continue
            fh.write(f"#doc:{doc_id}\n")
            for surface, lemma, pos in tokens:
                fh.write(f"{surface}\t{lemma}\t{pos}\n")
            fh.write("\n")

    with open(OUT / "labels_models.jsonl", "w", encoding="utf-8") as fh:
        for source_id, patterns in MODEL_PATTERNS.items():
            for tid in sorted(TARGET_DOCS):
                pnc_docs, name_docs = TARGET_DOCS[tid]
                for i, did in enumerate(pnc_docs):
                    label = patterns["pnc"][i % len(patterns["pnc"])]
                    fh.write(json.dumps({
                        "target_id": tid, "context_id": did,
                        "label": label, "source_id": source_id},
                        ensure_ascii=False) + "\n")
                for i, did in enumerate(name_docs):
                    label = patterns["name"][i % len(patterns["name"])]
                    fh.write(json.dumps({
                        "target_id": tid, "context_id": did,
                        "label": label, "source_id": source_id},
                        ensure_ascii=False) + "\n")

    with open(OUT / "labels_human.jsonl", "w", encoding="utf-8") as fh:
        for annotator, tid, did, label in HUMAN_LABELS:
            fh.write(json.dumps({
                "target_id": tid, "context_id": did,
                "label": label, "source_id": annotator},
                ensure_ascii=False) + "\n")

    with open(OUT / "config.json", "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def main():
    check_consistency()
    write_all()
    print(f"toy fixture written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
