"""Quantify the evaluative shift of German personal name compounds.

The package measures how compounding a modifier onto a person's name
("Willkommens-Merkel") shifts the valence of the surrounding contexts
relative to the bare full name, via affective lexicon lookups and via
sentiment label distributions, and models what explains the shift.
"""

__version__ = "0.1.0"
