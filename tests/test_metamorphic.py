"""Metamorphic relations of the pipeline on the toy fixture.

Each test permutes or transforms one input, runs all seven stages and states
exactly how every artifact in out_dir must change. The manifests are left
out of each comparison: they hash the inputs, which the change alters.

Two orders are not pinned here, because a documented first-wins rule makes
the tables depend on them: the corpus order (the first document of a URL is
kept) and the order of lexicon rows whose keys collide (the first row of a
key wins). The toy lexicon holds no colliding key.
"""

import csv
import random
import re
import shutil
from pathlib import Path

import pytest

from pncvalence.cli import STAGES, main

TOY = Path(__file__).parent / "data" / "toy"
PERMUTATIONS = 3


def run_pipeline(directory, changes=None):
    """Copy the toy fixture to directory, replace the text of each file named
    in changes, and run every stage; return {artifact path: bytes} of out_dir
    without the manifests."""
    shutil.copytree(TOY, directory)
    for name, text in (changes or {}).items():
        (directory / name).write_text(text, encoding="utf-8")
    out_dir = directory / "out"
    for command, _, _ in STAGES:
        assert main([command, "--config", str(directory / "config.json"),
                     "--out", str(out_dir)]) == 0, command
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and not p.name.startswith("manifest_")}


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("metamorphic") / "toy")


def toy_text(name):
    return (TOY / name).read_text(encoding="utf-8")


def shuffled_lines(header_lines):
    """Shuffle the lines of a file after its first header_lines lines."""
    def shuffle(text, rng):
        lines = text.splitlines(keepends=True)
        assert all(line.endswith("\n") for line in lines)
        body = lines[header_lines:]
        rng.shuffle(body)
        return "".join(lines[:header_lines] + body)
    return shuffle


def shuffled_blocks(text, rng):
    """Shuffle the #doc: blocks of a tagged-context file, each with the blank
    line that ends it."""
    blocks = re.split(r"(?m)^(?=#doc:)", text)
    assert blocks[0] == "" and all(b.endswith("\n\n") for b in blocks[1:])
    body = blocks[1:]
    rng.shuffle(body)
    return "".join(body)


def permutations(name, shuffle):
    """PERMUTATIONS shuffles of a toy input from a fixed seed, each unlike
    the file."""
    rng = random.Random(f"metamorphic {name}")
    text = toy_text(name)
    for _ in range(PERMUTATIONS):
        permuted = shuffle(text, rng)
        assert permuted != text and sorted(permuted) == sorted(text)
        yield permuted


# the inputs whose order no artifact may show, each with its shuffle
ORDER_FREE = {
    "metadata.csv": shuffled_lines(1),
    "tagged_contexts.tsv": shuffled_blocks,
    "labels_models.jsonl": shuffled_lines(0),
    "labels_human.jsonl": shuffled_lines(0),
    "lexicon.tsv": shuffled_lines(0),
}


class TestInputOrder:
    @pytest.mark.parametrize("name", ORDER_FREE)
    def test_order_changes_no_artifact(self, tmp_path, toy, name):
        for i, text in enumerate(permutations(name, ORDER_FREE[name])):
            assert run_pipeline(tmp_path / str(i), {name: text}) == toy, (name, i)

    def test_target_order_reorders_only_the_per_target_rows(self, tmp_path, toy):
        reordered = ("variants.csv", "freq_report.csv")
        for i, text in enumerate(permutations("targets.csv", shuffled_lines(1))):
            artifacts = run_pipeline(tmp_path / str(i), {"targets.csv": text})
            assert artifacts.keys() == toy.keys()
            for name in toy:
                if name not in reordered:
                    assert artifacts[name] == toy[name], (name, i)
                    continue
                # the comment and header lines, then the rows in any order
                lines = artifacts[name].splitlines(keepends=True)
                expected = toy[name].splitlines(keepends=True)
                assert lines[:2] == expected[:2], (name, i)
                assert lines != expected, (name, i)
                assert sorted(lines[2:]) == sorted(expected[2:]), (name, i)


def deltas(artifacts):
    """(target_id, approach) -> delta of the deltas.csv in artifacts."""
    lines = artifacts["deltas.csv"].decode("utf-8").splitlines()
    return {(r["target_id"], r["approach"]): float(r["delta"])
            for r in csv.DictReader(line for line in lines if not line.startswith("#"))}


class TestLexiconReflection:
    def test_reflected_valences_negate_every_delta(self, tmp_path, toy):
        # v -> 10 - v mirrors the 0..10 scale around its midpoint 5, so every
        # mean valence reflects and every difference of two changes sign
        reflected = "".join(
            f"{form}\t{10 - float(value)!r}\n"
            for form, value in (line.split("\t")
                                for line in toy_text("lexicon.tsv").splitlines()))
        mirrored = deltas(run_pipeline(tmp_path / "reflected", {"lexicon.tsv": reflected}))
        toy_deltas = deltas(toy)
        assert toy_deltas and mirrored.keys() == toy_deltas.keys()
        # each side is rounded to 6 decimals
        for key, delta in toy_deltas.items():
            assert abs(delta + mirrored[key]) <= 2e-6, key
