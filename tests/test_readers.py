"""Every input reader either returns records or raises ParseError or
ValidationError, whatever bytes its file holds; no other exception may
escape to the command line as a traceback."""

import codecs
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pncvalence import lexicon
from pncvalence.cli import (CSV_ARTIFACTS, RunConfig, _delta_record, _match_record,
                            read_csv_artifact)
from pncvalence.corpus import TARGETS_FIELDS, read_corpus_jsonl, read_targets_csv
from pncvalence.errors import ParseError, ValidationError
from pncvalence.lexicon import load_lexicon, read_tagged_contexts
from pncvalence.regression import METADATA_FIELDS, read_metadata_csv
from pncvalence.sentiment import read_label_jsonl

TOY = Path(__file__).parent / "data" / "toy"

# characters that carry meaning in one of the formats, plus a few that
# normalise, case-fold or fall outside the BMP
SPECIAL = ',;"\t\r\n#{}[]:-_.\\ 0123456789eEaäAÄßẞ̈ \U0001f600'
fragments = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from(SPECIAL),
                    max_size=12)
# unpaired surrogates: a JSON escape of one, or bytes that are not UTF-8
surrogates = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
numbers = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["", "nan", "-inf", "1e400", "0x10", "1_0"]))
cell = st.one_of(fragments, numbers, st.sampled_from(
    ["politics", "sports", "pnc", "full_name", "norms", "NN", "ADJA", "<unknown>",
     "Tore-Klose", "Tore", "Klose", "A-B"]))


def csv_lines(fields):
    # a header of the reader's columns, shuffled and cut, over rows of cells
    header = st.permutations(list(fields)).flatmap(
        lambda cols: st.integers(0, len(cols)).map(lambda k: cols[k:]))
    row = st.lists(cell | surrogates, max_size=len(fields) + 2).map(",".join)
    return st.tuples(header.map(",".join), st.lists(row, max_size=6)).map(
        lambda hr: [hr[0], *hr[1]])


def tsv_lines(width):
    line = st.one_of(st.lists(cell | surrogates, max_size=width + 1).map("\t".join),
                     fragments.map(lambda s: "#doc:" + s), st.just(""))
    return st.lists(line, max_size=10)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | fragments | surrogates,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(fragments, inner, max_size=3),
    max_leaves=8)


def jsonl_lines(keys):
    obj = st.dictionaries(st.sampled_from(keys) | fragments,
                          json_values | cell, max_size=len(keys) + 1)
    nested = st.integers(1, 3000).map(lambda depth: "[" * depth)
    line = st.one_of(obj.map(json.dumps), json_values.map(json.dumps), fragments,
                     nested)
    return st.lists(line, max_size=6)


def contents(lines):
    joined = lines.flatmap(lambda ls: st.sampled_from(["\n", "\r\n", "\r"]).map(
        lambda end: end.join(ls)))
    return st.one_of(st.binary(max_size=200),
                     joined.map(lambda s: s.encode("utf-8", "surrogatepass")))


def artifact_reader(name, parse):
    # the artifact reader looks the file up by name in a run's out_dir
    def read(path):
        return read_csv_artifact(RunConfig({"out_dir": "."}, Path(path).parent),
                                 name, parse)
    return read, csv_lines(CSV_ARTIFACTS[name])


READERS = {
    "targets": (read_targets_csv,
                csv_lines(TARGETS_FIELDS + ("modifier_lemma",))),
    "corpus": (read_corpus_jsonl,
               jsonl_lines(["doc_id", "source", "text", "url", "date"])),
    "lexicon": (load_lexicon, tsv_lines(2)),
    "tagged_contexts": (read_tagged_contexts, tsv_lines(3)),
    "labels": (lambda path: read_label_jsonl(path, set()),
               jsonl_lines(["target_id", "context_id", "label", "source_id"])),
    "metadata": (read_metadata_csv, csv_lines(METADATA_FIELDS)),
    "matches": artifact_reader("matches.csv", _match_record),
    "deltas": artifact_reader("deltas.csv", _delta_record),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_returns_or_raises_a_validation_error(tmp_path, name):
    read, lines = READERS[name]
    path = tmp_path / f"{name}.csv"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(contents(lines))
    def check(data):
        path.write_bytes(data)
        try:
            read(str(path))
        except ValidationError:  # ParseError included
            pass

    check()


# mostly well-formed tagged files, so that kept blocks hold token lines:
# blocks of a header, token lines and maybe a blank line, with now and then
# a repeated id or a line of two or four fields
tag_cell = st.sampled_from(["Tore", "Tor", "ÄRGER", "<unknown>", "", "NN", "ADJD", "NE"])
tagged_block = st.tuples(
    st.sampled_from("abcdefghijklmnop ").map(lambda s: "#doc:" + s),
    st.lists(st.sampled_from([3] * 12 + [2, 4]).flatmap(
        lambda n: st.lists(tag_cell, min_size=n, max_size=n)).map("\t".join), max_size=4),
    st.sampled_from([[], [""]]))
tagged_lines = st.lists(tagged_block, max_size=5).map(
    lambda blocks: [line for head, body, end in blocks for line in (head, *body, *end)])


def test_tagged_reader_keeps_exactly_the_asked_blocks(tmp_path):
    # reading a subset of doc ids fails as the full read fails, or returns
    # the full read's contexts of those ids, in file order
    path = tmp_path / "tagged_contexts"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(contents(tsv_lines(3)) | contents(tagged_lines).filter(bool), st.data())
    def check(data, draw):
        path.write_bytes(data)
        try:
            full, error = read_tagged_contexts(str(path)), None
        except ParseError as exc:
            full, error = [], (str(exc), exc.line)
        # candidate ids: whatever follows a header marker, found or not
        heads = {head.decode("utf-8", "replace").strip()
                 for head in re.findall(rb"#doc:([^\r\n]*)", data)}
        subset = draw.draw(st.sets(st.sampled_from(sorted(heads | {"absent"}))))
        try:
            kept = read_tagged_contexts(str(path), subset)
        except ParseError as exc:
            assert (str(exc), exc.line) == error
        else:
            assert error is None
            expected = [c for c in full if c.doc_id in subset]
            assert kept == expected
            assert ([(c.content_keys, c.tokens) for c in kept]
                    == [(c.content_keys, c.tokens) for c in expected])

    check()


# tagged files on which the block reader must give what the per-line reader
# gives: well-formed blocks, some under a header with a tab or trailing
# spaces, some with no final newline or a byte-order mark; and as many files
# with a line or two put in anywhere: a carriage return, a whitespace-only
# line, a token line with leading whitespace or the wrong number of fields,
# an undecodable byte, or an empty or repeated id
odd_line = st.sampled_from([
    "Tor\tTor\tNN\r", "Tor\rTor\tTor\tNN", "\r", "#doc:t\r", " \t\t", "\u2028\t\t",
    "\x1c\t\t", "\xa0\t\t", " \t \t ", "", " ", "\t\t", "\x1c", " Tor\tTor\tNN",
    "\tTor\tNN", "Tor\tNN", "Tor\tTor\tNN\tNE", "Tor\tTor\u2028\tNN", "#Tor\tTor\tNN",
    "#doc:", "#doc: ", "#doc:a", "\udcff"])
token_line = st.tuples(tag_cell.filter(bool), tag_cell, tag_cell).map("\t".join)
header_line = st.sampled_from([*("#doc:" + c for c in "abcdefghijklmnop"),
                               "#doc:\tq", "#doc:r  ", "#doc:s\t"])
tagged_blocks = st.lists(
    st.tuples(header_line, st.lists(token_line, max_size=5),
              st.sampled_from([[], [""], ["", ""]])),
    max_size=6, unique_by=lambda block: block[0].strip(),
).map(lambda blocks: [line for head, body, end in blocks for line in (head, *body, *end)])


def put_in(lines, odd):
    lines = list(lines)
    for at, line in odd:
        lines.insert(at % (len(lines) + 1), line)
    return lines


def tagged_bytes(bom, lines, final_newline):
    text = "\n".join(lines) + final_newline
    return (codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8", "surrogateescape")


tagged_file = st.builds(
    tagged_bytes, st.booleans(),
    tagged_blocks | st.builds(put_in, tagged_blocks, st.lists(
        st.tuples(st.integers(0, 40), odd_line), min_size=1, max_size=2)),
    st.sampled_from(["\n", ""]))


def test_block_reader_agrees_with_the_line_reader(tmp_path, monkeypatch):
    # read_tagged_contexts returns what the per-line reader returns, or fails
    # with its message and line, with chunks so short that blocks cross them
    path = tmp_path / "tagged_contexts.tsv"

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tagged_file, st.integers(1, 12),
           st.none() | st.sets(st.sampled_from("abcdefghijklmnopqrs")))
    def check(data, chunk_chars, doc_ids):
        monkeypatch.setattr(lexicon, "_CHUNK_CHARS", chunk_chars)
        path.write_bytes(data)

        def outcome(read):
            try:
                return read(str(path), doc_ids)
            except ParseError as exc:
                return str(exc), exc.line

        assert outcome(read_tagged_contexts) == outcome(lexicon._read_lines)

    check()


@pytest.mark.parametrize("name, file", [
    ("targets", "targets.csv"), ("corpus", "corpus.jsonl"), ("lexicon", "lexicon.tsv"),
    ("tagged_contexts", "tagged_contexts.tsv"), ("labels", "labels_human.jsonl"),
    ("metadata", "metadata.csv")])
def test_byte_order_mark_is_not_content(tmp_path, name, file):
    read = READERS[name][0]
    data = (TOY / file).read_bytes()
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(codecs.BOM_UTF8 + data)
    expected, got = read(str(plain)), read(str(marked))
    if name == "lexicon":
        expected, got = expected.entries, got.entries
    assert got == expected
