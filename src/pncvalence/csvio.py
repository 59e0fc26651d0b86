"""CSV files: optional `#` comment lines, a header, then one row per record.

Every CSV file the package reads or writes, the lexicon's TSV lines and
the JSON-lines inputs pass through here, so comment lines, line numbers
and errors are handled the same way for all of them.
"""

from __future__ import annotations

import csv
import json
import re
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ParseError, ValidationError, typed

T = TypeVar("T")


def utf8_lines(path: str) -> Iterator[tuple[int, str]]:
    """Number the lines of a UTF-8 file from 1, each with its line ending.
    A byte-order mark at the start of the file is not part of line 1.

    A byte sequence that is not UTF-8 raises ParseError naming its line.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in blocks, so look for the line again
        raise ParseError(f"not UTF-8 ({exc.reason})", path=path,
                         line=_first_undecodable_line(path)) from None


def _first_undecodable_line(path: str) -> int | None:
    # undecodable bytes, and nothing else, decode to lone surrogates here
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_no
    return None


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 file, leaving out `#` comments."""
    for line_no, line in utf8_lines(path):
        if not line.startswith("#"):
            yield line_no, line


def read_csv(path: str, fields: Sequence[str],
             parse: Callable[[dict[str, str | None]], T]) -> list[T]:
    """Parse every row of a CSV file whose header holds at least `fields`.

    parse turns one row (column -> value, None where the row is cut short)
    into a record, raising ValueError, TypeError or ValidationError for a bad
    value. A missing column or a bad value raises ParseError with the file's
    line number.
    """
    line_no = 0

    def lines() -> Iterator[str]:
        nonlocal line_no
        for line_no, line in data_lines(path):
            yield line

    reader = csv.DictReader(lines())
    records = []
    try:
        if reader.fieldnames is None:
            raise ParseError("empty file", path=path)
        missing = [c for c in fields if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing columns: {', '.join(missing)}",
                             path=path, line=line_no)
        for row in reader:
            try:
                records.append(parse(row))
            except (TypeError, ValueError, ValidationError) as exc:
                short = "; the row is cut short" if None in row.values() else ""
                raise ParseError(f"bad row: {exc}{short}", path=path,
                                 line=line_no) from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"bad CSV: {exc}", path=path, line=line_no) from None
    return records


# json.loads turns an unpaired \uD800-\uDFFF escape into a lone surrogate,
# which no UTF-8 output, path or hash can take
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str, **kwargs) -> object:
    """json.loads(text, **kwargs), which also raises ValueError for nesting
    too deep to parse and for a string holding an unpaired surrogate. Only
    text with a surrogate escape is checked for the latter."""
    try:
        obj = json.loads(text, **kwargs)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except UnicodeEncodeError:
        raise ValueError("a string holds an unpaired surrogate escape") from None
    return obj


# the id fields of the JSON-lines inputs; each is a string or an integer
JSONL_ID_FIELDS = ("doc_id", "target_id", "context_id", "source_id")


def read_jsonl(path: str, parse: Callable[[dict], T]) -> list[T]:
    """Parse every non-blank line of a JSON-lines file, each one JSON object
    whose JSONL_ID_FIELDS, where present, are strings or integers. parse
    turns an object into a record, raising KeyError for a missing field or
    ValueError or TypeError for a bad value; errors name path:line."""
    records = []
    for line_no, line in utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = parse_json(line)
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            for key in JSONL_ID_FIELDS:
                value = obj.get(key, "")
                if not typed(value, (str, int)):
                    raise ValueError(f"{key} must be a string or an integer, "
                                     f"got {json.dumps(value)}")
            records.append(parse(obj))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path=path, line=line_no) from exc
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", path=path, line=line_no) from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), path=path, line=line_no) from exc
    return records


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]],
              comment: str) -> None:
    """Write a `# comment` line, a header and rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
