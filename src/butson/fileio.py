"""Bit-exact text serialization for log-form matrices and vectors, and a JSON matrix reader.

Matrix text format: optional `#` comment lines, then a header `BH <n> <k>`,
then n lines of n space-separated integers in [0, k).  The JSON alternative,
read but never written, is an object {"n": ..., "k": ..., "rows": [[...], ...]};
readers sniff the two by the first non-whitespace character.  Vector files use
the header `VEC <n> <k>` followed by a single line of n entries.

A matrix body is read in one pass, as one int64 array from one numpy call.
A text body that pass does not take whole goes to the line-by-line reader,
JSON rows to a per-row loop.  Malformed input raises FileFormatError carrying
the source name and the 1-based line number of the offending line, or for
JSON rows the index of the offending row.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .matrices import LogMatrix, LogVector


class FileFormatError(ValueError):
    """Raised for malformed matrix or vector files, naming source and line."""

    def __init__(self, source: str, line: int | None, message: str):
        where = source if line is None else f"{source}, line {line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


def serialize_matrix(h: LogMatrix, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"BH {h.order} {h.phase}")
    lines.extend(" ".join(str(int(e)) for e in row) for row in h.entries)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, source: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(source, line, f"expected an integer {what}, got {token!r}") from None


def _split_content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) for non-blank, non-comment lines."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((i, stripped))
    return out


def _parse_header(
    text: str, source: str, tag: str
) -> tuple[int, int, list[tuple[int, str]]]:
    lines = _split_content_lines(text)
    if not lines:
        raise FileFormatError(source, None, f"no content, expected a {tag} header")
    line_no, header = lines[0]
    parts = header.split()
    if parts[0] != tag or len(parts) != 3:
        raise FileFormatError(source, line_no, f"expected header '{tag} <n> <k>', got {header!r}")
    n = _parse_int(parts[1], source, line_no, "n")
    k = _parse_int(parts[2], source, line_no, "k")
    if n < 1:
        raise FileFormatError(source, line_no, f"n must be positive, got {n}")
    if k < 1:
        raise FileFormatError(source, line_no, f"k must be positive, got {k}")
    return n, k, lines[1:]


def _parse_entries(
    content: str, source: str, line_no: int, n: int, k: int
) -> list[int]:
    tokens = content.split()
    if len(tokens) != n:
        raise FileFormatError(source, line_no, f"expected {n} entries, got {len(tokens)}")
    entries = [_parse_int(t, source, line_no, "entry") for t in tokens]
    for e in entries:
        if not 0 <= e < k:
            raise FileFormatError(source, line_no, f"entry {e} out of range [0, {k})")
    return entries


def parse_matrix(text: str, source: str = "<string>") -> LogMatrix:
    if text.lstrip()[:1] == "{":
        return _matrix_from_json_text(text, source)
    n, k, body = _parse_header(text, source, "BH")
    if len(body) != n:
        where = body[n][0] if len(body) > n else None
        raise FileFormatError(source, where, f"expected {n} rows, got {len(body)}")
    entries = _as_entries([content.split() for _, content in body], n, k, np.int64)
    if entries is not None:
        return LogMatrix(k, entries)
    # anything else goes to the line parser, which names the first bad line
    rows = [_parse_entries(content, source, line_no, n, k) for line_no, content in body]
    return LogMatrix(k, rows)


def _as_entries(rows: list, n: int, k: int, dtype=None) -> np.ndarray | None:
    """rows as one (n, n) int64 array in one numpy call (with dtype int64, int() of
    every token), or None unless every entry converts and lies in [0, k)."""
    try:
        entries = np.array(rows, dtype=dtype)
    except (ValueError, OverflowError):  # a bad token, ragged rows, past int64
        return None
    if (entries.dtype == np.int64 and entries.shape == (n, n)
            and 0 <= entries.min() and entries.max() < k):
        return entries
    return None


def _matrix_from_json_text(text: str, source: str) -> LogMatrix:
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(source, e.lineno, f"invalid JSON: {e.msg}") from None
    for key in ("n", "k", "rows"):
        if key not in obj:
            raise FileFormatError(source, None, f"JSON object is missing {key!r}")
    n, k, rows = obj["n"], obj["k"], obj["rows"]
    # type(v) is int, not isinstance: JSON true and false load as bool, an int subclass
    if type(n) is not int or n < 1:
        raise FileFormatError(source, None, f"n must be a positive integer, got {n!r}")
    if type(k) is not int or k < 1:
        raise FileFormatError(source, None, f"k must be a positive integer, got {k!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(source, None, f"rows must be a list of {n} rows")
    # JSON true and false load as bool, which numpy would take as 1 and 0; floats,
    # huge ints and nested rows give another dtype or shape and go to the loop below
    if "true" not in text and "false" not in text:
        entries = _as_entries(rows, n, k)
        if entries is not None:
            return LogMatrix(k, entries)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(source, None, f"row {i} must have {n} entries")
        for e in row:
            if type(e) is not int or not 0 <= e < k:
                raise FileFormatError(source, None, f"row {i} entry {e!r} out of range [0, {k})")
    return LogMatrix(k, rows)


def read_matrix(path: str | Path) -> LogMatrix:
    p = Path(path)
    return parse_matrix(p.read_text(), str(p))


def serialize_vector(x: LogVector) -> str:
    entries = " ".join(str(int(e)) for e in x.entries)
    return f"VEC {len(x)} {x.phase}\n{entries}\n"


def parse_vector(text: str, source: str = "<string>") -> LogVector:
    n, k, body = _parse_header(text, source, "VEC")
    if len(body) != 1:
        where = body[1][0] if len(body) > 1 else None
        raise FileFormatError(source, where, f"expected one entry line, got {len(body)}")
    line_no, content = body[0]
    return LogVector(k, _parse_entries(content, source, line_no, n, k))


def read_vector(path: str | Path) -> LogVector:
    p = Path(path)
    return parse_vector(p.read_text(), str(p))
