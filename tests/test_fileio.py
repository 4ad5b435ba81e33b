from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson import fileio
from butson.fileio import (
    FileFormatError,
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    serialize_matrix,
    serialize_vector,
)
from butson.matrices import LogMatrix, LogVector, fourier_matrix, sylvester_matrix

from catalog import sample_bh48


def test_matrix_text_round_trip(tmp_path):
    for h in [sample_bh48(), fourier_matrix(3), sylvester_matrix(2), fourier_matrix(1)]:
        path = tmp_path / "m.bh"
        path.write_text(serialize_matrix(h))
        assert read_matrix(path) == h


def test_matrix_text_bit_exact():
    text = serialize_matrix(fourier_matrix(3))
    assert text == "BH 3 3\n0 0 0\n0 1 2\n0 2 1\n"
    assert serialize_matrix(fourier_matrix(3), comments=["made by hand"]).startswith(
        "# made by hand\nBH 3 3\n"
    )


def test_matrix_json_round_trip(tmp_path):
    for h in [sample_bh48(), fourier_matrix(5)]:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": h.order, "k": h.phase, "rows": h.entries.tolist()}))
        assert read_matrix(path) == h  # sniffed by leading brace


def test_matrix_comments_and_blank_lines():
    text = "# a comment\n\n# another\nBH 2 2\n0 0\n0 1\n"
    assert parse_matrix(text) == fourier_matrix(2)


def test_matrix_diagnostics_carry_line_numbers():
    cases = [
        ("BH 2 2\n0 0\n", "expected 2 rows"),
        ("BH 2 2\n0 0\n0 1\n9 9\n", "line 4"),
        ("BH 2 2\n0 x\n0 1\n", "line 2"),
        ("BH 2 2\n0 5\n0 1\n", "out of range"),
        ("BH 2 2\n0 0 0\n0 1\n", "expected 2 entries"),
        ("HB 2 2\n0 0\n0 1\n", "line 1"),
        ("BH 2\n0 0\n0 1\n", "header"),
        ("BH 0 2\n", "positive"),
        ("BH 2 0\n0 0\n0 0\n", "positive"),
        ("", "no content"),
    ]
    for text, fragment in cases:
        try:
            parse_matrix(text, "bad.bh")
            raise AssertionError(f"expected FileFormatError for {text!r}")
        except FileFormatError as e:
            assert "bad.bh" in str(e)
            assert fragment in str(e), (text, str(e))


def test_matrix_json_diagnostics():
    cases = [
        ('{"n": 2, "rows": [[0,0],[0,1]]}', "missing 'k'"),
        ('{"n": 2, "k": 2, "rows": [[0,0]]}', "list of 2 rows"),
        ('{"n": 2, "k": 2, "rows": [[0,0],[0,9]]}', "out of range"),
        ('{"n": 2, "k": 2, "rows": [[0,0],[0]]}', "row 1 must have 2"),
        ('{"n": "2", "k": 2, "rows": []}', "positive integer"),
        ('{bad json', "invalid JSON"),
    ]
    for text, fragment in cases:
        try:
            parse_matrix(text, "bad.json")
            raise AssertionError(f"expected FileFormatError for {text!r}")
        except FileFormatError as e:
            assert fragment in str(e), (text, str(e))


def test_vector_round_trip(tmp_path):
    rng = random.Random(23)
    for _ in range(20):
        k = rng.choice([2, 3, 4, 8, 13])
        n = rng.randrange(1, 9)
        x = LogVector(k, [rng.randrange(k) for _ in range(n)])
        path = tmp_path / "x.vec"
        path.write_text(serialize_vector(x))
        assert read_vector(path) == x


def test_vector_format_exact():
    assert serialize_vector(LogVector(3, (0, 1, 2))) == "VEC 3 3\n0 1 2\n"


def test_vector_diagnostics():
    cases = [
        ("VEC 3 3\n0 1\n", "expected 3 entries"),
        ("VEC 3 3\n0 1 2\n0 0 0\n", "line 3"),
        ("VEC 3 3\n", "expected one entry line"),
        ("BH 3 3\n0 1 2\n", "header"),
        ("VEC 3 3\n0 1 5\n", "out of range"),
    ]
    for text, fragment in cases:
        try:
            parse_vector(text, "bad.vec")
            raise AssertionError(f"expected FileFormatError for {text!r}")
        except FileFormatError as e:
            assert fragment in str(e), (text, str(e))


def test_random_matrix_round_trips():
    rng = random.Random(29)
    for _ in range(25):
        k = rng.choice([2, 3, 4, 6, 8])
        n = rng.randrange(1, 6)
        h = LogMatrix(k, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        assert parse_matrix(serialize_matrix(h)) == h
        assert parse_matrix(json.dumps({"n": n, "k": k, "rows": h.entries.tolist()})) == h


def test_matrix_json_rejects_booleans():
    # bool is an int subclass in Python; JSON true and false are no integers here
    cases = [
        ('{"n": true, "k": 2, "rows": [[0]]}', "n must be a positive integer, got True"),
        ('{"n": 1, "k": true, "rows": [[0]]}', "k must be a positive integer, got True"),
        ('{"n": 2, "k": 2, "rows": [[0, 0], [0, true]]}', "row 1 entry True out of range [0, 2)"),
    ]
    for text, fragment in cases:
        try:
            parse_matrix(text, "bool.json")
            raise AssertionError(f"expected FileFormatError for {text!r}")
        except FileFormatError as e:
            assert "bool.json" in str(e) and fragment in str(e), (text, str(e))


def _outcome(text):
    try:
        h = parse_matrix(text, "p.bh")
    except FileFormatError as e:
        return "error", str(e), e.line
    return "matrix", h.phase, h.entries.tolist()


def _line_parsed(text):
    # the one-call conversion is refused, so each input goes through the line
    # parser (text) or the validating loop (JSON), as before it existed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_as_entries", lambda *args: None)
        return _outcome(text)


_ODD_TOKENS = ["+1", "-0", "007", "1_0", "\u0663", "\u00b2", "-1", "9", "1.0", "0x1", "x",
               "99999999999999999999", "-99999999999999999999"]
_ODD_ENTRIES = [True, False, 0.0, 1.0, 0.5, -1, 9, 2**63, 2**64, -2**63 - 1, "1", None, [0]]


def _rows(data, n, value, odd):
    """n rows of n values, up to three of them replaced by odd ones; sometimes one
    value moves from row 1 to row 0, so the row lengths still sum to n^2."""
    rows = data.draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(0, 3), label="odd values")):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(st.sampled_from(odd))
    if n > 1 and data.draw(st.booleans(), label="move a value"):
        rows[0].append(rows[1].pop())
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_call_text_parse_matches_the_line_parser(data):
    n, k = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 6), label="k")
    rows = _rows(data, n, st.integers(0, k - 1).map(str), _ODD_TOKENS)
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [f"BH {n} {k}"]
    for row in rows:
        lines += data.draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=1))
        lines.append(data.draw(sep).join(row) + data.draw(st.sampled_from(["", " ", "\t"])))
    text = "\n".join(lines) + "\n"
    assert _outcome(text) == _line_parsed(text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_call_json_parse_matches_the_validating_loop(data):
    n, k = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 6), label="k")
    rows = _rows(data, n, st.integers(0, k - 1), _ODD_ENTRIES)
    text = json.dumps({"n": n, "k": k, "rows": rows})
    assert _outcome(text) == _line_parsed(text)
