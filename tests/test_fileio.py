from __future__ import annotations

import random

from butson.catalog import sample_bh48
from butson.fileio import (
    FileFormatError,
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    serialize_matrix,
    serialize_matrix_json,
    serialize_vector,
    write_matrix,
    write_matrix_json,
    write_vector,
)
from butson.matrices import LogMatrix, LogVector, fourier_matrix, sylvester_matrix


def test_matrix_text_round_trip(tmp_path):
    for h in [sample_bh48(), fourier_matrix(3), sylvester_matrix(2), fourier_matrix(1)]:
        path = tmp_path / "m.bh"
        write_matrix(h, path)
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
        write_matrix_json(h, path)
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
        write_vector(x, path)
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
        assert parse_matrix(serialize_matrix_json(h)) == h


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
