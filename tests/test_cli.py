"""End-to-end command-line tests: round trips, exit codes, JSON schemas."""

from __future__ import annotations

import json

import pytest

from butson import cli
from butson.bent import _MODES, ksw_vector
from butson.cli import _build_parser, main
from butson.fileio import read_matrix, read_vector, write_matrix, write_vector
from butson.matrices import LogVector, character_table, fourier_matrix, sylvester_matrix


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_fourier_matches_table(capsys, tmp_path):
    code, out, _ = run(capsys, ["construct", "fourier", "--n", "3"])
    assert code == 0
    assert out == "BH 3 3\n0 0 0\n0 1 2\n0 2 1\n"


def test_construct_round_trips_all_builders(capsys, tmp_path):
    targets = [
        (["construct", "fourier", "--n", "5"], fourier_matrix(5)),
        (["construct", "sylvester", "--m", "3"], sylvester_matrix(3)),
    ]
    for fmt in ("text", "json"):
        for argv, expected in targets:
            path = tmp_path / f"m-{fmt}-{argv[1]}.bh"
            code, _, _ = run(capsys, argv + ["--out", str(path), "--format", fmt])
            assert code == 0
            assert read_matrix(path) == expected
            code, out, _ = run(capsys, ["verify", "hadamard", str(path)])
            assert code == 0 and out == "hadamard: true\n"


def test_construct_bush_and_verify(capsys, tmp_path):
    path = tmp_path / "b52.bh"
    code, _, _ = run(capsys, ["construct", "bush", "--p", "5", "--a", "2",
                              "--out", str(path)])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "bush", str(path)])
    assert code == 0 and out == "bush: true\n"


def test_verify_bush_rejects_plain_hadamard(capsys, tmp_path):
    path = tmp_path / "f4.bh"
    run(capsys, ["construct", "fourier", "--n", "4", "--out", str(path)])
    code, out, _ = run(capsys, ["verify", "bush", str(path), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] is False and payload["reason"]


def test_construct_kron(capsys, tmp_path):
    a, b, out_path = tmp_path / "a.bh", tmp_path / "b.bh", tmp_path / "ab.bh"
    run(capsys, ["construct", "fourier", "--n", "2", "--out", str(a)])
    run(capsys, ["construct", "fourier", "--n", "3", "--out", str(b)])
    code, _, _ = run(capsys, ["construct", "kron", str(a), str(b), "--out", str(out_path)])
    assert code == 0
    h = read_matrix(out_path)
    assert h.order == 6 and h.phase == 6
    assert main(["verify", "hadamard", str(out_path)]) == 0


def test_verify_hadamard_mutated_entry_fails(capsys, tmp_path):
    path = tmp_path / "bad.bh"
    path.write_text("BH 3 3\n0 0 0\n0 1 2\n0 2 2\n")
    code, out, _ = run(capsys, ["verify", "hadamard", str(path)])
    assert code == 1 and out == "hadamard: false\n"


def test_malformed_file_reports_line_number(capsys, tmp_path):
    path = tmp_path / "mangled.bh"
    path.write_text("BH 3 3\n0 0 0\n0 x 2\n0 2 1\n")
    code, _, err = run(capsys, ["verify", "hadamard", str(path)])
    assert code == 2
    assert "line 3" in err and str(path) in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", "hadamard", str(tmp_path / "absent.bh")])
    assert code == 2 and "error:" in err


def test_bad_arguments_exit_2(capsys):
    assert main(["construct", "fourier"]) != 0  # missing --n
    code, _, err = run(capsys, ["construct", "fourier", "--n", "0"])
    assert code == 2 and "error:" in err


def test_bent_check_certifies_ksw(capsys, tmp_path):
    mpath, vpath = tmp_path / "f33.bh", tmp_path / "x.vec"
    write_matrix(character_table([3, 3]), mpath)
    write_vector(ksw_vector(3, 2), vpath)
    code, out, _ = run(capsys, ["bent-check", str(mpath), str(vpath)])
    assert code == 0
    assert out.splitlines()[0] == "kind: conjugate_self_dual"
    code, out, _ = run(capsys, ["bent-check", str(mpath), str(vpath), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugate_self_dual"] is True
    assert payload["conjugate_self_dual_unit"]["str"] == "3"
    assert payload["dual_entry_orders"] == [1, 1, 1, 1, 3, 3, 1, 3, 3]


def test_bent_check_rejects_non_bent(capsys, tmp_path):
    mpath, vpath = tmp_path / "f3.bh", tmp_path / "x.vec"
    write_matrix(fourier_matrix(3), mpath)
    write_vector(LogVector(3, (0, 0, 0)), vpath)
    code, out, _ = run(capsys, ["bent-check", str(mpath), str(vpath)])
    assert code == 1 and "not_bent" in out


def test_bent_search_stream_and_determinism(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    write_matrix(character_table([3, 3]), mpath)
    base = ["bent-search", str(mpath), "--mode", "conjugate_self_dual",
            "--budget", "400"]
    code, out1, _ = run(capsys, base + ["--workers", "1"])
    assert code == 0
    code, out2, _ = run(capsys, base + ["--workers", "2"])
    assert out1 == out2
    lines = out1.splitlines()
    assert lines, "expected at least one hit within the budget"
    index, entries = lines[0].split(": ")
    assert index.isdigit() and len(entries.split()) == 9
    code, jout, _ = run(capsys, base + ["--workers", "1", "--json"])
    hits = [json.loads(line) for line in jout.splitlines()]
    assert [h["index"] for h in hits] == [int(l.split(":")[0]) for l in lines]
    assert all(h["kind"] == "conjugate_self_dual" for h in hits)


def test_covering_radius_from_matrix_json(capsys, tmp_path):
    mpath = tmp_path / "b31.bh"
    run(capsys, ["construct", "bush", "--p", "3", "--a", "1", "--out", str(mpath)])
    code, out, _ = run(capsys, ["covering-radius", "--code-from", str(mpath),
                                "--workers", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["radius_or_bound"] == 5 and payload["exact"] is True
    assert payload["upper_bound"] == {"rational_part": "6", "root_coefficient": "-1/3",
                                      "radicand": 9, "floor": 5}
    assert payload["premises"] == {"self_complementary": True, "strength_2": True}


def test_covering_radius_rm_and_exact_flag(capsys):
    code, out, _ = run(capsys, ["covering-radius", "--rm", "2,2", "--exact"])
    assert code == 0
    assert out.splitlines()[0] == "radius: 1"


def test_covering_radius_bent_vector_lower_bound(capsys, tmp_path):
    mpath, vpath = tmp_path / "f33.bh", tmp_path / "x.vec"
    write_matrix(character_table([3, 3]), mpath)
    write_vector(ksw_vector(3, 2), vpath)
    code, out, _ = run(capsys, ["covering-radius", "--code-from", str(mpath),
                                "--bent-vector", str(vpath), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"] == 4
    assert payload["radius_or_bound"] == 5


@pytest.mark.parametrize("source", [["--rm", "3,2"], ["--code-from", "{f5}"]])
def test_covering_radius_bent_vector_needs_a_phase_3_matrix(capsys, tmp_path, monkeypatch, source):
    mpath, vpath = tmp_path / "f5.bh", tmp_path / "x.vec"
    write_matrix(fourier_matrix(5), mpath)
    write_vector(ksw_vector(3, 2), vpath)  # length 9: F(C_5) would reject it, if it were read
    monkeypatch.setattr(cli, "covering_radius", None)  # the usage error comes before any scan
    argv = ["covering-radius", *(a.format(f5=mpath) for a in source), "--bent-vector", str(vpath)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: <args>: --bent-vector needs --code-from with a phase-3 matrix\n"


def test_covering_radius_sampled_is_seed_reproducible(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    write_matrix(character_table([3, 3]), mpath)
    argv = ["covering-radius", "--code-from", str(mpath), "--sample", "200",
            "--seed", "11"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    assert out1.splitlines()[0].startswith("radius lower bound (sampled): ")
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    _, jout, _ = run(capsys, argv + ["--json"])
    payload = json.loads(jout)
    assert payload["exact"] is False
    assert payload["radius_or_bound"] <= 5


@pytest.mark.parametrize("count", ["0", "-5", "two"])
def test_covering_radius_sample_count_must_be_positive(capsys, count):
    code, out, err = run(capsys, ["covering-radius", "--rm", "2,2", "--sample", count])
    assert code == 2 and out == ""
    assert "usage:" in err and "--sample" in err


def test_covering_radius_source_flags_are_exclusive(capsys, tmp_path):
    mpath = tmp_path / "f3.bh"
    write_matrix(fourier_matrix(3), mpath)
    code, _, err = run(capsys, ["covering-radius"])
    assert code == 2 and "choose exactly one" in err
    code, _, err = run(capsys, ["covering-radius", "--code-from", str(mpath),
                                "--rm", "2,2"])
    assert code == 2


def test_obstructions_violation_and_clear(capsys):
    code, out, _ = run(capsys, ["obstructions", "--n", "5", "--k", "13"])
    assert code == 1
    assert "square-p-part" in out and "violated" in out
    code, out, _ = run(capsys, ["obstructions", "--n", "9", "--k", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["any_violated"] is False
    assert all(set(v) == {"rule", "applicable", "violated", "witness"}
               for v in payload["verdicts"])


def test_order_found_and_not_found(capsys, tmp_path):
    mpath = tmp_path / "b31.bh"
    run(capsys, ["construct", "bush", "--p", "3", "--a", "1", "--out", str(mpath)])
    code, out, _ = run(capsys, ["order", str(mpath)])
    assert code == 0 and out == "order: 3\n"
    code, out, _ = run(capsys, ["order", str(mpath), "--max-t", "2", "--json"])
    assert code == 1 and json.loads(out)["order"] is None


def test_verify_unbiased_exit_codes(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    write_matrix(character_table([3, 3]), mpath)
    code, out, _ = run(capsys, ["verify", "unbiased", str(mpath), str(mpath)])
    assert code == 1 and out == "unbiased: false\n"


def test_bush_subcommand_writes_and_checks(capsys, tmp_path):
    path = tmp_path / "b.bh"
    code, out, _ = run(capsys, ["bush", "--p", "3", "--a", "2", "--out", str(path),
                                "--verify-algebra"])
    assert code == 0
    assert "projector algebra: true" in out
    assert read_matrix(path).order == 9
    code, out, _ = run(capsys, ["bush", "--p", "5", "--a", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 25 and payload["algebra"] is None


def test_construct_ksw_round_trip(capsys, tmp_path):
    path = tmp_path / "x.vec"
    code, _, _ = run(capsys, ["construct", "ksw", "--k", "3", "--m", "2",
                              "--out", str(path)])
    assert code == 0
    assert read_vector(path) == ksw_vector(3, 2)


def test_an_instance_too_large_to_allocate_exits_2(capsys):
    # 3^30 int64 entries: numpy refuses the 1.46 PiB request before allocating anything
    code, out, err = run(capsys, ["construct", "ksw", "--k", "3", "--m", "30"])
    assert code == 2 and not out and err.startswith("error: ")


def test_construct_rm_lists_words(capsys):
    code, out, _ = run(capsys, ["construct", "rm", "--q", "2", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#") and "min distance 2" in lines[0]
    assert len(lines) == 1 + 8
    assert lines[1] == "0 0 0 0"


def test_parser_defaults_to_one_worker_and_takes_the_search_modes():
    parser = _build_parser()
    assert parser.parse_args(["bent-search", "m.bh"]).workers == 1
    assert parser.parse_args(["covering-radius", "--rm", "3,2"]).workers == 1
    for mode in _MODES:
        assert parser.parse_args(["bent-search", "m.bh", "--mode", mode]).mode == mode


NOT_HADAMARD = "BH 3 3\n0 0 0\n0 1 2\n0 2 2\n"  # rows 1 and 2 are not orthogonal


@pytest.mark.parametrize("argv,code", [
    (["bent-check", "h.bh", "x.vec"], 2),
    (["bent-search", "h.bh"], 2),
    (["order", "h.bh"], 2),
    (["covering-radius", "--code-from", "h.bh"], 2),
    (["verify", "hadamard", "h.bh"], 1),
    (["verify", "bush", "h.bh"], 1),
    (["verify", "unbiased", "h.bh", "h.bh"], 1),
])
def test_exit_code_of_a_non_hadamard_matrix(capsys, tmp_path, argv, code):
    # a verify subcommand decides the property (1 when false); the others need a
    # Butson Hadamard matrix as a precondition and reject any other input (2)
    files = {"h.bh": NOT_HADAMARD, "x.vec": "VEC 3 3\n0 0 0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    got, out, err = run(capsys, [str(tmp_path / a) if a in files else a for a in argv])
    assert got == code
    if code == 1:
        assert ": false" in out and not err
    else:
        assert not out and err.startswith("error: ")


def test_a_json_boolean_entry_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n": 2, "k": 2, "rows": [[0, 0], [0, true]]}')
    code, out, err = run(capsys, ["verify", "hadamard", str(path)])
    assert code == 2 and not out
    assert err.startswith("error: ") and "row 1 entry True out of range [0, 2)" in err
