"""End-to-end command-line tests: round trips, exit codes, JSON schemas."""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from butson import bush, cli, codes
from butson.bent import _MODES, ksw_vector
from butson.cli import _build_parser, main
from butson.fileio import read_matrix, read_vector, serialize_matrix, serialize_vector
from butson.matrices import LogMatrix, LogVector, character_table, fourier_matrix, sylvester_matrix


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
    for argv, expected in targets:
        path = tmp_path / f"m-{argv[1]}.bh"
        code, _, _ = run(capsys, argv + ["--out", str(path)])
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


@pytest.mark.parametrize("argv,code,stream,line", [
    (["verify", "bush", "{zero}"], 1, 1, "bush: false (base matrix is not Butson Hadamard)\n"),
    (["obstructions", "--n", "7", "--k", "3"], 0, 1, "  p=7: not applicable, 7 not self-conjugate mod 3\n"),
    (["bent-check", "{s2}", "{x22}"], 0, 1, "\nself-dual unit: 2\n"),
    (["covering-radius", "--rm", "a,b"], 2, 2, "expected integers q,m"),
    (["covering-radius", "--rm", "2,2", "--budget", "0"], 2, 2, "expected a positive integer"),
    (["covering-radius", "--rm", "2,2", "--sample", "3", "--budget", "-1"], 2, 2,
     "expected a positive integer"),
    (["construct", "fourier", "--n", "3", "--format", "json"], 2, 2,
     "unrecognized arguments: --format json"),
])
def test_each_path_prints_its_line(capsys, tmp_path, argv, code, stream, line):
    # stream 1 is stdout, 2 is stderr; a usage error (exit 2) leaves stdout empty
    files = {name: str(tmp_path / name) for name in ("zero", "s2", "x22")}
    (tmp_path / "zero").write_text("BH 4 2\n" + "0 0 0 0\n" * 4)
    run(capsys, ["construct", "sylvester", "--m", "2", "--out", files["s2"]])
    run(capsys, ["construct", "ksw", "--k", "2", "--m", "2", "--out", files["x22"]])
    got = run(capsys, [a.format(**files) for a in argv])
    assert got[0] == code and line in got[stream]
    assert code != 2 or got[1] == ""


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


def test_verify_unbiased_of_two_orders_is_a_usage_error(capsys, tmp_path):
    f3, f9 = tmp_path / "f3.bh", tmp_path / "f9.bh"
    f3.write_text(serialize_matrix(fourier_matrix(3)))
    f9.write_text(serialize_matrix(character_table([3, 3])))
    code, out, err = run(capsys, ["verify", "unbiased", str(f3), str(f9)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "order mismatch" in err


@pytest.mark.parametrize("vector, error", [
    ("VEC 3 4\n0 1 2\n", "error: phase mismatch: matrix 3, vector 4\n"),
    ("VEC 9 3\n" + "0 " * 8 + "0\n", "error: length mismatch: matrix order 3, vector 9\n"),
])
def test_bent_check_of_a_vector_that_does_not_fit_is_a_usage_error(capsys, tmp_path, vector, error):
    mpath, vpath = tmp_path / "f3.bh", tmp_path / "x.vec"
    mpath.write_text(serialize_matrix(fourier_matrix(3)))
    vpath.write_text(vector)
    code, out, err = run(capsys, ["bent-check", str(mpath), str(vpath)])
    assert (code, out, err) == (2, "", error)


def test_bad_arguments_exit_2(capsys):
    assert main(["construct", "fourier"]) != 0  # missing --n
    code, _, err = run(capsys, ["construct", "fourier", "--n", "0"])
    assert code == 2 and "error:" in err


def test_bent_check_certifies_ksw(capsys, tmp_path):
    mpath, vpath = tmp_path / "f33.bh", tmp_path / "x.vec"
    mpath.write_text(serialize_matrix(character_table([3, 3])))
    vpath.write_text(serialize_vector(ksw_vector(3, 2)))
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
    mpath.write_text(serialize_matrix(fourier_matrix(3)))
    vpath.write_text(serialize_vector(LogVector(3, (0, 0, 0))))
    code, out, _ = run(capsys, ["bent-check", str(mpath), str(vpath)])
    assert code == 1 and "not_bent" in out


def test_bent_search_stream_and_determinism(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    mpath.write_text(serialize_matrix(character_table([3, 3])))
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


def test_covering_radius_rm(capsys):
    code, out, _ = run(capsys, ["covering-radius", "--rm", "2,2"])
    assert code == 0
    assert out.splitlines()[0] == "radius: 1"


def test_covering_radius_bent_vector_lower_bound(capsys, tmp_path):
    mpath, vpath = tmp_path / "f33.bh", tmp_path / "x.vec"
    mpath.write_text(serialize_matrix(character_table([3, 3])))
    vpath.write_text(serialize_vector(ksw_vector(3, 2)))
    code, out, _ = run(capsys, ["covering-radius", "--code-from", str(mpath),
                                "--bent-vector", str(vpath), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"] == 4
    assert payload["radius_or_bound"] == 5


@pytest.mark.parametrize("source", [["--rm", "3,2"], ["--code-from", "{f5}"]])
def test_covering_radius_bent_vector_needs_a_phase_3_matrix(capsys, tmp_path, monkeypatch, source):
    mpath, vpath = tmp_path / "f5.bh", tmp_path / "x.vec"
    mpath.write_text(serialize_matrix(fourier_matrix(5)))
    vpath.write_text(serialize_vector(ksw_vector(3, 2)))  # length 9: F(C_5) would reject it, if it were read
    monkeypatch.setattr(codes, "covering_radius", None)  # the usage error comes before any scan
    argv = ["covering-radius", *(a.format(f5=mpath) for a in source), "--bent-vector", str(vpath)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: <args>: --bent-vector needs --code-from with a phase-3 matrix\n"


def test_covering_radius_sampled_is_seed_reproducible(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    mpath.write_text(serialize_matrix(character_table([3, 3])))
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


def test_an_exhaustive_radius_past_the_int64_index_range_exits_2(capsys, monkeypatch):
    # 3^81 ambient vectors: a budget cannot let them through, and no scan starts
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(codes, "fan_out", no_scan)
    code, out, err = run(capsys, ["covering-radius", "--rm", "3,4", "--budget", str(10**40),
                                  "--workers", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "int64 index range" in err


@pytest.mark.parametrize("count", ["0", "-5", "two"])
def test_covering_radius_sample_count_must_be_positive(capsys, count):
    code, out, err = run(capsys, ["covering-radius", "--rm", "2,2", "--sample", count])
    assert code == 2 and out == ""
    assert "usage:" in err and "--sample" in err


def test_covering_radius_source_flags_are_exclusive(capsys, tmp_path):
    mpath = tmp_path / "f3.bh"
    mpath.write_text(serialize_matrix(fourier_matrix(3)))
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


@pytest.mark.parametrize("n,k", [(3, 3), (27, 3), (8, 4)])
def test_a_violated_shape_rule_alone_exits_0(capsys, n, k):
    # bent vectors exist at these pairs; entry-root-form only restricts their dual entries
    code, out, _ = run(capsys, ["obstructions", "--n", str(n), "--k", str(k), "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["any_violated"] is False
    assert [v["rule"] for v in payload["verdicts"] if v["violated"]] == ["entry-root-form"]


def _buffered_env() -> dict:
    """The environment of a `butson` process whose stdout is block-buffered."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_the_process_entry_imports_no_pool_and_exits_flushed(capsys):
    argv = ["obstructions", "--n", "9", "--k", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    script = "\n".join([
        "import atexit, sys",
        "import butson.cli",
        # every module a command runs, since the CLI itself imports them per command
        "import butson.bent, butson.bush, butson.codes, butson.fileio, butson.matrices",
        "print(sorted({'multiprocessing', 'dataclasses'} & set(sys.modules)))",
        "atexit.register(lambda: print('atexit hook ran'))",
        f"sys.argv = {['butson', *argv]!r}",
        "butson.cli.run()",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=_buffered_env())
    assert proc.returncode == 0
    assert proc.stdout == "[]\n" + want  # complete, and no atexit hook ran after it
    assert proc.stderr == ""


def test_the_process_entry_runs_main_without_the_collector(monkeypatch):
    # a command's objects live until os._exit, so run() turns the collector off first
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    monkeypatch.setattr(cli.os, "_exit", seen.append)
    try:
        cli.run()
    finally:
        gc.enable()
    assert seen == [False, 0]


def test_help_names_every_command_and_no_internals(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    for command in ("construct", "verify", "bent-check", "bent-search", "covering-radius",
                    "obstructions", "order", "bush"):
        assert command in out
    assert "Exit codes" in out
    for internal in ("os._exit", "run()", "main()", "import"):
        assert internal not in out


def _parser_corpus(tmp_path) -> tuple[list[list[str]], list[list[str]]]:
    """(commands that parse, argv that print help or fail to parse)."""
    f9, vec = tmp_path / "f9.bh", tmp_path / "x.vec"
    f9.write_text(serialize_matrix(character_table([3, 3])))
    vec.write_text(serialize_vector(ksw_vector(3, 2)))
    f9, vec = str(f9), str(vec)
    parse = [
        ["obstructions", "--n", "9", "--k", "3"],
        ["obstructions", "--n", "5", "--k", "13", "--json"],
        ["construct", "fourier", "--n", "3"],
        ["construct", "sylvester", "--m", "2"],
        ["construct", "ksw", "--k", "3", "--m", "2"],
        ["construct", "rm", "--q", "2", "--m", "2"],
        ["verify", "hadamard", f9],
        ["verify", "bush", f9, "--json"],
        ["bent-check", f9, vec],
        ["bent-search", f9, "--mode", "conjugate_self_dual", "--budget", "500"],
        ["bent-search", f9, "--wor", "2", "--budget", "300"],
        ["bent-search", f9, "--budget", "300", "--js"],
        ["covering-radius", "--rm", "2,2"],
        ["covering-radius", "--sample", "3", "--rm", "2,2"],
        ["order", f9, "--max-t", "4"],
        ["bush", "--p", "3", "--a", "1", "--verify-algebra"],
    ]
    other = [
        [], ["nonsense"], ["bent_search", f9], ["--json", "obstructions", "--n", "3", "--k", "3"],
        ["obstructions"], ["obstructions", "--n", "x", "--k", "3"],
        ["obstructions", "--n", "3", "--k", "3", "--bogus"],
        ["obstructions", "--n", "3", "--k", "3", "extra"],
        ["bent-search", f9, "--mode", "weird"], ["bent-search", f9, "--workers", "0"],
        ["bent-search"], ["construct"], ["construct", "nope"], ["verify", "hadamard"],
        ["covering-radius", "--rm", "2"], ["covering-radius", "--b", "3", "--rm", "2,2"],
        ["covering-radius", "--rm", "2,2", "--exact"],
        ["bush", "--p", "3"], ["order", f9, "--max-t", "x"],
        ["-h"], ["--help"], ["--he"], ["-h", "bent-search"], ["construct", "-h"],
        ["construct", "fourier", "-h"], ["verify", "--help"], ["verify", "unbiased", "-h"],
        ["bent-check", "-h"], ["bent-search", "--he"], ["bent-search", f9, "-h"],
        ["covering-radius", "-h"], ["obstructions", "-h"], ["order", "-h"], ["bush", "-h"],
    ]
    return parse, other


def _asks_for_help(argv) -> bool:
    return any(a == "-h" or (a.startswith("--h") and "--help".startswith(a)) for a in argv)


def test_each_call_builds_one_parser_and_usage_goes_to_its_stream(capsys, monkeypatch, tmp_path):
    # help prints usage on stdout and exits 0, a parse error prints usage and the
    # error on stderr and exits 2, a command that parses prints no usage; each
    # call of main builds the parser tree once
    monkeypatch.setenv("COLUMNS", "80")
    parse, other = _parser_corpus(tmp_path)
    build, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser", lambda *a: built.append(a) or build(*a))
    exits = set()
    for argv in parse + other:
        built.clear()
        code, out, err = run(capsys, argv)
        assert len(built) == 1, argv
        exits.add(code)
        if argv in parse:
            assert "usage:" not in out + err, argv
        elif _asks_for_help(argv):
            assert (code, err) == (0, "") and out.startswith("usage: butson"), argv
        else:
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage: butson") and "error:" in err, argv
    assert exits == {0, 1, 2}


def _branches(parser):
    """Every leaf parser of the tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for branch in action.choices.values():
            yield from _branches(branch)


def test_every_branch_that_takes_json_has_a_text_renderer():
    branches = list(_branches(_build_parser()))
    takes_json = {b.prog: any("--json" in a.option_strings for a in b._actions) for b in branches}
    assert sum(takes_json.values()) == 9
    for b in branches:
        assert callable(b.get_default("text")) == takes_json[b.prog], b.prog


def test_text_is_the_renderer_applied_to_each_json_record(capsys, monkeypatch, tmp_path):
    # every query command of the parser corpus and the golden cases, run with and
    # without --json: text renders the same records, with the same exit code
    from test_golden import CLI_CASES

    monkeypatch.chdir(tmp_path)  # the golden cases read the files their constructs write
    parse, _ = _parser_corpus(tmp_path)
    renderers = set()
    for argv in [argv for _, argv in CLI_CASES] + parse:
        code, out, err = run(capsys, argv)
        if code == 2 and not out:  # a usage error answers nothing
            continue
        args = _build_parser().parse_args(argv)
        text = getattr(args, "text", None)
        if text is None or (args.command == "bush" and not (args.out or args.verify_algebra)):
            continue  # writers: their text output is a matrix or a file
        plain = [a for a in argv if not (a.startswith("--j") and "--json".startswith(a))]
        code, out, err = run(capsys, plain)
        jcode, jout, jerr = run(capsys, plain + ["--json"])
        assert (code, err) == (jcode, jerr), argv
        records = [json.loads(line) for line in jout.splitlines()]
        assert out == "".join(line + "\n" for r in records for line in text(r)), argv
        renderers.add(text)
    assert len(renderers) == 7  # one shared by the verify commands, one for each other query


@pytest.mark.parametrize("argv,code", [
    (["construct", "fourier", "--n", "300"], 0),  # about 330 KB, past any pipe buffer
    (["--help"], 0),  # left unflushed by main(): run() flushes it
    (["obstructions", "--n", "5", "--k", "13"], 1),
    (["obstructions", "--n", "x", "--k", "13"], 2),
])
def test_python_m_streams_arrive_whole(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    want = run(capsys, argv)
    assert want[0] == code
    proc = subprocess.run([sys.executable, "-m", "butson", *argv], capture_output=True,
                          text=True, timeout=60, env=_buffered_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_a_reader_that_leaves_early_ends_the_stream_with_exit_0():
    proc = subprocess.Popen([sys.executable, "-m", "butson", "construct", "fourier", "--n", "300"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env())
    assert proc.stdout.readline() == b"BH 300 300\n"
    proc.stdout.close()  # like `| head -n 1`: the rest meets a closed pipe
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_reader_that_leaves_a_search_early_closes_the_search(tmp_path, json_flag):
    # an endless search stands in for a long scan; closing it is what stops a pool
    path = tmp_path / "f3.bh"
    path.write_text(serialize_matrix(fourier_matrix(3)))
    script = "\n".join([
        "import itertools, sys",
        "from butson import bent, cli",
        "def endless(*args):",
        "    try:",
        "        for i in itertools.count():",
        "            yield bent.SearchHit(i, bent.LogVector(3, (0, 1, 2)), 'bent')",
        "    finally:",
        "        sys.stderr.write('search closed\\n')",
        "bent.search_bent = endless",
        f"sys.argv = {['butson', 'bent-search', str(path), *json_flag]!r}",
        "cli.run()",
    ])
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_buffered_env())
    assert proc.stdout.readline().startswith(b'{"index": 0' if json_flag else b"0: 0 1 2")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b"search closed\n"
    proc.stderr.close()


@pytest.mark.parametrize("argv", [["obstructions", "--n", "5", "--k", "13"], ["--help"]])
def test_numpy_free_commands_never_import_numpy(argv):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "butson", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "butson.cli" in imported
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
    assert proc.returncode == (1 if argv[0] == "obstructions" else 0)


def test_text_output_never_imports_json(tmp_path):
    path = tmp_path / "f9.bh"
    path.write_text(serialize_matrix(character_table([3, 3])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "butson", "bent-search",
                           str(path), "--budget", "2000"], capture_output=True, text=True,
                          timeout=60, env=_buffered_env())
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert proc.returncode == 0 and proc.stdout.startswith("142: ")
    assert "butson.bent" in imported and "json" not in imported


def test_order_found_and_not_found(capsys, tmp_path):
    mpath = tmp_path / "b31.bh"
    run(capsys, ["construct", "bush", "--p", "3", "--a", "1", "--out", str(mpath)])
    code, out, _ = run(capsys, ["order", str(mpath)])
    assert code == 0 and out == "order: 3\n"
    code, out, _ = run(capsys, ["order", str(mpath), "--max-t", "2", "--json"])
    assert code == 1 and json.loads(out)["order"] is None


def test_verify_unbiased_exit_codes(capsys, tmp_path):
    mpath = tmp_path / "f33.bh"
    mpath.write_text(serialize_matrix(character_table([3, 3])))
    code, out, _ = run(capsys, ["verify", "unbiased", str(mpath), str(mpath)])
    assert code == 1 and out == "unbiased: false\n"
    # every entry of A B* is z times a 4th root, but the roots table [[0, 3], [3, 2]]
    # is not Hadamard: only the roots-table check rejects this pair
    a, b = tmp_path / "a.bh", tmp_path / "b.bh"
    a.write_text("BH 2 4\n3 0\n2 3\n")
    b.write_text("BH 2 4\n3 1\n0 2\n")
    code, out, _ = run(capsys, ["verify", "unbiased", str(a), str(b)])
    assert code == 1 and out == "unbiased: false\n"
    # the check is A B* = z L, rows against rows: B_1 and B_2 at p = 3 pass it, and
    # multiplying column 0 of B_2 by zeta breaks it, though A* B = 3 zeta L still holds
    b2 = bush.bush_circulant(3, 2)
    a.write_text(serialize_matrix(bush.bush_circulant(3, 1)))
    b.write_text(serialize_matrix(b2))
    code, out, _ = run(capsys, ["verify", "unbiased", str(a), str(b)])
    assert code == 0 and out == "unbiased: true with constant 3\n"
    entries = b2.entries.copy()
    entries[:, 0] += 1  # LogMatrix reduces mod 3
    b.write_text(serialize_matrix(LogMatrix(3, entries)))
    code, out, _ = run(capsys, ["verify", "unbiased", str(a), str(b)])
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


@pytest.mark.parametrize("argv", [["bush", "--p", "13", "--a", "1", "--verify-algebra", "--json"],
                                  ["bush", "--p", "5", "--a", "1", "--json"]])
def test_bush_verifies_b_a_only_when_it_writes_it(capsys, monkeypatch, tmp_path, argv):
    def refuse(table, block_size):
        raise ValueError("BushMatrix built")

    monkeypatch.setattr(bush, "BushMatrix", refuse)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == int(argv[2]) ** 2
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / "b.bh")])
    assert (code, out, err) == (2, "", "error: BushMatrix built\n")


_BUSH_REJECTED = [(2, 1, "p must be an odd prime, got 2"), (15, 1, "p must be an odd prime, got 15"),
                  (13, 0, "residue a must be nonzero mod 13, got 0"),
                  (13, 13, "residue a must be nonzero mod 13, got 13")]


@pytest.mark.parametrize("p,a,flag,code,stderr", [
    *[(p, a, flag, 2, f"error: {message}\n")
      for p, a, message in _BUSH_REJECTED for flag in ("--verify-algebra", "--json")],
    (17, 1, "--verify-algebra", 2, "error: projector algebra check supports p <= 13, got 17\n"),
    (17, 1, "--json", 0, ""),  # only the algebra check caps p
    (13, 14, "--json", 0, ""),  # a is read mod p
])
def test_bush_exit_codes_and_error_lines(capsys, p, a, flag, code, stderr):
    got, out, err = run(capsys, ["bush", "--p", str(p), "--a", str(a), flag])
    assert (got, err) == (code, stderr)
    if code == 0:
        assert json.loads(out)["n"] == p * p
    else:
        assert out == ""


@pytest.mark.parametrize("a", ["7", "-3"])
def test_construct_bush_reads_a_mod_p(capsys, a):
    want = run(capsys, ["construct", "bush", "--p", "5", "--a", "2"])
    assert want[0] == 0
    assert run(capsys, ["construct", "bush", "--p", "5", "--a", a]) == want


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_bush_at_a_large_prime_is_refused_before_the_projector_stack():
    # B_a at p = 1009 needs 7.5 TiB and is refused at once; its p^3 projector stack
    # (7.6 GiB) would be filled first if it were built first.  The address-space cap
    # turns that regression into a MemoryError of another shape in the child.
    cap = 512 * 2**20
    code = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from butson.cli import main\n"
        "raise SystemExit(main(['bush', '--p', '1009', '--a', '1', '--json']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: Unable to allocate")
    assert "shape (1009, 1009, 1009, 1009)" in run.stderr


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


@pytest.mark.parametrize("argv", [
    ["verify", "hadamard", "{big}"],
    ["bent-check", "{big}", "{vec}"],
    ["construct", "fourier", "--n", "100000000000000000000"],
])
def test_a_phase_past_the_trial_division_bound_exits_2(capsys, tmp_path, argv):
    # every exact check builds Phi_k through factorize, which takes k < 2**32
    big, vec = tmp_path / "big.bh", tmp_path / "big.vec"
    big.write_text("BH 1 100000000000000000000000\n0\n")
    vec.write_text("VEC 1 100000000000000000000000\n0\n")
    code, out, err = run(capsys, [a.format(big=big, vec=vec) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "2**32" in err


@pytest.mark.parametrize("k,code,out", [("2147483647", 1, "square-p-part    violated"),
                                         ("100000000000000000000000", 2, "")])
def test_obstructions_at_a_large_phase_end_at_once(k, code, out):
    # the order of 3 mod k comes from the primes of totient(k), not from up to k powers.
    # 3 is a non-residue mod the prime 2**31 - 1, so its order there is even and 3 is
    # self-conjugate: the odd 3-part of n is a violation.  10**23 is past factorize
    proc = subprocess.run([sys.executable, "-m", "butson", "obstructions", "--n", "3", "--k", k],
                          capture_output=True, text=True, timeout=10, env=_buffered_env())
    assert proc.returncode == code and out in proc.stdout
    assert (proc.stderr == "") if code == 1 else proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", ["construct rm --q 3 --m 100000000",
                                  "covering-radius --rm 2,100000000000000000000",
                                  "construct ksw --k 3 --m 100000000000000000000",
                                  "construct sylvester --m 100000000000000000000"])
def test_an_astronomical_exponent_exits_2_at_once(argv):
    # the size is decided from the exponent: nothing builds q^(2m+1) or k^m, and the
    # OverflowError of [2] * m is a usage error like a ValueError
    proc = subprocess.run([sys.executable, "-m", "butson", *argv.split()],
                          capture_output=True, text=True, timeout=10, env=_buffered_env())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_a_reed_muller_code_past_the_budget_names_its_entry_count(capsys):
    code, out, err = run(capsys, ["construct", "rm", "--q", "2", "--m", "30"])
    assert (code, out) == (2, "")
    assert err == "error: 2^31 words of length 2^30 = 2305843009213693952 entries exceed budget 4194304\n"


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
