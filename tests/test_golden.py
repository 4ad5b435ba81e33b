"""Golden output: the five demos and the README's CLI commands, byte for byte.

Every demo runs as a script with PYTHONPATH=src; the CLI commands run through
`main` in a scratch directory, on files that earlier `construct` commands
write there.  Stdout and exit codes must equal tests/golden/.  After an
intended output change, rewrite the golden files from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from butson.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# (name, argv) in order: later commands read the files earlier ones write
CLI_CASES = [
    ("construct-fourier", ["construct", "fourier", "--n", "3"]),
    ("construct-fourier-out", ["construct", "fourier", "--n", "3", "--out", "f3.bh"]),
    ("construct-kron", ["construct", "kron", "f3.bh", "f3.bh", "--out", "f33.bh"]),
    ("construct-sylvester", ["construct", "sylvester", "--m", "3"]),
    ("construct-bush-a1", ["construct", "bush", "--p", "5", "--a", "1", "--out", "a.bh"]),
    ("construct-bush-a2", ["construct", "bush", "--p", "5", "--a", "2", "--out", "b.bh"]),
    ("construct-ksw", ["construct", "ksw", "--k", "3", "--m", "2", "--out", "x.vec"]),
    ("construct-rm", ["construct", "rm", "--q", "3", "--m", "2"]),
    ("verify-hadamard", ["verify", "hadamard", "b.bh"]),
    ("verify-hadamard-json", ["verify", "hadamard", "f33.bh", "--json"]),
    ("verify-bush", ["verify", "bush", "b.bh"]),
    ("verify-bush-false", ["verify", "bush", "f33.bh"]),
    ("verify-unbiased", ["verify", "unbiased", "a.bh", "b.bh"]),
    ("bent-check", ["bent-check", "f33.bh", "x.vec"]),
    ("bent-check-json", ["bent-check", "f33.bh", "x.vec", "--json"]),
    ("bent-search-csd-w1", ["bent-search", "f33.bh", "--mode", "conjugate_self_dual", "--workers", "1"]),
    ("bent-search-csd-w2", ["bent-search", "f33.bh", "--mode", "conjugate_self_dual", "--workers", "2"]),
    ("bent-search-any-json", ["bent-search", "f33.bh", "--budget", "3000", "--workers", "2", "--json"]),
    ("bent-search-workers-0", ["bent-search", "f33.bh", "--workers", "0"]),
    ("covering-radius-json", ["covering-radius", "--code-from", "f33.bh", "--json"]),
    ("covering-radius-bent", ["covering-radius", "--code-from", "f33.bh", "--bent-vector", "x.vec",
                              "--workers", "2"]),
    ("covering-radius-rm", ["covering-radius", "--rm", "3,2"]),
    ("covering-radius-sampled", ["covering-radius", "--code-from", "f33.bh", "--sample", "500",
                                 "--seed", "7"]),
    ("obstructions", ["obstructions", "--n", "5", "--k", "13"]),
    ("obstructions-json", ["obstructions", "--n", "9", "--k", "3", "--json"]),
    ("order", ["order", "b.bh", "--max-t", "64"]),
    ("order-json", ["order", "f3.bh", "--json"]),
    ("bush-verify-algebra", ["bush", "--p", "3", "--a", "2", "--verify-algebra"]),
    ("bush-matrix", ["bush", "--p", "3", "--a", "2"]),
]


def run_demo(path: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout


def run_cli_cases(work: Path) -> dict[str, tuple[int, str]]:
    """{name: (exit code, stdout)} of CLI_CASES run in order inside work."""
    out = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in CLI_CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            out[name] = (code, buf.getvalue())
    finally:
        os.chdir(cwd)
    return out


def golden(name: str) -> tuple[int, str]:
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    return exits[name], (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_golden(path):
    assert run_demo(path) == golden(f"demo-{path.stem}")


def test_readme_cli_output_is_golden(tmp_path):
    got = run_cli_cases(tmp_path)
    for name, _ in CLI_CASES:
        assert got[name] == golden(name), name


def _regenerate() -> None:
    results = {f"demo-{p.stem}": run_demo(p) for p in DEMOS}
    with tempfile.TemporaryDirectory() as work:
        results.update(run_cli_cases(Path(work)))
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, stdout) in results.items():
        (GOLDEN / f"{name}.out").write_text(stdout)
    exits = {name: code for name, (code, _) in results.items()}
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
