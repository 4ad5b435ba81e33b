"""Benchmark of the butson CLI: closed-loop command passes and a traced layer run.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 25 --trace 0

One client runs the workload's fixed command list through
`python -m butson`, one command after another, each waiting for the previous
one.  It times every command, reads each child's peak RSS from os.wait4,
caps each child's address space, and checks every answer.  With --trace 0 it
repeats whole passes for --seconds (at least MIN_PASSES) and reports the
end-to-end metrics; with --trace 1 it makes the same calls in process with
spans around each module call and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Detailed records go to .bench_out/.  The exit code is 0 only when every
answer was right.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from commands import WORKLOADS, Command, argv, check, parse, workload_commands
from inputs import Inputs, generate

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
MEMORY_CAP_MB = 2048  # address-space cap of every process the benchmark starts
COMMAND_TIMEOUT_S = 60
RUN_DEADLINE_S = 170
MIN_PASSES = 7
STARTUP_REPS = 5
PERCENTILE_LADDER = (50, 75, 90, 95, 99)


class Run(NamedTuple):
    ms: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(args: list[str], env: dict, scratch: Path) -> Run:
    """Run `python -m butson <args>` to completion; time it and read its rusage."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "butson", *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        ms = 1000 * (time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(ms, usage.ru_maxrss / 1024, proc.returncode,
                   out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def judge(cmd: Command, run: Run, inp: Inputs) -> list[str]:
    try:
        answer = parse(cmd, run.stdout)
    except (ValueError, KeyError, TypeError):
        answer = None
    problems = check(cmd, run.exit, answer, inp)
    if problems:
        if run.exit < 0:
            problems.append(f"killed by signal {-run.exit}")
        if "MemoryError" in run.stderr:
            problems.append(f"hit the {MEMORY_CAP_MB} MB memory cap")
        if run.stderr.strip():
            problems.append("stderr: " + run.stderr.strip().splitlines()[-1])
    return [f"{cmd.label}: {p}" for p in problems]


class Pass(NamedTuple):
    wall_s: float
    runs: list[Run]
    failed: int
    problems: list[str]


def cli_pass(cmds: list[Command], inp: Inputs, env: dict, scratch: Path) -> Pass:
    """Run the command list once, in order; answers are checked after the pass."""
    t0 = time.perf_counter()
    runs = [run_cli(argv(c, inp), env, scratch) for c in cmds]
    wall = time.perf_counter() - t0
    failed, problems = 0, []
    stdout = {c.label: r.stdout for c, r in zip(cmds, runs)}
    for c, r in zip(cmds, runs):
        found = judge(c, r, inp)
        twin = c.expect.get("same_stdout_as")
        if twin and stdout[twin] != r.stdout:
            found.append(f"{c.label}: stdout differs from {twin}")
        failed += bool(found)
        problems += found
    return Pass(wall, runs, failed, problems)


def child_env() -> dict:
    """The checkout's src first on the path; cached bytecode allowed, as for
    an installed package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tail_percentile(min_samples: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it at the
    run's guaranteed sample count, so it stays the same percentile when a
    faster program fits more passes into a run."""
    return max(p for p in PERCENTILE_LADDER if min_samples * (100 - p) / 100 >= 10)


def blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(so, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads(),
            "memory_cap_mb": MEMORY_CAP_MB}


def end_to_end(workload: str, seed: int, seconds: int, env: dict, work: Path) -> dict:
    """Passes of the command list, each after its own set-up, so set-up and
    passes are sampled over the same stretch of time."""
    setups, passes, attempted, failed, problems = [], [], 0, 0, []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        inputs_dir = work / "inputs"
        shutil.rmtree(inputs_dir, ignore_errors=True)
        t1 = time.perf_counter()
        inp = generate(workload, seed, inputs_dir)
        cmds = workload_commands(workload, inp)
        warm = run_cli(argv(cmds[0], inp), env, work)
        setups.append(time.perf_counter() - t1)
        found = judge(cmds[0], warm, inp)
        passes.append(cli_pass(cmds, inp, env, work))
        attempted += 1 + len(cmds)
        failed += bool(found) + passes[-1].failed
        problems += found + passes[-1].problems

    ms = [r.ms for p in passes for r in p.runs]
    pct = tail_percentile(len(cmds) * MIN_PASSES)
    per_command = {c.label: statistics.median(p.runs[i].ms for p in passes)
                   for i, c in enumerate(cmds)}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        # median over commands of each command's median: with an even number
        # of commands a median of raw samples would sit on the gap between
        # two commands' clusters and read their extremes
        "cmd_ms.p50": (statistics.median(per_command.values()), "ms"),
        "cmd_ms.tail": (float(np.percentile(ms, pct)), "ms"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p.runs) for p in passes), "MB"),
    }
    detail = {"passes": len(passes), "tail_percentile": pct, "samples": len(ms),
              "pass_wall_s": [p.wall_s for p in passes], "setup_s": setups,
              "per_command_median_ms": per_command, "params": inp.params}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "detail": detail}


def traced(workload: str, seed: int, seconds: int, env: dict, work: Path) -> dict:
    inps = {w: generate(w, seed, work / w) for w in WORKLOADS}
    cmds = {w: workload_commands(w, inps[w]) for w in WORKLOADS}
    first = cmds[workload][0]
    problems = judge(first, run_cli(argv(first, inps[workload]), env, work), inps[workload])
    attempted, failed = 1, int(bool(problems))
    sys.path.insert(0, str(ROOT / "src"))
    import butson

    if not Path(butson.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported butson from {butson.__file__}, not from this checkout")
    import layers

    t0 = time.perf_counter()
    startup = [run_cli(["--help"], env, work) for _ in range(STARTUP_REPS)]
    bad_startup = [f"--help: exit {r.exit}" for r in startup
                   if r.exit != 0 or not r.stdout.startswith("usage:")]
    cli = cli_pass(cmds[workload], inps[workload], env, work)
    attempted += STARTUP_REPS + len(cmds[workload])
    failed += len(bad_startup) + cli.failed
    problems += bad_startup + cli.problems

    reps = []  # repeat while the next repetition should end within --seconds
    while not reps or (time.perf_counter() - t0) * (len(reps) + 1) / len(reps) <= seconds:
        reps.append(layers.rep(workload, inps, cmds))
        attempted += reps[-1].attempted
        failed += reps[-1].failed
        problems += reps[-1].problems
    peaks = layers.tracemalloc_peaks(inps["verify-ladder"])
    attempted += len(peaks)

    metrics = {
        "cli.startup_ms": (statistics.median(r.ms for r in startup), "ms"),
        "cli.overhead_s": (cli.wall_s - statistics.median(r.untraced_s for r in reps), "s"),
        **layers.layer_metrics(reps, peaks),
    }
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps([r.spans for r in reps]))
    detail = {"reps": len(reps), "cli_pass_s": cli.wall_s,
              "untraced_s": [r.untraced_s for r in reps], "traced_s": [r.traced_s for r in reps],
              "spans_file": str(spans_file.relative_to(ROOT))}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "butson" / "__init__.py").is_file():
        print(f"error: no butson sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    def deadline(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(RUN_DEADLINE_S)
    cap = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        measure = traced if args.trace else end_to_end
        result = measure(args.workload, args.seed, args.seconds, child_env(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, problems, failed = result["metrics"], result["problems"], result["failed"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k} {v}" for k, v in result["detail"].items() if not isinstance(v, (dict, list))))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<48} {failed / result['attempted']:>14.6g} "
          f"({failed} of {result['attempted']} commands)")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
