"""The benchmark's workloads: fixed lists of butson CLI commands with known answers.

Each Command names its kind, its input files and options once; the CLI
argument list (`argv`), the parse of the CLI's output (`parse`) and the
in-process mirror in `layers.py` are all derived from it, so the traced run
makes the same calls as the untraced CLI pass.  Expected answers are
mathematical facts about the instances, not outputs recorded from the
program; `check` compares an answer with them and re-checks every reported
bent vector with an independent floating-point oracle.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from inputs import Inputs

LEDUCQ_FLOOR_F3_4 = 51  # floor((2*81 - 9) / 3) for BH(81, 3)


class Command(NamedTuple):
    label: str  # unique within its workload
    kind: str
    files: tuple[str, ...]  # input file names
    opts: dict  # kind-specific options; "inst" names the instance in spans
    expect: dict  # "exit" plus the answer fields to compare


def _cmd(label, kind, files=(), expect=None, **opts) -> Command:
    return Command(label, kind, tuple(files), opts, {"exit": 0, **(expect or {})})


def _search(label, matrix, mode, workers, hits, budget=None, **expect) -> Command:
    inst = label.rsplit("-w", 1)[0]
    return _cmd(label, "search", [matrix], {"hits": hits, **expect},
                inst=inst, mode=mode, workers=workers, budget=budget)


def _radius(label, workers, radius, *, matrix=None, rm=None, upper=None, lower=None,
            strength_2=True, **opts) -> Command:
    expect = {"radius": radius, "exact": True, "upper_floor": upper, "lower": lower,
              "self_complementary": True, "strength_2": strength_2}
    files = [matrix] if matrix else []
    if opts.get("bent_vector"):
        files.append(opts["bent_vector"])
    return _cmd(label, "radius", files, expect, inst=label.rsplit("-w", 1)[0],
                workers=workers, rm=rm, **opts)


def workload_commands(workload: str, inp: Inputs) -> list[Command]:
    if workload == "verify-ladder":
        return [
            _cmd("hadamard-n81", "hadamard", ["f34t.bh"], {"result": True}, inst="n81"),
            _cmd("hadamard-n243", "hadamard", ["f35t.bh"], {"result": True}, inst="n243"),
            _cmd("hadamard-n243-false", "hadamard", ["f35m.bh"], {"exit": 1, "result": False},
                 inst="n243-false"),
            _cmd("hadamard-n256", "hadamard", ["f28t.json"], {"result": True}, inst="n256"),
            _cmd("bush-p11", "bush", ["b1_11.bh"], {"result": True}, inst="p11"),
            _cmd("unbiased-p11", "unbiased", ["b1_11.bh", "b2_11.bh"],
                 {"result": True, "constant": "11"}, inst="p11"),
            _cmd("bent-check-n81", "bent-check", ["f34.bh", "ksw34.vec"],
                 {"kind": "conjugate_self_dual", "csd_unit": "9"}, inst="n81"),
            _cmd("bent-check-n256", "bent-check", ["f28.json", "ksw28.vec"],
                 {"kind": "self_dual+conjugate_self_dual", "csd_unit": "16"}, inst="n256"),
            _cmd("order-p5", "order", ["b1_5.bh"], {"order": 5}, inst="p5"),
            _cmd("bush-algebra-p13", "bush-algebra", (), {"algebra": True}, inst="p13", p=13, a=1),
            _cmd("obstructions-n5-k13", "obstructions", (), {"exit": 1, "any_violated": True},
                 inst="n5-k13", n=5, k=13),
        ]
    if workload == "bent-search":
        return [
            _search("f3_2-csd-w1", "f32.bh", "conjugate_self_dual", 1, 66),
            _search("f3_2-csd-w2", "f32.bh", "conjugate_self_dual", 2, 66,
                    same_stdout_as="f3_2-csd-w1"),
            _search("f3_2-any-w1", "f32t.bh", "any", 1, 162),
            _search("b3-csd-w2", "b1_3.bh", "conjugate_self_dual", 2, 48),
            _search("f2_4-any-w2", "f24t.bh", "any", 2, 448),
            _search("f4_2-any-w2", "f42.bh", "any", 2, 0, budget=40000),
        ]
    if workload == "covering-radius":
        return [
            _radius("f3_2-w1", 1, 5, matrix="f32t.bh", bent_vector="ksw32t.vec", upper=5, lower=4),
            _radius("rm3_2-w2", 2, 5, rm=(3, 2)),
            _radius("f2_4-w2", 2, 6, matrix="f24t.bh"),
            _radius("rm2_4-w1", 1, 6, rm=(2, 4)),
            _radius("f7-w2", 2, 5, matrix="f7t.bh", upper=5),
            _radius("bh48-w1", 1, 3, matrix="bh48t.bh", strength_2=False),
            _cmd("sampled", "radius", ["f34t.bh"],
                 {"radius_max": LEDUCQ_FLOOR_F3_4, "exact": False,
                  "upper_floor": LEDUCQ_FLOOR_F3_4, "lower": None,
                  "self_complementary": True, "strength_2": True},
                 inst="sampled", workers=1, rm=None, sample=20000,
                 seed=inp.params["sample_seed"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-ladder", "bent-search", "covering-radius")


def argv(cmd: Command, inp: Inputs) -> list[str]:
    """Arguments after `python -m butson` for one command."""
    f = [inp.path(name) for name in cmd.files]
    o = cmd.opts
    if cmd.kind == "hadamard":
        return ["verify", "hadamard", f[0], "--json"]
    if cmd.kind == "bush":
        return ["verify", "bush", f[0], "--json"]
    if cmd.kind == "unbiased":
        return ["verify", "unbiased", f[0], f[1], "--json"]
    if cmd.kind == "bent-check":
        return ["bent-check", f[0], f[1], "--json"]
    if cmd.kind == "order":
        return ["order", f[0], "--json"]
    if cmd.kind == "bush-algebra":
        return ["bush", "--p", str(o["p"]), "--a", str(o["a"]), "--verify-algebra", "--json"]
    if cmd.kind == "obstructions":
        return ["obstructions", "--n", str(o["n"]), "--k", str(o["k"]), "--json"]
    if cmd.kind == "search":
        out = ["bent-search", f[0], "--mode", o["mode"], "--workers", str(o["workers"])]
        return out + (["--budget", str(o["budget"])] if o["budget"] is not None else [])
    if cmd.kind == "radius":
        out = ["covering-radius"]
        out += ["--rm", "%d,%d" % o["rm"]] if o["rm"] else ["--code-from", f[0]]
        out += ["--workers", str(o["workers"])]
        if o.get("bent_vector"):
            out += ["--bent-vector", f[1]]
        if o.get("sample"):
            out += ["--sample", str(o["sample"]), "--seed", str(o["seed"])]
        return out + ["--json"]
    raise ValueError(f"unknown kind {cmd.kind!r}")


def parse(cmd: Command, stdout: str) -> dict:
    """The answer fields of one command's CLI output."""
    if cmd.kind == "search":
        hits = []
        for line in stdout.splitlines():
            index, _, entries = line.partition(":")
            hits.append((int(index), tuple(int(e) for e in entries.split())))
        return {"hits": len(hits), "hit_list": hits}
    j = json.loads(stdout)
    if cmd.kind in ("hadamard", "bush"):
        return {"result": j["result"]}
    if cmd.kind == "unbiased":
        return {"result": j["result"], "constant": j["constant"] and j["constant"]["str"]}
    if cmd.kind == "bent-check":
        unit = j["conjugate_self_dual_unit"]
        return {"kind": j["kind"], "csd_unit": unit and unit["str"]}
    if cmd.kind == "order":
        return {"order": j["order"]}
    if cmd.kind == "bush-algebra":
        return {"algebra": j["algebra"]}
    if cmd.kind == "obstructions":
        return {"any_violated": j["any_violated"]}
    if cmd.kind == "radius":
        upper = j["upper_bound"]
        return {"radius": j["radius_or_bound"], "exact": j["exact"],
                "upper_floor": upper and upper["floor"], "lower": j["lower_bound"],
                **j["premises"]}
    raise ValueError(f"unknown kind {cmd.kind!r}")


def check(cmd: Command, exit_code: int, answer: dict | None, inp: Inputs) -> list[str]:
    """Every way the exit code or answer differs from the known values."""
    problems = []
    if exit_code != cmd.expect["exit"]:
        problems.append(f"exit {exit_code}, expected {cmd.expect['exit']}")
    if answer is None:
        return problems + ["no parseable answer"]
    for key, want in cmd.expect.items():
        if key in ("exit", "same_stdout_as", "radius_max"):
            continue
        if answer.get(key) != want:
            problems.append(f"{key} = {answer.get(key)!r}, expected {want!r}")
    if "radius_max" in cmd.expect and not 0 < answer["radius"] <= cmd.expect["radius_max"]:
        problems.append(f"sampled radius {answer['radius']} outside (0, {cmd.expect['radius_max']}]")
    if cmd.kind == "radius" and answer.get("lower") is not None:
        if not answer["lower"] <= answer["radius"] <= answer["upper_floor"]:
            problems.append(f"radius {answer['radius']} outside its bounds")
    if cmd.kind == "search":
        problems += _oracle_hits(cmd, answer["hit_list"], *inp.matrices[cmd.files[0]])
    return problems


def _oracle_hits(cmd: Command, hits, a: np.ndarray, k: int) -> list[str]:
    """Re-check reported hits in floating point: index order, index-to-vector
    digits, |Hx|^2 = n, and the dual identity of the searched mode."""
    if not hits:
        return []
    n, mode = a.shape[0], cmd.opts["mode"]
    indices = [i for i, _ in hits]
    if indices != sorted(set(indices)):
        return ["hit indices are not strictly increasing"]
    free = n - 1 if mode == "any" else n
    for index, x in hits:
        want = [(index // k ** (free - 1 - t)) % k for t in range(free)]
        if len(x) != n or list(x[n - free:]) != want or (mode == "any" and x[0] != 0):
            return [f"hit {index} does not match its candidate index"]
    xs = np.exp(2j * np.pi * np.array([x for _, x in hits]).T / k)  # (n, hits)
    y = np.exp(2j * np.pi * a / k) @ xs
    if not np.allclose(np.abs(y) ** 2, n, atol=1e-6):
        return ["a reported hit is not bent"]
    if mode != "any":
        scaled = y * (xs if mode == "conjugate_self_dual" else xs.conj())
        if not np.allclose(scaled, scaled[:1], atol=1e-6):
            return [f"a reported hit is not {mode}"]
    return []
