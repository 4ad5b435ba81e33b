"""The traced in-process run: the CLI's calls made directly, with spans.

`mirror` performs one Command the way the CLI subcommand does, calling the
public functions of each butson module and wrapping every call in a span
named `<module>.<function>.<instance>`.  Spans live in memory (name, start,
end, parent, counts) and are written out when the run ends.  `probes` adds
the calls that only the per-layer metrics need: single-worker scans of the
instances the CLI runs with two workers, and pool start-up.  Peak memory is
measured with tracemalloc in a separate pass, since tracing allocations
slows pure-Python code several-fold.

Importing this module imports butson, so the caller puts the checkout's
`src` on sys.path first.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from math import isqrt
from typing import NamedTuple

from butson.bent import search_bent, check_bent
from butson.bush import BushMatrix, BushStructureError, bush_circulant, verify_projector_algebra
from butson.codes import (
    bent_lower_bound,
    code_from_matrix,
    covering_radius,
    has_strength_2,
    is_self_complementary,
    leducq_upper_bound,
    reed_muller_1,
)
from butson.fileio import read_matrix, read_vector
from butson.matrices import LogMatrix, is_unbiased, unitary_order, verify_hadamard
from butson.numtheory import bent_obstructions

from commands import WORKLOADS, Command, check
from inputs import Inputs, char_table

LAYERS = ("fileio", "matrices", "bush", "bent", "codes", "numtheory")


class Tracer:
    """Spans held in memory; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "counts": counts}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Same interface, records nothing: the untraced in-process pass."""

    def span(self, name: str, **counts):
        return nullcontext(counts)


def _read(tr, inp: Inputs, name: str) -> LogMatrix:
    fmt = "json" if name.endswith(".json") else "text"
    with tr.span(f"fileio.read_matrix.{fmt}-n{inp.matrices[name][0].shape[0]}"):
        return read_matrix(inp.path(name))


def _verified(tr, h: LogMatrix, label: str | None = None) -> bool:
    with tr.span(f"matrices.verify_hadamard.{label or f'n{h.order}'}"):
        return verify_hadamard(h)


def mirror(tr, cmd: Command, inp: Inputs) -> dict:
    """Perform cmd in process; returns the same answer fields as commands.parse."""
    o, inst = cmd.opts, cmd.opts["inst"]
    if cmd.kind == "hadamard":
        return {"result": _verified(tr, _read(tr, inp, cmd.files[0]), inst)}
    if cmd.kind == "bush":
        h = _read(tr, inp, cmd.files[0])
        _verified(tr, h)
        with tr.span(f"bush.BushMatrix.{inst}"):
            try:
                BushMatrix(h, isqrt(h.order))
                ok = True
            except (BushStructureError, ValueError):
                ok = False
        return {"result": ok}
    if cmd.kind == "unbiased":
        a, b = (_read(tr, inp, f) for f in cmd.files)
        with tr.span(f"matrices.is_unbiased.{inst}"):
            z = is_unbiased(a, b)
        return {"result": z is not None, "constant": None if z is None else str(z)}
    if cmd.kind == "bent-check":
        h = _read(tr, inp, cmd.files[0])
        with tr.span(f"fileio.read_vector.n{h.order}"):
            x = read_vector(inp.path(cmd.files[1]))
        _verified(tr, h)
        with tr.span(f"bent.check_bent.{inst}"):
            cert = check_bent(h, x)
        unit = cert.conjugate_self_dual_unit
        return {"kind": cert.kind, "csd_unit": None if unit is None else str(unit)}
    if cmd.kind == "order":
        h = _read(tr, inp, cmd.files[0])
        _verified(tr, h)
        with tr.span(f"matrices.unitary_order.{inst}"):
            return {"order": unitary_order(h, 64)}
    if cmd.kind == "bush-algebra":
        with tr.span(f"bush.bush_circulant.{inst}"):
            bush_circulant(o["p"], o["a"])
        with tr.span(f"bush.verify_projector_algebra.{inst}"):
            return {"algebra": verify_projector_algebra(o["p"])}
    if cmd.kind == "obstructions":
        with tr.span(f"numtheory.bent_obstructions.{inst}"):
            return {"any_violated": bent_obstructions(o["n"], o["k"]).any_violated}
    if cmd.kind == "search":
        h = _read(tr, inp, cmd.files[0])
        _verified(tr, h)
        k, n = h.phase, h.order
        total = k ** (n - 1) if o["mode"] == "any" else k**n
        if o["budget"] is not None:
            total = min(total, o["budget"])
        with tr.span(f"bent.search_bent.{inst}.w{o['workers']}", candidates=total) as counts:
            hits = [(hit.index, hit.vector.entries)
                    for hit in search_bent(h, mode=o["mode"], budget=o["budget"],
                                           workers=o["workers"])]
            counts["hits"] = len(hits)
        return {"hits": len(hits), "hit_list": hits}
    if cmd.kind == "radius":
        return _radius(tr, cmd, inp)
    raise ValueError(f"unknown kind {cmd.kind!r}")


def _radius(tr, cmd: Command, inp: Inputs) -> dict:
    o, inst = cmd.opts, cmd.opts["inst"]
    h = None
    if o["rm"]:
        with tr.span(f"codes.reed_muller_1.{inst}"):
            code = reed_muller_1(*o["rm"])
    else:
        h = _read(tr, inp, cmd.files[0])
        _verified(tr, h)
        with tr.span(f"codes.code_from_matrix.{inst}"):
            _, code = code_from_matrix(h)
    if o.get("sample"):
        with tr.span("codes.covering_radius.sampled", samples=o["sample"]):
            result = covering_radius(code, "sampled", samples=o["sample"], seed=o["seed"])
    else:
        with tr.span(f"codes.covering_radius.{inst}.w{o['workers']}",
                     vectors=code.modulus**code.length):
            result = covering_radius(code, "exhaustive", workers=o["workers"])
    upper = lower = None
    if h is not None and h.phase % 2 == 1 and h.phase > 1:
        with tr.span(f"codes.leducq_upper_bound.{inst}"):
            try:
                upper = leducq_upper_bound(h.order, h.phase).floor
            except ValueError:
                upper = None
    if h is not None and h.phase == 3 and o.get("bent_vector"):
        with tr.span(f"fileio.read_vector.n{h.order}"):
            x = read_vector(inp.path(cmd.files[1]))
        with tr.span(f"codes.bent_lower_bound.{inst}"):
            lower = bent_lower_bound(h, x).bound
    with tr.span(f"codes.premises.{inst}"):
        premises = {"self_complementary": is_self_complementary(code),
                    "strength_2": has_strength_2(code)}
    return {"radius": result.value, "exact": result.exact, "upper_floor": upper,
            "lower": lower, **premises}


class Outcome(NamedTuple):
    attempted: int
    failed: int
    problems: list[str]
    busy_s: float = 0.0  # time inside the mirrored calls, answer checks excluded


def run_commands(tr, cmds: list[Command], inp: Inputs, prefix: str) -> Outcome:
    """Mirror each command under a root span and check its answer."""
    failed, problems, hit_lists, busy_s = 0, [], {}, 0.0
    for cmd in cmds:
        t0 = time.perf_counter()
        with tr.span(f"cmd.{prefix}.{cmd.label}"):
            try:
                answer = mirror(tr, cmd, inp)
            except Exception as e:  # a failing call is counted, not fatal
                answer = None
                found = [f"raised {e!r}"]
        busy_s += time.perf_counter() - t0
        if answer is not None:
            found = check(cmd, cmd.expect["exit"], answer, inp)
            hit_lists[cmd.label] = answer.get("hit_list")
            twin = cmd.expect.get("same_stdout_as")
            if twin and hit_lists.get(twin) != answer.get("hit_list"):
                found.append(f"hits differ from {twin}")
        failed += bool(found)
        problems += [f"{prefix}/{cmd.label}: {p}" for p in found]
    return Outcome(len(cmds), failed, problems, busy_s)


def _single_worker_twins(cmds: list[Command]) -> list[Command]:
    """w1 copies of the multi-worker commands whose instance has no w1 run."""
    have = {c.opts["inst"] for c in cmds if c.opts.get("workers") == 1}
    return [
        c._replace(label=c.opts["inst"] + "-w1", opts={**c.opts, "workers": 1},
                   expect={k: v for k, v in c.expect.items() if k != "same_stdout_as"})
        for c in cmds
        if c.opts.get("workers", 1) > 1 and c.opts["inst"] not in have
    ]


def probes(tr, inps: dict, cmds: dict) -> Outcome:
    attempted, failed, problems = 0, 0, []
    for w in ("bent-search", "covering-radius"):
        out = run_commands(tr, _single_worker_twins(cmds[w]), inps[w], f"probe.{w}")
        attempted += out.attempted
        failed += out.failed
        problems += out.problems
    # Pool start-up: two workers on a two-candidate search and a 27-vector scan.
    f3_2 = LogMatrix(3, char_table(3, 2))
    _, f3_code = code_from_matrix(LogMatrix(3, char_table(3, 1)))
    with tr.span("cmd.probe.pool_start"):
        with tr.span("bent.search_bent.pool_start", candidates=2):
            hits = list(search_bent(f3_2, mode="any", budget=2, workers=2))
        with tr.span("codes.covering_radius.pool_start", vectors=27):
            radius = covering_radius(f3_code, workers=2).value
    if hits:
        problems.append(f"probe/pool_start: {len(hits)} hits among the first 2 candidates, expected 0")
    if radius != 1:  # C_H of F(C_3) is R_3(1,1), an MDS code of radius 1
        problems.append(f"probe/pool_start: radius {radius}, expected 1")
    return Outcome(attempted + 2, failed + bool(hits) + (radius != 1), problems)


class Rep(NamedTuple):
    untraced_s: float  # in-process pass of the measured workload, no spans
    traced_s: float  # the same pass with spans
    spans: list[dict]
    attempted: int
    failed: int
    problems: list[str]


def rep(workload: str, inps: dict, cmds: dict) -> Rep:
    """One traced repetition: the measured workload untraced, then every
    workload's commands and the probes traced."""
    untraced = run_commands(NullTracer(), cmds[workload], inps[workload], workload)
    tr = Tracer()
    traced = {w: run_commands(tr, cmds[w], inps[w], w) for w in WORKLOADS}
    outcomes = [untraced, *traced.values(), probes(tr, inps, cmds)]
    return Rep(untraced.busy_s, traced[workload].busy_s, tr.spans,
               sum(o.attempted for o in outcomes),
               sum(o.failed for o in outcomes), [p for o in outcomes for p in o.problems])


def tracemalloc_peaks(inp: Inputs) -> dict[str, float]:
    """Peak traced allocation (MB) of verify_hadamard on fresh n=243, 256 inputs."""
    peaks = {}
    for label, name in (("n243", "f35t.bh"), ("n256", "f28t.json")):
        h = read_matrix(inp.path(name))
        tracemalloc.start()
        try:
            verify_hadamard(h)
            peaks[label] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per layer: total span time minus the part its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        if layer not in totals:
            continue
        covered, edge = 0.0, s["start"]
        for c in sorted(children.get(i, ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        totals[layer] += s["end"] - s["start"] - covered
    return totals


SEARCH_INSTANCES = ("f3_2-csd", "f3_2-any", "b3-csd", "f2_4-any", "f4_2-any")
# f4_2-any scans a budgeted prefix with no hits, so its hit ratio is exactly 0
HIT_RATIO_INSTANCES = ("f3_2-csd", "f3_2-any", "b3-csd", "f2_4-any")
RADIUS_INSTANCES = ("f3_2", "rm3_2", "f2_4", "rm2_4", "f7", "bh48")


def layer_metrics(reps: list[Rep], peaks: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; span times are medians
    over every span of that name in every repetition."""
    spans: dict[str, list[dict]] = {}
    for r in reps:
        for s in r.spans:
            spans.setdefault(s["name"], []).append(s)

    def secs(name):
        found = spans.get(name)
        if not found:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(s["end"] - s["start"] for s in found)

    def rate(name, key):
        return statistics.median(s["counts"][key] / (s["end"] - s["start"]) for s in spans[name])

    m: dict[str, tuple[float, str]] = {}
    for name in ("fileio.read_matrix.text-n243", "fileio.read_matrix.json-n256",
                 "matrices.verify_hadamard.n243", "matrices.verify_hadamard.n256",
                 "matrices.verify_hadamard.n243-false", "matrices.is_unbiased.p11",
                 "matrices.unitary_order.p5", "bush.BushMatrix.p11",
                 "bush.verify_projector_algebra.p13", "bent.check_bent.n81",
                 "bent.check_bent.n256"):
        m[name + ".ms"] = (1000 * secs(name), "ms")
    for label, mb in peaks.items():
        m[f"matrices.verify_hadamard.{label}.peak_mb"] = (mb, "MB")
    for inst in SEARCH_INSTANCES:
        m[f"bent.search_bent.{inst}.cands_per_s"] = (
            rate(f"bent.search_bent.{inst}.w1", "candidates"), "1/s")
    for inst in HIT_RATIO_INSTANCES:
        c = spans[f"bent.search_bent.{inst}.w1"][0]["counts"]
        m[f"bent.search_bent.{inst}.hit_ratio"] = (c["hits"] / c["candidates"], "ratio")
    m["bent.search_bent.pool_start_ms"] = (1000 * secs("bent.search_bent.pool_start"), "ms")
    m["bent.search_bent.f3_2-csd.speedup_w2"] = (
        secs("bent.search_bent.f3_2-csd.w1") / secs("bent.search_bent.f3_2-csd.w2"), "ratio")
    for inst in RADIUS_INSTANCES:
        m[f"codes.covering_radius.{inst}.vectors_per_s"] = (
            rate(f"codes.covering_radius.{inst}.w1", "vectors"), "1/s")
    m["codes.covering_radius.sampled.samples_per_s"] = (
        rate("codes.covering_radius.sampled", "samples"), "1/s")
    m["codes.covering_radius.pool_start_ms"] = (
        1000 * secs("codes.covering_radius.pool_start"), "ms")
    m["codes.covering_radius.f7.speedup_w2"] = (
        secs("codes.covering_radius.f7.w1") / secs("codes.covering_radius.f7.w2"), "ratio")
    self_s = [self_seconds(r.spans) for r in reps]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (statistics.median(s[layer] for s in self_s), "s")
    m["trace.overhead_s"] = (
        statistics.median(r.traced_s for r in reps) - statistics.median(r.untraced_s for r in reps),
        "s")
    return m
