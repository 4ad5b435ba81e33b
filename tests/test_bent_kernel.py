"""The batched bent-certificate kernel, the digit-sum kernel and the fan_out
driver: exactness against a CycInt loop, brute-force sums and the float oracle,
block and chunk boundaries, worker invariance, the exactness guards and the
bent-search CLI contract."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson import bent
from butson.bent import SearchHit, check_bent, index_digits, ksw_vector, search_bent
from butson.cli import main
from butson.cyclotomic import CycInt, check_exact, reduction_matrix
from butson.fileio import serialize_matrix
from butson.matrices import (
    LogMatrix,
    LogVector,
    character_table,
    fourier_matrix,
    sylvester_matrix,
    verify_hadamard,
)

from oracles import bent_kinds_float, brute_force_bent_vectors, complex_value, unit_matrix

SRC = Path(bent.__file__).resolve().parents[1]

# Butson matrices with n, k <= 8; lifted phases read the same matrix over a larger k
BASES = [
    fourier_matrix(2), fourier_matrix(3), fourier_matrix(4), fourier_matrix(5),
    fourier_matrix(6), fourier_matrix(7), fourier_matrix(8),
    fourier_matrix(2).lift_phase(6), fourier_matrix(4).lift_phase(8),
    character_table([2, 2]), character_table([2, 4]), character_table([2, 2, 2]),
    character_table([2, 3]), sylvester_matrix(3).lift_phase(4),
]


def _reference(h: LogMatrix, x) -> tuple[list[CycInt], bool, bool, bool]:
    """(Hx)_i as CycInt sums of roots, and the three verdicts, by direct ring arithmetic."""
    k, n = h.phase, h.order
    z = []
    for row in h.entries:
        acc = CycInt.integer(k, 0)
        for e, xe in zip(row, x):
            acc = acc + CycInt.root(k, int(e) + xe)
        z.append(acc)
    bent_ = all(e.norm_sq() == n for e in z)
    sd = bent_ and len({e.times_root(-xe) for e, xe in zip(z, x)}) == 1
    csd = bent_ and len({e.times_root(xe) for e, xe in zip(z, x)}) == 1
    return z, bent_, sd, csd


@lru_cache(maxsize=None)
def _float_bent(h: LogMatrix) -> list[tuple[int, ...]]:
    """Bent vectors of a small base matrix, found by the float oracle."""
    if h.phase**h.order > 4096:
        return []
    return [x for x, _, _ in brute_force_bent_vectors(h.entries, h.phase)]


@st.composite
def _matrix_and_vectors(draw):
    h = base = draw(st.sampled_from(BASES))
    k, n = h.phase, h.order
    col_perm, col_shift = list(range(n)), [0] * n
    if draw(st.booleans()):
        perm = lambda: draw(st.permutations(range(n)))  # noqa: E731
        shifts = lambda: draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))  # noqa: E731
        row_perm, row_shift, col_perm, col_shift = perm(), shifts(), perm(), shifts()
        h = h.monomial_transform(row_perm, row_shift, col_perm, col_shift)
    vec = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    xs = draw(st.lists(vec, min_size=1, max_size=6))
    # bent vectors of the base, moved along with the matrix, exercise the dual checks
    known = _float_bent(base)
    if known:
        for x in draw(st.lists(st.sampled_from(known), max_size=4)):
            xs.append([(x[c] - t) % k for c, t in zip(col_perm, col_shift)])
    return h, xs


@settings(max_examples=120, deadline=None)
@given(_matrix_and_vectors())
def test_batched_kernel_matches_ring_reference_and_float_oracle(case):
    h, xs = case
    k, n = h.phase, h.order
    x = np.array(xs, dtype=np.int64).T  # candidates are columns
    counts = bent.digit_sum(bent._count_table(h), x).reshape(k, n, -1)
    assert counts.dtype == np.float32  # the count table's own dtype
    # _duals decides bent candidates only; the others stay False, as in check_bent
    flags = (bent._bent(counts), np.zeros(len(xs), bool), np.zeros(len(xs), bool))
    hit = np.flatnonzero(flags[0])
    flags[1][hit], flags[2][hit] = bent._duals(counts[:, :, hit], x[:, hit])
    hx = unit_matrix(h.entries, k) @ unit_matrix(x, k)  # column b is H x_b in floats
    for b, vec in enumerate(xs):
        z, bent_, sd, csd = _reference(h, vec)
        rows = [tuple(int(c) for c in counts[:, i, b]) for i in range(n)]
        assert rows == [e.coeffs for e in z]
        assert np.allclose([complex_value(row, k) for row in rows], hx[:, b])
        assert (bool(flags[0][b]), bool(flags[1][b]), bool(flags[2][b])) == (bent_, sd, csd)
        fb, fsd, fcsd = bent_kinds_float(h.entries, k, vec)
        assert fb == bent_ and (not bent_ or (fsd, fcsd) == (sd, csd))
        cert = check_bent(h, LogVector(k, vec))
        assert (cert.bent, cert.self_dual, cert.conjugate_self_dual) == (bent_, sd, csd)
        assert cert.dual == tuple(z)


@st.composite
def _table_and_cap(draw):
    """A small contribution table and a cap in int64 cells that fixes the suffix
    length s, 0 <= s <= n."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[k]))
    f = draw(st.integers(1, 5))
    cells = st.lists(st.integers(-50, 50), min_size=n * k * f, max_size=n * k * f)
    contrib = np.array(draw(cells), dtype=np.int64).reshape(n, k, f)
    s = draw(st.integers(0, n))
    table = f * k**s
    cap = table + draw(st.integers(0, table * (k - 1) - 1 if s < n else 4 * table))
    return contrib, s, cap


@settings(max_examples=150, deadline=None)
@given(_table_and_cap(), st.data())
def test_digit_blocks_tile_the_range_with_brute_force_sums(case, data):
    contrib, s, cap = case
    n, k, f = contrib.shape
    start = data.draw(st.integers(0, k**n - 1))
    stop = data.draw(st.integers(start + 1, k**n))
    x = index_digits(np.arange(k**n), k, n)
    brute = contrib[np.arange(n)[:, None], x].sum(axis=0).T  # column i: sum_j contrib[j, x_j] of index i
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bent, "_BLOCK_BYTES", cap * np.dtype(np.int64).itemsize)
        head, table = bent.suffix_table(contrib)
        assert len(head) == n - s and table.shape == (f, k**s) and table.dtype == np.int64
        tail = np.arange(n - s, n)[:, None]  # the last s coordinates of the indices below k**s
        assert (table == contrib[tail, x[n - s :, : k**s]].sum(axis=0).T).all()
        at = start
        for first, sums in bent.digit_blocks(start, stop, head, table):
            assert first == at and 1 <= sums.shape[1] <= bent.block_size(table.size, np.int64) * k**s
            assert (sums == brute[:, at : at + sums.shape[1]]).all()
            at += sums.shape[1]
        assert at == stop


def _no_pool(*args):
    raise AssertionError("a scan under the pool cost started a pool")


def _force_pool(monkeypatch, chunk: int) -> None:
    """Every fan_out chunk after the first goes to the spawn pool; only the parent reads these."""
    monkeypatch.setattr(bent, "_CHUNK", chunk)
    monkeypatch.setattr(bent, "_POOL_SECONDS", 0)


def test_ksw_search_hits_match_check_bent(monkeypatch):
    h = character_table([3, 3])
    # 39 chunks of a 3^9 scan measure far under _POOL_SECONDS: no process starts at 2 workers
    monkeypatch.setattr(bent, "_CHUNK", 512)
    monkeypatch.setattr(bent, "_pooled", _no_pool)
    hits = list(search_bent(h, mode="conjugate_self_dual", workers=2))
    assert len(hits) == 66
    assert ksw_vector(3, 2) in {hit.vector for hit in hits}
    for hit in hits:
        assert check_bent(h, hit.vector).kind == hit.kind == "conjugate_self_dual"


@pytest.mark.parametrize("mode", ["any", "conjugate_self_dual"])
def test_budgets_off_the_batch_grid(monkeypatch, mode):
    h = character_table([3, 3])
    _, table = bent.suffix_table(bent._count_table(h))
    step = bent.block_size(table.size, table.dtype) * table.shape[1]  # candidates of one block
    full = list(search_bent(h, mode=mode))
    for budget in (1, step - 1, step, step + 1, 2 * step + 1, 3**8 - 1, 3**9 - 1):
        want = [hit for hit in full if hit.index < budget]
        assert list(search_bent(h, mode=mode, budget=budget)) == want
        assert list(search_bent(h, mode=mode, budget=budget, workers=3)) == want
    _force_pool(monkeypatch, 1000)  # chunks off the block grid, served by spawned workers
    for workers in (2, 3):
        assert list(search_bent(h, mode=mode, budget=3**9 - 1, workers=workers)) == [
            hit for hit in full if hit.index < 3**9 - 1]


@pytest.mark.parametrize("h", [fourier_matrix(13), character_table([4, 4]), character_table([3, 3])],
                         ids=["F(C_13)", "F(C_4^2)", "F(C_3^2)"])
def test_search_memory_is_bounded_by_the_block(h):
    # a block of float32 counts holds at most _BLOCK_BYTES, and the counts read from
    # it at most that again; _bent's k products take k times as much and their
    # reduction one block more; the suffix table holds at most one block: k + 4
    assert verify_hadamard(h)
    gc.disable()  # as in a CLI process: what a block leaves behind is freed without the collector
    tracemalloc.start()
    try:
        for _ in search_bent(h, budget=2**16):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < (h.phase + 4) * bent._BLOCK_BYTES


def test_closing_the_stream_stops_the_pool(monkeypatch):
    _force_pool(monkeypatch, 512)
    hits = search_bent(character_table([3, 3]), mode="conjugate_self_dual", workers=2)
    assert next(hit for hit in hits if hit.index >= 512).index == 770  # past the inline chunk
    assert len(multiprocessing.active_children()) == 2
    hits.close()
    assert multiprocessing.active_children() == []


def test_pooled_hits_equal_inline_hits_and_survive_pickling(monkeypatch):
    # hits are plain (index, vector, kind) tuples, sent back from spawned workers as they are
    h = character_table([3, 3])
    inline = list(search_bent(h, mode="any"))
    _force_pool(monkeypatch, 1000)
    pooled = list(search_bent(h, mode="any", workers=2))
    assert len(pooled) == 162 and pooled == inline
    assert all(type(hit) is SearchHit for hit in pooled)
    index, vector, kind = pooled[-1]
    assert (index, vector, kind) == (inline[-1].index, inline[-1].vector, check_bent(h, vector).kind)
    assert pickle.loads(pickle.dumps(pooled)) == inline
    assert len(set(pooled)) == len(pooled)


_FULL_SCANS = [
    (character_table([3, 3]), "any"), (character_table([3, 3]), "self_dual"),
    (character_table([3, 3]), "conjugate_self_dual"), (character_table([2] * 4), "any"),
    (fourier_matrix(4), "self_dual"), (fourier_matrix(8), "conjugate_self_dual"),
    (sylvester_matrix(2), "self_dual"),
]


@pytest.mark.parametrize("h,mode", _FULL_SCANS)
def test_hit_kinds_match_check_bent_on_full_scans(h, mode):
    hits = list(search_bent(h, mode=mode))
    assert hits
    for hit in hits:
        assert hit.kind == check_bent(h, hit.vector).kind
        assert mode == "any" or mode in hit.kind.split("+")


def test_a_json_search_builds_no_certificate(capsys, monkeypatch, tmp_path):
    # the kinds come from the search's flags: with the CycInt of the certificates
    # made unusable, --json still prints the golden stream
    path = tmp_path / "f33.bh"
    path.write_text(serialize_matrix(character_table([3, 3])))

    def unusable(*args):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr(bent, "CycInt", unusable)
    with pytest.raises(AssertionError, match="a certificate was built"):
        check_bent(character_table([3, 3]), ksw_vector(3, 2))
    argv = ["bent-search", str(path), "--budget", "3000", "--workers", "2", "--json"]
    want = (Path(__file__).resolve().parent / "golden" / "bent-search-any-json.out").read_text()
    assert _cli_stdout(capsys, argv) == want


def _cli_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("orders,mode", [([3, 3], "conjugate_self_dual"), ([2, 2, 2, 2], "any")])
def test_hit_streams_byte_identical_across_workers(capsys, tmp_path, orders, mode):
    path = tmp_path / "h.bh"
    path.write_text(serialize_matrix(character_table(orders)))
    outs = {w: _cli_stdout(capsys, ["bent-search", str(path), "--mode", mode, "--json",
                                    "--workers", str(w)]) for w in (1, 2, 3)}
    assert outs[1] == outs[2] == outs[3]
    assert len(outs[1].splitlines()) == {"any": 448, "conjugate_self_dual": 66}[mode]
    assert {json.loads(line)["index"] for line in outs[1].splitlines()}


def test_forced_pool_under_python_m_matches_one_worker(capsys, tmp_path):
    # the CLI as `python -m butson` runs it, with the pool forced; spawned workers
    # must not re-run the CLI, so stdout is the one-worker stream exactly once.  The
    # process leaves through os._exit, so the start method is reported as the pool starts
    path = tmp_path / "h.bh"
    path.write_text(serialize_matrix(character_table([3, 3])))
    argv = ["bent-search", str(path), "--mode", "conjugate_self_dual", "--json"]
    want = _cli_stdout(capsys, argv)
    script = "\n".join([
        "import multiprocessing, runpy, sys",
        "from butson import bent",
        "bent._CHUNK, bent._POOL_SECONDS = 1000, 0",
        "get_context = multiprocessing.get_context",
        "multiprocessing.get_context = lambda method: print([method], file=sys.stderr) or get_context(method)",
        f"sys.argv = {['butson', *argv, '--workers', '3']!r}",
        "runpy.run_module('butson', run_name='__main__', alter_sys=True)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0
    assert proc.stdout.decode() == want
    assert proc.stderr == b"['spawn']\n"


def test_a_pool_whose_workers_cannot_start_raises(tmp_path):
    # spawned workers re-import the main script, and a script read from stdin has
    # none to import: every worker dies at start, and the scan raises, not hangs
    script = "\n".join([
        "from butson import bent",
        "from butson.matrices import character_table",
        "bent._CHUNK, bent._POOL_SECONDS = 512, 0",
        "hits = bent.search_bent(character_table([3, 3]), mode='conjugate_self_dual', workers=2)",
        "print(sum(1 for _ in hits))",
    ])
    proc = subprocess.run([sys.executable, "-"], input=script.encode(), capture_output=True,
                          timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert b"BrokenProcessPool" in proc.stderr


def test_two_matrices_in_one_process():
    # same n and k, different count table: nothing may carry over between searches
    first = character_table([3, 3])
    second = first.monomial_transform([1, 0, 2, 3, 4, 5, 6, 7, 8], [0, 1, 0, 2, 0, 0, 1, 0, 0],
                                      [0, 1, 2, 3, 4, 5, 6, 8, 7], [2, 0, 0, 0, 1, 0, 0, 0, 0])
    for h in (first, second, first):
        found = {hit.vector.entries for hit in search_bent(h, mode="any", workers=1)}
        brute = {x for x, _, _ in brute_force_bent_vectors(h.entries, 3) if x[0] == 0}
        assert found == brute and len(found) == 162
    a = {hit.vector.entries for hit in search_bent(first, mode="any")}
    b = {hit.vector.entries for hit in search_bent(second, mode="any")}
    assert a != b


def test_guard_fires_at_the_float_mantissa_without_allocating():
    zeros = lambda dtype, n: np.broadcast_to(np.zeros((), dtype), (2, n, 3))  # noqa: E731
    # k = 2: max|reduction_matrix| = 1, so the bound is n^2 against 2^24 and 2^53
    with pytest.raises(ValueError, match="exact integer range"):
        bent._bent(zeros(np.float32, 2**12))
    with pytest.raises(ValueError, match="exact integer range"):
        bent._bent(zeros(np.float64, 2**27))
    with pytest.raises(ValueError, match="exact integer range"):
        bent._bent(zeros(np.int64, 2**31))
    assert not bent._bent(zeros(np.float32, 2**12 - 1)).any()
    # a phase whose reduction matrix has larger entries moves the bound down
    big = int(np.abs(reduction_matrix(105)).max())
    assert big > 1
    n = isqrt((2**24 - 1) // big)
    check_exact(bent._verdict_bound(n, 105), np.float32)
    with pytest.raises(ValueError, match="exact integer range"):
        check_exact(bent._verdict_bound(n + 1, 105), np.float32)
    with pytest.raises(ValueError, match="exact integer range"):
        bent._bent(np.broadcast_to(np.float32(0), (105, n + 1, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norm_operator_is_the_reduced_difference_table(dtype):
    # column (s, u) is zeta^(s - u) reduced, built once per (k, dtype) and read-only
    for k in range(1, 31):
        s = np.arange(k)
        norm = bent._norm_operator(k, np.dtype(dtype))
        want = reduction_matrix(k).astype(dtype)[(s[:, None] - s) % k].reshape(k * k, -1).T
        assert norm.dtype == np.dtype(dtype) and norm.shape == want.shape
        assert (norm == want).all()
        assert not norm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            norm[0, 0] = 1
        assert bent._norm_operator(k, np.dtype(dtype)) is norm


def test_index_range_guard_and_digits():
    h = character_table([3, 3, 3, 3])  # 3^80 candidates in any mode
    with pytest.raises(ValueError, match="int64"):
        next(search_bent(h, mode="any"))
    assert list(search_bent(h, mode="any", budget=50)) == []
    top = 2**63 - 2
    digits = index_digits([0, 5, top], 3, 50)
    for col, value in enumerate([0, 5, top]):
        want = [(value // 3 ** (49 - p)) % 3 for p in range(50)]
        assert digits[:, col].tolist() == want


def test_certificates_survive_pickling():
    cert = check_bent(character_table([3, 3]), ksw_vector(3, 2))
    assert pickle.loads(pickle.dumps(cert)) == cert
    z = CycInt((1, 0, -2, 0, 3, 1))
    copy = pickle.loads(pickle.dumps(z))
    assert copy.coeffs == z.coeffs and copy.phase == z.phase == 6


@pytest.mark.parametrize("command", [
    ["bent-search", "{m}"],
    ["covering-radius", "--code-from", "{m}"],
])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_must_be_positive(capsys, tmp_path, command, workers):
    path = tmp_path / "f3.bh"
    path.write_text(serialize_matrix(fourier_matrix(3)))
    argv = [a.format(m=path) for a in command] + ["--workers", workers]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "--workers" in captured.err


@pytest.mark.parametrize("budget", ["0", "-5", "two"])
def test_search_budget_must_be_positive(capsys, tmp_path, budget):
    path = tmp_path / "f3.bh"
    path.write_text(serialize_matrix(fourier_matrix(3)))
    assert main(["bent-search", str(path), "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "--budget" in captured.err


def test_broken_stdout_pipe_is_a_normal_end(tmp_path):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a resizable pipe (Linux)")
    path = tmp_path / "f24.bh"
    path.write_text(serialize_matrix(sylvester_matrix(4)))
    read_fd, write_fd = os.pipe()
    # a one-page pipe: the 448 JSON hits (about 50 kB) cannot all be buffered,
    # so the search is still writing when the reader goes away
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "butson", "bent-search", str(path), "--mode", "any",
         "--json", "--workers", "2"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        head = [reader.readline() for _ in range(2)]
    _, err = proc.communicate(timeout=60)
    assert [json.loads(line)["index"] for line in head] == [854, 857]
    assert proc.returncode == 0
    assert err == b""
