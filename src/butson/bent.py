"""Bent vectors for Butson Hadamard matrices.

A vector x with entries in the k-th roots of unity is H-bent when every
entry of Hx has squared modulus exactly n; it is self-dual when Hx is a
scalar times x and conjugate self-dual when Hx is a scalar times the
conjugate of x.  Scalars are certified exactly: sqrt(n) is irrational for
non-square n, so instead of the norm-1 scalar itself the certificate stores
the cyclotomic integer (Hx)_i conj(x_i) (or (Hx)_i x_i), whose constancy
across i is the defining identity and whose norm must be n.

Every exhaustive scan of Z_k^n, here and in codes, sums a table contrib[j, v,
f], what x_j = v adds to output f, over prefix blocks and a suffix table
(suffix_table, digit_blocks) in contrib's dtype, each at most _BLOCK_BYTES:
2**16 float32 cells in a search, 2**18 uint8 cells in a radius scan.  The
search's sums are the exponent counts of every entry of Hx: _bent reduces
their autocorrelations exactly (cyclotomic.check_exact bounds the range),
and _duals decides the two dual verdicts on the bent candidates only;
check_bent runs both on a batch of one and is the one place a
certificate (CycInt dual, units, dual-entry orders) is built.  A search hit is
a plain (index, vector, kind) record, its kind read off the three flags, so a
search builds no certificate.
fan_out, shared with the covering-radius scan, runs index chunks inline, or
in a spawn pool once their measured cost pays for one, and merges by index,
so output is identical for every worker count and path.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from collections import deque
from functools import lru_cache, partial
from itertools import islice
from math import isqrt, lcm
from typing import Iterator, NamedTuple

import numpy as np

from .cyclotomic import CycInt, check_exact, is_zero, max_reduction, reduce
from .matrices import (
    LogMatrix,
    LogVector,
    NotHadamardError,
    adjoint_counts,
    circulant_from_row,
    count_tensor,
    fourier_matrix,
    hermitian_product_counts,
    kronecker,
    product_counts,
    verify_hadamard,
)
from .numtheory import _MODES, dual_entry_ambient_phase

_BLOCK_BYTES = 1 << 18  # bytes of one block of digit sums, and of the suffix table
_CHUNK = 1 << 16  # fan_out chunk: quick to stream, worth a pool round trip
_POOL_SECONDS = 1.0  # measured inline work left that pays for a spawn pool (two start in 0.25-0.4 s)


class BentCertificate(NamedTuple):
    """Exact outcome of a bent check, with the dual vector and unit scalars.

    dual_entry_orders: per dual entry, the order of entry / sqrt(n) in phase 2k (k
    even) or 4k (k odd), for non-square n the least even exponent, so that order or
    twice it; None for an entry when no such exponent divides the phase, and None
    for the field when x is not bent or n is not self-conjugate mod k."""

    bent: bool
    self_dual: bool
    conjugate_self_dual: bool
    dual: tuple[CycInt, ...]
    self_dual_unit: CycInt | None
    conjugate_self_dual_unit: CycInt | None
    dual_entry_orders: tuple[int | None, ...] | None

    @property
    def kind(self) -> str:
        return _kind(*self[:3])

    @property
    def unit(self) -> CycInt | None:
        if self.conjugate_self_dual:
            return self.conjugate_self_dual_unit
        return self.self_dual_unit


def _kind(bent: bool, self_dual: bool, conjugate_self_dual: bool) -> str:
    """not_bent, bent, or the dual kinds that hold, joined by "+"."""
    if not bent:
        return "not_bent"
    return "+".join(m for m, f in zip(_MODES[1:], (self_dual, conjugate_self_dual)) if f) or "bent"


_INDICES = 2**63  # scan indices are int64: a scan stays below this many


def index_digits(indices, k: int, length: int) -> np.ndarray:
    """Base-k digits of indices in [0, 2**63 - 1), most significant in row 0: shape
    (length, len(indices)).  Place values past int64 clamp to its maximum, quotient 0."""
    places = [min(k**p, _INDICES - 1) for p in range(length - 1, -1, -1)]
    return np.asarray(indices, dtype=np.int64)[None, :] // np.array(places, dtype=np.int64)[:, None] % k


def block_size(cells: int, dtype) -> int:
    """How many times `cells` sums of dtype fit in _BLOCK_BYTES (at least 1)."""
    return max(1, _BLOCK_BYTES // (cells * np.dtype(dtype).itemsize))


def digit_sum(contrib: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(F, B) sums over j of contrib[j, x[j, b]] in contrib's dtype, added one coordinate
    at a time as gathered (B, F) rows, the fastest way, with no (n, F, B) temporary; the
    result is the transposed view of those rows."""
    out = np.zeros((x.shape[1], contrib.shape[2]), dtype=contrib.dtype)
    for j, row in enumerate(x):
        out += contrib[j].take(row, axis=0)
    return out.T


def suffix_table(contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, table): contrib of the first n - s coordinates, and the (F, k**s) digit
    sums of every suffix on the last s, for the largest s with k**s <= block_size(F,
    contrib.dtype).  The table grows by one leading coordinate at a time: digit v before
    the t digits of index a gives index v k**t + a, so each step is one broadcast addition."""
    n, k, f = contrib.shape
    s = max(s for s in range(n + 1) if k**s <= block_size(f, contrib.dtype))
    table = np.zeros((f, 1), contrib.dtype)
    for col in np.ascontiguousarray(contrib[n - s :][::-1].transpose(0, 2, 1)):  # (F, k) each
        table = (col[:, :, None] + table[:, None, :]).reshape(f, -1)
    return contrib[: n - s], table


def digit_blocks(start: int, stop: int, head: np.ndarray, table: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first index, (F, B) digit sums) of blocks of indices [start, stop), in order.
    Index p k**s + j sums prefix p on the digits of head and column j of table; a
    block takes at most block_size whole prefixes and is clipped to [start, stop)."""
    size = table.shape[1]
    step = block_size(table.size, table.dtype)
    last = -(-stop // size)
    for p in range(start // size, last, step):
        prefix = index_digits(np.arange(p, min(p + step, last)), head.shape[1], head.shape[0])
        sums = (digit_sum(head, prefix)[:, :, None] + table[:, None, :]).reshape(len(table), -1)
        lo = max(start, p * size)
        yield lo, sums[:, lo - p * size : stop - p * size]


def _verdict_bound(n: int, k: int) -> int:
    """Counts are at most n and one entry's k autocorrelations sum to n**2, so no
    reduced coefficient of the verdicts passes max_reduction(k) n**2."""
    return max_reduction(k) * n * n


@lru_cache(maxsize=None)
def _norm_operator(k: int, dtype: np.dtype) -> np.ndarray:
    """The read-only (phi(k), k**2) matrix whose column (s, u) is zeta^(s - u), reduced:
    reduce of the one-hots of (s - u) mod k, in dtype."""
    norm = reduce(np.eye(k, dtype=dtype)[(np.arange(k)[:, None] - np.arange(k)).ravel() % k]).T
    norm.flags.writeable = False
    return norm


def _bent(counts: np.ndarray) -> np.ndarray:
    """Exact bent flags of a batch of candidates, in counts.dtype.

    counts[t, i, b] is the number of terms of (H x_b)_i equal to zeta^t.  x_b is
    bent when each entry's autocorrelations d_t = sum_s counts[s] counts[s - t],
    the coefficients of z conj(z), reduce to n: one matmul of _norm_operator with
    the k**2 products counts[s] counts[u], k times the size of counts.
    """
    k, n, size = counts.shape
    check_exact(_verdict_bound(n, k), counts.dtype)
    norm = _norm_operator(k, counts.dtype)
    red = (norm @ (counts[:, None] * counts[None]).reshape(k * k, -1)).reshape(-1, n, size)
    return (red[0] == n).all(axis=0) & ~red[1:].any(axis=(0, 1))


def _duals(counts: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (self_dual, conjugate_self_dual) flags of bent candidates, candidate b
    being digits[:, b] with counts[:, :, b]: (Hx)_i times zeta^(-x_i), or zeta^(x_i),
    reduces to the same element for every i.  _bent's exactness guard covers these sums."""
    s = np.arange(len(counts))[:, None, None]
    units = (reduce(np.moveaxis(np.take_along_axis(counts, rot % len(counts), axis=0), 0, -1))
             for rot in (s + digits, s - digits))
    return tuple((unit == unit[:1]).all(axis=(0, 2)) for unit in units)


@lru_cache(maxsize=None)
def _dual_entry_order(row: tuple[int, ...], n: int, ambient: int) -> int | None:
    """Least divisor L of `ambient` with n**L a square r**2 and z**L = r, z the dual entry with
    counts row, in Z[zeta_k], which embeds in phase `ambient` injectively: for square n the
    order of z / sqrt(n), else even, so that order or twice it.  None when no L qualifies."""
    z = CycInt(row)
    power = CycInt.integer(len(row), 1)
    for exp in range(1, ambient + 1):
        power = power * z
        r = isqrt(n**exp)
        if ambient % exp == 0 and r * r == n**exp and power == r:
            return exp
    return None


def check_bent(h: LogMatrix, x: LogVector) -> BentCertificate:
    """Certify whether x is bent / self-dual / conjugate self-dual for h.

    The counts of Hx are those of H against the one-row table -x, from the count
    kernel, and go through the search's _bent, then _duals if bent, as a batch of one.
    """
    if h.phase != x.phase:
        raise ValueError(f"phase mismatch: matrix {h.phase}, vector {x.phase}")
    if h.order != len(x):
        raise ValueError(f"length mismatch: matrix order {h.order}, vector {len(x)}")
    if not verify_hadamard(h):
        raise NotHadamardError("bent checks need a Butson Hadamard matrix")
    k, n = h.phase, h.order
    xs = np.asarray(x.entries, dtype=np.int64)
    counts = count_tensor(h.entries, -xs[None], k)[:, 0].T  # column i: exponents of the terms of (Hx)_i
    bent = bool(_bent(counts[..., None])[0])
    sd, csd = (bool(f[0]) for f in _duals(counts[..., None], xs[:, None])) if bent else (False, False)
    rows = [tuple(row) for row in counts.T.tolist()]
    dual = tuple(CycInt(row) for row in rows)
    sd_unit = dual[0].times_root(-x.entries[0]).reduce() if sd else None
    csd_unit = dual[0].times_root(x.entries[0]).reduce() if csd else None
    ambient = dual_entry_ambient_phase(n, k) if bent else None  # None: n not self-conjugate mod k
    orders = None if ambient is None else tuple(_dual_entry_order(row, n, ambient) for row in rows)
    return BentCertificate(bent, sd, csd, dual, sd_unit, csd_unit, orders)


def ksw_vector(k: int, m: int) -> LogVector:
    """Log entries f(c) = c_1 c_{t+1} + ... + c_t c_{2t} mod k over Z_k^m.

    Indices run lexicographically, most significant coordinate first; the
    result is conjugate self-dual bent for the character table of C_k^m.
    """
    if m % 2 or m < 2:
        raise ValueError(f"m must be even and at least 2, got {m}")
    t = m // 2
    c = index_digits(np.arange(k**m), k, m)
    return LogVector(k, (c[:t] * c[t:]).sum(axis=0) % k)


class SearchHit(NamedTuple):
    """One hit of search_bent: candidate index, vector and BentCertificate.kind;
    check_bent(h, hit.vector) gives its certificate."""

    index: int
    vector: LogVector
    kind: str


_scan = None  # a pool worker's scan, installed once per process


def _install_scan(path: str) -> None:
    global _scan
    with open(path, "rb") as f:
        _scan = pickle.load(f)


def _run_chunk(bounds: tuple[int, int]):
    return _scan(*bounds)


def fan_out(scan, total: int, workers: int = 1) -> Iterator:
    """scan(start, stop) over _CHUNK-sized chunks of [0, total), yielded in index order.

    Chunks run inline, and only the scan calls are timed.  Once workers > 1
    and the time per chunk times the chunks left passes _POOL_SECONDS, the
    rest go to one spawn pool of at most `workers` processes, which receive
    scan once each.  Callers merge in index order (bent search concatenates,
    the radius scan takes the max), so results never depend on the path."""
    bounds = ((lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK))
    chunks, spent = -(-total // _CHUNK), 0.0
    for done, (lo, hi) in enumerate(bounds, 1):
        clock = time.perf_counter()
        result = scan(lo, hi)
        spent += time.perf_counter() - clock
        yield result
        if workers > 1 and spent * (chunks - done) > _POOL_SECONDS * done:
            yield from _pooled(scan, bounds, min(workers, chunks - done))


def _pooled(scan, bounds: Iterator[tuple[int, int]], processes: int) -> Iterator:
    """scan over bounds in a spawn pool, yielded in order, at most two chunks per
    process ahead.  Workers read scan from a file, not from their start-up data:
    the parent writes that data into a pipe whose read end it holds, so a worker
    that dies before reading it all (say it cannot re-import the main script)
    would block the write once the data outgrows the pipe.  Dead workers raise
    BrokenProcessPool; closing the stream cancels the chunks not yet started and
    waits for the workers."""
    import multiprocessing  # with the executor, 15-20 ms of imports that only a pool needs
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.pickle")
        with open(path, "wb") as f:
            pickle.dump(scan, f)
        pool = ProcessPoolExecutor(processes, spawn, initializer=_install_scan, initargs=(path,))
        try:
            ahead = deque(pool.submit(_run_chunk, b) for b in islice(bounds, 2 * processes))
            while ahead:
                result = ahead.popleft().result()
                ahead.extend(pool.submit(_run_chunk, b) for b in islice(bounds, 1))
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


def _count_table(h: LogMatrix) -> np.ndarray:
    """float32 contrib[j, v, (t, i)] = [h_ij + v = t mod k]: x_j = v puts zeta^t into
    (Hx)_i, so the digit sums of x are the (k, n) exponent counts of Hx."""
    k, n = h.phase, h.order
    s = np.arange(k)
    contrib = (h.entries.T[:, None, None, :] + s[:, None, None]) % k == s[:, None]
    return contrib.astype(np.float32).reshape(n, k, k * n)


def _scan_bent(start: int, stop: int, head: np.ndarray, table: np.ndarray, flag: int) -> list:
    """Hits among candidate indices [start, stop), decided one block of counts at a
    time: _bent on the block, then _duals on its bent candidates, whose digits are
    taken once.  A block holds at most _BLOCK_BYTES of counts, and _bent's products
    of it k times that."""
    k = head.shape[1]
    n = len(table) // k
    hits = []
    for lo, sums in digit_blocks(start, stop, head, table):
        counts = sums.reshape(k, n, -1)
        bent = np.flatnonzero(_bent(counts))
        if not bent.size:
            continue
        counts, digits = counts[:, :, bent], index_digits(lo + bent, k, n)
        flags = (np.ones(bent.size, bool), *_duals(counts, digits))
        found = np.flatnonzero(flags[flag])
        vectors = (LogVector(k, v) for v in digits[:, found].T.tolist())
        kinds = map(_kind, *(f[found].tolist() for f in flags))
        hits.extend(map(SearchHit, (lo + bent[found]).tolist(), vectors, kinds))
    return hits


def search_bent(h: LogMatrix, mode: str = "any", budget: int | None = None,
                workers: int = 1) -> Iterator[SearchHit]:
    """Stream every candidate vector whose kind matches mode.

    Candidates are base-k counters over the entries, most significant digit
    first.  For mode="any" the first entry is pinned to 0: adding a constant
    to all log entries preserves bentness, so each scalar orbit is scanned
    exactly once.  The dual modes scan the full k^n space because the pinned
    representative can have a different unit.  Budget caps the number of
    candidates scanned and a partial result is normal; output order is by
    candidate index regardless of worker count.  Indices are int64, so a
    space of 2**63 or more candidates needs a budget.  A hit is a plain
    (index, vector, kind) record; check_bent(h, hit.vector) gives its
    certificate.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not verify_hadamard(h):
        raise NotHadamardError("bent search needs a Butson Hadamard matrix")
    k, n = h.phase, h.order
    total = k ** (n - 1) if mode == "any" else k**n
    if budget is not None:
        total = min(total, budget)
    if total >= _INDICES:
        raise ValueError(f"{total} candidates pass the int64 index range; give a budget")
    check_exact(_verdict_bound(n, k), np.float32)
    head, table = suffix_table(_count_table(h))
    scan = partial(_scan_bent, head=head, table=table, flag=_MODES.index(mode))
    for hits in fan_out(scan, total, workers):
        yield from hits


def tensor_bent(x: LogVector, y: LogVector) -> LogVector:
    """Kronecker product of log vectors: entry sums mod k.

    Conjugate self-dual bent vectors compose: if x is H-bent and y is K-bent,
    both conjugate self-dual, the result is conjugate self-dual for H kron K.
    """
    if x.phase != y.phase:
        raise ValueError(f"phase mismatch: {x.phase} vs {y.phase}")
    if not len(x) or not len(y):
        raise ValueError("tensor_bent needs nonempty vectors")
    k = x.phase
    return LogVector(k, [(a + b) % k for a in x.entries for b in y.entries])


def vectorize(m: LogMatrix) -> LogVector:
    """Row-major flattening of the exponent table."""
    return LogVector(m.phase, m.entries.reshape(-1))


class NotCommutingError(ValueError):
    pass


class NotAmicableError(ValueError):
    pass


class NotSymmetricError(ValueError):
    pass


def tensor_corollary_check(h: LogMatrix, m: LogMatrix | None = None, variant: int = 1) -> BentCertificate:
    """Certify the three tensor-product bent constructions exactly.

    variant 1: phi(H) is conjugate self-dual (H* kron H*)-bent.
    variant 2: H M = M H  =>  phi(M) is self-dual (H kron conj(H))-bent.
    variant 3: H M* = M H* and M symmetric  =>  phi(M) is conjugate
               self-dual (conj(H) kron H*)-bent: conjugating H M* H = n M
               gives conj(H) M conj(H) = n conj(M).

    Preconditions are checked exactly and reported as distinct errors; a
    passing precondition with a failing certificate means the construction
    itself is falsified and raises RuntimeError.
    """
    if not verify_hadamard(h):
        raise NotHadamardError("tensor constructions need Butson Hadamard input")
    if variant == 1:
        big = kronecker(h.conj_transpose(), h.conj_transpose())
        x = vectorize(h)
        expected = "conjugate_self_dual"
    elif variant in (2, 3):
        if m is None:
            raise ValueError(f"variant {variant} needs a second matrix")
        if not verify_hadamard(m):
            raise NotHadamardError("tensor constructions need Butson Hadamard input")
        # the product counts below raise ValueError unless phases and orders agree
        if variant == 2:
            if not is_zero(product_counts(h, m) - product_counts(m, h)):
                raise NotCommutingError("H M != M H")
            big = kronecker(h, h.conjugate())
            expected = "self_dual"
        else:
            x = hermitian_product_counts(h, m)  # X = H M*, and X* = M H*
            if not is_zero(x - adjoint_counts(x)):
                raise NotAmicableError("H M* != M H*")
            if not (m.entries == m.entries.T).all():
                raise NotSymmetricError("M is not symmetric")
            big = kronecker(h.conjugate(), h.conj_transpose())
            expected = "conjugate_self_dual"
        x = vectorize(m)
    else:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    cert = check_bent(big, x)
    if not getattr(cert, expected):
        raise RuntimeError(
            f"tensor construction variant {variant} falsified: expected {expected}, got {cert.kind}"
        )
    return cert


def circulant_bent_bridge(x: LogVector) -> tuple[LogMatrix, BentCertificate]:
    """The circulant with first column pattern x, and x's bent certificate
    against the Fourier matrix of matching size.

    The circulant is Hadamard exactly when x is bent for F(C_n); phases are
    lifted to lcm(n, k) so the two sides are comparable for any input phase.
    """
    n = len(x)
    k = lcm(n, x.phase)
    f = fourier_matrix(n).lift_phase(k)
    lifted = LogVector(k, [e * (k // x.phase) for e in x.entries])
    return circulant_from_row(x), check_bent(f, lifted)
