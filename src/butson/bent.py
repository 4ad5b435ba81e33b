"""Bent vectors for Butson Hadamard matrices.

A vector x with entries in the k-th roots of unity is H-bent when every
entry of Hx has squared modulus exactly n; it is self-dual when Hx is a
scalar times x and conjugate self-dual when Hx is a scalar times the
conjugate of x.  Scalars are certified exactly: sqrt(n) is irrational for
non-square n, so instead of the norm-1 scalar itself the certificate stores
the cyclotomic integer (Hx)_i conj(x_i) (or (Hx)_i x_i), whose constancy
across i is the defining identity and whose norm must be n.

The search enumerates candidate vectors as base-k counters, most significant
digit first, and certifies each one; parallel runs partition the index range
into contiguous chunks and merge results by candidate index, so output is
identical for every worker count.
"""

from __future__ import annotations

import multiprocessing
from math import gcd, isqrt, lcm
from typing import Iterator, NamedTuple, Sequence

from .cyclotomic import CycInt, _reduction_rows
from .matrices import (
    LogMatrix,
    LogVector,
    NotHadamardError,
    circulant_from_row,
    counts_match,
    fourier_matrix,
    hermitian_product_counts,
    kronecker,
    product_counts,
    verify_hadamard,
)
from .numtheory import dual_entry_ambient_phase, is_self_conjugate


class BentCertificate(NamedTuple):
    """Exact outcome of a bent check, with the dual vector and unit scalars."""

    bent: bool
    self_dual: bool
    conjugate_self_dual: bool
    dual: tuple[CycInt, ...]
    self_dual_unit: CycInt | None
    conjugate_self_dual_unit: CycInt | None
    dual_entry_orders: tuple[int | None, ...] | None

    @property
    def kind(self) -> str:
        if not self.bent:
            return "not_bent"
        kinds = []
        if self.self_dual:
            kinds.append("self_dual")
        if self.conjugate_self_dual:
            kinds.append("conjugate_self_dual")
        return "+".join(kinds) if kinds else "bent"

    @property
    def unit(self) -> CycInt | None:
        if self.conjugate_self_dual:
            return self.conjugate_self_dual_unit
        return self.self_dual_unit

    def matches(self, mode: str) -> bool:
        if mode == "any":
            return self.bent
        if mode == "self_dual":
            return self.self_dual
        if mode == "conjugate_self_dual":
            return self.conjugate_self_dual
        raise ValueError(f"unknown mode {mode!r}")


def _reduce_counts_py(cnt: Sequence[int], red_rows, width: int) -> tuple[int, ...]:
    out = [0] * width
    for t, c in enumerate(cnt):
        if c:
            row = red_rows[t]
            for i in range(width):
                out[i] += c * row[i]
    return tuple(out)


def _certify(rows, k: int, x, n: int, red_rows, width: int):
    """(bent, self_dual, conjugate_self_dual, per-row exponent counts).

    Each row i contributes the count vector of (h_i + x) mod k, whose
    group-ring element is (Hx)_i.  Every row is processed, bent or not, so
    per-candidate cost is uniform across the search space.
    """
    cnts = []
    bent = True
    for row in rows:
        cnt = [0] * k
        for e, xe in zip(row, x):
            t = e + xe
            cnt[t - k if t >= k else t] += 1
        cnts.append(cnt)
        if bent:
            # norm_sq: coefficient t of z conj(z) is sum_s cnt[s] cnt[s-t]
            red = [0] * width
            for t in range(k):
                d = 0
                for s in range(k):
                    d += cnt[s] * cnt[s - t]
                if d:
                    row_t = red_rows[t]
                    for i in range(width):
                        red[i] += d * row_t[i]
            if red[0] != n or any(red[1:]):
                bent = False
    if not bent:
        return False, False, False, cnts
    sd = csd = True
    sd_ref = csd_ref = None
    for cnt, xe in zip(cnts, x):
        if sd:
            rot = cnt[xe:] + cnt[:xe]  # times zeta^(-x_i)
            r = _reduce_counts_py(rot, red_rows, width)
            if sd_ref is None:
                sd_ref = r
            elif r != sd_ref:
                sd = False
        if csd:
            rot = cnt[-xe:] + cnt[:-xe] if xe else cnt  # times zeta^(x_i)
            r = _reduce_counts_py(rot, red_rows, width)
            if csd_ref is None:
                csd_ref = r
            elif r != csd_ref:
                csd = False
    return True, sd, csd, cnts


def _dual_entry_order(entry: CycInt, n: int, ambient: int) -> int | None:
    """Order of entry / sqrt(n) as a root of unity in phase `ambient`, if provable.

    For square n the quotient is computed exactly and classified.  Otherwise
    the smallest even exponent L with entry^L = n^(L/2) is reported; the true
    order is then L or L/2.  None when no classification is reached.
    """
    s = isqrt(n)
    z = entry.embed(ambient)
    if s * s == n:
        coeffs = z.reduce().coeffs
        if any(c % s for c in coeffs):
            return None
        y = CycInt(ambient, tuple(c // s for c in coeffs))
        got = y.is_root_of_unity()
        if got is None:
            return None
        sign, t = got
        if sign < 0:
            t = (t + ambient // 2) % ambient
        return ambient // gcd(ambient, t) if t else 1
    for exp in sorted(d for d in range(2, ambient + 1, 2) if ambient % d == 0):
        power = CycInt.integer(ambient, 1)
        for _ in range(exp):
            power = power * z
        if power == n ** (exp // 2):
            return exp
    return None


def _build_certificate(k: int, n: int, x, cnts, flags) -> BentCertificate:
    bent, sd, csd = flags
    dual = tuple(CycInt(k, cnt) for cnt in cnts)
    sd_unit = dual[0].times_root(-x[0]).reduce() if sd else None
    csd_unit = dual[0].times_root(x[0]).reduce() if csd else None
    orders = None
    if bent and is_self_conjugate(n, k):
        ambient = dual_entry_ambient_phase(n, k)
        orders = tuple(_dual_entry_order(e, n, ambient) for e in dual)
    return BentCertificate(bent, sd, csd, dual, sd_unit, csd_unit, orders)


def check_bent(h: LogMatrix, x: LogVector) -> BentCertificate:
    """Certify whether x is bent / self-dual / conjugate self-dual for h."""
    if h.phase != x.phase:
        raise ValueError(f"phase mismatch: matrix {h.phase}, vector {x.phase}")
    if h.order != len(x):
        raise ValueError(f"length mismatch: matrix order {h.order}, vector {len(x)}")
    if not verify_hadamard(h):
        raise NotHadamardError("bent checks need a Butson Hadamard matrix")
    k, n = h.phase, h.order
    red_rows = _reduction_rows(k)
    width = len(red_rows[0])
    bent, sd, csd, cnts = _certify(h.rows(), k, x.entries, n, red_rows, width)
    return _build_certificate(k, n, x.entries, cnts, (bent, sd, csd))


def ksw_vector(k: int, m: int) -> LogVector:
    """Log entries f(c) = c_1 c_{t+1} + ... + c_t c_{2t} mod k over Z_k^m.

    Indices run lexicographically, most significant coordinate first; the
    result is conjugate self-dual bent for the character table of C_k^m.
    """
    if m % 2 or m < 2:
        raise ValueError(f"m must be even and at least 2, got {m}")
    t = m // 2
    entries = []
    for idx in range(k**m):
        digits = _index_digits(idx, k, m)
        entries.append(sum(digits[i] * digits[t + i] for i in range(t)) % k)
    return LogVector(k, entries)


def _index_digits(index: int, k: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digits[pos] = divmod(index, k)
    return tuple(digits)


class SearchHit(NamedTuple):
    index: int
    vector: LogVector
    certificate: BentCertificate


_WORKER_STATE: dict = {}


def _init_worker(rows, k, n, mode, pin_first):
    red_rows = _reduction_rows(k)
    _WORKER_STATE.update(
        rows=rows, k=k, n=n, mode=mode, pin_first=pin_first,
        red_rows=red_rows, width=len(red_rows[0]),
    )


def _scan_range(bounds: tuple[int, int]):
    start, stop = bounds
    s = _WORKER_STATE
    rows, k, n, mode = s["rows"], s["k"], s["n"], s["mode"]
    red_rows, width = s["red_rows"], s["width"]
    free = n - 1 if s["pin_first"] else n
    hits = []
    for index in range(start, stop):
        x = _index_digits(index, k, free)
        if s["pin_first"]:
            x = (0,) + x
        bent, sd, csd, cnts = _certify(rows, k, x, n, red_rows, width)
        ok = bent if mode == "any" else (sd if mode == "self_dual" else csd)
        if ok:
            hits.append((index, x, tuple(tuple(c) for c in cnts), (bent, sd, csd)))
    return hits


def search_bent(
    h: LogMatrix,
    mode: str = "any",
    budget: int | None = None,
    workers: int = 1,
) -> Iterator[SearchHit]:
    """Stream every candidate vector whose certificate matches mode.

    Candidates are base-k counters over the entries, most significant digit
    first.  For mode="any" the first entry is pinned to 0: adding a constant
    to all log entries preserves bentness, so each scalar orbit is scanned
    exactly once.  The dual modes scan the full k^n space because the pinned
    representative can have a different unit.  Budget caps the number of
    candidates scanned and a partial result is normal; output order is by
    candidate index regardless of worker count.
    """
    if mode not in ("any", "self_dual", "conjugate_self_dual"):
        raise ValueError(f"unknown mode {mode!r}")
    if not verify_hadamard(h):
        raise NotHadamardError("bent search needs a Butson Hadamard matrix")
    k, n = h.phase, h.order
    pin_first = mode == "any"
    total = k ** (n - 1) if pin_first else k**n
    if budget is not None:
        total = min(total, budget)
    rows = h.rows()

    def emit(raw) -> SearchHit:
        index, x, cnts, flags = raw
        cert = _build_certificate(k, n, x, [list(c) for c in cnts], flags)
        return SearchHit(index, LogVector(k, x), cert)

    if workers <= 1:
        _init_worker(rows, k, n, mode, pin_first)
        step = 4096
        for start in range(0, total, step):
            for raw in _scan_range((start, min(start + step, total))):
                yield emit(raw)
        return

    chunks = max(workers, min(8 * workers, total))
    bounds = []
    base, extra = divmod(total, chunks)
    pos = 0
    for c in range(chunks):
        size = base + (1 if c < extra else 0)
        if size:
            bounds.append((pos, pos + size))
            pos += size
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker, initargs=(rows, k, n, mode, pin_first)) as pool:
        for chunk_hits in pool.imap(_scan_range, bounds):
            for raw in chunk_hits:
                yield emit(raw)


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


def devectorize(x: LogVector, n: int) -> LogMatrix:
    if len(x) != n * n:
        raise ValueError(f"length {len(x)} is not {n}^2")
    entries = [list(x.entries[i * n : (i + 1) * n]) for i in range(n)]
    return LogMatrix(x.phase, entries)


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
               self-dual (H kron H^T)-bent.

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
        if h.phase != m.phase or h.order != m.order:
            raise ValueError("matrices must share order and phase")
        k = h.phase
        if variant == 2:
            if not counts_match(product_counts(h, m), k, product_counts(m, h)):
                raise NotCommutingError("H M != M H")
            big = kronecker(h, h.conjugate())
            expected = "self_dual"
        else:
            if not counts_match(hermitian_product_counts(h, m), k, hermitian_product_counts(m, h)):
                raise NotAmicableError("H M* != M H*")
            if not (m.entries == m.entries.T).all():
                raise NotSymmetricError("M is not symmetric")
            big = kronecker(h, h.transpose())
            expected = "conjugate_self_dual"
        x = vectorize(m)
    else:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    cert = check_bent(big, x)
    if not cert.matches(expected):
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
