"""Butson Hadamard matrices in logarithmic form.

A matrix H with entries in the k-th roots of unity is stored as its exponent
table L, an n x n integer array with H[i, j] = zeta_k ** L[i, j].  All
verification is exact: Hermitian inner products of rows are computed as
exponent-difference counts and reduced modulo the k-th cyclotomic polynomial,
so H H* = nI is decided by integer arithmetic alone.

One kernel, count_tensor, produces every count tensor here: A H*, A B and
H H* alike, as float32 matmuls of one-hot stacks, (n x kn)(kn x n) each, in
O(k n^2) memory.  Its one loop, _times_unit, rolls the one-hot of the second
table by t for the t-th matmul, t = 1..k-1 (floor(k/2) of them for H H*), and
t = 0 takes the row width less the rest.  Every count is at most
the row width n, so the matmuls are exact integer arithmetic while
n < 2**24, and reducing a count tensor in int64 is exact while
max_reduction(k) * n < 2**62; the kernel raises ValueError outside those
bounds through cyclotomic.check_exact.
A one-row second table gives per-row counts: Hx in check_bent, the Bush
block sums.  Each identity is a difference, counts less target (H H* = nI
takes n from coefficient 0 on the diagonal), that cyclotomic.is_zero reduces
once, exact in int64 as check_exact leaves one addition of headroom.
unitary_order keeps powers in cyclotomic.canonical form, which division by n needs.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import CycInt, canonical, check_exact, is_zero, max_reduction, reduce, square_root
from .numtheory import check_phase


class LogMatrix:
    """Exponent table of a square matrix over the k-th roots of unity."""

    def __init__(self, phase: int, entries):
        self.phase = check_phase(phase)
        arr = np.asarray(entries, dtype=np.int64) % phase
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        arr.flags.writeable = False
        self.entries = arr
        self._hadamard: bool | None = None

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row) for row in self.entries.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogMatrix):
            return NotImplemented
        return (
            self.phase == other.phase
            and self.entries.shape == other.entries.shape
            and bool((self.entries == other.entries).all())
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"LogMatrix(phase={self.phase}, order={self.order})"

    # -- elementwise and structural transforms ------------------------------

    def conjugate(self) -> LogMatrix:
        return LogMatrix(self.phase, (-self.entries) % self.phase)

    def conj_transpose(self) -> LogMatrix:
        return LogMatrix(self.phase, (-self.entries.T) % self.phase)

    def negate(self) -> LogMatrix:
        """Multiply every entry by -1; needs even phase so -1 is a k-th root."""
        if self.phase % 2:
            raise ValueError(f"-1 is not a root of unity of odd order {self.phase}")
        return LogMatrix(self.phase, (self.entries + self.phase // 2) % self.phase)

    def lift_phase(self, new_phase: int) -> LogMatrix:
        """Reindex exponents so entries are read as new_phase-th roots."""
        if new_phase % self.phase != 0:
            raise ValueError(f"phase {self.phase} does not divide {new_phase}")
        return LogMatrix(new_phase, self.entries * (new_phase // self.phase))

    def monomial_transform(
        self,
        row_perm: Sequence[int],
        row_shifts: Sequence[int],
        col_perm: Sequence[int],
        col_shifts: Sequence[int],
    ) -> LogMatrix:
        """Permute rows/columns and multiply each by a root of unity."""
        a = self.entries[np.asarray(row_perm), :][:, np.asarray(col_perm)]
        a = a + np.asarray(row_shifts)[:, None] + np.asarray(col_shifts)[None, :]
        return LogMatrix(self.phase, a % self.phase)

    def column(self, j: int) -> LogVector:
        return LogVector(self.phase, self.entries[:, j])


class LogVector:
    """Exponent vector over the k-th roots of unity."""

    def __init__(self, phase: int, entries: Iterable[int]):
        self.phase = check_phase(phase)
        self.entries = tuple(int(v) % phase for v in entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogVector):
            return NotImplemented
        return self.phase == other.phase and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.phase, self.entries))

    def __repr__(self) -> str:
        return f"LogVector(phase={self.phase}, entries={self.entries})"


# -- constructions ----------------------------------------------------------


def fourier_matrix(n: int) -> LogMatrix:
    """Character table of the cyclic group C_n: entry (i, j) = i*j mod n."""
    return character_table([n])


def character_table(orders: Sequence[int]) -> LogMatrix:
    """Character table of C_{orders[0]} x ... x C_{orders[-1]}.

    Rows (characters) and columns (group elements) are enumerated in
    lexicographic mixed-radix order, most significant factor first.  The
    phase is the group exponent lcm(orders).
    """
    orders = tuple(int(d) for d in orders)
    if not orders or any(d < 1 for d in orders):
        raise ValueError(f"orders must be positive, got {orders}")
    k = lcm(*orders)
    h = LogMatrix(k, [[0]])
    for d in orders:
        idx = np.arange(d, dtype=np.int64)
        h = kronecker(h, LogMatrix(k, np.outer(idx, idx) * (k // d) % k))
    return h


def sylvester_matrix(m: int) -> LogMatrix:
    """The 2^m x 2^m real Hadamard matrix F(C_2)^(kron m) in log form."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return character_table([2] * m) if m else LogMatrix(2, [[0]])


def kronecker(a: LogMatrix, b: LogMatrix) -> LogMatrix:
    """Kronecker product; exponents add after lifting both to phase lcm."""
    k = lcm(a.phase, b.phase)
    ea = a.entries * (k // a.phase)
    eb = b.entries * (k // b.phase)
    na, nb = a.order, b.order
    out = (ea[:, None, :, None] + eb[None, :, None, :]).reshape(na * nb, na * nb)
    return LogMatrix(k, out % k)


def circulant_from_row(x: LogVector) -> LogMatrix:
    """Circulant exponent table: entry (i, j) = x[(i - j) mod n]."""
    row = np.asarray(x.entries, dtype=np.int64)
    n = len(row)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return LogMatrix(x.phase, row[idx])


# -- exact verification and products ----------------------------------------


def _one_hot(x: np.ndarray, k: int, dtype) -> np.ndarray:
    """(rows, k, width) indicator stack: out[i, s, m] = 1 iff x[i, m] = s."""
    rows, width = x.shape
    oh = np.zeros((rows, k, width), dtype=dtype)
    oh[np.arange(rows)[:, None], x, np.arange(width)] = 1
    return oh


def _times_unit(left: np.ndarray, right: np.ndarray, shifts: Iterable[int]) -> np.ndarray:
    """(k, rows, len(right)) stack whose slice t, for t in shifts, sums left[i, s, m]
    over all (s, m) with right[j, s - t mod k, m] = 1; the other slices are unset.

    Read left as a matrix over Z[zeta_k] whose entry (i, m) has coefficient
    left[i, s, m] at zeta^s, and right as the one-hot stack of the exponent table
    b of a unit matrix B: slice t is then the coefficient at zeta^t of left B*.
    Rolling right's value axis by t gives the one-hot of b + t, so each t is one
    matmul (rows x k width)(k width x len(b)) in left's dtype, and the caller
    bounds the partial sums to keep them exact.
    """
    rows, k, width = left.shape
    flat = left.reshape(rows, k * width)
    out = np.empty((k, rows, len(right)), dtype=left.dtype)
    for t in shifts:
        np.matmul(flat, np.roll(right, t, axis=1).reshape(len(right), k * width).T, out=out[t])
    return out


def count_tensor(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """counts[i, j, t] = #{m : a[i, m] - b[j, m] = t mod k}, as int64.

    Entry (i, j) is the group-ring form of sum_m zeta^(a[i, m] - b[j, m]):
    the counts of (A, B) give A B*, those of (A, -B^T) give A B.  This is
    the one count kernel: float32 matmuls of one-hot stacks for t = 1..k-1,
    exact because every count is at most the row width; the k counts of an
    entry sum to the width, which gives t = 0.  A table counted against itself
    takes t = 1..k/2 alone: the counts at -t are those at t transposed.  Reducing an
    entry moves no coefficient past max_reduction(k) times the width, so that
    is checked against int64 first.
    """
    a, b = np.asarray(a), np.asarray(b)
    width = a.shape[1]
    check_exact(max_reduction(k) * width, np.int64)
    check_exact(width, np.float32)
    left = _one_hot(a % k, k, np.float32)
    if b is not a:
        out = _times_unit(left, _one_hot(b % k, k, np.float32), range(1, k))
    else:
        out = _times_unit(left, left, range(1, k // 2 + 1))
        for t in range(k // 2 + 1, k):
            out[t] = out[k - t].T
    out[0] = width - out[1:].sum(axis=0)
    del left  # free the one-hot before the int64 copy below
    return out.transpose(1, 2, 0).astype(np.int64)


def verify_hadamard(h: LogMatrix) -> bool:
    """Exact check of H H* = nI via reduced exponent-difference counts.

    Row orthogonality suffices: a square matrix of unit entries with
    orthogonal rows is invertible, and H* H = nI follows.
    """
    if h._hadamard is None:
        counts = count_tensor(h.entries, h.entries, h.phase)
        idx = np.arange(h.order)
        counts[idx, idx, 0] -= h.order
        h._hadamard = is_zero(counts)
    return h._hadamard


def _check_pair(a: LogMatrix, b: LogMatrix) -> None:
    if a.phase != b.phase:
        raise ValueError(f"phase mismatch: {a.phase} vs {b.phase}")
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def product_counts(a: LogMatrix, b: LogMatrix) -> np.ndarray:
    """counts[i, j, t] = #{m : a[i, m] + b[m, j] = t mod k}, so that
    (AB)_{ij} = sum_t counts[i, j, t] zeta^t."""
    _check_pair(a, b)
    return count_tensor(a.entries, -b.entries.T, a.phase)


def hermitian_product_counts(a: LogMatrix, b: LogMatrix) -> np.ndarray:
    """Exponent counts of A B*, i.e. entries sum_m zeta^(a[i,m] - b[j,m])."""
    _check_pair(a, b)
    return count_tensor(a.entries, b.entries, a.phase)


class NotHadamardError(ValueError):
    pass


def is_unbiased(a: LogMatrix, b: LogMatrix) -> CycInt | None:
    """The scalar z with A B* = z L for some phase-k Butson matrix L, if any.

    z must satisfy z conj(z) = n; it is read off as the top-left entry of
    A B*, every entry is then required to be z times a k-th root of unity,
    and the exponent table of those roots must itself verify as Hadamard.
    Returns None when any of that fails.
    """
    counts = hermitian_product_counts(a, b)  # raises ValueError unless phases and orders agree
    k, n = a.phase, a.order
    z = CycInt(counts[0, 0])
    if z.norm_sq() != n:
        return None
    # match[i, j, t]: entry (i, j) of A B* equals z * zeta^t
    zrots = reduce(np.stack([np.roll(counts[0, 0], t) for t in range(k)]))
    match = (reduce(counts)[:, :, None, :] == zrots).all(axis=3)
    if not match.any(axis=2).all():
        return None
    if not verify_hadamard(LogMatrix(k, match.argmax(axis=2))):
        return None
    return z


# -- exact unitary order -----------------------------------------------------


def adjoint_counts(counts: np.ndarray) -> np.ndarray:
    """Counts of X* from the (n, n, k) counts of X: swap i and j, and read coefficient -t."""
    k = counts.shape[-1]
    return counts.swapaxes(0, 1)[..., -np.arange(k) % k]


def unitary_order(h: LogMatrix, max_t: int) -> int | None:
    """Smallest t with H^t = sqrt(n)^t I, or None if none up to max_t.

    Equivalently the multiplicative order of H / sqrt(n).  As H H* = nI, H^(2s) = n^s I
    exactly when H^s is Hermitian, and H^(2s-1) = sqrt(n)^(2s-1) I exactly when H^s =
    sqrt(n) (H^(s-1))*, which needs sqrt(n) in Z[zeta_k] (cyclotomic.square_root).  So
    the powers up to about H^(max_t/2) suffice, exact (n, n, k) tensors of canonical
    coefficients, divided by n whenever all allow it, which neither test sees.  Each
    product by H is a count-kernel matmul in float64 while a coefficient bound keeps that
    exact, else in Python ints; coefficients stay int64 while an adjoint reduces exactly there.
    """
    if max_t < 2:
        raise ValueError(f"max_t must be at least 2, got {max_t}")
    if not verify_hadamard(h):
        raise NotHadamardError("unitary order is defined for Butson Hadamard matrices")
    n, k = h.order, h.phase
    root = square_root(n, k)
    h_conj = (-h.entries.T) % k  # P H = P (H*)*
    prev = np.eye(n, dtype=np.int64)[:, :, None] * np.eye(1, k, dtype=np.int64)  # H^0 = I
    p = canonical(np.eye(k, dtype=np.int64)[h.entries])
    for s in range(1, (max_t + 1) // 2 + 1):
        # t = 2s - 1: p = prev H is not yet divided, so both sides are at prev's scale; root's
        # |coefficients| sum to at most n, so root prev* reduces within p's bound, in p's dtype.
        # Each test reduces a difference with p: that adds |p| to the partial sums, at most
        # the bound again, which check_exact's one addition of headroom in int64 holds
        if root is not None:
            adj = adjoint_counts(prev).astype(p.dtype)
            side = sum(c * np.roll(adj, u, axis=-1) for u, c in enumerate(root.coeffs) if c)
            if is_zero(p - side):
                return 2 * s - 1
        while n > 1 and not (p % n).any():
            p //= n
        if 2 * s <= max_t and is_zero(p - adjoint_counts(p)):
            return 2 * s
        if 2 * s < max_t:
            # an entry of P H sums k * n coefficients of P; reducing scales it by <= max_reduction(k)
            bound = max_reduction(k) * k * n * int(np.abs(p).max())
            dtype = check_exact(bound, np.float64, object)
            prod = _times_unit(p.transpose(0, 2, 1).astype(dtype), _one_hot(h_conj, k, dtype), range(k))
            held = check_exact(max_reduction(k) * k * bound, np.int64, object)
            prev, p = p, canonical(prod.transpose(1, 2, 0).astype(held))
    return None
