"""Bush-type Butson Hadamard matrices and their guaranteed bent vectors.

A Bush-type matrix of order n^2 splits into n x n blocks H_ij with
J H_ij = H_ij J = delta_ij n J: diagonal blocks have all row and column sums
equal to n, off-diagonal blocks have vanishing sums.  The block-circulant
family B_a is built from the projector blocks R_a, whose entry (i, j) is
zeta_p^(a(j-i)); the algebra R_a^2 = p R_a, R_a R_b = 0 (a != b) makes every
B_a a symmetric Bush-type BH(p^2, p) and yields explicit conjugate self-dual
bent vectors, diagonal-scaling variants, and quaternary bent families.

All identities here are verified exactly on construction; a failure raises
rather than returning a silently wrong object.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bent import BentCertificate, check_bent
from .matrices import LogMatrix, LogVector, count_tensor, counts_match, product_counts, verify_hadamard
from .numtheory import is_prime


class BushStructureError(ValueError):
    """The matrix fails the Bush block-sum or Hadamard conditions."""


class BushMatrix:
    """A verified Bush-type Butson Hadamard matrix of order block_size^2."""

    def __init__(self, base: LogMatrix, block_size: int):
        n = block_size
        if base.order != n * n:
            raise ValueError(f"order {base.order} is not block_size^2 = {n * n}")
        if not verify_hadamard(base):
            raise BushStructureError("base matrix is not Butson Hadamard")
        if not _block_sums_hold(base, n):
            raise BushStructureError("block row/column sums violate the Bush condition")
        self.base = base
        self.block_size = n

    @property
    def phase(self) -> int:
        return self.base.phase

    @property
    def order(self) -> int:
        return self.base.order

    def __repr__(self) -> str:
        return f"BushMatrix(order={self.order}, phase={self.phase}, block_size={self.block_size})"


def _block_sums_hold(base: LogMatrix, n: int) -> bool:
    """Every row and column of block (I, J) sums to n if I = J and to 0 otherwise."""
    k = base.phase
    blocks = base.entries.reshape(n, n, n, n).transpose(0, 2, 1, 3)  # (I, J, r, c)
    # block rows, then block columns, each counted against a zero row
    lines = np.concatenate([blocks, blocks.transpose(0, 1, 3, 2)]).reshape(-1, n)
    counts = count_tensor(lines, np.zeros((1, n), np.int64), k).reshape(2, n, n, n, k)
    target = np.zeros((n, n, 1, k), dtype=np.int64)
    target[np.arange(n), np.arange(n), :, 0] = n
    return counts_match(counts, target)


def projector(p: int, a: int) -> LogMatrix:
    """The rank-one projector block R_a: entry (i, j) = a(j - i) mod p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not 0 <= a < p:
        raise ValueError(f"residue a must be in [0, {p}), got {a}")
    idx = np.arange(p, dtype=np.int64)
    return LogMatrix(p, (a * (idx[None, :] - idx[:, None])) % p)


def verify_projector_algebra(p: int) -> bool:
    """Exactly verify the four projector identities for all residues a, b.

    R_a* = R_a, R_a^2 = p R_a, R_a R_b = 0 for a != b, and
    sum_a R_a^2 = p^2 I.  Each R_a is counted against all R_b stacked, one
    count_tensor call per a whose (i, b, j) counts give every product R_a R_b,
    and each product is compared with its target by counts_match in Z[zeta_p];
    p is capped at 13 because the check is cubic in p per pair.
    """
    if p > 13:
        raise ValueError(f"projector algebra check supports p <= 13, got {p}")
    blocks = [projector(p, a) for a in range(p)]  # raises ValueError unless p is an odd prime
    # row (b, j) holds column j of R_b negated, so count_tensor gives every R_a R_b,
    # as in product_counts
    stacked = np.concatenate([-rb.entries.T for rb in blocks])
    zero = np.zeros(p, dtype=np.int64)
    total = np.zeros((p, p, p), dtype=np.int64)
    for a, ra in enumerate(blocks):
        if ra.conj_transpose() != ra:
            return False
        if blocks[(p - a) % p].transpose() != ra:
            return False
        products = count_tensor(ra.entries, stacked, p).reshape(p, p, p, p).transpose(1, 0, 2, 3)
        sq = products[a]
        if not counts_match(sq, p * np.eye(p, dtype=np.int64)[ra.entries]):
            return False
        total += sq
        if not counts_match(np.delete(products, a, axis=0), zero):
            return False
    return counts_match(total, p * p)


def bush_circulant(p: int, a: int) -> BushMatrix:
    """The block-circulant B_a with block (i, j) = R_((j-i)a mod p).

    A symmetric Bush-type BH(p^2, p); construction re-verifies the Hadamard
    and block-sum conditions exactly.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not 1 <= a <= p - 1:
        raise ValueError(f"residue a must be nonzero mod {p}, got {a}")
    idx = np.arange(p, dtype=np.int64)
    block_labels = ((idx[None, :] - idx[:, None]) * a) % p  # (I, J) -> residue of R
    inner = (idx[None, :] - idx[:, None]) % p  # within-block (r, c) -> c - r
    entries = (block_labels[:, None, :, None] * inner[None, :, None, :]) % p
    return BushMatrix(LogMatrix(p, entries.reshape(p * p, p * p)), p)


def conjugate_self_bent_check(m: LogMatrix) -> bool:
    """True iff M M = sqrt(order) conj(M), exactly.

    When this holds every column of M is a conjugate self-dual M-bent vector.
    """
    s = isqrt(m.order)
    if s * s != m.order:
        raise ValueError(f"order {m.order} is not a perfect square")
    want = s * np.eye(m.phase, dtype=np.int64)[m.conjugate().entries]
    return counts_match(product_counts(m, m), want)


class BushModification(NamedTuple):
    """Result of scaling the diagonal blocks of a Bush-type matrix.

    The first three fields are the modified matrix and the two candidate
    vectors; the certificates record what check_bent actually proved about
    each candidate, so a failed prediction is visible rather than assumed
    away.
    """

    matrix: LogMatrix
    self_dual_vector: LogVector
    conjugate_self_dual_vector: LogVector
    self_dual_certificate: BentCertificate
    conjugate_self_dual_certificate: BentCertificate

    @property
    def falsified(self) -> tuple[str, ...]:
        """Predicted kinds the exact verification rejected, with witnesses.

        Empty when both candidates certify as predicted.  Each entry names
        the failed kind, its alpha, and the kind the certificate did prove.
        """
        out, k = [], self.matrix.phase
        if not self.self_dual_certificate.self_dual:
            out.append(
                f"self_dual candidate (alpha={(k + 1) // 2}) certified only as "
                f"{self.self_dual_certificate.kind}"
            )
        if not self.conjugate_self_dual_certificate.conjugate_self_dual:
            out.append(
                f"conjugate_self_dual candidate (alpha={(k - 1) // 2}) certified only as "
                f"{self.conjugate_self_dual_certificate.kind}"
            )
        return tuple(out)


def bush_modify(h: BushMatrix, u: Sequence[int]) -> BushModification:
    """Scale diagonal block i by zeta^u_i and certify the two block-constant
    candidate vectors that come with the construction.

    For odd phase k, the candidate with block i equal to zeta^(u_i alpha) is
    offered at alpha = (k+1)/2 as a self-dual bent vector and at
    alpha = (k-1)/2 as a conjugate self-dual bent vector.  Both candidates are
    always bent: block row i of H'x equals n zeta^(u_i + u_i alpha) 1, so
    every dual entry has modulus n = sqrt(order).  The conjugate claim holds
    for every u, since u_i (1 + 2 alpha) = u_i k = 0 mod k makes the ratio
    against the conjugate constant.  The self-dual claim is genuinely weaker:
    the ratio against the candidate itself is n zeta^(u_i), constant only
    when all u_i agree mod k.  Nothing is assumed; each candidate is run
    through check_bent and the resulting certificates ship with the matrix,
    with `falsified` listing any prediction the exact arithmetic rejected.

    The Hadamard property of the scaled matrix is re-verified and a failure
    raises BushStructureError (diagonal-block scaling provably preserves it,
    so this is a pure safety net).
    """
    k = h.phase
    n = h.block_size
    if k % 2 == 0:
        raise ValueError(f"diagonal scaling requires odd phase, got {k}")
    if len(u) != n:
        raise ValueError(f"need one residue per block row: {n}, got {len(u)}")
    block = np.arange(n * n) // n  # block row of each row, block column of each column
    shifts = np.asarray(u, dtype=np.int64)[block]
    modified = LogMatrix(k, h.base.entries + shifts[:, None] * (block[:, None] == block))
    if not verify_hadamard(modified):
        raise BushStructureError(f"diagonal scaling by {tuple(u)} broke the Hadamard property")
    candidates = []
    for alpha in ((k + 1) // 2, (k - 1) // 2):
        x = LogVector(k, [(ui * alpha) % k for ui in u for _ in range(n)])
        candidates.append((x, check_bent(modified, x)))
    (x_sd, cert_sd), (x_csd, cert_csd) = candidates
    return BushModification(modified, x_sd, x_csd, cert_sd, cert_csd)


def bush_quaternary_bents(h: BushMatrix) -> Iterator[LogVector]:
    """The 2^n block-constant vectors with entries in {zeta_4, -zeta_4}.

    For a Bush-type BH(n^2, 4) each such vector is self-dual bent for H and
    conjugate self-dual bent for -H; both are re-verified exactly and a
    failure raises RuntimeError.  Vectors stream in lexicographic order over
    the sign choices (log entry 1 before 3).
    """
    if h.phase != 4:
        raise ValueError(f"quaternary family needs phase 4, got {h.phase}")
    n = h.block_size
    neg = h.base.negate()
    for mask in range(2**n):
        logs = [1 if (mask >> (n - 1 - i)) & 1 == 0 else 3 for i in range(n)]
        x = LogVector(4, [li for li in logs for _ in range(n)])
        cert = check_bent(h.base, x)
        if not cert.self_dual:
            raise RuntimeError(f"quaternary vector {x.entries} not self-dual: kind={cert.kind}")
        neg_cert = check_bent(neg, x)
        if not neg_cert.conjugate_self_dual:
            raise RuntimeError(
                f"quaternary vector {x.entries} not conjugate self-dual for -H: kind={neg_cert.kind}"
            )
        yield x


def bush_real_order4() -> BushMatrix:
    """The smallest quaternary Bush-type instance: diagonal blocks J,
    off-diagonal blocks 2I - J, in phase-4 log form."""
    rows = [
        [0, 0, 0, 2],
        [0, 0, 2, 0],
        [0, 2, 0, 0],
        [2, 0, 0, 0],
    ]
    return BushMatrix(LogMatrix(4, rows), 2)
