"""A small labeled catalog of constructed matrices and certified vectors.

Each entry carries a matrix, optionally a companion vector, and the bent
kinds the vector certifies for that matrix.  The catalog spans the
constructions the library ships: the quadratic-form vectors on character
tables (c_1 c_{t+1} + ... for even m, c_1^2 + ... + c_m^2 for odd p and any
m), the block-circulant Bush family and its diagonal scalings, the
quaternary block-constant family, and the order-4 real circulant.  Tests
re-certify every claimed kind exactly, and the number-theoretic obstruction
predicates are screened against every (order, phase) pair that carries a
certified bent vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from butson.bent import index_digits, ksw_vector
from butson.bush import bush_circulant, bush_modify, bush_real_order4
from butson.matrices import LogMatrix, LogVector, character_table, circulant_from_row


class CatalogEntry(NamedTuple):
    label: str
    matrix: LogMatrix
    vector: LogVector | None
    kinds: tuple[str, ...]


def sample_bh48() -> LogMatrix:
    """The shipped BH(4, 8): the Fourier matrix of C_4 with entries read as
    eighth roots of unity."""
    return LogMatrix(8, [[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]])


KSW_PAIRS = ((2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (5, 2), (7, 2))
# (p, m) -> kinds of c_1^2 + ... + c_m^2 on F(C_p^m), indices as in ksw_vector; its
# transform is G^m zeta^(-4^-1 (a_1^2 + ... + a_m^2)), G the quadratic Gauss sum
SQUARE_SUM_KINDS = {(3, 1): ("bent", "conjugate_self_dual"), (3, 3): ("bent", "conjugate_self_dual"),
                    (5, 1): ("bent", "self_dual"), (7, 1): ("bent",)}


def catalog() -> tuple[CatalogEntry, ...]:
    entries = [CatalogEntry("BH(4,8) sample", sample_bh48(), None, ())]
    for k, m in KSW_PAIRS:
        entries.append(
            CatalogEntry(
                f"quadratic-form vector on F(C_{k}^{m})",
                character_table([k] * m),
                ksw_vector(k, m),
                ("bent", "conjugate_self_dual"),
            )
        )
    for (p, m), kinds in SQUARE_SUM_KINDS.items():
        c = index_digits(np.arange(p**m), p, m)
        entries.append(CatalogEntry(f"sum-of-squares vector on F(C_{p}^{m})", character_table([p] * m),
                                    LogVector(p, (c * c).sum(axis=0) % p), kinds))
    for p in (3, 5, 7):
        b = bush_circulant(p, 1)
        partner = bush_circulant(p, (p - 2) % p)
        entries.append(
            CatalogEntry(
                f"Bush block circulant p={p}, column witness",
                b,
                partner.column(0),
                ("bent", "conjugate_self_dual"),
            )
        )
    scaled = bush_modify(bush_circulant(3, 1), (1, 2, 0))
    entries.append(
        CatalogEntry(
            "diagonally scaled Bush matrix p=3, u=(1,2,0)",
            scaled.matrix,
            scaled.conjugate_self_dual_vector,
            ("bent", "conjugate_self_dual"),
        )
    )
    entries.append(
        CatalogEntry(
            "quaternary Bush block-constant vector",
            bush_real_order4(),
            LogVector(4, (1, 1, 1, 1)),
            ("bent", "self_dual"),
        )
    )
    entries.append(
        CatalogEntry(
            "order-4 real circulant",
            circulant_from_row(LogVector(4, (0, 0, 0, 2))),
            None,
            (),
        )
    )
    return tuple(entries)


def bent_orders_and_phases() -> tuple[tuple[int, int], ...]:
    """Distinct (order, phase) pairs for which the catalog certifies a bent
    vector, in catalog order."""
    pairs = []
    for entry in catalog():
        if "bent" in entry.kinds:
            pair = (entry.matrix.order, entry.matrix.phase)
            if pair not in pairs:
                pairs.append(pair)
    return tuple(pairs)
