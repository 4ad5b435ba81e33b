"""Seeded input instances for the benchmark, built without importing butson.

Every matrix is an exponent table L (H[i, j] = zeta_k ** L[i, j]) made here
with numpy from its defining formula, so the expected answers never depend on
the constructors under test.  The seed picks a monomial transform (row and
column permutations plus root-of-unity shifts) for each matrix whose checked
answer is invariant under it: Hadamard verdicts, covering radii and full
`any`-mode hit counts.  Bush matrices, KSW certificate instances, the `order`
instance and the dual-mode and budgeted searches are written exactly as
defined.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np

# The shipped BH(4, 8): the Fourier matrix of C_4 read as eighth roots.
BH48 = np.array([[0, 0, 0, 0], [0, 2, 4, 6], [0, 4, 0, 4], [0, 6, 4, 2]], dtype=np.int64)


def digits(k: int, m: int) -> np.ndarray:
    """(k^m, m) base-k digits of 0..k^m-1, most significant first."""
    idx = np.arange(k**m, dtype=np.int64)
    return np.stack([(idx // k ** (m - 1 - t)) % k for t in range(m)], axis=1)


def char_table(k: int, m: int) -> np.ndarray:
    """F(C_k^m): entry (i, j) = <digits(i), digits(j)> mod k."""
    d = digits(k, m)
    return (d @ d.T) % k


def bush(p: int, a: int) -> np.ndarray:
    """Block-circulant B_a: block (I, J) is R_((J-I)a), R_b[r, c] = b(c - r)."""
    idx = np.arange(p, dtype=np.int64)
    labels = ((idx[None, :] - idx[:, None]) * a) % p
    inner = (idx[None, :] - idx[:, None]) % p
    return ((labels[:, None, :, None] * inner[None, :, None, :]) % p).reshape(p * p, p * p)


def ksw(k: int, m: int) -> np.ndarray:
    """Kumar-Scholtz-Welch vector c_1 c_{t+1} + ... + c_t c_{2t} mod k."""
    d = digits(k, m)
    t = m // 2
    return (d[:, :t] * d[:, t:]).sum(axis=1) % k


class Monomial(NamedTuple):
    row_perm: np.ndarray
    row_shift: np.ndarray
    col_perm: np.ndarray
    col_shift: np.ndarray

    def matrix(self, a: np.ndarray, k: int) -> np.ndarray:
        b = a[self.row_perm][:, self.col_perm]
        return (b + self.row_shift[:, None] + self.col_shift[None, :]) % k

    def vector(self, x: np.ndarray, k: int) -> np.ndarray:
        """The image of a bent vector: bent for matrix(a) iff x is for a."""
        return (x[self.col_perm] - self.col_shift) % k


def monomial(rng: random.Random, n: int, k: int) -> Monomial:
    def perm():
        p = list(range(n))
        rng.shuffle(p)
        return np.array(p, dtype=np.int64)

    def shifts():
        return np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)

    return Monomial(perm(), shifts(), perm(), shifts())


class Inputs:
    """Writes instance files into one directory and keeps them in memory."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.matrices: dict[str, tuple[np.ndarray, int]] = {}
        self.params: dict[str, object] = {}
        directory.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def matrix(self, name: str, a: np.ndarray, k: int) -> None:
        self.matrices[name] = (a, k)
        n = a.shape[0]
        if name.endswith(".json"):
            text = json.dumps({"n": n, "k": k, "rows": a.tolist()})
        else:
            text = f"BH {n} {k}\n" + "\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n"
        Path(self.path(name)).write_text(text)

    def vector(self, name: str, x: np.ndarray, k: int) -> None:
        Path(self.path(name)).write_text(f"VEC {len(x)} {k}\n" + " ".join(map(str, x.tolist())) + "\n")


def _verify_ladder(inp: Inputs, rng: random.Random) -> None:
    for name, k, m in (("f34t.bh", 3, 4), ("f35t.bh", 3, 5), ("f28t.json", 2, 8)):
        a = char_table(k, m)
        inp.matrix(name, monomial(rng, a.shape[0], k).matrix(a, k), k)
    a = inp.matrices["f35t.bh"][0].copy()
    i, j, delta = rng.randrange(243), rng.randrange(243), rng.randrange(1, 3)
    a[i, j] = (a[i, j] + delta) % 3
    inp.matrix("f35m.bh", a, 3)
    inp.params["mutation"] = [i, j, delta]
    inp.matrix("f34.bh", char_table(3, 4), 3)
    inp.vector("ksw34.vec", ksw(3, 4), 3)
    inp.matrix("f28.json", char_table(2, 8), 2)
    inp.vector("ksw28.vec", ksw(2, 8), 2)
    inp.matrix("b1_11.bh", bush(11, 1), 11)
    inp.matrix("b2_11.bh", bush(11, 2), 11)
    inp.matrix("b1_5.bh", bush(5, 1), 5)


def _bent_search(inp: Inputs, rng: random.Random) -> None:
    inp.matrix("f32.bh", char_table(3, 2), 3)
    inp.matrix("f32t.bh", monomial(rng, 9, 3).matrix(char_table(3, 2), 3), 3)
    inp.matrix("b1_3.bh", bush(3, 1), 3)
    inp.matrix("f24t.bh", monomial(rng, 16, 2).matrix(char_table(2, 4), 2), 2)
    inp.matrix("f42.bh", char_table(4, 2), 4)


def _covering_radius(inp: Inputs, rng: random.Random) -> None:
    t = monomial(rng, 9, 3)
    inp.matrix("f32t.bh", t.matrix(char_table(3, 2), 3), 3)
    inp.vector("ksw32t.vec", t.vector(ksw(3, 2), 3), 3)
    for name, a, k in (
        ("f24t.bh", char_table(2, 4), 2),
        ("f7t.bh", char_table(7, 1), 7),
        ("bh48t.bh", BH48, 8),
        ("f34t.bh", char_table(3, 4), 3),
    ):
        inp.matrix(name, monomial(rng, a.shape[0], k).matrix(a, k), k)
    inp.params["sample_seed"] = rng.randrange(2**31)


GENERATORS = {
    "verify-ladder": _verify_ladder,
    "bent-search": _bent_search,
    "covering-radius": _covering_radius,
}


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's instances; the same seed gives the same files."""
    inp = Inputs(directory)
    GENERATORS[workload](inp, random.Random(f"{workload}/{seed}"))
    return inp
