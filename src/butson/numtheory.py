"""Integer-level number theory behind the bent-vector obstructions.

p-parts, totients, multiplicative orders, self-conjugacy of a prime modulo k
(some power of p is -1 mod k/k_p), splitting parameters (f, g) of a rational
prime in the k-th cyclotomic field, and the arithmetic non-existence tests
derived from them: square p-part conditions for bent vectors and the order
test for real circulant Hadamard matrices.

Everything is exact integer arithmetic.  factorize is the one trial division,
ample for the intended input range (below 2**32); larger inputs are rejected
rather than silently slow.  Primality, divisors, the totient and the Moebius
function are read off its result, and self-conjugacy off multiplicative_order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

TRIAL_DIVISION_BOUND = 2**32
# the bent-vector kinds bent.search_bent selects; kept in this numpy-free
# module so that the CLI parser can offer them without loading numpy
_MODES = ("any", "self_dual", "conjugate_self_dual")


def is_prime(n: int) -> bool:
    """Deterministic primality test through factorize (inputs < 2**32)."""
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    if n >= TRIAL_DIVISION_BOUND:
        raise ValueError(f"factorization input {n} exceeds trial-division bound 2**32")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's totient."""
    t = 1
    for p, e in factorize(n).items():
        t *= p ** (e - 1) * (p - 1)
    return t


def moebius(n: int) -> int:
    """The Moebius function of n >= 1: 0 unless n is squarefree, else (-1)^(number of primes)."""
    exponents = factorize(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def multiplicative_order(a: int, m: int) -> int:
    """Least t >= 1 with a^t = 1 mod m; order in the trivial group (m=1) is 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    t = totient(m)  # a multiple of the order: divide out each prime while a^(t/p) stays 1
    for p in factorize(t):
        while t % p == 0 and pow(a, t // p, m) == 1:
            t //= p
    return t


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n (1 when p does not divide n)."""
    _require_prime(p)
    if n == 0:
        raise ValueError("p-part of 0 is undefined")
    n = abs(n)
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_self_conjugate_prime(p: int, k: int) -> bool:
    """True iff some power of p is -1 modulo m = k/k_p.

    k_p is the p-part of k.  For modulus 1 or 2 the condition holds vacuously
    (-1 and 1 coincide there).  Otherwise the cyclic group <p> mod m, of order
    f = multiplicative_order(p, m), has at most one element of order 2, namely
    p^(f/2) when f is even; -1 lies in <p> exactly when that element is -1.
    """
    _require_prime(p)
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    m = k // p_part(k, p)
    if m <= 2:
        return True
    f = multiplicative_order(p, m)
    return f % 2 == 0 and pow(p, f // 2, m) == m - 1


def is_self_conjugate(n: int, k: int) -> bool:
    """True iff every prime divisor of n is self-conjugate modulo k (n=1: vacuous)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return all(is_self_conjugate_prime(p, k) for p in factorize(n))


class SplittingProfile(NamedTuple):
    """How the prime p splits in the k-th cyclotomic integers.

    p factors into g distinct prime ideals, each repeated with multiplicity
    ramification_exponent = phi(k_p); f is the common residue degree, the
    least t >= 1 with p^t = 1 mod k/k_p, and f*g = phi(k/k_p).
    """

    p: int
    k: int
    f: int
    g: int
    ramification_exponent: int


def splitting_profile(p: int, k: int) -> SplittingProfile:
    """Splitting parameters (f, g, ramification exponent) of p modulo k."""
    _require_prime(p)
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    kp = p_part(k, p)
    m = k // kp
    f = multiplicative_order(p, m)
    g = totient(m) // f
    return SplittingProfile(p=p, k=k, f=f, g=g, ramification_exponent=totient(kp))


def entry_root_obstruction(n: int, k: int) -> bool:
    """Necessary shape of n for phase-3/4 bent vectors with a base-phase dual entry.

    Returns True iff n = 9*m**2 (k=3) or n = 4*m**2 (k=4).  False means no
    bent vector can have a transform entry of the form sqrt(n) * zeta_k^t.
    """
    if k not in (3, 4):
        raise ValueError(f"rule is specific to phases 3 and 4, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    base = 9 if k == 3 else 4
    if n % base != 0:
        return False
    return math.isqrt(n // base) ** 2 == n // base


class ObstructionVerdict(NamedTuple):
    rule: str
    applicable: bool
    violated: bool
    witness: str


class ObstructionReport(NamedTuple):
    """Outcome of every arithmetic rule for bent vectors at (n, k)."""

    n: int
    k: int
    verdicts: tuple[ObstructionVerdict, ...]

    @property
    def any_violated(self) -> bool:
        """True iff a rule that proves no bent vector exists at (n, k) is violated.
        entry-root-form restricts the form of dual entries only, so it does not count."""
        return any(v.violated and v.rule != "entry-root-form" for v in self.verdicts)


def bent_obstructions(n: int, k: int) -> ObstructionReport:
    """Run the arithmetic non-existence rules for a bent vector at order n, phase k.

    square-p-part: for each prime p | n coprime to k and self-conjugate mod k,
    the p-part of n must be an even power of p.  square-2-part: the same
    conclusion for p = 2 when k = 2 mod 4 (2 is unramified there even though
    it divides the phase).  entry-root-form (phases 3 and 4 only): n must be
    9*m^2 resp. 4*m^2; this one binds only bent vectors whose transform has an
    entry sqrt(n) * zeta_k^t, so a violation rules out that shape alone and
    does not count in any_violated.
    """
    if n < 2 or k < 2:
        raise ValueError(f"need n, k >= 2, got n={n}, k={k}")
    verdicts: list[ObstructionVerdict] = []
    factors = factorize(n)
    for p, e in sorted(factors.items()):
        kp = p_part(k, p)
        self_conj = is_self_conjugate_prime(p, k)
        applicable = kp == 1 and self_conj
        violated = applicable and e % 2 == 1
        if applicable:
            parity = "odd" if e % 2 else "even"
            witness = f"p={p}: n_p={p}^{e} ({parity} exponent); {p} self-conjugate mod {k}"
        elif kp != 1:
            witness = f"p={p}: not applicable, p divides the phase (k_p={kp})"
        else:
            witness = f"p={p}: not applicable, {p} not self-conjugate mod {k}"
        verdicts.append(ObstructionVerdict("square-p-part", applicable, violated, witness))
    if k % 4 == 2:
        e2 = factors.get(2, 0)
        self_conj = is_self_conjugate_prime(2, k)
        violated = self_conj and e2 % 2 == 1
        parity = "odd" if e2 % 2 else "even"
        witness = (
            f"phase {k} = 2 mod 4: n_2=2^{e2} ({parity} exponent); "
            f"2 {'is' if self_conj else 'is not'} self-conjugate mod {k}"
        )
        verdicts.append(ObstructionVerdict("square-2-part", self_conj, violated, witness))
    if k in (3, 4):
        holds = entry_root_obstruction(n, k)
        base = 9 if k == 3 else 4
        witness = (
            f"n={n} {'is' if holds else 'is not'} of the form {base}*m^2; "
            f"binds bent vectors with a transform entry sqrt(n)*zeta_{k}^t"
        )
        verdicts.append(ObstructionVerdict("entry-root-form", True, not holds, witness))
    return ObstructionReport(n=n, k=k, verdicts=tuple(verdicts))


def circulant_real_obstruction(n: int) -> bool:
    """True iff n = 4*p**2 for a prime p = 3 mod 8 (no real circulant Hadamard then)."""
    if n < 4:
        raise ValueError(f"order must be at least 4, got {n}")
    if n % 4 != 0:
        return False
    p = math.isqrt(n // 4)
    return p * p == n // 4 and p % 8 == 3 and is_prime(p)


def dual_entry_ambient_phase(n: int, k: int) -> int | None:
    """Phase whose roots of unity must contain all dual entries, when n is
    self-conjugate mod k: 2k for even k, 4k for odd k.  None otherwise.

    A pure implication: it answers for (n, k) pairs whether or not any
    Hadamard matrix or bent vector exists there.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if not is_self_conjugate(n, k):
        return None
    return 2 * k if k % 2 == 0 else 4 * k
