"""Exact integer and modular arithmetic primitives.

Everything here is deterministic and exact: primality is decided by a
Miller-Rabin test with a proven base set (correct for every n below
MILLER_RABIN_LIMIT, an error above it), factorization by division by the
first 13 primes and then Pollard's rho, each factor proved prime by that
test, and all values are exact Python integers.

`Record` is the base of the package's records, here because every module
that defines one imports `arith`.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, count

# Pollard's rho takes about n**(1/4) steps: below 2**64 that is at most a
# fraction of a second, so refuse a larger n before the first.
TRIAL_DIVISION_LIMIT = 2**64


# The first 13 primes: trial divisors, then Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# (psi_t, t): psi_t is the least strong pseudoprime to all of the first t
# prime bases, so those t bases decide every n < psi_t (Jaeschke, Math. Comp.
# 61 (1993) for t <= 8; Jiang & Deng, Math. Comp. 83 (2014) for t = 9..11;
# Sorenson & Webster, Math. Comp. 86 (2017) for t = 12, 13).
_MILLER_RABIN_BASES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
MILLER_RABIN_LIMIT = _MILLER_RABIN_BASES[-1][0]


def _strong_probable_prime(n: int, base: int, d: int, s: int) -> bool:
    """n - 1 = d * 2**s with d odd: does n pass the strong test to `base`?"""
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality: one gcd with the product of the first 13
    primes, then Miller-Rabin with the smallest proven base set for n.

    Raises TypeError unless n is exactly an int, and ValueError for
    n >= MILLER_RABIN_LIMIT with no prime factor <= 41: no base set is
    proven there.
    """
    if type(n) is not int:
        raise TypeError(f"is_prime needs an int, not {type(n).__name__}")
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n <= _SMALL_PRIMES[-1] and n in _SMALL_PRIMES
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} exceeds the proven Miller-Rabin range (< {MILLER_RABIN_LIMIT})"
        )
    # n - 1 = d * 2**s with d odd: s is the index of its lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    # plain loops: next() and all() over generators cost a fifth of a call
    for bound, t in _MILLER_RABIN_BASES:
        if n < bound:  # met: n < MILLER_RABIN_LIMIT, the last bound
            break
    for a in _SMALL_PRIMES[:t]:
        if not _strong_probable_prime(n, a, d, s):
            return False
    return True


def require_odd_prime(ell: int) -> None:
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"modulus {ell} is not an odd prime")


# A sieve of [lo, hi] costs about a unit per number of its width and of
# isqrt(hi); is_prime costs about _PROOF_UNITS units a candidate. Over widths
# 10^2..10^6 and hi 10^5..10^12 (Python 3.11; BENCH_sieve.json) the two tie at
# 2.5-194 units an odd candidate and 14-1244 an ell of a list of primes; at 64
# the rule's pick costs at most 5.3 times the other side there, the least.
_PROOF_UNITS = 64


def _sieve_pays(lo: int, hi: int, n: int) -> bool:
    """The sieve-or-prove rule: does one sieve of [lo, hi] beat is_prime on n candidates?"""
    return hi - lo + math.isqrt(max(hi, 0)) < _PROOF_UNITS * n


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi. Where `_sieve_pays` for its odd
    candidates, the window is sieved over the odd numbers of [lo, hi] alone,
    one byte each, with the odd base primes up to isqrt(hi) sieved in
    segments as wide as the window (_PROOF_UNITS at least), so memory grows
    with the width, not with hi; elsewhere is_prime proves each odd candidate.
    Raises ValueError for hi >= MILLER_RABIN_LIMIT, as is_prime does, and
    for a sieve wider than the index size."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    if hi >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{hi} exceeds the proven Miller-Rabin range (< {MILLER_RABIN_LIMIT})")
    # index i stands for the odd number lo1 + 2i
    lo1 = lo | 1
    size = (hi - lo1) // 2 + 1
    if not _sieve_pays(lo, hi, size):
        odd = [n for n in range(lo1, hi + 1, 2) if is_prime(n)]
        return [2, *odd] if lo == 2 else odd
    if hi - lo >= sys.maxsize:
        raise ValueError(f"[{lo}, {hi}] is too wide to sieve: its width passes the "
                         f"index size {sys.maxsize} (narrow the range)")
    # From bytes: a failed bytearray repeat makes CPython print a stray
    # SystemError to stderr next to the MemoryError.
    sieve = bytearray(b"\x01" * size)
    root = math.isqrt(hi)
    step = max(hi - lo + 1, _PROOF_UNITS)  # [4093, 4093] in one-wide pieces: 0.35 ms
    for base in range(2, root + 1, step):
        for p in primes_in_range(base, min(base + step - 1, root)):
            if p == 2:  # no odd multiple
                continue
            # the first odd multiple of p at or past both lo1 and p*p: the
            # index i with lo1 + 2i = 0 (mod p) is -(lo1 + p) / 2 mod p
            start = max((p * p - lo1) // 2, (-(lo1 + p) // 2) % p)
            sieve[start::p] = b"\x00" * ((size - 1 - start) // p + 1)
    odd = list(compress(range(lo1, hi + 1, 2), sieve))
    return [2, *odd] if lo == 2 else odd


class Record:
    """A record: its fields are its __slots__, set once by its __init__ and
    never changed. Equality, hashing, repr and to_dict read them in order,
    so a field added to __slots__ is in all four. A plain class, not a
    dataclass: importing dataclasses loads inspect and ast (6-8 ms a
    command), each class generates its methods with exec (about 1 ms), and
    a frozen instance costs about four times a slotted one."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def to_dict(self) -> dict:
        """Its fields by name, shallow: a field that is a record stays one."""
        return {name: getattr(self, name) for name in self.__slots__}


class Factorization(Record):
    """A complete prime factorization: n == prod(q**e for q, e in factors)."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        prod = 1
        prev = 1
        for q, e in factors:
            if not is_prime(q):
                raise ValueError(f"factor {q} is not prime")
            if q <= prev:
                raise ValueError("factors must be strictly increasing")
            # exactly int: 9.0 == 9 would pass every test below
            if type(e) is not int or e < 1:
                raise ValueError(f"exponent {e!r} must be a positive int")
            # q**e >= 2**(e*(bits(q)-1)) > n already: refuse before computing it
            if e * (q.bit_length() - 1) >= n.bit_length():
                raise ValueError(f"{q}^{e} exceeds {n}")
            prev = q
            prod *= q**e
        if prod != n:
            raise ValueError(f"factors reconstruct {prod}, not {n}")
        self.n = n
        self.factors = factors


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a / ell) in {-1, 0, +1}, by Euler's criterion."""
    require_odd_prime(ell)
    return _euler_criterion(a, ell)


def _euler_criterion(a: int, ell: int) -> int:
    """legendre(a, ell) for an ell its caller has proved an odd prime."""
    a = a % ell
    if a == 0:
        return 0
    r = pow(a, (ell - 1) // 2, ell)
    return 1 if r == 1 else -1


def trial_factor(n: int) -> Factorization:
    """Complete factorization of n >= 1 (1 is the empty product): division by
    the first 13 primes, then each cofactor is either proved prime by is_prime
    or split by Pollard's rho. Raises ValueError for n < 1 and past
    TRIAL_DIVISION_LIMIT = 2**64, where rho could take minutes.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > TRIAL_DIVISION_LIMIT:
        raise ValueError(f"{n} exceeds the trial-division guard 2**64")
    exponents: dict[int, int] = {}
    rest = n
    for q in _SMALL_PRIMES:
        while rest % q == 0:
            rest //= q
            exponents[q] = exponents.get(q, 0) + 1
    # rest has no prime factor below 43: each cofactor is a prime or rho's input
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += (d, m // d)
    return Factorization(n, tuple(sorted(exponents.items())))


def _primes(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial_factor."""
    return {q for q, _ in trial_factor(n).factors}


def _rho(n: int) -> int:
    """A proper divisor of the composite n, which has no factor below 43:
    Pollard's rho on x**2 + c with Floyd's cycle finding (Pollard, BIT 15
    (1975)). When the cycle closes mod n itself, the next c is tried."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
