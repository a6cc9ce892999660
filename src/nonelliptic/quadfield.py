"""Elements x + y*sqrt(d) of a real quadratic coefficient ring, and the
square roots of d mod ell that name their embeddings into F_ell.

Only split primes are supported: an odd prime ell with legendre(d, ell) = +1
admits two embeddings Z[sqrt(d)] -> F_ell, one per root. Inert primes would
need F_{ell**2} values and are rejected with a distinct error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import trial_factor


class NotSplitError(ValueError):
    """ell has no square root of d mod ell: no rational embedding exists."""


class RamifiedError(ValueError):
    """ell divides d: neither split nor inert."""


def ensure_squarefree(d: int) -> None:
    """Raise ValueError unless d > 1 is square-free."""
    if d < 2:
        raise ValueError(f"quadratic discriminant d={d} must be > 1")
    if any(e > 1 for _, e in trial_factor(d).factors):
        raise ValueError(f"d={d} is not square-free")


@dataclass(frozen=True)
class QuadInt:
    """x + y*sqrt(d), read in the field of the NewformData holding it: the
    form owns d and refuses y != 0 over Q."""

    x: int
    y: int = 0

    @property
    def is_rational(self) -> bool:
        return self.y == 0


def split_refusal(d: int, ell: int) -> RamifiedError | NotSplitError | None:
    """Why the odd prime ell does not split in Q(sqrt(d)): RamifiedError when
    ell divides d, NotSplitError when ell is inert (Euler's criterion), None
    when it splits. The error is returned, not raised."""
    if d % ell == 0:
        return RamifiedError(f"{ell} divides d={d}: ramified, neither split nor inert")
    if pow(d, (ell - 1) // 2, ell) != 1:
        return NotSplitError(f"no rational embedding: {ell} is inert in Q(sqrt({d}))")
    return None


def _sqrt_mod(a: int, ell: int) -> int:
    """A square root of a mod the odd prime ell, for a a nonzero square mod
    ell, by Tonelli-Shanks (Shanks 1973): O(log(ell)**2) multiplications."""
    a %= ell
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (ell - 1) // 2, ell) != ell - 1:
        z += 1
    # Invariants: r**2 == a*t, t**(2**(m-1)) == 1 and c has order 2**m.
    m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c = i, b * b % ell
        t, r = t * c % ell, r * b % ell
    return r


def embedding_choices(d: int, ell: int) -> tuple[int, int]:
    """Both square roots of d mod ell, smaller first: the roots that name the
    two embeddings Z[sqrt(d)] -> F_ell, x + y*sqrt(d) -> x + y*root. Nothing
    is re-proved: `repmodel.embeddings` asks only once `repmodel.refusal` has
    admitted ell (an odd prime that splits in Q(sqrt(d))), and the NewformData
    owning d proved it square-free when it was built."""
    r = _sqrt_mod(d, ell)
    return min(r, ell - r), max(r, ell - r)
