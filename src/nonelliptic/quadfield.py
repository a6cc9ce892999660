"""Elements x + y*sqrt(d) of a real quadratic coefficient ring, and the
square roots of d mod ell that name their embeddings into F_ell.

Only split primes are supported: an odd prime ell with legendre(d, ell) = +1
admits two embeddings Z[sqrt(d)] -> F_ell, one per root. Inert primes would
need F_{ell**2} values and are rejected with a distinct error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import require_odd_prime, trial_factor


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
    """x + y*sqrt(d); d=None marks a plain rational integer (y forced 0).

    d itself is checked by the NewformData holding the value, which owns the
    field and requires every a_p's d to equal its own."""

    x: int
    y: int = 0
    d: int | None = None

    def __post_init__(self) -> None:
        if self.d is None and self.y != 0:
            raise ValueError("rational field with y != 0")

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def square_if_rational(self) -> int:
        """The rational integer value of self**2, defined only when x*y = 0."""
        if self.x != 0 and self.y != 0:
            raise ValueError(
                "square is not rational; supply an embedding first"
            )
        return self.x * self.x + (self.d or 0) * self.y * self.y


def split_refusal(d: int, ell: int) -> RamifiedError | NotSplitError | None:
    """Why the odd prime ell does not split in Q(sqrt(d)): RamifiedError when
    ell divides d, NotSplitError when ell is inert (Euler's criterion), None
    when it splits. The error is returned, not raised."""
    if d % ell == 0:
        return RamifiedError(f"{ell} divides d={d}: ramified, neither split nor inert")
    if pow(d, (ell - 1) // 2, ell) != 1:
        return NotSplitError(f"no rational embedding: {ell} is inert in Q(sqrt({d}))")
    return None


def splits(d: int, ell: int) -> bool:
    """True iff the odd prime ell splits in Q(sqrt(d)), i.e. d is a nonzero
    square mod ell; RamifiedError when ell divides d."""
    ensure_squarefree(d)
    require_odd_prime(ell)
    error = split_refusal(d, ell)
    if isinstance(error, RamifiedError):
        raise error
    return error is None


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
    """Both square roots of d mod a split ell, smaller first: the roots that
    name the two embeddings Z[sqrt(d)] -> F_ell, x + y*sqrt(d) -> x + y*root."""
    ensure_squarefree(d)
    require_odd_prime(ell)
    if (error := split_refusal(d, ell)) is not None:
        raise error
    r = _sqrt_mod(d, ell)
    return min(r, ell - r), max(r, ell - r)
