"""Elliptic-curve oracle over small F_p: point counts, the Frobenius trace
census and a falsifier pitting concrete curves over Q against a certified
representation.

General Weierstrass coefficients (a1, a2, a3, a4, a6) are used throughout so
p = 2 and p = 3 need no special casing. Point counts enumerate (x, y)
directly. The trace census is exhaustive over the invariants (b2, b4, b6)
(Silverman, AEC III.1): for odd p every curve has trace
-sum_x chi(4x^3 + b2*x^2 + 2*b4*x + b6) and a discriminant that is a
polynomial in b2, b4, b6, so the p^3 triples give the same trace set as the
p^5 coefficient tuples.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING

from .arith import Record, is_prime, legendre, require_odd_prime

if TYPE_CHECKING:  # an annotation only: the census needs no form
    from .repmodel import NewformData

# The census costs O(p^4); beyond this it is not a reasonable oracle.
ENUMERATION_BUDGET = 50
# A point count costs O(p^2): all primes below 500 take about 1 s together.
POINT_COUNT_BUDGET = 500


def weierstrass_discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Exact discriminant of y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class CurveQ(Record):
    """A nonsingular general-Weierstrass curve over Q with integer coefficients."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int) -> None:
        if weierstrass_discriminant(a1, a2, a3, a4, a6) == 0:
            raise ValueError("singular curve: discriminant is zero")
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6

    @property
    def disc(self) -> int:
        return weierstrass_discriminant(self.a1, self.a2, self.a3, self.a4, self.a6)


def count_affine(p: int, a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Number of affine solutions of y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6
    over F_p, by direct (x, y) enumeration."""
    n = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        c = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + c * y) % p == rhs:
                n += 1
    return n


def trace_of_frobenius(curve: CurveQ, p: int) -> int:
    """p + 1 - #E(F_p) for the reduction mod p of this model verbatim (no
    minimal model search), counting points by enumeration.

    Raises ValueError unless p is a prime below POINT_COUNT_BUDGET and the
    model has good reduction at p.
    """
    if p >= POINT_COUNT_BUDGET:
        raise ValueError(
            f"point count budget exceeded: p = {p} is not below {POINT_COUNT_BUDGET}"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if curve.disc % p == 0:
        raise ValueError(f"singular curve over F_{p}")
    a = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    return p - count_affine(p, *(c % p for c in a))


def _disc_times_4(b2: int, b4: int, b6: int) -> int:
    """4 * discriminant in terms of b2, b4, b6, using 4*b8 = b2*b6 - b4^2.

    Exact over Z: it equals 4 * weierstrass_discriminant(a) whenever the b's
    come from the tuple a.
    """
    return b2 * b2 * b4 * b4 - b2**3 * b6 - 32 * b4**3 - 108 * b6 * b6 + 36 * b2 * b4 * b6


def trace_set(p: int) -> set[int]:
    """Set of Frobenius traces over ALL nonsingular general-Weierstrass curves
    over F_p.

    For odd p the census runs over every triple (b2, b4, b6) in F_p^3
    (Silverman, AEC III.1). Completing the square,
    4*(y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6)
    = (2y + a1*x + a3)^2 - (4x^3 + b2*x^2 + 2*b4*x + b6), so a curve's trace
    is -sum_x chi(4x^3 + b2*x^2 + 2*b4*x + b6) with chi the Legendre symbol,
    and the curve is singular exactly when 4*disc(b2, b4, b6) = 0 mod p.
    Every triple comes from a1 = a3 = 0, so the triples give the same trace
    set as all p^5 tuples, at O(p^4) cost. p = 2 enumerates its 32 tuples.
    """
    if p > ENUMERATION_BUDGET:
        raise ValueError(
            f"oracle scale exceeded: enumeration budget is p <= {ENUMERATION_BUDGET}"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return {
            2 - count_affine(2, *a)
            for a in product(range(2), repeat=5)
            if weierstrass_discriminant(*a) % 2
        }
    chi = [legendre(v, p) for v in range(p)]
    # shifted[b6][v] = chi(v + b6), so adding b6 costs no reduction mod p
    shifted = [chi[b6:] + chi[:b6] for b6 in range(p)]
    traces = set()
    for b2, b4 in product(range(p), repeat=2):
        # base(row) picks row[4x^3 + b2*x^2 + 2*b4*x mod p] for every x
        base = itemgetter(*[(4 * x**3 + b2 * x * x + 2 * b4 * x) % p for x in range(p)])
        for b6 in range(p):
            if _disc_times_4(b2, b4, b6) % p:
                traces.add(-sum(base(shifted[b6])))
    return traces


class FalsificationWitness(Record):
    """A prime where a curve's Frobenius trace contradicts the representation."""

    __slots__ = ("p", "curve_trace", "rep_trace", "ell")

    def __init__(self, p: int, curve_trace: int, rep_trace: int, ell: int) -> None:
        self.p, self.curve_trace, self.rep_trace, self.ell = p, curve_trace, rep_trace, ell


class FalsifyResult(Record):
    __slots__ = ("witness", "compared")

    def __init__(self, witness: FalsificationWitness | None, compared: tuple[int, ...]) -> None:
        self.witness = witness
        self.compared = compared

    @property
    def found(self) -> bool:
        return self.witness is not None

    def describe(self) -> str:
        if self.witness is None:
            return (
                "no witness found (not a proof of isomorphism; compared p in "
                f"{list(self.compared)})"
            )
        w = self.witness
        return (
            f"witness at p={w.p}: curve trace {w.curve_trace} != "
            f"{w.rep_trace} (mod {w.ell})"
        )


def falsify_curve(curve: CurveQ, form: NewformData, ell: int,
                  root: int | None = None) -> FalsifyResult:
    """Search for a good-reduction prime where the traces of curve and of the
    determinant-chi twist of the mod-ell reduction of `form` disagree mod ell.

    The reduction is the first `repmodel._reductions` gives: under `root`,
    by default under the smaller square root of d mod ell, as certify's
    first run. Raises ValueError unless ell is an odd prime, then the rule's
    refusal, then for an even determinant exponent, which no twist takes to
    chi. Only the stored primes below POINT_COUNT_BUDGET and away from the
    model's discriminant are compared (no minimal models: skipping a prime is
    conservative, a witness is always sound). First mismatch in increasing p.
    """
    from .repmodel import _reductions  # the census needs no reduction

    require_odd_prime(ell)
    m, t, reductions = _reductions(form, ell, root)
    if t is None:
        raise ValueError(f"no determinant-chi twist exists: exponent {m} is even")
    traces = reductions[0][1]
    compared = []
    witness = None
    for p in sorted(traces):
        if p >= POINT_COUNT_BUDGET or curve.disc % p == 0:
            continue
        compared.append(p)
        curve_trace = trace_of_frobenius(curve, p)
        rep_trace = traces[p] * pow(p, t, ell) % ell
        if curve_trace % ell != rep_trace:
            witness = FalsificationWitness(p, curve_trace, rep_trace, ell)
            break
    if not compared:
        raise ValueError(
            "insufficient overlap: none of the representation's stored primes "
            f"is below {POINT_COUNT_BUDGET} with good reduction for the curve"
        )
    return FalsifyResult(witness, tuple(compared))
