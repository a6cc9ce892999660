"""Elliptic-curve oracle over small F_p: point counts, the Frobenius trace
census and a falsifier pitting concrete curves over Q against a certified
representation.

Curves over Q and point counts use general Weierstrass coefficients
(a1, a2, a3, a4, a6), and point counts enumerate (x, y) directly. The trace
census runs over the short models y^2 = x^3 + A*x + B for p >= 5, in O(p^3):
for p not dividing 6 every curve over F_p is isomorphic to one of them
(Silverman, AEC III.1), and an isomorphism keeps #E(F_p). For p <= 3, where
there is no short model, it enumerates all p^5 coefficient tuples.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from .arith import Record, _euler_criterion, is_prime, require_odd_prime

if TYPE_CHECKING:  # an annotation only: the census needs no form
    from .repmodel import NewformData

# The census costs O(p^3); beyond this it is not a reasonable oracle.
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


def trace_set(p: int) -> set[int]:
    """Set of Frobenius traces over ALL nonsingular general-Weierstrass curves
    over F_p.

    For p >= 5 the census runs over every short model y^2 = x^3 + A*x + B
    with 4*A^3 + 27*B^2 != 0 mod p, at O(p^3) cost. Every curve over F_p is
    isomorphic to y^2 = x^3 - 27*c4*x - 54*c6 (Silverman, AEC III.1), and an
    isomorphism keeps the point count, so the pairs (A, B) give the same
    trace set as all p^5 tuples. A short model's trace is -sum_x chi(x^3 + A*x + B), with chi
    the Legendre symbol. p <= 3 has no short model: it enumerates its p^5
    tuples.
    """
    if p > ENUMERATION_BUDGET:
        raise ValueError(
            f"oracle scale exceeded: enumeration budget is p <= {ENUMERATION_BUDGET}"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= 3:
        return {
            p - count_affine(p, *a)
            for a in product(range(p), repeat=5)
            if weierstrass_discriminant(*a) % p
        }
    chi = [_euler_criterion(v, p) for v in range(p)]
    traces = set()
    for a in range(p):
        cubic = [(x * x * x + a * x) % p for x in range(p)]
        for b in range(p):
            if (4 * a**3 + 27 * b * b) % p:
                traces.add(-sum([chi[(c + b) % p] for c in cubic]))
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
