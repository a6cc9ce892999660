"""Newform eigenvalue systems, the one rule for which ell and embeddings they
admit (only split ell: an embedding of Q(sqrt(d)) into F_ell is named by a
square root of d mod ell), and the residual mod-ell representations they
induce.

A residual representation is named by (form, ell, root) and held as data,
not as an object: `_reductions` gives the exponent m of the cyclotomic
character giving its determinant, the twist to determinant chi and its
reduced traces of Frobenius at the stored good primes. The form's level is
the prime-to-ell (Serre) conductor. The eigenvalue map is sparse; every
downstream operation must tolerate missing primes and say so instead of
inventing values.
"""

from __future__ import annotations

import warnings

from .arith import Record, is_prime, trial_factor


class BadReductionError(ValueError):
    """ell divides the level: no residual representation from this recipe."""


class RamifiedError(ValueError):
    """ell divides d: neither split nor inert."""


class NotSplitError(ValueError):
    """ell is inert in Q(sqrt(d)): no rational embedding exists."""


class InsufficientDataError(ValueError):
    """The sparse eigenvalue map has no entry for the requested prime."""


class FormDataError(ValueError):
    """A NewformData field breaks its constraint; `field` is its path:
    ("level",), ("weight",), ("field", "d") or ("eigenvalues", p)."""

    def __init__(self, field: tuple, message: str) -> None:
        super().__init__(message)
        self.field = field


class RamanujanBoundWarning(UserWarning):
    """An eigenvalue violates |a_p| <= 2 p^((k-1)/2): almost surely a typo."""


class QuadInt(Record):
    """x + y*sqrt(d), read in the field of the NewformData holding it: the
    form owns d and refuses y != 0 over Q."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int = 0) -> None:
        self.x = x
        self.y = y

    @property
    def is_rational(self) -> bool:
        return self.y == 0


class NewformData(Record):
    """Level, weight, coefficient field and a sparse prime -> a_p map.

    Only good primes (p not dividing the level) may carry eigenvalues.
    """

    __slots__ = ("form_id", "level", "weight", "d", "eigenvalues",
                 "claimed_conductor_equality", "notes")

    def __init__(self, form_id: str, level: int, weight: int,
                 d: int | None,  # None: rational coefficient field; else Q(sqrt(d))
                 eigenvalues: dict[int, QuadInt], claimed_conductor_equality: bool = False,
                 notes: str = "") -> None:
        self.form_id = form_id
        self.level = level
        self.weight = weight
        self.d = d
        self.eigenvalues = eigenvalues
        self.claimed_conductor_equality = claimed_conductor_equality
        self.notes = notes
        # The form owns its field: a QuadInt value is read in it.
        if self.d is not None:
            where = ("field", "d")
            if self.d < 2:
                raise FormDataError(where, f"quadratic discriminant d={self.d} must be > 1")
            try:
                square_free = all(e == 1 for _, e in trial_factor(self.d).factors)
            except ValueError as exc:  # d past trial_factor's guard
                raise FormDataError(where, str(exc)) from None
            if not square_free:
                raise FormDataError(where, f"d={self.d} is not square-free")
        if self.level < 1:
            raise FormDataError(("level",), f"level {self.level} must be positive")
        if self.weight < 2:
            raise FormDataError(("weight",), f"weight {self.weight} must be >= 2")
        for p, a in self.eigenvalues.items():
            where = ("eigenvalues", p)
            try:
                prime = is_prime(p)
            except ValueError as exc:  # p beyond the proven Miller-Rabin range
                raise FormDataError(where, str(exc)) from None
            if not prime:
                raise FormDataError(where, f"eigenvalue key {p} is not prime")
            if self.level % p == 0:
                raise FormDataError(where, f"eigenvalue key {p} divides the level {self.level}"
                                           ": a prime dividing the level carries no eigenvalue")
            if self.d is None and a.y != 0:
                raise FormDataError(where, "rational field with y != 0")
            self._ramanujan_check(p, a)

    def _ramanujan_check(self, p: int, a: QuadInt) -> None:
        # Only testable when a_p**2 is rational; a violation is a data-entry
        # smell, not an error (no downstream logic relies on the bound).
        if a.x != 0 and a.y != 0:
            return
        square = a.x * a.x + (self.d or 0) * a.y * a.y
        # p**(k-1) >= 2**((k-1)*(bits(p)-1)) > a_p**2 settles a huge weight
        # before the power is built
        if ((self.weight - 1) * (p.bit_length() - 1) < square.bit_length()
                and square > 4 * p ** (self.weight - 1)):
            warnings.warn(
                f"a_{p} of form {self.form_id} violates the Ramanujan bound "
                f"a_p^2 <= 4 p^(k-1)",
                RamanujanBoundWarning,
                stacklevel=3,  # the constructor's caller
            )


def refusal(form: NewformData, ell: int, root: int | None = None) -> ValueError | None:
    """The one admissibility rule: why the recipe refuses the odd prime ell
    (not re-proved here) for `form` and `root`, returned, not raised, or None.
    The first that applies wins: bad reduction, a root over Q, ell ramified
    or inert in Q(sqrt(d)), a root that is not a square root of d, a
    vanishing determinant exponent. No square root of d is taken."""
    d = form.d
    if form.level % ell == 0:
        return BadReductionError(f"bad reduction prime: {ell} divides the level {form.level}")
    if d is None:
        if root is not None:
            return ValueError(f"--root {root} given, but form {form.form_id} has a "
                              "rational coefficient field, which takes no embedding")
    else:
        if d % ell == 0:
            return RamifiedError(f"ramified prime: {ell} divides d={d}: "
                                 "ramified, neither split nor inert")
        if pow(d, (ell - 1) // 2, ell) != 1:  # Euler's criterion
            return NotSplitError(f"inert prime: no rational embedding: "
                                 f"{ell} is inert in Q(sqrt({d}))")
        if root is not None and not (0 <= root < ell and (root * root - d) % ell == 0):
            return ValueError(f"--root {root} is not a square root of {d} mod {ell}")
    if (form.weight - 1) % (ell - 1) == 0:
        # det would be the trivial character; nothing in this toolkit needs it
        return ValueError(f"determinant exponent (k-1) mod (ell-1) vanishes for ell={ell}")
    return None


def admitted_ells(form: NewformData, ells: list[int], span: str) -> list[int]:
    """The primes of `ells` (the range `span`) the rule admits. Refused whole,
    the range raises one ValueError naming each kind of refusal it met: no
    prime splits (ramified or inert), or each has bad reduction or a vanishing
    exponent, or each is one of these."""
    refusals = [refusal(form, ell) for ell in ells]
    admitted = [ell for ell, error in zip(ells, refusals) if error is None]
    if admitted:
        return admitted
    split = [isinstance(error, (NotSplitError, RamifiedError)) for error in refusals]
    if all(split):
        raise ValueError(f"no prime in {span} splits in Q(sqrt({form.d}))")
    reasons = f"divides the level {form.level} or has (ell-1) dividing k-1 = {form.weight - 1}"
    if any(split):
        reasons = f"does not split in Q(sqrt({form.d})), {reasons}"
    raise ValueError(f"every prime in {span} {reasons}")


def _sqrt_mod(a: int, ell: int) -> int:
    """A square root of a mod the odd prime ell, for a a nonzero square mod
    ell, by Tonelli-Shanks (Shanks 1973): O(log(ell)**2) multiplications.
    Trusts its caller, `_reductions`: at a composite ell it may never return."""
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


def _reductions(form: NewformData, ell: int, root: int | None
                ) -> tuple[int, int | None, list[tuple[int | None, dict[int, int]]]]:
    """The mod-ell reductions of the eigenvalue system of `form`, for an ell
    its caller has proved an odd prime: the determinant exponent m, the
    power of the cyclotomic character giving the determinant, the twist t
    to determinant chi, and a (root, traces) pair per embedding the rule
    (`refusal`) admits at ell. That is one over Q; over Q(sqrt(d)) one under
    each square root r of d mod ell, smaller first, or only under `root`
    when given, x + y*sqrt(d) going to x + y*r. The rule is asked once; its
    refusal is raised. What it admits has 1 <= m <= ell - 2 and traces
    p -> trace(Frob p) in [0, ell) at the stored primes away from level*ell:
    a_ell, when stored, is dropped.

    Twisting by chi^t takes m to m + 2t and the trace at p to it times p^t
    mod ell, so t solves m + 2t = 1 (mod ell-1): solvable iff m is odd, and
    None for an even m. Of the two solutions mod ell-1, t is the smaller
    non-negative one, (1-m)/2 reduced mod (ell-1)/2: (ell-3)/2 for m = 3
    and 0 for m = 1."""
    error = refusal(form, ell, root)
    if error is not None:
        raise error
    roots = (root,)
    if form.d is not None and root is None:
        r = _sqrt_mod(form.d, ell)
        roots = (min(r, ell - r), max(r, ell - r))
    m = (form.weight - 1) % (ell - 1)
    t = ((1 - m) // 2) % ((ell - 1) // 2) if m % 2 else None
    return m, t, [
        (r, {p: (a.x + a.y * (r or 0)) % ell for p, a in form.eigenvalues.items() if p != ell})
        for r in roots]
