"""Newform eigenvalue systems, the one rule for which ell and embeddings they
admit (only split ell: an embedding of Q(sqrt(d)) into F_ell is named by a
square root of d mod ell), and the residual mod-ell representations they
induce.

A residual representation is described purely by data: the reduced traces of
Frobenius at the stored good primes, the exponent m of the cyclotomic
character giving the determinant, and the source form, whose level is the
prime-to-ell (Serre) conductor. The eigenvalue map is sparse; every
downstream operation must tolerate missing primes and say so instead of
inventing values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .arith import is_prime, require_odd_prime, trial_factor


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


@dataclass(frozen=True)
class QuadInt:
    """x + y*sqrt(d), read in the field of the NewformData holding it: the
    form owns d and refuses y != 0 over Q."""

    x: int
    y: int = 0

    @property
    def is_rational(self) -> bool:
        return self.y == 0


@dataclass(frozen=True)
class NewformData:
    """Level, weight, coefficient field and a sparse prime -> a_p map.

    Only good primes (p not dividing the level) may carry eigenvalues.
    """

    form_id: str
    level: int
    weight: int
    d: int | None  # None: rational coefficient field; else Q(sqrt(d))
    eigenvalues: dict[int, QuadInt]
    claimed_conductor_equality: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
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
                stacklevel=3,
            )


@dataclass(frozen=True)
class ResidualRep:
    """A 2-dimensional mod-ell representation given by trace data.

    traces maps p -> trace(Frob p) as an integer in [0, ell) for the stored
    primes p coprime to level*ell. The determinant is the det_exponent-th
    power of the mod-ell cyclotomic character. root names the embedding the
    traces were reduced under (None over Q).
    """

    ell: int
    det_exponent: int
    traces: dict[int, int]
    source: NewformData
    root: int | None = None
    twist_exponent: int = 0

    def __post_init__(self) -> None:
        require_odd_prime(self.ell)
        if not 1 <= self.det_exponent <= self.ell - 2:
            raise ValueError(
                f"determinant exponent {self.det_exponent} outside [1, {self.ell - 2}]"
            )
        level = self.source.level
        if level % self.ell == 0:
            raise ValueError("Serre conductor must be prime to ell")
        for p, t in self.traces.items():
            if p % self.ell == 0 or level % p == 0:
                raise ValueError(f"trace key {p} not coprime to N*ell")
            if not 0 <= t < self.ell:
                raise ValueError(f"trace at {p} not reduced mod {self.ell}")

    def trace_at(self, p: int) -> int:
        try:
            return self.traces[p]
        except KeyError:
            raise InsufficientDataError(
                f"insufficient data: no eigenvalue stored at p={p}"
            ) from None

    def witness_primes(self) -> list[int]:
        return sorted(self.traces)


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
    Trusts its caller, `residual_reps`: at a composite ell it may never return."""
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


def residual_reps(form: NewformData, ell: int, root: int | None = None) -> tuple[ResidualRep, ...]:
    """The mod-ell reductions of the eigenvalue system of `form`, one per
    embedding the rule (`refusal`) admits at ell: one over Q; over Q(sqrt(d))
    one under each square root r of d mod ell, smaller first, or only under
    `root` when given, x + y*sqrt(d) going to x + y*r. a_ell, when stored, is
    dropped: only primes away from level*ell are usable traces. Raises
    ValueError unless ell is an odd prime, then the refusal when the rule
    refuses ell."""
    require_odd_prime(ell)
    error = refusal(form, ell, root)
    if error is not None:
        raise error
    roots = (root,)
    if form.d is not None and root is None:
        r = _sqrt_mod(form.d, ell)
        roots = (min(r, ell - r), max(r, ell - r))
    return tuple(ResidualRep(ell=ell, det_exponent=(form.weight - 1) % (ell - 1),
                             traces={p: (a.x + a.y * (r or 0)) % ell
                                     for p, a in form.eigenvalues.items() if p != ell},
                             source=form, root=r)
                 for r in roots)


def residual_rep(form: NewformData, ell: int, root: int | None = None) -> ResidualRep:
    """The first of residual_reps(form, ell, root): the reduction under
    `root`, by default under the smaller square root of d mod ell."""
    return residual_reps(form, ell, root)[0]


def twist_to_det_chi(rep: ResidualRep) -> ResidualRep:
    """The cyclotomic twist of rep whose determinant is chi itself.

    Tensoring by chi^t takes the determinant exponent m to m + 2t, so t must
    solve m + 2t ≡ 1 (mod ell-1): solvable iff m is odd. Of the two solutions
    mod ell-1 we take the smaller non-negative one, t = (1-m)/2 reduced mod
    (ell-1)/2; for m = 3 this is (ell-3)/2 and for m = 1 it is 0.
    """
    ell, m = rep.ell, rep.det_exponent
    if m % 2 == 0:
        raise ValueError(f"no determinant-chi twist exists: exponent {m} is even")
    t = ((1 - m) // 2) % ((ell - 1) // 2)
    return ResidualRep(
        ell=ell,
        det_exponent=1,
        traces={p: (tr * pow(p, t, ell)) % ell for p, tr in rep.traces.items()},
        source=rep.source,
        root=rep.root,
        twist_exponent=(rep.twist_exponent + t) % (ell - 1),
    )
