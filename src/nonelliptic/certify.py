"""Certification engine: irreducibility and non-ellipticity proofs with
machine-checkable witnesses, plus the range scans tying them together.

Every emitted Certificate is self-contained: `check()` re-verifies the
witness arithmetic from the recorded data alone, without calling the code
path that produced it. Inconclusive is a first-class verdict (the methods
are sound but not complete), never an error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import data_io
from .arith import (
    Factorization,
    is_prime,
    legendre,
    primes_in_range,
    require_odd_prime,
    trial_factor,
)
from .quadfield import EmbeddingChoice, embedding_choices
from .repmodel import (
    InsufficientDataError,
    NewformData,
    ResidualRep,
    require_good_reduction,
    residual_rep,
    twist_to_det_chi,
)

IRREDUCIBLE = "Irreducible"
NON_ELLIPTIC = "NonElliptic"
INCONCLUSIVE = "Inconclusive"

METHOD_DISCRIMINANT = "DiscriminantNonResidue"
METHOD_OBSTRUCTION = "ReducibilityObstruction"
METHOD_TRACE = "TraceObstruction"
METHOD_CONDUCTOR = "ConductorBound"

# An elliptic curve over Q has v_2(N) <= 8, v_3(N) <= 5, v_p(N) <= 2 for p > 3
# (Silverman, Advanced Topics in the Arithmetic of Elliptic Curves, IV.10).
ELLIPTIC_CONDUCTOR_BOUNDS = {2: 8, 3: 5}
DEFAULT_CONDUCTOR_BOUND = 2


@dataclass(frozen=True)
class Certificate:
    """A verdict plus the witness data needed to re-verify it.

    ell is None for statements that quantify over all ell at once (the
    family-level reducibility obstruction, a bare conductor bound).
    """

    verdict: str
    method: str
    ell: int | None
    witness: dict
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "ell": self.ell,
            "witness": self.witness,
            "inputs": self.inputs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(
            verdict=d["verdict"],
            method=d["method"],
            ell=d["ell"],
            witness=d["witness"],
            inputs=d.get("inputs", {}),
        )


def _provenance(rep: ResidualRep) -> dict:
    return {
        "form": rep.source.form_id,
        "embedding_root": rep.embedding.root if rep.embedding else None,
        "twist_exponent": rep.twist_exponent,
    }


def irreducibility_by_discriminant(rep: ResidualRep, p: int) -> Certificate:
    """Irreducibility from a witness prime p: if the discriminant of the
    Frobenius characteristic polynomial x^2 - trace(p) x + p^m is a
    non-residue mod ell, the polynomial is irreducible over F_ell and the
    (odd) representation cannot be reducible."""
    ell = rep.ell
    tr = rep.trace_at(p)
    m = rep.det_exponent
    delta = (tr * tr - 4 * pow(p, m, ell)) % ell
    sym = legendre(delta, ell)
    verdict = IRREDUCIBLE if sym == -1 else INCONCLUSIVE
    return Certificate(
        verdict=verdict,
        method=METHOD_DISCRIMINANT,
        ell=ell,
        witness={
            "p": p,
            "trace": tr,
            "det_exponent": m,
            "delta": delta,
            "legendre": sym,
        },
        inputs=_provenance(rep) | {"assumed_odd": True},
    )


def reducibility_obstruction(
    form: NewformData, p: int
) -> tuple[Certificate, frozenset[int]]:
    """Family-level irreducibility: a reducible mod-ell reduction would split
    as a character pair epsilon + epsilon^-1 chi^(k-1) with epsilon unramified
    outside the level, forcing a_p ≡ 1 + p^(k-1) (mod ell) whenever
    epsilon(p) = 1. The nonzero integer M = |1 + p^(k-1) - a_p| then confines
    reducibility to the primes dividing M.

    Returns the certificate together with the exceptional set: the prime
    factors of M plus p itself (Frob p says nothing mod p). The certificate
    asserts irreducibility for every prime ell > 5 outside that set.
    """
    # epsilon has conductor c with c^2 dividing the level, so epsilon(p) = 1
    # is guaranteed by p ≡ 1 modulo prod q^floor(v_q(N)/2).
    modulus = math.prod(q ** (e // 2) for q, e in trial_factor(form.level).factors)
    if (p - 1) % modulus != 0:
        raise ValueError(
            f"witness prime invalid: need p = 1 (mod {modulus}) to trivialize "
            "the character unramified outside the level"
        )
    try:
        a = form.eigenvalues[p]
    except KeyError:
        raise InsufficientDataError(
            f"insufficient data: no eigenvalue stored at p={p}"
        ) from None
    if not a.is_rational:
        raise ValueError(f"a_{p} is irrational; this obstruction needs a rational a_p")

    # M = 0 confines nothing: Inconclusive, with an empty exceptional set
    m_value = abs(1 + p ** (form.weight - 1) - a.x)
    factors = [list(qe) for qe in trial_factor(m_value).factors] if m_value else []
    exceptional = sorted({q for q, _ in factors} | {p}) if m_value else []
    cert = Certificate(
        verdict=IRREDUCIBLE if m_value else INCONCLUSIVE,
        method=METHOD_OBSTRUCTION,
        ell=None,
        witness={"p": p, "a_p": a.x, "weight": form.weight, "level": form.level,
                 "M": m_value, "factors": factors, "exceptional": exceptional},
        inputs={"form": form.form_id},
    )
    return cert, frozenset(exceptional)


def excluded_trace_set(p: int, ell: int) -> list[int]:
    """Residues mod ell an elliptic trace at an unramified-or-semistable p can
    take: the Hasse interval |t| <= 2 sqrt(p) plus the level-raising values
    ±(p+1)."""
    bound = math.isqrt(4 * p)
    if 2 * bound + 1 >= ell:
        # the interval alone already meets every residue class
        return list(range(ell))
    excluded = {t % ell for t in range(-bound, bound + 1)}
    excluded.add((p + 1) % ell)
    excluded.add(-(p + 1) % ell)
    return sorted(excluded)


def non_elliptic_trace_test(rep: ResidualRep, p: int) -> Certificate:
    """Non-ellipticity from one unramified prime p with p ≢ 1 (mod ell).

    If the representation (determinant chi) came from an elliptic curve, its
    trace at Frob p would land in excluded_trace_set(p, ell): the Hasse
    interval if the curve is unramified at p, ±(p+1) by level raising if it
    is semistable. A trace outside that set is a proof of non-ellipticity.
    """
    ell = rep.ell
    if rep.det_exponent != 1:
        raise ValueError(
            "trace test needs determinant chi; apply twist_to_det_chi first"
        )
    tr = rep.trace_at(p)
    if p % ell == 1:
        raise ValueError(
            f"ramification dichotomy unavailable: p={p} = 1 (mod {ell})"
        )
    excluded = excluded_trace_set(p, ell)
    verdict = NON_ELLIPTIC if tr not in excluded else INCONCLUSIVE
    return Certificate(
        verdict=verdict,
        method=METHOD_TRACE,
        ell=ell,
        witness={"p": p, "trace": tr, "excluded": excluded},
        inputs=_provenance(rep) | {"extended": p != 2},
    )


def conductor_bound_test(
    conductor: int,
    ell: int | None = None,
    form_id: str | None = None,
) -> Certificate:
    """Non-ellipticity by conductor size: an elliptic curve over Q has
    v_2 <= 8, v_3 <= 5 and v_p <= 2 (p > 3) in its conductor, so an
    established equality conductor violating a bound rules every curve out.

    The caller is responsible for only passing conductors known to be exact
    (not mere divisors)."""
    if ell is not None and not (type(ell) is int and ell != 2 and is_prime(ell)):
        raise ValueError(f"ell={ell!r} is not an odd prime")
    if conductor < 1:
        raise ValueError("conductor must be positive")
    factors = [list(qe) for qe in trial_factor(conductor).factors]
    violation = None
    for q, e in factors:
        bound = ELLIPTIC_CONDUCTOR_BOUNDS.get(q, DEFAULT_CONDUCTOR_BOUND)
        if e > bound:
            violation = {"p": q, "exponent": e, "bound": bound}
            break
    verdict = NON_ELLIPTIC if violation else INCONCLUSIVE
    inputs = {}
    if form_id is not None:
        inputs["form"] = form_id
    return Certificate(
        verdict=verdict,
        method=METHOD_CONDUCTOR,
        ell=ell,
        witness={"conductor": conductor, "factors": factors, "violation": violation},
        inputs=inputs,
    )


def serre_bound_predicate(ell: int, p: int) -> str:
    """Whether the elliptic-curve conductor bound at p extends to every odd
    irreducible mod-ell representation.

    For p = 3 the extension applies iff ell ≢ ±1 (mod 9); for p > 3 iff
    ell ≢ ±1 (mod p). For p = 2 only the failure direction is encoded:
    ell ≡ -1 (mod 8) means the 2-part bound does not apply; anything else is
    reported unknown rather than guessed.
    """
    require_odd_prime(ell)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return "does_not_apply" if ell % 8 == 7 else "unknown"
    modulus = 9 if p == 3 else p
    return "does_not_apply" if ell % modulus in (1, modulus - 1) else "applies"


@dataclass(frozen=True)
class ScanReport:
    """Result of the closed-form scan 2^(ell-3) ∈ {1, 4, 9} (mod ell)."""

    ell_min: int
    ell_max: int
    scanned: int
    holds: tuple[int, ...]
    hold_residues: dict[int, int]
    fermat_ok: bool

    def to_dict(self) -> dict:
        return {
            "ell_min": self.ell_min,
            "ell_max": self.ell_max,
            "scanned": self.scanned,
            "membership_holds": self.holds,
            "hold_residues": {str(ell): r for ell, r in sorted(self.hold_residues.items())},
            "fermat_crosscheck_ok": self.fermat_ok,
        }

    def to_text(self) -> str:
        lines = [
            f"closed-form scan over primes ell in [{self.ell_min}, {self.ell_max}]",
            f"  primes scanned: {self.scanned}",
            f"  membership 2^(ell-3) in {{1, 4, 9}} (mod ell) holds at: "
            + (", ".join(str(l) for l in self.holds) if self.holds else "(none)"),
        ]
        for ell in self.holds:
            lines.append(
                f"    ell={ell}: residue {self.hold_residues[ell]}"
                + (" (9 = 2 mod 7; the per-prime trace test is the authority here)" if ell == 7 else "")
            )
        lines.append(
            "  Fermat cross-check 2^(ell-3) == 4^(-1) mod ell: "
            + ("ok for every scanned ell" if self.fermat_ok else "FAILED")
        )
        return "\n".join(lines)


def closed_form_scan(ell_min: int, ell_max: int) -> ScanReport:
    """Evaluate, for every prime ell in range, whether 2^(ell-3) lands in the
    reduced residues of {1, 4, 9} mod ell (the squared form of the excluded
    trace congruences with a_2 = 1). Membership means the obstruction fails
    at that ell; it holds only at ell = 7, where 9 ≡ 2.

    Cross-checks 2^(ell-3) ≡ 4^(-1) (mod ell) throughout (Fermat).

    Every ell comes from the Eratosthenes sieve of `primes_in_range`, which
    is exact: the sieve is the primality proof, so no ell is tested again and
    both residues come straight from the built-in `pow`.
    """
    if not 5 < ell_min <= ell_max:
        raise ValueError("scan range must satisfy 5 < ell_min <= ell_max")
    holds: list[int] = []
    residues: dict[int, int] = {}
    fermat_ok = True
    primes = primes_in_range(ell_min, ell_max)
    for ell in primes:
        r = pow(2, ell - 3, ell)
        if r != pow(4, -1, ell):
            fermat_ok = False
        if r in {1 % ell, 4 % ell, 9 % ell}:
            holds.append(ell)
            residues[ell] = r
    return ScanReport(
        ell_min=ell_min,
        ell_max=ell_max,
        scanned=len(primes),
        holds=tuple(holds),
        hold_residues=residues,
        fermat_ok=fermat_ok,
    )


# ---------------------------------------------------------------------------
# independent re-verification of certificates
# ---------------------------------------------------------------------------

# Each checker rebuilds, from the witness's input fields and with `arith`
# primitives only, the witness the producer would emit, and compares it whole:
# a changed, reordered or extra field fails. Inputs must be exact ints (a level
# of 26.5 or True would slip through the arithmetic), and guards refuse any
# step whose cost the certificate's own size does not bound.

def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _claimed_factors(n: int, factors) -> list[list[int]]:
    """A witness's factor list of n, validated by Factorization."""
    fac = Factorization(n, tuple(tuple(qe) for qe in factors))
    return [list(qe) for qe in fac.factors]


def _check_discriminant(cert: Certificate) -> bool:
    ell, w = cert.ell, cert.witness
    p, tr, m = w["p"], w["trace"], w["det_exponent"]
    if not (_ints(ell, p, tr, m) and is_prime(p) and p % ell and 0 <= tr < ell
            and 1 <= m <= ell - 2):
        return False
    delta = (tr * tr - 4 * pow(p, m, ell)) % ell
    sym = legendre(delta, ell)  # raises unless ell is an odd prime
    want = {"p": p, "trace": tr, "det_exponent": m, "delta": delta, "legendre": sym}
    return w == want and cert.verdict == (IRREDUCIBLE if sym == -1 else INCONCLUSIVE)


def _check_obstruction(cert: Certificate) -> bool:
    w = cert.witness
    p, a_p, k, level = w["p"], w["a_p"], w["weight"], w["level"]
    # the obstruction holds for every ell at once, so it names none
    if not (cert.ell is None and _ints(p, a_p, k, level) and is_prime(p) and level >= 1
            and level % p and k >= 2):
        return False
    # p**(k-1) >= 2**((k-1)*(bits(p)-1)) > M + |a_p| + 1 cannot give the
    # claimed M: refuse before computing the power.
    if (k - 1) * (p.bit_length() - 1) >= (w["M"] + abs(a_p) + 1).bit_length():
        return False
    # trial_factor raises, so check() returns False, on a level the producer
    # cannot factor either
    modulus = math.prod(q ** (e // 2) for q, e in trial_factor(level).factors)
    if (p - 1) % modulus != 0:
        return False
    m_value = abs(1 + p ** (k - 1) - a_p)
    factors = _claimed_factors(m_value, w["factors"]) if m_value else []
    exceptional = sorted({q for q, _ in factors} | {p}) if m_value else []
    want = {"p": p, "a_p": a_p, "weight": k, "level": level, "M": m_value,
            "factors": factors, "exceptional": exceptional}
    return w == want and cert.verdict == (IRREDUCIBLE if m_value else INCONCLUSIVE)


def _check_trace(cert: Certificate) -> bool:
    ell, w = cert.ell, cert.witness
    p, tr = w["p"], w["trace"]
    # p = ell has no Frobenius; p = 1 (mod ell) has no ramification dichotomy
    if not (_ints(ell, p, tr) and is_prime(ell) and ell % 2 and is_prime(p)
            and 0 <= tr < ell and p % ell > 1):
        return False
    # The size excluded_trace_set(p, ell) must have, known before building it:
    # every residue when the Hasse interval |t| <= B fills F_ell, else its
    # 2B+1 residues plus ±(p+1) when those fall outside it.
    bound, r = math.isqrt(4 * p), (p + 1) % ell
    if 2 * bound + 1 >= ell:
        size = ell
    else:
        size = 2 * bound + 1 + (2 if bound < r < ell - bound else 0)
    if len(w["excluded"]) != size:
        return False
    excluded = excluded_trace_set(p, ell)
    want = {"p": p, "trace": tr, "excluded": excluded}
    return w == want and cert.verdict == (INCONCLUSIVE if tr in excluded else NON_ELLIPTIC)


def _check_conductor(cert: Certificate) -> bool:
    ell, w = cert.ell, cert.witness
    conductor = w["conductor"]
    if not ((ell is None or (_ints(ell) and ell % 2 and is_prime(ell)))
            and _ints(conductor) and conductor >= 1):
        return False
    factors = _claimed_factors(conductor, w["factors"])
    violation = None
    for q, e in factors:
        bound = ELLIPTIC_CONDUCTOR_BOUNDS.get(q, DEFAULT_CONDUCTOR_BOUND)
        if e > bound:
            violation = {"p": q, "exponent": e, "bound": bound}
            break
    want = {"conductor": conductor, "factors": factors, "violation": violation}
    return w == want and cert.verdict == (NON_ELLIPTIC if violation else INCONCLUSIVE)


_CHECKERS = {
    METHOD_DISCRIMINANT: _check_discriminant,
    METHOD_OBSTRUCTION: _check_obstruction,
    METHOD_TRACE: _check_trace,
    METHOD_CONDUCTOR: _check_conductor,
}


def check(cert: Certificate) -> bool:
    """Rebuild a certificate's witness from its input fields and compare the
    whole record, verdict included.

    Pure and total: malformed or tampered certificates return False, they
    never raise, and the cost is bounded by the certificate's size.
    """
    try:
        checker = _CHECKERS[cert.method]
        return bool(checker(cert))
    except Exception:
        return False


# ---------------------------------------------------------------------------
# per-form certification pipeline (the CLI `certify` engine)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllCertification:
    """Everything the pipeline established about one (ell, embedding) run."""

    ell: int
    embedding_root: int | None
    irreducible: Certificate | None
    irreducible_tried: tuple[int, ...]
    twist_exponent: int | None
    trace_tests: tuple[Certificate, ...]
    conductor: Certificate | None
    notes: tuple[str, ...]

    @property
    def proved_irreducible(self) -> bool:
        return self.irreducible is not None and self.irreducible.verdict == IRREDUCIBLE

    @property
    def proved_non_elliptic(self) -> bool:
        if any(c.verdict == NON_ELLIPTIC for c in self.trace_tests):
            return True
        return self.conductor is not None and self.conductor.verdict == NON_ELLIPTIC

    def certificates(self) -> list[Certificate]:
        out = [*self.trace_tests, self.irreducible, self.conductor]
        return [c for c in out if c is not None]

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "embedding_root": self.embedding_root,
            "irreducible": self.irreducible,
            "irreducible_tried": self.irreducible_tried,
            "proved_irreducible": self.proved_irreducible,
            "twist_exponent": self.twist_exponent,
            "trace_tests": self.trace_tests,
            "conductor": self.conductor,
            "proved_non_elliptic": self.proved_non_elliptic,
            "notes": self.notes,
        }


def certify_at_ell(
    form: NewformData,
    ell: int,
    embedding=None,
    witness_prime: int | None = None,
) -> EllCertification:
    """Run the full certification pipeline for one ell and one embedding.

    Irreducibility: discriminant test over the available witness primes,
    first success wins. Non-ellipticity: trace tests on the determinant-chi
    twist over the same primes, falling back to the conductor bound when the
    conductor is known exactly.
    """
    rep = residual_rep(form, ell, embedding)
    candidates = [witness_prime] if witness_prime is not None else rep.witness_primes()
    notes: list[str] = []

    irreducible: Certificate | None = None
    tried: list[int] = []
    for p in candidates:
        try:
            cert = irreducibility_by_discriminant(rep, p)
        except InsufficientDataError:
            notes.append(f"no eigenvalue at p={p}; discriminant test skipped")
            continue
        tried.append(p)
        if cert.verdict == IRREDUCIBLE:
            irreducible = cert
            break
        irreducible = irreducible or cert

    twist_exponent: int | None = None
    trace_tests: list[Certificate] = []
    if rep.det_exponent % 2 == 1:
        twisted = twist_to_det_chi(rep)
        twist_exponent = twisted.twist_exponent
        for p in candidates:
            if p not in twisted.traces:
                continue
            if p % ell == 1:
                notes.append(f"p={p} = 1 (mod {ell}); trace test unavailable there")
                continue
            cert = non_elliptic_trace_test(twisted, p)
            trace_tests.append(cert)
            if cert.verdict == NON_ELLIPTIC:
                break
    else:
        notes.append(
            f"determinant exponent {rep.det_exponent} is even: no determinant-chi "
            "twist exists, trace test skipped"
        )

    conductor_cert: Certificate | None = None
    if not any(c.verdict == NON_ELLIPTIC for c in trace_tests):
        if form.claimed_conductor_equality:
            # the Serre conductor is the level
            conductor_cert = conductor_bound_test(form.level, ell=ell, form_id=form.form_id)
        else:
            notes.append(
                "conductor known only up to divisibility; conductor bound not usable"
            )

    return EllCertification(
        ell=ell,
        embedding_root=rep.embedding.root if rep.embedding else None,
        irreducible=irreducible,
        irreducible_tried=tuple(tried),
        twist_exponent=twist_exponent,
        trace_tests=tuple(trace_tests),
        conductor=conductor_cert,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CertifyReport:
    form_id: str
    ells: tuple[int, ...]
    runs: tuple[EllCertification, ...]

    @property
    def all_proved(self) -> bool:
        return all(r.proved_irreducible and r.proved_non_elliptic for r in self.runs)

    def to_dict(self) -> dict:
        return {
            "form": self.form_id,
            "ells": self.ells,
            "all_proved": self.all_proved,
            "runs": self.runs,
        }

    def to_text(self) -> str:
        lines = [f"certify form={self.form_id}"]
        for r in self.runs:
            head = f"ell={r.ell}"
            if r.embedding_root is not None:
                head += f" root={r.embedding_root}"
            lines.append(f"  {head}")
            if r.proved_irreducible:
                w = r.irreducible.witness
                lines.append(
                    f"    irreducible: yes, discriminant witness p={w['p']} "
                    f"(delta={w['delta']}, legendre={w['legendre']})"
                )
            else:
                lines.append(
                    "    irreducible: not established "
                    f"(witness primes tried: {list(r.irreducible_tried)})"
                )
            if r.twist_exponent is not None:
                lines.append(f"    twist to determinant chi: exponent {r.twist_exponent}")
            trace = next((c for c in r.trace_tests if c.verdict == NON_ELLIPTIC), None)
            if trace is not None:
                w = trace.witness
                lines.append(
                    f"    non-elliptic: yes, trace witness p={w['p']} "
                    f"(trace={w['trace']}, excluded={w['excluded']})"
                )
            elif r.proved_non_elliptic:
                w = r.conductor.witness
                v = w["violation"]
                lines.append(
                    f"    non-elliptic: yes, conductor {w['conductor']} "
                    f"violates v_{v['p']} <= {v['bound']} (exponent {v['exponent']})"
                )
            else:
                lines.append("    non-elliptic: not established (all tests inconclusive)")
            for note in r.notes:
                lines.append(f"    note: {note}")
            verdictline = (
                "proved" if r.proved_irreducible and r.proved_non_elliptic else "inconclusive"
            )
            lines.append(f"    overall: {verdictline}")
        lines.append(f"all proved: {'yes' if self.all_proved else 'no'}")
        return "\n".join(lines)


def select_embeddings(
    form: NewformData, ell: int, root: int | None = None
) -> Sequence[EmbeddingChoice | None]:
    """The embeddings to certify at ell: [None] over Q; over Q(sqrt(d)) both
    square roots of d mod ell, smaller first, or only `root` when given.
    A bad-reduction ell is refused first, as residual_rep refuses it."""
    require_good_reduction(form, ell)
    if form.d is None:
        return [None]
    embeddings = embedding_choices(form.d, ell)
    if root is not None:
        embeddings = [e for e in embeddings if e.root == root]
        if not embeddings:
            raise ValueError(f"--root {root} is not a square root of {form.d} mod {ell}")
    return embeddings


def certify_form(
    form: NewformData,
    ells: list[int],
    root: int | None = None,
    witness_prime: int | None = None,
) -> CertifyReport:
    """Certification pipeline over a list of ells (sorted, deterministic):
    one run per ell, or one per embedding (root) over a quadratic field."""
    ells = sorted(set(ells))
    runs = [
        certify_at_ell(form, ell, e, witness_prime)
        for ell in ells
        for e in select_embeddings(form, ell, root)
    ]
    return CertifyReport(form_id=form.form_id, ells=tuple(ells), runs=tuple(runs))


# ---------------------------------------------------------------------------
# bundled end-to-end verification against the expectations table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    expectations_version: int
    ell_max: int
    sections: dict
    mismatches: tuple[str, ...]
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "expectations_version": self.expectations_version,
            "ell_max": self.ell_max,
            "passed": self.passed,
            "mismatches": self.mismatches,
            "sections": self.sections,
        }

    def to_text(self) -> str:
        s4 = self.sections["weight4_level25"]
        s2 = self.sections["weight2_level512"]
        fam = s4["family_obstruction"].witness
        factors = "*".join(
            f"{q}^{e}" if e > 1 else str(q) for q, e in fam["factors"]
        )
        per_ell = s4["per_ell"]
        n_total = len(per_ell)
        n_irr = sum(1 for e in per_ell if e["irreducible"])
        n_disc = sum(1 for e in per_ell if e["irreducible_route"] == "discriminant")
        inconclusive = [
            e["ell"]
            for e in per_ell
            if not (e["trace_test"] and e["trace_test"].verdict == NON_ELLIPTIC)
        ]
        lines = [
            "== bundled verification ==",
            f"expectations table: v{self.expectations_version}",
            f"overall: {'PASS' if self.passed else 'FAIL'}",
            "",
            f"[weight4_level25] form={s4['form']}",
            f"  family obstruction: witness p={fam['p']}, M={fam['M']} = {factors}, "
            f"exceptional {{{', '.join(str(q) for q in fam['exceptional'])}}}",
            f"  note: {s4['family_note']}",
            f"  ell sample: {n_total} primes in (5, {self.ell_max}]",
            f"  irreducible: {n_irr}/{n_total} "
            f"({n_total - n_disc} by family obstruction, {n_disc} by discriminant witness)",
        ]
        for e in per_ell:
            if e["irreducible_route"] == "discriminant" and e["discriminant"]:
                w = e["discriminant"].witness
                lines.append(
                    f"    ell={e['ell']}: discriminant witness p={w['p']}, "
                    f"delta={w['delta']}, legendre={w['legendre']}"
                )
        lines.append(
            f"  non-elliptic by twisted trace test at p=2: "
            f"{n_total - len(inconclusive)}/{n_total}"
            + (
                f", inconclusive at {inconclusive} (excluded set covers every residue)"
                if inconclusive
                else ""
            )
        )
        lines.append("  " + s4["scan_text"].replace("\n", "\n  "))
        lines.extend(
            [
                "",
                f"[weight2_level512] form={s2['form']}",
                f"  split: d={s2['split']['d']} mod {s2['split']['ell']}, "
                f"roots {tuple(s2['split']['roots'])}",
            ]
        )
        for root_key in sorted(s2["discriminant"]):
            c = s2["discriminant"][root_key]
            w = c.witness
            lines.append(
                f"  discriminant under root {c.inputs['embedding_root']}: "
                f"p={w['p']}, delta={w['delta']}, legendre={w['legendre']} -> {c.verdict}"
            )
        for n_key in sorted(s2["conductor"], key=int):
            c = s2["conductor"][n_key]
            v = c.witness["violation"]
            desc = (
                f"violates v_{v['p']} <= {v['bound']} (exponent {v['exponent']}) -> {c.verdict}"
                if v
                else f"-> {c.verdict}"
            )
            lines.append(f"  conductor {n_key}: {desc}")
        for p_key in sorted(s2["serre_predicate"]):
            lines.append(
                f"  serre conductor-bound predicate at p={p_key}: "
                f"{s2['serre_predicate'][p_key]}"
            )
        lines.append("")
        if self.mismatches:
            lines.append("mismatches:")
            lines.extend(f"  - {m}" for m in self.mismatches)
        else:
            lines.append("mismatches: none")
        return "\n".join(lines)


_FAMILY_NOTE = (
    "M is the signed congruence value |1 + 11^3 - a_11| with a_11 = -43, i.e. "
    "1375 = 5^3*11; dropping the sign of a_11 would instead give 1289 (prime), "
    "which is not what the trace congruence asserts"
)


def full_paper_verification(
    ell_max: int = 1000,
    forms: dict[str, NewformData] | None = None,
    expectations: dict | None = None,
) -> VerificationReport:
    """Certify the bundled forms with `certify_form` and diff every step
    against the versioned expectations table. Any mismatch makes passed
    False."""
    if expectations is None:
        expectations = data_io.load_expectations()
    if forms is None:
        forms = {
            "weight4_level25": data_io.bundled_form("schoen_s4_25"),
            "weight2_level512": data_io.bundled_form("s2_512_sqrt2"),
        }
    mismatches: list[str] = []
    certs: list[Certificate] = []

    # --- weight-4 level-25 section ---------------------------------------
    exp4 = expectations["weight4_level25"]
    form4 = forms["weight4_level25"]
    family_cert, exceptional = reducibility_obstruction(
        form4, exp4["family_obstruction"]["witness_prime"]
    )
    certs.append(family_cert)

    trace_p = exp4["trace_test_witness_prime"]
    per_ell = []
    for run in certify_form(form4, primes_in_range(6, ell_max), witness_prime=trace_p).runs:
        # Outside the exceptional set the family obstruction proves
        # irreducibility; inside it the run's discriminant test must.
        entry: dict = {"ell": run.ell}
        if run.ell in exceptional:
            entry["irreducible_route"] = "discriminant"
            entry["discriminant"] = run.irreducible
            entry["irreducible"] = run.proved_irreducible
        else:
            entry["irreducible_route"] = "family"
            entry["irreducible"] = True
        entry["twist_exponent"] = run.twist_exponent
        entry["trace_test"] = run.trace_tests[0] if run.trace_tests else None
        per_ell.append(entry)
        certs.extend(c for c in (entry.get("discriminant"), entry["trace_test"]) if c)

    scan_exp = exp4["scan"]
    scan = closed_form_scan(scan_exp["ell_min"], scan_exp["ell_max"])

    section4 = {
        "form": form4.form_id,
        "family_obstruction": family_cert,
        "family_note": _FAMILY_NOTE,
        "exceptional": sorted(exceptional),
        "per_ell": per_ell,
        "scan": scan,
        "scan_text": scan.to_text(),
    }

    # expectations diff, weight-4 side
    fam_exp = exp4["family_obstruction"]
    w = family_cert.witness
    if w["M"] != fam_exp["M"]:
        mismatches.append(f"family obstruction M={w['M']}, expected {fam_exp['M']}")
    if w["factors"] != fam_exp["factors"]:
        mismatches.append(
            f"family obstruction factors {w['factors']}, expected {fam_exp['factors']}"
        )
    if sorted(exceptional) != fam_exp["exceptional"]:
        mismatches.append(
            f"exceptional set {sorted(exceptional)}, expected {fam_exp['exceptional']}"
        )
    if family_cert.verdict != IRREDUCIBLE:
        mismatches.append("family obstruction verdict is not Irreducible")

    inconclusive_exp = set(exp4["trace_inconclusive_ells"])
    for entry in per_ell:
        ell = entry["ell"]
        if not entry["irreducible"]:
            mismatches.append(f"ell={ell}: irreducibility not certified")
        expected_verdict = INCONCLUSIVE if ell in inconclusive_exp else NON_ELLIPTIC
        if entry["trace_test"] is None:
            mismatches.append(f"ell={ell}: no trace test at p={trace_p}")
        elif entry["trace_test"].verdict != expected_verdict:
            mismatches.append(
                f"ell={ell}: trace test {entry['trace_test'].verdict}, "
                f"expected {expected_verdict}"
            )
    for ell_str, pin in exp4["pinned_discriminant"].items():
        ell = int(ell_str)
        entry = next((e for e in per_ell if e["ell"] == ell), None)
        if entry is None:
            continue  # outside the sampled range
        got = entry.get("discriminant")
        if not got:
            mismatches.append(f"ell={ell}: expected a discriminant certificate")
            continue
        for key in ("p", "delta", "legendre"):
            want = pin["witness_prime"] if key == "p" else pin[key]
            if got.witness[key] != want:
                mismatches.append(
                    f"ell={ell}: discriminant witness {key}={got.witness[key]}, "
                    f"expected {want}"
                )
    if list(scan.holds) != scan_exp["holds"]:
        mismatches.append(f"scan holds {list(scan.holds)}, expected {scan_exp['holds']}")
    if not scan.fermat_ok:
        mismatches.append("scan Fermat cross-check failed")

    # --- weight-2 level-512 section ---------------------------------------
    exp2 = expectations["weight2_level512"]
    form2 = forms["weight2_level512"]
    split_exp = exp2["split"]
    ell2 = split_exp["ell"]
    disc_exp = exp2["pinned_discriminant"]
    runs2 = certify_form(form2, [ell2], witness_prime=disc_exp["witness_prime"]).runs
    roots = [run.embedding_root for run in runs2]
    disc_certs = {
        f"root_{run.embedding_root}": run.irreducible
        for run in runs2
        if run.irreducible
    }
    certs.extend(disc_certs.values())

    conductor_certs = {}
    for n_str in exp2["conductor_violations"]:
        cert = conductor_bound_test(int(n_str), ell=ell2, form_id=form2.form_id)
        conductor_certs[n_str] = cert
        certs.append(cert)

    serre = {
        p_str: serre_bound_predicate(ell2, int(p_str))
        for p_str in exp2["serre_predicate"]
    }

    section2 = {
        "form": form2.form_id,
        "split": {"d": form2.d, "ell": ell2, "roots": roots},
        "discriminant": disc_certs,
        "conductor": conductor_certs,
        "serre_predicate": serre,
    }

    if roots != split_exp["roots"]:
        mismatches.append(f"split roots {roots}, expected {split_exp['roots']}")
    for run in runs2:
        key = f"root_{run.embedding_root}"
        cert_d = run.irreducible
        if cert_d is None:
            mismatches.append(
                f"{key}: no discriminant certificate at p={disc_exp['witness_prime']}"
            )
            continue
        w = cert_d.witness
        if cert_d.verdict != IRREDUCIBLE:
            mismatches.append(f"{key}: discriminant verdict {cert_d.verdict}")
        if w["delta"] != disc_exp["delta"] or w["legendre"] != disc_exp["legendre"]:
            mismatches.append(
                f"{key}: delta={w['delta']} legendre={w['legendre']}, expected "
                f"delta={disc_exp['delta']} legendre={disc_exp['legendre']}"
            )
    for n_str, triple in exp2["conductor_violations"].items():
        v = conductor_certs[n_str].witness["violation"]
        got_triple = [v["p"], v["exponent"], v["bound"]] if v else None
        if got_triple != triple:
            mismatches.append(
                f"conductor {n_str}: violation {got_triple}, expected {triple}"
            )
    for p_str, expected in exp2["serre_predicate"].items():
        if serre[p_str] != expected:
            mismatches.append(
                f"serre predicate at p={p_str}: {serre[p_str]}, expected {expected}"
            )

    return VerificationReport(
        expectations_version=expectations["version"],
        ell_max=ell_max,
        sections={"weight4_level25": section4, "weight2_level512": section2},
        mismatches=tuple(mismatches),
        certificates=tuple(certs),
    )
