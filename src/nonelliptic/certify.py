"""Certification engine: irreducibility and non-ellipticity proofs with
machine-checkable witnesses, and the per-form pipeline the `certify` command
runs on the ell and embeddings that `repmodel`'s admissibility rule admits,
in this process or, for a large range, in forked workers (`parallel`).
The certificate format and `check()` live in `checker`, the paper's bundle
(`verify-paper` and the closed-form scan) in `paper`.

Every emitted Certificate is self-contained: `check()` re-verifies the
witness arithmetic from the recorded data alone, without calling the code
path that produced it. Inconclusive is a first-class verdict (the methods
are sound but not complete), never an error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import TRIAL_DIVISION_LIMIT, is_prime, legendre, require_odd_prime, trial_factor
from .checker import (
    DEFAULT_CONDUCTOR_BOUND,
    ELLIPTIC_CONDUCTOR_BOUNDS,
    INCONCLUSIVE,
    IRREDUCIBLE,
    METHOD_CONDUCTOR,
    METHOD_DISCRIMINANT,
    METHOD_OBSTRUCTION,
    METHOD_TRACE,
    NON_ELLIPTIC,
    Certificate,
)
from .checker import check  # re-exported: perfbench/run.py calls certify.check
from .repmodel import (
    InsufficientDataError,
    NewformData,
    ResidualRep,
    embeddings,
    residual_rep,
    twist_to_det_chi,
)

if TYPE_CHECKING:  # `certify` loads `parallel` only for a range it splits
    from .parallel import RenderedRuns


def _provenance(rep: ResidualRep) -> dict:
    return {
        "form": rep.source.form_id,
        "embedding_root": rep.root,
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


def reducibility_obstruction(form: NewformData, p: int) -> Certificate:
    """Family-level irreducibility: a reducible mod-ell reduction would split
    as a character pair epsilon + epsilon^-1 chi^(k-1) with epsilon unramified
    outside the level, forcing a_p ≡ 1 + p^(k-1) (mod ell) whenever
    epsilon(p) = 1. The nonzero integer M = |1 + p^(k-1) - a_p| then confines
    reducibility to the primes dividing M.

    The witness's "exceptional" list is the prime factors of M plus p
    itself (Frob p says nothing mod p); the certificate asserts
    irreducibility for every prime ell > 5 outside it.
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

    # M >= p**(k-1) + 1 - |a_p| >= 2**((k-1)*(bits(p)-1)) + 1 - |a_p|: refuse
    # an M past trial_factor's guard before the power is built
    if (form.weight - 1) * (p.bit_length() - 1) >= (TRIAL_DIVISION_LIMIT + abs(a.x)).bit_length():
        raise ValueError(f"M = |1 + {p}^{form.weight - 1} - a_{p}| exceeds the "
                         "trial-division guard 2**64")
    # M = 0 confines nothing: Inconclusive, with an empty exceptional set
    m_value = abs(1 + p ** (form.weight - 1) - a.x)
    factors = [list(qe) for qe in trial_factor(m_value).factors] if m_value else []
    exceptional = sorted({q for q, _ in factors} | {p}) if m_value else []
    return Certificate(
        verdict=IRREDUCIBLE if m_value else INCONCLUSIVE,
        method=METHOD_OBSTRUCTION,
        ell=None,
        witness={"p": p, "a_p": a.x, "weight": form.weight, "level": form.level,
                 "M": m_value, "factors": factors, "exceptional": exceptional},
        inputs={"form": form.form_id},
    )


# The most residues excluded_trace_set may list. A list holds at most
# min(ell, 2B + 3) of them, B = isqrt(4p), so ells up to 10^6 (the bundled
# forms are run up to 10^5) never meet it.
EXCLUDED_SET_LIMIT = 10**6


def excluded_trace_set(p: int, ell: int) -> list[int]:
    """Residues mod ell an elliptic trace at an unramified-or-semistable p can
    take: the Hasse interval |t| <= 2 sqrt(p) plus the level-raising values
    ±(p+1). Raises ValueError, before building anything, when the list could
    hold more than EXCLUDED_SET_LIMIT residues."""
    bound = math.isqrt(4 * p)
    if (size := min(ell, 2 * bound + 3)) > EXCLUDED_SET_LIMIT:
        raise ValueError(f"trace test at p={p}, ell={ell} would list up to {size} "
                         f"excluded residues, over the limit of {EXCLUDED_SET_LIMIT}")
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

    @property
    def proved(self) -> bool:
        return self.proved_irreducible and self.proved_non_elliptic

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

    def text_lines(self) -> list[str]:
        """This run's lines of the text report."""
        head = f"ell={self.ell}"
        if self.embedding_root is not None:
            head += f" root={self.embedding_root}"
        lines = [f"  {head}"]
        if self.proved_irreducible:
            w = self.irreducible.witness
            lines.append(
                f"    irreducible: yes, discriminant witness p={w['p']} "
                f"(delta={w['delta']}, legendre={w['legendre']})"
            )
        else:
            lines.append(
                "    irreducible: not established "
                f"(witness primes tried: {list(self.irreducible_tried)})"
            )
        if self.twist_exponent is not None:
            lines.append(f"    twist to determinant chi: exponent {self.twist_exponent}")
        trace = next((c for c in self.trace_tests if c.verdict == NON_ELLIPTIC), None)
        if trace is not None:
            w = trace.witness
            lines.append(
                f"    non-elliptic: yes, trace witness p={w['p']} "
                f"(trace={w['trace']}, excluded={w['excluded']})"
            )
        elif self.proved_non_elliptic:
            w = self.conductor.witness
            v = w["violation"]
            lines.append(
                f"    non-elliptic: yes, conductor {w['conductor']} "
                f"violates v_{v['p']} <= {v['bound']} (exponent {v['exponent']})"
            )
        else:
            lines.append("    non-elliptic: not established (all tests inconclusive)")
        for note in self.notes:
            lines.append(f"    note: {note}")
        lines.append(f"    overall: {'proved' if self.proved else 'inconclusive'}")
        return lines


def certify_at_ell(
    form: NewformData,
    ell: int,
    root: int | None = None,
    witness_prime: int | None = None,
) -> EllCertification:
    """Run the full certification pipeline for one ell and one embedding root.

    Irreducibility: discriminant test over the available witness primes,
    first success wins. Non-ellipticity: trace tests on the determinant-chi
    twist over the same primes, falling back to the conductor bound when the
    conductor is known exactly.
    """
    rep = residual_rep(form, ell, root)
    candidates = [witness_prime] if witness_prime is not None else rep.witness_primes()
    notes: list[str] = []

    irreducible: Certificate | None = None
    tried: list[int] = []
    for p in candidates:
        if p == ell:
            notes.append(f"p={p} is ell: no Frobenius trace there; discriminant test skipped")
            continue
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
        embedding_root=rep.root,
        irreducible=irreducible,
        irreducible_tried=tuple(tried),
        twist_exponent=twist_exponent,
        trace_tests=tuple(trace_tests),
        conductor=conductor_cert,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CertifyReport:
    """The runs of certify_form over `ells`, in order. A report certified by
    forked workers (`parallel`) holds each batch of consecutive runs as one
    `RenderedRuns`, the batch's runs as text in the report's format: its
    `proved`, `text_lines()` and `to_dict()` stand in for theirs, so the
    report writes the same bytes."""

    form_id: str
    ells: tuple[int, ...]
    runs: tuple[EllCertification | RenderedRuns, ...]

    @property
    def all_proved(self) -> bool:
        return all(r.proved for r in self.runs)

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
            lines.extend(r.text_lines())
        lines.append(f"all proved: {'yes' if self.all_proved else 'no'}")
        return "\n".join(lines)


def certify_form(
    form: NewformData,
    ells: list[int],
    root: int | None = None,
    witness_prime: int | None = None,
) -> CertifyReport:
    """Certification pipeline over a list of ells (sorted, deterministic):
    one run per embedding the rule (`repmodel.embeddings`) gives at each ell,
    so one per ell over Q and one per root over a quadratic field."""
    ells = sorted(set(ells))
    runs = [
        certify_at_ell(form, ell, r, witness_prime)
        for ell in ells
        for r in embeddings(form, ell, root)
    ]
    return CertifyReport(form_id=form.form_id, ells=tuple(ells), runs=tuple(runs))


# A range of fewer runs than this is certified in this process. The pool's
# fixed cost, about 55 ms (importing concurrent.futures and multiprocessing,
# forking, sending back the text, joining), is what one CPU takes to certify
# and render about 500 runs in JSON. On 2 CPUs, `certify schoen_s4_25` in JSON
# in the pool against one process tied at 1,500 runs, won 0-10% at 2,000,
# 10-16% at 2,500 and 22-23% at 4,000 (two sweeps, medians of 10 runs each,
# Python 3.11).
POOL_MIN_RUNS = 2000


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def certify_range(
    form: NewformData,
    ells: list[int],
    root: int | None,
    witness_prime: int | None,
    fmt: str,
) -> CertifyReport:
    """The report the `certify` command writes in `fmt`: certify_form's, or,
    for a range of at least POOL_MIN_RUNS runs on a platform that forks and a
    process allowed more than one CPU, one certified by forked workers
    (`parallel.certify_in_pool`), whose runs are `parallel.RenderedRuns`, text
    in `fmt`. Either raises the first error in ell order. It forks, which is
    only safe in a single-threaded process such as the CLI."""
    ells = sorted(set(ells))
    cpus = usable_cpus()
    runs = len(ells) * len(embeddings(form, ells[0], root))
    if cpus < 2 or runs < POOL_MIN_RUNS or not hasattr(os, "fork"):
        return certify_form(form, ells, root, witness_prime)
    from .parallel import certify_in_pool  # loads concurrent.futures and multiprocessing

    return certify_in_pool(form, ells, cpus, root, witness_prime, fmt)
