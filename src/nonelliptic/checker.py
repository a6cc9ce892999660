"""The certificate format and its independent checker.

`Certificate` is the record every producer in `certify` emits, and `check()`
re-verifies one from the recorded data alone. The checker trusts only `arith`
and the standard library: it never calls the code that produced a
certificate, so a fault there shows up here as a rejected record.
"""

from __future__ import annotations

import math

from .arith import (TRIAL_DIVISION_LIMIT, Factorization, Record, _primes, is_prime, legendre,
                    primes_in_range, trial_factor)

IRREDUCIBLE = "Irreducible"
NON_ELLIPTIC = "NonElliptic"
INCONCLUSIVE = "Inconclusive"

METHOD_DISCRIMINANT = "DiscriminantNonResidue"
METHOD_OBSTRUCTION = "ReducibilityObstruction"
METHOD_TRACE = "TraceObstruction"
METHOD_CONDUCTOR = "ConductorBound"
METHOD_FAMILY_TRACE = "FamilyTraceObstruction"

# An elliptic curve over Q has v_2(N) <= 8, v_3(N) <= 5, v_p(N) <= 2 for p > 3
# (Silverman, Advanced Topics in the Arithmetic of Elliptic Curves, IV.10).
ELLIPTIC_CONDUCTOR_BOUNDS = {2: 8, 3: 5}
DEFAULT_CONDUCTOR_BOUND = 2


class Certificate(Record):
    """A verdict plus the witness data needed to re-verify it.

    ell is None for statements that quantify over all ell at once (the
    family-level reducibility obstruction, a bare conductor bound).
    """

    __slots__ = ("verdict", "method", "ell", "witness", "inputs")

    def __init__(self, verdict: str, method: str, ell: int | None, witness: dict,
                 inputs: dict | None = None) -> None:
        self.verdict = verdict
        self.method = method
        self.ell = ell
        self.witness = witness
        self.inputs = {} if inputs is None else inputs

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(
            verdict=d["verdict"],
            method=d["method"],
            ell=d["ell"],
            witness=d["witness"],
            inputs=d.get("inputs", {}),
        )


# Each checker rebuilds, from the witness's input fields and with `arith`
# primitives only, the witness the producer would emit, and compares it whole
# with `_same`: a changed, reordered or extra field fails. Inputs must be exact
# ints (a level of 26.5 or True would slip through the arithmetic), and guards
# refuse any step whose cost the certificate's own size does not bound.

def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _same(got, want) -> bool:
    """got == want with the same type at every node, dict keys in any order:
    2.0 == 2 and True == 1 hold in Python, yet no producer emits a float or
    a bool where an int belongs."""
    if type(got) is not type(want):
        return False
    if type(want) is dict:
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if type(want) is list:
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


def _claimed_factors(n: int, factors) -> list[list[int]]:
    """A witness's factor list of n, validated by Factorization."""
    fac = Factorization(n, tuple(tuple(qe) for qe in factors))
    return [list(qe) for qe in fac.factors]


def _exceptional(values: list[int], claimed, known: set[int]) -> tuple[list, list[int]]:
    """The claimed factor lists of |n| for the nonzero ints `values`, one
    each, and the exceptional set: their primes and `known`, sorted."""
    if len(claimed) != len(values):
        raise ValueError("one factor list per value")
    lists = [_claimed_factors(abs(n), f) for n, f in zip(values, claimed)]
    return lists, sorted({q for f in lists for q, _ in f} | known)


def _check_discriminant(cert: Certificate) -> bool:
    ell, w = cert.ell, cert.witness
    p, tr, m = w["p"], w["trace"], w["det_exponent"]
    if not (_ints(ell, p, tr, m) and is_prime(p) and p % ell and 0 <= tr < ell
            and 1 <= m <= ell - 2):
        return False
    delta = (tr * tr - 4 * pow(p, m, ell)) % ell
    sym = legendre(delta, ell)  # raises unless ell is an odd prime
    want = {"p": p, "trace": tr, "det_exponent": m, "delta": delta, "legendre": sym}
    return _same(w, want) and cert.verdict == (IRREDUCIBLE if sym == -1 else INCONCLUSIVE)


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
    # trial_factor raises, so check() returns False, on a level past its 2**64 guard
    modulus = math.prod(q ** (e // 2) for q, e in trial_factor(level).factors)
    if (p - 1) % modulus != 0:
        return False
    m_value = abs(1 + p ** (k - 1) - a_p)
    factors, exceptional = [], []
    if m_value:
        # E holds every prime in (5, k-2], and pi(x) > x/ln x > x/bits(x) for
        # x >= 17 (Rosser-Schoenfeld 1962): a shorter E is refused before the
        # sieve, whose cost its length then bounds
        if k > 18 and len(w["exceptional"]) < (k - 2) // (k - 2).bit_length() - 3:
            return False
        beyond = {q for q in _primes(level) if q > 5} | {*primes_in_range(7, k - 2)}
        (factors,), exceptional = _exceptional([m_value], [w["factors"]], {p} | beyond)
    want = {"p": p, "a_p": a_p, "weight": k, "level": level, "M": m_value,
            "factors": factors, "exceptional": exceptional}
    return _same(w, want) and cert.verdict == (IRREDUCIBLE if m_value else INCONCLUSIVE)


def _check_trace(cert: Certificate) -> bool:
    ell, w = cert.ell, cert.witness
    p, tr = w["p"], w["trace"]
    # p = ell has no Frobenius; p = 1 (mod ell) has no ramification dichotomy
    if not (_ints(ell, p, tr) and is_prime(ell) and ell % 2 and is_prime(p)
            and 0 <= tr < ell and p % ell > 1):
        return False
    # The residues an elliptic trace can take, as sorted runs: every residue
    # when the Hasse interval |t| <= B fills F_ell, else 0..B and ell-B..ell-1,
    # plus ±(p+1) when those fall between the two. The runs give the length,
    # compared before the list is built.
    bound, r = math.isqrt(4 * p), (p + 1) % ell
    if 2 * bound + 1 >= ell:
        runs = [range(ell)]
    elif bound < r < ell - bound:
        s = min(r, ell - r)
        runs = [range(bound + 1), [s, ell - s], range(ell - bound, ell)]
    else:
        runs = [range(bound + 1), range(ell - bound, ell)]
    if len(w["excluded"]) != sum(map(len, runs)):
        return False
    excluded = [t for run in runs for t in run]
    want = {"p": p, "trace": tr, "excluded": excluded}
    return _same(w, want) and cert.verdict == (INCONCLUSIVE if tr in excluded else NON_ELLIPTIC)


def _check_family_trace(cert: Certificate) -> bool:
    w = cert.witness
    p, (x, y), k, level, d = w["p"], w["a_p"], w["weight"], w["level"], w["d"]
    if not (cert.ell is None and _ints(p, x, y, k, level) and is_prime(p) and level >= 1
            and level % p and k >= 2 and k % 2 == 0):
        return False
    # over Q a_p is rational; else d is a square-free int > 1 (past 2**64 trial_factor raises)
    if d is None:
        if y:
            return False
    elif not (_ints(d) and d > 1 and all(e == 1 for _, e in trial_factor(d).factors)):
        return False
    # one D_s per s in 0..B and p+1, B = isqrt(4p); and (p+1)^2 p^(k-2) > p^k
    # past the bound below puts |D_{p+1}| past trial_factor's guard: refuse
    # both before the power is built
    bound, c = math.isqrt(4 * p), d or 0
    x2, v2 = x * x + c * y * y, c * (2 * x * y) ** 2
    if (len(w["D"]) != bound + 2
            or k * (p.bit_length() - 1) >= (x2 + v2 + TRIAL_DIVISION_LIMIT).bit_length()):
        return False
    power = p ** (k - 2)
    values = [x2 - s * s * power for s in [*range(bound + 1), p + 1]]
    if d is not None:
        values = [u * u - v2 for u in values]
    if any(abs(v) > TRIAL_DIVISION_LIMIT for v in values):
        return False
    factors, exceptional = [], []
    if all(values):
        # E also holds p, the primes of p - 1, and those the admissibility
        # rule refuses other than as inert: of the level, of d, and 2
        known = {2, p} | _primes(p - 1) | _primes(level) | _primes(c or 1)
        factors, exceptional = _exceptional(values, w["factors"], known)
    want = {"p": p, "a_p": [x, y], "weight": k, "level": level, "d": d, "D": values,
            "factors": factors, "exceptional": exceptional}
    return _same(w, want) and cert.verdict == (NON_ELLIPTIC if exceptional else INCONCLUSIVE)


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
    return _same(w, want) and cert.verdict == (NON_ELLIPTIC if violation else INCONCLUSIVE)


_CHECKERS = {
    METHOD_DISCRIMINANT: _check_discriminant,
    METHOD_OBSTRUCTION: _check_obstruction,
    METHOD_TRACE: _check_trace,
    METHOD_CONDUCTOR: _check_conductor,
    METHOD_FAMILY_TRACE: _check_family_trace,
}


def check(cert: Certificate) -> bool:
    """Rebuild a certificate's witness from its input fields and compare the
    whole record, verdict included.

    Pure and total: malformed or tampered certificates return False, they
    never raise, and the cost is bounded by the certificate's size.
    """
    try:
        return bool(_CHECKERS[cert.method](cert))
    except Exception:
        return False


def covers(cert: Certificate, ell: int) -> str | None:
    """The claim (IRREDUCIBLE or NON_ELLIPTIC) that a certificate `check()`
    has accepted proves at the prime ell, or None; read from its method,
    verdict, ell and witness alone. A per-ell certificate covers its own ell.
    A ReducibilityObstruction covers every prime ell > 5 outside its
    witness's exceptional list E, a FamilyTraceObstruction every odd prime
    ell outside E where the witness's d, when not None, is a square mod ell
    (the admitted ell). An Inconclusive certificate, and a ConductorBound
    that names no ell, cover nothing; nor is a composite ell covered."""
    if cert.verdict == INCONCLUSIVE or not is_prime(ell):
        return None
    w = cert.witness
    if cert.method == METHOD_OBSTRUCTION:
        held = ell > 5
    elif cert.method == METHOD_FAMILY_TRACE:
        held = ell > 2 and (w["d"] is None or legendre(w["d"], ell) == 1)
    else:
        return cert.verdict if ell == cert.ell else None
    return cert.verdict if held and ell not in w["exceptional"] else None
