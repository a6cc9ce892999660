"""Certification engine: irreducibility and non-ellipticity proofs with
machine-checkable witnesses, and the per-form pipeline the `certify` command
runs on the reductions that `repmodel`'s admissibility rule admits at each
ell, in batches of consecutive ells, in this process or, for a large range,
in forked workers, and the writer of a range's report. The certificate
format and `check()` live in `checker`, the paper's bundle (`verify-paper`
and the closed-form scan) in `paper`.

Every emitted Certificate is self-contained: `check()` re-verifies the
witness arithmetic from the recorded data alone, without calling the code
path that produced it. Inconclusive is a first-class verdict (the methods
are sound but not complete), never an error.
"""

from __future__ import annotations

import math
import os
import select
import threading
from collections.abc import Callable
from contextlib import suppress
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from .arith import (
    TRIAL_DIVISION_LIMIT,
    Record,
    _euler_criterion,
    _primes,
    _sieve_pays,
    is_prime,
    primes_in_range,
    require_odd_prime,
    trial_factor,
)
from .checker import (
    DEFAULT_CONDUCTOR_BOUND,
    ELLIPTIC_CONDUCTOR_BOUNDS,
    INCONCLUSIVE,
    IRREDUCIBLE,
    METHOD_CONDUCTOR,
    METHOD_DISCRIMINANT,
    METHOD_FAMILY_TRACE,
    METHOD_OBSTRUCTION,
    METHOD_TRACE,
    NON_ELLIPTIC,
    Certificate,
)
from .checker import check  # re-exported: perfbench/run.py calls certify.check
from .data_io import canonical_json, write_json_list
from .repmodel import (
    InsufficientDataError,
    NewformData,
    NotSplitError,
    _reductions,
    refusal,
)


def reducibility_obstruction(form: NewformData, p: int) -> Certificate:
    """Family-level irreducibility: a reducible mod-ell reduction would split
    as a character pair epsilon + epsilon^-1 chi^(k-1) with epsilon unramified
    outside the level, forcing a_p ≡ 1 + p^(k-1) (mod ell) whenever
    epsilon(p) = 1. The nonzero integer M = |1 + p^(k-1) - a_p| then confines
    reducibility to the primes dividing M.

    That inertia type 1 + omega^(k-1) holds only where Fontaine-Laffaille
    applies, ell not dividing the level with k <= ell + 1. So the witness's
    "exceptional" list E is the prime factors of M, p itself (Frob p says
    nothing mod p), and every prime ell > 5 with ell <= k - 2 or ell
    dividing the level. `checker.covers` states the claim: irreducibility
    at every prime ell > 5 outside E. A p that is not a prime int is a
    ValueError.
    """
    if not (type(p) is int and is_prime(p)):
        raise ValueError(f"witness prime p={p!r} is not prime")
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
    factors, exceptional = [], []
    if m_value:
        factors = [list(qe) for qe in trial_factor(m_value).factors]
        beyond = {q for q in _primes(form.level) if q > 5} | {*primes_in_range(7, form.weight - 2)}
        exceptional = sorted({q for q, _ in factors} | {p} | beyond)
    return Certificate(
        verdict=IRREDUCIBLE if m_value else INCONCLUSIVE,
        method=METHOD_OBSTRUCTION,
        ell=None,
        witness={"p": p, "a_p": a.x, "weight": form.weight, "level": form.level,
                 "M": m_value, "factors": factors, "exceptional": exceptional},
        inputs={"form": form.form_id},
    )


def family_trace_obstruction(form: NewformData, p: int) -> Certificate:
    """Family-level non-ellipticity from one good prime p, for a form of even
    weight k: at an admitted ell the determinant-chi twist has trace t with
    t^2 ≡ a_p^2 p^(2-k) (mod ell), and the excluded set of the trace test at
    p is closed under negation, so t lies in it only if ell divides some
    D_s = a_p^2 - s^2 p^(k-2), s in 0..isqrt(4p) or p+1. Over Q(sqrt(d)) the
    witness holds the norms N(D_s), which cover both embeddings.

    The witness's "exceptional" list E is the primes of every D_s, of p(p-1)
    (where the trace test at p is unavailable) and those the rule refuses
    other than as inert. `checker.covers` states the claim: non-ellipticity
    at every admitted ell outside E. Some D_s = 0, as for an elliptic
    curve's own a_p, is Inconclusive, with E empty. Raises ValueError for
    odd k or a p that is not a prime int.
    """
    k, d = form.weight, form.d or 0
    if k % 2:
        raise ValueError(f"the family trace obstruction needs an even weight, not {k}")
    if not (type(p) is int and is_prime(p)):
        raise ValueError(f"witness prime p={p!r} is not prime")
    if form.level % p == 0:
        raise ValueError(f"witness prime {p} divides the level {form.level}")
    try:
        a = form.eigenvalues[p]
    except KeyError:
        raise InsufficientDataError(f"insufficient data: no eigenvalue stored at p={p}") from None
    bound = math.isqrt(4 * p)
    if 2 * bound + 3 > EXCLUDED_SET_LIMIT:
        raise ValueError(f"the excluded set at p={p} lists {2 * bound + 3} residues, "
                         f"over the limit of {EXCLUDED_SET_LIMIT}")
    x2, v2 = a.x * a.x + d * a.y * a.y, d * (2 * a.x * a.y) ** 2
    # (p+1)^2 p^(k-2) > p^k past x^2 + d y^2 + d (2xy)^2 + 2**64 puts D_{p+1}
    # past trial_factor's guard: refuse before the power is built
    if k * (p.bit_length() - 1) >= (x2 + v2 + TRIAL_DIVISION_LIMIT).bit_length():
        raise ValueError(f"D_s = a_{p}^2 - s^2*{p}^{k - 2} exceeds the trial-division guard 2**64")
    power = p ** (k - 2)
    values = [x2 - s * s * power for s in [*range(bound + 1), p + 1]]
    if form.d is not None:  # D_s = u + 2xy sqrt(d) has norm u^2 - d (2xy)^2
        values = [u * u - v2 for u in values]
    factors: list = []
    exceptional: list[int] = []
    if all(values):
        factors = [[list(qe) for qe in trial_factor(abs(v)).factors] for v in values]
        # The rule refuses an odd ell other than as inert only where ell
        # divides the level or d, or ell - 1 divides k - 1: for even k, ell = 2.
        refused = {q for q in {2} | _primes(form.level) | _primes(d or 1)
                   if not isinstance(refusal(form, q), (type(None), NotSplitError))}
        exceptional = sorted({q for f in factors for q, _ in f} | {p} | _primes(p - 1) | refused)
    return Certificate(
        verdict=NON_ELLIPTIC if exceptional else INCONCLUSIVE,
        method=METHOD_FAMILY_TRACE,
        ell=None,
        witness={"p": p, "a_p": [a.x, a.y], "weight": k, "level": form.level, "d": form.d,
                 "D": values, "factors": factors, "exceptional": exceptional},
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
    # the interval is 0..B and ell-B..ell-1; ±(p+1) lie both inside or both between
    a = (p + 1) % ell
    return [*range(bound + 1), *(sorted({a, ell - a}) if bound < a < ell - bound else ()),
            *range(ell - bound, ell)]


def _conductor_witness(conductor: int) -> dict:
    """The witness of a conductor certificate for the conductor >= 1: its
    factors and the first exponent past the elliptic bound, if any. It does
    not depend on ell."""
    factors = [list(qe) for qe in trial_factor(conductor).factors]
    violation = None
    for q, e in factors:
        bound = ELLIPTIC_CONDUCTOR_BOUNDS.get(q, DEFAULT_CONDUCTOR_BOUND)
        if e > bound:
            violation = {"p": q, "exponent": e, "bound": bound}
            break
    return {"conductor": conductor, "factors": factors, "violation": violation}


def _conductor(witness: dict, ell: int | None, form_id: str | None) -> Certificate:
    """The conductor certificate of `_conductor_witness`'s witness at ell."""
    return Certificate(
        verdict=NON_ELLIPTIC if witness["violation"] else INCONCLUSIVE,
        method=METHOD_CONDUCTOR,
        ell=ell,
        witness=witness,
        inputs={} if form_id is None else {"form": form_id},
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
    if type(conductor) is not int:
        raise ValueError(f"conductor={conductor!r} is not an int")
    if conductor < 1:
        raise ValueError("conductor must be positive")
    return _conductor(_conductor_witness(conductor), ell, form_id)


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

class EllCertification(Record):
    """Everything the pipeline established about one (ell, embedding) run.
    proved_irreducible and proved_non_elliptic are read off the
    certificates once, when the run is made."""

    __slots__ = ("ell", "embedding_root", "irreducible", "irreducible_tried", "twist_exponent",
                 "trace_tests", "conductor", "notes", "proved_irreducible", "proved_non_elliptic")

    def __init__(self, ell: int, embedding_root: int | None, irreducible: Certificate | None,
                 irreducible_tried: tuple[int, ...], twist_exponent: int | None,
                 trace_tests: tuple[Certificate, ...], conductor: Certificate | None,
                 notes: tuple[str, ...]) -> None:
        self.ell = ell
        self.embedding_root = embedding_root
        self.irreducible = irreducible
        self.irreducible_tried = irreducible_tried
        self.twist_exponent = twist_exponent
        self.trace_tests = trace_tests
        self.conductor = conductor
        self.notes = notes
        self.proved_irreducible = irreducible is not None and irreducible.verdict == IRREDUCIBLE
        self.proved_non_elliptic = (any(c.verdict == NON_ELLIPTIC for c in trace_tests)
                                    or conductor is not None and conductor.verdict == NON_ELLIPTIC)

    def certificates(self) -> list[Certificate]:
        out = [*self.trace_tests, self.irreducible, self.conductor]
        return [c for c in out if c is not None]


def _certify_run(form: NewformData, ell: int, root: int | None, m: int, t: int | None,
                 traces: dict[int, int], witness_prime: int | None,
                 conductor: Callable[[], dict]) -> tuple:
    """The pipeline on one reduction of `_reductions`, trusted: traces
    (p -> trace, reduced) under `root` at the odd prime ell, determinant
    exponent m, twist t to determinant chi (None for an even m).

    Irreducibility: the discriminant test over the stored witness primes
    (`witness_prime` alone when given), first success wins. Non-ellipticity:
    trace tests on the twist by chi^t over the same primes, falling back to
    the conductor bound when the conductor is known exactly. `conductor`
    returns the form's conductor witness; it is called only if a run needs
    it. Only the traces a trace test reads are twisted.

    Returns (ell, root, m, t, kept, tried, tests, witness, notes): kept is the
    attempt kept (p, trace, delta, symbol), tests a (p, twisted trace, excluded,
    non-elliptic) per trace test, witness the conductor witness if applied."""
    candidates = [witness_prime] if witness_prime is not None else sorted(traces)
    notes: list[str] = []

    # A non-residue discriminant delta of Frobenius's x^2 - tr x + p^m at p makes it,
    # so the (odd) reduction, irreducible. Kept: the first Irreducible, else the first.
    kept: tuple[int, int, int, int] | None = None
    tried: list[int] = []
    for p in candidates:
        if p == ell:
            notes.append(f"p={p} is ell: no Frobenius trace there; discriminant test skipped")
            continue
        if p not in traces:
            notes.append(f"no eigenvalue at p={p}; discriminant test skipped")
            continue
        tr = traces[p]
        delta = (tr * tr - 4 * pow(p, m, ell)) % ell
        sym = _euler_criterion(delta, ell)
        tried.append(p)
        if kept is None or sym == -1:
            kept = p, tr, delta, sym
        if sym == -1:
            break

    # An elliptic curve's twisted trace at p lies in excluded_trace_set(p, ell): the
    # Hasse interval if unramified at p, ±(p+1) by level raising if semistable.
    tests: list[tuple[int, int, list[int], bool]] = []
    if t is not None:
        for p in candidates:
            if p not in traces:
                continue
            if p % ell == 1:
                notes.append(f"p={p} = 1 (mod {ell}); trace test unavailable there")
                continue
            tr = traces[p] * pow(p, t, ell) % ell
            excluded = excluded_trace_set(p, ell)
            tests.append((p, tr, excluded, tr not in excluded))
            if tr not in excluded:
                break
    else:
        notes.append(f"determinant exponent {m} is even: no determinant-chi twist exists, "
                     "trace test skipped")

    witness = None
    if not (tests and tests[-1][3]):
        if form.claimed_conductor_equality:
            witness = conductor()  # the Serre conductor is the level
        else:
            notes.append("conductor known only up to divisibility; conductor bound not usable")
    return ell, root, m, t, kept, tuple(tried), tests, witness, tuple(notes)


def _record(form_id: str, ell: int, root: int | None, m: int, t: int | None, kept, tried,
            tests, witness: dict | None, notes: tuple[str, ...]) -> EllCertification:
    """The record of a run from the values `_certify_run` decided."""
    provenance = {"form": form_id, "embedding_root": root, "twist_exponent": 0}
    irreducible = None if kept is None else Certificate(
        IRREDUCIBLE if kept[3] == -1 else INCONCLUSIVE, METHOD_DISCRIMINANT, ell,
        {"p": kept[0], "trace": kept[1], "det_exponent": m, "delta": kept[2], "legendre": kept[3]},
        provenance | {"assumed_odd": True})
    trace_tests = tuple(Certificate(NON_ELLIPTIC if ne else INCONCLUSIVE, METHOD_TRACE, ell,
                                    {"p": p, "trace": tr, "excluded": excluded},
                                    provenance | {"twist_exponent": t, "extended": p != 2})
                        for p, tr, excluded, ne in tests)
    conductor = None if witness is None else _conductor(witness, ell, form_id)
    return EllCertification(ell, root, irreducible, tried, t, trace_tests, conductor, notes)


def _sieved_primes(ells: list[int]) -> set[int]:
    """The odd primes of the sorted list `ells` when one sieve of its span
    pays for proving them (`arith._sieve_pays`, one candidate an ell), else
    the empty set: an ell outside it is still to be proved."""
    if ells and all(type(ell) is int for ell in ells):
        lo, hi = ells[0], ells[-1]
        if _sieve_pays(lo, hi, len(ells)):
            return set(primes_in_range(max(lo, 3), hi))
    return set()


def _runs(form: NewformData, ells: list[int], root: int | None, witness_prime: int | None):
    """The values `_certify_run` decides for each run of certify_form, in order."""
    ells = sorted(set(ells))
    proved = _sieved_primes(ells)
    conductor = cache(partial(_conductor_witness, form.level))
    for ell in ells:
        if ell not in proved:
            require_odd_prime(ell)
        m, t, reductions = _reductions(form, ell, root)
        for r, traces in reductions:
            yield _certify_run(form, ell, r, m, t, traces, witness_prime, conductor)


def certify_form(form: NewformData, ells: list[int], root: int | None = None,
                 witness_prime: int | None = None) -> tuple[EllCertification, ...]:
    """Certification pipeline over a list of ells: the runs in sorted ell
    order, one per reduction `repmodel._reductions` gives at each ell under
    `root`, so one per ell over Q and one per root over a quadratic field
    unless `root` picks one. certify_range writes the report of the same runs.

    The first ell, in sorted order, that is not an odd prime raises
    ValueError; the first the admissibility rule refuses raises its refusal.
    Each ell is proved once, the whole list by one sieve where the
    sieve-or-prove rule (arith._sieve_pays) finds that it pays, and the
    admissibility rule is asked once per ell; the runs share one conductor
    witness. A run is the record of the values `_certify_run` decides;
    render_runs writes those values in either format without building it."""
    return tuple(_record(form.form_id, *run) for run in _runs(form, ells, root, witness_prime))


# A batch holds at most this many ells. A process builds one batch at a time, its
# text alone in either format (tracemalloc peaks over 958 runs of schoen_s4_25:
# 2.4 MiB in JSON, 1.3 KB a run; 0.6 MiB in text, 242 bytes a run); a forked
# worker spools each text.
_BATCH_ELLS = 1000

# A range is cut into at most this many batches, so that their indices, 4
# bytes each, fit in one write of at most PIPE_BUF bytes, which an empty pipe
# takes whole: 1,024 on Linux, so a batch passes _BATCH_ELLS only beyond
# 1,024,000 ells. 512 is the least PIPE_BUF POSIX allows; a platform without
# it (Windows) has no os.fork either.
_MAX_BATCHES = getattr(select, "PIPE_BUF", 512) // 4


# The JSON templates below, and write_json_list for the report around them,
# write the runs of certify_form and their certificates as json.dumps(envelope,
# default=lambda o: o.to_dict(), sort_keys=True, indent=2, ensure_ascii=True)
# does. Each is written at the nesting a range's report gives it (a run at
# _RUN_INDENT, its certificates 2 and 4 spaces in), each value as JSON or an
# int, a parameter named after its key. render_runs fills them from each run's
# values, no record built: 13.5 and 9.4 us a run with the pipeline on
# schoen_s4_25 and a weight-5 form, against 20.9 and 19.2 from records (Python
# 3.11; BENCH_values.json). What a batch writes once, the conductor's factors
# and violation, json.dumps writes.
_RUN_INDENT = "    "


def _opt(value: int | None) -> str:
    return "null" if value is None else str(value)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _list(texts, indent: str) -> str:
    """The JSON texts `texts` (none empty) as the elements of a list at
    nesting `indent`."""
    inner = indent + "  "
    body = (",\n" + inner).join(texts)
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


def _discriminant_json(ell, verdict, assumed_odd, embedding_root, form, twist_exponent, delta,
                       det_exponent, legendre, p, trace) -> str:
    return (f'{{\n        "ell": {ell},\n        "inputs": {{\n          "assumed_odd": '
            f'{assumed_odd},\n          "embedding_root": {embedding_root},'
            f'\n          "form": {form},\n          "twist_exponent": {twist_exponent}'
            f'\n        }},\n        "method": "{METHOD_DISCRIMINANT}",\n        "verdict": '
            f'{verdict},\n        "witness": {{\n          "delta": {delta},'
            f'\n          "det_exponent": {det_exponent},\n          "legendre": {legendre},'
            f'\n          "p": {p},\n          "trace": {trace}\n        }}\n      }}')


def _trace_json(ell, verdict, embedding_root, extended, form, twist_exponent, excluded, p,
                trace) -> str:
    return (f'{{\n          "ell": {ell},\n          "inputs": {{\n            "embedding_root":'
            f' {embedding_root},\n            "extended": {extended},\n            "form": {form},'
            f'\n            "twist_exponent": {twist_exponent}\n          }},\n          "method": '
            f'"{METHOD_TRACE}",\n          "verdict": {verdict},\n          "witness": {{'
            f'\n            "excluded": {_list(map(str, excluded), " " * 12)},'
            f'\n            "p": {p},\n            "trace": {trace}\n          }}\n        }}')


def _trace_test_json(cert: Certificate) -> str:
    """A trace certificate of certify_form as _trace_json writes it: each
    input and witness value fills the parameter named after its key, so a key
    renamed, missing or extra is a TypeError, never written under another."""
    def fill(embedding_root, extended, form, twist_exponent, **witness) -> str:
        return _trace_json(_opt(cert.ell), encode_basestring_ascii(cert.verdict),
                           _opt(embedding_root), _bool(extended), encode_basestring_ascii(form),
                           _opt(twist_exponent), **witness)
    return fill(**cert.inputs, **cert.witness)


def _conductor_json(ell, verdict, form, conductor, factors, violation) -> str:
    factors, violation = (canonical_json(v)[:-1].replace("\n", "\n" + " " * 10)
                          for v in (factors, violation))
    return (f'{{\n        "ell": {ell},\n        "inputs": {{\n          "form": {form}'
            f'\n        }},\n        "method": "{METHOD_CONDUCTOR}",\n        "verdict": {verdict},'
            f'\n        "witness": {{\n          "conductor": {conductor},\n          "factors": '
            f'{factors},\n          "violation": {violation}\n        }}\n      }}')


def _run(conductor, ell, root, irreducible, tried, notes, proved_irreducible,
         proved_non_elliptic, trace_tests, t) -> str:
    """A run as JSON from its values as JSON, in key order."""
    return (f'{{\n      "conductor": {conductor},\n      "ell": {ell},\n      "embedding_root": '
            f'{root},\n      "irreducible": {irreducible},\n      "irreducible_tried": {tried},'
            f'\n      "notes": {notes},\n      "proved_irreducible": {proved_irreducible},'
            f'\n      "proved_non_elliptic": {proved_non_elliptic},\n      "trace_tests": '
            f'{trace_tests},\n      "twist_exponent": {t}\n    }}')


def render_runs(form: NewformData, root: int | None, witness_prime: int | None, fmt: str,
                ells: list[int]) -> tuple[str, bool]:
    """The runs of certify_form(form, ells, root, witness_prime) as report
    text in `fmt`, JSON elements of "runs" joined by its comma or text lines,
    and whether all were proved. Both are written from the values each run
    decides, no record built, with the form id, the lists of primes tried
    and notes, and the JSON conductor certificate rendered once."""
    as_json = fmt == "json"
    i0, i1 = _RUN_INDENT, _RUN_INDENT + "  "
    form_id = encode_basestring_ascii(form.form_id)
    lists: dict = {}  # (tried, notes) -> their JSON, or their text: the tried list and note lines
    conductor: list[str] = []  # the conductor certificate around its ell, held by a "\0"
    texts, proved = [], True  # JSON: a text per run; text: the lines of every run
    for ell, r, m, t, kept, tried, tests, witness, notes in _runs(form, ells, root, witness_prime):
        if (tried, notes) not in lists:
            lists[tried, notes] = ((_list(map(str, tried), i1),
                                    _list(map(encode_basestring_ascii, notes), i1)) if as_json else
                                   (str(list(tried)), [f"    note: {note}" for note in notes]))
        proved_irreducible = kept is not None and kept[3] == -1
        proved_non_elliptic = (bool(tests) and tests[-1][3] if witness is None
                               else bool(witness["violation"]))
        proved = proved and proved_irreducible and proved_non_elliptic
        if as_json:
            rt = _opt(r)
            irr = "null" if kept is None else _discriminant_json(
                ell, f'"{IRREDUCIBLE if proved_irreducible else INCONCLUSIVE}"', "true", rt,
                form_id, 0, kept[2], m, kept[3], kept[0], kept[1])
            trace_tests = [_trace_json(ell, f'"{NON_ELLIPTIC if ne else INCONCLUSIVE}"', rt,
                                       _bool(p != 2), form_id, t, excluded, p, tr)
                           for p, tr, excluded, ne in tests]
            cert = "null"
            if witness is not None:
                conductor = conductor or _conductor_json(  # JSON escapes any "\0"
                    "\0", f'"{NON_ELLIPTIC if proved_non_elliptic else INCONCLUSIVE}"',
                    form_id, **witness).split("\0")
                cert = f"{conductor[0]}{ell}{conductor[1]}"
            texts.append(_run(cert, ell, rt, irr, *lists[tried, notes], _bool(proved_irreducible),
                              _bool(proved_non_elliptic), _list(trace_tests, i1), _opt(t)))
        else:
            tried_text, note_lines = lists[tried, notes]
            texts.append(f"  ell={ell}" if r is None else f"  ell={ell} root={r}")
            texts.append(f"    irreducible: yes, discriminant witness p={kept[0]} "
                         f"(delta={kept[2]}, legendre={kept[3]})" if proved_irreducible else
                         f"    irreducible: not established (witness primes tried: {tried_text})")
            if t is not None:
                texts.append(f"    twist to determinant chi: exponent {t}")
            if tests and tests[-1][3]:
                p, tr, excluded, _ = tests[-1]
                texts.append(f"    non-elliptic: yes, trace witness p={p} "
                             f"(trace={tr}, excluded={excluded})")
            elif proved_non_elliptic:
                v = witness["violation"]
                texts.append(f"    non-elliptic: yes, conductor {witness['conductor']} "
                             f"violates v_{v['p']} <= {v['bound']} (exponent {v['exponent']})")
            else:
                texts.append("    non-elliptic: not established (all tests inconclusive)")
            texts += note_lines
            texts.append("    overall: proved" if proved_irreducible and proved_non_elliptic
                         else "    overall: inconclusive")
    return (",\n" + i0 if as_json else "\n").join(texts), proved


def batches(ells: list[int], cpus: int) -> list[list[int]]:
    """`ells` cut in order into near-equal batches of at most _BATCH_ELLS, as
    many as a multiple of `cpus` allows, so that each CPU gets the same share
    when all are free; never more batches than ells or _MAX_BATCHES, and
    past _MAX_BATCHES * _BATCH_ELLS ells the batches grow instead."""
    per_cpu = min(-(-len(ells) // (cpus * _BATCH_ELLS)), _MAX_BATCHES // cpus)
    count = min(len(ells), _MAX_BATCHES, cpus * max(per_cpu, 1))
    return [ells[len(ells) * i // count:len(ells) * (i + 1) // count] for i in range(count)]


# A range of fewer runs than this is certified in this process. In four
# interleaved sweeps on 2 CPUs of a shared host (`certify schoen_s4_25` in
# JSON, forked against one process, 10 runs a side at each size, Python 3.11),
# forking lost at 500 runs in all four, won 2 or 3 of 4 at 1,000-2,000, and
# won all four from 3,000 runs up, by 10-22% at 3,000. With another process
# busy-looping, it lost 3-9% at 2,000, was within 4% at 3,000 and 4,000, and
# won by 11-16% from 6,000 (BENCH_fork.json).
POOL_MIN_RUNS = 3000


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 while another thread runs: a
    forked child keeps only the thread that forked, so a lock another thread
    held would stay held in it."""
    if threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# A spool frame is a header, the batch index (4 bytes), the kind (1 byte:
# proved, 0 or 1, or _ERROR) and the body's length (8 bytes), then the body:
# the batch's text in UTF-8, or its error pickled.
_HEAD = 13
_ERROR = 2


def _serve(work, parts: list[list[int]], tasks: int, spool, parent: int | None = None) -> None:
    """Take batch indices, 4 bytes each, from the pipe `tasks` until it is
    empty, and write each batch's result to the file `spool` as one frame;
    an error empties the pipe, so that no new batch starts. A child, given
    its `parent`'s pid, stops once that parent is gone."""
    import pickle

    while (parent is None or os.getppid() == parent) and (index := os.read(tasks, 4)):
        i = int.from_bytes(index, "little")
        try:
            text, kind = work(parts[i])
            body = text.encode("utf-8", "surrogatepass")
        except Exception as exc:
            body, kind = pickle.dumps(exc), _ERROR
            while os.read(tasks, 65536):
                pass
        spool.write(i.to_bytes(4, "little") + bytes([kind]) + len(body).to_bytes(8, "little"))
        spool.write(body)
    spool.flush()


def _read(fd: int, length: int, at: int) -> str:
    """The text of a batch: `length` bytes at `at` in its worker's spool."""
    return os.pread(fd, length, at).decode("utf-8", "surrogatepass")


def _frames(spool):
    """(i, result) for each whole frame in a worker's spool: the error, or
    (text, proved) with the text left in the spool, read by calling it."""
    import pickle

    fd = spool.fileno()
    end, at = os.fstat(fd).st_size, 0
    while at + _HEAD <= end:
        head = os.pread(fd, _HEAD, at)
        body, at = at + _HEAD, at + _HEAD + int.from_bytes(head[5:], "little")
        if at > end:  # cut short by the worker's death
            return
        i, kind = int.from_bytes(head[:4], "little"), head[4]
        yield i, (pickle.loads(os.pread(fd, at - body, body)) if kind == _ERROR
                  else (partial(_read, fd, at - body, body), bool(kind)))


def _fork_map(work, parts: list[list[int]], cpus: int, spools: list) -> list[tuple]:
    """work over the batches `parts`, at most _MAX_BATCHES, in order, in this
    process and cpus - 1 forked children: (text, proved) for each, the text a
    call that reads it from the spool file of the worker that made it. Each
    worker's spool is appended to `spools` for the caller to close once the
    texts are written. Every worker takes the next batch index from one
    pipe, so a CPU busy with other work takes fewer batches. The first error
    in batch order is raised; a batch that no spool holds, as when a child
    dies, gives ChildProcessError. No child outlives the call: each stops
    before its next batch once this process is gone, and on any exception
    here, KeyboardInterrupt included, they are killed. Only this route
    loads pickle."""
    import signal
    import tempfile

    tasks, fill = os.pipe()
    try:
        # at most PIPE_BUF bytes: the write lands whole in the empty pipe
        os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(len(parts))))
    finally:
        os.close(fill)
    children = []
    parent = os.getpid()
    try:
        for _ in range(cpus - 1):
            spools.append(spool := tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                try:
                    _serve(work, parts, tasks, spool, parent)
                finally:
                    os._exit(0)
            children.append(pid)
        spools.append(spool := tempfile.TemporaryFile())
        _serve(work, parts, tasks, spool)
        while children:
            with suppress(ChildProcessError):  # SIGCHLD ignored: waited for, reaped by the kernel
                os.waitpid(children[-1], 0)
            children.pop()
    finally:
        os.close(tasks)
        for pid in children:
            with suppress(ProcessLookupError, ChildProcessError):  # reaped as the interrupt came
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = {}
    for spool in spools:
        results.update(_frames(spool))
    for i in range(len(parts)):
        if i not in results:
            raise ChildProcessError("a certify worker exited before sending its runs")
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(parts))]


def certify_range(
    form: NewformData,
    ells: list[int],
    root: int | None,
    witness_prime: int | None,
    fmt: str,
    out,
) -> bool:
    """Write the report of certify_form's runs over `ells` in `fmt` ("json"
    or "text") to the text stream `out`, and return whether every run was
    proved. This is the one writer of a certify report.
    The ells are certified and rendered in `batches` of consecutive ells:
    by this process and forked children, one worker per CPU (`_fork_map`),
    for at least POOL_MIN_RUNS runs on a platform that forks, when
    `usable_cpus` gives more than one, each worker spooling its batches'
    text to a file that is read back one batch at a time as the report is
    written; else in this process alone. The first error in ell order is
    raised before anything is written."""
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown report format {fmt!r}")
    ells = sorted(set(ells))
    cpus = usable_cpus()
    # one run per ell, or per root of d when a quadratic field's root is not given
    size = len(ells) * (2 if form.d is not None and root is None else 1)
    work = partial(render_runs, form, root, witness_prime, fmt)
    spools = []
    try:
        if cpus < 2 or size < POOL_MIN_RUNS or not hasattr(os, "fork"):
            parts = list(map(work, batches(ells, 1)))
        else:
            parts = _fork_map(work, batches(ells, cpus), cpus, spools)
        proved = all(p for _, p in parts)
        # each batch's text is megabytes: written as it is, never joined, and
        # a spooled one is read only when it is written
        texts = (text if isinstance(text, str) else text() for text, _ in parts)
        if fmt == "json":
            envelope = {"all_proved": proved, "ells": ells, "form": form.form_id, "runs": []}
            write_json_list(out, envelope, "runs", texts)
        else:
            out.write(f"certify form={form.form_id}\n")
            for text in texts:
                out.write(text)
                out.write("\n")
            out.write(f"all proved: {'yes' if proved else 'no'}\n")
    finally:
        for spool in spools:
            spool.close()
    return proved
