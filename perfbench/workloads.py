"""Seeded workloads for the nonelliptic benchmark and the gates that check
every CLI output.

A workload is one round of CLI invocations (``Op``).  The seed shapes only the
inputs: generated form files, the ells drawn for single-ell invocations, the
curves handed to ``falsify`` and the order of the census primes.  The CLI sees
ordinary files and flags.  No invocation passes ``--workers`` or ``--cap``:
both are slated for removal, and the benchmark must outlive them.

Every gate recomputes what it can from the input data with its own arithmetic
(a sieve, Euler's criterion, brute-force point counts) instead of trusting the
program; certificates in JSON reports also go through ``check()``.  A gate
returns ``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = "src/nonelliptic/data"
SCHOEN = f"{DATA}/schoen_s4_25.json"
SQRT2 = f"{DATA}/s2_512_sqrt2.json"

WHY = {
    "certify_range": "ell-range certify in JSON on the bundled and a generated form: "
                     "the proving pipeline (certify, repmodel) and the JSON report writer",
    "cli_mix": "short fresh-process invocations: start-up, import and schema validation set "
               "the median, the linear root search for large split ell sets the tail",
    "census": "oracle P for P in 5..17: the only workload where the trace-set census does "
              "the work; certify and data_io are bypassed",
    "scan_wide": "scan 7..10^6: the sieve, mod_pow/mod_inv and the Residue wrapper "
                 "re-proving primality dominate (arith)",
}


@dataclass
class Op:
    """One CLI invocation and the gate its output must pass."""

    kind: str
    argv: list[str]
    ells: int  # primes this invocation handles, for ells_per_s
    gate: Callable[[int, bytes, bytes], str | None] = field(repr=False)
    stderr_ok: bool = False  # only an expected rejection may write to stderr


# ---------------------------------------------------------------------------
# independent arithmetic for the generator and the gates
# ---------------------------------------------------------------------------

def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def legendre(a: int, ell: int) -> int:
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


def excluded_traces(p: int, ell: int) -> list[int]:
    """Hasse interval at p plus the level-raising values, reduced mod ell."""
    bound = math.isqrt(4 * p)
    out = {t % ell for t in range(-bound, bound + 1)} | {(p + 1) % ell, -(p + 1) % ell}
    return sorted(out)


def det_chi_twist(m: int, ell: int) -> int:
    """Smallest t >= 0 with m + 2t = 1 (mod ell-1), for odd m: the solutions
    are t = (1-m)/2 modulo (ell-1)/2."""
    return ((1 - m) // 2) % ((ell - 1) // 2)


CONDUCTOR_BOUNDS = {2: 8, 3: 5}  # v_p(N) of an elliptic curve over Q; 2 for p > 3


def weierstrass_disc(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def frobenius_trace(p: int, a: tuple[int, ...]) -> int:
    a1, a2, a3, a4, a6 = a
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
    )
    return p - affine  # p + 1 - (affine + 1)


class FormData:
    """The eigenvalue data of a FormRecord file, read without the package."""

    def __init__(self, path: str):
        rec = json.loads((ROOT / path).read_text())
        self.path = path
        self.id = rec["id"]
        self.level = rec["level"]
        self.weight = rec["weight"]
        self.d = rec["field"].get("d")
        self.a = {int(p): (v["x"], v["y"]) for p, v in rec["eigenvalues"].items()}

    def trace(self, p: int, ell: int, root: int | None) -> int:
        x, y = self.a[p]
        return (x + y * (root or 0)) % ell


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _valuation(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def _exit(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_certify_run(form: FormData, run: dict, check) -> str | None:
    """One per-ell run of a JSON certify report: check() on every
    certificate, each recorded trace bound to the form data, and the proved
    flags consistent with the certificates."""
    ell, root = run["ell"], run["embedding_root"]
    m = (form.weight - 1) % (ell - 1)
    certs = list(run["trace_tests"])
    irr = run["irreducible"]
    if irr:
        certs.append(irr)
        w = irr["witness"]
        if w["trace"] != form.trace(w["p"], ell, root) or w["det_exponent"] != m:
            return f"ell={ell}: discriminant witness not bound to {form.id}"
    for c in run["trace_tests"]:
        w = c["witness"]
        want = form.trace(w["p"], ell, root) * pow(w["p"], run["twist_exponent"], ell) % ell
        if w["trace"] != want:
            return f"ell={ell}: twisted trace at p={w['p']} is {w['trace']}, form gives {want}"
    if run["conductor"]:
        certs.append(run["conductor"])
        if run["conductor"]["witness"]["conductor"] != form.level:
            return f"ell={ell}: conductor certificate is not about the level"
    for c in certs:
        if c["ell"] != ell or not check(c):
            return f"ell={ell}: {c['method']} certificate fails check()"
    proved_irr = bool(irr) and irr["verdict"] == "Irreducible"
    proved_ne = any(c["verdict"] == "NonElliptic" for c in run["trace_tests"]) or (
        bool(run["conductor"]) and run["conductor"]["verdict"] == "NonElliptic"
    )
    if (proved_irr, proved_ne) != (run["proved_irreducible"], run["proved_non_elliptic"]):
        return f"ell={ell}: proved flags disagree with the certificates"
    return None


def certify_json_gate(form: FormData, ells: list[int], pinned: dict | None, check):
    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        try:
            rep = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if rep["form"] != form.id or rep["ells"] != ells or len(rep["runs"]) != len(ells):
            return "report does not cover the requested ells"
        for ell, run in zip(ells, rep["runs"]):
            if run["ell"] != ell:
                return f"run for ell={run['ell']} out of order"
            why = check_certify_run(form, run, check)
            if why:
                return why
        all_proved = all(r["proved_irreducible"] and r["proved_non_elliptic"] for r in rep["runs"])
        if rep["all_proved"] != all_proved:
            return "all_proved disagrees with the runs"
        if pinned is not None:
            flags = [(r["proved_irreducible"], r["proved_non_elliptic"]) for r in rep["runs"]]
            got = {"proved": flags.count((True, True)),
                   "irreducible_open": flags.count((False, True)),
                   "neither": [e for e, f in zip(ells, flags) if f == (False, False)]}
            if got != pinned:
                return f"verdict counts {got}, expected {pinned}"
        return _exit(rc, 0 if all_proved else 2)
    return gate


_HEAD = re.compile(r"^  ell=(\d+)(?: root=(\d+))?$")
_IRR = re.compile(r"^    irreducible: yes, discriminant witness p=(\d+) \(delta=(\d+), legendre=(-?\d+)\)$")
_TWIST = re.compile(r"^    twist to determinant chi: exponent (\d+)$")
_COND = re.compile(r"^    non-elliptic: yes, conductor (\d+) violates v_(\d+) <= (\d+) \(exponent (\d+)\)$")
_NE = re.compile(r"^    non-elliptic: yes, trace witness p=(\d+) \(trace=(\d+), excluded=\[([\d, ]*)\]\)$")


def certify_text_gate(form: FormData, ell: int):
    """Text report for one ell: every witness line re-derived from the form."""
    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        lines = out.decode().splitlines()
        if not lines or lines[0] != f"certify form={form.id}":
            return "missing report header"
        blocks: list[list[str]] = []
        for line in lines[1:-1]:
            if _HEAD.match(line):
                blocks.append([])
            if not blocks:
                return f"unexpected line {line!r}"
            blocks[-1].append(line)
        roots = [int(r) if (r := _HEAD.match(b[0]).group(2)) else None for b in blocks]
        if form.d is None and roots != [None]:
            return f"{len(blocks)} runs, expected one"
        if form.d and not (len(roots) == 2 and None not in roots and roots[0] < roots[1]
                           and all((r * r - form.d) % ell == 0 for r in roots)):
            return f"roots {roots} are not both square roots of {form.d} mod {ell}"
        m = (form.weight - 1) % (ell - 1)
        all_proved = True
        for block, root in zip(blocks, roots):
            if _HEAD.match(block[0]).group(1) != str(ell):
                return "run for the wrong ell"
            irr = ne = False
            t = None
            for line in block[1:]:
                if mt := _TWIST.match(line):
                    t = int(mt.group(1))
                    if t != det_chi_twist(m, ell):
                        return f"twist exponent {t} does not give determinant chi"
                elif mi := _IRR.match(line):
                    p, delta, sym = map(int, mi.groups())
                    tr = form.trace(p, ell, root)
                    if delta != (tr * tr - 4 * pow(p, m, ell)) % ell or sym != legendre(delta, ell) or sym != -1:
                        return f"ell={ell}: discriminant witness at p={p} is wrong"
                    irr = True
                elif mn := _NE.match(line):
                    p, tr = int(mn.group(1)), int(mn.group(2))
                    excl = [int(x) for x in mn.group(3).split(", ")]
                    if t is None or tr != form.trace(p, ell, root) * pow(p, t, ell) % ell:
                        return f"ell={ell}: trace witness at p={p} not bound to {form.id}"
                    if excl != excluded_traces(p, ell) or tr in excl:
                        return f"ell={ell}: trace {tr} is not outside the excluded set"
                    ne = True
                elif mc := _COND.match(line):
                    n, q, bound, e = map(int, mc.groups())
                    if ne or n != form.level or e != _valuation(n, q) or bound != CONDUCTOR_BOUNDS.get(q, 2) or e <= bound:
                        return f"ell={ell}: conductor verdict is wrong"
                    ne = True
            want = "    overall: " + ("proved" if irr and ne else "inconclusive")
            if block[-1] != want:
                return f"ell={ell}: {block[-1].strip()!r}, expected {want.strip()!r}"
            all_proved &= irr and ne
        if lines[-1] != f"all proved: {'yes' if all_proved else 'no'}":
            return "summary line disagrees with the runs"
        return _exit(rc, 0 if all_proved else 2)
    return gate


def inert_gate(ell: int):
    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        msg = err.decode()
        if out or not msg.startswith("error: inert prime: ") or f" {ell} is inert" not in msg:
            return "inert ell not rejected with the inert-prime message"
        return _exit(rc, 1)
    return gate


def verify_paper_gate(rc: int, out: bytes, err: bytes) -> str | None:
    text = out.decode()
    if "\noverall: PASS\n" not in text or not text.endswith("mismatches: none\n"):
        return "verify-paper did not pass"
    return _exit(rc, 0)


def falsify_gate(form: FormData, curve: tuple[int, ...], ell: int):
    """The first good prime where the curve's brute-force trace and the
    determinant-chi twist of the form disagree mod ell."""
    m = (form.weight - 1) % (ell - 1)
    t = det_chi_twist(m, ell)
    disc = weierstrass_disc(*curve)
    compared, witness = [], None
    for p in sorted(form.a):
        if p == ell or disc % p == 0:
            continue
        compared.append(p)
        ct, rt = frobenius_trace(p, curve), form.trace(p, ell, None) * pow(p, t, ell) % ell
        if ct % ell != rt:
            witness = (p, ct, rt, ell)
            break
    want = (f"witness at p={witness[0]}: curve trace {witness[1]} != {witness[2]} (mod {witness[3]})"
            if witness else f"no witness found (not a proof of isomorphism; compared p in {compared})")

    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        if out.decode() != want + "\n":
            return f"falsify printed {out.decode().strip()!r}, expected {want!r}"
        return _exit(rc, 0 if witness else 2)
    return gate


def census_gate(p: int):
    bound = math.isqrt(4 * p)
    want = {"p": p, "cap": p, "traces": list(range(-bound, bound + 1))}

    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if got != want:
            return f"trace set over F_{p} is not the Hasse interval"
        return _exit(rc, 0)
    return gate


def scan_gate(lo: int, hi: int):
    primes = [q for q in primes_upto(hi) if q >= lo]
    want = {
        "ell_min": lo, "ell_max": hi, "scanned": len(primes),
        "membership_holds": [7] if lo <= 7 else [], "hold_residues": {"7": 2} if lo <= 7 else {},
        "fermat_crosscheck_ok": True,
    }

    def gate(rc: int, out: bytes, err: bytes) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if got != want:
            return f"scan report {got} differs from {want}"
        return _exit(rc, 0)
    return gate


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def generated_form(rng: random.Random, form_id: str) -> dict:
    """A rational FormRecord that no ell >= 7 rejects: the level is
    2^a 3^b 5^c (no bad reduction), the weight is 3 or 5 (so (k-1) mod (ell-1)
    never vanishes) and every a_p lies within the Ramanujan bound.

    Every seed takes the same path at every ell, so the workload's cost does
    not depend on the seed: the weight is odd, so the determinant exponent
    k-1 is even and there is no determinant-chi twist, and the claimed
    conductor equality sends each ell through conductor_bound_test and
    trial_factor, whose verdict is always the violation v_2 = a > 8 (the
    bundled form covers the twist and the trace test).  Under weight 2 the
    Ramanujan bound is the Hasse bound, every trace test is inconclusive and
    the report grows fivefold."""
    level = 2 ** rng.randint(9, 10) * 3 ** rng.randint(1, 6) * 5 ** rng.randint(1, 3)
    weight = rng.choice((3, 5))
    good = [7, 11, 13, 17, 19]
    eigen = {}
    for p in good:
        bound = math.isqrt(4 * p ** (weight - 1))
        eigen[str(p)] = {"x": rng.randint(-bound, bound), "y": 0}
    return {
        "id": form_id, "level": level, "weight": weight, "field": {"type": "rational"},
        "eigenvalues": eigen, "claimed_conductor_equality": True,
        "notes": "generated by the benchmark",
    }


def _prime_near(x: float, ok, lo: int, hi: int) -> int:
    """The first prime at or above x (else below) in [lo, hi] satisfying ok."""
    n = min(max(int(x), lo), hi)
    for cand in itertools.chain(range(n, hi + 1), range(n - 1, lo - 1, -1)):
        if ok(cand) and is_prime(cand):
            return cand
    raise ValueError(f"no prime in [{lo}, {hi}]")


def stratified_ells(rng, n: int, lo: int, hi: int, ok) -> list[int]:
    """n ells log-uniform over [lo, hi], one per equal-width log stratum, so
    that the cost profile (the root search is linear in ell) hardly varies
    from seed to seed."""
    a, b = math.log(lo), math.log(hi)
    return [_prime_near(math.exp(a + (b - a) * (i + rng.random()) / n), ok, lo, hi)
            for i in range(n)]


def random_curve(rng, ell: int, good: list[int]) -> tuple[int, ...]:
    """A nonsingular curve over Q with good reduction at one of `good` \\ {ell}."""
    while True:
        curve = tuple(rng.randint(-6, 6) for _ in range(5))
        disc = weierstrass_disc(*curve)
        if disc and any(disc % p for p in good if p != ell):
            return curve


# CLI wall time of one round at full size on the reference machine (2 CPUs,
# Python 3.11): --seconds S runs round(S / ROUND_S) rounds.
ROUND_S = {"certify_range": 3.0, "cli_mix": 5.0, "census": 6.0, "scan_wide": 3.0}

FULL = {
    "certify_range": {"ell_max": 100_000, "pinned": {"proved": 9007, "irreducible_open": 581, "neither": [7]}},
    "cli_mix": {"split": 10, "inert": 2, "rational": 3, "falsify": 3, "ell_max": 2_000_000},
    "census": {"primes": [5, 7, 11, 13, 17]},
    "scan_wide": {"ell_max": 1_000_000},
}

QUICK = {
    "certify_range": {"ell_max": 400, "pinned": None},
    "cli_mix": {"split": 2, "inert": 1, "rational": 1, "falsify": 1, "ell_max": 5000},
    "census": {"primes": [5, 7]},
    "scan_wide": {"ell_max": 3000},
}


def build(name: str, seed: int, inputs: Path, check, size: dict | None = None) -> list[Op]:
    """One round of the workload `name` for `seed`; generated files go to
    `inputs`.  `check` is the package's certificate checker."""
    cfg = (size or FULL)[name]
    rng = random.Random(f"{name}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)

    if name == "certify_range":
        gen = inputs / f"gen_{seed}.json"
        gen.write_text(json.dumps(generated_form(rng, f"gen_{seed}"), indent=2) + "\n")
        ells = [q for q in primes_upto(cfg["ell_max"]) if q >= 7]
        rng_flags = ["--format", "json", "--ell-min", "7", "--ell-max", str(cfg["ell_max"])]
        forms = [(FormData(SCHOEN), cfg["pinned"]),
                 (FormData(str(gen.relative_to(ROOT))), None)]
        return [Op("certify_range", ["certify", "-i", f.path, *rng_flags], len(ells),
                   certify_json_gate(f, ells, pinned, check))
                for f, pinned in forms]

    if name == "cli_mix":
        hi = cfg["ell_max"]
        sqrt2, schoen = FormData(SQRT2), FormData(SCHOEN)
        ops = []
        for ell in stratified_ells(rng, cfg["split"], 17, hi, lambda q: q % 8 in (1, 7)):
            ops.append(Op("certify_split", ["certify", "-i", SQRT2, "--ell", str(ell)], 1,
                          certify_text_gate(sqrt2, ell)))
        for ell in stratified_ells(rng, cfg["inert"], 11, hi, lambda q: q % 8 in (3, 5)):
            ops.append(Op("certify_inert", ["certify", "-i", SQRT2, "--ell", str(ell)], 1,
                          inert_gate(ell), stderr_ok=True))
        for ell in stratified_ells(rng, cfg["rational"], 7, hi, lambda q: True):
            ops.append(Op("certify_rational", ["certify", "-i", SCHOEN, "--ell", str(ell)], 1,
                          certify_text_gate(schoen, ell)))
        for ell in stratified_ells(rng, cfg["falsify"], 7, hi, lambda q: True):
            curve = random_curve(rng, ell, sorted(schoen.a))
            # "--curve=" keeps a leading minus sign from reading as an option
            ops.append(Op("falsify", ["falsify", "--curve=" + ",".join(map(str, curve)),
                                      "-i", SCHOEN, "--ell", str(ell)], 1,
                          falsify_gate(schoen, curve, ell)))
        # the default sample of verify-paper: the primes 5 < ell <= 1000
        ops.append(Op("verify_paper", ["verify-paper"], len(primes_upto(1000)) - 3,
                      verify_paper_gate))
        rng.shuffle(ops)
        return ops

    if name == "census":
        primes = list(cfg["primes"])
        rng.shuffle(primes)
        return [Op("oracle", ["oracle", str(p), "--format", "json"], 1, census_gate(p))
                for p in primes]

    if name == "scan_wide":
        hi = cfg["ell_max"]
        return [Op("scan", ["scan", "7", str(hi), "--format", "json"],
                   len(primes_upto(hi)) - 3, scan_gate(7, hi))]

    raise KeyError(name)
