"""The paper's bundle: the bundled end-to-end verification of both forms
against the versioned expectations table, and the closed-form scan it
quotes. Everything here is the bundled inputs fed through the `certify`
pipeline plus a diff; nothing proves anything of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import data_io
from .arith import primes_in_range

if TYPE_CHECKING:
    from .checker import Certificate
    from .repmodel import NewformData

_PRODUCT_BITS = 256  # a scan group's product of moduli, in bits: see closed_form_scan


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

    Cross-checks 4 * 2^(ell-3) ≡ 1 (mod ell) throughout (Fermat): for an odd
    ell that is 2^(ell-3) ≡ 4^(-1), with no inverse taken.

    Every ell comes from `primes_in_range`, which is exact (its sieve or
    is_prime is the primality proof), so no ell is tested again. Consecutive
    ells are taken in groups whose product stays near _PRODUCT_BITS bits:
    x = 2^(first-3) mod the product is one `pow`, and r = (x << (ell -
    first)) % ell for each ell of the group. That is exact for any ascending
    integers, prime or not: ell divides the product, so x ≡ 2^(first-3)
    (mod ell), and the shift multiplies by 2^(ell-first).
    """
    if not 5 < ell_min <= ell_max:
        raise ValueError("scan range must satisfy 5 < ell_min <= ell_max")
    holds: list[int] = []
    residues: dict[int, int] = {}
    fermat_ok = True
    primes = primes_in_range(ell_min, ell_max)
    size = _PRODUCT_BITS // primes[-1].bit_length() if primes else 1  # ell < 2^82: size >= 3
    for i in range(0, len(primes), size):
        group = primes[i:i + size]
        first = group[0]
        x = pow(2, first - 3, math.prod(group))
        for ell in group:
            r = (x << (ell - first)) % ell
            if 4 * r % ell != 1:
                fermat_ok = False
            # r < ell, and ell > 5 leaves 1 and 4 as they are: only 9 is reduced
            if r == 1 or r == 4 or r == 9 % ell:
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


@dataclass(frozen=True)
class VerificationReport:
    expectations_version: int
    ell_max: int
    sections: dict
    mismatches: tuple[str, ...]

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

    def write_json(self, out) -> None:
        """Write data_io.canonical_json(self) to the text stream out, 8-9 times as fast
        as json.dumps: each per-ell entry (nearly all of it) from one template and certify's."""
        from .certify import _bool, _cert_json, _opt

        def entry(e: dict) -> str:
            i0, i1 = " " * 8, " " * 10  # per_ell sits at nesting 3, its entries at 4
            disc = ""
            if "discriminant" in e:  # on the discriminant route alone, at times null
                cert = e["discriminant"]
                disc = f'"discriminant": {"null" if cert is None else _cert_json(cert, i1)},\n{i1}'
            trace = "null" if e["trace_test"] is None else _cert_json(e["trace_test"], i1)
            return (f'{{\n{i1}{disc}"ell": {e["ell"]},'
                    f'\n{i1}"irreducible": {_bool(e["irreducible"])},'
                    f'\n{i1}"irreducible_route": "{e["irreducible_route"]}",'
                    f'\n{i1}"trace_test": {trace},'
                    f'\n{i1}"twist_exponent": {_opt(e["twist_exponent"])}\n{i0}}}')

        s4 = self.sections["weight4_level25"]
        sections = self.sections | {"weight4_level25": s4 | {"per_ell": []}}
        data_io.write_json_list(out, self.to_dict() | {"sections": sections}, "per_ell",
                                map(entry, s4["per_ell"]))

    def to_text(self) -> str:
        from .checker import NON_ELLIPTIC  # here, as in full_paper_verification

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


def _diff(path: str, got, want, mismatches: list[str]) -> None:
    """Append `<path>: <got>, expected <want>` to mismatches at each leaf of
    the expectations table `want` where `got`, the observed table in want's
    shape, differs. A dict that got lacks is one leaf."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key, sub in want.items():
            _diff(f"{path}.{key}", got.get(key), sub, mismatches)
    elif got != want:
        mismatches.append(f"{path}: {got}, expected {want}")


def _pinned(cert: Certificate | None) -> dict | None:
    """A discriminant certificate as its pinned_discriminant entry."""
    if cert is None:
        return None
    w = cert.witness
    return {"witness_prime": w["p"], "delta": w["delta"], "legendre": w["legendre"],
            "verdict": cert.verdict}


def full_paper_verification(
    ell_max: int = 1000,
    forms: dict[str, NewformData] | None = None,
    expectations: dict | None = None,
) -> VerificationReport:
    """Certify the bundled forms with `certify_form` and diff what the run
    observed against every leaf of the versioned expectations table. Any
    mismatch makes passed False. An ell_max below 7 is refused."""
    # here, not at the top: `scan` needs only closed_form_scan and arith, and
    # compiles neither the certification engine nor the checker
    from .certify import (certify_form, conductor_bound_test, reducibility_obstruction,
                          serre_bound_predicate)
    from .checker import INCONCLUSIVE, IRREDUCIBLE, NON_ELLIPTIC

    if ell_max < 7:
        raise ValueError(f"ell_max={ell_max} leaves no prime ell > 5 to sample; need ell_max >= 7")
    if expectations is None:
        expectations = data_io.load_expectations()
    if forms is None:
        forms = {
            "weight4_level25": data_io.bundled_form("schoen_s4_25"),
            "weight2_level512": data_io.bundled_form("s2_512_sqrt2"),
        }
    mismatches: list[str] = []

    # --- weight-4 level-25 section ---------------------------------------
    exp4 = expectations["weight4_level25"]
    form4 = forms["weight4_level25"]
    family_cert = reducibility_obstruction(form4, exp4["family_obstruction"]["witness_prime"])
    exceptional = family_cert.witness["exceptional"]  # sorted

    trace_p = exp4["trace_test_witness_prime"]
    inconclusive_exp = set(exp4["trace_inconclusive_ells"])
    per_ell = []
    for run in certify_form(form4, primes_in_range(6, ell_max), witness_prime=trace_p):
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
        # the per-ell verdicts have no table leaf: each is checked here
        if not entry["irreducible"]:
            mismatches.append(f"ell={run.ell}: irreducibility not certified")
        expected_verdict = INCONCLUSIVE if run.ell in inconclusive_exp else NON_ELLIPTIC
        if entry["trace_test"] is None:
            mismatches.append(f"ell={run.ell}: no trace test at p={trace_p}")
        elif entry["trace_test"].verdict != expected_verdict:
            mismatches.append(
                f"ell={run.ell}: trace test {entry['trace_test'].verdict}, "
                f"expected {expected_verdict}"
            )

    scan = closed_form_scan(exp4["scan"]["ell_min"], exp4["scan"]["ell_max"])

    section4 = {
        "form": form4.form_id,
        "family_obstruction": family_cert,
        "family_note": _FAMILY_NOTE,
        "exceptional": exceptional,
        "per_ell": per_ell,
        "scan": scan,
        "scan_text": scan.to_text(),
    }

    # the rest is one observed table in the expectations' shape
    sampled = {e["ell"]: e for e in per_ell}
    pinned4 = {ell: pin for ell, pin in exp4["pinned_discriminant"].items() if int(ell) in sampled}
    want4 = exp4 | {
        "family_obstruction": exp4["family_obstruction"] | {"verdict": IRREDUCIBLE},
        "pinned_discriminant": {k: pin | {"verdict": IRREDUCIBLE} for k, pin in pinned4.items()},
        "scan": exp4["scan"] | {"fermat_ok": True},
    }
    del want4["trace_inconclusive_ells"]  # checked per ell above
    w = family_cert.witness
    _diff("weight4_level25", {
        "form": form4.form_id,
        "family_obstruction": {"witness_prime": w["p"], "M": w["M"], "factors": w["factors"],
                               "exceptional": exceptional, "verdict": family_cert.verdict},
        "trace_test_witness_prime": trace_p,
        "pinned_discriminant": {ell: _pinned(sampled[int(ell)].get("discriminant"))
                                for ell in pinned4},
        "scan": {"ell_min": scan.ell_min, "ell_max": scan.ell_max, "holds": list(scan.holds),
                 "fermat_ok": scan.fermat_ok},
    }, want4, mismatches)

    # --- weight-2 level-512 section ---------------------------------------
    exp2 = expectations["weight2_level512"]
    form2 = forms["weight2_level512"]
    ell2 = exp2["split"]["ell"]
    disc_exp = exp2["pinned_discriminant"]
    runs2 = certify_form(form2, [ell2], witness_prime=disc_exp["witness_prime"])
    roots = [run.embedding_root for run in runs2]
    disc_certs = {}
    for run in runs2:  # a missing certificate has no table leaf either
        if run.irreducible is None:
            mismatches.append(f"root_{run.embedding_root}: no discriminant certificate "
                              f"at p={disc_exp['witness_prime']}")
        else:
            disc_certs[f"root_{run.embedding_root}"] = run.irreducible

    conductor_certs = {n_str: conductor_bound_test(int(n_str), ell=ell2, form_id=form2.form_id)
                       for n_str in exp2["conductor_violations"]}

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

    violations = {n_str: c.witness["violation"] for n_str, c in conductor_certs.items()}
    _diff("weight2_level512", {
        "form": form2.form_id,
        "split": section2["split"],
        "pinned_discriminant": {key: _pinned(c) for key, c in disc_certs.items()},
        "conductor_violations": {n_str: [v["p"], v["exponent"], v["bound"]] if v else None
                                 for n_str, v in violations.items()},
        "serre_predicate": serre,
    }, exp2 | {
        "pinned_discriminant": {key: disc_exp | {"verdict": IRREDUCIBLE} for key in disc_certs},
    }, mismatches)

    return VerificationReport(
        expectations_version=expectations["version"],
        ell_max=ell_max,
        sections={"weight4_level25": section4, "weight2_level512": section2},
        mismatches=tuple(mismatches),
    )
