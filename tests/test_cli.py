import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import nonelliptic
from nonelliptic.arith import primes_in_range
from nonelliptic.cli import main
from nonelliptic.data_io import SchemaError, parse_form

SCHOEN = str(resources.files("nonelliptic.data").joinpath("schoen_s4_25.json"))
SQRT2 = str(resources.files("nonelliptic.data").joinpath("s2_512_sqrt2.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_paper_default(capsys):
    code, out, _ = run(capsys, "verify-paper", "--ell-max", "100")
    assert code == 0
    assert "overall: PASS" in out
    assert "M=1375" in out
    assert "conductor 512" in out


def test_verify_paper_ell_max_7(capsys):
    code, out, _ = run(capsys, "verify-paper", "--ell-max", "7")
    assert code == 0
    assert "inconclusive at [7]" in out
    assert "NonElliptic" in out or "conductor 512" in out  # the weight-2 route


@pytest.mark.parametrize("ell_max", ["5", "0"])
def test_verify_paper_refuses_an_empty_sample(capsys, ell_max):
    # no prime 5 < ell <= ell_max, so no per-ell expectation could be compared
    code, out, err = run(capsys, "verify-paper", "--ell-max", ell_max)
    assert (code, out) == (1, "")
    assert err == (f"error: ell_max={ell_max} leaves no prime ell > 5 to sample; "
                   "need ell_max >= 7\n")


def test_verify_paper_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--ell-max", "50", "--format", "json")
    code2, out2, _ = run(capsys, "verify-paper", "--ell-max", "50", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_paper_identical_across_runs(capsys, fmt):
    first = run(capsys, "verify-paper", "--ell-max", "80", "--format", fmt)
    second = run(capsys, "verify-paper", "--ell-max", "80", "--format", fmt)
    assert first == second
    assert first[0] == 0


def test_certify_weight4_at_11(capsys):
    code, out, _ = run(capsys, "certify", "-i", SCHOEN, "--ell", "11")
    assert code == 0
    assert "irreducible: yes, discriminant witness p=2 (delta=2" in out
    assert "trace witness p=2 (trace=5" in out


def test_certify_weight4_at_7_inconclusive(capsys):
    code, out, _ = run(capsys, "certify", "-i", SCHOEN, "--ell", "7")
    assert code == 2
    assert "inconclusive" in out


def test_certify_weight2_at_7(capsys):
    code, out, _ = run(capsys, "certify", "-i", SQRT2, "--ell", "7")
    assert code == 0
    assert "root=3" in out and "root=4" in out
    assert "conductor 512 violates v_2 <= 8" in out


def test_certify_inert_prime_distinct_error(capsys):
    code, _, err = run(capsys, "certify", "-i", SQRT2, "--ell", "11")
    assert code == 1
    assert "inert" in err


def test_certify_bad_reduction_error(tmp_path, capsys):
    level49 = tmp_path / "level49.json"
    level49.write_text(
        '{"id": "t", "level": 49, "weight": 2, "field": {"type": "rational"}, '
        '"eigenvalues": {"2": {"x": 1, "y": 0}}}'
    )
    code, _, err = run(capsys, "certify", "-i", str(level49), "--ell", "7")
    assert code == 1
    assert "bad reduction" in err


def test_certify_rejects_small_ell(capsys):
    code, _, err = run(capsys, "certify", "-i", SCHOEN, "--ell", "5")
    assert code == 1
    assert "prime > 5" in err


def test_certify_range(capsys):
    code, out, _ = run(capsys, "certify", "-i", SCHOEN, "--ell-min", "11",
                       "--ell-max", "23")
    assert code == 0
    for ell in (11, 13, 17, 19, 23):
        assert f"ell={ell}" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certify_range_identical_across_runs(capsys, fmt):
    argv = ("certify", "-i", SCHOEN, "--ell-min", "11", "--ell-max", "31",
            "--format", fmt)
    first = run(capsys, *argv)
    assert first == run(capsys, *argv)
    assert first[0] == 0


# sha256 of each report as written before the direct JSON writer replaced
# json.dumps(indent=2), and before the text report read run objects instead
# of dicts: the bytes must not move. Together the text reports take every
# branch of CertifyReport.to_text (irreducibility not established, notes,
# the trace route, the conductor route).
PINNED_CERTIFY_REPORTS = [
    (SCHOEN, "3000", "json", "dbec122deac1817d6af849b3171316e3e933719b944084a38a7364f660ea363d"),
    (SCHOEN, "3000", "text", "125e38c61a97b6a24a7c7037b65272518975b61bc272a827b4409bb3590ebdb6"),
    (SQRT2, "200", "json", "07aab601c553eeefa59f0641d6098c08e15d2bea2f5b2c2ef53ac582943c8c9b"),
    (SQRT2, "200", "text", "a93414284c0c56205f24c718f83810cee9a9d8c9f85db3d0aa19e0b7d0bde2da"),
]


@pytest.mark.parametrize(
    "form,ell_max,fmt,sha256", PINNED_CERTIFY_REPORTS,
    ids=[f"{Path(f).stem}-7..{m}-{fmt}" for f, m, fmt, _ in PINNED_CERTIFY_REPORTS],
)
def test_certify_range_report_bytes_pinned(capsys, form, ell_max, fmt, sha256):
    code, out, err = run(capsys, "certify", "-i", form, "--ell-min", "7",
                         "--ell-max", ell_max, "--format", fmt)
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_certify_range_over_quadratic_field_takes_split_ells(capsys):
    code, out, err = run(capsys, "certify", "-i", SQRT2, "--ell-min", "7",
                         "--ell-max", "200", "--format", "json")
    assert code in (0, 2) and err == ""
    report = json.loads(out)
    split = [ell for ell in primes_in_range(7, 200) if pow(2, (ell - 1) // 2, ell) == 1]
    assert report["ells"] == split == [7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97,
                                       103, 113, 127, 137, 151, 167, 191, 193, 199]
    assert [r["ell"] for r in report["runs"]] == [ell for ell in split for _ in (0, 1)]
    # each run is the one a single --ell gives
    _, single, _ = run(capsys, "certify", "-i", SQRT2, "--ell", "23", "--format", "json")
    assert json.loads(single)["runs"] == [r for r in report["runs"] if r["ell"] == 23]


@pytest.mark.parametrize("path,asks", [(SQRT2, 64), (SCHOEN, 87)], ids=["sqrt2", "schoen"])
def test_certify_range_asks_the_rule_once_per_prime_and_run(monkeypatch, capsys, path, asks):
    # [7, 200] holds 43 primes: the range filter asks the rule once for each,
    # the run count once more, and the pipeline once per admitted ell (20 of
    # them split in Q(sqrt(2)); all 43 are admitted over Q)
    import nonelliptic.repmodel as repmodel

    asked = []
    rule = repmodel.refusal
    monkeypatch.setattr(repmodel, "refusal",
                        lambda form, ell, root=None: asked.append(ell) or rule(form, ell, root))
    _, _, err = run(capsys, "certify", "-i", path, "--ell-min", "7", "--ell-max", "200")
    assert err == ""
    assert len(asked) == asks


def test_certify_range_without_split_ell_exits_1(capsys):
    code, out, err = run(capsys, "certify", "-i", SQRT2, "--ell-min", "11",
                         "--ell-max", "13")
    assert (code, out) == (1, "")
    assert err == "error: no prime in [11, 13] splits in Q(sqrt(2))\n"


def test_certify_range_rejects_small_ell(capsys):
    code, out, err = run(capsys, "certify", "-i", SCHOEN, "--ell-min", "2",
                         "--ell-max", "30")
    assert (code, out, err) == (1, "", "error: ell=2 must be a prime > 5\n")


@pytest.mark.parametrize("bounds", [["--ell-min", "3", "--ell-max", "5"], ["--ell-min", "3"],
                                    ["--ell-max", "5"]], ids=["both", "min", "max"])
def test_certify_refuses_ell_with_a_range_bound(capsys, bounds):
    # --ell used to win silently over the range
    code, out, err = run(capsys, "certify", "-i", SCHOEN, "--ell", "11", *bounds)
    assert (code, out, err) == (1, "", "error: give either --ell or both --ell-min "
                                       "and --ell-max\n")


def _rational_form(tmp_path, level, weight):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({
        "id": "t", "level": level, "weight": weight, "field": {"type": "rational"},
        "eigenvalues": {"2": {"x": 1, "y": 0}, "5": {"x": 2, "y": 0}},
    }))
    return str(path)


@pytest.mark.parametrize("level,weight,ell_max,skipped", [
    (77, 2, 50, {7, 11}),  # 7 and 11 divide the level
    (3, 7, 20, {7}),  # (7-1) divides k-1 = 6
], ids=["bad-reduction", "vanishing-determinant"])
def test_certify_range_skips_ells_the_recipe_excludes(tmp_path, capsys, level, weight,
                                                      ell_max, skipped):
    form = _rational_form(tmp_path, level, weight)
    code, out, err = run(capsys, "certify", "-i", form, "--ell-min", "7",
                         "--ell-max", str(ell_max), "--format", "json")
    assert (code, err) == (2, "")
    want = [ell for ell in primes_in_range(7, ell_max) if ell not in skipped]
    assert json.loads(out)["ells"] == want


def test_certify_range_with_every_ell_excluded(tmp_path, capsys):
    form = _rational_form(tmp_path, 77, 2)
    code, out, err = run(capsys, "certify", "-i", form, "--ell-min", "7",
                         "--ell-max", "12")
    assert (code, out) == (1, "")
    assert err == ("error: every prime in [7, 12] divides the level 77 or has "
                   "(ell-1) dividing k-1 = 1\n")


# Each error a single --ell can end with, and the range message of the same reason.
RANGE_MESSAGE_OF = {
    "bad reduction prime": "every prime in [{ell}, {ell}] divides the level {level} or has "
                           "(ell-1) dividing k-1 = {k1}",
    "determinant exponent": "every prime in [{ell}, {ell}] divides the level {level} or has "
                            "(ell-1) dividing k-1 = {k1}",
    "inert prime": "no prime in [{ell}, {ell}] splits in Q(sqrt({d}))",
    "ramified prime": "no prime in [{ell}, {ell}] splits in Q(sqrt({d}))",
}


@pytest.mark.parametrize("level,weight,d", [
    (512, 11, 2),  # 11 is inert and has (11-1) | (k-1): refused for both reasons
    (77, 7, 2),  # 7 divides the level and has (7-1) | (k-1); 11 divides it and is inert
    (3, 7, None),
    (77, 13, None),
    (10, 13, 7),  # 7 is ramified and has (7-1) | (k-1); so has the split 13
    (9, 5, 7),  # 7 is ramified only
])
def test_a_single_ell_is_refused_exactly_when_a_one_prime_range_drops_it(
        tmp_path, capsys, level, weight, d):
    p = next(p for p in (2, 3, 5) if level % p)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({
        "id": "t", "level": level, "weight": weight,
        "field": {"type": "rational"} if d is None else {"type": "quadratic", "d": d},
        "eigenvalues": {str(p): {"x": 1, "y": 0 if d is None else 1}},
    }))
    refused = set()
    for ell in primes_in_range(7, 199):
        single = run(capsys, "certify", "-i", str(path), "--ell", str(ell), "--format", "json")
        ranged = run(capsys, "certify", "-i", str(path), "--ell-min", str(ell),
                     "--ell-max", str(ell), "--format", "json")
        if single[0] != 1:
            assert ranged == single, ell
            continue
        refused.add(ell)
        (message,) = (m for r, m in RANGE_MESSAGE_OF.items() if single[2].startswith(f"error: {r}"))
        want = message.format(ell=ell, level=level, k1=weight - 1, d=d)
        assert ranged == (1, "", f"error: {want}\n"), (ell, single)
    assert refused  # each form is refused somewhere in the range


def test_certify_unfactorable_level_exits_quickly(tmp_path, capsys):
    # the level is the product of two primes above the trial-division bound;
    # at ell = 7 the trace test is inconclusive, so the conductor is needed
    probe = json.loads(Path(SCHOEN).read_text())
    probe.update(id="probe", level=1000000007 * 1000000009,
                 claimed_conductor_equality=True)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe))
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "-i", str(path), "--ell", "7")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot factor 1000000016000000063")


@pytest.mark.parametrize("level,line", [
    (1000003**2, "    non-elliptic: not established (all tests inconclusive)"),
    (1000003**3, "    non-elliptic: yes, conductor 1000009000027000027 violates "
                 "v_1000003 <= 2 (exponent 3)"),
], ids=["square", "cube"])
def test_certify_prime_power_level_above_the_bound(tmp_path, capsys, level, line):
    # the conductor is needed at ell = 7, and its one prime is above 10^6;
    # irreducibility at 7 stays unproved, so both exit 2
    probe = json.loads(Path(SCHOEN).read_text())
    probe.update(id="probe", level=level, claimed_conductor_equality=True)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe))
    got, out, err = run(capsys, "certify", "-i", str(path), "--ell", "7")
    assert (got, err) == (2, "")
    assert line in out.splitlines()


ROOT_OVER_Q = ("--root 3 given, but form schoen_s4_25 has a rational "
               "coefficient field, which takes no embedding")


@pytest.mark.parametrize("argv", [
    ("-i", SCHOEN, "--ell", "11"),
    ("-i", SCHOEN, "--ell-min", "7", "--ell-max", "50"),
], ids=["single", "range"])
def test_certify_refuses_a_root_over_a_rational_form(capsys, argv):
    assert run(capsys, "certify", *argv, "--root", "3") == (1, "", f"error: {ROOT_OVER_Q}\n")


@pytest.mark.parametrize("p", ["4", "1", "-3"])
def test_certify_refuses_a_witness_prime_that_is_not_prime(capsys, p):
    assert run(capsys, "certify", "-i", SCHOEN, "--ell", "11", "--witness-prime", p) == (
        1, "", f"error: --witness-prime {p} is not prime\n")


def test_certify_witness_prime_equal_to_ell_has_its_own_note(capsys):
    # a_11 is stored, but p = ell has no Frobenius trace mod ell
    code, out, err = run(capsys, "certify", "-i", SCHOEN, "--ell", "11", "--witness-prime", "11")
    assert (code, err) == (2, "")
    assert "    note: p=11 is ell: no Frobenius trace there; discriminant test skipped\n" in out
    assert "no eigenvalue at p=11" not in out


def test_certify_root_override(capsys):
    code, out, _ = run(capsys, "certify", "-i", SQRT2, "--ell", "7", "--root", "4")
    assert code == 0
    assert "root=4" in out and "root=3" not in out
    code, _, err = run(capsys, "certify", "-i", SQRT2, "--ell", "7", "--root", "5")
    assert code == 1
    assert "square root" in err


M61 = 2**61 - 1


def test_certify_huge_ell_finishes_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "-i", SCHOEN, "--ell", str(M61))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "all proved: yes" in out


def test_certify_large_split_ell_quickly(capsys):
    # 2 is a square mod 2^61 - 1 (2^62 = 2), so both embeddings are certified
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "-i", SQRT2, "--ell", str(M61))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert f"root={2**31}" in out and f"root={M61 - 2**31}" in out


def test_certify_ell_beyond_primality_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "-i", SCHOEN, "--ell", str(2**89 - 1))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "Miller-Rabin" in err


def test_certify_huge_witness_prime_finishes_quickly(tmp_path, capsys):
    # the Hasse interval at p = 2^61 - 1 covers every residue mod 17
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({
        "id": "probe", "level": 25, "weight": 4, "field": {"type": "rational"},
        "eigenvalues": {str(M61): {"x": 1, "y": 0}},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "-i", str(probe), "--ell", "17",
                         "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (2, "")
    (trace_test,) = json.loads(out)["runs"][0]["trace_tests"]
    assert trace_test["verdict"] == "Inconclusive"
    assert trace_test["witness"]["excluded"] == list(range(17))


def test_certify_trace_test_past_the_excluded_set_limit_exits_1(tmp_path):
    # at p = 10^18 + 9 the Hasse interval mod ell = 10^10 + 19 has about 4*10^9
    # residues; the trace test refuses to list them instead of running out of
    # time. The child's address space is capped, so a regression fails fast.
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    p, ell = 10**18 + 9, 10**10 + 19
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({
        "id": "probe", "level": 1, "weight": 2, "field": {"type": "rational"},
        "eigenvalues": {str(p): {"x": 3, "y": 0}},
    }))
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        q for q in (src, os.environ.get("PYTHONPATH")) if q)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nonelliptic", "certify", "-i", str(probe), "--ell", str(ell)],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: trace test at p={p}, ell={ell} would list up to "
                           f"{2 * math.isqrt(4 * p) + 3} excluded residues, over the "
                           "limit of 1000000\n")


def test_certify_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x", "level": 10, "weight": 2, "field": {"type": "rational"}, "eigenvalues": {}, "extra": 1}')
    code, _, err = run(capsys, "certify", "-i", str(bad), "--ell", "7")
    assert code == 1
    assert "invalid form record" in err


# The schema's "integer" admits 4.0: a float must not reach the arithmetic.
NON_INTEGER_EDITS = [
    (SCHOEN, '"level": 25', "25.0"),
    (SCHOEN, '"weight": 4', "4.0"),
    (SQRT2, '"d": 2', "2.0"),
    (SCHOEN, '"2": {"x": 1', "1.0"),
    (SQRT2, '"3": {"x": 0, "y": 1', "1.0"),
    (SCHOEN, '"level": 25', "1e1"),
]


@pytest.mark.parametrize("form,old,literal", NON_INTEGER_EDITS,
                         ids=[f"{Path(f).stem}-{literal}" for f, _, literal in NON_INTEGER_EDITS])
def test_certify_rejects_non_integer_numbers(tmp_path, capsys, form, old, literal):
    text = Path(form).read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(old, old[: old.rindex(" ") + 1] + literal))
    message = f"schema violation: number {literal} is not an integer literal"
    with pytest.raises(SchemaError) as exc:
        parse_form(bad.read_bytes())
    assert str(exc.value) == message
    code, out, err = run(capsys, "certify", "-i", str(bad), "--ell", "17")
    assert (code, out, err) == (1, "", f"error: invalid form record: {message}\n")


def test_certify_refuses_an_eigenvalue_key_past_the_digit_limit(tmp_path, capsys):
    # int() refuses a key of more than 4,300 digits as json.loads refuses such
    # a value: a schema violation, here at the map that holds the key
    key = "1" + "0" * 4400 + "1"
    bad = tmp_path / "long_key.json"
    bad.write_text(json.dumps({"id": "t", "level": 25, "weight": 4,
                               "field": {"type": "rational"},
                               "eigenvalues": {key: {"x": 1, "y": 0}}}))
    code, out, err = run(capsys, "certify", "-i", str(bad), "--ell", "17")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid form record: schema violation at $.eigenvalues: "
                          "Exceeds the limit (4300 digits) for integer string conversion")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_certify_with_a_huge_weight_finishes(tmp_path, capsys):
    # the Ramanujan check must not build p**(k-1) for k = 10**12
    huge = tmp_path / "huge.json"
    huge.write_text(Path(SCHOEN).read_text().replace('"weight": 4', '"weight": 1000000000000'))
    start = time.perf_counter()
    code, out, _ = run(capsys, "certify", "-i", str(huge), "--ell", "13")
    assert time.perf_counter() - start < 1.0
    assert (code, out.splitlines()[-1]) == (0, "all proved: yes")


def test_scan_full(capsys):
    code, out, _ = run(capsys, "scan", "7", "10000")
    assert code == 0
    assert "holds at: 7" in out


def test_scan_empty_membership(capsys):
    code, out, _ = run(capsys, "scan", "11", "97")
    assert code == 0
    assert "(none)" in out


SCAN_7_10000_TEXT = """\
closed-form scan over primes ell in [7, 10000]
  primes scanned: 1226
  membership 2^(ell-3) in {1, 4, 9} (mod ell) holds at: 7
    ell=7: residue 2 (9 = 2 mod 7; the per-prime trace test is the authority here)
  Fermat cross-check 2^(ell-3) == 4^(-1) mod ell: ok for every scanned ell
"""

SCAN_11_97_TEXT = """\
closed-form scan over primes ell in [11, 97]
  primes scanned: 21
  membership 2^(ell-3) in {1, 4, 9} (mod ell) holds at: (none)
  Fermat cross-check 2^(ell-3) == 4^(-1) mod ell: ok for every scanned ell
"""


def scan_json(ell_min, ell_max, scanned, holds, residues):
    body = json.dumps({
        "ell_max": ell_max,
        "ell_min": ell_min,
        "fermat_crosscheck_ok": True,
        "hold_residues": residues,
        "membership_holds": holds,
        "scanned": scanned,
    }, indent=2)
    return body + "\n"


@pytest.mark.parametrize("argv,expected", [
    (("7", "10000"), SCAN_7_10000_TEXT),
    (("11", "97"), SCAN_11_97_TEXT),
    (("7", "10000", "--format", "json"), scan_json(7, 10000, 1226, [7], {"7": 2})),
    (("11", "97", "--format", "json"), scan_json(11, 97, 21, [], {})),
], ids=["7 10000", "11 97", "7 10000 --format json", "11 97 --format json"])
def test_scan_report_bytes(capsys, argv, expected):
    code, out, err = run(capsys, "scan", *argv)
    assert (code, out, err) == (0, expected, "")


def test_scan_bad_range(capsys):
    code, _, err = run(capsys, "scan", "3", "5")
    assert code == 1
    assert "must satisfy" in err


def test_scan_out_of_memory_exits_1():
    # The sieve for 10^11 needs ~93 GiB; the child's own address-space limit
    # makes the allocation fail at once, before it touches any memory.
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "nonelliptic", "scan", "7", "100000000000"],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "2")
    assert code == 0
    assert "{-2, -1, 0, 1, 2}" in out


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["traces"] == list(range(-3, 4))


def test_oracle_rejects_huge_p_quickly(capsys):
    # 2^61 - 1: the budget check must come before the primality test
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "oracle scale exceeded" in err


def test_falsify_witness(capsys):
    code, out, _ = run(capsys, "falsify", "--curve", "0,0,1,0,0", "-i", SCHOEN,
                       "--ell", "11")
    assert code == 0
    assert "witness at p=2" in out
    assert "0 != 5" in out


def test_falsify_singular_curve(capsys):
    code, _, err = run(capsys, "falsify", "--curve", "0,0,0,0,0", "-i", SCHOEN,
                       "--ell", "11")
    assert code == 1
    assert "singular" in err


def test_falsify_malformed_curve(capsys):
    code, _, err = run(capsys, "falsify", "--curve", "1,2,3", "-i", SCHOEN,
                       "--ell", "11")
    assert code == 1
    assert "five comma-separated" in err


@pytest.mark.parametrize("argv,message", [
    (("-i", SCHOEN, "--ell", "9"), "ell=9 must be a prime > 5"),
    (("-i", SCHOEN, "--ell", "5"), "ell=5 must be a prime > 5"),
    (("-i", SQRT2, "--ell", "7", "--root", "5"), "--root 5 is not a square root of 2 mod 7"),
    (("-i", SQRT2, "--ell", "11"),
     "inert prime: no rational embedding: 11 is inert in Q(sqrt(2))"),
    (("-i", SQRT2, "--ell", "11", "--root", "3"),
     "inert prime: no rational embedding: 11 is inert in Q(sqrt(2))"),
    (("-i", SCHOEN, "--ell", "11", "--root", "3"), ROOT_OVER_Q),
], ids=["composite-ell", "small-ell", "bad-root", "inert", "inert-with-root", "root-over-q"])
def test_falsify_input_errors(capsys, argv, message):
    code, out, err = run(capsys, "falsify", "--curve", "0,0,1,0,0", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _level77_over_sqrt2(tmp_path):
    # 11 divides the level and is inert in Q(sqrt(2))
    form = tmp_path / "level77.json"
    form.write_text(json.dumps({
        "id": "t", "level": 77, "weight": 2, "field": {"type": "quadratic", "d": 2},
        "eigenvalues": {"3": {"x": 0, "y": 1}},
    }))
    return str(form)


BAD_REDUCTION_AT_11 = (1, "", "error: bad reduction prime: 11 divides the level 77\n")


def test_falsify_checks_bad_reduction_before_the_split(tmp_path, capsys):
    base = ("falsify", "--curve", "0,0,1,0,0", "-i", _level77_over_sqrt2(tmp_path),
            "--ell", "11")
    assert run(capsys, *base) == BAD_REDUCTION_AT_11
    assert run(capsys, *base, "--root", "3") == BAD_REDUCTION_AT_11


def test_certify_checks_bad_reduction_before_the_split(tmp_path, capsys):
    base = ("certify", "-i", _level77_over_sqrt2(tmp_path), "--ell", "11")
    assert run(capsys, *base) == BAD_REDUCTION_AT_11
    assert run(capsys, *base, "--root", "3") == BAD_REDUCTION_AT_11


def test_falsify_counts_no_points_at_a_huge_prime(tmp_path, capsys):
    form = tmp_path / "m61.json"
    form.write_text(json.dumps({
        "id": "t", "level": 25, "weight": 4, "field": {"type": "rational"},
        "eigenvalues": {str(2**61 - 1): {"x": 1, "y": 0}},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "falsify", "--curve", "0,0,1,0,0", "-i", str(form),
                         "--ell", "17")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("error: insufficient overlap: none of the representation's stored "
                   "primes is below 500 with good reduction for the curve\n")


def test_falsify_json(capsys):
    code, out, _ = run(capsys, "falsify", "--curve", "0,0,1,0,0", "-i", SCHOEN,
                       "--ell", "11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == {"p": 2, "curve_trace": 0, "rep_trace": 5}


@pytest.mark.parametrize("argv", [
    ("verify-paper", "--ell-max", "20", "--workers", "2"),
    ("certify", "-i", SCHOEN, "--ell", "11", "--workers", "2"),
], ids=["verify-paper", "certify"])
def test_workers_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_certify_range_json_streams_in_bounded_memory():
    # A child inherits its spawner's peak RSS across exec, and pytest's peak
    # is large, so a fresh interpreter spawns the CLI and reads its peak.
    # Holding the whole 12.4 MB report as text peaked at 85.8 MiB; streamed,
    # the run objects set the peak at about 34 MiB. With two CPUs the range
    # is split, and the text of each batch is held until the report is
    # written: about 34 MiB.
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    helper = (
        "import os, subprocess, sys\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    child = subprocess.Popen([sys.executable, '-m', 'nonelliptic', 'certify',\n"
        "        '-i', sys.argv[1], '--format', 'json', '--ell-min', '7',\n"
        "        '--ell-max', '100000'], stdout=sink)\n"
        "    _, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", helper, SCHOEN], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 2, proc.stderr  # ell = 7 and 582 others are inconclusive
    assert maxrss_kib < 60 * 1024


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_certify_range_on_one_cpu_holds_one_batch_of_runs():
    # Tied to one CPU, the command certifies in this process. Holding every
    # run object of 7..300000 until the end peaked at 79.8 MiB; certified and
    # rendered a batch at a time, it peaks at about 39 MiB.
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    helper = (
        "import os, subprocess, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    child = subprocess.Popen([sys.executable, '-m', 'nonelliptic', 'certify',\n"
        "        '-i', sys.argv[1], '--ell-min', '7', '--ell-max', '300000'], stdout=sink)\n"
        "    _, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", helper, SCHOEN], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 2, proc.stderr  # ell = 7 is inconclusive
    assert maxrss_kib < 60 * 1024


def test_import_leaves_out_jsonschema_and_process_pools():
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys, nonelliptic.cli\n"
        "heavy = ('jsonschema', 'concurrent.futures', 'multiprocessing')\n"
        "def loaded(): print(sorted(m for m in heavy if m in sys.modules))\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    nonelliptic.cli.main(['certify', '-i', sys.argv[1], '--ell', '11'])\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    nonelliptic.cli.main(['verify-paper'])\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    nonelliptic.cli.main(['certify', '-i', sys.argv[1], '--ell-min', '7',\n"
        "                          '--ell-max', '3000'])\n"
        "loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, SCHOEN], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    # after import, after certify (which parses a form), after verify-paper,
    # after a range too small to pay for the process pool
    assert proc.stdout.splitlines() == ["[]", "[]", "[]", "[]"], proc.stderr

    # at start-up the CLI loads only what every command needs
    code = ("import sys, nonelliptic.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nonelliptic'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == ("['nonelliptic', 'nonelliptic.arith', 'nonelliptic.cli', "
                           "'nonelliptic.data_io']\n"), proc.stderr

    # `import nonelliptic` loads no submodule, and each command only its own
    code = (
        "import contextlib, io, json, sys, nonelliptic\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('nonelliptic.'))\n"
        "print(json.dumps([loaded(), set(nonelliptic.__all__) <= set(dir(nonelliptic))]))\n"
        "from nonelliptic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print(json.dumps(loaded()))\n"
    )
    for argv, absent in [
        (["oracle", "5"], {"nonelliptic.certify", "nonelliptic.paper", "nonelliptic.repmodel"}),
        (["certify", "-i", SCHOEN, "--ell", "11"],
         {"nonelliptic.ecoracle", "nonelliptic.paper"}),
        (["verify-paper"], {"nonelliptic.ecoracle"}),
        (["scan", "7", "1000"], {"nonelliptic.certify", "nonelliptic.repmodel"}),
        (["falsify", "--curve", "0,0,1,0,0", "-i", SCHOEN, "--ell", "11"],
         {"nonelliptic.certify", "nonelliptic.checker", "nonelliptic.paper"}),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        after_import, after_command = map(json.loads, proc.stdout.splitlines())
        assert after_import == [[], True], proc.stderr
        assert absent.isdisjoint(after_command), (argv, after_command)
