import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tomllib
from importlib import resources
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from conftest import certify_report
from hypothesis import example, given, settings, strategies as st

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


def test_console_script_runs_main():
    # the installed `nonelliptic` command is pyproject's entry point, loaded
    # the way an installer's wrapper loads it
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    entry = EntryPoint("nonelliptic", scripts["nonelliptic"], "console_scripts")
    assert entry.load() is main


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
# branch of render_runs' text writer: irreducibility proved and not
# established, the twist and its absence, the trace and the conductor routes,
# non-ellipticity not established, notes, and each overall verdict.
# The weight-5 record (even determinant exponent at every ell, so no
# determinant-chi twist and the note that says so, and a claimed conductor
# with no violation) was pinned before the twist moved into _reductions.
PINNED_CERTIFY_REPORTS = [
    (SCHOEN, "3000", "json", "dbec122deac1817d6af849b3171316e3e933719b944084a38a7364f660ea363d"),
    (SCHOEN, "3000", "text", "125e38c61a97b6a24a7c7037b65272518975b61bc272a827b4409bb3590ebdb6"),
    (SQRT2, "200", "json", "07aab601c553eeefa59f0641d6098c08e15d2bea2f5b2c2ef53ac582943c8c9b"),
    (SQRT2, "200", "text", "a93414284c0c56205f24c718f83810cee9a9d8c9f85db3d0aa19e0b7d0bde2da"),
    ("WEIGHT5", "400", "json", "af1a22dc8fe61e47320695ed521b8d4a2fa24e0e7923d385680005c7ffe73fb3"),
    ("WEIGHT5", "400", "text", "7d6f7f3802c9ad2762a59fa668e3da67b83744da45ffea4468856862a4c05200"),
]


def _weight5_claimed(tmp_path):
    """The Schoen record at weight 5 with a claimed conductor, under an id
    json must escape."""
    record = json.loads(Path(SCHOEN).read_text())
    record.update(id='w5 "\u00e9"\\', weight=5, claimed_conductor_equality=True)
    weight5 = tmp_path / "weight5.json"
    weight5.write_text(json.dumps(record))
    return str(weight5)


@pytest.mark.parametrize(
    "form,ell_max,fmt,sha256", PINNED_CERTIFY_REPORTS,
    ids=[f"{'weight5-claimed' if f == 'WEIGHT5' else Path(f).stem}-7..{m}-{fmt}"
         for f, m, fmt, _ in PINNED_CERTIFY_REPORTS],
)
def test_certify_range_report_bytes_pinned(tmp_path, capsys, form, ell_max, fmt, sha256):
    if form == "WEIGHT5":
        form = _weight5_claimed(tmp_path)
    code, out, err = run(capsys, "certify", "-i", form, "--ell-min", "7",
                         "--ell-max", ell_max, "--format", fmt)
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of the reports at the benchmark's size, 7..10^5: past POOL_MIN_RUNS
# runs, so a fresh interpreter with more than one usable CPU forks workers and
# spools their batches (the pins above run in one process). The two under a
# given witness prime were taken while a range's JSON was still written from
# run records, the sqrt(2) form's text (two runs per ell, each under an
# "ell=... root=..." head line) while a range's text still was: at p = 3,
# 4,779 of the Schoen form's certificates are Inconclusive; p = 29 is
# 1 (mod 7), so both runs of the sqrt(2) form at ell = 7 carry the note that
# the trace test is unavailable there.
@pytest.mark.parametrize("form,fmt,sha256,witness", [
    (SCHOEN, "json", "bc4c28c774b12d75b5d437dea97c09c6d7cfdd43a0adce24fb2a6d2e80be9698", ()),
    (SCHOEN, "text", "201d6a9b3448c83828ebd428ab841f4aa58cc3157ec3ce4e3e013eaa2c05ae57", ()),
    (SQRT2, "json", "a5a5b83e308fdff01f97af75b8049a9af3d7ac28ed2404e9b9d7ca7da17c7336", ()),
    (SQRT2, "text", "d4726b2e442bc8edc071eaec19b83fc659462cb966c5348f0dd666c88609c231", ()),
    (SCHOEN, "json", "e6863d3c14e9a6be0f066ec266edd68db7f48d1e968f7efbff7c5ac374b32b6a",
     ("--witness-prime", "3")),
    (SQRT2, "json", "ee0be2cfc23a92ade97dc379b8b7ea5052f128a9645937fc0e9e37d3312d69c9",
     ("--witness-prime", "29")),
], ids=["schoen_s4_25-json", "schoen_s4_25-text", "s2_512_sqrt2-json", "s2_512_sqrt2-text",
        "schoen_s4_25-p3-json", "s2_512_sqrt2-p29-json"])
def test_forked_certify_report_bytes_pinned_to_1e5(form, fmt, sha256, witness):
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "nonelliptic", "certify", "-i", form,
                           "--ell-min", "7", "--ell-max", "100000", *witness, "--format", fmt],
                          capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256


def test_verify_paper_json_bytes_pinned_to_1e5(capsys):
    # sha256 of verify-paper's JSON at the same size, 9,589 per-ell entries,
    # taken while each entry's certificates were still written through one
    # template per method: the trace-only writer and json.dumps must not move it
    code, out, err = run(capsys, "verify-paper", "--ell-max", "100000", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2fac6694a8f7945c734a4fcb1f3e28d10b355495638a99a58c39ab4805d0c2e")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_certify_range_writes_a_report_without_building_a_record(monkeypatch, fmt):
    # Both formats write each run from the values the pipeline decides:
    # neither a Certificate nor an EllCertification is built. certify_form
    # still builds the records, and the reference report read from them
    # has the same pinned bytes.
    from nonelliptic import certify
    from nonelliptic.checker import Certificate

    built = []

    def spy(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    spy(Certificate)
    spy(certify.EllCertification)
    monkeypatch.setattr(certify, "usable_cpus", lambda: 1)  # every run in this process
    form = parse_form(Path(SCHOEN).read_bytes())
    ells = primes_in_range(7, 3000)
    pinned = {fmt: sha for f, m, fmt, sha in PINNED_CERTIFY_REPORTS if (f, m) == (SCHOEN, "3000")}
    out = io.StringIO()
    certify.certify_range(form, ells, None, None, fmt, out)
    assert built == []
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pinned[fmt]

    runs = certify.certify_form(form, ells)
    assert built.count("EllCertification") == len(runs) == 427
    report = certify_report(form, ells, runs, fmt)
    assert hashlib.sha256(report.encode()).hexdigest() == pinned[fmt]


def test_a_range_in_text_names_the_trace_test_that_proves(tmp_path, capsys):
    # a_2 = 0 lies in the excluded set at 2 for every ell, so a run proved
    # non-elliptic by a trace test is proved by a later one, at p = 3; at
    # ell = 7 no test proves it, and 29 = 1 (mod 7) adds a second note
    from nonelliptic.certify import certify_form

    record = {"id": "probe", "level": 1, "weight": 4, "field": {"type": "rational"},
              "eigenvalues": {"2": {"x": 0, "y": 0}, "3": {"x": 10, "y": 0},
                              "29": {"x": 0, "y": 0}}}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "certify", "-i", str(path), "--ell-min", "7", "--ell-max", "100",
                         "--format", "text")
    assert (code, err) == (2, "")
    form = parse_form(path.read_bytes())
    ells = primes_in_range(7, 100)
    assert out == certify_report(form, ells, certify_form(form, ells), "text")
    assert "trace witness p=3" in out and "trace witness p=2" not in out
    assert "(mod 7); trace test unavailable there\n    note: conductor known only" in out


def test_an_excluded_set_past_its_limit_fails_alike_on_every_route(tmp_path, capsys,
                                                                    monkeypatch):
    # At p = 10^12 + 39, B = isqrt(4p) = 2*10^6, so past ell = 10^6 the trace
    # test would list ell residues: certify_form, the JSON writer (in this
    # process and in forked workers) and the CLI refuse at the first ell alike,
    # and nothing is written.
    from nonelliptic import certify

    p = 10**12 + 39
    record = {"id": "probe", "level": 1, "weight": 4, "field": {"type": "rational"},
              "eigenvalues": {str(p): {"x": 3, "y": 0}}}
    form = parse_form(json.dumps(record).encode())
    ells = primes_in_range(10**6, 10**6 + 100)
    message = (f"trace test at p={p}, ell={ells[0]} would list up to {ells[0]} excluded "
               "residues, over the limit of 1000000")
    with pytest.raises(ValueError) as raised:
        certify.certify_form(form, ells)
    assert (type(raised.value), str(raised.value)) == (ValueError, message)
    monkeypatch.setattr(certify, "POOL_MIN_RUNS", 1)
    for cpus in (1, 2):
        monkeypatch.setattr(certify, "usable_cpus", lambda: cpus)
        out = io.StringIO()
        with pytest.raises(ValueError) as raised:
            certify.certify_range(form, ells, None, None, "json", out)
        assert (type(raised.value), str(raised.value), out.getvalue()) == (ValueError, message, "")
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(record))
    assert run(capsys, "certify", "-i", str(path), "--ell-min", str(10**6), "--ell-max",
               str(10**6 + 100), "--format", "json") == (1, "", f"error: {message}\n")


# Each takes a branch of the run's JSON: the trace and the conductor routes,
# a pinned root, an even determinant exponent with a claimed conductor and no
# violation (weight 5, level 25) under an id json must escape, and p = ell.
CERTIFY_JSON_ARGV = {
    "schoen": (SCHOEN, "--ell-min", "7", "--ell-max", "400"),
    "sqrt2": (SQRT2, "--ell-min", "7", "--ell-max", "400"),
    "sqrt2-root": (SQRT2, "--ell-min", "17", "--ell-max", "17", "--root", "6"),
    "weight5-claimed": ("WEIGHT5", "--ell-min", "7", "--ell-max", "400"),
    "p-is-ell": (SCHOEN, "--ell", "11", "--witness-prime", "11"),
}


@pytest.mark.parametrize("argv", CERTIFY_JSON_ARGV.values(), ids=CERTIFY_JSON_ARGV)
def test_certify_json_is_what_the_standard_library_writes(tmp_path, capsys, argv):
    if argv[0] == "WEIGHT5":
        argv = (_weight5_claimed(tmp_path), *argv[1:])
    code, out, err = run(capsys, "certify", "-i", *argv, "--format", "json")
    assert code in (0, 2) and err == ""
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("path,asks", [(SQRT2, 63), (SCHOEN, 86)], ids=["sqrt2", "schoen"])
def test_certify_range_asks_the_rule_once_per_prime_and_run(monkeypatch, capsys, path, asks):
    # [7, 200] holds 43 primes: the range filter asks the rule once for each,
    # and the pipeline once per admitted ell (20 of them split in Q(sqrt(2));
    # all 43 are admitted over Q); counting the runs asks it nothing
    import nonelliptic.repmodel as repmodel

    asked = []
    rule = repmodel.refusal
    monkeypatch.setattr(repmodel, "refusal",
                        lambda form, ell, root=None: asked.append(ell) or rule(form, ell, root))
    _, _, err = run(capsys, "certify", "-i", path, "--ell-min", "7", "--ell-max", "200")
    assert err == ""
    assert len(asked) == asks


def test_a_sieved_range_proves_no_ell_again(monkeypatch, capsys):
    # primes_in_range proved each ell of the range, and certify_form's one
    # sieve of each batch proves them again without Miller-Rabin
    import nonelliptic.arith as arith
    from nonelliptic import certify

    proofs = []
    strong = arith._strong_probable_prime
    monkeypatch.setattr(arith, "_strong_probable_prime",
                        lambda n, *args: proofs.append(n) or strong(n, *args))
    monkeypatch.setattr(certify, "usable_cpus", lambda: 1)  # every run in this process
    for path in (SQRT2, SCHOEN):
        code, _, err = run(capsys, "certify", "-i", path, "--ell-min", "7", "--ell-max", "10000",
                           "--format", "json")
        assert (code, err) == (2, "")
    assert proofs == []
    assert arith.is_prime(10007) and proofs  # the spy sees a proof


def test_certify_range_without_split_ell_exits_1(capsys):
    code, out, err = run(capsys, "certify", "-i", SQRT2, "--ell-min", "11",
                         "--ell-max", "13")
    assert (code, out) == (1, "")
    assert err == "error: no prime in [11, 13] splits in Q(sqrt(2))\n"


def test_certify_range_with_no_primes_exits_1(capsys):
    code, out, err = run(capsys, "certify", "-i", SCHOEN, "--ell-min", "24", "--ell-max", "28")
    assert (code, out, err) == (1, "", "error: no primes in [24, 28]\n")


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
    # at ell = 7 the trace test is inconclusive, so the conductor is needed:
    # a level of two primes above 10^6 is factored, one above 2**64 refused
    probe = json.loads(Path(SCHOEN).read_text())
    path = tmp_path / "probe.json"
    for level, want in ((1000000007 * 1000000009, 2), (2**64 + 1, 1)):
        probe.update(id="probe", level=level, claimed_conductor_equality=True)
        path.write_text(json.dumps(probe))
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", "-i", str(path), "--ell", "7")
        assert time.perf_counter() - start < 1.0
        assert code == want
        if code == 2:
            assert err == ""
            assert ("    non-elliptic: not established (all tests inconclusive)"
                    in out.splitlines())
        else:
            assert (out, err) == ("", f"error: {2**64 + 1} exceeds the trial-division "
                                      "guard 2**64\n")


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
    p, ell = 10**18 + 9, 10**10 + 19
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({
        "id": "probe", "level": 1, "weight": 2, "field": {"type": "rational"},
        "eigenvalues": {str(p): {"x": 3, "y": 0}},
    }))
    start = time.perf_counter()
    proc = run_child(["certify", "-i", str(probe), "--ell", str(ell)], timeout=60)
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


# json.loads keeps the last of a repeated key: the first edit would be
# certified with a_2 = 3, and the schema sees only the parsed record
REPEATED_KEYS = [
    ('"2": {"x": 1, "y": 0},', '"2": {"x": 1, "y": 0}, "2": {"x": 3, "y": 0},', "2"),
    ('"level": 25,', '"level": 25, "level": 125,', "level"),
    ('"3": {"x": 7, "y": 0}', '"3": {"x": 7, "y": 0, "x": 8}', "x"),
]


@pytest.mark.parametrize("old,new,key", REPEATED_KEYS, ids=[k for _, _, k in REPEATED_KEYS])
def test_certify_refuses_a_repeated_key(tmp_path, capsys, old, new, key):
    text = Path(SCHOEN).read_text()
    assert text.count(old) == 1
    bad = tmp_path / "repeated.json"
    bad.write_text(text.replace(old, new))
    code, out, err = run(capsys, "certify", "-i", str(bad), "--ell", "11")
    assert (code, out) == (1, "")
    assert err == (f"error: invalid form record: schema violation: key {key!r} appears "
                   "twice in one object\n")


@pytest.mark.parametrize("opener,closer", [("[", "]"), ('{"a": ', "}")],
                         ids=["arrays", "objects"])
def test_certify_refuses_a_record_nested_too_deeply(tmp_path, capsys, opener, closer):
    # json.loads gives up past its recursion depth: one error line, no traceback
    record = json.loads(Path(SCHOEN).read_text())
    del record["notes"]
    inner = "[]" if opener == "[" else "0"
    deep = opener * 100_000 + inner + closer * 100_000
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(record)[:-1] + f', "notes": {deep}}}')
    message = "schema violation: arrays or objects nested too deeply to parse"
    with pytest.raises(SchemaError, match=message):
        parse_form(bad.read_bytes())
    code, out, err = run(capsys, "certify", "-i", str(bad), "--ell", "11")
    assert (code, out, err) == (1, "", f"error: invalid form record: {message}\n")


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


# sha256 of the scan over the benchmark's range, taken while the scan still
# took one modular power per ell: grouping the powers must not move a byte
@pytest.mark.parametrize("fmt,sha256", [
    ("text", "d47dc5adf3622d88c20a7ea04c311c19a0b5236bdfd39d57f51471b947145f77"),
    ("json", "7ac585060eeba9f68a63a7b1df95fec9409ba138a723231b109b341db6e667e3"),
])
def test_scan_report_bytes_pinned_to_a_million(capsys, fmt, sha256):
    code, out, err = run(capsys, "scan", "7", "1000000", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_scan_bad_range(capsys):
    code, _, err = run(capsys, "scan", "3", "5")
    assert code == 1
    assert "must satisfy" in err


def test_scan_out_of_memory_exits_1():
    # The sieve for 10^11 needs ~93 GiB; the child's own address-space limit
    # makes the allocation fail at once, before it touches any memory.
    proc = run_child(["scan", "7", "100000000000"], timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


def _window(lo, width=100):
    return str(lo), str(lo + width)


def run_child(argv, timeout):
    """`python -m nonelliptic *argv` in a child process whose address space is
    capped at 1 GiB, killed after `timeout` seconds: the CompletedProcess."""
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "nonelliptic", *argv], env=env,
                          preexec_fn=limit_address_space, capture_output=True, text=True,
                          timeout=timeout)


_PAST_MILLER_RABIN = "exceeds the proven Miller-Rabin range (< 3317044064679887385961981)"


@pytest.mark.parametrize("argv,code,line", [
    (("scan", *_window(10**12)), 0, "  primes scanned: 4"),
    (("certify", "-i", SCHOEN, "--ell-min", "1000000000000", "--ell-max", "1000000000100"),
     0, "all proved: yes"),
    (("scan", *_window(10**18 + 9)), 0, "  primes scanned: 3"),
    (("certify", "-i", SCHOEN, "--ell-min", str(10**18 + 9), "--ell-max", str(10**18 + 109)),
     0, "all proved: yes"),
    (("verify-paper", "--ell-max", str(10**18 + 109)), 1,
     "error: out of memory; the request is too large (narrow the range)"),
    (("scan", *_window(10**20)), 0, "  primes scanned: 1"),
    (("certify", "-i", SCHOEN, "--ell-min", str(10**20), "--ell-max", str(10**20 + 100)),
     0, "all proved: yes"),
    (("verify-paper", "--ell-max", str(10**20)), 1,
     f"error: [6, {10**20}] is too wide to sieve: its width passes the index size "
     f"{sys.maxsize} (narrow the range)"),
    *((argv, 1, f"error: {hi} {_PAST_MILLER_RABIN}")
      for lo, hi in ((10**27, 10**27 + 100), (10**40, 10**40 + 100))
      for argv in (("scan", str(lo), str(hi)),
                   ("certify", "-i", SCHOEN, "--ell-min", str(lo), "--ell-max", str(hi)),
                   ("verify-paper", "--ell-max", str(hi)))),
], ids=["scan", "certify", "scan 10^18", "certify 10^18", "verify-paper 10^18",
        "scan 10^20", "certify 10^20", "verify-paper 10^20",
        "scan 10^27", "certify 10^27", "verify-paper 10^27",
        "scan 10^40", "certify 10^40", "verify-paper 10^40"])
def test_a_narrow_range_of_wide_ells_sieves_in_little_memory(argv, code, line):
    # A window narrow next to the square root of its upper end has each odd
    # candidate proved by is_prime, so neither the window nor the primes up
    # to that square root are sieved: at 10^18 the base sieve alone would
    # take minutes and gigabytes. A range past the Miller-Rabin bound is
    # refused, and one wider than any index is refused before its sieve is
    # built; neither reaches the child's 1 GiB cap or prints a traceback.
    start = time.perf_counter()
    proc = run_child(argv, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert line in proc.stdout.splitlines()
    else:
        assert proc.stdout == ""
        assert proc.stderr == line + "\n"
    assert primes_in_range(10**12, 10**12 + 100) == [10**12 + d for d in (39, 61, 63, 91)]


def test_a_warning_is_one_line_before_the_error(tmp_path):
    # a Ramanujan-bound violation warns on one line that names no source
    # location, and the refusal that follows is still the one error line
    form = tmp_path / "t.json"
    form.write_text(json.dumps({"id": "t", "level": 25, "weight": 2, "field": {"type": "rational"},
                                "eigenvalues": {"3": {"x": 100, "y": 0}}}))
    proc = run_child(["certify", "-i", str(form), "--ell", "9"], timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("warning: RamanujanBoundWarning: a_3 of form t violates the "
                           "Ramanujan bound a_p^2 <= 4 p^(k-1)\n"
                           "error: ell=9 must be a prime > 5\n")


def test_a_form_id_stays_on_one_stderr_line(tmp_path):
    # an id that does not print, a line break or a terminal control, is
    # refused where the record is loaded, so no later message or report
    # prints it; the refusal shows it as repr escapes it
    for form_id in ("a\nb", "a\x1b[2Jb"):
        form = tmp_path / "t.json"
        form.write_text(json.dumps({"id": form_id, "level": 49, "weight": 2,
                                    "field": {"type": "rational"},
                                    "eigenvalues": {"5": {"x": 100, "y": 0}}}))
        error = (f"error: invalid form record: schema violation at $.id: {form_id!r} "
                 "should be non-empty and printable\n")
        for ells in (["--ell", "9"], ["--ell", "11", "--root", "3"], ["--ell", "11"]):
            proc = run_child(["certify", "-i", str(form), *ells], timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)


@pytest.mark.parametrize("token", ["1" * 5000, "9" * 4000], ids=["argparse", "sieve"])
def test_a_long_number_in_a_message_is_cut(capsys, token):
    # argparse echoes the first token whole, and primes_in_range's refusal
    # the second: each run of more than 64 digits shows its first 20 digits
    # and its length
    code, out, err = run(capsys, "scan", "7", token)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) <= 200
    assert f"{token[:20]}…({len(token)} digits)" in err


# --- totality: every input finishes or is refused -----------------------------

# integers from the buckets where faults were found: small, a Carmichael
# number, a Mersenne prime, 10^12..10^40 (past the Miller-Rabin bound from
# about 3.3*10^24) and negatives
CLI_INTS = st.one_of(
    st.integers(-10, 1000), st.just(561), st.just(2**61 - 1),
    st.builds(lambda e, k: 10**e + k, st.integers(12, 40), st.integers(0, 100)),
    st.integers(-10**40, -1),
)


BAD_INTS = st.sampled_from(["x", "1" * 5000])


@st.composite
def generated_forms(draw):
    """A FormRecord with a level from CLI_INTS and a_p inside the Ramanujan
    bound or up to about twice past it, which the form loads with a warning."""
    level = draw(CLI_INTS)
    weight = draw(st.integers(2, 6))
    d = draw(st.sampled_from([None, 2, 3, 5]))
    eigenvalues = {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 29]), unique=True)):
        if level % p:
            bound = math.isqrt(4 * p ** (weight - 1))
            x = draw(st.integers(-2 * bound - 2, 2 * bound + 2))
            # the bound is tested on an a_p with x or y zero
            y = 0 if d is None else draw(st.integers(0, 3))
            eigenvalues[str(p)] = {"x": x, "y": y}
    field = {"type": "rational"} if d is None else {"type": "quadratic", "d": d}
    return {"id": "generated", "level": level, "weight": weight, "field": field,
            "eigenvalues": eigenvalues, "claimed_conductor_equality": draw(st.booleans())}


@st.composite
def cli_argv(draw):
    """(argv, form): argv of one of the five commands, ranges at most 10^4
    wide, with "FORM" for the form file of certify and falsify (a bundled path
    or a generated record; None for the other commands). One integer
    argument in ten is a token argparse must refuse: one that is no integer,
    or one past the 4,300-digit conversion limit."""
    n = lambda: str(draw(CLI_INTS)) if draw(st.integers(0, 9)) else draw(BAD_INTS)  # noqa: E731
    opt = lambda flag: [flag, n()] if draw(st.booleans()) else []  # noqa: E731
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    command = draw(st.sampled_from(["verify-paper", "certify", "scan", "oracle", "falsify"]))
    form = None
    if command in ("certify", "falsify"):
        form = draw(st.one_of(st.sampled_from([SCHOEN, SQRT2]), generated_forms()))
    lo = draw(CLI_INTS)
    hi = str(lo + draw(st.integers(0, 10**4)))
    if command == "verify-paper":
        argv = ["verify-paper", *opt("--ell-max")]
    elif command == "scan":
        argv = ["scan", str(lo), hi]
    elif command == "oracle":
        argv = ["oracle", n()]
    elif command == "certify":
        ells = ["--ell", n()] if draw(st.booleans()) else ["--ell-min", str(lo), "--ell-max", hi]
        argv = ["certify", "-i", "FORM", *ells, *opt("--witness-prime"), *opt("--root")]
    else:
        curve = ",".join(n() for _ in range(5))
        # joined by "=": argparse reads a separate -1,0,0,0,0 as an option
        argv = ["falsify", f"--curve={curve}", "-i", "FORM", "--ell", n(), *opt("--root")]
    return argv + fmt, form


@pytest.fixture(scope="module")
def form_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("forms")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cli_argv())
@example(case=(["certify", "-i", "FORM", "--ell", "x", "--format", "json"], SCHOEN))
@example(case=(["scan", "7", "1" * 5000, "--format", "text"], None))
def test_every_cli_input_finishes_or_is_refused(form_dir, case):
    # Aim 3: each input finishes within 5 s and 1 GiB with exit 0 or 2, or is
    # refused with exit 1 and one error line; never a traceback or a hang.
    # Any other stderr line is a one-line warning before the error.
    argv, form = case
    if isinstance(form, dict):
        text = json.dumps(form)
        form = form_dir / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
        form.write_text(text)
    proc = run_child([str(form) if a == "FORM" else a for a in argv], timeout=5)
    assert proc.returncode in (0, 1, 2), proc.stderr
    lines = proc.stderr.splitlines()
    if proc.returncode == 1:
        assert proc.stdout == ""
        assert proc.stderr.endswith("\n") and lines[-1].startswith("error: "), proc.stderr
        lines.pop()
    elif argv[-1] == "json":
        json.loads(proc.stdout)
    assert all(line.startswith("warning: ") for line in lines), proc.stderr


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "2")
    assert code == 0
    assert "{-2, -1, 0, 1, 2}" in out


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["traces"] == list(range(-3, 4))


@pytest.mark.parametrize("p", primes_in_range(2, 50))
def test_oracle_lists_the_hasse_interval(capsys, p):
    # every prime the budget admits, in both formats, byte for byte
    bound = math.isqrt(4 * p)
    traces = list(range(-bound, bound + 1))
    code, out, err = run(capsys, "oracle", str(p))
    listing = ", ".join(map(str, traces))
    assert (code, err) == (0, "")
    assert out == f"trace set over F_{p} (all nonsingular Weierstrass curves): {{{listing}}}\n"
    code, out, err = run(capsys, "oracle", str(p), "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps({"cap": p, "p": p, "traces": traces}, indent=2) + "\n"


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


# Each report's exact bytes, pinned before the determinant-chi twist moved
# into _reductions: the text line, then the sha256 of the JSON.
PINNED_FALSIFY_REPORTS = [
    ("0,0,1,0,0", SCHOEN, "11", "witness at p=2: curve trace 0 != 5 (mod 11)\n",
     "bcb8e966ec82c89d0940ffad0c4f8551d2064f4a6423d5119697d84ede606566"),
    ("0,0,1,0,0", SQRT2, "7", "witness at p=5: curve trace 0 != 1 (mod 7)\n",
     "3e04484ed410bcd721eba13b2d93b57efbe46a128a78b03a4f567b94c7e2f14c"),
    ("0,-1,1,0,0", SQRT2, "17", "witness at p=3: curve trace -1 != 6 (mod 17)\n",
     "24474b7eafe29c0cef99156c75d4859cef6543f2d4c3f920270b5cea68b4b002"),
    ("1,0,0,-3,2", SCHOEN, "13", "witness at p=2: curve trace -1 != 6 (mod 13)\n",
     "bf5f8b48caaa963614ef090b3062abe03b6793cf0ce93fa06c26b2c81d01dc56"),
]


@pytest.mark.parametrize(
    "curve,form,ell,text,sha256", PINNED_FALSIFY_REPORTS,
    ids=[f"{c}-{Path(f).stem}-{ell}" for c, f, ell, _, _ in PINNED_FALSIFY_REPORTS],
)
def test_falsify_report_bytes_pinned(capsys, curve, form, ell, text, sha256):
    argv = ("falsify", f"--curve={curve}", "-i", form, "--ell", ell)
    assert run(capsys, *argv) == (0, text, "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_falsify_finds_no_witness_against_the_curves_own_form(tmp_path, capsys):
    # the weight-2 newform 11a against a curve of conductor 11: every compared
    # trace agrees, so falsify reports no witness and exits Inconclusive
    form = tmp_path / "11a.json"
    form.write_text(json.dumps({"id": "11a", "level": 11, "weight": 2,
                                "field": {"type": "rational"},
                                "eigenvalues": {str(p): {"x": a, "y": 0} for p, a in
                                                ((2, -2), (3, -1), (5, 1), (7, -2), (13, 4))}}))
    argv = ("falsify", "--curve=0,-1,1,0,0", "-i", str(form), "--ell", "7")
    assert run(capsys, *argv) == (2, "no witness found (not a proof of isomorphism; "
                                     "compared p in [2, 3, 5, 13])\n", "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"curve": [0, -1, 1, 0, 0], "ell": 7, "compared": [2, 3, 5, 13],
                               "witness": None}


def test_falsify_singular_curve(capsys):
    code, _, err = run(capsys, "falsify", "--curve", "0,0,0,0,0", "-i", SCHOEN,
                       "--ell", "11")
    assert code == 1
    assert "singular" in err


def test_falsify_malformed_curve(capsys):
    for curve in ("1,2,3", "1,2,x,4,5"):  # too few coefficients, or one not an integer
        code, out, err = run(capsys, "falsify", "--curve", curve, "-i", SCHOEN, "--ell", "11")
        assert (code, out, err) == (1, "", "error: --curve must be five comma-separated "
                                           "integers a1,a2,a3,a4,a6\n")


@pytest.mark.parametrize("argv,message", [
    (("-i", SCHOEN, "--ell", "9"), "ell=9 must be a prime > 5"),
    (("-i", SCHOEN, "--ell", "5"), "ell=5 must be a prime > 5"),
    (("-i", SQRT2, "--ell", "7", "--root", "5"), "--root 5 is not a square root of 2 mod 7"),
    (("-i", SQRT2, "--ell", "11"),
     "inert prime: no rational embedding: 11 is inert in Q(sqrt(2))"),
    (("-i", SQRT2, "--ell", "11", "--root", "3"),
     "inert prime: no rational embedding: 11 is inert in Q(sqrt(2))"),
    (("-i", SCHOEN, "--ell", "11", "--root", "3"), ROOT_OVER_Q),
    # weight 3 at ell = 7: m = 2, and no twist chi^t takes m to 1 mod 6
    (("-i", "WEIGHT3", "--ell", "7"), "no determinant-chi twist exists: exponent 2 is even"),
], ids=["composite-ell", "small-ell", "bad-root", "inert", "inert-with-root", "root-over-q",
        "even-exponent"])
def test_falsify_input_errors(tmp_path, capsys, argv, message):
    if argv[1] == "WEIGHT3":
        weight3 = tmp_path / "weight3.json"
        weight3.write_text(json.dumps({
            "id": "t", "level": 25, "weight": 3, "field": {"type": "rational"},
            "eigenvalues": {"2": {"x": 1, "y": 0}, "3": {"x": 2, "y": 0}},
        }))
        argv = ("-i", str(weight3), *argv[2:])
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
    # argparse's refusal is the one error line and exit 1, not its usage and exit 2
    assert run(capsys, *argv) == (1, "", "error: unrecognized arguments: --workers 2\n")


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
        "heavy = ('jsonschema', 'concurrent.futures', 'multiprocessing', 'dataclasses',\n"
        "         'inspect')\n"
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
        "from nonelliptic import certify\n"
        "certify.POOL_MIN_RUNS, certify.usable_cpus = 1, lambda: 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    nonelliptic.cli.main(['certify', '-i', sys.argv[1], '--ell-min', '7',\n"
        "                          '--ell-max', '3000'])\n"
        "loaded()\n"
        "for argv in (['oracle', '5'], ['scan', '7', '1000'], ['falsify', '--curve',\n"
        "             '0,-1,1,-10,-20', '-i', sys.argv[1], '--ell', '11']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        nonelliptic.cli.main(argv)\n"
        "    loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, SCHOEN], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    # after import, after certify (which parses a form), after verify-paper,
    # after a range too small to fork, after a range forced to fork (the
    # forked route loads neither pool module), and after oracle, scan and
    # falsify: no command loads dataclasses or inspect
    assert (proc.stdout.splitlines(), proc.stderr) == (["[]"] * 8, "")

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
        (["scan", "7", "1000"],
         {"nonelliptic.certify", "nonelliptic.checker", "nonelliptic.repmodel"}),
        (["falsify", "--curve", "0,0,1,0,0", "-i", SCHOEN, "--ell", "11"],
         {"nonelliptic.certify", "nonelliptic.checker", "nonelliptic.paper"}),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        after_import, after_command = map(json.loads, proc.stdout.splitlines())
        assert after_import == [[], True], proc.stderr
        assert absent.isdisjoint(after_command), (argv, after_command)
