import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nonelliptic
from conftest import imports_outside_stdlib
from nonelliptic.arith import primes_in_range, trial_factor
from nonelliptic.certify import certify_form, family_trace_obstruction
from nonelliptic.ecoracle import CurveQ, falsify_curve
from nonelliptic.repmodel import (
    BadReductionError,
    FormDataError,
    InsufficientDataError,
    NewformData,
    NotSplitError,
    QuadInt,
    RamanujanBoundWarning,
    RamifiedError,
    _reductions,
    admitted_ells,
    refusal,
)


def test_reduction_of_weight4_form_at_11(schoen_form):
    m, t, [(root, traces)] = _reductions(schoen_form, 11, None)
    assert traces == {2: 1, 3: 7, 7: 6}  # a_11 dropped: p = ell
    assert (m, t) == (3, 4)
    assert root is None
    assert schoen_form.level == 25
    assert schoen_form.claimed_conductor_equality is False


def test_reductions_of_weight2_form_at_7(sqrt2_form):
    m, t, [(root, traces), (other, other_traces)] = _reductions(sqrt2_form, 7, None)
    assert (root, other) == (3, 4)  # the smaller root first
    assert traces[29] == 4  # 6*3 = 18 = 4 (mod 7)
    assert (m, t) == (1, 0)
    assert 7 not in traces  # a_7 dropped: p = ell
    assert sqrt2_form.claimed_conductor_equality is True

    assert _reductions(sqrt2_form, 7, 4) == (1, 0, [(4, other_traces)])
    assert other_traces[29] == (6 * 4) % 7 == 3


def test_a_bad_reduction_prime_is_refused(schoen_form):
    with pytest.raises(BadReductionError, match="bad reduction"):
        _reductions(schoen_form, 5, None)
    level49 = NewformData("t", 49, 2, None, {2: QuadInt(1)})
    with pytest.raises(BadReductionError):
        certify_form(level49, [7])
    # ell = 2 fails earlier: it is not an odd prime at all
    with pytest.raises(ValueError, match="odd prime"):
        certify_form(level49, [2])
    with pytest.raises(ValueError, match="odd prime"):
        falsify_curve(CurveQ(0, 0, 1, 0, 0), level49, 2)


def test_an_inert_prime_is_refused(sqrt2_form):
    with pytest.raises(NotSplitError):
        _reductions(sqrt2_form, 11, None)  # 2 is a non-square mod 11


def test_rational_trace_values_do_not_depend_on_embedding(sqrt2_form):
    # at ell = 17 (split: 6^2 = 2) the rational a_7 = -4 survives in the
    # trace map and must reduce identically under both roots
    _, _, [(_, t1), (_, t2)] = _reductions(sqrt2_form, 17, None)
    assert t1[7] == t2[7] == (-4) % 17
    assert t1[29] != t2[29]  # the surd values do depend on it

    form = NewformData("t", 25, 4, None, {2: QuadInt(1), 3: QuadInt(7)})
    assert _reductions(form, 13, None) == (3, 5, [(None, {2: 1, 3: 7})])


@pytest.mark.parametrize("ell,k", [(7, 4), (11, 4), (13, 4), (7, 2), (11, 2), (97, 4)])
def test_det_exponent_is_weight_rule(ell, k, schoen_form, sqrt2_form):
    form = schoen_form if k == 4 else sqrt2_form
    if form.d is not None:
        try:
            m, _, _ = _reductions(form, ell, None)
        except NotSplitError:
            return
    else:
        m, _, _ = _reductions(form, ell, None)
    assert m == (k - 1) % (ell - 1)


def test_twist_examples(schoen_form, sqrt2_form):
    run11 = certify_form(schoen_form, [11], witness_prime=2)[0]
    assert run11.twist_exponent == 4 == (11 - 3) // 2
    assert run11.trace_tests[0].witness["trace"] == 5  # 1 * 2^4 = 16 = 5 (mod 11)

    # determinant already chi: each trace test reads the trace as reduced
    _, _, reductions = _reductions(sqrt2_form, 7, None)
    for root, traces in reductions:
        for p in [p for p in traces if p % 7 != 1]:
            [run] = certify_form(sqrt2_form, [7], root, p)
            assert run.twist_exponent == 0
            assert run.trace_tests[0].witness["trace"] == traces[p]

    run13 = certify_form(schoen_form, [13], witness_prime=2)[0]
    assert run13.twist_exponent == 5
    assert run13.trace_tests[0].witness["trace"] == 6  # 2^5 = 32 = 6 (mod 13)


@pytest.mark.parametrize("ell", [7, 11, 13, 17, 19, 23, 97])
def test_twist_normalizes_determinant(ell, schoen_form):
    m, t, _ = _reductions(schoen_form, ell, None)
    [run] = certify_form(schoen_form, [ell])
    assert run.twist_exponent == t
    assert (m + 2 * t) % (ell - 1) == 1
    assert all(c.inputs["twist_exponent"] == run.twist_exponent for c in run.trace_tests)


def test_twist_of_even_exponent_rejected():
    # every odd exponent mod 6 twists to determinant chi: t = (1-m)/2 mod 3
    for m, t in [(1, 0), (3, 2), (5, 1)]:
        # weight m + 1 gives m at ell = 7; at 7 every trace test is
        # inconclusive, so the run tests both primes, each trace times p^t
        form = NewformData("t", 25, m + 1, None, {2: QuadInt(1), 3: QuadInt(2)})
        assert _reductions(form, 7, None)[:2] == (m, t)
        assert (m + 2 * t) % 6 == 1
        [run] = certify_form(form, [7])
        assert [c.witness["trace"] for c in run.trace_tests] == [
            1 * pow(2, t, 7) % 7, 2 * pow(3, t, 7) % 7]
    # weight 3 gives the even exponent 2: no run twists it, and falsify refuses it
    form = NewformData("t", 25, 3, None, {2: QuadInt(1), 3: QuadInt(2)})
    assert _reductions(form, 7, None)[:2] == (2, None)
    [run] = certify_form(form, [7])
    assert (run.twist_exponent, run.trace_tests) == (None, ())
    with pytest.raises(ValueError, match="^no determinant-chi twist exists: exponent 2 is even$"):
        falsify_curve(CurveQ(0, 0, 1, 0, 0), form, 7)


def test_trace_at_missing_prime_is_insufficient_data(schoen_form):
    # a run notes the missing prime and tests nothing there
    [run] = certify_form(schoen_form, [11], witness_prime=13)
    assert (run.irreducible, run.trace_tests) == (None, ())
    assert run.notes[0] == "no eigenvalue at p=13; discriminant test skipped"
    # a family certificate needs it: a ValueError whose str() is the message
    # itself, with no KeyError quotes
    with pytest.raises(InsufficientDataError, match="insufficient data") as exc:
        family_trace_obstruction(schoen_form, 13)
    assert str(exc.value) == "insufficient data: no eigenvalue stored at p=13"


def test_newform_validation():
    # the form checks its own field d before anything else
    for d, message in [(8, "d=8 is not square-free"), (-3, "d=-3 must be > 1"),
                       (2**64 + 1, "trial-division guard")]:
        with pytest.raises(FormDataError, match=message) as exc:
            NewformData("t", 25, 4, d, {2: QuadInt(1)})
        assert exc.value.field == ("field", "d")
    with pytest.raises(FormDataError, match="Miller-Rabin") as exc:
        NewformData("t", 25, 4, None, {3317044064679887385962123: QuadInt(1)})
    assert exc.value.field == ("eigenvalues", 3317044064679887385962123)
    with pytest.raises(ValueError, match="not prime"):
        NewformData("t", 25, 4, None, {4: QuadInt(1)})
    with pytest.raises(ValueError, match="dividing the level"):
        NewformData("t", 25, 4, None, {5: QuadInt(1)})
    with pytest.raises(ValueError, match="weight"):
        NewformData("t", 25, 1, None, {})


# What a reduction of `_reductions` holds at every ell the rule admits, each
# under the name of the record it rules out.
PROMISES = {
    "exponent-0": lambda form, ell, m, traces: m != 0,
    "exponent-ell-1": lambda form, ell, m, traces: 1 <= m <= ell - 2,
    "ell-divides-level": lambda form, ell, m, traces: form.level % ell != 0,
    "key-divides-level": lambda form, ell, m, traces: all(form.level % p for p in traces),
    "key-is-ell": lambda form, ell, m, traces: ell not in traces,
    "trace-ell": lambda form, ell, m, traces: all(t < ell for t in traces.values()),
    "trace-negative": lambda form, ell, m, traces: all(t >= 0 for t in traces.values()),
}


@pytest.mark.parametrize("promise", PROMISES.values(), ids=PROMISES)
def test_a_reduction_holds_what_the_rule_promises(promise):
    # levels divisible by small ells, weights whose k - 1 some ell - 1
    # divides, and values at every good prime, ell included, negative or
    # past ell
    admitted = refused = 0
    for level, weight, d in [(25, 4, None), (77, 7, None), (3, 13, 2), (1, 2, 7), (55, 3, 3)]:
        y = 0 if d is None else -1
        primes = [p for p in primes_in_range(2, 60) if level % p]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RamanujanBoundWarning)
            form = NewformData("t", level, weight, d, {p: QuadInt(-7 * p, y) for p in primes})
        for ell in primes_in_range(3, 60):
            try:
                m, t, reductions = _reductions(form, ell, None)
            except ValueError:
                refused += 1
                continue
            # the twist to determinant chi exists iff m is odd, and is the
            # smaller solution of m + 2t = 1 (mod ell - 1)
            assert (t is None) == (m % 2 == 0), (form, ell)
            assert t is None or ((m + 2 * t) % (ell - 1) == 1 and 0 <= t < (ell - 1) // 2)
            for _, traces in reductions:
                admitted += 1
                assert promise(form, ell, m, traces), (form, ell)
    assert admitted > 20 and refused > 20


def test_ramanujan_violation_warns_but_loads():
    with pytest.warns(RamanujanBoundWarning) as record:
        form = NewformData("t", 25, 2, None, {3: QuadInt(100)})
    assert form.eigenvalues[3].x == 100
    assert record[0].filename == __file__  # the constructor's caller


def test_bad_primes(schoen_form, sqrt2_form):
    assert trial_factor(schoen_form.level).factors == ((5, 2),)
    assert trial_factor(sqrt2_form.level).factors == ((2, 9),)


# --- the admissibility rule -----------------------------------------------------

def _form(level, weight, d):
    y = 0 if d is None else 1
    p = next(p for p in (2, 3, 5) if level % p)
    return NewformData("t", level, weight, d, {p: QuadInt(1, y)})


ROOT_OVER_Q = "--root 3 given, but form t has a rational coefficient field"
VANISHES = "determinant exponent \\(k-1\\) mod \\(ell-1\\) vanishes for ell="


@pytest.mark.parametrize("level,weight,d,ell,root,error,message", [
    # each refusal where the ones after it also apply: the first one wins
    (77, 7, 2, 7, 5, BadReductionError, "bad reduction prime: 7 divides the level 77"),
    (3, 7, None, 7, 3, ValueError, ROOT_OVER_Q),
    (3, 11, 2, 11, 5, NotSplitError, "11 is inert in Q\\(sqrt\\(2\\)\\)"),
    (3, 7, 7, 7, 0, RamifiedError, "7 divides d=7: ramified"),
    (3, 7, 2, 7, 5, ValueError, "--root 5 is not a square root of 2 mod 7"),
    (3, 7, 2, 7, 3, ValueError, VANISHES + "7"),
    (3, 7, None, 7, None, ValueError, VANISHES + "7"),
], ids=["bad-reduction", "root-over-q", "inert", "ramified", "not-a-root", "vanishing",
        "vanishing-over-q"])
def test_refusals_come_in_one_order(level, weight, d, ell, root, error, message):
    form = _form(level, weight, d)
    got = refusal(form, ell, root)
    assert type(got) is error
    with pytest.raises(error, match=message):
        raise got
    # the reductions, a certify run and falsify raise the same refusal
    with pytest.raises(error, match=message):
        _reductions(form, ell, root)
    with pytest.raises(error, match=message):
        certify_form(form, [ell], root)
    with pytest.raises(error, match=message):
        falsify_curve(CurveQ(0, 0, 1, 0, 0), form, ell, root)


def test_each_refusal_names_its_kind():
    # the CLI prints a refusal as it stands, after "error: "
    assert str(refusal(_form(77, 2, None), 7)) == "bad reduction prime: 7 divides the level 77"
    assert str(refusal(_form(3, 2, 2), 11)) == (
        "inert prime: no rational embedding: 11 is inert in Q(sqrt(2))")
    assert str(refusal(_form(3, 2, 7), 7)) == (
        "ramified prime: 7 divides d=7: ramified, neither split nor inert")


def test_the_rule_proves_ell_prime_before_it_takes_a_root():
    # 561 = 3*11*17 passes Euler's criterion for d = 2 (2**280 = 1 mod 561), so
    # refusal, which trusts its caller, admits it; a root search mod 561 looks
    # for a non-residue forever. Run in a subprocess, so a hang fails the test
    # by its timeout instead of stalling the suite.
    form = NewformData("t", 1, 2, 2, {})
    assert pow(2, 280, 561) == 1 and refusal(form, 561) is None
    src = str(Path(nonelliptic.__file__).resolve().parents[1])
    code = (
        "from nonelliptic.certify import certify_form\n"
        "from nonelliptic.ecoracle import CurveQ, falsify_curve\n"
        "from nonelliptic.repmodel import NewformData\n"
        "form = NewformData('t', 1, 2, 2, {})\n"
        "for run in (lambda: certify_form(form, [561]),\n"
        "            lambda: falsify_curve(CurveQ(0, 0, 1, 0, 0), form, 561)):\n"
        "    try:\n"
        "        run()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "modulus 561 is not an odd prime\n" * 2, proc.stderr


def test_embeddings_of_an_admitted_ell():
    form = _form(3, 2, 2)
    assert refusal(form, 7) is refusal(form, 7, 3) is None
    assert [root for root, _ in _reductions(form, 7, None)[2]] == [3, 4]
    assert [root for root, _ in _reductions(form, 7, 4)[2]] == [4]
    assert [root for root, _ in _reductions(_form(3, 2, None), 7, None)[2]] == [None]
    assert [run.embedding_root for run in certify_form(form, [7])] == [3, 4]


def test_an_explicit_embedding_goes_through_the_rule(sqrt2_form, schoen_form):
    with pytest.raises(ValueError, match="rational coefficient field, which takes no embedding"):
        certify_form(schoen_form, [7], 3)
    with pytest.raises(NotSplitError):
        certify_form(sqrt2_form, [11], 3)
    # the d = 7 form at the ramified 7: no embedding exists to hand in
    with pytest.raises(RamifiedError):
        certify_form(_form(3, 2, 7), [7], 0)


@pytest.mark.parametrize("level,weight,d,message", [
    (77, 2, None, "every prime in [7, 12] divides the level 77 or has (ell-1) dividing k-1 = 1"),
    (3, 7, None, "every prime in [7, 7] divides the level 3 or has (ell-1) dividing k-1 = 6"),
    (3, 13, 10, "every prime in [11, 13] does not split in Q(sqrt(10)), divides the level 3 "
                "or has (ell-1) dividing k-1 = 12"),  # 11 inert, 13 split but vanishing
    (3, 11, 2, "no prime in [11, 11] splits in Q(sqrt(2))"),  # inert and vanishing
    (3, 2, 7, "no prime in [7, 7] splits in Q(sqrt(7))"),  # ramified
], ids=["bad-reduction", "vanishing", "inert-or-vanishing", "inert-and-vanishing",
        "ramified"])
def test_admitted_ells_explains_a_range_it_refuses_whole(level, weight, d, message):
    form = _form(level, weight, d)
    lo, hi = map(int, message.split("[")[1].split("]")[0].split(", "))
    with pytest.raises(ValueError) as exc:
        admitted_ells(form, primes_in_range(lo, hi), f"[{lo}, {hi}]")
    assert str(exc.value) == message
    assert type(exc.value) is ValueError


def test_admitted_ells_keeps_what_the_rule_admits():
    form = _form(77, 7, 2)  # 7 and 11 divide the level; (7-1) | 6; 13 is inert
    assert admitted_ells(form, primes_in_range(7, 50), "[7, 50]") == [17, 23, 31, 41, 47]
    assert [ell for ell in primes_in_range(7, 50) if refusal(form, ell) is None] == [
        17, 23, 31, 41, 47]


def test_the_rule_takes_no_square_root_twice_per_ell(monkeypatch, sqrt2_form, schoen_form):
    import io

    import nonelliptic.repmodel as repmodel
    from nonelliptic.certify import certify_range

    roots, asked = [], []
    sqrt_mod, rule = repmodel._sqrt_mod, repmodel.refusal
    monkeypatch.setattr(repmodel, "_sqrt_mod", lambda a, ell: roots.append(ell) or sqrt_mod(a, ell))
    monkeypatch.setattr(repmodel, "refusal",
                        lambda form, ell, root=None: asked.append(ell) or rule(form, ell, root))
    primes = primes_in_range(7, 200)
    ells = admitted_ells(sqrt2_form, primes, "[7, 200]")
    assert (len(primes), len(ells)) == (43, 20)
    assert roots == []  # the range filter uses Euler's criterion alone
    asked.clear()
    certify_form(sqrt2_form, ells)
    assert roots == ells  # one root per ell gives both embeddings
    assert asked == ells  # and one ask of the rule gives both
    asked.clear()
    certify_form(schoen_form, primes)
    assert asked == primes
    asked.clear()
    roots.clear()
    # the range counts its runs without a reduction: one ask per admitted ell
    certify_range(sqrt2_form, ells, None, None, "json", io.StringIO())
    assert asked == ells
    assert roots == ells
    asked.clear()
    roots.clear()
    falsify_curve(CurveQ(0, 0, 1, 0, 0), sqrt2_form, 7)
    assert asked == [7]
    assert roots == [7]


def test_repmodel_imports_only_the_stdlib_and_arith():
    # the rule's home never pulls in the certification engine
    src = Path(nonelliptic.__file__).resolve().parent / "repmodel.py"
    assert imports_outside_stdlib(src) == {".arith"}
