"""The chunked `certify` route: a large ell range certified in batches by
forked workers must give the bytes, the stderr and the exit code of the
in-process route, which certifies and renders the same batches in order.

Tests force the route on small ranges by setting certify.POOL_MIN_RUNS to 1
and the CPU count to 2 or 3, so they run the same on any machine.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonelliptic
from nonelliptic import certify
from nonelliptic.arith import primes_in_range
from nonelliptic.certify import certify_form
from nonelliptic.cli import main
from nonelliptic.data_io import (Rendered, bundled_form, canonical_json, render_items,
                                 write_report)
from nonelliptic.repmodel import admitted_ells

SRC = str(Path(nonelliptic.__file__).resolve().parents[1])
SCHOEN = str(Path(SRC) / "nonelliptic" / "data" / "schoen_s4_25.json")
SQRT2 = str(Path(SRC) / "nonelliptic" / "data" / "s2_512_sqrt2.json")
UNFACTORABLE = 1000000007 * 1000000009


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _active_children():
    import multiprocessing

    return multiprocessing.active_children()


def _form(tmp_path, name, record):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"id": name, **record}))
    return str(path)


def _children() -> list[bytes]:
    """Command lines of this process's live children (Linux)."""
    pids = [pid for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()]
    return [Path(f"/proc/{pid}/cmdline").read_bytes() for pid in pids]


@pytest.fixture
def chunked(monkeypatch):
    """Force the chunked route on `cpus` workers; returns the list that
    records each cut of the ells into batches."""
    cuts = []
    batches = certify.batches

    def spy(ells, cpus):
        cuts.append(batches(ells, cpus))
        return cuts[-1]

    def force(cpus):
        monkeypatch.setattr(certify, "POOL_MIN_RUNS", 1)
        monkeypatch.setattr(certify, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(certify, "_BATCH_ELLS", 7)  # several batches per worker
        monkeypatch.setattr(certify, "batches", spy)
        return cuts

    return force


def _same_as_in_process(capsys, chunked, cpus, *argv):
    """Run argv in process, then chunked; both must agree in full."""
    serial = run(capsys, *argv)
    cuts = chunked(cpus)
    assert run(capsys, *argv) == serial
    assert _children() == []  # every worker joined, and no resource tracker
    return serial, cuts


def _odd_weight_claimed(tmp_path):
    # weight 3: the determinant exponent 2 is even, so no trace test runs and
    # non-ellipticity comes from the conductor 2^9 * 3 (v_2 = 9 > 8); every
    # admitted ell in [7, 300] is proved, so the report ends "all proved: yes"
    a = {5: 6, 7: 10, 11: 13, 13: -13, 17: 20}
    return _form(tmp_path, "odd", {
        "level": 2**9 * 3, "weight": 3, "field": {"type": "rational"},
        "eigenvalues": {str(p): {"x": x, "y": 0} for p, x in a.items()},
        "claimed_conductor_equality": True,
    })


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("form,flags,code", [
    (SCHOEN, (), 2),
    ("odd-weight", (), 0),
    (SQRT2, (), 2),
    (SQRT2, ("--witness-prime", "3"), 2),
], ids=["schoen_s4_25", "odd-weight-claimed", "s2_512_sqrt2", "witness-prime"])
def test_chunked_report_equals_the_in_process_one(tmp_path, capsys, chunked, fmt, form,
                                                   flags, code):
    if form == "odd-weight":
        form = _odd_weight_claimed(tmp_path)
    (got, out, err), cuts = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", form, "--ell-min", "7", "--ell-max", "300",
        "--format", fmt, *flags)
    assert (got, err) == (code, "")
    assert len(cuts) == 1 and len(cuts[0]) in (6, 9)  # 2 or 3 batches for each of 3 workers
    if fmt == "json":
        assert len(json.loads(out)["runs"]) > 6


def test_chunked_root_error_equals_the_in_process_one(capsys, chunked):
    # 3 is a square root of 2 mod 7 only: the in-process run fails at 17, in
    # the first batch, and every later batch fails too
    (code, out, err), _ = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", SQRT2, "--ell-min", "7", "--ell-max", "300",
        "--root", "3")
    assert (code, out) == (1, "")
    assert err == "error: --root 3 is not a square root of 2 mod 17\n"
    assert _active_children() == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_workers_error_reaches_the_parent(tmp_path, capsys, chunked, cpus):
    # a_7 = 3 in weight 4 leaves the trace test inconclusive at 53 and 59
    # only, of the primes in [32, 59]; the conductor, claimed to be the
    # level, cannot be factored there. The batches before 53 pass, so the
    # error comes from a later one ([53, 59], or [53] and [59]).
    form = _form(tmp_path, "late", {
        "level": UNFACTORABLE, "weight": 4, "field": {"type": "rational"},
        "eigenvalues": {"7": {"x": 3, "y": 0}}, "claimed_conductor_equality": True,
    })
    argv = ("certify", "-i", form, "--ell-min", "32", "--ell-max", "59")
    (code, out, err), cuts = _same_as_in_process(capsys, chunked, cpus, *argv)
    assert cuts == ([[[37, 41, 43], [47, 53, 59]]] if cpus == 2
                    else [[[37, 41], [43, 47], [53, 59]]])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {UNFACTORABLE}")
    assert _active_children() == []


def test_the_first_batchs_error_wins_and_no_child_is_left(tmp_path, capsys, chunked):
    probe = json.loads(Path(SCHOEN).read_text())
    probe.update(id="probe", level=UNFACTORABLE, claimed_conductor_equality=True)
    form = tmp_path / "probe.json"
    form.write_text(json.dumps(probe))
    # ell = 7 needs the conductor, and it is in the first batch
    (code, out, err), cuts = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", str(form), "--ell-min", "7", "--ell-max", "200")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {UNFACTORABLE}")
    assert cuts[0][0][0] == 7
    assert _active_children() == []


def test_a_process_that_cannot_fork_or_has_one_cpu_stays_in_process(capsys, chunked,
                                                                    monkeypatch):
    argv = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300")
    serial = run(capsys, *argv)
    pools = []
    monkeypatch.setattr(certify, "_pool_map", lambda *args: pools.append(args))
    chunked(1)
    assert run(capsys, *argv) == serial
    chunked(2)
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv) == serial
    assert pools == []


def _child(script: str, *args: str, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


FORCED = (
    "import multiprocessing, sys\n"
    "from nonelliptic import certify\n"
    "from nonelliptic.cli import main\n"
    "certify.POOL_MIN_RUNS = 1\n"
    "certify.usable_cpus = lambda: 3\n"
    "code = main(sys.argv[1:])\n"
    "assert multiprocessing.active_children() == []\n"
    "sys.exit(code)\n"
)

# A worker that certifies a batch holding 53 dies at once, as if killed.
DYING = (
    "import os\n"
    "from nonelliptic import certify\n"
    "render = certify.render_runs\n"
    "def render_runs(form, root, witness_prime, fmt, ells):\n"
    "    if 53 in ells:\n"
    "        os._exit(3)\n"
    "    return render(form, root, witness_prime, fmt, ells)\n"
    "certify.render_runs = render_runs\n"
)


def test_a_ramanujan_violation_warns_once(tmp_path):
    # the workers get the parsed form, not the file: no second warning
    form = _form(tmp_path, "loud", {
        "level": 25, "weight": 4, "field": {"type": "rational"},
        "eigenvalues": {"2": {"x": 7, "y": 0}, "3": {"x": 7, "y": 0}},
    })
    proc = _child(FORCED, "certify", "-i", form, "--ell-min", "7", "--ell-max", "200",
                  "--format", "json")
    assert proc.returncode in (0, 2), proc.stderr
    assert proc.stderr.count("RamanujanBoundWarning") == 1, proc.stderr
    assert len(json.loads(proc.stdout)["ells"]) > 3


def test_chunked_route_is_clean_under_dev_mode_and_warnings_as_errors():
    # an unclosed pipe or file, a leaked process or any other ResourceWarning
    # becomes an error that ends the run with a traceback
    proc = _child(FORCED, "certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "3000",
                  "--format", "json", flags=("-X", "dev", "-W", "error"))
    assert (proc.returncode, proc.stderr) == (2, "")
    serial = _child("import sys\nfrom nonelliptic.cli import main\nsys.exit(main(sys.argv[1:]))",
                    "certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "3000",
                    "--format", "json")
    assert proc.stdout == serial.stdout


def test_a_dying_worker_exits_1_and_leaves_no_child():
    # FORCED asserts that no child outlives main()
    proc = _child(DYING + FORCED, "certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: a certify worker exited before sending its runs\n"


@pytest.mark.parametrize("cpus,ells,batch,sizes", [
    (2, 9589, 1000, [959] * 9 + [958]),  # schoen_s4_25 over 7..10^5
    (2, 2000, 1000, [1000, 1000]),
    (2, 2001, 1000, [500, 500, 500, 501]),
    (3, 6, 7, [2, 2, 2]),
    (4, 9589, 1000, [799] * 11 + [800]),
    (3, 2, 7, [1, 1]),  # fewer ells than CPUs: no empty batch
])
def test_batches_cut_the_ells_in_order_into_near_equal_batches(monkeypatch, cpus, ells,
                                                                batch, sizes):
    monkeypatch.setattr(certify, "_BATCH_ELLS", batch)
    items = list(range(100, 100 + ells))
    got = certify.batches(items, cpus)
    assert sorted(map(len, got)) == sorted(sizes)
    assert [ell for b in got for ell in b] == items
    assert max(map(len, got)) - min(map(len, got)) <= 1
    assert max(map(len, got)) <= batch
    assert len(got) % cpus == 0 or len(got) == ells


@pytest.mark.parametrize("form_id", ["schoen_s4_25", "s2_512_sqrt2"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rendered_runs_stand_in_for_their_runs(form_id, fmt):
    # in process: any cut of the ells into chunks gives the report's bytes
    form = bundled_form(form_id)
    ells = admitted_ells(form, primes_in_range(7, 400), "[7, 400]")
    whole = certify_form(form, ells)
    for cuts in ([1], [5, 9], [len(ells) - 1]):
        bounds = [0, *cuts, len(ells)]
        runs = tuple(certify.render_runs(form, None, None, fmt, ells[a:b])
                     for a, b in zip(bounds, bounds[1:]))
        stitched = type(whole)(whole.form_id, whole.ells, runs)
        assert stitched.all_proved == whole.all_proved
        assert _written(stitched, fmt) == _written(whole, fmt)


@pytest.mark.parametrize("batch", [1000, 100])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_one_cpu_certifies_and_renders_in_batches_too(monkeypatch, fmt, batch):
    # in process, the range holds one batch of run objects at a time
    monkeypatch.setattr(certify, "usable_cpus", lambda: 1)
    monkeypatch.setattr(certify, "_BATCH_ELLS", batch)
    form = bundled_form("s2_512_sqrt2")
    ells = admitted_ells(form, primes_in_range(7, 3000), "[7, 3000]")
    report = certify.certify_range(form, ells, None, None, fmt)
    assert all(type(r) is certify.RenderedRuns for r in report.runs)
    assert len(report.runs) == len(certify.batches(ells, 1)) == -(-len(ells) // batch)
    assert _written(report, fmt) == _written(certify_form(form, ells), fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_empty_range_gives_the_empty_report(fmt):
    form = bundled_form("schoen_s4_25")
    written = _written(certify.certify_range(form, [], None, None, fmt), fmt)
    assert written == _written(certify_form(form, []), fmt)
    if fmt == "json":
        assert json.loads(written) == {"form": "schoen_s4_25", "all_proved": True,
                                       "ells": [], "runs": []}
    else:
        assert written == "certify form=schoen_s4_25\nall proved: yes\n"


def _written(report, fmt):
    out = io.StringIO()
    write_report(report, fmt, out)
    return out.getvalue()


def test_rendered_json_is_written_verbatim_at_its_depth():
    items = [{"b": [1, 2], "a": {"c": None}}, "x", [{"d": True}], 7]
    for cut in range(1, len(items)):
        pieces = [render_items(items[:cut], 2), render_items(items[cut:], 2)]
        assert canonical_json({"k": pieces}) == canonical_json({"k": items})
    with pytest.raises(ValueError, match="depth 2 written at depth 1"):
        canonical_json([render_items(items, 2)])
    assert canonical_json({"k": [Rendered("1", 2)]}) == '{\n  "k": [\n    1\n  ]\n}\n'
