"""The chunked `certify` route: a large ell range certified by spawned workers
must give the bytes, the stderr and the exit code of the in-process route.

Tests force the route on small ranges by setting certify.WORKER_START_RUNS
to 1 and the CPU count to 2 or 3, so they run the same on any machine.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonelliptic
from nonelliptic import certify, parallel
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
    """Force the chunked route with `cpus` chunks; returns the list that
    records one entry per worker whose results the parent reads."""
    received = []
    results = parallel._results

    def spy(*args):
        received.append(1)
        return results(*args)

    def force(cpus):
        monkeypatch.setattr(certify, "WORKER_START_RUNS", 1)
        monkeypatch.setattr(certify, "usable_cpus", lambda: cpus)
        # several batches per chunk; the workers get the size from the parent
        monkeypatch.setattr(parallel, "_BATCH_ELLS", 7)
        monkeypatch.setattr(parallel, "_results", spy)
        return received

    return force


def _same_as_in_process(capsys, chunked, cpus, *argv):
    """Run argv in process, then chunked; both must agree in full."""
    serial = run(capsys, *argv)
    received = chunked(cpus)
    assert run(capsys, *argv) == serial
    return serial, received


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
    (got, out, err), received = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", form, "--ell-min", "7", "--ell-max", "300",
        "--format", fmt, *flags)
    assert (got, err) == (code, "")
    assert received == [1, 1]  # two workers sent their chunks
    if fmt == "json":
        assert len(json.loads(out)["runs"]) > 6


def test_chunked_root_error_equals_the_in_process_one(capsys, chunked):
    # 3 is a square root of 2 mod 7 only: the in-process run fails at 17, in
    # the parent's chunk, and each worker's chunk fails too
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
    # level, cannot be factored there. The parent's chunk [37, 41, 43, 47]
    # passes, so the error comes from the workers ([53, 59], or [53] and [59]).
    form = _form(tmp_path, "late", {
        "level": UNFACTORABLE, "weight": 4, "field": {"type": "rational"},
        "eigenvalues": {"7": {"x": 3, "y": 0}}, "claimed_conductor_equality": True,
    })
    argv = ("certify", "-i", form, "--ell-min", "32", "--ell-max", "59")
    assert certify.chunk_sizes(6, 1) == [6]
    (code, out, err), received = _same_as_in_process(capsys, chunked, cpus, *argv)
    assert certify.chunk_sizes(6, 1) == ([4, 2] if cpus == 2 else [4, 1, 1])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {UNFACTORABLE}")
    assert received == [1]  # the first worker's error ends the run
    assert _active_children() == []
    assert all(b"resource_tracker" in cmdline for cmdline in _children())


def test_the_parents_error_wins_and_no_child_is_left(tmp_path, capsys, chunked):
    probe = json.loads(Path(SCHOEN).read_text())
    probe.update(id="probe", level=UNFACTORABLE, claimed_conductor_equality=True)
    form = tmp_path / "probe.json"
    form.write_text(json.dumps(probe))
    # ell = 7 needs the conductor, and it is in the parent's chunk
    (code, out, err), received = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", str(form), "--ell-min", "7", "--ell-max", "200")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot factor {UNFACTORABLE}")
    assert received == []
    assert _active_children() == []
    assert all(b"resource_tracker" in cmdline for cmdline in _children())


def _child(script: str, *args: str, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


FORCED = (
    "import multiprocessing, sys\n"
    "from nonelliptic import certify\n"
    "from nonelliptic.cli import main\n"
    "certify.WORKER_START_RUNS = 1\n"
    "certify.usable_cpus = lambda: 3\n"
    "code = main(sys.argv[1:])\n"
    "assert multiprocessing.active_children() == []\n"
    "sys.exit(code)\n"
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


@pytest.mark.parametrize("cpus,ells,runs_per_ell,sizes", [
    (1, 100_000, 1, [100_000]),  # one CPU: in process
    (2, 4799, 1, [4799]),  # below three start-ups: in process
    (2, 4800, 1, [3200, 1600]),
    (2, 9589, 1, [5595, 3994]),  # schoen_s4_25 over 7..10^5
    (2, 2400, 2, [1600, 800]),  # two runs per ell over Q(sqrt(d))
    (4, 9589, 1, [3598, 1997, 1997, 1997]),
    (64, 9589, 1, [3598, 1997, 1997, 1997]),  # at most one chunk per 1600 runs, less one
])
def test_chunk_sizes(monkeypatch, cpus, ells, runs_per_ell, sizes):
    monkeypatch.setattr(certify, "usable_cpus", lambda: cpus)
    got = certify.chunk_sizes(ells, runs_per_ell)
    assert got == sizes
    # every worker's chunk pays for its start-up, and the parent's is longer
    start = -(-certify.WORKER_START_RUNS // runs_per_ell)
    assert all(size >= start for size in got[1:])
    assert all(got[0] >= size + start for size in got[1:])
    assert len(got) <= cpus


@pytest.mark.parametrize("form_id", ["schoen_s4_25", "s2_512_sqrt2"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rendered_runs_stand_in_for_their_runs(form_id, fmt):
    # in process: any cut of the ells into chunks gives the report's bytes
    form = bundled_form(form_id)
    ells = admitted_ells(form, primes_in_range(7, 400), "[7, 400]")
    whole = certify_form(form, ells)
    for cuts in ([1], [5, 9], [len(ells) - 1]):
        bounds = [0, *cuts, len(ells)]
        runs = tuple(batch for a, b in zip(bounds, bounds[1:])
                     for batch in parallel.render_runs(form, ells[a:b], None, None, fmt, 4))
        stitched = type(whole)(whole.form_id, whole.ells, runs)
        assert stitched.all_proved == whole.all_proved
        assert _written(stitched, fmt) == _written(whole, fmt)


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


def test_a_workers_exception_is_rebuilt_without_its_init():
    # FormDataError takes (field, message) but its args are (message,), so
    # pickle could not rebuild it; the parent does, with type and message
    import multiprocessing

    from nonelliptic.repmodel import FormDataError

    receiver, sender = multiprocessing.Pipe(duplex=False)
    with receiver, sender:
        sender.send((FormDataError, ("level 0 must be positive",), "Traceback ...\n"))
        with pytest.raises(FormDataError, match="^level 0 must be positive$") as exc:
            parallel._results(None, receiver)
    assert "Traceback ..." in str(exc.value.__cause__)
