"""The chunked `certify` route: a large ell range certified in batches by
forked workers must give the bytes, the stderr and the exit code of the
in-process route, which certifies and renders the same batches in order.

Tests force the route on small ranges by setting certify.POOL_MIN_RUNS to 1
and the CPU count to 2 or 3, so they run the same on any machine.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import certify_report

import nonelliptic
from nonelliptic import certify
from nonelliptic.arith import primes_in_range
from nonelliptic.certify import certify_form
from nonelliptic.cli import main
from nonelliptic.data_io import bundled_form
from nonelliptic.repmodel import admitted_ells

SRC = str(Path(nonelliptic.__file__).resolve().parents[1])
SCHOEN = str(Path(SRC) / "nonelliptic" / "data" / "schoen_s4_25.json")
SQRT2 = str(Path(SRC) / "nonelliptic" / "data" / "s2_512_sqrt2.json")
UNFACTORABLE = 2**64 + 1  # past trial_factor's guard


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _form(tmp_path, name, record):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"id": name, **record}))
    return str(path)


def _children() -> list[bytes]:
    """Command lines of this process's live children (Linux). A thread that
    exits between the listing and the read, or a child that exits before its
    command line is read, makes the listing start again."""
    while True:
        try:
            pids = [pid for path in Path("/proc/self/task").glob("*/children")
                    for pid in path.read_text().split()]
            return [Path(f"/proc/{pid}/cmdline").read_bytes() for pid in pids]
        except (FileNotFoundError, ProcessLookupError):
            continue


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


def _hold_children(monkeypatch, tmp_path) -> list:
    """Make each forked worker wait until the parent has rendered a batch,
    so the parent always takes one. Returns the list of the parent's
    batches, each recorded as it starts."""
    mark = tmp_path / "mark"
    parent = os.getpid()
    mine = []
    render = certify.render_runs

    def render_runs(form, root, witness_prime, fmt, ells):
        if os.getpid() == parent:
            mine.append(ells)
            mark.touch()
        else:
            while not mark.exists():
                time.sleep(0.002)
        return render(form, root, witness_prime, fmt, ells)

    monkeypatch.setattr(certify, "render_runs", render_runs)
    return mine


def _errors_in_both_formats(capsys, chunked, cpus, *argv):
    """Run argv in JSON and in text, in process, then chunked: each chunked
    run must agree with its in-process one, and both formats must exit 1
    with the same error and nothing on stdout. Returns the error and the
    cuts of the chunked runs."""
    argvs = [(*argv, "--format", fmt) for fmt in ("json", "text")]
    serial = [run(capsys, *a) for a in argvs]
    cuts = chunked(cpus)
    assert [run(capsys, *a) for a in argvs] == serial
    assert _children() == []
    assert [(code, out) for code, out, _ in serial] == [(1, "")] * 2
    assert serial[0][2] == serial[1][2]
    return serial[0][2], cuts


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
def test_chunked_report_equals_the_in_process_one(tmp_path, capsys, chunked, monkeypatch,
                                                   fmt, form, flags, code):
    if form == "odd-weight":
        form = _odd_weight_claimed(tmp_path)
    argv = ("certify", "-i", form, "--ell-min", "7", "--ell-max", "300", "--format", fmt,
            *flags)
    got, out, err = run(capsys, *argv)
    cuts = chunked(3)
    mine = _hold_children(monkeypatch, tmp_path)
    assert run(capsys, *argv) == (got, out, err)
    assert _children() == []
    assert (got, err) == (code, "")
    assert len(cuts) == 1 and len(cuts[0]) in (6, 9)  # 2 or 3 batches for each of 3 workers
    assert mine  # the parent took a batch, as a worker
    if fmt == "json":
        assert len(json.loads(out)["runs"]) > 6


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_parents_batches_come_back_through_its_spool(tmp_path, capsys, chunked, monkeypatch,
                                                         fmt):
    # every worker spools its batches, the parent too: each batch's text is
    # read back from a spool once, as the report is written. A child waits
    # until the parent has rendered a batch, so the parent always takes one.
    reads = []
    read = certify._read

    def spy(fd, length, at):
        reads.append(at)
        return read(fd, length, at)

    argv = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300", "--format", fmt)
    serial = run(capsys, *argv)
    cuts = chunked(2)
    mine = _hold_children(monkeypatch, tmp_path)
    monkeypatch.setattr(certify, "_read", spy)
    assert run(capsys, *argv) == serial
    assert _children() == []
    assert mine and len(reads) == len(cuts[0]) == 10


def test_more_workers_than_cpus_take_each_batch_once(capsys, chunked, monkeypatch):
    # 6 workers take 427 one-ell batches from one pipe: a batch lost or
    # taken twice would change the report
    argv = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "3000", "--format", "json")
    serial = run(capsys, *argv)
    cuts = chunked(6)
    monkeypatch.setattr(certify, "_BATCH_ELLS", 1)
    assert run(capsys, *argv) == serial
    assert [len(cut) for cut in cuts] == [427]
    assert _children() == []


def test_chunked_root_error_equals_the_in_process_one(capsys, chunked):
    # 3 is a square root of 2 mod 7 only: the in-process run fails at 17, in
    # the first batch, and every later batch fails too
    err, _ = _errors_in_both_formats(
        capsys, chunked, 3, "certify", "-i", SQRT2, "--ell-min", "7", "--ell-max", "300",
        "--root", "3")
    assert err == "error: --root 3 is not a square root of 2 mod 17\n"


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
    err, cuts = _errors_in_both_formats(capsys, chunked, cpus, *argv)
    assert cuts == 2 * ([[[37, 41, 43], [47, 53, 59]]] if cpus == 2
                        else [[[37, 41], [43, 47], [53, 59]]])
    assert err == f"error: {UNFACTORABLE} exceeds the trial-division guard 2**64\n"


def test_the_first_batchs_error_wins_and_no_child_is_left(tmp_path, capsys, chunked):
    probe = json.loads(Path(SCHOEN).read_text())
    probe.update(id="probe", level=UNFACTORABLE, claimed_conductor_equality=True)
    form = tmp_path / "probe.json"
    form.write_text(json.dumps(probe))
    # ell = 7 needs the conductor, and it is in the first batch
    (code, out, err), cuts = _same_as_in_process(
        capsys, chunked, 3, "certify", "-i", str(form), "--ell-min", "7", "--ell-max", "200")
    assert (code, out) == (1, "")
    assert err == f"error: {UNFACTORABLE} exceeds the trial-division guard 2**64\n"
    assert cuts[0][0][0] == 7


def test_a_process_that_cannot_fork_or_has_one_cpu_stays_in_process(capsys, chunked,
                                                                    monkeypatch):
    argv = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300")
    serial = run(capsys, *argv)
    pools = []
    monkeypatch.setattr(certify, "_fork_map", lambda *args: pools.append(args))
    chunked(1)
    assert run(capsys, *argv) == serial
    chunked(2)
    monkeypatch.delattr(os, "fork")
    assert run(capsys, *argv) == serial
    assert pools == []


def test_the_most_batches_fit_a_one_page_pipe_and_fork(monkeypatch):
    # each worker takes a batch index from one pipe, filled before the fork
    # by one write: a range is cut into at most 1,024 batches, so even a pipe
    # of one page (PIPE_BUF on Linux) takes all their indices, and 1,226
    # ells in batches of at most one ell still fork
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set here")
    form = bundled_form("schoen_s4_25")
    ells = admitted_ells(form, primes_in_range(7, 10000), "[7, 10000]")
    serial = _ranged(form, ells, "json")
    pipe, fork = os.pipe, os.fork
    forks = []

    def one_page():
        # nonblocking, so that indices past one page fail rather than hang
        tasks, fill = pipe()
        fcntl.fcntl(fill, fcntl.F_SETPIPE_SZ, 4096)
        os.set_blocking(fill, False)
        return tasks, fill

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(certify, "POOL_MIN_RUNS", 1)
    monkeypatch.setattr(certify, "usable_cpus", lambda: 2)
    monkeypatch.setattr(certify, "_BATCH_ELLS", 1)
    monkeypatch.setattr(os, "pipe", one_page)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert len(ells) == 1226
    assert len(certify.batches(ells, 2)) == certify._MAX_BATCHES == 1024
    assert _ranged(form, ells, "json") == serial
    assert forks == [1]
    assert _children() == []


def test_a_live_thread_keeps_the_range_in_process(monkeypatch):
    # a forked worker keeps only the thread that forked, and any lock another
    # thread held at that moment: while another thread runs, nothing forks
    form = bundled_form("schoen_s4_25")
    ells = primes_in_range(7, 300)
    serial = _ranged(form, ells, "json")
    monkeypatch.setattr(certify, "POOL_MIN_RUNS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pools = []
    fork_map = certify._fork_map

    def spy(work, parts, cpus, spools):
        pools.append(cpus)
        return fork_map(work, parts, cpus, spools)

    monkeypatch.setattr(certify, "_fork_map", spy)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert _ranged(form, ells, "json") == serial
    finally:
        stop.set()
        waiter.join()
    assert pools == []
    assert _ranged(form, ells, "json") == serial  # the thread is gone: the range forks
    assert pools == [2]
    assert _children() == []


def _child(script: str, *args: str, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


FORCED = (
    "import os, sys\n"
    "from nonelliptic import certify\n"
    "from nonelliptic.cli import main\n"
    "certify.POOL_MIN_RUNS = 1\n"
    "certify.usable_cpus = lambda: 3\n"
    "code = main(sys.argv[1:])\n"
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "    sys.exit('a child is left')\n"
    "except ChildProcessError:\n"
    "    sys.exit(code)\n"
)

FORCED_2 = FORCED.replace("lambda: 3", "lambda: 2")  # one child

# SIGCHLD ignored survives exec, as some supervisors start their children
IGNORING_SIGCHLD = "import signal\nsignal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"

# A child dies at once on the first batch it takes, as if killed. The parent,
# which takes batches too and cannot report its own death, renders its
# batches only once a child has died, so a child always takes one.
DYING = (
    "import os\n"
    "from nonelliptic import certify\n"
    "render = certify.render_runs\n"
    "parent = os.getpid()\n"
    "def render_runs(form, root, witness_prime, fmt, ells):\n"
    "    if os.getpid() != parent:\n"
    "        os._exit(3)\n"
    "    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)\n"
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


def test_a_range_started_with_sigchld_ignored_gives_the_default_output():
    # the kernel reaps the children at once, and waitpid, which still
    # blocks until a child ends, then finds none; FORCED_2 asserts that no
    # child outlives main()
    argv = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "3000", "--format", "json")
    ignoring = _child(IGNORING_SIGCHLD + FORCED_2, *argv)
    default = _child(FORCED_2, *argv)
    assert (default.returncode, default.stderr) == (2, "")
    assert (ignoring.returncode, ignoring.stderr, ignoring.stdout) == (2, "", default.stdout)


def test_a_dying_worker_exits_1_and_leaves_no_child():
    # FORCED asserts that no child outlives main()
    proc = _child(DYING + FORCED, "certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: a certify worker exited before sending its runs\n"


def test_the_parents_error_waits_for_a_child_mid_batch(tmp_path):
    # The parent takes batches too. A child marks the batch it starts, then
    # sleeps and raises; the parent raises on its first batch after the
    # marked one, while the child is still in it. The parent must wait for
    # the child, and the child's error, first in batch order, wins.
    mark = tmp_path / "mark"
    hook = (
        "import os, time\n"
        "from nonelliptic import certify\n"
        "certify._BATCH_ELLS = 7\n"
        "render = certify.render_runs\n"
        "parent = os.getpid()\n"
        f"mark = {str(mark)!r}\n"
        "def render_runs(form, root, witness_prime, fmt, ells):\n"
        "    if os.getpid() != parent:\n"
        "        with open(mark + '.new', 'w') as f:\n"
        "            f.write(str(ells[0]))\n"
        "        os.replace(mark + '.new', mark)\n"
        "        time.sleep(0.3)\n"
        "        raise ValueError(f'child batch from {ells[0]}')\n"
        "    while not os.path.exists(mark):\n"
        "        time.sleep(0.002)\n"
        "    if ells[0] > int(open(mark).read()):\n"
        "        raise ValueError(f'parent batch from {ells[0]}')\n"
        "    return render(form, root, witness_prime, fmt, ells)\n"
        "certify.render_runs = render_runs\n"
    )
    proc = _child(hook + FORCED_2, "certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "300",
                  "--format", "json")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: child batch from {mark.read_text()}\n"


LONG_RANGE = ("certify", "-i", SCHOEN, "--ell-min", "7", "--ell-max", "1000000",
              "--format", "json")


def _workers(pid: int) -> list[int]:
    """The pids of a process's children, once it has some (Linux)."""
    deadline = time.monotonic() + 60
    while True:
        try:
            pids = [int(child) for path in Path(f"/proc/{pid}/task").glob("*/children")
                    for child in path.read_text().split()]
        except (FileNotFoundError, ProcessLookupError):
            pids = []
        if pids:
            return pids
        assert time.monotonic() < deadline, "the range never forked"
        time.sleep(0.005)


def _alive(pid: int) -> bool:
    """Whether pid runs: a zombie that no one reaps counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@contextmanager
def _signalled(sig: int, script: str = FORCED_2):
    """Start a forced range of 2 workers long enough to still run, send `sig`
    to the CLI once its child has been at work for a moment, and give the
    seconds the CLI took to exit and its children's pids; a child left
    running is killed on leaving."""
    proc = subprocess.Popen([sys.executable, "-c", script, *LONG_RANGE],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            env={**os.environ, "PYTHONPATH": SRC})
    workers = []
    try:
        workers = _workers(proc.pid)
        time.sleep(0.1)  # past the fork, into the batches
        assert proc.poll() is None
        start = time.monotonic()
        proc.send_signal(sig)
        proc.wait(timeout=30)
        yield time.monotonic() - start, workers
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_killed_cli_leaves_no_worker(sig):
    # a child stops before its next batch once its parent is gone: it holds
    # the caller's stdout and stderr, so a caller reading them would hang
    with _signalled(sig) as (_, workers):
        deadline = time.monotonic() + 2
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_alive, workers))


def test_an_interrupted_range_exits_within_a_second_and_leaves_no_worker():
    # the interrupt kills the children, with no wait for their batches;
    # the handler is set because a shell may start the suite with SIGINT ignored
    script = "import signal\nsignal.signal(signal.SIGINT, signal.default_int_handler)\n" + FORCED_2
    with _signalled(signal.SIGINT, script) as (took, workers):
        assert took < 1
        assert not any(map(_alive, workers))


@pytest.mark.parametrize("cpus,ells,batch,sizes", [
    (2, 9589, 1000, [959] * 9 + [958]),  # schoen_s4_25 over 7..10^5
    (2, 2000, 1000, [1000, 1000]),
    (2, 2001, 1000, [500, 500, 500, 501]),
    (3, 6, 7, [2, 2, 2]),
    (4, 9589, 1000, [799] * 11 + [800]),
    (3, 2, 7, [1, 1]),  # fewer ells than CPUs: no empty batch
    (2, 1226, 1, [2] * 202 + [1] * 822),  # at the bound, 1,024 batches: they grow instead
    (3, 2000, 1, [2] * 977 + [1] * 46),  # 1,023, the most a multiple of 3 allows
])
def test_batches_cut_the_ells_in_order_into_near_equal_batches(monkeypatch, cpus, ells,
                                                                batch, sizes):
    monkeypatch.setattr(certify, "_BATCH_ELLS", batch)
    monkeypatch.setattr(certify, "_MAX_BATCHES", 1024)  # PIPE_BUF // 4 on Linux
    items = list(range(100, 100 + ells))
    got = certify.batches(items, cpus)
    assert sorted(map(len, got)) == sorted(sizes)
    assert [ell for b in got for ell in b] == items
    assert max(map(len, got)) - min(map(len, got)) <= 1
    assert max(map(len, got)) <= batch or len(got) > 1024 - cpus
    assert len(got) <= 1024
    assert len(got) % cpus == 0 or len(got) == ells


@pytest.mark.parametrize("batch", [1000, 100, 7, 1])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_one_cpu_certifies_and_renders_in_batches_too(monkeypatch, fmt, batch):
    # in process, the range holds one batch of run objects at a time, and
    # any cut of the ells into batches gives the report's bytes
    monkeypatch.setattr(certify, "usable_cpus", lambda: 1)
    monkeypatch.setattr(certify, "_BATCH_ELLS", batch)
    rendered = []
    render = certify.render_runs

    def spy(form, root, witness_prime, fmt, ells):
        rendered.append(ells)
        return render(form, root, witness_prime, fmt, ells)

    monkeypatch.setattr(certify, "render_runs", spy)
    for form_id in ("schoen_s4_25", "s2_512_sqrt2"):
        form = bundled_form(form_id)
        ells = admitted_ells(form, primes_in_range(7, 3000), "[7, 3000]")
        whole = certify_form(form, ells)
        rendered.clear()
        assert _ranged(form, ells, fmt) == (certify_report(form, ells, whole, fmt),
                                            all(run.proved_irreducible and run.proved_non_elliptic
                                                for run in whole))
        assert rendered == certify.batches(ells, 1)
        assert len(rendered) == -(-len(ells) // batch)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_empty_range_gives_the_empty_report(fmt):
    form = bundled_form("schoen_s4_25")
    written, proved = _ranged(form, [], fmt)
    assert (written, proved) == (certify_report(form, [], certify_form(form, []), fmt), True)
    if fmt == "json":
        assert json.loads(written) == {"form": "schoen_s4_25", "all_proved": True,
                                       "ells": [], "runs": []}
    else:
        assert written == "certify form=schoen_s4_25\nall proved: yes\n"


def test_an_unknown_format_is_refused():
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        _ranged(bundled_form("schoen_s4_25"), [11], "yaml")


def _ranged(form, ells, fmt):
    """What certify_range writes for `ells`, and what it returns."""
    out = io.StringIO()
    proved = certify.certify_range(form, ells, None, None, fmt, out)
    return out.getvalue(), proved
