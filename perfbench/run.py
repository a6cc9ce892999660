#!/usr/bin/env python3
"""Benchmark of the nonelliptic CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  One closed-loop client runs the
workload's round of CLI invocations (``workloads.py``) again and again, each
invocation in a fresh interpreter that starts only after the previous one has
exited.  The number of rounds is fixed by S: about S seconds of invocations on
the reference machine.  Every output passes its gate or counts as failed.

``--trace 0`` times the real CLI (``python -m nonelliptic``) and reports the
end-to-end metrics.  ``--trace 1`` is a separate run: it alternates rounds of
an in-process harness (``traced_cli.py``) without and with spans around the
public functions of every package layer, and reports per-layer self times
and counts per round, plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
spans go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
HARNESS = ROOT / "perfbench" / "traced_cli.py"
OP_TIMEOUT_S = 60.0
PROBES = 7  # fresh interpreters per start-up/import figure (median reported)
SETUP = "import nonelliptic"

# name, unit, better, bound, meaning.  On the 2-vCPU reference VM the host's
# CPU speed drifts by 10-30% in phases of 20-60 s, longer than one run, so the
# timings' spread (quartile distance over median) across ten runs is 0.05 to
# 0.16: they get the largest bound allowed.  Peak RSS spreads under 0.01.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "wall time of a fresh `python -c 'import nonelliptic'` (median of 7 or more, spread over the run)"),
    ("ells_per_s", "1/s", "higher", 0.25,
     "primes handled per second of CLI wall time, start-up included: ells certified "
     "(certify_range), scanned (scan_wide), named or sampled (cli_mix), fields censused (census)"),
    ("wall_s", "s", "lower", 0.25, "CLI wall time of one round of the workload (median over rounds)"),
    ("latency_p50_s", "s", "lower", 0.25, "median wall time per invocation"),
    ("latency_tail_s", "s", "lower", 0.25,
     "highest per-invocation percentile with 10 samples beyond it (the maximum below 11 samples)"),
    ("peak_rss_mb", "MiB", "lower", 0.1, "largest max-RSS of any invocation, from os.wait4"),
]

# name, unit, better, the end-to-end metric and workload it should move.
# Times are self times (span minus child spans) per round of the workload.
_SCAN = "ells_per_s on scan_wide"
_RANGE = "ells_per_s on certify_range"
_MIX = "latency_p50_s on cli_mix"
PER_LAYER = [
    ("interp.start_s", "s", "lower", "nothing: the floor, a bare `python -c pass`"),
    ("import.nonelliptic_s", "s", "lower", "setup_s on all workloads, latency_p50_s on cli_mix"),
    ("import.jsonschema_s", "s", "lower", "setup_s on all workloads, latency_p50_s on cli_mix"),
    ("cli.main.s", "s", "lower", _MIX),
    ("data_io.parse_form.s", "s", "lower", _MIX),
    ("data_io.parse_form.calls", "count", "lower", _MIX),
    ("data_io.dump_report.s", "s", "lower", "ells_per_s and peak_rss_mb on certify_range"),
    ("data_io.dump_report.bytes", "bytes", "lower", "ells_per_s and peak_rss_mb on certify_range"),
    ("certify.certify_form.s", "s", "lower", _RANGE),
    ("certify.certify_at_ell.s", "s", "lower", _RANGE),
    ("certify.certify_at_ell.calls", "count", "lower", _RANGE),
    ("certify.irreducibility_by_discriminant.s", "s", "lower", _RANGE),
    ("certify.irreducibility_by_discriminant.calls", "count", "lower", _RANGE),
    ("certify.non_elliptic_trace_test.s", "s", "lower", _RANGE),
    ("certify.non_elliptic_trace_test.calls", "count", "lower", _RANGE),
    ("certify.conductor_bound_test.s", "s", "lower", _RANGE),
    ("certify.conductor_bound_test.calls", "count", "lower", _RANGE),
    ("certify.full_paper_verification.s", "s", "lower", _MIX),
    ("certify.closed_form_scan.s", "s", "lower", _SCAN),
    ("certify.check.s", "s", "lower", "nothing in the CLI: only the benchmark's gate calls check()"),
    ("certify.check.calls", "count", "lower", "nothing in the CLI: only the benchmark's gate calls check()"),
    ("certify.check.ok_ratio", "ratio", "higher", "nothing in the CLI: share of gated certificates check() accepts"),
    ("repmodel.residual_rep.s", "s", "lower", _RANGE),
    ("repmodel.residual_rep.calls", "count", "lower", _RANGE),
    ("repmodel.twist_to_det_chi.s", "s", "lower", _RANGE),
    ("repmodel.twist_to_det_chi.calls", "count", "lower", _RANGE),
    ("quadfield.embedding_choices.s", "s", "lower", "latency_tail_s on cli_mix (about 0 on certify_range)"),
    ("quadfield.embedding_choices.calls", "count", "lower", "latency_tail_s on cli_mix"),
    ("arith.is_prime.s", "s", "lower", _SCAN),
    ("arith.is_prime.calls", "count", "lower", _SCAN + " (cache hits included)"),
    ("arith.mod_pow.s", "s", "lower", _SCAN),
    ("arith.mod_pow.calls", "count", "lower", _SCAN),
    ("arith.mod_inv.s", "s", "lower", _SCAN),
    ("arith.mod_inv.calls", "count", "lower", _SCAN),
    ("arith.primes_in_range.s", "s", "lower", _SCAN),
    ("arith.trial_factor.s", "s", "lower", _RANGE),
    ("arith.trial_factor.calls", "count", "lower", _RANGE),
    *[(f"ecoracle.trace_set.p{p}.s", "s", "lower", "wall_s on census") for p in (5, 7, 11, 13, 17)],
    ("ecoracle.count_points.s", "s", "lower", _MIX),
    ("ecoracle.count_points.calls", "count", "lower", _MIX),
    ("ecoracle.falsify_curve.s", "s", "lower", _MIX),
    *[(f"certify.certs.{method}.{verdict}", "count", "higher" if verdict != "Inconclusive" else "lower",
       "nothing: guards the verdicts")
      for method, verdicts in (("DiscriminantNonResidue", ("Irreducible", "Inconclusive")),
                               ("ReducibilityObstruction", ("Irreducible", "Inconclusive")),
                               ("TraceObstruction", ("NonElliptic", "Inconclusive")),
                               ("ConductorBound", ("NonElliptic", "Inconclusive")))
      for verdict in verdicts],
    ("certify.discriminant.proved_ratio", "ratio", "higher", "nothing: Irreducible / discriminant certificates"),
    ("certify.trace.proved_ratio", "ratio", "higher", "nothing: NonElliptic / trace certificates"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: traced / untraced harness wall time"),
]


@dataclass
class Result:
    rc: int
    wall: float
    maxrss_kb: int
    out: bytes
    err: bytes
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(cmd: list[str], env: dict) -> Result:
    """Run cmd to completion; its wall time and max RSS come from wait4."""
    out_path, err_path = OUT / "stdout.bin", OUT / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = timer.finished.is_set()  # set only if the timer fired
        except BaseException:  # interrupted (SIGTERM): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(),
                  err_path.read_bytes(), timed_out)


def probe(code: str, env: dict, n: int) -> list[float]:
    """Wall times of n fresh interpreters running code."""
    return [spawn([sys.executable, "-c", code], env).wall for _ in range(n)]


def median_probe(code: str, env: dict) -> float:
    probe(code, env, 1)  # warm the file and bytecode caches
    return statistics.median(probe(code, env, PROBES))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


class Runner:
    """Runs invocations and gates every output; a command whose output repeats
    byte for byte is gated once, since a gate is a function of the output."""

    def __init__(self, ops: list[workloads.Op], env: dict):
        self.ops, self.env = ops, env
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first: dict[tuple, tuple] = {}  # argv -> (exit code, stdout digest, stderr)
        self.passed: set[tuple] = set()

    def invoke(self, i: int, cmd: list[str]) -> Result:
        op = self.ops[i]
        res = spawn(cmd, self.env)
        self.attempted += 1
        why = "timed out" if res.timed_out else None
        if why is None and res.err and not op.stderr_ok:
            why = f"unexpected stderr {res.err[:200]!r}"
        seen = (res.rc, hashlib.sha256(res.out).hexdigest(), res.err)
        first = self.first.setdefault(tuple(op.argv), seen)
        if why is None and first != seen:
            why = "output differs from an earlier run of the same command"
        if why is None and seen not in self.passed:
            try:
                why = op.gate(res.rc, res.out, res.err)
            except Exception as exc:  # a malformed output must count, not crash the run
                why = f"gate raised {exc!r}"
            if why is None:
                self.passed.add(seen)  # gates are deterministic: same bytes, same verdict
        if why is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {why}")
        return res


def check_dict(stats: dict):
    """check() on a certificate dict from a JSON report, timed for the trace."""
    from nonelliptic import certify

    def check(d: dict) -> bool:
        cert = certify.Certificate.from_dict(d)
        t0 = time.perf_counter()
        ok = certify.check(cert)
        stats["s"] += time.perf_counter() - t0
        stats["calls"] += 1
        stats["ok"] += bool(ok)
        return ok

    return check


def run_untraced(runner: Runner, rounds: int) -> dict:
    cli = [sys.executable, "-m", "nonelliptic"]
    walls = [[0.0] * len(runner.ops) for _ in range(rounds)]
    rss = 0
    # The set-up probes are spread over the rounds: the host's speed drifts
    # in phases longer than one batch of probes would take.
    probe(SETUP, runner.env, 1)  # warm the file and bytecode caches
    setup: list[float] = []
    for r in range(rounds):
        setup += probe(SETUP, runner.env, -(-PROBES // rounds))
        for i, op in enumerate(runner.ops):
            res = runner.invoke(i, cli + op.argv)
            walls[r][i] = res.wall
            rss = max(rss, res.maxrss_kb)
    flat = [w for row in walls for w in row]
    round_walls = [sum(row) for row in walls]
    value, pct = tail(flat)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "ells_per_s": rounds * sum(op.ells for op in runner.ops) / sum(round_walls),
            "wall_s": statistics.median(round_walls),
            "latency_p50_s": statistics.median(flat),
            "latency_tail_s": value,
            "peak_rss_mb": rss / 1024,
        },
        "notes": [f"rounds={rounds} invocations={len(flat)}",
                  f"latency_tail_s is p{pct:.1f} of {len(flat)} invocations"],
        "walls": walls,
    }


def self_times(spans: dict) -> tuple[dict, dict]:
    """Per span name: total self time and call count."""
    names, name, parent, start, end = (spans[k] for k in ("names", "name", "parent", "start", "end"))
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, n in enumerate(name):
        key = names[n]
        total[key] = total.get(key, 0.0) + dur[i] - child[i]
        calls[key] = calls.get(key, 0) + 1
    return total, calls


def run_traced(runner: Runner, rounds: int, check_stats: dict, env: dict) -> dict:
    spans_file = OUT / "invocation-spans.pickle"
    traced_wall = untraced_wall = 0.0
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    kept: list[dict] = []
    missing: set[str] = set()
    for _ in range(rounds):
        for flag in ("0", "1"):
            for i, op in enumerate(runner.ops):
                spans_file.unlink(missing_ok=True)
                res = runner.invoke(i, [sys.executable, str(HARNESS), str(spans_file), flag, "--", *op.argv])
                if flag == "0":
                    untraced_wall += res.wall
                    continue
                traced_wall += res.wall
                spans = pickle.loads(spans_file.read_bytes())
                t, c = self_times(spans)
                for k, v in t.items():
                    total[k] = total.get(k, 0.0) + v
                for k, v in c.items():
                    calls[k] = calls.get(k, 0) + v
                for k, v in spans["counters"].items():
                    counters[k] = counters.get(k, 0) + v
                missing.update(spans["missing"])
                kept.append(spans)
    spans_file.unlink(missing_ok=True)
    write_spans(kept, runner.ops)

    m: dict[str, float] = {"interp.start_s": median_probe("pass", env)}
    m["import.nonelliptic_s"] = median_probe(SETUP, env) - m["interp.start_s"]
    m["import.jsonschema_s"] = median_probe("import jsonschema", env) - m["interp.start_s"]
    for name, unit, _, _ in PER_LAYER:
        if name in m:
            continue
        base, _, kind = name.rpartition(".")
        if name.startswith("certify.certs.") or name == "data_io.dump_report.bytes":
            m[name] = counters.get(name, 0) / rounds
        elif base == "certify.check":
            # identical outputs are gated once, so this is one round's worth
            m[name] = (check_stats["ok"] / max(check_stats["calls"], 1) if kind == "ok_ratio"
                       else check_stats[kind])
        elif kind == "s":
            m[name] = total.get(base, 0.0) / rounds
        elif kind == "calls":
            m[name] = calls.get(base, 0) / rounds
    for method, good in (("DiscriminantNonResidue", "Irreducible"), ("TraceObstruction", "NonElliptic")):
        n_good = counters.get(f"certify.certs.{method}.{good}", 0)
        n_all = n_good + counters.get(f"certify.certs.{method}.Inconclusive", 0)
        key = "discriminant" if method.startswith("Disc") else "trace"
        m[f"certify.{key}.proved_ratio"] = n_good / n_all if n_all else 0.0
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    notes = [f"traced rounds={rounds}, each paired with an untraced harness round"]
    if missing:
        notes.append(f"not in the package, reported as 0: {', '.join(sorted(missing))}")
    return {"metrics": m, "notes": notes}


def write_spans(kept: list[dict], ops) -> None:
    """All spans of the traced invocations, written once: a pickled list with
    one dict per invocation holding its command and the arrays ``name``
    (index into ``names``), ``parent`` (-1 for a root), ``start`` and ``end``
    (perf_counter seconds)."""
    dump = [{"invocation": n, "command": ops[n % len(ops)].argv, **spans} for n, spans in enumerate(kept)]
    with open(OUT / "spans.pickle", "wb") as fp:
        pickle.dump(dump, fp, protocol=pickle.HIGHEST_PROTOCOL)


def machine_facts() -> dict:
    from nonelliptic import ecoracle

    backend = getattr(ecoracle, "counting_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "census_kernel": backend() if backend else "absent",
    }


def main(argv: list[str] | None = None, size: dict | None = None) -> int:
    """`size` replaces the full workload sizes (the self-test runs tiny ones)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through spawn(), which then kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "nonelliptic" / "cli.py").is_file():
        print(f"error: no nonelliptic sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nonelliptic

    if Path(nonelliptic.__file__).resolve().parent != SRC / "nonelliptic":
        print(f"error: imported nonelliptic from {nonelliptic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    facts = machine_facts()

    check_stats = {"s": 0.0, "calls": 0, "ok": 0}
    ops = workloads.build(args.workload, args.seed, OUT / "inputs", check_dict(check_stats), size)
    runner = Runner(ops, env)
    # A fixed number of rounds, so that order statistics such as the tail
    # compare like with like between runs and between commits.
    rounds = max(1, round(args.seconds / workloads.ROUND_S[args.workload]))
    if args.trace:
        result = run_traced(runner, max(1, rounds // 2), check_stats, env)
        specs = [(n, u, f"moves {note}") for n, u, _, note in PER_LAYER]
    else:
        result = run_untraced(runner, rounds)
        specs = [(n, u, note) for n, u, _, _, note in END_TO_END]

    fail_rate = runner.failed / runner.attempted
    print(f"# nonelliptic benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("# closed loop, 1 client, one invocation at a time")
    for note in result["notes"]:
        print(f"# {note}")
    print(f"# fail_rate = {fail_rate:g} ({runner.failed} of {runner.attempted} invocations)")
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    for name, unit, note in specs:
        print(f"{name:48} {result['metrics'][name]:>18.6f} {unit:6} {note}")

    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit, _ in specs}
    line = {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workloads.WHY[args.workload], "machine": facts,
              "notes": result["notes"], "failures": runner.failures, "result": line,
              "walls": result.get("walls")}
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
