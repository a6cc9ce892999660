#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

It checks that BENCHMARK.json matches the metrics the benchmark emits, that
every workload runs clean at a tiny size in both modes with every metric
named and united, that tampered outputs, changing outputs and hung
invocations count as failures, and that the benchmark refuses to run where
the package sources are missing.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads

QUICK_SEED = 7


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.FULL)
           and all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"]),
           "BENCHMARK.json lists every workload with the reason recorded in workloads.py")
    expect([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
           == [e[:4] for e in run.END_TO_END], "end-to-end metrics match run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [e[:3] for e in run.PER_LAYER], "per-layer metrics match run.PER_LAYER")


def tiny_runs() -> None:
    for name in workloads.FULL:
        for trace, specs in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.main(["--workload", name, "--seed", str(QUICK_SEED), "--seconds", "0",
                               "--trace", str(trace)], size=workloads.QUICK)
            last = json.loads(buf.getvalue().splitlines()[-1])
            want = {n: u for n, u, *_ in specs}
            got = {n: m["unit"] for n, m in last["metrics"].items()}
            expect(rc == 0 and last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{name} --trace {trace}: every output passes its gate")
            expect(got == want and all(isinstance(m["value"], (int, float)) for m in last["metrics"].values()),
                   f"{name} --trace {trace}: every metric emitted by name with its unit")


def cli(ops_by_kind: dict, kind: str) -> tuple[workloads.Op, run.Result]:
    op = ops_by_kind[kind]
    return op, run.spawn([sys.executable, "-m", "nonelliptic", *op.argv], run.child_env())


def tampering() -> None:
    check = run.check_dict({"s": 0.0, "calls": 0, "ok": 0})
    build = lambda w: workloads.build(w, QUICK_SEED, run.OUT / "inputs", check, workloads.QUICK)  # noqa: E731

    op = build("certify_range")[0]
    res = run.spawn([sys.executable, "-m", "nonelliptic", *op.argv], run.child_env())
    expect(op.gate(res.rc, res.out, res.err) is None, "certify_range: untouched report passes")

    def flip_verdict(run_: dict) -> None:
        run_["irreducible"]["verdict"] = "Inconclusive"

    def bump_trace(run_: dict) -> None:
        w = run_["trace_tests"][0]["witness"]
        w["trace"] = (w["trace"] + 1) % run_["ell"]

    for what, edit in [("a flipped verdict", flip_verdict), ("a changed twisted trace", bump_trace)]:
        rep = json.loads(res.out)
        edit(next(r for r in rep["runs"] if r["proved_irreducible"] and r["proved_non_elliptic"]))
        expect(op.gate(res.rc, json.dumps(rep).encode(), b"") is not None, f"certify_range: {what} fails")
    for what, edit in [("a dropped ell", lambda r: r["runs"].pop())]:
        rep = json.loads(res.out)
        edit(rep)
        expect(op.gate(res.rc, json.dumps(rep).encode(), b"") is not None, f"certify_range: {what} fails")
    expect(op.gate(0, res.out, b"") is not None, "certify_range: exit 0 with an unproved ell fails")

    census = build("census")[0]
    res = run.spawn([sys.executable, "-m", "nonelliptic", *census.argv], run.child_env())
    rep = json.loads(res.out)
    rep["traces"].pop()
    expect(census.gate(res.rc, res.out, res.err) is None
           and census.gate(res.rc, json.dumps(rep).encode(), b"") is not None,
           "census: a trace set missing one trace fails")

    scan = build("scan_wide")[0]
    res = run.spawn([sys.executable, "-m", "nonelliptic", *scan.argv], run.child_env())
    rep = json.loads(res.out)
    rep["scanned"] -= 1
    expect(scan.gate(res.rc, res.out, res.err) is None
           and scan.gate(res.rc, json.dumps(rep).encode(), b"") is not None,
           "scan_wide: a wrong prime count fails")

    by_kind = {op.kind: op for op in build("cli_mix")}
    op, res = cli(by_kind, "certify_split")
    text = res.out.decode()
    delta = text.split("delta=")[1].split(",")[0]
    bad = text.replace(f"delta={delta},", f"delta={int(delta) + 1},", 1).encode()
    expect(op.gate(res.rc, res.out, res.err) is None and op.gate(res.rc, bad, b"") is not None,
           "cli_mix: a wrong discriminant witness fails")
    op, res = cli(by_kind, "certify_inert")
    expect(op.gate(res.rc, res.out, res.err) is None and op.gate(0, res.out, res.err) is not None,
           "cli_mix: an inert ell that does not exit 1 fails")
    op, res = cli(by_kind, "falsify")
    bad = res.out.replace(b"witness at p=", b"witness at p=1") if res.out.startswith(b"witness") \
        else b"witness at p=2: curve trace 0 != 1 (mod 7)\n"
    expect(op.gate(res.rc, res.out, res.err) is None and op.gate(res.rc, bad, b"") is not None,
           "cli_mix: a wrong falsify witness fails")
    op, res = cli(by_kind, "verify_paper")
    expect(op.gate(res.rc, res.out, res.err) is None
           and op.gate(res.rc, res.out.replace(b"overall: PASS", b"overall: FAIL"), b"") is not None,
           "cli_mix: a failed verify-paper fails")


def runner_failures() -> None:
    anything = workloads.Op("probe", ["probe"], 1, lambda rc, out, err: None)
    runner = run.Runner([anything], run.child_env())
    noisy = [sys.executable, "-c", "import os; print(os.urandom(8).hex())"]
    runner.invoke(0, noisy)
    runner.invoke(0, noisy)
    expect(runner.failed == 1, "a command whose stdout changes between runs fails")

    saved, run.OP_TIMEOUT_S = run.OP_TIMEOUT_S, 0.5
    try:
        runner = run.Runner([anything], run.child_env())
        runner.invoke(0, [sys.executable, "-c", "import time; time.sleep(30)"])
    finally:
        run.OP_TIMEOUT_S = saved
    expect(runner.failed == 1 and "timed out" in runner.failures[0], "a hung invocation is killed and fails")


def bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package sources the benchmark exits non-zero and prints no result")


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    benchmark_json()
    bare_directory()
    runner_failures()
    tampering()
    tiny_runs()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
