"""Run one nonelliptic CLI invocation in process, with or without spans.

    python3 perfbench/traced_cli.py SPANS_FILE 0|1 -- CLI_ARGS...

The benchmark starts this in a fresh interpreter per operation, so that every
traced invocation starts as cold as the real CLI (no primality cache carried
over from an earlier one).  With ``1`` it wraps the public functions named in
``TARGETS`` before calling ``nonelliptic.cli.main``.  A wrapper replaces the
function on every ``nonelliptic`` module that holds it, because modules import
functions by name: ``certify.residual_rep`` and ``cli.is_prime`` are the
attributes callers look up, not only ``repmodel.residual_rep``.

Spans (name, start, end, parent) stay in memory and are pickled to SPANS_FILE
once, after the CLI returns; the CLI's own stdout and stderr pass through
untouched.  A target missing from the package is skipped and listed in the
file, so the benchmark survives functions being removed.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs; the span is named "<module>.<function>".
TARGETS = [
    ("cli", "main"),
    ("data_io", "parse_form"),
    ("data_io", "dump_report"),
    ("certify", "certify_form"),
    ("certify", "certify_at_ell"),
    ("certify", "irreducibility_by_discriminant"),
    ("certify", "non_elliptic_trace_test"),
    ("certify", "conductor_bound_test"),
    ("certify", "full_paper_verification"),
    ("certify", "closed_form_scan"),
    ("repmodel", "residual_rep"),
    ("repmodel", "twist_to_det_chi"),
    ("quadfield", "embedding_choices"),
    ("arith", "is_prime"),
    ("arith", "mod_pow"),
    ("arith", "mod_inv"),
    ("arith", "primes_in_range"),
    ("arith", "trial_factor"),
    ("ecoracle", "trace_set"),
    ("ecoracle", "count_points"),
    ("ecoracle", "falsify_curve"),
]


class Tracer:
    """Spans in parallel arrays; index i is span i, parent -1 is the root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, span: str, after=None, span_of=None):
        """A traced fn.  `span_of(args)` names the span per call; `after`
        records counts from the result, outside the span."""
        clock = time.perf_counter
        fixed = self._id(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(fixed if span_of is None else self._id(span_of(args)))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def count_certificates(self, certs) -> None:
        for c in certs:
            self.counters[f"certify.certs.{c.method}.{c.verdict}"] += 1

    def install(self) -> None:
        import nonelliptic.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "nonelliptic" or n.startswith("nonelliptic.")]
        special = {
            ("data_io", "dump_report"): dict(
                after=lambda s: self.counters.update({"data_io.dump_report.bytes": len(s.encode())})),
            ("certify", "certify_at_ell"): dict(
                after=lambda r: self.count_certificates(r.certificates())),
            ("certify", "full_paper_verification"): dict(
                after=lambda r: self.count_certificates(r.certificates)),
            ("ecoracle", "trace_set"): dict(span_of=lambda args: f"ecoracle.trace_set.p{args[0]}"),
        }
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"nonelliptic.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            traced = self.wrap(orig, f"{mod_name}.{fn_name}", **special.get((mod_name, fn_name), {}))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fp:
            pickle.dump({
                "names": self.names, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "counters": dict(self.counters), "missing": self.missing,
            }, fp, protocol=pickle.HIGHEST_PROTOCOL)


def main() -> int:
    spans_file, traced, sep, *argv = sys.argv[1:]
    if sep != "--" or traced not in ("0", "1"):
        raise SystemExit("usage: traced_cli.py SPANS_FILE 0|1 -- CLI_ARGS...")
    tracer = Tracer()
    if traced == "1":
        tracer.install()
    from nonelliptic import cli

    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        if traced == "1":
            tracer.dump(spans_file)
    return rc


if __name__ == "__main__":
    sys.exit(main())
