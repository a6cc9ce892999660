"""Certify a large ell range on every CPU the process may use.

`certify.certify_range` hands the sorted ells here when the range holds
enough runs to pay for a process pool. Forked workers certify them in
near-equal batches of consecutive ells and send back each batch's runs as
report text and whether all of them were proved. The report the parent then
writes through `data_io` is, byte for byte, the one `certify_form` gives for
the same ells: the batches' text stands in for their runs. Only this module
loads `concurrent.futures` and `multiprocessing`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

from . import data_io
from .certify import CertifyReport, certify_form
from .repmodel import NewformData

# A certify report's runs are the elements of its "runs" list, which sits in
# the top-level object: nesting depth 2.
_RUNS_DEPTH = 2

# A batch holds at most this many ells, so a worker holds one batch of run
# objects (about 1.7 KB a run) besides their text (1.3 KB a run in JSON), and
# the text travels back batch by batch, not as one pickled copy of a worker's
# share.
_BATCH_ELLS = 1000


@dataclass(frozen=True)
class RenderedRuns:
    """Consecutive runs of a certify report, rendered in the report's format:
    for JSON their elements of the "runs" list joined by its comma, for text
    their lines. In CertifyReport.runs it stands in for them."""

    text: str
    proved: bool

    def to_dict(self) -> data_io.Rendered:
        return data_io.Rendered(self.text, _RUNS_DEPTH)

    def text_lines(self) -> list[str]:
        return [self.text]


def render_runs(form: NewformData, root: int | None, witness_prime: int | None, fmt: str,
                ells: list[int]) -> RenderedRuns:
    """certify_form(form, ells, root, witness_prime), its runs rendered in `fmt`."""
    report = certify_form(form, ells, root, witness_prime)
    if fmt == "json":
        text = data_io.render_items(report.runs, _RUNS_DEPTH).text
    else:
        text = "\n".join(line for run in report.runs for line in run.text_lines())
    return RenderedRuns(text, report.all_proved)


def batches(ells: list[int], cpus: int) -> list[list[int]]:
    """`ells` cut in order into near-equal batches of at most _BATCH_ELLS, as
    many as a multiple of `cpus` allows, so that each CPU gets the same share
    when all are free; never more batches than ells."""
    count = min(len(ells), cpus * -(-len(ells) // (cpus * _BATCH_ELLS)))
    return [ells[len(ells) * i // count:len(ells) * (i + 1) // count] for i in range(count)]


def certify_in_pool(form: NewformData, ells: list[int], cpus: int, root: int | None,
                    witness_prime: int | None, fmt: str) -> CertifyReport:
    """certify_form(form, ells, root, witness_prime) for the sorted `ells`,
    certified and rendered in `fmt` by `cpus` forked workers, which take the
    next batch as they become free. The first error in ell order is raised,
    as certify_form raises it; the batches not yet started are cancelled, and
    no worker outlives the call. A worker that dies gives ChildProcessError."""
    work = partial(render_runs, form, root, witness_prime, fmt)
    try:
        with ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("fork")) as pool:
            runs = tuple(pool.map(work, batches(ells, cpus)))
    except BrokenProcessPool:
        raise ChildProcessError("a certify worker exited before sending its runs") from None
    return CertifyReport(form.form_id, tuple(ells), runs)
