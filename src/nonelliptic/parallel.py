"""Certify a large ell range on every CPU the process may use.

`certify.certify_range` cuts the sorted ells into contiguous chunks when the
range is large enough to pay for a worker's start-up. The parent certifies
and renders the first chunk itself while each further chunk goes to a
spawned worker, which sends back the report text of its runs and whether all
of them were proved. The report the parent then writes through `data_io` is,
byte for byte, the one `certify_form` gives for the same ells: the chunks'
text stands in for their runs. Only this module loads `multiprocessing`.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
from dataclasses import dataclass

from . import data_io
from .certify import CertifyReport, certify_form
from .repmodel import NewformData

# A certify report's runs are the elements of its "runs" list, which sits in
# the top-level object: nesting depth 2.
_RUNS_DEPTH = 2

# A chunk is certified and rendered this many ells at a time, so a process
# holds one batch of run objects (about 1.7 KB a run) besides the text (1.3 KB
# a run in JSON), and a worker's text travels batch by batch, not as one
# pickled copy of the chunk: over 7 <= ell <= 10^6 in JSON the command peaked
# at 127 MiB, against 233 MiB with whole chunks and 150 MiB in one process.
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


def render_runs(form: NewformData, ells: list[int], root: int | None,
                witness_prime: int | None, fmt: str, batch: int) -> list[RenderedRuns]:
    """certify_form over `ells`, its runs rendered in `fmt` `batch` ells at a
    time, so no more than a batch of run objects is held at once."""
    batches = []
    for i in range(0, len(ells), batch):
        report = certify_form(form, ells[i:i + batch], root, witness_prime)
        if fmt == "json":
            text = data_io.render_items(report.runs, _RUNS_DEPTH).text
        else:
            text = "\n".join(line for run in report.runs for line in run.text_lines())
        batches.append(RenderedRuns(text, report.all_proved))
    return batches


def certify_in_chunks(form: NewformData, ells: list[int], sizes: list[int],
                      root: int | None, witness_prime: int | None, fmt: str) -> CertifyReport:
    """certify_form(form, ells, root, witness_prime) for the sorted `ells`,
    cut into chunks of `sizes`: the first certified and rendered in `fmt`
    here, each further one by a spawned worker. The first error in ell order
    is raised, as certify_form raises it, and no worker outlives the call."""
    context = multiprocessing.get_context("spawn")
    bounds = list(itertools.accumulate(sizes, initial=0))
    chunks = [ells[a:b] for a, b in zip(bounds, bounds[1:])]
    with contextlib.ExitStack() as stack:
        workers = [
            stack.enter_context(_worker(context, (form, chunk, root, witness_prime, fmt,
                                                  _BATCH_ELLS)))
            for chunk in chunks[1:]
        ]
        runs = render_runs(form, chunks[0], root, witness_prime, fmt, _BATCH_ELLS)
        for worker in workers:
            runs.extend(_results(*worker))
    return CertifyReport(form.form_id, tuple(ells), tuple(runs))


@contextlib.contextmanager
def _worker(context, args: tuple):
    """A started worker rendering `args` and the connection its batches come
    back on. On leaving, the worker is joined, after being terminated if the
    block raised (another chunk's error wins, or the run was interrupted)."""
    receiver, sender = context.Pipe(duplex=False)
    with receiver:
        process = context.Process(target=_work, args=(sender, *args))
        with sender:  # the worker has its own copy once started
            process.start()
        try:
            yield process, receiver
        except BaseException:
            process.terminate()
            raise
        finally:
            process.join()
            process.close()


def _work(sender, *args) -> None:
    """Worker entry: send back each batch of render_runs(*args) and then None,
    or instead the error it raised as its type, args and traceback, since an
    exception whose __init__ takes other arguments than its args
    (FormDataError) does not unpickle."""
    with sender:
        try:
            batches = render_runs(*args)
        except Exception as exc:
            import traceback  # only an error needs it

            sender.send((type(exc), exc.args, "".join(traceback.format_exception(exc))))
            return
        for batch in batches:
            sender.send(batch)
        sender.send(None)


def _results(process, receiver) -> list[RenderedRuns]:
    """The worker's batches, or its error raised here."""
    batches = []
    while True:
        try:
            result = receiver.recv()
        except EOFError:
            process.join()
            raise ChildProcessError(
                f"a certify worker exited with code {process.exitcode} before sending its runs"
            ) from None
        if result is None:
            return batches
        if isinstance(result, RenderedRuns):
            batches.append(result)
            continue
        kind, args, remote = result
        error = kind.__new__(kind, *args)  # sets args and skips __init__, as pickle cannot
        raise error from RuntimeError(f"raised in a certify worker:\n{remote}")
