import ast
import inspect
import json
import math
import sys

import pytest

from nonelliptic import Certificate, bundled_form, is_prime


def hasse_interval(p: int) -> set[int]:
    """All integers t with t**2 <= 4p, i.e. [-floor(2*sqrt(p)), +floor(2*sqrt(p))].

    These are the Frobenius traces allowed for an elliptic curve over F_p: the
    reference trace_set is tested against.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound = math.isqrt(4 * p)
    return set(range(-bound, bound + 1))


def imports_outside_stdlib(path) -> set[str]:
    """The modules a source file imports that are not in the stdlib, relative
    ones spelled with their leading dots (".arith")."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return {m for m in imported if m.split(".")[0] not in sys.stdlib_module_names}


def certify_report(form, ells, runs, fmt: str) -> str:
    """The certify report of `runs`, certify_form's over `ells`, in `fmt`:
    the reference certify_range's bytes are held to, read from the records
    and not from the values the writer reads. JSON is json.dumps of the
    envelope with each run as its to_dict(); text is the header, each run's
    lines and the footer."""
    proved = all(run.proved for run in runs)
    if fmt == "json":
        envelope = {"all_proved": proved, "ells": sorted(set(ells)), "form": form.form_id,
                    "runs": runs}
        return json.dumps(envelope, default=lambda o: o.to_dict(), sort_keys=True,
                          indent=2) + "\n"
    lines = [f"certify form={form.form_id}", *(line for run in runs for line in _run_lines(run)),
             f"all proved: {'yes' if proved else 'no'}"]
    return "\n".join(lines) + "\n"


def _run_lines(run) -> list[str]:
    """The lines of the text report for the run record `run`, read off its
    certificates."""
    head = f"ell={run.ell}"
    if run.embedding_root is not None:
        head += f" root={run.embedding_root}"
    lines = [f"  {head}"]
    if run.proved_irreducible:
        w = run.irreducible.witness
        lines.append(f"    irreducible: yes, discriminant witness p={w['p']} "
                     f"(delta={w['delta']}, legendre={w['legendre']})")
    else:
        lines.append("    irreducible: not established "
                     f"(witness primes tried: {list(run.irreducible_tried)})")
    if run.twist_exponent is not None:
        lines.append(f"    twist to determinant chi: exponent {run.twist_exponent}")
    trace = next((c for c in run.trace_tests if c.verdict == "NonElliptic"), None)
    if trace is not None:
        w = trace.witness
        lines.append(f"    non-elliptic: yes, trace witness p={w['p']} "
                     f"(trace={w['trace']}, excluded={w['excluded']})")
    elif run.proved_non_elliptic:
        w = run.conductor.witness
        v = w["violation"]
        lines.append(f"    non-elliptic: yes, conductor {w['conductor']} "
                     f"violates v_{v['p']} <= {v['bound']} (exponent {v['exponent']})")
    else:
        lines.append("    non-elliptic: not established (all tests inconclusive)")
    lines += [f"    note: {note}" for note in run.notes]
    lines.append(f"    overall: {'proved' if run.proved else 'inconclusive'}")
    return lines


def written_certificates(text: str) -> list[Certificate]:
    """Every certificate in the JSON report `text`, in document order: each
    object, at any depth, whose keys include a certificate's five, read back
    by Certificate.from_dict."""
    keys = {"verdict", "method", "ell", "witness", "inputs"}
    found = []

    def walk(node):
        if isinstance(node, dict):
            if keys <= node.keys():
                found.append(Certificate.from_dict(node))
            else:
                for value in node.values():
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(json.loads(text))
    return found


def replaced(record, **changes):
    """`record` built again by its own constructor, which validates, with the
    fields in `changes` replaced: the package's records are slotted classes,
    not dataclasses."""
    names = inspect.signature(type(record)).parameters
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in names})


def stored_at(form, primes):
    """`form` with its eigenvalues kept only at `primes`: what a representation
    reduced from it can compare, e.g. in falsify_curve."""
    return replaced(form, eigenvalues={p: form.eigenvalues[p] for p in primes})


@pytest.fixture(scope="session")
def schoen_form():
    return bundled_form("schoen_s4_25")


@pytest.fixture(scope="session")
def sqrt2_form():
    return bundled_form("s2_512_sqrt2")
