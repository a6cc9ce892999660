"""Command-line frontend.

Exit protocol (the methods are sound but not complete, so "could not decide"
is a first-class outcome):

    0   everything requested was proved / expectations met
    2   at least one requested verdict is Inconclusive
    1   error (a malformed argument, bad input, inert prime, bad-reduction
        prime, schema violation, out of memory)

An error is one stderr line, `error: <message>`; each warning before it, such
as a Ramanujan-bound violation in a form record, is one line too,
`warning: <category>: <message>`. Either shows a number of more than 64
digits by its first 20 digits and its length.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings

# Only what every command needs is imported here; each command imports the
# modules it runs, so `oracle` never compiles the certification engine and
# `certify` never compiles the census.
from . import data_io
from .arith import is_prime, primes_in_range

EXIT_PROVED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusal is a ValueError, so that main prints it
    as the one `error:` line and exits 1 like every other refusal. Its
    subcommand parsers are _Parsers too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonelliptic",
        description=(
            "Certificates that a mod-ell representation given by newform "
            "eigenvalue data is irreducible and not the ell-torsion of any "
            "elliptic curve over Q."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-paper",
        help="run the bundled end-to-end verification against the expectations table",
    )
    p_verify.add_argument("--ell-max", type=int, default=1000,
                          help="upper bound of the per-ell sample (default 1000)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_certify = sub.add_parser(
        "certify", help="certify irreducibility + non-ellipticity for user data"
    )
    p_certify.add_argument("-i", "--input", required=True, help="FormRecord JSON file")
    p_certify.add_argument("--ell", type=int, help="single ell to certify")
    p_certify.add_argument("--ell-min", type=int, help="lower bound of an ell range")
    p_certify.add_argument("--ell-max", type=int, help="upper bound of an ell range")
    p_certify.add_argument("--witness-prime", type=int,
                           help="use only this witness prime for the tests")
    p_certify.add_argument("--root", type=int,
                           help="embedding root override (quadratic fields; default: both roots)")
    p_certify.add_argument("--format", choices=("text", "json"), default="text")

    p_scan = sub.add_parser(
        "scan", help="closed-form scan: 2^(ell-3) in {1,4,9} mod ell over a prime range"
    )
    p_scan.add_argument("ell_min", type=int)
    p_scan.add_argument("ell_max", type=int)
    p_scan.add_argument("--format", choices=("text", "json"), default="text")

    p_oracle = sub.add_parser(
        "oracle", help="exhaustive Frobenius trace set over all curves over F_p"
    )
    p_oracle.add_argument("p", type=int)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")

    p_falsify = sub.add_parser(
        "falsify", help="pit a concrete curve over Q against a certified representation"
    )
    p_falsify.add_argument("--curve", required=True,
                           help="integer coefficients a1,a2,a3,a4,a6")
    p_falsify.add_argument("-i", "--input", required=True, help="FormRecord JSON file")
    p_falsify.add_argument("--ell", type=int, required=True)
    p_falsify.add_argument("--root", type=int, help="embedding root override")
    p_falsify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _check_ell(ell: int) -> int:
    """A single requested ell must be a prime above 5."""
    if ell <= 5 or not is_prime(ell):
        raise ValueError(f"ell={ell} must be a prime > 5")
    return ell


def _requested_ells(args, form) -> list[int]:
    """The ells to certify: the single --ell, or the primes in [--ell-min,
    --ell-max] that `repmodel.admitted_ells` keeps; --ell with either bound is
    refused. A single --ell the rule refuses fails later, with its own error."""
    from .repmodel import admitted_ells

    bounds = (args.ell_min, args.ell_max)
    if args.ell is not None and bounds == (None, None):
        return [_check_ell(args.ell)]
    if args.ell is not None or None in bounds:
        raise ValueError("give either --ell or both --ell-min and --ell-max")
    # primes_in_range is exact, so only the lower end needs checking.
    ells = primes_in_range(args.ell_min, args.ell_max)
    if not ells:
        raise ValueError(f"no primes in [{args.ell_min}, {args.ell_max}]")
    if ells[0] <= 5:
        raise ValueError(f"ell={ells[0]} must be a prime > 5")
    return admitted_ells(form, ells, f"[{args.ell_min}, {args.ell_max}]")


def _cmd_verify_paper(args) -> int:
    from .paper import full_paper_verification

    report = full_paper_verification(ell_max=args.ell_max)
    if args.format == "json":
        report.write_json(sys.stdout)
    else:
        data_io.write_report(report, "text", sys.stdout)
    return EXIT_PROVED if report.passed else EXIT_ERROR


def _cmd_certify(args) -> int:
    from .certify import certify_range

    if args.witness_prime is not None and not is_prime(args.witness_prime):
        raise ValueError(f"--witness-prime {args.witness_prime} is not prime")
    form = data_io.load_form(args.input)
    ells = _requested_ells(args, form)
    proved = certify_range(form, ells, args.root, args.witness_prime, args.format, sys.stdout)
    return EXIT_PROVED if proved else EXIT_INCONCLUSIVE


def _cmd_scan(args) -> int:
    from .paper import closed_form_scan

    report = closed_form_scan(args.ell_min, args.ell_max)
    data_io.write_report(report, args.format, sys.stdout)
    ok = set(report.holds) <= {7} and report.fermat_ok
    return EXIT_PROVED if ok else EXIT_ERROR


def _cmd_oracle(args) -> int:
    from .ecoracle import trace_set

    traces = trace_set(args.p)
    if args.format == "json":
        payload = {"p": args.p, "cap": args.p, "traces": sorted(traces)}
        data_io.write_report(payload, "json", sys.stdout)
    else:
        listing = ", ".join(str(t) for t in sorted(traces))
        sys.stdout.write(
            f"trace set over F_{args.p} (all nonsingular Weierstrass curves): "
            f"{{{listing}}}\n"
        )
    return EXIT_PROVED


def _cmd_falsify(args) -> int:
    from .ecoracle import CurveQ, falsify_curve

    try:
        coeffs = [int(c) for c in args.curve.split(",")]
    except ValueError:
        raise ValueError("--curve must be five comma-separated integers a1,a2,a3,a4,a6")
    if len(coeffs) != 5:
        raise ValueError("--curve must be five comma-separated integers a1,a2,a3,a4,a6")
    curve = CurveQ(*coeffs)

    form = data_io.load_form(args.input)
    ell = _check_ell(args.ell)
    result = falsify_curve(curve, form, ell, args.root)
    if args.format == "json":
        w = result.witness
        witness = None if w is None else {"p": w.p, "curve_trace": w.curve_trace,
                                          "rep_trace": w.rep_trace}
        payload = {"curve": coeffs, "ell": ell, "compared": list(result.compared),
                   "witness": witness}
        data_io.write_report(payload, "json", sys.stdout)
    else:
        sys.stdout.write(result.describe() + "\n")
    return EXIT_PROVED if result.found else EXIT_INCONCLUSIVE


_COMMANDS = {
    "verify-paper": _cmd_verify_paper,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
    "oracle": _cmd_oracle,
    "falsify": _cmd_falsify,
}


_LONG_NUMBER = re.compile("[0-9]{65,}")


def _shortened(message) -> str:
    """str(message) with each run of more than 64 digits cut to its first 20
    digits and its length, so an echoed number cannot make a line huge."""
    return _LONG_NUMBER.sub(lambda m: f"{m[0][:20]}…({len(m[0])} digits)", str(message))


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the CLI: one line, without the source location."""
    print(f"warning: {category.__name__}: {_shortened(message)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
        except data_io.SchemaError as exc:
            print(f"error: invalid form record: {_shortened(exc)}", file=sys.stderr)
        except (ValueError, OSError) as exc:
            print(f"error: {_shortened(exc)}", file=sys.stderr)
        except MemoryError:
            print("error: out of memory; the request is too large (narrow the range)",
                  file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
