"""Eigenvalue-data ingestion (strict JSON wire format), the bundled datasets,
and deterministic report serialization.

Map keys are primes as decimal strings; unknown and repeated keys are
rejected outright so typos in hand-entered data surface immediately. A
Ramanujan-bound violation warns but does not reject: nothing downstream relies
on the bound, and the warning is the useful signal.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .repmodel import NewformData


class SchemaError(ValueError):
    """The byte stream is not a valid FormRecord."""


def _packaged(name: str) -> bytes:
    # imported here: only the bundled data needs it, and a command reading a
    # user's file should not pay for it at start-up
    from importlib import resources

    return resources.files("nonelliptic.data").joinpath(name).read_bytes()


BUNDLED_FORMS = ("schoen_s4_25", "s2_512_sqrt2")


def _reject_float(literal: str):
    # the schema's "integer" admits 4.0, which must not reach the arithmetic
    raise SchemaError(f"schema violation: number {literal} is not an integer literal")


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep only the last of a repeated key, silently
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"schema violation: key {key!r} appears twice in one object")
            seen.add(key)
    return obj


_PRIME_KEY = re.compile("[1-9][0-9]*")
_JSON_TYPE = {int: "integer", str: "string", bool: "boolean", dict: "object"}


def _violation(path: str, reason: str) -> SchemaError:
    return SchemaError(f"schema violation at {path}: {reason}")


def _typed(value, kind: type, path: str):
    """value itself if its type is exactly `kind`: true is not an integer."""
    if type(value) is not kind:
        raise _violation(path, f"{value!r} is not of type {_JSON_TYPE[kind]!r}")
    return value


def _members(value, path: str, required: tuple, optional: tuple = ()) -> dict:
    """value as an object with every required key and no key outside optional."""
    for key in _typed(value, dict, path):
        if key not in required and key not in optional:
            raise _violation(path, f"Additional properties are not allowed ({key!r} was unexpected)")
    for key in required:
        if key not in value:
            raise _violation(path, f"{key!r} is a required property")
    return value


def parse_form(text: str | bytes) -> NewformData:
    """Parse and validate one FormRecord in one walk: the wire format of
    data/form_record.schema.json, with no key repeated in an object and an id
    that prints here, the mathematics in NewformData. Errors carry the JSON
    path of the offending value."""
    # imported here: `oracle` writes a report through this module but parses
    # no form, so it need not compile the form model
    from .repmodel import FormDataError, NewformData, QuadInt

    try:
        record = json.loads(text, parse_float=_reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except SchemaError:
        raise
    except ValueError as exc:  # an integer literal past the int-string digit limit
        raise SchemaError(f"schema violation: {exc}") from None
    except RecursionError:  # nested past the decoder's depth; no field nests so deep
        raise SchemaError("schema violation: arrays or objects nested too deeply to parse") from None
    _members(record, "$", ("id", "level", "weight", "field", "eigenvalues"),
             ("claimed_conductor_equality", "notes"))
    if not (_typed(record["id"], str, "$.id") and record["id"].isprintable()):
        raise _violation("$.id", f"{record['id']!r} should be non-empty and printable")
    level = _typed(record["level"], int, "$.level")
    weight = _typed(record["weight"], int, "$.weight")
    field = record["field"]
    if field == {"type": "rational"}:
        d = None
    elif type(field) is dict and field.get("type") == "quadratic":
        d = _typed(_members(field, "$.field", ("type", "d"))["d"], int, "$.field.d")
    else:
        raise _violation("$.field", f"{field!r} is neither {{'type': 'rational'}} "
                                    f"nor {{'type': 'quadratic', 'd': <integer>}}")
    eigenvalues: dict[int, QuadInt] = {}
    for key, entry in _typed(record["eigenvalues"], dict, "$.eigenvalues").items():
        if not _PRIME_KEY.fullmatch(key):
            raise _violation("$.eigenvalues", f"key {key!r} does not match '[1-9][0-9]*'")
        try:
            p = int(key)
        except ValueError as exc:  # a key past the int-string digit limit
            raise _violation("$.eigenvalues", str(exc)) from None
        path = f"$.eigenvalues.{key}"
        _members(entry, path, ("x", "y"))
        eigenvalues[p] = QuadInt(_typed(entry["x"], int, path + ".x"),
                                 _typed(entry["y"], int, path + ".y"))
    claimed = _typed(record.get("claimed_conductor_equality", False), bool,
                     "$.claimed_conductor_equality")
    notes = _typed(record.get("notes", ""), str, "$.notes")
    try:
        return NewformData(record["id"], level, weight, d, eigenvalues, claimed, notes)
    except FormDataError as exc:
        # a NewformData field path is its wire path: the key of p is str(p)
        raise _violation("$." + ".".join(map(str, exc.field)), str(exc)) from None


def load_form(path) -> NewformData:
    """Load a FormRecord from a filesystem path."""
    with open(path, "rb") as fp:
        return parse_form(fp.read())


def dump_form(form: NewformData) -> str:
    """Serialize a NewformData back to its wire format (round-trips load)."""
    record = {
        "id": form.form_id,
        "level": form.level,
        "weight": form.weight,
        "field": {"type": "rational"} if form.d is None else {"type": "quadratic", "d": form.d},
        "eigenvalues": {
            str(p): {"x": a.x, "y": a.y} for p, a in sorted(form.eigenvalues.items())
        },
        "claimed_conductor_equality": form.claimed_conductor_equality,
        "notes": form.notes,
    }
    return canonical_json(record)


def bundled_form(form_id: str) -> NewformData:
    """One of the two datasets shipped with the package."""
    if form_id not in BUNDLED_FORMS:
        raise KeyError(f"no bundled form {form_id!r}; available: {BUNDLED_FORMS}")
    return parse_form(_packaged(f"{form_id}.json"))


def load_expectations() -> dict:
    """The versioned expectations table the bundled verification diffs against."""
    return json.loads(_packaged("expectations.json"))


def _record(obj):
    """json.dumps' `default`: a record (anything with to_dict) as its
    to_dict(): an arith.Record's is its fields by name, ScanReport's its own."""
    if not hasattr(obj, "to_dict"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.to_dict()


def canonical_json(obj) -> str:
    """Deterministic JSON: json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True) with a record (anything with to_dict) written as its
    to_dict(), and a trailing newline. Whatever json.dumps takes is taken,
    floats and non-str keys included, though no report holds them."""
    return json.dumps(obj, default=_record, sort_keys=True, indent=2) + "\n"


def write_json_list(out, envelope, key: str, texts) -> None:
    """Write canonical_json(envelope) to the text stream out with the JSON texts
    `texts`, unjoined and at its elements' nesting, as the empty list at `key`:
    the one token '"<key>": []', which no JSON string holds unescaped."""
    head, tail = canonical_json(envelope).split(f"{json.dumps(key)}: []")
    inner = "\n" + head[head.rindex("\n") + 1:] + "  "
    out.write(f"{head}{json.dumps(key)}: ")
    sep = "[" + inner
    for text in texts:
        out.write(sep)
        out.write(text)
        sep = "," + inner
    out.write(("[]" if sep[0] == "[" else inner[:-2] + "]") + tail)


def write_report(report, fmt: str, out) -> None:
    """Write a report to the text stream out: canonical_json(report) for
    "json", report.to_text() and a newline for "text". Canonical in both:
    stable ordering, no timestamps, so identical inputs give byte-identical
    output."""
    if fmt == "json":
        out.write(canonical_json(report))
    elif fmt == "text":
        out.write(report.to_text())
        out.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
