"""Eigenvalue-data ingestion (strict JSON wire format), the bundled datasets,
and deterministic report serialization.

Map keys are primes as decimal strings; unknown keys are rejected outright so
typos in hand-entered data surface immediately. A Ramanujan-bound violation
warns but does not reject: nothing downstream relies on the bound, and the
warning is the useful signal.
"""

from __future__ import annotations

import io
import json
import re
from json.encoder import encode_basestring_ascii
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
    data/form_record.schema.json here, the mathematics in NewformData.
    Errors carry the JSON path of the offending value."""
    # imported here: `oracle` writes a report through this module but parses
    # no form, so it need not compile the form model
    from .repmodel import FormDataError, NewformData, QuadInt

    try:
        record = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except SchemaError:
        raise
    except ValueError as exc:  # an integer literal past the int-string digit limit
        raise SchemaError(f"schema violation: {exc}") from None
    _members(record, "$", ("id", "level", "weight", "field", "eigenvalues"),
             ("claimed_conductor_equality", "notes"))
    if not _typed(record["id"], str, "$.id"):
        raise _violation("$.id", "'' should be non-empty")
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


# Exact type -> JSON text, as json.dumps writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# A writer hands its pending pieces to out.write once this many have piled up
# at a list-element boundary: about 100 KB of report text, so no whole-report
# piece list, string or encoded copy exists.
_FLUSH_PIECES = 4096


def _flush(pending: list, out) -> None:
    out.write("".join(pending))
    pending.clear()


def _write_json(obj, indent: str, pending: list, out) -> None:
    """Append obj to pending as json.dumps(default=lambda o: o.to_dict(),
    sort_keys=True, indent=2, ensure_ascii=True) writes it when it sits at
    nesting `indent`, handing pending to out.write at list-element boundaries
    once _FLUSH_PIECES pieces have piled up."""
    emit = pending.append
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        emit(scalar(obj))
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = indent + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        # sorted() and encode_basestring_ascii raise TypeError on a non-str key
        for key in sorted(obj):
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                emit(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(value, inner, pending, out)
            else:
                emit(f"{sep}{encode_basestring_ascii(key)}: {scalar(value)}")
            sep = comma
        emit(f"\n{indent}}}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = indent + "  "
        _write_items(obj, inner, "[\n" + inner, pending, out)
        emit(f"\n{indent}]")
    elif hasattr(obj, "to_dict"):
        _write_json(obj.to_dict(), indent, pending, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_items(items, indent: str, opening: str, pending: list, out) -> None:
    """Append `opening` and the non-empty `items` as the elements of a list,
    each at nesting `indent`, joined by the list's comma."""
    comma = ",\n" + indent
    if all(type(v) in _SCALARS for v in items):
        pending.append(opening + comma.join([_SCALARS[type(v)](v) for v in items]))
        return
    sep = opening
    for value in items:
        if len(pending) >= _FLUSH_PIECES:
            _flush(pending, out)
        pending.append(sep)
        _write_json(value, indent, pending, out)
        sep = comma


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, ASCII only,
    trailing newline. Takes exactly the types reports hold: str, int, bool,
    None, dict with str keys, list, tuple and a record (anything with
    to_dict), written as its to_dict(); anything else, a float or a subclass
    included, raises TypeError. Byte for byte json.dumps(obj, default=lambda
    o: o.to_dict(), sort_keys=True, indent=2, ensure_ascii=True) + "\n",
    written directly:
    with an indent, json uses its pure-Python generator encoder, which takes
    about twice as long on a large certify report.
    """
    buf = io.StringIO()
    write_report(obj, "json", buf)
    return buf.getvalue()


def write_report(report, fmt: str, out) -> None:
    """Write a report to the text stream out: canonical_json(report) for
    "json" (any value canonical_json takes), report.to_text() and a newline
    for "text". JSON goes out in pieces of about 100 KB, so memory grows with
    the report's records, not with its text.

    Canonical in both formats: stable ordering, no timestamps, so identical
    inputs give byte-identical output.
    """
    if fmt == "json":
        pending: list[str] = []
        _write_json(report, "", pending, out)
        pending.append("\n")
        _flush(pending, out)
    elif fmt == "text":
        out.write(report.to_text())
        out.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
