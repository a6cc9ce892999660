"""Eigenvalue-data ingestion (strict JSON wire format), the bundled datasets,
and deterministic report serialization.

Map keys are primes as decimal strings; unknown keys are rejected outright so
typos in hand-entered data surface immediately. A Ramanujan-bound violation
warns but does not reject: nothing downstream relies on the bound, and the
warning is the useful signal.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii

from .arith import is_prime
from .quadfield import QuadInt, ensure_squarefree
from .repmodel import NewformData


class SchemaError(ValueError):
    """The byte stream does not validate against the FormRecord schema."""


def _packaged(name: str) -> bytes:
    return resources.files("nonelliptic.data").joinpath(name).read_bytes()


BUNDLED_FORMS = ("schoen_s4_25", "s2_512_sqrt2")


@lru_cache(maxsize=None)
def _schema() -> dict:
    return json.loads(_packaged("form_record.schema.json"))


def _reject_float(literal: str):
    # the schema's "integer" admits 4.0, which must not reach the arithmetic
    raise SchemaError(f"schema violation: number {literal} is not an integer literal")


def parse_form(text: str | bytes) -> NewformData:
    """Parse and validate one FormRecord; errors carry the offending path."""
    # Imported here, not at module level: jsonschema is about half of the
    # package's import time, and only commands that read a form need it.
    import jsonschema

    try:
        record = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    try:
        jsonschema.validate(record, _schema())
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"schema violation at {exc.json_path}: {exc.message}") from None

    level = record["level"]
    field = record["field"]
    d = field["d"] if field["type"] == "quadratic" else None
    if d is not None:
        try:
            ensure_squarefree(d)
        except ValueError as exc:
            raise SchemaError(f"schema violation at $.field.d: {exc}") from None
    eigenvalues: dict[int, QuadInt] = {}
    for p_str, val in record["eigenvalues"].items():
        p = int(p_str)
        if not is_prime(p):
            raise SchemaError(f"schema violation at $.eigenvalues.{p_str}: {p} is not prime")
        if level % p == 0:
            raise SchemaError(
                f"schema violation at $.eigenvalues.{p_str}: {p} divides the level {level}"
            )
        if d is None and val["y"] != 0:
            raise SchemaError(
                f"schema violation at $.eigenvalues.{p_str}: rational field with y != 0"
            )
        eigenvalues[p] = QuadInt(val["x"], val["y"], d if val["y"] != 0 else None)

    try:
        return NewformData(
            form_id=record["id"],
            level=level,
            weight=record["weight"],
            d=d,
            eigenvalues=eigenvalues,
            claimed_conductor_equality=record.get("claimed_conductor_equality", False),
            notes=record.get("notes", ""),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


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


# Exact type -> JSON text, as json.dumps writes it. Anything else (floats,
# subclasses) is left to json.dumps itself.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _record(obj) -> dict:
    """json's default=: a record is written as its to_dict()."""
    return obj.to_dict() if hasattr(obj, "to_dict") else json.JSONEncoder().default(obj)


def _write_json(obj, indent: str, emit) -> None:
    """Emit obj as json.dumps(default=_record, sort_keys=True, indent=2,
    ensure_ascii=True) writes it when it sits at nesting `indent`."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        emit(scalar(obj))
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            emit("{}")
            return
        inner = indent + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        for key in sorted(obj):
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                emit(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(value, inner, emit)
            else:
                emit(f"{sep}{encode_basestring_ascii(key)}: {scalar(value)}")
            sep = comma
        emit(f"\n{indent}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = indent + "  "
        sep, comma = "[\n" + inner, ",\n" + inner
        if all(type(v) in _SCALARS for v in obj):
            emit(sep + comma.join([_SCALARS[type(v)](v) for v in obj]))
        else:
            for value in obj:
                emit(sep)
                _write_json(value, inner, emit)
                sep = comma
        emit(f"\n{indent}]")
    elif hasattr(obj, "to_dict"):
        _write_json(obj.to_dict(), indent, emit)
    else:
        # Strings in JSON text never hold a raw newline, so every newline is
        # a line break that needs the enclosing indent.
        text = json.dumps(obj, default=_record, sort_keys=True, indent=2, ensure_ascii=True)
        emit(text.replace("\n", "\n" + indent))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, ASCII only,
    trailing newline; a record (anything with to_dict) is written as its
    to_dict(). Byte for byte json.dumps(obj, default=lambda o: o.to_dict(),
    sort_keys=True, indent=2, ensure_ascii=True) + "\n", written directly:
    with an indent, json uses its pure-Python generator encoder, which takes
    about twice as long on a large certify report.
    """
    chunks: list[str] = []
    _write_json(obj, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def dump_report(report, fmt: str = "text") -> str:
    """Serialize a report object (anything with to_dict and to_text).

    Canonical in both formats: stable ordering, no timestamps, so identical
    inputs give byte-identical output.
    """
    if fmt == "json":
        return canonical_json(report)
    if fmt == "text":
        return report.to_text() + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
