import copy
import io
import json
import warnings
from importlib import resources

import pytest
from conftest import certify_report
from hypothesis import example, given, strategies as st
from jsonschema import Draft202012Validator

from nonelliptic.arith import primes_in_range
from nonelliptic import certify
from nonelliptic.certify import certify_form, certify_range
from nonelliptic.data_io import (
    BUNDLED_FORMS,
    SchemaError,
    bundled_form,
    canonical_json,
    dump_form,
    load_expectations,
    parse_form,
    write_json_list,
    write_report,
)
from nonelliptic.repmodel import NewformData, QuadInt, RamanujanBoundWarning


def record(**overrides):
    base = {
        "id": "t",
        "level": 25,
        "weight": 4,
        "field": {"type": "rational"},
        "eigenvalues": {"2": {"x": 1, "y": 0}},
        "claimed_conductor_equality": False,
        "notes": "",
    }
    base.update(overrides)
    return json.dumps(base)


def test_bundled_weight4_form(schoen_form):
    assert schoen_form.level == 25
    assert schoen_form.weight == 4
    assert schoen_form.d is None
    assert schoen_form.eigenvalues == {
        2: QuadInt(1),
        3: QuadInt(7),
        7: QuadInt(6),
        11: QuadInt(-43),
    }
    assert schoen_form.claimed_conductor_equality is False


def test_bundled_weight2_form(sqrt2_form):
    assert sqrt2_form.level == 512
    assert sqrt2_form.weight == 2
    assert sqrt2_form.d == 2
    assert sqrt2_form.eigenvalues[29] == QuadInt(0, 6)
    assert sqrt2_form.eigenvalues[7] == QuadInt(-4)
    assert sqrt2_form.claimed_conductor_equality is True
    # the elided primes stay absent: no invented data
    for p in (2, 17, 19, 23):
        assert p not in sqrt2_form.eigenvalues


def test_bundled_form_unknown_id():
    with pytest.raises(KeyError):
        bundled_form("nope")


def test_unknown_key_rejected_with_path():
    with pytest.raises(SchemaError, match="weigth"):
        parse_form(record(weigth=4))


def test_nonprime_eigenvalue_key_rejected():
    with pytest.raises(SchemaError, match="4 is not prime"):
        parse_form(record(eigenvalues={"4": {"x": 1, "y": 0}}))


def test_bad_prime_eigenvalue_rejected():
    with pytest.raises(SchemaError, match="divides the level"):
        parse_form(record(eigenvalues={"5": {"x": 1, "y": 0}}))


def test_rational_field_with_surd_part_rejected():
    with pytest.raises(SchemaError, match="y != 0"):
        parse_form(record(eigenvalues={"2": {"x": 1, "y": 1}}))


def test_non_squarefree_d_rejected():
    with pytest.raises(SchemaError, match="square-free"):
        parse_form(
            record(
                field={"type": "quadratic", "d": 8},
                eigenvalues={"3": {"x": 0, "y": 1}},
            )
        )


def test_malformed_json_rejected():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_form(b"{nope")


def test_wrong_types_rejected_with_path():
    with pytest.raises(SchemaError, match=r"\$\.level"):
        parse_form(record(level="25"))
    with pytest.raises(SchemaError, match=r"at \$\.eigenvalues\.2: 'y' is a required"):
        parse_form(record(eigenvalues={"2": {"x": 1}}))
    # NewformData's checks keep the JSON path of the value they reject
    huge = "3317044064679887385962123"  # past the proven Miller-Rabin range
    for overrides, path in [({"level": 0}, r"\$\.level"), ({"weight": 1}, r"\$\.weight"),
                            ({"eigenvalues": {"5": {"x": 1, "y": 0}}}, r"\$\.eigenvalues\.5"),
                            ({"field": {"type": "quadratic", "d": 8}}, r"\$\.field\.d"),
                            ({"eigenvalues": {huge: {"x": 1, "y": 0}}}, rf"\$\.eigenvalues\.{huge}")]:
        with pytest.raises(SchemaError, match=f"^schema violation at {path}: "):
            parse_form(record(**overrides))
    # json.loads refuses an integer literal past the int-string digit limit
    with pytest.raises(SchemaError, match="^schema violation: Exceeds the limit"):
        parse_form(record(level=0).replace('"level": 0', '"level": ' + "7" * 4301))


# The published contract parse_form is held to, as the reference.
SCHEMA = Draft202012Validator(
    json.loads(resources.files("nonelliptic.data").joinpath("form_record.schema.json").read_text())
)
BUNDLED_RECORDS = [
    json.loads(resources.files("nonelliptic.data").joinpath(f"{name}.json").read_text())
    for name in BUNDLED_FORMS
]
KEYS = [
    "id", "level", "weight", "field", "eigenvalues", "claimed_conductor_equality", "notes",
    "type", "d", "x", "y", "extra", "2", "3", "4", "5", "13", "29",
    "02", "0", "", " 2", "+2", "1_3", "\u0662", "2\n", "13\n",
]
VALUES = [
    None, True, False, 0, 1, 2, -1, 8, 4.0, "", "2", "rational", "a\nb", [], {},
    {"x": 1, "y": 0}, {"type": "rational"}, {"type": "quadratic", "d": 2},
]


def test_key_with_a_trailing_newline_rejected():
    # The schema's "^[1-9][0-9]*$" accepts "2\n" (re.search lets $ match before
    # a final newline) and int("2\n") == 2, so a_2 = 1 would silently become 3.
    text = record(eigenvalues={"2": {"x": 1, "y": 0}, "2\n": {"x": 3, "y": 0}})
    assert SCHEMA.is_valid(json.loads(text))
    with pytest.raises(SchemaError, match=r"at \$\.eigenvalues: key '2\\n'"):
        parse_form(text)


def _edits(rec):
    """Every one-step edit of rec: the whole record, or any member, set to one
    of VALUES; a member dropped or renamed to one of KEYS; a key of KEYS added
    to an object. An edit is (kind, path of the object, key, argument)."""
    yield from (("set", (), None, value) for value in VALUES)
    paths = [()] if isinstance(rec, dict) else []
    for path in paths:
        obj = _at(rec, path)
        for key, value in obj.items():
            if isinstance(value, dict):
                paths.append(path + (key,))
            yield "drop", path, key, None
            yield from (("rename", path, key, new) for new in KEYS)
            yield from (("set", path, key, new) for new in VALUES)
        yield from (("set", path, new, {"x": 1, "y": 0}) for new in KEYS if new not in obj)


def _at(rec, path):
    for key in path:
        rec = rec[key]
    return rec


def _edited(rec, edit):
    kind, path, key, arg = edit
    if not path and key is None:
        return copy.deepcopy(arg)
    rec = copy.deepcopy(rec)
    obj = _at(rec, path)
    if kind == "set":
        obj[key] = copy.deepcopy(arg)
    else:
        value = obj.pop(key)
        if kind == "rename":
            obj[arg] = value
    return rec


@st.composite
def edited_records(draw):
    """A bundled record after two or three random edits."""
    rec = draw(st.sampled_from(BUNDLED_RECORDS))
    for _ in range(draw(st.integers(2, 3))):
        rec = _edited(rec, draw(st.sampled_from(list(_edits(rec)))))
    return rec


def _has_float(tree) -> bool:
    if isinstance(tree, dict):
        return any(_has_float(v) for v in tree.values())
    return isinstance(tree, float)


def _form_of(rec):
    """What parse_form made of a record the schema accepts before it checked
    the wire format itself: the form, or None for a SchemaError."""
    d = rec["field"].get("d")
    try:
        eigenvalues = {int(p): QuadInt(v["x"], v["y"])
                       for p, v in rec["eigenvalues"].items()}
        return NewformData(rec["id"], rec["level"], rec["weight"], d, eigenvalues,
                           rec.get("claimed_conductor_equality", False), rec.get("notes", ""))
    except ValueError:
        return None


def _agrees_with_the_schema(rec):
    text = json.dumps(rec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RamanujanBoundWarning)
        # float literals have been refused on top of the schema since they
        # were found to pass it, and so are keys with a trailing newline; an
        # id that does not print is refused too, which no JSON-schema pattern
        # can say
        if (not SCHEMA.is_valid(rec) or _has_float(rec) or not rec["id"].isprintable()
                or any(key.endswith("\n") for key in rec["eigenvalues"])):
            with pytest.raises(SchemaError, match=r"^schema violation"):
                parse_form(text)
            return
        expected = _form_of(rec)
        if expected is None:
            with pytest.raises(SchemaError, match=r"^schema violation at \$"):
                parse_form(text)
        else:
            assert parse_form(text) == expected


@pytest.mark.parametrize("rec", BUNDLED_RECORDS, ids=BUNDLED_FORMS)
def test_parse_form_agrees_with_the_schema_one_edit_away(rec):
    for edit in _edits(rec):
        _agrees_with_the_schema(_edited(rec, edit))


@given(edited_records())
def test_parse_form_agrees_with_the_schema(rec):
    _agrees_with_the_schema(rec)


def test_empty_eigenvalue_map_is_valid():
    form = parse_form(record(eigenvalues={}))
    assert form.eigenvalues == {}


def test_ramanujan_violation_warns_not_rejects():
    with pytest.warns(RamanujanBoundWarning):
        form = parse_form(record(weight=2, eigenvalues={"2": {"x": 50, "y": 0}}))
    assert form.eigenvalues[2].x == 50


def test_round_trip(schoen_form, sqrt2_form):
    for form, rec in zip((schoen_form, sqrt2_form), BUNDLED_RECORDS):
        again = parse_form(dump_form(form))
        assert again == form
        # a_7 = -4 of s2_512_sqrt2 is a rational value of Q(sqrt(2)): built
        # from its (x, y) like the surds, it equals the parsed value
        assert _rebuilt(rec) == form
    constructed = parse_form(
        record(
            field={"type": "quadratic", "d": 5},
            eigenvalues={"2": {"x": 1, "y": -3}, "13": {"x": 4, "y": 0}},
            notes="hand-made",
        )
    )
    assert parse_form(dump_form(constructed)) == constructed


def _rebuilt(rec):
    """The form of a record built from its (x, y) pairs, not parsed."""
    return NewformData(rec["id"], rec["level"], rec["weight"], rec["field"].get("d"),
                       {int(p): QuadInt(v["x"], v["y"]) for p, v in rec["eigenvalues"].items()},
                       rec["claimed_conductor_equality"], rec["notes"])


@st.composite
def forms(draw):
    """A rational form or a form over Q(sqrt(d)) whose a_p include rational
    values (y = 0), with an id that prints. Weight 16 and up keeps every a_p
    within the Ramanujan bound."""
    d = draw(st.sampled_from([None, 2, 3, 5, 6, 7, 10]))
    level = draw(st.sampled_from([1, 25, 512]))
    primes = [p for p in primes_in_range(2, 60) if level % p]
    ys = st.just(0) if d is None else st.one_of(st.just(0), st.integers(-9, 9))
    eigenvalues = {p: QuadInt(draw(st.integers(-99, 99)), draw(ys))
                   for p in draw(st.lists(st.sampled_from(primes), unique=True, max_size=6))}
    form_id = draw(st.text(min_size=1, max_size=8).filter(str.isprintable))
    return NewformData(form_id, level, draw(st.integers(16, 20)),
                       d, eigenvalues, draw(st.booleans()), draw(st.text(max_size=8)))


@given(forms())
@example(_rebuilt(BUNDLED_RECORDS[BUNDLED_FORMS.index("s2_512_sqrt2")]))
def test_dump_form_round_trips(form):
    assert parse_form(dump_form(form)) == form


def test_expectations_table_loads():
    exp = load_expectations()
    assert exp["version"] == 1
    assert exp["weight4_level25"]["family_obstruction"]["M"] == 1375


def written(report, fmt):
    out = io.StringIO()
    write_report(report, fmt, out)
    return out.getvalue()


def test_write_report_determinism_and_empty():
    assert written({}, "json") == "{}\n"
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    assert written(payload, "json") == written(payload, "json") == canonical_json(payload)
    assert '"a"' in written(payload, "json")
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        write_report({}, "yaml", out)
    assert out.getvalue() == ""


class Pieces(io.StringIO):
    """A text stream that keeps each string handed to write."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def test_certify_range_streams_its_report_in_bounded_pieces(monkeypatch, schoen_form):
    # certify_range writes the report of certify_form's runs in both formats,
    # and hands each batch's text to the stream on its own, never joined:
    # no piece holds the runs of more than one batch, in one process or
    # read back from the forked workers' spools
    monkeypatch.setattr(certify, "POOL_MIN_RUNS", 1)
    monkeypatch.setattr(certify, "_BATCH_ELLS", 50)
    ells = primes_in_range(7, 2000)
    runs = certify_form(schoen_form, ells)
    for cpus in (1, 2):
        monkeypatch.setattr(certify, "usable_cpus", lambda: cpus)
        for fmt, head in (("json", '\n      "conductor": '), ("text", "\n  ell=")):
            out = Pieces()
            certify_range(schoen_form, ells, None, None, fmt, out)
            assert out.getvalue() == certify_report(schoen_form, ells, runs, fmt)
            counts = [("\n" + piece).count(head) for piece in out.pieces]
            assert sum(counts) == len(runs) == len(ells)
            assert max(counts) == 50


def test_write_json_list_splices_the_texts_into_the_one_empty_list_at_its_key():
    def spliced(envelope, texts):
        out = io.StringIO()
        write_json_list(out, envelope, "k", texts)
        return out.getvalue()

    # a string holding the token, escaped, does not count as a second one
    envelope = {"a": {"k": []}, "b": '"k": []', "z": [1]}
    assert spliced(envelope, ['"x"', "[\n        1\n      ]"]) == canonical_json(
        {"a": {"k": ["x", [1]]}, "b": '"k": []', "z": [1]})
    assert spliced(envelope, iter(())) == canonical_json(envelope)
    for bad in ({"k": [1]}, {"a": {"k": []}, "k": []}):  # no empty list at k, or two
        out = io.StringIO()
        with pytest.raises(ValueError):
            write_json_list(out, bad, "k", ["1"])
        assert out.getvalue() == ""


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}).index('"a"') < canonical_json(
        {"b": 1, "a": 2}
    ).index('"b"')


class Record:
    """A leaf with to_dict(), as the report classes have."""

    def __init__(self, tree):
        self.tree = tree

    def to_dict(self):
        return self.tree


JSON_TEXT = st.text() | st.sampled_from(
    ["", "é", "\u2028", "\ud800", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\U0001f600"]
)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | JSON_TEXT
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=5)
        | inner.map(Record)
    ),
    max_leaves=30,
)


@given(JSON_TREES)
def test_canonical_json_equals_json_dumps(obj):
    expected = json.dumps(obj, default=lambda o: o.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=True) + "\n"
    assert canonical_json(obj) == expected


@pytest.mark.parametrize("obj", [
    {}, [], (), [[]], [{}], {"a": {}}, {"a": []}, [True, 1, False, 0, None],
    {"b": [1, "x", None], "a": [[1, 2], {"k": 15}]}, {"": "", "\u00e9": "\u2028"},
    ("a", ("b", [()])), [0, 10**30, -(10**30)],
])
def test_canonical_json_edge_cases(obj):
    expected = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert canonical_json(obj) == expected


class Text(str):
    pass


def test_canonical_json_rejects_what_json_rejects():
    for obj in [{"a": {1: 1, "b": 2}}, [object()], Record([object()])]:
        with pytest.raises(TypeError):
            canonical_json(obj)


@pytest.mark.parametrize("obj", [
    1.5, [float("nan"), float("inf"), -0.0], {"b": [1], "a": [{"k": 1.5}]},
    {1: [2], 3: {"a": 1}}, {"x": {2: "two", 1: "one"}}, {"a": Text("x")}, [Text("x")],
    Record([1.0]),
])
def test_canonical_json_takes_what_json_dumps_takes(obj):
    # No report holds a float, a non-str key or a str subclass (parse_form
    # refuses float literals), so canonical_json no longer refuses them
    expected = json.dumps(obj, default=lambda o: o.to_dict(), sort_keys=True, indent=2,
                          ensure_ascii=True) + "\n"
    assert canonical_json(obj) == expected
