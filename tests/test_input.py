"""The input boundary: surface-type and field files fuzzed through the CLI.

Every draw starts from a valid document and then drops a key, swaps a
value for an arbitrary JSON value, or puts a float, bool or string where an
integer (or a number) belongs.  Whatever the file says, the command must
end in one of the three exit codes and never in a traceback; a value of the
wrong kind where an integer or number belongs is unusable input (exit 2).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import segal
from segal import cli, cobordism, corpus
from segal.beltrami import DilatationField

TYPES = Path(segal.__file__).resolve().parent / "data" / "corpus" / "types"
TYPE_DOCS = [
    cobordism.octype_to_json(t)
    for t in (corpus.cylinder(), corpus.pants_split(), corpus.strip(), corpus.disc_out())
]
FIELD_DOC = DilatationField.from_function(
    lambda z: 0.3 * z / (1 + abs(z)), -1.0, 1.0, 0.0, 1.0, 3, 2
).to_json()

# Small integers only: a signature count is also a loop bound in validation.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
NOT_AN_INTEGER = (
    st.booleans()
    | st.floats().filter(lambda v: not np.isfinite(v) or v != int(v))
    | st.integers(-3, 6).map(float)
    | st.integers(-3, 6).map(str)
)
NOT_A_NUMBER = (
    st.booleans()
    | st.floats(allow_nan=False).map(repr)
    | st.none()
    | st.lists(st.integers(), max_size=2)
)


def _children(doc):
    if isinstance(doc, dict):
        return doc.items()
    return enumerate(doc) if isinstance(doc, list) else ()


def _paths(doc, prefix=()):
    """Every key path in a JSON document with the value it leads to."""
    for k, v in _children(doc):
        yield prefix + (k,), v
        yield from _paths(v, prefix + (k,))


def _leaf_paths(doc, kind):
    """Paths of the leaves that are JSON integers (kind int) or floats (kind float)."""
    return [p for p, v in _paths(doc) if type(v) is kind]


def _replaced(doc, path, value=None, drop=False):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for k in path[:-1]:
        inner = inner[k]
    if drop:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    return doc


@st.composite
def mutated(draw, docs):
    """A document with one to three keys dropped or values swapped."""
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p, _ in _paths(doc)]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        if draw(st.booleans()):
            doc = _replaced(doc, path, drop=True)
        else:
            doc = _replaced(doc, path, draw(JSON_VALUES))
    return doc


def _run(argv_for, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv_for(str(path)))
    return code, err.getvalue()


TYPE_COMMANDS = st.sampled_from(
    [
        lambda p: ["types", "validate", p],
        lambda p: ["types", "compose", p, str(TYPES / "cylinder.json")],
        lambda p: ["types", "compose", str(TYPES / "cylinder.json"), p],
    ]
)
FIELD_COMMANDS = st.sampled_from(
    [
        lambda p: ["belt", "distance", p, p],
        lambda p: ["belt", "transform", p, "--mu-f", "0.1", "--fz", "1"],
    ]
)


@settings(max_examples=150, deadline=None)
@given(TYPE_COMMANDS, mutated(TYPE_DOCS))
def test_mutated_type_file_exits_cleanly(argv_for, doc):
    code, err = _run(argv_for, doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(FIELD_COMMANDS, mutated([FIELD_DOC]))
def test_mutated_field_file_exits_cleanly(argv_for, doc):
    code, err = _run(argv_for, doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(TYPE_COMMANDS, st.data())
def test_type_integer_of_the_wrong_kind_exits_2(argv_for, data):
    doc = data.draw(st.sampled_from(TYPE_DOCS))
    path = data.draw(st.sampled_from(_leaf_paths(doc, int)))
    code, err = _run(argv_for, _replaced(doc, path, data.draw(NOT_AN_INTEGER)))
    assert code == 2, err
    assert err.startswith("error: ") and "must be an integer" in err


@settings(max_examples=100, deadline=None)
@given(FIELD_COMMANDS, st.data())
def test_field_value_of_the_wrong_kind_exits_2(argv_for, data):
    kind = data.draw(st.sampled_from([int, float]))
    path = data.draw(st.sampled_from(_leaf_paths(FIELD_DOC, kind)))
    bad = data.draw(NOT_AN_INTEGER if kind is int else NOT_A_NUMBER)
    code, err = _run(argv_for, _replaced(FIELD_DOC, path, bad))
    assert code == 2, err
    expected = "must be an integer" if kind is int else "must be a number"
    assert err.startswith("error: ") and expected in err


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-10, 10),
    st.floats(0.01, 10),
    st.floats(-10, 10),
    st.floats(0.01, 10),
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_field_json_round_trip(x0, w, y0, h, nx, ny, data):
    r = st.floats(-0.6, 0.6)
    vals = np.array(
        [[complex(data.draw(r), data.draw(r)) for _ in range(nx)] for _ in range(ny)]
    )
    f = DilatationField(x0, x0 + w, y0, y0 + h, vals)
    doc = json.loads(json.dumps(f.to_json()))
    g = DilatationField.from_json(doc)
    assert (g.x0, g.x1, g.y0, g.y1) == (f.x0, f.x1, f.y0, f.y1)
    assert np.array_equal(g.values, f.values)
    assert json.loads(json.dumps(g.to_json())) == doc
