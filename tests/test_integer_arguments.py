"""Every count argument of the library follows one integer rule.

A grid size, a sample count, a flattening level, a simplex dimension, a
quad count or an acceptance criterion index accepts a Python or numpy
integer.  A bool, a float (2.0, nan and inf too), a string, or a value
below the argument's least value raises ``DomainError`` with a message
that starts with the argument's name.  Every integer field of a
surface-type document (a genus, a closed circle, an interval index, a
signature count, a boundary circle count) follows the same rule.
"""

import copy
import math
from functools import partial

import numpy as np
import pytest

from segal import acceptance, beltrami, chains, cobordism, corpus, flattening, quasisym
from segal.errors import DomainError

_GLUE = flattening.glue_sine(0.1)
_BASE = flattening.base_structure_field(_GLUE)
_BOX = (0.0, 1.0, 0.0, 1.0)


def _identity(x):
    return x


def _field_from_json(nx, ny):
    """A 2x2 field document with its declared counts replaced."""
    doc = beltrami.DilatationField.constant(0.1j, *_BOX, 2, 2).to_json()
    return beltrami.DilatationField.from_json({**doc, "nx": nx, "ny": ny})


# name -> (the call with the count as its one argument, the name its
# message starts with, the least value, a value it accepts)
PARAMETERS = {
    "order_sequence": (flattening.order_sequence, "k", 0, 2),
    "structure_field_chain": (partial(flattening.structure_field_chain, _GLUE), "k", 0, 1),
    "verify_orders": (partial(flattening.verify_orders, _GLUE), "k_max", 0, 0),
    "next_structure_field": (partial(flattening.next_structure_field, _BASE), "n_steps", 1, 4),
    "SampledIncreasingFunction.from_callable": (
        lambda n: quasisym.SampledIncreasingFunction.from_callable(_identity, 0.0, 1.0, n),
        "sample count",
        1,
        4,
    ),
    "sampled_identity": (quasisym.sampled_identity, "sample count", 1, 4),
    "sampled_slope_break": (partial(quasisym.sampled_slope_break, 2.0), "sample count", 1, 4),
    "sampled_exp": (partial(quasisym.sampled_exp, 1.0), "sample count", 1, 4),
    "DilatationField.constant-nx": (
        lambda n: beltrami.DilatationField.constant(0.1j, *_BOX, n, 2), "nx", 1, 2
    ),
    "DilatationField.constant-ny": (
        lambda n: beltrami.DilatationField.constant(0.1j, *_BOX, 2, n), "ny", 1, 2
    ),
    "DilatationField.from_json-nx": (lambda n: _field_from_json(n, 2), "nx", 1, 2),
    "DilatationField.from_json-ny": (lambda n: _field_from_json(2, n), "ny", 1, 2),
    "FormalSimplex": (lambda d: chains.FormalSimplex(d, "a"), "simplex dimension", 0, 2),
    "generator": (partial(chains.generator, "a"), "simplex dimension", 0, 2),
    "check_identities": (chains.check_identities, "degree", 0, 2),
    "generate_quads": (partial(corpus.generate_quads, 1), "quad count", 1, 2),
}

NOT_INTEGERS = {"fraction": 2.5, "nan": math.nan, "inf": math.inf, "bool": True, "string": "3"}


@pytest.mark.parametrize("kind", [*NOT_INTEGERS, "below-least"])
@pytest.mark.parametrize("name", PARAMETERS)
def test_rejects_a_non_integer_or_a_count_below_its_least(name, kind):
    call, what, least, _valid = PARAMETERS[name]
    value = least - 1 if kind == "below-least" else NOT_INTEGERS[kind]
    with pytest.raises(DomainError, match=f"^{what} must be "):
        call(value)


@pytest.mark.parametrize("name", PARAMETERS)
def test_accepts_a_numpy_integer(name):
    call, _what, _least, valid = PARAMETERS[name]
    call(np.int64(valid))


# A surface-type document with every integer field: one component with a
# closed circle each way and one interval cycle, and the optional
# restatement of its boundary circle count.
TYPE_DOC = {
    "schema": "segal.octype/1",
    "components": [
        {
            "genus": 1,
            "closed_in": [0],
            "closed_out": [0],
            "cycles": [{"entries": [["in", 0], ["out", 0]], "arcs": ["a", "b"]}],
            "boundary_circles": 3,
        }
    ],
    "in": {"C": 1, "O": 1, "s": ["a"], "t": ["b"]},
    "out": {"C": 1, "O": 1, "s": ["a"], "t": ["b"]},
}

# field -> (its key path in TYPE_DOC, the name its message starts with)
TYPE_INTEGERS = {
    "genus": (("components", 0, "genus"), "genus"),
    "closed_in": (("components", 0, "closed_in", 0), "closed circle"),
    "closed_out": (("components", 0, "closed_out", 0), "closed circle"),
    "interval-index": (("components", 0, "cycles", 0, "entries", 0, 1), "interval index"),
    "boundary_circles": (("components", 0, "boundary_circles"), "boundary circle count"),
    "in-C": (("in", "C"), "signature count C"),
    "out-O": (("out", "O"), "signature count O"),
}


def _type_doc_with(path, replace):
    """TYPE_DOC with the value at ``path`` passed through ``replace``."""
    doc = copy.deepcopy(TYPE_DOC)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = replace(node[last])
    return doc


@pytest.mark.parametrize("kind", NOT_INTEGERS)
@pytest.mark.parametrize("field", TYPE_INTEGERS)
def test_a_type_document_rejects_a_non_integer(field, kind):
    path, what = TYPE_INTEGERS[field]
    doc = _type_doc_with(path, lambda _: NOT_INTEGERS[kind])
    with pytest.raises(DomainError, match=f"^{what} must be an integer, not "):
        cobordism.octype_from_json(doc)


@pytest.mark.parametrize("field", TYPE_INTEGERS)
def test_a_type_document_accepts_a_numpy_integer(field):
    path, _what = TYPE_INTEGERS[field]
    doc = _type_doc_with(path, np.int64)
    assert cobordism.octype_from_json(doc) == cobordism.octype_from_json(TYPE_DOC)


def test_a_numpy_dimension_is_stored_as_an_int():
    assert type(chains.FormalSimplex(np.int64(2), "a").dimension) is int


# A criterion index has no least value: an integer outside ``CRITERIA`` keeps
# its own message.  The corpus directory does not exist, so each rejection
# comes before the corpus loads.
@pytest.mark.parametrize("kind", [*NOT_INTEGERS, "whole-float"])
def test_rejects_a_non_integer_criterion_index(kind, tmp_path):
    value = 8.0 if kind == "whole-float" else NOT_INTEGERS[kind]
    with pytest.raises(DomainError, match="^criterion index must be an integer, not "):
        acceptance.run_acceptance(str(tmp_path / "missing"), indices=[3, value])


def test_accepts_a_numpy_criterion_index(tmp_path):
    with pytest.raises(DomainError, match=r"^criterion indices out of range: \[99\]$"):
        acceptance.run_acceptance(str(tmp_path / "missing"), indices=[np.int64(99)])
    with pytest.raises(DomainError, match=r"^criterion indices out of range: \[0, 99\]$"):
        acceptance.run_acceptance(str(tmp_path / "missing"), indices=np.array([0, 3, 99]))
    (_, result) = acceptance.run_acceptance(indices=[np.int64(8)])
    assert (result.index, result.passed) == (8, True)
