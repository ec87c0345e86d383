import dataclasses
import hashlib
import json
import pickle
import random
import re
from functools import cache, partial, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import corpus
from segal._input import load_file
from segal.cobordism import (
    BoundaryCycle,
    ComponentData,
    CycleEntry,
    ObjectSignature,
    OCType,
    compose_types,
    disjoint_union,
    euler_characteristic,
    free_circle,
    is_stable,
    octype_from_json,
    octype_to_json,
    validate_type,
)
from segal.corpus import example
from segal.errors import DomainError, SignatureMismatch

EMPTY = ObjectSignature(0, 0)
BUNDLED_TYPES = sorted((corpus.BUNDLED / "types").glob("*.json"))


def _closed(genus) -> OCType:
    """One component of this genus with no boundary at all."""
    return OCType((ComponentData(genus=genus),), EMPTY, EMPTY)


def _euler(t: OCType) -> int:
    return sum(euler_characteristic(c) for c in t.components)


def test_euler_characteristic_basics():
    assert euler_characteristic(example("free_disc").components[0]) == 1
    assert euler_characteristic(example("cylinder").components[0]) == 0
    assert euler_characteristic(example("pants_split").components[0]) == -1
    assert euler_characteristic(_closed(2).components[0]) == -2


@pytest.mark.parametrize("path", BUNDLED_TYPES, ids=[p.stem for p in BUNDLED_TYPES])
def test_bundled_type_is_valid_and_canonically_written(path: Path):
    """Each example type has one form, its file: it validates, and its bytes
    are what ``octype_to_json`` writes for the type it decodes to."""
    text = path.read_text(encoding="utf-8")
    t = octype_from_json(json.loads(text))
    report = validate_type(t)
    assert report.ok, report.violations
    assert text == json.dumps(octype_to_json(t), sort_keys=True, indent=2) + "\n"
    assert example(path.stem) == t


def test_example_names_the_file_it_cannot_read():
    with pytest.raises(DomainError, match=r"types/no_such_type\.json: No such file"):
        example("no_such_type")


@pytest.mark.parametrize("genus", [1.5, True, 1.0, "1"])
def test_validate_reads_genus_by_the_integer_rule(genus):
    report = validate_type(_closed(genus))
    assert report.violations == (f"component 0: genus must be an integer, not {genus!r}",)


def test_decoder_reads_boundary_circles_only_as_the_assigned_count(tmp_path):
    doc = octype_to_json(example("free_disc"))
    doc["components"][0]["boundary_circles"] = 1
    assert octype_from_json(doc) == example("free_disc")
    doc["components"][0]["boundary_circles"] = 3
    with pytest.raises(DomainError, match="boundary_circles is 3, but the component assigns 1"):
        octype_from_json(doc)
    path = tmp_path / "claims_three.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: "):
        load_file(path, octype_from_json, "surface-type")


def test_validate_flags_dbrane_mismatch():
    # Interval source label disagrees with the preceding free arc.
    comp = ComponentData(
        genus=0,
        cycles=(BoundaryCycle((CycleEntry("out", 0),), ("b",)),),
    )
    t = OCType(
        (comp,),
        ObjectSignature(0, 0),
        ObjectSignature(0, 1, ("a",), ("b",)),
    )
    report = validate_type(t)
    assert any("D-brane" in v for v in report.violations)


def test_validate_flags_lost_and_duplicated_intervals():
    comp = ComponentData(
        genus=0,
        cycles=(
            BoundaryCycle((CycleEntry("out", 0),), ("a",)),
            BoundaryCycle((CycleEntry("out", 0),), ("a",)),
        ),
    )
    t = OCType(
        (comp,),
        ObjectSignature(0, 0),
        ObjectSignature(0, 2, ("a", "a"), ("a", "a")),
    )
    report = validate_type(t)
    assert any("appears in 2 cycles" in v for v in report.violations)
    assert any("interval 1 appears in no cycle" in v for v in report.violations)


def test_validate_costs_what_the_type_holds_not_its_counts():
    """Counts of 10**12 name the first ten missing identifiers and a total."""
    big = ObjectSignature(10**12, 10**12, ("a",), ("a",))
    report = validate_type(OCType(example("cylinder").components, big, ObjectSignature(1, 0)))
    first = list(range(1, 11))
    assert report.violations == (
        "in signature: label list length != open_count",
        f"unassigned closed in circles: {first}, {10**12 - 1} in all",
        *(f"open in interval {i} appears in no cycle" for i in range(10)),
        f"open in intervals in no cycle: {10**12} in all, the first 10 listed",
    )


def test_validate_lists_up_to_ten_missing_in_order_with_repeats():
    cyc = BoundaryCycle((CycleEntry("out", 4),), ("a",))
    comp = ComponentData(genus=0, cycles=(cyc, cyc))
    t = OCType((comp,), ObjectSignature(0, 0), ObjectSignature(0, 11, ("a",) * 11, ("a",) * 11))
    lines = [v for v in validate_type(t).violations if v.startswith("open out interval")]
    assert lines == [
        f"open out interval {i} " + ("appears in 2 cycles" if i == 4 else "appears in no cycle")
        for i in range(11)
    ]


def test_validate_flags_duplicate_closed_circle():
    c1 = ComponentData(genus=0, closed_in=frozenset({0}), cycles=(free_circle("a"),))
    c2 = ComponentData(genus=0, closed_in=frozenset({0}), cycles=(free_circle("a"),))
    t = OCType((c1, c2), ObjectSignature(1, 0), ObjectSignature(0, 0))
    report = validate_type(t)
    assert any("assigned to two components" in v for v in report.violations)


def test_compose_discs_gives_free_disc():
    out = compose_types(example("disc_out"), example("disc_in"))
    assert out == example("free_disc")
    assert validate_type(out).ok


def test_compose_strips_gives_strip():
    s = example("strip_ab")
    assert compose_types(s, s) == s


def test_compose_cylinders_gives_cylinder():
    c = example("cylinder")
    assert compose_types(c, c) == c


def test_compose_pants_gives_genus_one():
    out = compose_types(example("pants_split"), example("pants_join"))
    assert len(out.components) == 1
    comp = out.components[0]
    assert comp.genus == 1
    assert comp.n == 2
    assert _euler(out) == -2


def test_compose_pants_other_order_gives_four_holed_sphere():
    out = compose_types(example("pants_join"), example("pants_split"))
    comp = out.components[0]
    assert comp.genus == 0
    assert comp.n == 4


def test_compose_requires_matching_signature():
    with pytest.raises(SignatureMismatch):
        compose_types(example("cylinder"), example("strip_ab"))
    # Same counts but different labels must also be rejected.
    cyc = BoundaryCycle((CycleEntry("in", 0), CycleEntry("out", 0)), ("b", "a"))
    sig = ObjectSignature(0, 1, ("b",), ("a",))
    strip_ba = OCType((ComponentData(0, cycles=(cyc,)),), sig, sig)
    with pytest.raises(SignatureMismatch):
        compose_types(example("strip_ab"), strip_ba)


A_INTERVAL = ObjectSignature(0, 1, ("a",), ("a",))


def _free_disc_with(in_sig: ObjectSignature, out_sig: ObjectSignature) -> OCType:
    return OCType((ComponentData(0, cycles=(free_circle("a"),)),), in_sig, out_sig)


def _cylinder_out(ident: int) -> OCType:
    comp = ComponentData(0, closed_in=frozenset({0}), closed_out=frozenset({ident}))
    return OCType((comp,), ObjectSignature(1, 0), ObjectSignature(1, 0))


def _disc_out_twice() -> OCType:
    """Outgoing interval 1 sits on a cycle but the signature has one interval."""
    cyc = BoundaryCycle((CycleEntry("out", 0), CycleEntry("out", 1)), ("a", "a"))
    return OCType((ComponentData(0, cycles=(cyc,)),), ObjectSignature(0, 0), A_INTERVAL)


@pytest.mark.parametrize(
    "t1,t2,match",
    [
        (
            _free_disc_with(ObjectSignature(0, 0), A_INTERVAL),
            example("disc_in"),
            "out interval 0 of the first type lies on no component",
        ),
        (
            example("disc_out"),
            _free_disc_with(A_INTERVAL, ObjectSignature(0, 0)),
            "in interval 0 of the second type lies on no component",
        ),
        (_cylinder_out(5), example("cylinder"), "out circle 0 of the first type"),
        (_disc_out_twice(), example("disc_in"), "in interval 1 of the second type"),
    ],
    ids=["lost-out-interval", "lost-in-interval", "stray-circle", "unknown-interval"],
)
def test_compose_rejects_unowned_glued_boundary(t1, t2, match):
    assert not validate_type(t1).ok or not validate_type(t2).ok
    with pytest.raises(DomainError, match=match):
        compose_types(t1, t2)


def test_compositions_keep_their_component_and_cycle_order():
    """Equality ignores the order of components, of cycles and of the
    entries around a cycle; ``repr`` shows all three.  This digest pins
    them, union-find root order included, over 300 seeded pairs and every
    composable pair of small types."""
    small = corpus.enumerate_small_types()
    out = [repr(compose_types(*corpus.random_composable_pair(seed))) for seed in range(300)]
    out += [repr(compose_types(a, b)) for a in small for b in small if a.out_signature == b.in_signature]
    assert len(out) == 3340
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
        "ba2f82aead3d1ee772b9d1520194470fa8b136a4aff3c54056f9597d86413dc7"
    )


def _composite() -> OCType:
    return compose_types(example("strip_ab"), example("strip_ab"))


# (makes a type, makes its partner, the side the type takes: 0 first, 1
# second).  Composing the two fills the type's arc table; making the type
# again gives a fresh equal value to compare with.
FILLED = {
    "first-side": (partial(example, "pants_split"), partial(example, "pants_join"), 0),
    "second-side": (partial(example, "pants_join"), partial(example, "pants_split"), 1),
    "composite": (_composite, partial(example, "strip_ab"), 0),
    "seeded": (
        lambda: corpus.random_composable_pair(11)[0],
        lambda: corpus.random_composable_pair(11)[1],
        0,
    ),
}


@pytest.mark.parametrize("name", FILLED)
def test_a_filled_arc_table_is_invisible(name):
    build, partner, side = FILLED[name]
    t, fresh = build(), build()
    other = partner()
    glued = compose_types(*((t, other) if side == 0 else (other, t)))
    assert vars(t).keys() - vars(fresh).keys(), "the composition kept no table on t"
    assert repr(t) == repr(fresh)
    assert t == fresh and hash(t) == hash(fresh)
    assert dataclasses.asdict(t) == dataclasses.asdict(fresh)
    assert octype_to_json(t) == octype_to_json(fresh)
    assert pickle.dumps(t) == pickle.dumps(fresh)
    assert vars(pickle.loads(pickle.dumps(t))) == vars(fresh)
    assert vars(dataclasses.replace(t)) == vars(dataclasses.replace(fresh))
    # and a second composition reads the kept table to the same result
    again = compose_types(*((t, other) if side == 0 else (other, t)))
    assert repr(again) == repr(glued)


def test_compose_rejects_a_cycle_short_of_arc_labels():
    cyc = BoundaryCycle((CycleEntry("out", 0), CycleEntry("out", 1)), ("a",))
    sig = ObjectSignature(0, 2, ("a", "a"), ("a", "a"))
    t1 = OCType((ComponentData(0, cycles=(free_circle("a"), cyc)),), ObjectSignature(0, 0), sig)
    assert not validate_type(t1).ok
    t2 = example("disc_in")
    t2 = disjoint_union(t2, t2)
    message = r"^cannot compose: component 0 cycle 1 has 1 free arcs for 2 entries$"
    with pytest.raises(DomainError, match=message):
        compose_types(t1, t2)


def test_composition_euler_additivity():
    t1, t2 = example("pants_split"), example("pants_join")
    out = compose_types(t1, t2)
    glued_intervals = t1.out_signature.open_count
    assert _euler(out) == _euler(t1) + _euler(t2) - glued_intervals


def test_equality_ignores_cycle_rotation_and_component_order():
    a = BoundaryCycle(
        (CycleEntry("in", 0), CycleEntry("out", 0)), ("a", "b")
    )
    b = BoundaryCycle(
        (CycleEntry("out", 0), CycleEntry("in", 0)), ("b", "a")
    )
    sig = ObjectSignature(0, 1, ("a",), ("b",))
    t1 = OCType(
        (ComponentData(0, cycles=(a,)), ComponentData(1, cycles=(free_circle("a"),))),
        sig,
        sig,
    )
    t2 = OCType(
        (ComponentData(1, cycles=(free_circle("a"),)), ComponentData(0, cycles=(b,))),
        sig,
        sig,
    )
    assert t1 == t2
    assert hash(t1) == hash(t2)


def test_disjoint_union_shifts_identifiers():
    t = disjoint_union(example("cylinder"), example("pants_join"))
    assert validate_type(t).ok
    assert t.in_signature.closed_count == 3
    assert t.out_signature.closed_count == 2
    assert _euler(t) == _euler(example("cylinder")) + _euler(example("pants_join"))


def test_disjoint_union_open_shift():
    cyc = BoundaryCycle((CycleEntry("out", 0),), ("c",))
    disc_out_c = OCType(
        (ComponentData(0, cycles=(cyc,)),), EMPTY, ObjectSignature(0, 1, ("c",), ("c",))
    )
    t = disjoint_union(example("strip_ab"), disc_out_c)
    assert validate_type(t).ok
    assert t.out_signature.source_labels == ("a", "c")
    entries = {
        (e.direction, e.index)
        for comp in t.components
        for cyc in comp.cycles
        for e in cyc.entries
    }
    assert ("out", 1) in entries


def test_stability_classification():
    assert validate_type(_closed(2)).ok
    assert is_stable(_closed(2)).statuses == ("unstable",)
    assert is_stable(example("free_disc")).statuses == ("special",)
    assert is_stable(example("free_annulus")).statuses == ("special",)
    assert is_stable(example("strip_ab")).statuses == ("stable",)
    assert is_stable(example("cylinder")).statuses == ("stable",)
    assert is_stable(example("disc_out")).statuses == ("stable",)
    both = disjoint_union(_closed(0), example("free_disc"))
    rep = is_stable(both)
    assert rep.statuses == ("unstable", "special")
    assert not rep.all_stable


def test_genus_zero_three_free_circles_not_special():
    comp = ComponentData(0, cycles=(free_circle("a"), free_circle("a"), free_circle("a")))
    t = OCType((comp,), ObjectSignature(0, 0), ObjectSignature(0, 0))
    assert is_stable(t).statuses == ("stable",)


@pytest.mark.parametrize("seed", range(25))
def test_json_roundtrip_random(seed):
    t, u = corpus.random_composable_pair(seed)
    for x in (t, u, compose_types(t, u)):
        assert validate_type(x).ok, validate_type(x).violations
        assert octype_from_json(octype_to_json(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_json_roundtrip_beyond_acceptance_cap(seed, draws):
    rng = random.Random(seed)
    t1 = reduce(disjoint_union, [corpus.random_octype(rng) for _ in range(draws)])
    t2 = corpus.random_successor(rng, t1)
    t3 = corpus.random_successor(rng, t2)
    for t in (t1, t2, t3, compose_types(t1, t2), compose_types(t2, t3)):
        doc = octype_to_json(t)
        back = octype_from_json(doc)
        assert back == t
        assert octype_to_json(back) == doc


@cache
def _octype_draws():
    """random_octype's first 2000 draws from one seeded stream."""
    rng = random.Random(7)
    return [corpus.random_octype(rng) for _ in range(2000)]


# quantity -> (its value on a type, the least and the most random_octype draws)
OCTYPE_BOUNDS = {
    "components": (lambda t: len(t.components), 1, 2),
    "genus": (lambda t: max(c.genus for c in t.components), 0, 2),
    "closed-in": (lambda t: t.in_signature.closed_count, 0, 2),
    "closed-out": (lambda t: t.out_signature.closed_count, 0, 2),
    "intervals-in": (lambda t: t.in_signature.open_count, 0, 3),
    "intervals-out": (lambda t: t.out_signature.open_count, 0, 3),
}


@pytest.mark.parametrize("quantity", OCTYPE_BOUNDS)
def test_random_octype_draws_reach_its_bounds_and_no_further(quantity):
    of, least, most = OCTYPE_BOUNDS[quantity]
    values = [of(t) for t in _octype_draws()]
    assert (min(values), max(values)) == (least, most)


def test_random_octype_draws_valid_types_from_a_fixed_stream():
    """The draws are valid, and a seed gives the same 500 types as it did
    when the bounds were keyword options with these defaults."""
    types = _octype_draws()[:500]
    assert all(validate_type(t).ok for t in types)
    docs = json.dumps([octype_to_json(t) for t in types], sort_keys=True)
    assert hashlib.sha256(docs.encode()).hexdigest() == (
        "9b79da3cc3566fc871614d944c764132d4bce02cc412a365e399d03fb77884b8"
    )


def test_enumerate_small_types_needs_distinct_labels():
    assert len(corpus.enumerate_small_types(("a",))) == 56
    with pytest.raises(DomainError, match="labels must be distinct"):
        corpus.enumerate_small_types(("a", "a"))


def test_json_top_level_must_be_object():
    with pytest.raises(DomainError):
        octype_from_json([1, 2])


def test_json_unknown_schema_is_a_domain_error():
    doc = octype_to_json(example("cylinder"))
    doc["schema"] = "segal.octype/2"
    with pytest.raises(DomainError, match=r"^unsupported schema 'segal.octype/2'$"):
        octype_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"components": [1], "in": {"C": 0, "O": 0}, "out": {"C": 0, "O": 0}},
        {"components": [], "in": [0, 0], "out": {"C": 0, "O": 0}},
    ],
    ids=["component", "signature"],
)
def test_json_nested_objects_must_be_objects(doc):
    with pytest.raises(DomainError, match="must be a JSON object"):
        octype_from_json(doc)


def test_json_closed_identifiers_must_be_integers():
    doc = octype_to_json(example("cylinder"))
    doc["components"][0]["closed_in"] = ["x", 0]
    with pytest.raises(DomainError):
        octype_from_json(doc)


def test_json_schema_shape():
    d = octype_to_json(example("pants_split"))
    assert d["schema"] == "segal.octype/1"
    assert d["in"] == {"C": 1, "O": 0, "s": [], "t": []}
    assert d["out"] == {"C": 2, "O": 0, "s": [], "t": []}
    comp = d["components"][0]
    assert comp["genus"] == 0
    assert comp["closed_in"] == [0]
    assert comp["closed_out"] == [0, 1]
    assert comp["cycles"] == []
    assert comp["free_circles"] == []
