import dataclasses
import hashlib
import json
import pickle
import random
import re
from functools import cache, reduce

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
from segal.errors import DomainError, SignatureMismatch


def test_euler_characteristic_basics():
    assert euler_characteristic(corpus.free_disc().components[0]) == 1
    assert euler_characteristic(corpus.cylinder().components[0]) == 0
    assert euler_characteristic(corpus.pants_split().components[0]) == -1
    assert euler_characteristic(corpus.closed_surface(2).components[0]) == -2


@pytest.mark.parametrize(
    "builder",
    [
        corpus.disc_out,
        corpus.disc_in,
        corpus.free_disc,
        corpus.strip,
        corpus.cylinder,
        corpus.pants_split,
        corpus.pants_join,
        corpus.free_annulus,
        lambda: corpus.closed_surface(2),
    ],
)
def test_builders_validate(builder):
    report = validate_type(builder())
    assert report.ok, report.violations


@pytest.mark.parametrize("genus", [1.5, True, 1.0, "1"])
def test_validate_reads_genus_by_the_integer_rule(genus):
    report = validate_type(corpus.closed_surface(genus))
    assert report.violations == (f"component 0: genus must be an integer, not {genus!r}",)


def test_decoder_reads_boundary_circles_only_as_the_assigned_count(tmp_path):
    doc = octype_to_json(corpus.free_disc())
    doc["components"][0]["boundary_circles"] = 1
    assert octype_from_json(doc) == corpus.free_disc()
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
    report = validate_type(OCType(corpus.cylinder().components, big, ObjectSignature(1, 0)))
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
    c1 = ComponentData(genus=0, closed_in=frozenset({0}), cycles=(free_circle(),))
    c2 = ComponentData(genus=0, closed_in=frozenset({0}), cycles=(free_circle(),))
    t = OCType((c1, c2), ObjectSignature(1, 0), ObjectSignature(0, 0))
    report = validate_type(t)
    assert any("assigned to two components" in v for v in report.violations)


def test_compose_discs_gives_free_disc():
    out = compose_types(corpus.disc_out("a"), corpus.disc_in("a"))
    assert out == corpus.free_disc("a")
    assert validate_type(out).ok


def test_compose_strips_gives_strip():
    s = corpus.strip("a", "b")
    assert compose_types(s, s) == s


def test_compose_cylinders_gives_cylinder():
    c = corpus.cylinder()
    assert compose_types(c, c) == c


def test_compose_pants_gives_genus_one():
    out = compose_types(corpus.pants_split(), corpus.pants_join())
    assert len(out.components) == 1
    comp = out.components[0]
    assert comp.genus == 1
    assert comp.n == 2
    assert out.total_euler() == -2


def test_compose_pants_other_order_gives_four_holed_sphere():
    out = compose_types(corpus.pants_join(), corpus.pants_split())
    comp = out.components[0]
    assert comp.genus == 0
    assert comp.n == 4


def test_compose_requires_matching_signature():
    with pytest.raises(SignatureMismatch):
        compose_types(corpus.cylinder(), corpus.strip())
    # Same counts but different labels must also be rejected.
    with pytest.raises(SignatureMismatch):
        compose_types(corpus.strip("a", "b"), corpus.strip("b", "a"))


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
            corpus.disc_in("a"),
            "out interval 0 of the first type lies on no component",
        ),
        (
            corpus.disc_out("a"),
            _free_disc_with(A_INTERVAL, ObjectSignature(0, 0)),
            "in interval 0 of the second type lies on no component",
        ),
        (_cylinder_out(5), corpus.cylinder(), "out circle 0 of the first type"),
        (_disc_out_twice(), corpus.disc_in("a"), "in interval 1 of the second type"),
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
    return compose_types(corpus.strip("a", "b"), corpus.strip("a", "b"))


# (makes a type, makes its partner, the side the type takes: 0 first, 1
# second).  Composing the two fills the type's arc table; making the type
# again gives a fresh equal value to compare with.
FILLED = {
    "first-side": (corpus.pants_split, corpus.pants_join, 0),
    "second-side": (corpus.pants_join, corpus.pants_split, 1),
    "composite": (_composite, corpus.strip, 0),
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
    t1 = OCType((ComponentData(0, cycles=(free_circle(), cyc)),), ObjectSignature(0, 0), sig)
    assert not validate_type(t1).ok
    t2 = corpus.disc_in("a")
    t2 = disjoint_union(t2, t2)
    message = r"^cannot compose: component 0 cycle 1 has 1 free arcs for 2 entries$"
    with pytest.raises(DomainError, match=message):
        compose_types(t1, t2)


def test_composition_euler_additivity():
    t1, t2 = corpus.pants_split(), corpus.pants_join()
    out = compose_types(t1, t2)
    glued_intervals = t1.out_signature.open_count
    assert out.total_euler() == t1.total_euler() + t2.total_euler() - glued_intervals


def test_equality_ignores_cycle_rotation_and_component_order():
    a = BoundaryCycle(
        (CycleEntry("in", 0), CycleEntry("out", 0)), ("a", "b")
    )
    b = BoundaryCycle(
        (CycleEntry("out", 0), CycleEntry("in", 0)), ("b", "a")
    )
    sig = ObjectSignature(0, 1, ("a",), ("b",))
    t1 = OCType(
        (ComponentData(0, cycles=(a,)), ComponentData(1, cycles=(free_circle(),))),
        sig,
        sig,
    )
    t2 = OCType(
        (ComponentData(1, cycles=(free_circle(),)), ComponentData(0, cycles=(b,))),
        sig,
        sig,
    )
    assert t1 == t2
    assert hash(t1) == hash(t2)


def test_disjoint_union_shifts_identifiers():
    t = disjoint_union(corpus.cylinder(), corpus.pants_join())
    assert validate_type(t).ok
    assert t.in_signature.closed_count == 3
    assert t.out_signature.closed_count == 2
    assert t.total_euler() == corpus.cylinder().total_euler() + corpus.pants_join().total_euler()


def test_disjoint_union_open_shift():
    t = disjoint_union(corpus.strip("a", "b"), corpus.disc_out("c"))
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
    assert is_stable(corpus.closed_surface(2)).statuses == ("unstable",)
    assert is_stable(corpus.free_disc()).statuses == ("special",)
    assert is_stable(corpus.free_annulus()).statuses == ("special",)
    assert is_stable(corpus.strip()).statuses == ("stable",)
    assert is_stable(corpus.cylinder()).statuses == ("stable",)
    assert is_stable(corpus.disc_out()).statuses == ("stable",)
    both = disjoint_union(corpus.closed_surface(0), corpus.free_disc())
    rep = is_stable(both)
    assert rep.statuses == ("unstable", "special")
    assert not rep.all_stable


def test_genus_zero_three_free_circles_not_special():
    comp = ComponentData(0, cycles=(free_circle(), free_circle(), free_circle()))
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
    doc = octype_to_json(corpus.cylinder())
    doc["components"][0]["closed_in"] = ["x", 0]
    with pytest.raises(DomainError):
        octype_from_json(doc)


def test_json_schema_shape():
    d = octype_to_json(corpus.pants_split())
    assert d["schema"] == "segal.octype/1"
    assert d["in"] == {"C": 1, "O": 0, "s": [], "t": []}
    assert d["out"] == {"C": 2, "O": 0, "s": [], "t": []}
    comp = d["components"][0]
    assert comp["genus"] == 0
    assert comp["closed_in"] == [0]
    assert comp["closed_out"] == [0, 1]
    assert comp["cycles"] == []
    assert comp["free_circles"] == []
