"""Cross-check the gluing algebra against an explicit cell complex.

The second route builds one polygon per component, glues matched edges, and
reads connectivity, Euler characteristic and boundary structure off the
complex by counting.  It shares no code with compose_types.
"""

import ast
import dataclasses
import random
from functools import reduce
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import _oracles, corpus
from segal._oracles import glued_summary, octype_summary, single_summary
from segal.cobordism import BoundaryCycle, OCType, compose_types, disjoint_union, validate_type
from segal.errors import SegalError


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
        lambda: corpus.closed_surface(1),
        lambda: corpus.closed_surface(3),
    ],
)
def test_single_types_match_their_complex(builder):
    t = builder()
    assert octype_summary(t) == single_summary(t)


@pytest.mark.parametrize(
    "pair",
    [
        (corpus.disc_out("a"), corpus.disc_in("a")),
        (corpus.strip("a", "b"), corpus.strip("a", "b")),
        (corpus.cylinder(), corpus.cylinder()),
        (corpus.pants_split(), corpus.pants_join()),
        (corpus.pants_join(), corpus.pants_split()),
    ],
)
def test_standard_compositions_match_complex(pair):
    t1, t2 = pair
    assert octype_summary(compose_types(t1, t2)) == glued_summary(t1, t2)


@pytest.mark.parametrize("seed", range(200))
def test_random_compositions_match_complex(seed):
    t1, t2 = corpus.random_composable_pair(seed)
    assert validate_type(t1).ok
    assert validate_type(t2).ok
    out = compose_types(t1, t2)
    assert validate_type(out).ok, validate_type(out).violations
    assert octype_summary(out) == glued_summary(t1, t2)
    glued = t1.out_signature.open_count
    assert out.total_euler() == t1.total_euler() + t2.total_euler() - glued


@pytest.mark.parametrize("seed", range(40))
def test_union_then_compose_matches_componentwise(seed):
    a1, a2 = corpus.random_composable_pair(seed)
    b1, b2 = corpus.random_composable_pair(seed + 1000)
    lhs = compose_types(disjoint_union(a1, b1), disjoint_union(a2, b2))
    rhs = disjoint_union(compose_types(a1, a2), compose_types(b1, b2))
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_large_compositions_match_complex_and_associate(seed, draws):
    """Beyond the acceptance cap: a union of up to three draws has up to 6
    components, 6 closed circles and 9 intervals each way."""
    rng = random.Random(seed)
    t1 = reduce(disjoint_union, [corpus.random_octype(rng) for _ in range(draws)])
    t2 = corpus.random_successor(rng, t1)
    t3 = corpus.random_successor(rng, t2)
    t12, t23 = compose_types(t1, t2), compose_types(t2, t3)
    assert octype_summary(t12) == glued_summary(t1, t2)
    assert octype_summary(t23) == glued_summary(t2, t3)
    assert compose_types(t12, t3) == compose_types(t1, t23)


def _with_component(t: OCType, ci: int, **changes) -> OCType:
    """t with the given fields of component ci replaced."""
    comps = list(t.components)
    comps[ci] = dataclasses.replace(comps[ci], **changes)
    return dataclasses.replace(t, components=tuple(comps))


def _doubled_cycle(t: OCType) -> OCType:
    return _with_component(t, 0, cycles=t.components[0].cycles * 2)


def _doubled_components(t: OCType) -> OCType:
    return dataclasses.replace(t, components=t.components * 2)


# Each rejection a broken OCType can reach.  The complex's two remaining
# checks (a boundary that is not a 1-manifold, a circle traced with extra
# edges) guard its own bookkeeping: once every edge is used at most twice
# with opposite signs, each vertex link is one path or one circle.
REJECTIONS = {
    "interval-on-two-cycles-glued": (
        lambda: glued_summary(_doubled_cycle(corpus.disc_out()), corpus.disc_in()),
        "has 3 occurrences",
    ),
    "interval-on-two-cycles": (
        lambda: single_summary(_doubled_cycle(corpus.disc_out())),
        "glued without reversing orientation",
    ),
    "circle-on-two-components": (
        lambda: single_summary(_doubled_components(corpus.cylinder())),
        "glued without reversing orientation",
    ),
    "labels-disagree-on-an-arc-run": (
        lambda: glued_summary(corpus.strip("a", "a"), corpus.disc_in("b")),
        "arc run with mixed labels",
    ),
    "labels-disagree-on-a-free-circle": (
        lambda: glued_summary(corpus.disc_out("a"), corpus.disc_in("b")),
        "free circle with mixed labels",
    ),
    # t2's incoming circle 1 has no partner and shares its identifier with
    # t1's own incoming circle 1, so the component counts one circle short
    "unpartnered-circle-repeats-an-identifier": (
        lambda: glued_summary(corpus.pants_join(), corpus.pants_join()),
        "admits no genus",
    ),
}


@pytest.mark.parametrize("call, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_oracle_rejects_broken_types(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Broken types built with ``dataclasses.replace`` from a value whose arc
# table a composition has filled: (the break, what makes the value, what
# makes its partner, the side the value takes, the error compose_types
# raises or None).
BROKEN_COMPOSITIONS = {
    "interval-on-two-cycles-out": (_doubled_cycle, corpus.disc_out, corpus.disc_in, 0, None),
    "interval-on-two-cycles-in": (_doubled_cycle, corpus.disc_in, corpus.disc_out, 1, None),
    "circle-on-two-components": (
        _doubled_components,
        corpus.cylinder,
        corpus.cylinder,
        0,
        "glued component has chi=0, n=1: no admissible genus",
    ),
}


def _outcome(call) -> str:
    try:
        return repr(call())
    except SegalError as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("case", BROKEN_COMPOSITIONS)
def test_a_broken_copy_of_a_composed_type_composes_as_a_fresh_one(case):
    """The table a composition kept on a value does not pass to a copy
    that ``dataclasses.replace`` breaks: composing the copy fails, or
    succeeds, exactly as composing the same break of a fresh value."""
    mutate, build, partner, side, error = BROKEN_COMPOSITIONS[case]
    used, other = build(), partner()

    def glue(t: OCType) -> OCType:
        return compose_types(*((t, other) if side == 0 else (other, t)))

    glue(used)
    outcome = _outcome(lambda: glue(mutate(used)))
    assert outcome == _outcome(lambda: glue(mutate(build())))
    if error is not None:
        assert outcome == f"InternalInconsistency: {error}"
    # and the complex rejects the broken copy
    with pytest.raises(ValueError):
        single_summary(mutate(used))


def _bump_genus(t: OCType) -> OCType:
    return _with_component(t, 0, genus=t.components[0].genus + 1)


def _drop_circle(t: OCType) -> Optional[OCType]:
    for ci, comp in enumerate(t.components):
        if comp.closed_out:
            return _with_component(t, ci, closed_out=comp.closed_out - {min(comp.closed_out)})
    return None


def _relabel_arc(t: OCType) -> Optional[OCType]:
    for ci, comp in enumerate(t.components):
        if comp.cycles:
            cyc = BoundaryCycle(comp.cycles[0].entries, ("z",) + comp.cycles[0].free_arc_labels[1:])
            return _with_component(t, ci, cycles=(cyc,) + comp.cycles[1:])
    return None


@pytest.mark.parametrize("mutate", [_bump_genus, _drop_circle, _relabel_arc])
def test_oracle_tells_a_changed_composite_apart(mutate):
    """A composite off by one genus, one closed circle or one arc label no
    longer matches the complex."""
    changed = 0
    for seed in range(200):
        t1, t2 = corpus.random_composable_pair(seed)
        wrong = mutate(compose_types(t1, t2))
        if wrong is not None:
            assert octype_summary(wrong) != glued_summary(t1, t2), seed
            changed += 1
    assert changed >= 50


def test_oracles_import_only_octype_from_the_package():
    """The second route shares nothing with the code it checks."""
    tree = ast.parse(Path(_oracles.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("segal")):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "segal" for alias in node.names)
    assert imported == [("cobordism", "OCType")]
