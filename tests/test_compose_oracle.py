"""Cross-check the gluing algebra against an explicit cell complex.

The second route builds one polygon per component, glues matched edges, and
reads connectivity, Euler characteristic and boundary structure off the
complex by counting.  It shares no code with compose_types.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import corpus
from segal._oracles import glued_summary, octype_summary, single_summary
from segal.cobordism import compose_types, disjoint_union, validate_type


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
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(0, 6),
)
def test_large_compositions_match_complex_and_associate(seed, components, genus, closed, open_):
    """Beyond the acceptance cap: up to 4 components, genus 3, 4 closed, 6 open."""
    rng = random.Random(seed)
    t1 = corpus.random_octype(rng, components, genus, closed, open_)
    t2 = corpus.random_successor(rng, t1)
    t3 = corpus.random_successor(rng, t2)
    t12, t23 = compose_types(t1, t2), compose_types(t2, t3)
    assert octype_summary(t12) == glued_summary(t1, t2)
    assert octype_summary(t23) == glued_summary(t2, t3)
    assert compose_types(t12, t3) == compose_types(t1, t23)
