"""Build surface types from small pieces and compose them.

Walks through the type monoid: validation, splice composition along
matching boundaries, disjoint union, and the canonical form that makes
equality decidable.
"""

import random

from segal import (
    ComponentData,
    ObjectSignature,
    OCType,
    compose_types,
    disjoint_union,
    is_stable,
    validate_type,
)
from segal.corpus import example, random_octype, random_successor


def cap(direction):
    """Disc closing off one closed circle, incoming or outgoing."""
    kw = {"closed_in" if direction == "in" else "closed_out": frozenset({0})}
    sig = ObjectSignature(1, 0)
    empty = ObjectSignature(0, 0)
    comp = ComponentData(genus=0, **kw)
    if direction == "in":
        return OCType((comp,), sig, empty)
    return OCType((comp,), empty, sig)


def describe(name, t):
    print(f"{name}: {len(t.components)} component(s), "
          f"in {t.in_signature.describe()}, out {t.out_signature.describe()}")


def main():
    split, join = example("pants_split"), example("pants_join")
    describe("pants (1 -> 2)", split)
    describe("pants (2 -> 1)", join)

    # splicing the two pants gives a genus-1 piece with one in, one out
    handle = compose_types(split, join)
    describe("spliced handle", handle)
    print(f"genus after splice: {handle.components[0].genus}")
    print()

    # a cylinder acts as the identity on a single closed boundary
    tube = example("cylinder")
    left = compose_types(tube, handle)
    right = compose_types(handle, tube)
    print(f"cylinder absorbs on either side: {left == handle and right == handle}")

    # cap both ends: every boundary is used up
    closed = compose_types(cap("out"), compose_types(handle, cap("in")))
    describe("capped handle", closed)
    print(f"valid: {validate_type(closed).ok}")
    print(f"stability: {is_stable(closed).statuses}")
    print()

    # composition order does not matter when all three splices match
    rng = random.Random(11)
    t1 = random_octype(rng)
    t2 = random_successor(rng, t1)
    t3 = random_successor(rng, t2)
    lhs = compose_types(compose_types(t1, t2), t3)
    rhs = compose_types(t1, compose_types(t2, t3))
    print(f"random triple associates: {lhs == rhs}")

    both = disjoint_union(t1, t2)
    print(f"union component count: {len(both.components)} "
          f"= {len(t1.components)} + {len(t2.components)}")


if __name__ == "__main__":
    main()
