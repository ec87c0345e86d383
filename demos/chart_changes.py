"""Dilatation data under chart changes.

A dilatation value mu lives in the open unit disc.  Changing charts
moves it by a disc automorphism, which preserves the hyperbolic metric;
the same rule applied nodewise moves whole sampled fields.
"""

import cmath
import random

from segal import (
    acs_from_mu,
    dilatation_K,
    field_distance,
    mu_from_acs,
    sew_sections,
    teichmuller_distance,
    transform_mu,
)
from segal.corpus import random_field, random_mu


def main():
    rng = random.Random(2)

    mu = 0.3 + 0.2j
    print(f"mu = {mu}, K = {dilatation_K(mu):.6f}")
    j = acs_from_mu(mu)
    print(f"structure matrix row 1: ({j.j11:+.6f}, {j.j12:+.6f})")
    print(f"round trip through the matrix: {mu_from_acs(j)}")
    print()

    # the fiber action is an isometry: distances survive any chart change
    mu1, mu2 = random_mu(rng, 0.9), random_mu(rng, 0.9)
    d_before = teichmuller_distance(mu1, mu2)
    mu_f = random_mu(rng, 0.7)
    fz = cmath.exp(2j * cmath.pi * rng.random())
    moved1 = transform_mu(mu1, mu_f, fz, mu_f * fz)
    moved2 = transform_mu(mu2, mu_f, fz, mu_f * fz)
    d_after = teichmuller_distance(moved1, moved2)
    print(f"distance before chart change: {d_before:.12f}")
    print(f"distance after chart change:  {d_after:.12f}")
    print(f"difference: {abs(d_after - d_before):.3e}")
    print()

    # sewing two fields along an edge: the distance of the joined fields
    # is the larger of the two component distances, exactly
    a, a2 = (random_field(rng, 0.0, 1.0, 0.0, 1.0, 6, 4) for _ in range(2))
    b, b2 = (random_field(rng, 1.0, 2.0, 0.0, 1.0, 6, 4) for _ in range(2))
    joined = field_distance(sew_sections(a, b, "x"), sew_sections(a2, b2, "x"))
    parts = max(field_distance(a, a2), field_distance(b, b2))
    print(f"distance of sewn fields:     {joined:.12f}")
    print(f"max of component distances:  {parts:.12f}")
    print(f"sewing is an isometry: {joined == parts}")


if __name__ == "__main__":
    main()
