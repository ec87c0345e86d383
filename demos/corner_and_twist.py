"""Boundary profiles, corner maps, and annulus twists.

Two constructions extend circle maps into the plane.  The corner map
stretches radially by a square root and follows a half-angle profile in
the angular direction; its distortion comes straight off the profile
derivative.  The twist extends a circle map to an annulus so that it
restricts to the map on the inner rim and the identity on the outer.
"""

import cmath

from segal import (
    circle_rotation,
    corner_dilatation,
    corner_transform,
    half_angle_piecewise,
    half_angle_smooth,
    qs_bound,
    sampled_exp,
    sampled_slope_break,
    smooth_twist,
)


def main():
    for name, phi in (("piecewise", half_angle_piecewise()),
                      ("smooth", half_angle_smooth())):
        lo, hi = phi.derivative_range()
        k = corner_dilatation(phi)
        print(f"{name} profile: derivative in [{lo:.3f}, {hi:.3f}], K = {k}")
    print()

    phi = half_angle_piecewise()
    sigma = corner_transform(phi)
    print("corner map on three rim points:")
    for t in (0.0, 0.5, 1.0):
        z = sigma(cmath.exp(1j * cmath.pi * t))
        print(f"  {z.real:+.6f} {z.imag:+.6f}j")
    print()

    # circle-line comparison: quasisymmetry constants of boundary data
    print(f"slope-break bound: {qs_bound(sampled_slope_break(2.0))}")
    print(f"exponential-window bound: {qs_bound(sampled_exp(1.0)):.9f}")
    print()

    # a rotation twists rigidly; the report says so exactly
    _, rigid = smooth_twist(circle_rotation(0.7), 1.0, 2.0)
    print(f"rotation: rigid={rigid.rigid_rotation}, "
          f"rim deviations {rigid.inner_max_dev}, {rigid.outer_max_dev}")

    _, rep = smooth_twist(half_angle_smooth(), 1.0, 2.0)
    print(f"smooth profile: rigid={rep.rigid_rotation}, "
          f"min Jacobian {rep.min_jacobian:.4f}, "
          f"endpoint flatness {rep.endpoint_flatness:.2e}")


if __name__ == "__main__":
    main()
