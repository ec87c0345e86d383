"""Flattening boundary structure fields, one order at a time.

A gluing map along the boundary line induces a structure field on the
upper strip.  Straightening its integral curves and repeating the
construction produces fields that hug the vertical unit field to ever
higher order in the boundary distance; the order pairs follow an
integer recursion that roughly doubles each step.
"""

import numpy as np

from segal import (
    INFINITE,
    base_structure_field,
    flatten_step,
    glue_sine,
    next_structure_field,
    order_sequence,
    tau_minus1,
    verify_orders,
)


def fmt(v):
    return "inf" if v == INFINITE else f"{v:.3f}"


def main():
    print("order recursion (m = first component, n = second minus 1):")
    for k, pair in enumerate(order_sequence(8)):
        print(f"  step {k}: m={fmt(pair.m)} n={fmt(pair.n)}")
    print()

    g = glue_sine(0.1)
    print("measured vanishing orders for the sine gluing:")
    report = verify_orders(g, k_max=1)
    for fit in report.fits:
        print(f"  level {fit.k}: fitted ({fmt(fit.fitted_m)}, {fmt(fit.fitted_n)}) "
              f"predicted ({fit.predicted.m}, {fit.predicted.n}) ok={fit.ok}")
    print()

    # one flattening step in full: integrate curves, invert the grid
    field = next_structure_field(base_structure_field(g))
    chart = flatten_step(field)
    rep = chart.report
    print(f"boundary row deviation: {rep.boundary_max_dev}")
    print(f"minimum grid Jacobian: {rep.min_jacobian:.6f}")
    print(f"pushforward deviation: {rep.pushforward_max_dev:.3e}")
    print(f"certified rectangle: x in [{rep.x_valid[0]:.3f}, {rep.x_valid[1]:.3f}], "
          f"y in [{rep.y_valid[0]:.3f}, {rep.y_valid[1]:.3f}]")

    # the inverse really inverts: push a point forward, pull it back
    i, j = 40, 48
    u, v = chart.forward(i, j)
    x, t = chart.delta(u, v)
    print(f"round trip through the chart: ({chart.xs[i]:.6f}, {chart.ts[j]:.6f}) "
          f"-> ({x:.6f}, {t:.6f})")
    print()

    # the boundary chart agrees with the gluing data itself
    xs = np.linspace(-1.0, 1.0, 3)
    taus = tau_minus1(g, [(x, 0.0) for x in xs])
    for x, (tx, ty) in zip(xs, taus):
        print(f"tau({x:+.1f}, 0) = ({tx:+.6f}, {ty:.1f})")


if __name__ == "__main__":
    main()
