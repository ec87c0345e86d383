"""Conformal modules of half-plane quadrilaterals.

A quadrilateral is the upper half-plane with four marked boundary points.
A real Moebius map sends the first three to (-1, 0, 1); the fourth lands at
a position x with |x| > 1, possibly wrapped through infinity to the segment
left of -1.  The module is the side-length ratio of the conformally mapped
rectangle, computed from the two bounded period integrals of
1/sqrt(s(s^2-1)(s-x)), which cover both position branches unchanged.
scipy's adaptive quadrature is imported on the first module computation,
not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateQuad, DomainError, QuadratureFailure

POSITION_EDGE = 1e-9


@dataclass(frozen=True)
class QuadrilateralSpec:
    """Marked points z0 < z1 < z2 < z3 on the real line; z3 may be +inf."""

    z0: float
    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        zs = (self.z0, self.z1, self.z2, self.z3)
        for i, z in enumerate(zs):
            if math.isnan(z):
                raise DegenerateQuad("marked point is NaN")
            if math.isinf(z) and (i < 3 or z < 0):
                raise DegenerateQuad("only the last marked point may be +inf")
        for a, b in zip(zs, zs[1:]):
            if not a < b:
                raise DegenerateQuad(f"marked points must increase: {a} !< {b}")
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b) if math.isfinite(b) else 1.0):
                raise DegenerateQuad(f"marked points {a} and {b} nearly coincide")

    @property
    def vertices(self) -> tuple[float, float, float, float]:
        return (self.z0, self.z1, self.z2, self.z3)

    def scaled(self, factor: float) -> "QuadrilateralSpec":
        """Image under the horizontal stretch (x, y) -> (factor*x, y)."""
        if factor <= 0:
            raise DomainError("stretch factor must be positive")
        return QuadrilateralSpec(*(z * factor for z in self.vertices))


def _position(z0: float, z1: float, z2: float, z3: float) -> float:
    """Image of z3 under the Moebius map sending (z0, z1, z2) to (-1, 0, 1).

    Composes R: (z0,z1,z2) -> (0,1,inf) with W(u) = (u-1)/(u+1).
    """
    if math.isinf(z3):
        r = (z1 - z2) / (z1 - z0)
    else:
        r_num = (z3 - z0) * (z1 - z2)
        r_den = (z3 - z2) * (z1 - z0)
        if r_den == 0.0:
            return math.inf
        r = r_num / r_den
    if r == -1.0:
        return math.inf
    return (r - 1.0) / (r + 1.0)


def normalize_quad(q: QuadrilateralSpec) -> float:
    """Normalized position of the fourth marked point.

    Ordered quadruples always land outside [-1, 1]: beyond 1 directly, or
    left of -1 when the image wraps through infinity.
    """
    x = _position(*q.vertices)
    if math.isfinite(x) and abs(x) <= 1.0 + POSITION_EDGE:
        raise DegenerateQuad(f"normalized position {x} degenerately close to [-1, 1]")
    return x


def cross_ratio(z0: float, z1: float, z2: float, z3: float) -> float:
    """(z0-z2)(z1-z3) / ((z0-z3)(z1-z2)), with the usual infinity limits."""
    if math.isinf(z3):
        return (z0 - z2) / (z1 - z2)
    return ((z0 - z2) * (z1 - z3)) / ((z0 - z3) * (z1 - z2))


def _integrand(s: float, x: float) -> float:
    p = abs(s * (s - 1.0) * (s + 1.0) * (s - x))
    return 1.0 / math.sqrt(p)


def _side_integral(a: float, b: float, x: float) -> float:
    """Integral of the period integrand over [a, b], both endpoints roots.

    The substitution s = endpoint +- u^2 flattens the inverse-square-root
    singularities; each half is then smooth for adaptive quadrature.
    """
    from scipy.integrate import quad

    m = 0.5 * (a + b)
    total = 0.0
    for g, top in (
        (lambda u: 2.0 * u * _integrand(a + u * u, x), math.sqrt(m - a)),
        (lambda u: 2.0 * u * _integrand(b - u * u, x), math.sqrt(b - m)),
    ):
        val, err = quad(g, 0.0, top, epsabs=1e-14, epsrel=1e-11, limit=200)
        if err > 1e-8 * max(abs(val), 1e-6):
            raise QuadratureFailure(
                f"period integral on [{a}, {b}] converged only to {err:.3g}"
            )
        total += val
    return total


def module_sc(x: float) -> float:
    """Module of the normalized quadrilateral at position x, |x| > 1.

    Ratio of the (-1,0) period to the (0,1) period.  The same two integrals
    serve the wrapped branch x < -1; at x = +-inf the integrals coincide by
    the s -> -s symmetry and the module is exactly 1.
    """
    if math.isnan(x):
        raise DomainError("position is NaN")
    if math.isinf(x):
        return 1.0
    if abs(x) <= 1.0 + POSITION_EDGE:
        raise DomainError(f"position {x} must satisfy |x| > 1")
    return _side_integral(-1.0, 0.0, x) / _side_integral(0.0, 1.0, x)


def rotated_position(x: float) -> float:
    """Normalized position after advancing the marking by one vertex.

    Rotating (-1, 0, 1, x) to (0, 1, x, -1) and renormalizing lands the
    fourth point at exactly -x, which inverts the module.
    """
    if math.isinf(x):
        return math.inf
    return _position(0.0, 1.0, x, -1.0)


def module_rect(a: float, b: float) -> float:
    """Module of the rectangle with marked corners (0, a, a+ib, ib)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"rectangle sides {a} and {b} must be finite")
    if a <= 0 or b <= 0:
        raise DomainError("rectangle sides must be positive")
    return a / b


def module_of_quad(q: QuadrilateralSpec) -> float:
    return module_sc(normalize_quad(q))


DEFAULT_RECT_ASPECTS: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)


@dataclass(frozen=True)
class GeometricQCReport:
    """Module ratios observed under the horizontal stretch (x,y)->(Kx,y)."""

    K: float
    quad_ratios: tuple[float, ...]
    rect_ratios: tuple[float, ...]
    slack: float

    @property
    def max_ratio(self) -> float:
        return max(max(self.quad_ratios, default=0.0), max(self.rect_ratios, default=0.0))

    @property
    def min_ratio(self) -> float:
        vals = self.quad_ratios + self.rect_ratios
        return min(vals) if vals else 0.0

    @property
    def within_bounds(self) -> bool:
        lo = 1.0 / self.K - self.slack
        hi = self.K + self.slack
        return all(lo <= r <= hi for r in self.quad_ratios + self.rect_ratios)


def check_geometric_qc(
    K: float,
    quads: Sequence[QuadrilateralSpec],
    rect_aspects: Sequence[float] = DEFAULT_RECT_ASPECTS,
    slack: float = 1e-6,
) -> GeometricQCReport:
    """Distortion of modules under the horizontal stretch by K.

    Half-plane quadrilaterals see the stretch as a boundary dilation, so
    their ratios sit at 1; rectangles realize the full factor K, which is
    where the two-sided bound becomes sharp.
    """
    if not (math.isfinite(K) and math.isfinite(slack)):
        raise DomainError(f"distortion factor {K} and slack {slack} must be finite")
    if K < 1.0:
        raise DomainError("distortion factor must be >= 1")
    quad_ratios = tuple(
        module_of_quad(q.scaled(K)) / module_of_quad(q) for q in quads
    )
    rect_ratios = tuple(
        module_rect(K * a, 1.0) / module_rect(a, 1.0) for a in rect_aspects
    )
    return GeometricQCReport(K, quad_ratios, rect_ratios, slack)
