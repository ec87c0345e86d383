"""Conformal modules of half-plane quadrilaterals.

A quadrilateral is the upper half-plane with four marked boundary points.
A real Moebius map sends the first three to (-1, 0, 1); the fourth lands at
a position x with |x| > 1, possibly wrapped through infinity to the segment
left of -1.  The module is the side-length ratio of the conformally mapped
rectangle, computed from the two bounded period integrals of
1/sqrt(s(s^2-1)(s-x)), which cover both position branches unchanged.
The integrals use QUADPACK's adaptive 21-point Gauss-Kronrod scheme,
written here in plain Python, so this module needs neither numpy nor scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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

    From the gaps a = z1 - z0, b = z2 - z1 and c = z3 - z2 the image is
    (a+b)(b+c) / (b(a+b) + c(b-a)) = (1 + v) / (1 + v t), with v = c/b and
    t = (b-a)/(a+b); where v overflows, or z3 = +inf, it is the same
    quotient divided through by v.  No cross ratio r is formed, so no
    r + 1 rounds to 0 far from the pole.  The image is unchanged by
    scaling, so points whose span overflows are halved first.
    """
    if math.isinf((z3 if math.isfinite(z3) else z2) - z0):
        z0, z1, z2, z3 = (0.5 * z for z in (z0, z1, z2, z3))
    a, b = z1 - z0, z2 - z1
    t = (b - a) / (a + b)
    v = (z3 - z2) / b
    if math.isinf(v):
        u = b / (z3 - z2)
        num, den = 1.0 + u, u + t
    else:
        num, den = 1.0 + v, 1.0 + v * t
    return num / den if den != 0.0 else math.inf


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
    """(z0-z2)(z1-z3) / ((z0-z3)(z1-z2)), with the usual infinity limits.

    Formed as a product of two quotients, each of two differences that
    share an endpoint.  That stays finite where the two products would
    overflow, and neither quotient underflows on a far fourth point.  The
    ratio is unchanged by scaling, so points whose differences overflow are
    halved first.  A ratio that is still not finite raises DegenerateQuad;
    so does halving a subnormal gap to 0, which happens only where the
    ratio overflows.
    """
    zs = (z0, z1, z2, z3)
    if z0 - z3 == 0.0 or z1 - z2 == 0.0:
        raise DegenerateQuad(f"cross ratio of coincident points {zs}")
    finite = [z for z in zs if math.isfinite(z)]
    if finite and math.isinf(max(finite) - min(finite)):
        z0, z1, z2, z3 = (0.5 * z for z in zs)
    try:
        if math.isinf(z3):
            cr = (z0 - z2) / (z1 - z2)
        else:
            cr = ((z0 - z2) / (z1 - z2)) * ((z1 - z3) / (z0 - z3))
    except ZeroDivisionError:
        cr = math.inf
    if not math.isfinite(cr):
        raise DegenerateQuad(f"cross ratio of {zs} is not finite in double precision")
    return cr


# Targets of the period quadrature: absolute and relative error, and the
# most pieces the adaptive bisection may split one half-integral into.
QUAD_EPSABS = 1e-14
QUAD_EPSREL = 1e-11
QUAD_LIMIT = 200

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al. 1983,
# routine qk21): the ten positive Kronrod abscissae, outermost first, and
# their weights.  The odd-indexed abscissae are the 10-point Gauss nodes,
# with weights _WG.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980528854, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# All 21 nodes (centre, then the negative and the positive abscissae) with
# their Kronrod weights and their Gauss weights (0 off the Gauss nodes).
_NODES = (0.0,) + tuple(-t for t in _XGK) + _XGK
_KRONROD = (0.149445554002916905664936468389821,) + _WGK + _WGK
_GAUSS = (0.0,) + 2 * tuple(w for g in _WG for w in (0.0, g))
_EPS = 2.0 ** -52


def _kronrod21(f, lo: float, hi: float) -> tuple[float, float]:
    """21-point Kronrod value of a positive f on [lo < hi], and its error.

    f maps a list of points to the list of its values there.  The error
    estimate is qk21's: the Gauss-Kronrod difference, scaled against the
    spread of f about its mean and floored at 50 ulp of the value (of the
    integral of |f| in qk21, the same thing for a positive f).
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = f([centre + half * t for t in _NODES])
    kronrod = math.fsum(map(operator.mul, _KRONROD, values))
    gauss = math.fsum(map(operator.mul, _GAUSS, values))
    mean = 0.5 * kronrod
    spread = half * math.fsum(map(operator.mul, _KRONROD, [abs(v - mean) for v in values]))
    value = kronrod * half
    err = abs(kronrod - gauss) * half
    if spread != 0.0 and err != 0.0:
        t = 200.0 * err / spread
        err = spread * min(1.0, t * math.sqrt(t))
    return value, max(50.0 * _EPS * value, err)


def _adaptive_kronrod(f, points: Sequence[float]) -> tuple[float, float]:
    """Integral of f from points[0] to points[-1] and its error estimate.

    QUADPACK's global adaptive scheme (qag): apply the 21-point rule to each
    piece between consecutive breakpoints, then bisect the piece with the
    largest error estimate until the summed estimate meets
    max(QUAD_EPSABS, QUAD_EPSREL * |value|) or QUAD_LIMIT pieces exist.
    """
    pieces = [(lo, hi, *_kronrod21(f, lo, hi)) for lo, hi in zip(points, points[1:])]
    while True:
        value = math.fsum(p[2] for p in pieces)
        err = math.fsum(p[3] for p in pieces)
        if err <= max(QUAD_EPSABS, QUAD_EPSREL * abs(value)) or len(pieces) >= QUAD_LIMIT:
            return value, err
        worst = max(pieces, key=lambda p: p[3])
        pieces.remove(worst)
        lo, hi = worst[:2]
        mid = 0.5 * (lo + hi)
        pieces += [(lo, mid, *_kronrod21(f, lo, mid)), (mid, hi, *_kronrod21(f, mid, hi))]


def _side_integral(a: float, b: float, x: float) -> float:
    """Integral of 1/sqrt|s(s^2-1)(s-x)| over [a, b], both endpoints roots.

    Each half is written in u with s = e + sign*u^2 for its endpoint e, so
    that the factor s - e is exactly sign*u^2 and cancels against
    ds = 2u du: the half-integrand is 2/sqrt|prod (e - r + sign*u^2)| over
    the three other roots r.  No factor is a difference that can round to
    zero, and only +, -, *, /, sqrt and fsum are used, so the digits do not
    depend on the platform's libm.  The x factor has its own sqrt, so the
    product cannot overflow for any finite x.  Next to x the integrand peaks
    over a width sqrt(d), d = |e - x|, so that half is split at sqrt(d) * 2^j.
    """
    top = math.sqrt(0.5 * (b - a))
    total = 0.0
    for e, sign in ((a, 1.0), (b, -1.0)):
        c1, c2 = (e - r for r in (-1.0, 0.0, 1.0) if r != e)
        cx = e - x

        def g(us, c1=c1, c2=c2, cx=cx, sign=sign):
            vs = [sign * (u * u) for u in us]
            return [
                2.0 / (math.sqrt(abs((c1 + v) * (c2 + v))) * math.sqrt(abs(cx + v)))
                for v in vs
            ]

        points = [0.0]
        split = math.sqrt(abs(cx))
        while split < top:
            points.append(split)
            split *= 2.0
        points.append(top)
        val, err = _adaptive_kronrod(g, points)
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
    return -x


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
        module_rect(K * a, 1.0) / module_rect(a, 1.0) for a in DEFAULT_RECT_ASPECTS
    )
    return GeometricQCReport(K, quad_ratios, rect_ratios, slack)
