"""Quasisymmetry bounds, the corner-introducing radial map, and the smooth
annulus twist.

Circle maps are handled through lifts: a map of the unit circle is the
function theta -> psi(theta) on [0, 2pi] with psi(2pi) = psi(0) + 2pi and
positive derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from . import _FirstUseNumpy
from ._input import abs_or_inf, integer
from .errors import DomainError, InvalidPhi, JacobianDegenerate, NonMonotone

np = _FirstUseNumpy(globals())

TWO_PI = 2.0 * math.pi
_FD_H = 1e-6  # central-difference step of TwistMap.angle_derivative


# ---------------------------------------------------------------------------
# sampled increasing functions and the symmetric-ratio bound


@dataclass(frozen=True)
class SampledIncreasingFunction:
    """Strictly increasing samples (xs[i], ys[i]), at least three of them."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))
        object.__setattr__(self, "ys", tuple(float(y) for y in self.ys))
        if len(self.xs) != len(self.ys):
            raise NonMonotone("sample lists differ in length")
        if len(self.xs) < 3:
            raise NonMonotone("need at least three samples")
        for name, vals in (("xs", self.xs), ("ys", self.ys)):
            if any(not a < b for a, b in zip(vals, vals[1:])):
                raise NonMonotone(f"{name} not strictly increasing")
            if not math.isfinite(vals[-1] - vals[0]):
                raise NonMonotone(f"{name} not finite")

    @classmethod
    def from_callable(
        cls, f: Callable[[float], float], lo: float, hi: float, n: int
    ) -> "SampledIncreasingFunction":
        n = integer(n, "sample count", 1)
        xs = [lo + (hi - lo) * j / n for j in range(n + 1)]
        return cls(tuple(xs), tuple(f(x) for x in xs))

    def inverted(self) -> "SampledIncreasingFunction":
        return SampledIncreasingFunction(self.ys, self.xs)


def qs_bound(h: SampledIncreasingFunction) -> float:
    """Largest symmetric difference-ratio distortion over sampled triples.

    Scans every triple (x - t, x, x + t) whose three points all lie in the
    sample grid and returns max(rho, 1/rho) over the ratios
    rho = (h(x+t) - h(x)) / (h(x) - h(x-t)).  A certified lower bound for
    the true distortion, which is a supremum over a continuum.

    One vectorized pass per centre x = xs[i]: the targets x - t for every
    sample x + t to its right are matched against the grid by a sorted
    search, within 1e-9 of the span.  A target that resolves to the centre
    itself (two samples closer than the tolerance) is not a triple.
    """
    xs, ys = np.asarray(h.xs), np.asarray(h.ys)
    tol = 1e-9 * (xs[-1] - xs[0])
    k = 1.0
    for i in range(1, len(xs) - 1):
        targets = xs[i] - (xs[i + 1 :] - xs[i])
        js = np.flatnonzero(targets >= xs[0] - tol)
        targets = targets[js]
        js += i + 1
        m = np.searchsorted(xs, targets - tol)
        # targets never exceed xs[i], so m <= i; m == i is the centre itself
        hit = (m < i) & (np.abs(xs[m] - targets) <= tol)
        if hit.any():
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    rho = (ys[js[hit]] - ys[i]) / (ys[i] - ys[m[hit]])
                    k = max(k, float(rho.max()), float((1.0 / rho).max()))
            except FloatingPointError:
                raise DomainError(
                    f"a symmetric ratio about x={float(xs[i])!r} overflows double precision"
                ) from None
    return k


def sampled_identity(n: int = 256) -> SampledIncreasingFunction:
    return SampledIncreasingFunction.from_callable(lambda x: x, 0.0, 1.0, n)


def sampled_slope_break(k: float, n: int = 256) -> SampledIncreasingFunction:
    """h(x) = x for x <= 0 and k*x for x > 0, sampled on a symmetric grid."""
    if not 0 < k < math.inf:
        raise NonMonotone("slope must be positive")
    n = integer(n, "sample count", 1)
    xs = [j / n for j in range(-n, n + 1)]
    ys = [x if x <= 0 else k * x for x in xs]
    return SampledIncreasingFunction(tuple(xs), tuple(ys))


def sampled_exp(t_max: float = 1.0, n: int = 256) -> SampledIncreasingFunction:
    """exp sampled on [-t_max, t_max].  A window size whose grid or exp
    overflows a float is too large, whatever its sign; any other must be
    positive."""
    n = integer(n, "sample count", 1)
    too_large = f"window size {t_max!r} is too large: exp overflows a float"
    xs = [-t_max + 2.0 * t_max * j / (2 * n) for j in range(2 * n + 1)]
    try:
        ys = [math.exp(x) for x in xs]
    except OverflowError:
        raise DomainError(too_large)
    if not t_max > 0:
        raise DomainError(f"window size must be positive, got {t_max!r}")
    # a grid point that overflowed (at 2 * t_max * j) is inf or nan, and so is its exp
    if not math.isfinite(ys[-1]):
        raise DomainError(too_large)
    return SampledIncreasingFunction(tuple(xs), tuple(ys))


# ---------------------------------------------------------------------------
# circle diffeomorphisms


def _point_modulus(z: complex) -> float:
    """|z| of a point the corner map acts on, which must be finite."""
    if not cmath.isfinite(z):
        raise DomainError(f"point {z!r} is not finite")
    r = abs_or_inf(z)
    if r == math.inf:
        raise DomainError(f"point {z!r} has modulus too large for double precision")
    return r


@dataclass(frozen=True)
class CircleDiffeo:
    """Orientation-preserving circle map given by a lift psi and exact bounds
    deriv_min <= psi' <= deriv_max on its derivative."""

    psi: Callable[[float], float]
    deriv_min: float
    deriv_max: float

    def __post_init__(self):
        winding = self.psi(TWO_PI) - self.psi(0.0)
        if not abs(winding - TWO_PI) <= 1e-9:
            raise InvalidPhi(f"lift advances by {winding:.12g}, expected 2*pi")
        lo, hi = self.deriv_min, self.deriv_max
        if not 0.0 < lo <= hi < math.inf:
            raise InvalidPhi(f"derivative range [{lo:.6g}, {hi:.6g}] is not positive and finite")

    def angle(self, theta: float) -> float:
        """Lift evaluated with 2*pi-periodic extension."""
        if not math.isfinite(theta):
            raise DomainError(f"angle {theta!r} is not finite")
        k = math.floor(theta / TWO_PI)
        return self.psi(theta - k * TWO_PI) + k * TWO_PI


def circle_identity() -> CircleDiffeo:
    return CircleDiffeo(lambda t: t, 1.0, 1.0)


def circle_rotation(delta: float) -> CircleDiffeo:
    if not math.isfinite(delta):
        raise DomainError(f"rotation angle must be finite, got {delta!r}")
    return CircleDiffeo(lambda t: t + delta, 1.0, 1.0)


def half_angle_piecewise() -> CircleDiffeo:
    """Half-speed on the upper semicircle, catching up below.

    Slopes: 1/2 on [0, pi], 1 on [pi, 3pi/2], 2 on [3pi/2, 2pi].  The total
    advance is 2*pi and the map restricted above equals the half-angle map.
    """

    def psi(t: float) -> float:
        if t <= math.pi:
            return 0.5 * t
        if t <= 1.5 * math.pi:
            return 0.5 * math.pi + (t - math.pi)
        return math.pi + 2.0 * (t - 1.5 * math.pi)

    return CircleDiffeo(psi, 0.5, 2.0)


def half_angle_smooth() -> CircleDiffeo:
    """Half-angle above, completed below by slope 3/2 - cos(2 theta).

    The completion joins the half-angle arc twice continuously
    differentiably and advances by 3*pi/2 over the lower semicircle.
    """

    def psi(t: float) -> float:
        if t <= math.pi:
            return 0.5 * t
        return 0.5 * math.pi + 1.5 * (t - math.pi) - 0.5 * math.sin(2.0 * t)

    return CircleDiffeo(psi, 0.5, 2.5)


# ---------------------------------------------------------------------------
# corner map


def _check_half_angle_above(phi: CircleDiffeo) -> None:
    step = math.pi / 256
    for theta in [*(j * step for j in range(256)), math.pi]:
        if not abs(phi.psi(theta) - 0.5 * theta) <= 1e-9:
            raise InvalidPhi(
                f"upper-semicircle restriction differs from the half-angle map "
                f"at theta={theta:.6g}"
            )


def corner_transform(phi: CircleDiffeo) -> Callable[[complex], complex]:
    """The radial map z = r e^{i theta} -> sqrt(r) e^{i psi(theta)}."""
    _check_half_angle_above(phi)

    def sigma(z: complex) -> complex:
        r = _point_modulus(z)
        if r == 0.0:
            return 0.0
        theta = cmath.phase(z) % TWO_PI
        return math.sqrt(r) * cmath.exp(1j * phi.angle(theta))

    return sigma


def corner_dilatation(phi: CircleDiffeo) -> float:
    """Maximal distortion of the corner transform.

    In the orthonormal polar frames the radial stretch is 1/(2 sqrt(r)) and
    the tangential stretch psi'(theta)/sqrt(r), so the pointwise distortion
    is max(2 psi', 1/(2 psi')), independent of r.
    """
    return max(2.0 * phi.deriv_max, 1.0 / (2.0 * phi.deriv_min))


# ---------------------------------------------------------------------------
# smooth twist


def bump(t: float) -> float:
    """Smooth monotone [0,1] -> [0,1] with all derivatives zero at the ends."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"bump argument {t} outside [0, 1]")

    def f(s: float) -> float:
        return math.exp(-1.0 / s) if s > 0.0 else 0.0

    a = f(t)
    return a / (a + f(1.0 - t))


@dataclass(frozen=True)
class TwistMap:
    """Annulus self-map (r, theta) -> (r, angle(r, theta)).

    Interpolates the circle map at r = r1 to the identity at r = r2 along a
    path that is flat in r at both ends.  When the map does not fix the
    basepoint the path first unwinds the basepoint phase, then interpolates
    the recentred lifts.
    """

    phi: CircleDiffeo
    r1: float
    r2: float
    phase: float

    def _stage(self, r: float) -> float:
        if not self.r1 <= r <= self.r2:
            raise DomainError(f"radius {r} outside [{self.r1}, {self.r2}]")
        return (r - self.r1) / (self.r2 - self.r1)

    def angle(self, r: float, theta: float) -> float:
        t = self._stage(r)
        if t <= 0.5:
            return self.phi.angle(theta) - self.phase * bump(2.0 * t)
        s = bump(2.0 * t - 1.0)
        recentred = self.phi.angle(theta) - self.phase
        return (1.0 - s) * recentred + s * theta

    def angle_derivative(self, r: float, theta: float) -> float:
        return (self.angle(r, theta + _FD_H) - self.angle(r, theta - _FD_H)) / (2.0 * _FD_H)

    def __call__(self, z: complex) -> complex:
        r = abs_or_inf(z)
        theta = cmath.phase(z) % TWO_PI
        return r * cmath.exp(1j * self.angle(r, theta))


@dataclass(frozen=True)
class TwistReport:
    inner_max_dev: float
    outer_max_dev: float
    min_jacobian: float
    endpoint_flatness: float
    rigid_rotation: bool
    phase: float


def smooth_twist(phi: CircleDiffeo, r1: float, r2: float) -> tuple[TwistMap, TwistReport]:
    """The twist of the annulus r1 <= |z| <= r2, checked on 64 angles and 33 radii."""
    for name, r in (("r1", r1), ("r2", r2)):
        if not math.isfinite(r):
            raise DomainError(f"twist radius {name} must be finite, got {r!r}")
    if not 0.0 < r1 < r2:
        raise DomainError("need 0 < r1 < r2")
    phase = phi.psi(0.0)
    twist = TwistMap(phi, r1, r2, phase)

    thetas = [TWO_PI * j / 64 for j in range(64)]
    radii = [r1 + (r2 - r1) * (i / 32) for i in range(33)]

    # Compared at the angle level: the complex round trip through phase
    # recovery costs an ulp and the rim agreement is meant to be exact.
    inner = max(abs(twist.angle(r1, t) - phi.angle(t)) for t in thetas)
    outer = max(abs(twist.angle(r2, t) - t) for t in thetas)

    min_jac = math.inf
    for r in radii:
        for t in thetas:
            d = twist.angle_derivative(r, t)
            min_jac = min(min_jac, d)
    if min_jac <= 0.0:
        raise JacobianDegenerate(f"sampled angular derivative reaches {min_jac:.6g}")

    # Rate of change in r near both rims; flat interpolation makes it tiny.
    dr = 1e-3 * (r2 - r1)
    flat = 0.0
    for t in thetas:
        flat = max(flat, abs(twist.angle(r1 + dr, t) - twist.angle(r1, t)) / dr)
        flat = max(flat, abs(twist.angle(r2, t) - twist.angle(r2 - dr, t)) / dr)

    recentred_dev = max(abs(phi.psi(float(t)) - phase - float(t)) for t in thetas)
    rigid = recentred_dev <= 1e-12

    report = TwistReport(
        inner_max_dev=inner,
        outer_max_dev=outer,
        min_jacobian=min_jac,
        endpoint_flatness=flat,
        rigid_rotation=rigid,
        phase=phase,
    )
    return twist, report
