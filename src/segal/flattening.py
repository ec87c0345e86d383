"""Boundary-strip flattening: the integer order recursion and a desk-scale
numeric construction of the first flattening maps.

Two half-planes glued along the real line by an increasing map induce a
complex structure on a boundary strip.  Applying the structure to the unit
horizontal vector gives a field of the form (O(y^m), 1 + O(y^n)); each
flattening step straightens the integral curves of that field to vertical
lines, improving the pair (m, n).  The recursion on (m, n) is exact integer
bookkeeping; the maps themselves are built numerically on a grid.  scipy's
ODE solver and splines are imported on the first flattening step, not with
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    CurveEscape,
    DomainError,
    InternalInconsistency,
    InversionFailure,
    NonMonotone,
    OutOfWindow,
)

INFINITE = math.inf


# ---------------------------------------------------------------------------
# the order recursion


@dataclass(frozen=True)
class OrderPair:
    """Vanishing orders (m, n) of the structure field minus the vertical unit.

    First component vanishes to order m (infinite means identically zero),
    second component minus one vanishes to order n.
    """

    m: float
    n: int

    def __post_init__(self):
        if self.m != INFINITE:
            if self.m != int(self.m) or self.m < 1:
                raise InternalInconsistency("m must be a positive integer or infinite")
            object.__setattr__(self, "m", int(self.m))
        if self.n < 0 or self.n != int(self.n):
            raise InternalInconsistency("n must be a non-negative integer")
        object.__setattr__(self, "n", int(self.n))

    @property
    def min_order(self) -> float:
        return min(self.m, self.n)


def order_step(p: OrderPair) -> OrderPair:
    """One flattening step: (m, n) -> (n + 1, min(2n + 2, m + 1))."""
    return OrderPair(p.n + 1, int(min(2 * p.n + 2, p.m + 1)))


def order_sequence(k: int) -> list[OrderPair]:
    """Orders of the first k+1 structure fields, starting from (inf, 0)."""
    if k < 0:
        raise DomainError("k must be non-negative")
    out = [OrderPair(INFINITE, 0)]
    for _ in range(k):
        out.append(order_step(out[-1]))
    return out


# ---------------------------------------------------------------------------
# glue maps


@dataclass(frozen=True)
class BoundaryGlueMap:
    """Increasing smooth reparametrization of the boundary line.

    The second derivative is optional; it is needed only by closed-form
    cross-checks, not by the numeric pipeline.  All callables must accept
    numpy arrays.
    """

    rho: Callable
    drho: Callable
    d2rho: Optional[Callable] = None
    x_lo: float = -1.5
    x_hi: float = 1.5
    y_max: float = 1.0

    def __post_init__(self):
        if not -math.inf < self.x_lo < self.x_hi < math.inf:
            raise DomainError("window is empty or not finite")
        if not 0 < self.y_max < math.inf:
            raise DomainError("y_max must be positive and finite")
        xs = np.linspace(self.x_lo, self.x_hi, 512)
        dv = np.asarray(self.drho(xs), dtype=float)
        if not 1e-6 < dv.min() <= dv.max() < math.inf:
            raise NonMonotone(f"derivative reaches {dv.min():.3g}")
        vals = np.asarray(self.rho(xs), dtype=float)
        if not np.all(np.diff(vals) > 0) or not np.isfinite(vals).all():
            raise NonMonotone("sampled values not strictly increasing")

    @property
    def window(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)

    def derivative_floor(self) -> float:
        xs = np.linspace(self.x_lo, self.x_hi, 512)
        return float(np.min(self.drho(xs)))


def glue_identity(**kw) -> BoundaryGlueMap:
    return BoundaryGlueMap(
        rho=lambda x: np.asarray(x, dtype=float) + 0.0,
        drho=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d2rho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        **kw,
    )


def glue_linear(k: float, **kw) -> BoundaryGlueMap:
    if not 0 < k < math.inf:
        raise NonMonotone("slope must be positive")
    return BoundaryGlueMap(
        rho=lambda x: k * np.asarray(x, dtype=float),
        drho=lambda x: np.full_like(np.asarray(x, dtype=float), k),
        d2rho=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        **kw,
    )


def glue_sine(amplitude: float = 0.1, **kw) -> BoundaryGlueMap:
    a = float(amplitude)
    if not abs(a) < 1.0:
        raise NonMonotone("amplitude must have magnitude below 1")
    return BoundaryGlueMap(
        rho=lambda x: np.asarray(x, dtype=float) + a * np.sin(np.asarray(x, dtype=float)),
        drho=lambda x: 1.0 + a * np.cos(np.asarray(x, dtype=float)),
        d2rho=lambda x: -a * np.sin(np.asarray(x, dtype=float)),
        **kw,
    )


def tau_minus1(g: BoundaryGlueMap, points: Sequence) -> list[tuple[float, float]]:
    """Horizontal reparametrization (x, y) -> (rho(x), y)."""
    out = []
    for p in points:
        x, y = float(p[0]), float(p[1])
        if not g.x_lo <= x <= g.x_hi:
            raise OutOfWindow(f"x={x:.6g} outside [{g.x_lo}, {g.x_hi}]")
        if not 0.0 <= y <= g.y_max:
            raise OutOfWindow(f"y={y:.6g} outside [0, {g.y_max}]")
        out.append((float(g.rho(x)), y))
    return out


# ---------------------------------------------------------------------------
# structure fields


@dataclass
class StructureField:
    """Vectorized field of structure-applied horizontal vectors.

    ``func`` maps an (N, 2) array of points to an (N, 2) array of vectors.
    ``exact_flow``, when present, returns the time-t flow of boundary starts
    in closed form and is used to avoid numeric integration noise.
    """

    func: Callable[[np.ndarray], np.ndarray]
    depth: int
    exact_flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def at(self, x: float, y: float) -> tuple[float, float]:
        v = self.func(np.array([[x, y]], dtype=float))[0]
        return float(v[0]), float(v[1])


def base_structure_field(g: BoundaryGlueMap) -> StructureField:
    """The glued structure applied to the horizontal unit: (0, rho'(x))."""

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[:, 1] = g.drho(pts[:, 0])
        return out

    def exact_flow(x0: np.ndarray, t: np.ndarray) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        return np.column_stack([x0, np.asarray(t, dtype=float) * g.drho(x0)])

    return StructureField(func=func, depth=0, exact_flow=exact_flow)


def _rk4_flow(
    func: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    times: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Fixed-step fourth-order integration of many curves at once.

    Fixed steps keep the integration error a smooth function of the start
    point, so finite differences across neighbouring curves cancel it; an
    adaptive controller would break that cancellation.
    """
    p = np.array(starts, dtype=float)
    dt = (np.asarray(times, dtype=float) / n_steps)[:, None]
    for _ in range(n_steps):
        k1 = func(p)
        k2 = func(p + 0.5 * dt * k1)
        k3 = func(p + 0.5 * dt * k2)
        k4 = func(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_FD_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_FD_H = 2e-3


def next_structure_field(prev: StructureField, n_steps: int = 1024) -> StructureField:
    """Transport the structure through one flattening step.

    At (x, y): flow boundary starts near x for time y along the previous
    field, differentiate the flow in x (fourth-order stencil), express the
    transported horizontal vector in the frame (horizontal, previous field)
    and solve the 2x2 change of basis back.  The flow derivative in t is the
    field itself, exactly, so only the x-derivative needs differencing.
    """

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        n = len(pts)
        x0 = (x[:, None] + _FD_H * _STENCIL[None, :]).ravel()
        tt = np.repeat(y, 5)
        if prev.exact_flow is not None:
            phi = prev.exact_flow(x0, tt)
        else:
            starts = np.column_stack([x0, np.zeros_like(x0)])
            phi = _rk4_flow(prev.func, starts, tt, n_steps)
        phi = phi.reshape(n, 5, 2)
        dphi_dx = np.tensordot(phi, _FD_WEIGHTS, axes=([1], [0])) / (12.0 * _FD_H)
        center = phi[:, 2, :]
        v = prev.func(center)
        p1, q1 = dphi_dx[:, 0], dphi_dx[:, 1]
        v1, v2 = v[:, 0], v[:, 1]
        # transported horizontal = alpha * horizontal + beta * previous field
        beta = q1 / v2
        alpha = p1 - beta * v1
        w1 = alpha * v1 - beta
        w2 = alpha * v2
        det = p1 * v2 - q1 * v1
        u1 = (v2 * w1 - v1 * w2) / det
        u2 = (-q1 * w1 + p1 * w2) / det
        return np.column_stack([u1, u2])

    return StructureField(func=func, depth=prev.depth + 1)


def structure_field_chain(
    g: BoundaryGlueMap, k: int, n_steps_by_level: Optional[dict] = None
) -> list[StructureField]:
    """Fields for levels -1 .. k-1, i.e. the inputs of steps 0 .. k."""
    steps = n_steps_by_level or {}
    out = [base_structure_field(g)]
    for level in range(1, k + 1):
        out.append(next_structure_field(out[-1], n_steps=steps.get(level, 1024)))
    return out


# ---------------------------------------------------------------------------
# the flattening map on a grid


@dataclass(frozen=True)
class FlattenReport:
    boundary_max_dev: float
    min_jacobian: float
    pushforward_max_dev: float
    x_valid: tuple[float, float]
    y_valid: tuple[float, float]


@dataclass
class FlattenedChart:
    """Forward curve grid and the inverse (the flattening) on top of it.

    grid[j, i] is the time ts[j] point of the curve started at (xs[i], 0).
    The inverse is defined on the axis rectangle certainly inside the image.
    """

    xs: np.ndarray
    ts: np.ndarray
    grid: np.ndarray
    report: FlattenReport
    _interp_x: object = dc_field(repr=False, default=None)
    _interp_y: object = dc_field(repr=False, default=None)

    def forward(self, i: int, j: int) -> tuple[float, float]:
        return float(self.grid[j, i, 0]), float(self.grid[j, i, 1])

    def delta(self, u: float, v: float) -> tuple[float, float]:
        """Flattening coordinates of an image point, by Newton inversion."""
        (ux0, ux1), (vy0, vy1) = self.report.x_valid, self.report.y_valid
        if not (ux0 <= u <= ux1 and vy0 <= v <= vy1):
            raise OutOfWindow(f"({u:.6g}, {v:.6g}) outside the certified rectangle")
        x = min(max(u, self.xs[0]), self.xs[-1])
        t = min(max(v, self.ts[0]), self.ts[-1])
        scale = max(1.0, abs(u), abs(v))
        for _ in range(60):
            fx = float(self._interp_x.ev(t, x)) - u
            fy = float(self._interp_y.ev(t, x)) - v
            if max(abs(fx), abs(fy)) <= 1e-12 * scale:
                return x, t
            j11 = float(self._interp_x.ev(t, x, dy=1))
            j12 = float(self._interp_x.ev(t, x, dx=1))
            j21 = float(self._interp_y.ev(t, x, dy=1))
            j22 = float(self._interp_y.ev(t, x, dx=1))
            det = j11 * j22 - j12 * j21
            if abs(det) < 1e-14:
                raise InversionFailure("Newton Jacobian degenerate")
            dx = (j22 * fx - j12 * fy) / det
            dt = (-j21 * fx + j11 * fy) / det
            x = min(max(x - dx, self.xs[0]), self.xs[-1])
            t = min(max(t - dt, self.ts[0]), self.ts[-1])
        raise InversionFailure(f"no convergence at ({u:.6g}, {v:.6g})")


def flatten_step(
    field: Union[StructureField, Callable],
    window: tuple[float, float] = (-1.5, 1.5),
    y_max: float = 1.0,
    nx: int = 97,
    ny: int = 97,
) -> FlattenedChart:
    """Integrate the curve grid of a structure field and invert it.

    Curves start at boundary samples and run for times up to y_max with
    adaptive step control at local error 1e-10.  Curves may bulge past the
    launch span by a tenth of its width, and rise to twice y_max, before
    counting as escaped; the certified rectangle reflects actual curve
    extents, so the allowance never inflates it.  The report checks the defining
    properties: identity on the boundary row, positive grid Jacobian, and
    pushforward of the field to the vertical unit at interior nodes (up to
    grid-size differencing error).
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import RectBivariateSpline

    func = field.func if isinstance(field, StructureField) else field
    x_lo, x_hi = window
    xs = np.linspace(x_lo, x_hi, nx)
    ts = np.linspace(0.0, y_max, ny)
    y_cap = 2.0 * y_max

    probe = func(np.column_stack([xs, np.zeros_like(xs)]))
    if probe[:, 1].min() <= 1e-3:
        raise DomainError("second field component not bounded below on the strip")

    def rhs(t, s):
        return func(s.reshape(-1, 2)).ravel()

    state0 = np.column_stack([xs, np.zeros_like(xs)]).ravel()
    sol = solve_ivp(
        rhs,
        (0.0, y_max),
        state0,
        method="DOP853",
        t_eval=ts,
        rtol=1e-10,
        atol=1e-10,
    )
    if not sol.success:
        raise CurveEscape(f"integration failed: {sol.message}")
    grid = sol.y.reshape(nx, 2, ny).transpose(2, 0, 1)

    x_pad = 0.1 * (x_hi - x_lo)
    if grid[:, :, 0].min() < x_lo - x_pad - 1e-9 or grid[:, :, 0].max() > x_hi + x_pad + 1e-9:
        raise CurveEscape("an integral curve left the window horizontally")
    if grid[:, :, 1].min() < -1e-9 or grid[:, :, 1].max() > y_cap + 1e-9:
        raise CurveEscape("an integral curve left the strip vertically")

    boundary_dev = float(
        np.max(np.abs(grid[0, :, 0] - xs)) + np.max(np.abs(grid[0, :, 1]))
    )

    dx = xs[1] - xs[0]
    dt = ts[1] - ts[0]
    gx = (grid[:, 2:, :] - grid[:, :-2, :]) / (2.0 * dx)
    gt = (grid[2:, :, :] - grid[:-2, :, :]) / (2.0 * dt)
    gx = gx[1:-1, :, :]
    gt = gt[:, 1:-1, :]
    det = gx[:, :, 0] * gt[:, :, 1] - gx[:, :, 1] * gt[:, :, 0]
    min_jac = float(det.min())
    if min_jac <= 1e-10:
        raise InversionFailure(f"grid Jacobian reaches {min_jac:.3g}")

    interior = grid[1:-1, 1:-1, :]
    v = func(interior.reshape(-1, 2)).reshape(interior.shape)
    # solve [gx | gt] u = v; the pushforward is u and should be (0, 1)
    u1 = (gt[:, :, 1] * v[:, :, 0] - gt[:, :, 0] * v[:, :, 1]) / det
    u2 = (-gx[:, :, 1] * v[:, :, 0] + gx[:, :, 0] * v[:, :, 1]) / det
    push_dev = float(max(np.max(np.abs(u1)), np.max(np.abs(u2 - 1.0))))

    x_valid = (float(grid[:, 0, 0].max()), float(grid[:, -1, 0].min()))
    y_valid = (0.0, float(grid[-1, :, 1].min()))
    report = FlattenReport(
        boundary_max_dev=boundary_dev,
        min_jacobian=min_jac,
        pushforward_max_dev=push_dev,
        x_valid=x_valid,
        y_valid=y_valid,
    )
    chart = FlattenedChart(xs=xs, ts=ts, grid=grid, report=report)
    chart._interp_x = RectBivariateSpline(ts, xs, grid[:, :, 0], kx=3, ky=3)
    chart._interp_y = RectBivariateSpline(ts, xs, grid[:, :, 1], kx=3, ky=3)
    return chart


# ---------------------------------------------------------------------------
# order verification


@dataclass(frozen=True)
class OrderFit:
    k: int
    fitted_m: float
    fitted_n: float
    predicted: OrderPair
    ok: bool


@dataclass(frozen=True)
class OrdersReport:
    fits: tuple[OrderFit, ...]
    all_ok: bool


_LADDERS = {0: range(4, 13), 1: range(4, 9), 2: range(4, 7)}
_ZERO_FLOOR = 1e-10
_SLOPE_TOL = 0.25


def _fit_order(ys: np.ndarray, cs: np.ndarray) -> float:
    if cs.max() < _ZERO_FLOOR:
        return INFINITE
    slope = np.polyfit(np.log(ys), np.log(np.maximum(cs, 1e-300)), 1)[0]
    return float(slope)


def verify_orders(g: BoundaryGlueMap, k_max: int) -> OrdersReport:
    """Fit vanishing orders of the first structure fields against prediction.

    For each k up to k_max the field components are sampled on a dyadic
    ladder in y at a fixed probe x and the log-log slope is compared with
    the integer recursion.  Identically vanishing components count as
    infinite order.  Ladders shorten as k grows: deeper fields carry more
    integration noise, which would dominate the smallest samples.
    """
    if not 0 <= k_max <= 2:
        raise DomainError("k_max must be between 0 and 2")
    seq = order_sequence(k_max + 1)
    # nesting depth three is affordable only with short fixed-step runs; the
    # ladder times are at most 1/16 so short runs lose no accuracy there
    steps = {2: 128, 3: 128} if k_max == 2 else {2: 512}
    fields = structure_field_chain(g, k_max + 1, n_steps_by_level=steps)
    x0 = g.x_lo + 0.77 * (g.x_hi - g.x_lo)

    fits = []
    for k in range(k_max + 1):
        fld = fields[k + 1]
        ys = np.array([2.0 ** (-j) for j in _LADDERS[k]])
        pts = np.column_stack([np.full_like(ys, x0), ys])
        vals = fld.func(pts)
        c1 = np.abs(vals[:, 0])
        c2 = np.abs(vals[:, 1] - 1.0)
        fm = _fit_order(ys, c1)
        fn = _fit_order(ys, c2)
        pred = seq[k + 1]
        ok_m = fm == INFINITE or fm >= pred.m - _SLOPE_TOL
        ok_n = fn == INFINITE or fn >= pred.n - _SLOPE_TOL
        fits.append(OrderFit(k=k, fitted_m=fm, fitted_n=fn, predicted=pred, ok=ok_m and ok_n))
    return OrdersReport(fits=tuple(fits), all_ok=all(f.ok for f in fits))
