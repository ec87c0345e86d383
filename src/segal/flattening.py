"""Boundary-strip flattening: the integer order recursion and a desk-scale
numeric construction of the first flattening maps.

Two half-planes glued along the real line by an increasing map induce a
complex structure on a boundary strip.  Applying the structure to the unit
horizontal vector gives a field of the form (O(y^m), 1 + O(y^n)); each
flattening step straightens the integral curves of that field to vertical
lines, improving the pair (m, n).  The recursion on (m, n) is exact integer
bookkeeping; the maps themselves are built numerically on a grid, with
numpy alone: a fixed-step RK4 curve grid, inverted by Newton's method on
the local bicubic through the 4 x 4 nodes nearest each point.

The strip is fixed: x in [-1.5, 1.5], y in [0, 1].  A chart covers its
lower 0.75 on a 97 x 97 grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import _FirstUseNumpy
from ._input import integer
from .errors import (
    CurveEscape,
    DomainError,
    InternalInconsistency,
    InversionFailure,
    NonMonotone,
    OutOfWindow,
)

np = _FirstUseNumpy(globals())

INFINITE = math.inf

# the boundary strip, and the height and grid of a chart on it
X_LO, X_HI, Y_MAX = -1.5, 1.5, 1.0
CHART_HEIGHT = 0.75
GRID = 97


# ---------------------------------------------------------------------------
# the order recursion


def _whole(v) -> bool:
    """An int, or a finite float with an integer value; an int past the
    float range counts, where ``math.isfinite`` would overflow on it."""
    return isinstance(v, int) or (math.isfinite(v) and v == int(v))


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
            if not (_whole(self.m) and self.m >= 1):
                raise InternalInconsistency("m must be a positive integer or infinite")
            object.__setattr__(self, "m", int(self.m))
        if not (_whole(self.n) and self.n >= 0):
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
    out = [OrderPair(INFINITE, 0)]
    for _ in range(integer(k, "k", 0)):
        out.append(order_step(out[-1]))
    return out


# ---------------------------------------------------------------------------
# glue maps


@dataclass(frozen=True)
class BoundaryGlueMap:
    """Increasing smooth reparametrization of the boundary line, given by
    rho and its derivative drho.  Both callables must accept numpy arrays.
    """

    rho: Callable
    drho: Callable

    def __post_init__(self):
        xs = np.linspace(X_LO, X_HI, 512)
        try:
            with np.errstate(over="raise"):
                dv = np.asarray(self.drho(xs), dtype=float)
                vals = np.asarray(self.rho(xs), dtype=float)
        except FloatingPointError as e:
            raise DomainError(f"out of double-precision scale on the strip: {e}") from None
        if not 1e-6 < dv.min() <= dv.max() < math.inf:
            raise NonMonotone(f"derivative reaches {dv.min():.3g}")
        if not np.all(np.diff(vals) > 0) or not np.isfinite(vals).all():
            raise NonMonotone("sampled values not strictly increasing")


def glue_identity() -> BoundaryGlueMap:
    return BoundaryGlueMap(
        rho=lambda x: np.asarray(x, dtype=float) + 0.0,
        drho=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def glue_linear(k: float) -> BoundaryGlueMap:
    if not 0 < k < math.inf:
        raise NonMonotone("slope must be positive")
    return BoundaryGlueMap(
        rho=lambda x: k * np.asarray(x, dtype=float),
        drho=lambda x: np.full_like(np.asarray(x, dtype=float), k),
    )


def glue_sine(amplitude: float = 0.1) -> BoundaryGlueMap:
    a = float(amplitude)
    if not abs(a) < 1.0:
        raise NonMonotone("amplitude must have magnitude below 1")
    return BoundaryGlueMap(
        rho=lambda x: np.asarray(x, dtype=float) + a * np.sin(np.asarray(x, dtype=float)),
        drho=lambda x: 1.0 + a * np.cos(np.asarray(x, dtype=float)),
    )


def tau_minus1(g: BoundaryGlueMap, points: Sequence) -> list[tuple[float, float]]:
    """Horizontal reparametrization (x, y) -> (rho(x), y)."""
    out = []
    for p in points:
        x, y = float(p[0]), float(p[1])
        if not X_LO <= x <= X_HI:
            raise OutOfWindow(f"x={x:.6g} outside [{X_LO}, {X_HI}]")
        if not 0.0 <= y <= Y_MAX:
            raise OutOfWindow(f"y={y:.6g} outside [0, {Y_MAX}]")
        out.append((float(g.rho(x)), y))
    return out


# ---------------------------------------------------------------------------
# structure fields


@dataclass
class StructureField:
    """Vectorized field of structure-applied horizontal vectors.

    ``func`` maps an (N, 2) array of points to an (N, 2) array of vectors.
    ``exact_flow``, when present, returns the time-t flow of boundary starts
    in closed form and is used to avoid numeric integration noise: given
    start abscissas ``x0`` and times ``t`` that broadcast together, it
    returns the flow's coordinates as a pair ``(x, y)`` of arrays, which
    broadcast to that shape.
    """

    func: Callable[[np.ndarray], np.ndarray]
    exact_flow: Optional[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]] = None


def base_structure_field(g: BoundaryGlueMap) -> StructureField:
    """The glued structure applied to the horizontal unit: (0, rho'(x))."""

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[:, 1] = g.drho(pts[:, 0])
        return out

    def exact_flow(x0: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x0 = np.asarray(x0, dtype=float)
        return x0, np.asarray(t, dtype=float) * g.drho(x0)

    return StructureField(func=func, exact_flow=exact_flow)


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
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        k1 = func(p)
        k2 = func(p + half * k1)
        k3 = func(p + half * k2)
        k4 = func(p + dt * k3)
        p = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


_STENCIL = (-2.0, -1.0, 0.0, 1.0, 2.0)
_FD_H = 2e-3
# RK4 steps of the inner flow behind each evaluation of a transported field.
# The flow is smooth in t and runs for times below Y_MAX, so 32 steps keep a
# depth-2 field within 4e-12 of a 1024-step flow, at about a 30th of the cost.
_INNER_STEPS = 32


def next_structure_field(prev: StructureField, n_steps: int = _INNER_STEPS) -> StructureField:
    """Transport the structure through one flattening step.

    At (x, y): flow boundary starts near x for time y along the previous
    field, differentiate the flow in x (fourth-order stencil), express the
    transported horizontal vector in the frame (horizontal, previous field)
    and solve the 2x2 change of basis back.  The flow derivative in t is the
    field itself, exactly, so only the x-derivative needs differencing.
    """
    n_steps = integer(n_steps, "n_steps", 1)
    offsets = _FD_H * np.array(_STENCIL)

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        n = len(pts)
        x0 = pts[:, :1] + offsets  # (n, 5): the stencil starts of each point
        if prev.exact_flow is not None:
            fx, fy = prev.exact_flow(x0, pts[:, 1:])
        else:
            starts = np.zeros((5 * n, 2))
            starts[:, 0] = x0.ravel()
            flow = _rk4_flow(prev.func, starts, np.repeat(pts[:, 1], 5), n_steps).reshape(n, 5, 2)
            fx, fy = flow[..., 0], flow[..., 1]
        # elementwise, not a BLAS dot, so the digits do not depend on the host;
        # products first, so a flow out of double-precision scale overflows
        p1 = (fx[:, 0] - 8.0 * fx[:, 1] + 8.0 * fx[:, 3] - fx[:, 4]) / (12.0 * _FD_H)
        q1 = (fy[:, 0] - 8.0 * fy[:, 1] + 8.0 * fy[:, 3] - fy[:, 4]) / (12.0 * _FD_H)
        center = np.empty((n, 2))
        center[:, 0], center[:, 1] = fx[:, 2], fy[:, 2]
        v = prev.func(center)
        v1, v2 = v[:, 0], v[:, 1]
        # transported horizontal = alpha * horizontal + beta * previous field
        beta = q1 / v2
        alpha = p1 - beta * v1
        w1 = alpha * v1 - beta
        w2 = alpha * v2
        det = p1 * v2 - q1 * v1
        out = np.empty((n, 2))
        out[:, 0] = (v2 * w1 - v1 * w2) / det
        out[:, 1] = (-q1 * w1 + p1 * w2) / det
        return out

    return StructureField(func=func)


def structure_field_chain(g: BoundaryGlueMap, k: int) -> list[StructureField]:
    """Fields for levels -1 .. k-1, i.e. the inputs of steps 0 .. k."""
    out = [base_structure_field(g)]
    for _ in range(integer(k, "k", 0)):
        out.append(next_structure_field(out[-1]))
    return out


# ---------------------------------------------------------------------------
# the flattening map on a grid


def _cubic_weights(nodes: np.ndarray, s: float) -> tuple[int, np.ndarray]:
    """First index k of the four uniform ``nodes`` nearest s, and the weights
    of their values in the cubic through them (row 0) and in its derivative
    (row 1): Lagrange's basis in a, b, c, d, the offsets of s from nodes k
    to k + 3 in steps."""
    lo, h = float(nodes[0]), float(nodes[1] - nodes[0])
    u = (s - lo) / h
    k = min(max(int(u) - 1, 0), len(nodes) - 4)
    a = u - k
    b, c, d = a - 1.0, a - 2.0, a - 3.0
    return k, np.array([
        [-b * c * d / 6.0, a * c * d / 2.0, -a * b * d / 2.0, a * b * c / 6.0],
        [
            -(b * c + b * d + c * d) / (6.0 * h),
            (a * c + a * d + c * d) / (2.0 * h),
            -(a * b + a * d + b * d) / (2.0 * h),
            (a * b + a * c + b * c) / (6.0 * h),
        ],
    ])


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
    The inverse is defined on the axis rectangle certainly inside the image;
    it inverts the tensor-product cubic that interpolates the grid through
    the 4 x 4 nodes nearest each point, exact at the nodes and on cubics.
    ``substeps`` is the RK4 step count per output interval of ``ts``,
    ``field_evals`` counts the field evaluations (each on all curves at once)
    and ``step_error`` is the step-doubling error estimate of the grid.
    """

    xs: np.ndarray
    ts: np.ndarray
    grid: np.ndarray
    report: FlattenReport
    substeps: int
    field_evals: int
    step_error: float

    def forward(self, i: int, j: int) -> tuple[float, float]:
        return float(self.grid[j, i, 0]), float(self.grid[j, i, 1])

    def _interpolate(self, t: float, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, t-derivative and x-derivative at (t, x) of the tensor-product
        cubic through the 4 x 4 grid nodes nearest it."""
        j, wt = _cubic_weights(self.ts, t)
        i, wx = _cubic_weights(self.xs, x)
        out = wx @ (wt @ self.grid[j : j + 4, i : i + 4].reshape(4, -1)).reshape(2, 4, 2)
        return out[0, 0], out[1, 0], out[0, 1]

    def delta(self, u: float, v: float) -> tuple[float, float]:
        """Flattening coordinates of an image point, by Newton inversion."""
        (ux0, ux1), (vy0, vy1) = self.report.x_valid, self.report.y_valid
        if not (ux0 <= u <= ux1 and vy0 <= v <= vy1):
            raise OutOfWindow(f"({u:.6g}, {v:.6g}) outside the certified rectangle")
        x = min(max(u, self.xs[0]), self.xs[-1])
        t = min(max(v, self.ts[0]), self.ts[-1])
        scale = max(1.0, abs(u), abs(v))
        for _ in range(60):
            val, d_t, d_x = self._interpolate(t, x)
            fx = float(val[0]) - u
            fy = float(val[1]) - v
            if max(abs(fx), abs(fy)) <= 1e-12 * scale:
                return x, t
            j11, j12 = float(d_x[0]), float(d_t[0])
            j21, j22 = float(d_x[1]), float(d_t[1])
            det = j11 * j22 - j12 * j21
            if abs(det) < 1e-14:
                raise InversionFailure("Newton Jacobian degenerate")
            dx = (j22 * fx - j12 * fy) / det
            dt = (-j21 * fx + j11 * fy) / det
            x = min(max(x - dx, self.xs[0]), self.xs[-1])
            t = min(max(t - dt, self.ts[0]), self.ts[-1])
        raise InversionFailure(f"no convergence at ({u:.6g}, {v:.6g})")


_GRID_TOL = 1e-10
# The cap bounds the work a stiff or wild field can cause; the tanh fold of
# the tests settles at 256 substeps over intervals of 1/16.
_MAX_SUBSTEPS = 1024


def _curve_grid(
    func: Callable[[np.ndarray], np.ndarray], starts: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, int, int, float]:
    """Curve points at every time of ``ts`` (uniform), by fixed-step RK4.

    The substep count per output interval doubles until the step-doubling
    estimate max|fine - coarse| / 15 (Hairer, Norsett & Wanner, II.4) is at
    most 1e-10; curve points too large for double precision to resolve
    1e-10 escape at once, and a non-finite row escapes before the rows
    after it are integrated.  Returns the finer grid, its substep count, the
    field evaluation count and the estimate.
    """
    h = np.full(len(starts), ts[1] - ts[0])

    def run(n: int) -> np.ndarray:
        rows = [starts]
        for _ in range(len(ts) - 1):
            row = _rk4_flow(func, rows[-1], h, n)
            if not np.isfinite(row).all():
                raise CurveEscape(f"non-finite curve point at {n} substeps")
            rows.append(row)
        return np.stack(rows)

    n, coarse = 1, run(1)
    evals = 4 * (len(ts) - 1)
    while True:
        if 2 * n > _MAX_SUBSTEPS:
            raise CurveEscape(f"step doubling passed {_MAX_SUBSTEPS} substeps")
        fine = run(2 * n)
        evals += 8 * n * (len(ts) - 1)
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if err <= _GRID_TOL:
            return fine, 2 * n, evals, err
        scale = float(np.max(np.abs(fine)))
        if np.spacing(scale) > _GRID_TOL:
            # no step count can agree within the tolerance at this magnitude
            raise CurveEscape(
                f"curve points reach {scale:.3g}, too large to resolve to {_GRID_TOL}"
            )
        n, coarse = 2 * n, fine


def flatten_step(field: StructureField) -> FlattenedChart:
    """Integrate the curve grid of a structure field and invert it.

    The grid has 97 curves, started on the boundary at x in [-1.5, 1.5], and
    97 times in [0, 0.75] (GRID, X_LO, X_HI and CHART_HEIGHT); fixed-step RK4
    runs them, step doubling to 1e-10.  Curves may bulge past the window by
    a tenth of its width, and rise to twice the chart height, before
    counting as escaped; the certified rectangle reflects actual curve
    extents, so the allowance never inflates it.  The report checks the
    defining properties: identity on the boundary row, positive grid
    Jacobian, and pushforward of the field to the vertical unit at interior
    nodes (up to grid-size differencing error).  The inverse interpolates
    the grid locally, by the cubic through the four nearest nodes along each
    axis.
    """
    func = field.func
    xs = np.linspace(X_LO, X_HI, GRID)
    ts = np.linspace(0.0, CHART_HEIGHT, GRID)

    starts = np.column_stack([xs, np.zeros_like(xs)])
    # A field out of double-precision scale gives inf or nan here without a
    # numpy warning; the grid's finiteness check then names it.
    with np.errstate(all="ignore"):
        probe = func(starts)
        if probe[:, 1].min() <= 1e-3:
            raise DomainError("second field component not bounded below on the strip")
        grid, substeps, field_evals, step_error = _curve_grid(func, starts, ts)

    x_pad = 0.1 * (X_HI - X_LO)
    if grid[:, :, 0].min() < X_LO - x_pad - 1e-9 or grid[:, :, 0].max() > X_HI + x_pad + 1e-9:
        raise CurveEscape("an integral curve left the window horizontally")
    if grid[:, :, 1].min() < -1e-9 or grid[:, :, 1].max() > 2.0 * CHART_HEIGHT + 1e-9:
        raise CurveEscape("an integral curve left the strip vertically")

    return FlattenedChart(
        xs=xs,
        ts=ts,
        grid=grid,
        report=_grid_report(func, xs, ts, grid),
        substeps=substeps,
        field_evals=field_evals,
        step_error=step_error,
    )


def _grid_report(
    func: Callable, xs: np.ndarray, ts: np.ndarray, grid: np.ndarray
) -> FlattenReport:
    """The defining properties of a curve grid, checked at its nodes."""
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
    return FlattenReport(
        boundary_max_dev=boundary_dev,
        min_jacobian=min_jac,
        pushforward_max_dev=push_dev,
        x_valid=x_valid,
        y_valid=y_valid,
    )


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
    """Least-squares slope of log c against log y, in closed form with
    correctly rounded sums, so the digits do not depend on the host's BLAS."""
    if cs.max() < _ZERO_FLOOR:
        return INFINITE
    lx = [math.log(y) for y in ys.tolist()]
    ly = [math.log(max(c, 1e-300)) for c in cs.tolist()]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    return sxy / sxx


def verify_orders(g: BoundaryGlueMap, k_max: int) -> OrdersReport:
    """Fit vanishing orders of the first structure fields against prediction.

    For each k up to k_max the field components are sampled on a dyadic
    ladder in y at a fixed probe x and the log-log slope is compared with
    the integer recursion.  Identically vanishing components count as
    infinite order.  Ladders shorten as k grows: deeper fields carry more
    integration noise, which would dominate the smallest samples.
    """
    k_max = integer(k_max, "k_max", 0)
    if k_max > 2:
        raise DomainError("k_max must be between 0 and 2")
    seq = order_sequence(k_max + 1)
    # For k_max < 2 the last level runs 512 inner steps; that counts only at
    # level 2, since level 1 follows the exact base flow.  At k = 2 every
    # level runs the default 32: over ladder times of at most 1/16 that fits
    # the same orders as 128 steps (n within 0.006) at a 15th of the cost.
    fields = structure_field_chain(g, k_max)
    fields.append(next_structure_field(fields[-1], n_steps=512 if k_max < 2 else _INNER_STEPS))
    x0 = X_LO + 0.77 * (X_HI - X_LO)

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
