"""Boundary-strip flattening: the integer order recursion and a desk-scale
numeric construction of the first flattening maps.

Two half-planes glued along the real line by an increasing map induce a
complex structure on a boundary strip.  Applying the structure to the unit
horizontal vector gives a field of the form (O(y^m), 1 + O(y^n)); each
flattening step straightens the integral curves of that field to vertical
lines, improving the pair (m, n).  The recursion on (m, n) is exact integer
bookkeeping; the maps themselves are built numerically on a grid, with
numpy alone: a fixed-step RK4 curve grid and a not-a-knot cubic spline
inverse.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence, Union

from . import _FirstUseNumpy
from .errors import (
    CurveEscape,
    DomainError,
    GridMismatch,
    InternalInconsistency,
    InversionFailure,
    NonMonotone,
    OutOfWindow,
)

np = _FirstUseNumpy(globals())

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
            if not (math.isfinite(self.m) and self.m == int(self.m) and self.m >= 1):
                raise InternalInconsistency("m must be a positive integer or infinite")
            object.__setattr__(self, "m", int(self.m))
        if not (math.isfinite(self.n) and self.n == int(self.n) and self.n >= 0):
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


def _require_strip(window: tuple[float, float], y_max: float) -> None:
    """The rule for a boundary strip: a nonempty window of finite ends and
    finite width, and a positive finite height."""
    x_lo, x_hi = window
    if not -math.inf < x_lo < x_hi < math.inf:
        raise DomainError(f"window {window!r} is empty or not finite")
    if x_hi - x_lo == math.inf:
        raise DomainError(f"window {window!r} is too wide for double precision")
    if not 0 < y_max < math.inf:
        raise DomainError(f"y_max must be positive and finite, got {y_max!r}")


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
        _require_strip((self.x_lo, self.x_hi), self.y_max)
        xs = np.linspace(self.x_lo, self.x_hi, 512)
        if not np.all(np.diff(xs) > 0):
            raise DomainError(
                f"window {self.window!r} is out of double-precision scale: "
                f"its 512 samples are not distinct"
            )
        try:
            with np.errstate(over="raise"):
                dv = np.asarray(self.drho(xs), dtype=float)
                vals = np.asarray(self.rho(xs), dtype=float)
        except FloatingPointError as e:
            raise DomainError(
                f"window {self.window!r} is out of double-precision scale for this map: {e}"
            ) from None
        if not 1e-6 < dv.min() <= dv.max() < math.inf:
            raise NonMonotone(f"derivative reaches {dv.min():.3g}")
        if not np.all(np.diff(vals) > 0) or not np.isfinite(vals).all():
            raise NonMonotone("sampled values not strictly increasing")

    @property
    def window(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)


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
    exact_flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def at(self, x: float, y: float) -> tuple[float, float]:
        """The field at one point, which must be finite and keep the field's
        arithmetic within double precision."""
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"point ({x!r}, {y!r}) is not finite")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                v = self.func(np.array([[x, y]], dtype=float))[0]
        except FloatingPointError as e:
            raise DomainError(f"point ({x!r}, {y!r}) is out of double-precision scale: {e}") from None
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
    for _ in range(n_steps):
        k1 = func(p)
        k2 = func(p + 0.5 * dt * k1)
        k3 = func(p + 0.5 * dt * k2)
        k4 = func(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


_STENCIL = (-2.0, -1.0, 0.0, 1.0, 2.0)
_FD_WEIGHTS = (1.0, -8.0, 0.0, 8.0, -1.0)
_FD_H = 2e-3
# RK4 steps of the inner flow behind each evaluation of a transported field.
# The flow is smooth in t and runs for times below y_max, so 32 steps keep a
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
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise DomainError(f"n_steps must be a positive integer, got {n_steps!r}")
    stencil, weights = np.array(_STENCIL), np.array(_FD_WEIGHTS)

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        n = len(pts)
        x0 = (x[:, None] + _FD_H * stencil[None, :]).ravel()
        tt = np.repeat(y, 5)
        if prev.exact_flow is not None:
            phi = prev.exact_flow(x0, tt)
        else:
            starts = np.column_stack([x0, np.zeros_like(x0)])
            phi = _rk4_flow(prev.func, starts, tt, n_steps)
        phi = phi.reshape(n, 5, 2)
        dphi_dx = np.tensordot(phi, weights, axes=([1], [0])) / (12.0 * _FD_H)
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

    return StructureField(func=func)


def structure_field_chain(g: BoundaryGlueMap, k: int) -> list[StructureField]:
    """Fields for levels -1 .. k-1, i.e. the inputs of steps 0 .. k."""
    out = [base_structure_field(g)]
    for _ in range(k):
        out.append(next_structure_field(out[-1]))
    return out


# ---------------------------------------------------------------------------
# the flattening map on a grid


def _not_a_knot_matrix(nodes: np.ndarray) -> np.ndarray:
    """Matrix taking node values to the node second derivatives of their
    not-a-knot cubic interpolant (third derivative continuous at the second
    and the second-to-last node; de Boor, ch. IV).  Needs 4 or more nodes.
    """
    n = len(nodes)
    h = np.diff(nodes)
    lhs = np.zeros((n, n))
    rhs = np.zeros((n, n))
    for i in range(1, n - 1):
        lhs[i, i - 1 : i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        rhs[i, i - 1 : i + 2] = 6.0 / h[i - 1], -6.0 / h[i - 1] - 6.0 / h[i], 6.0 / h[i]
    lhs[0, :3] = h[1], -(h[0] + h[1]), h[0]
    lhs[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    return np.linalg.solve(lhs, rhs)


def _cubic_weights(nodes: list[float], s: float) -> tuple[int, np.ndarray]:
    """Cell c of s and the weights of the cell-end data for the interpolant
    (row 0) and its first derivative (row 1).

    The columns weigh the value and the second derivative at node c, then
    the same two at node c + 1.
    """
    c = min(max(bisect.bisect_right(nodes, s) - 1, 0), len(nodes) - 2)
    h = nodes[c + 1] - nodes[c]
    a = (nodes[c + 1] - s) / h
    b = 1.0 - a
    return c, np.array([
        [a, h * h * (a**3 - a) / 6.0, b, h * h * (b**3 - b) / 6.0],
        [-1.0 / h, -h * (3.0 * a * a - 1.0) / 6.0, 1.0 / h, h * (3.0 * b * b - 1.0) / 6.0],
    ])


class _GridSpline:
    """Tensor-product not-a-knot cubic interpolant of values[j, i, :] at
    (ts[j], xs[i]), the interpolant of ``RectBivariateSpline(s=0)``.

    Along each axis the interpolant is fixed by node values and node second
    derivatives, so each cell is a bicubic fixed by the values, both second
    derivatives and the mixed fourth derivative at its corners.
    """

    def __init__(self, ts: np.ndarray, xs: np.ndarray, values: np.ndarray):
        self.ts, self.xs = ts.tolist(), xs.tolist()
        mt, mx = _not_a_knot_matrix(ts), _not_a_knot_matrix(xs)
        ftt = np.tensordot(mt, values, axes=1)
        # coef[j, p, i, q]: p = 0 the value, 1 the second t-derivative; q in x
        self.coef = np.stack(
            [np.stack([values, mx @ values], axis=2), np.stack([ftt, mx @ ftt], axis=2)],
            axis=1,
        )

    def __call__(self, t: float, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, t-derivative and x-derivative at (t, x)."""
        j, wt = _cubic_weights(self.ts, t)
        i, wx = _cubic_weights(self.xs, x)
        cell = self.coef[j : j + 2, :, i : i + 2].reshape(4, -1)
        out = wx @ (wt @ cell).reshape(2, 4, -1)
        return out[0, 0], out[1, 0], out[0, 1]


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
    _spline: _GridSpline = dc_field(repr=False)

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
            val, d_t, d_x = self._spline(t, x)
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
    1e-10 escape at once.  Returns the finer grid, its substep count, the
    field evaluation count and the estimate.
    """
    h = np.full(len(starts), ts[1] - ts[0])

    def run(n: int) -> np.ndarray:
        rows = [starts]
        for _ in range(len(ts) - 1):
            rows.append(_rk4_flow(func, rows[-1], h, n))
        grid = np.stack(rows)
        if not np.isfinite(grid).all():
            raise CurveEscape(f"non-finite curve point at {n} substeps")
        return grid

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


def flatten_step(
    field: Union[StructureField, Callable],
    window: tuple[float, float] = (-1.5, 1.5),
    y_max: float = 1.0,
    nx: int = 97,
    ny: int = 97,
) -> FlattenedChart:
    """Integrate the curve grid of a structure field and invert it.

    Curves start at boundary samples and run for times up to y_max with
    fixed-step RK4, step doubling to 1e-10.  Curves may bulge past the
    launch span by a tenth of its width, and rise to twice y_max, before
    counting as escaped; the certified rectangle reflects actual curve
    extents, so the allowance never inflates it.  The report checks the defining
    properties: identity on the boundary row, positive grid Jacobian, and
    pushforward of the field to the vertical unit at interior nodes (up to
    grid-size differencing error).  The inverse interpolates the grid with a
    not-a-knot bicubic spline, so each axis needs at least 4 nodes.
    """
    for name, count in (("nx", nx), ("ny", ny)):
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 4:
            raise GridMismatch(f"{name} must be an integer of at least 4, got {count!r}")
    _require_strip(window, y_max)
    func = field.func if isinstance(field, StructureField) else field
    x_lo, x_hi = window
    xs = np.linspace(x_lo, x_hi, nx)
    ts = np.linspace(0.0, y_max, ny)
    y_cap = 2.0 * y_max

    starts = np.column_stack([xs, np.zeros_like(xs)])
    probe = func(starts)
    if probe[:, 1].min() <= 1e-3:
        raise DomainError("second field component not bounded below on the strip")

    grid, substeps, field_evals, step_error = _curve_grid(func, starts, ts)

    x_pad = 0.1 * (x_hi - x_lo)
    if grid[:, :, 0].min() < x_lo - x_pad - 1e-9 or grid[:, :, 0].max() > x_hi + x_pad + 1e-9:
        raise CurveEscape("an integral curve left the window horizontally")
    if grid[:, :, 1].min() < -1e-9 or grid[:, :, 1].max() > y_cap + 1e-9:
        raise CurveEscape("an integral curve left the strip vertically")

    # A finite window or height can still be out of double-precision scale
    # (near 5e-324 or 1e308); the grid arithmetic then overflows or divides
    # by zero, which is an input error.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = _grid_report(func, xs, ts, grid)
            spline = _GridSpline(ts, xs, grid)
    except FloatingPointError as e:
        raise DomainError(
            f"window {window!r} with y_max {y_max!r} is out of double-precision scale: {e}"
        ) from None
    return FlattenedChart(
        xs=xs,
        ts=ts,
        grid=grid,
        report=report,
        substeps=substeps,
        field_evals=field_evals,
        step_error=step_error,
        _spline=spline,
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
    # For k_max < 2 the last level runs 512 inner steps; that counts only at
    # level 2, since level 1 follows the exact base flow.  At k = 2 every
    # level runs the default 32: over ladder times of at most 1/16 that fits
    # the same orders as 128 steps (n within 0.006) at a 15th of the cost.
    fields = structure_field_chain(g, k_max)
    fields.append(next_structure_field(fields[-1], n_steps=512 if k_max < 2 else _INNER_STEPS))
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
