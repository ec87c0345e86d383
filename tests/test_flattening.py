import inspect
import math

import numpy as np
import pytest

from segal.errors import (
    CurveEscape,
    DomainError,
    InternalInconsistency,
    InversionFailure,
    NonMonotone,
    OutOfWindow,
)
from segal import flattening
from segal.flattening import (
    INFINITE,
    BoundaryGlueMap,
    OrderPair,
    StructureField,
    base_structure_field,
    flatten_step,
    glue_identity,
    glue_linear,
    glue_sine,
    next_structure_field,
    order_sequence,
    order_step,
    structure_field_chain,
    tau_minus1,
    verify_orders,
)


# ---------------------------------------------------------------------------
# order recursion


class TestOrderRecursion:
    def test_first_six_pairs(self):
        assert order_sequence(5) == [
            OrderPair(INFINITE, 0),
            OrderPair(1, 2),
            OrderPair(3, 2),
            OrderPair(3, 4),
            OrderPair(5, 4),
            OrderPair(5, 6),
        ]

    def test_first_step_uses_doubling_branch(self):
        assert order_step(OrderPair(INFINITE, 0)) == OrderPair(1, 2)

    def test_later_steps_take_m_plus_one(self):
        seq = order_sequence(40)
        for k in range(1, 40):
            assert seq[k + 1].n == seq[k].m + 1

    def test_min_order_monotone(self):
        seq = order_sequence(100)
        mins = [p.min_order for p in seq]
        assert all(a <= b for a, b in zip(mins, mins[1:]))

    def test_min_order_grows_linearly(self):
        seq = order_sequence(100)
        for k in range(2, 101):
            assert seq[k].min_order >= k / 2

    def test_exceeds_twenty_within_45_steps(self):
        seq = order_sequence(45)
        assert any(p.min_order > 20 for p in seq)

    def test_validation(self):
        with pytest.raises(InternalInconsistency):
            OrderPair(0, 1)
        with pytest.raises(InternalInconsistency):
            OrderPair(2.5, 0)
        with pytest.raises(InternalInconsistency):
            OrderPair(1, -1)
        with pytest.raises(DomainError):
            order_sequence(-1)


# ---------------------------------------------------------------------------
# glue maps and the horizontal reparametrization


class TestGlueMap:
    def test_sine_valid(self):
        g = glue_sine(0.1)
        assert g.drho(np.linspace(flattening.X_LO, flattening.X_HI, 512)).min() > 0.8

    def test_rejects_unit_amplitude(self):
        with pytest.raises(NonMonotone):
            glue_sine(1.0)

    def test_rejects_decreasing(self):
        with pytest.raises(NonMonotone):
            BoundaryGlueMap(
                rho=lambda x: -np.asarray(x, dtype=float),
                drho=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
            )

    def test_rejects_negative_slope(self):
        with pytest.raises(NonMonotone):
            glue_linear(-1.0)

    def test_rejects_derivative_below_threshold(self):
        with pytest.raises(NonMonotone, match="derivative reaches 1e-07"):
            glue_linear(1e-7)

    def test_rejects_values_not_increasing(self):
        with pytest.raises(NonMonotone, match="sampled values not strictly increasing"):
            BoundaryGlueMap(rho=np.zeros_like, drho=np.ones_like)

    def test_overflow_on_the_strip_is_a_domain_error(self):
        with pytest.raises(DomainError, match="out of double-precision scale on the strip"):
            glue_linear(1.5e308)

    def test_samples_the_fixed_strip(self):
        seen = []

        def drho(x):
            seen.append(x)
            return np.ones_like(x)

        BoundaryGlueMap(rho=lambda x: x + 0.0, drho=drho)
        (xs,) = seen
        assert (len(xs), xs[0], xs[-1]) == (512, flattening.X_LO, flattening.X_HI)


@pytest.mark.parametrize(
    "fn, params",
    [
        (flatten_step, ["field"]),
        (BoundaryGlueMap, ["rho", "drho"]),
        (glue_identity, []),
        (glue_linear, ["k"]),
        (glue_sine, ["amplitude"]),
    ],
    ids=["flatten_step", "BoundaryGlueMap", "glue_identity", "glue_linear", "glue_sine"],
)
def test_strip_is_not_a_parameter(fn, params):
    assert list(inspect.signature(fn).parameters) == params


class TestTauMinus1:
    def test_identity(self):
        g = glue_identity()
        pts = [(0.3, 0.2), (-1.0, 0.9)]
        assert tau_minus1(g, pts) == pts

    def test_boundary_formula(self):
        g = glue_sine(0.1)
        ((u, v),) = tau_minus1(g, [(0.5, 0.0)])
        assert v == 0.0
        assert u == pytest.approx(0.5 + 0.1 * math.sin(0.5), abs=1e-15)

    def test_vertical_lines_stay_vertical(self):
        g = glue_sine(0.1)
        out = tau_minus1(g, [(0.4, 0.1), (0.4, 0.7)])
        assert out[0][0] == out[1][0]
        assert out[0][1] == 0.1 and out[1][1] == 0.7

    def test_out_of_window(self):
        g = glue_identity()
        with pytest.raises(OutOfWindow):
            tau_minus1(g, [(5.0, 0.1)])
        with pytest.raises(OutOfWindow):
            tau_minus1(g, [(0.0, -0.1)])
        with pytest.raises(OutOfWindow):
            tau_minus1(g, [(0.0, 2.0)])


# ---------------------------------------------------------------------------
# structure fields


def at(field, x, y):
    """The field's vector at the one point (x, y)."""
    return field.func(np.array([[x, y]]))[0]


def closed_form_next(g, x, y):
    """First transported field of ``glue_sine(0.1)``: (-a, 1 + a^2) with
    a = y rho''/rho' and rho'' = -0.1 sin x."""
    a = y * (-0.1 * math.sin(x)) / float(g.drho(x))
    return (-a, 1.0 + a * a)


class TestStructureFields:
    def test_base_field_values(self):
        g = glue_sine(0.1)
        v = at(base_structure_field(g), 0.3, 0.7)
        assert v[0] == 0.0
        assert v[1] == pytest.approx(1.0 + 0.1 * math.cos(0.3), abs=1e-15)

    def test_first_step_matches_closed_form(self):
        g = glue_sine(0.1)
        v0 = next_structure_field(base_structure_field(g))
        for x, y in [(0.3, 0.2), (-0.8, 0.5), (1.1, 0.05), (0.0, 0.9)]:
            got = at(v0, x, y)
            want = closed_form_next(g, x, y)
            assert got[0] == pytest.approx(want[0], abs=1e-8)
            assert got[1] == pytest.approx(want[1], abs=1e-8)

    def test_generic_flow_route_agrees_with_exact_flow(self):
        g = glue_sine(0.1)
        base = base_structure_field(g)
        base_no_exact = type(base)(func=base.func, exact_flow=None)
        via_exact = next_structure_field(base)
        via_rk4 = next_structure_field(base_no_exact, n_steps=512)
        for x, y in [(0.25, 0.3), (-0.6, 0.8)]:
            a = at(via_exact, x, y)
            b = at(via_rk4, x, y)
            assert a[0] == pytest.approx(b[0], abs=1e-9)
            assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_boundary_row_is_vertical_unit(self):
        g = glue_sine(0.1)
        v0 = next_structure_field(base_structure_field(g))
        v = at(v0, 0.4, 0.0)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(1.0, abs=1e-12)

    def test_chain_depths(self):
        g = glue_sine(0.1)
        fields = structure_field_chain(g, 2)
        # the base field flows in closed form; each transported level by RK4
        assert [f.exact_flow is not None for f in fields] == [True, False, False]


# ---------------------------------------------------------------------------
# flatten_step


class TestFlattenStep:
    def test_standard_field_gives_identity(self):
        chart = flatten_step(
            StructureField(lambda pts: np.column_stack([np.zeros(len(pts)), np.ones(len(pts))]))
        )
        assert chart.report.boundary_max_dev == 0.0
        assert chart.report.pushforward_max_dev < 1e-9
        x, t = chart.delta(0.3, 0.5)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert t == pytest.approx(0.5, abs=1e-9)

    def test_vertical_field_closed_form(self):
        g = glue_sine(0.1)
        chart = flatten_step(base_structure_field(g))
        assert chart.report.boundary_max_dev == 0.0
        assert chart.report.min_jacobian > 0.5
        for u, v in [(0.3, 0.5), (-0.7, 0.6), (1.0, 0.25)]:
            x, t = chart.delta(u, v)
            assert x == pytest.approx(u, abs=1e-6)
            assert t == pytest.approx(v / float(g.drho(u)), abs=1e-6)

    def test_pushforward_is_vertical_unit(self):
        g = glue_sine(0.1)
        chart = flatten_step(base_structure_field(g))
        assert chart.report.pushforward_max_dev < 1e-3

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_linear_glue_chart_is_a_vertical_scaling(self, k):
        chart = flatten_step(base_structure_field(glue_linear(k)))
        assert chart.report.boundary_max_dev == 0.0
        assert chart.report.min_jacobian == pytest.approx(k, rel=1e-12)
        for u, v in [(0.3, 0.3), (-1.2, 0.1), (1.4, 0.35)]:
            x, t = chart.delta(u, v)
            assert x == pytest.approx(u, abs=1e-9)
            assert t == pytest.approx(v / k, abs=1e-9)

    def test_forward_grid_row_zero(self):
        g = glue_sine(0.1)
        chart = flatten_step(base_structure_field(g))
        assert chart.grid.shape == (flattening.GRID, flattening.GRID, 2)
        assert (chart.xs[0], chart.xs[-1]) == (flattening.X_LO, flattening.X_HI)
        assert (chart.ts[0], chart.ts[-1]) == (0.0, flattening.CHART_HEIGHT)
        for i in range(flattening.GRID):
            u, v = chart.forward(i, 0)
            assert v == 0.0
            assert u == pytest.approx(chart.xs[i], abs=1e-15)

    def test_horizontal_escape(self):
        tilted = lambda pts: np.column_stack(
            [np.full(len(pts), -2.0), np.ones(len(pts))]
        )
        with pytest.raises(CurveEscape, match="left the window horizontally"):
            flatten_step(StructureField(tilted))

    def test_vertical_escape(self):
        fast = lambda pts: np.column_stack(
            [np.zeros(len(pts)), np.full(len(pts), 3.0)]
        )
        with pytest.raises(CurveEscape, match="left the strip vertically"):
            flatten_step(StructureField(fast))

    def test_degenerate_second_component(self):
        bad = lambda pts: np.column_stack([np.zeros(len(pts)), pts[:, 0]])
        with pytest.raises(DomainError, match="not bounded below"):
            flatten_step(StructureField(bad))

    def test_folding_grid_detected(self):
        squeeze = lambda pts: np.column_stack(
            [-3.0 * np.tanh(50.0 * (pts[:, 0] - 0.3)), np.ones(len(pts))]
        )
        with pytest.raises(InversionFailure, match="grid Jacobian reaches"):
            flatten_step(StructureField(squeeze))

    def test_non_finite_curve_point_escapes(self):
        holed = lambda pts: np.column_stack(
            [np.zeros(len(pts)), np.where(pts[:, 1] > 0.5, np.nan, 1.0)]
        )
        with pytest.raises(CurveEscape, match="non-finite"):
            flatten_step(StructureField(holed))

    def test_substep_cap_escapes(self, monkeypatch):
        monkeypatch.setattr(flattening, "_MAX_SUBSTEPS", 8)
        squeeze = lambda pts: np.column_stack(
            [-3.0 * np.tanh(50.0 * (pts[:, 0] - 0.3)), np.ones(len(pts))]
        )
        with pytest.raises(CurveEscape, match="passed 8 substeps"):
            flatten_step(StructureField(squeeze))

    def test_delta_outside_certified_rectangle(self):
        g = glue_sine(0.1)
        chart = flatten_step(base_structure_field(g))
        with pytest.raises(OutOfWindow):
            chart.delta(5.0, 0.5)


@pytest.fixture(scope="module", params=[0, 1], ids=["depth0", "depth1"])
def sine_chart(request):
    """The chart of ``appb flatten --chart`` at the given depth."""
    g = glue_sine(0.1)
    field = structure_field_chain(g, request.param)[-1]
    return flatten_step(field)


class TestChartInverse:
    def test_grid_diagnostics(self, sine_chart):
        chart = sine_chart
        assert chart.substeps == 2
        assert chart.step_error <= 1e-10
        intervals = len(chart.ts) - 1
        assert chart.field_evals == 4 * intervals * (2 * chart.substeps - 1)

    def test_delta_inverts_forward_at_interior_nodes(self, sine_chart):
        chart = sine_chart
        (x0, x1), (y0, y1) = chart.report.x_valid, chart.report.y_valid
        checked = 0
        for j in range(1, len(chart.ts) - 1):
            for i in range(1, len(chart.xs) - 1):
                u, v = chart.forward(i, j)
                if not (x0 <= u <= x1 and y0 <= v <= y1):
                    continue
                x, t = chart.delta(u, v)
                assert abs(x - chart.xs[i]) <= 1e-10 and abs(t - chart.ts[j]) <= 1e-10
                checked += 1
        # only the top rows of the depth-0 chart rise above the rectangle
        assert checked >= 0.9 * (len(chart.xs) - 2) * (len(chart.ts) - 2)

    def test_spline_matches_scipy(self, sine_chart):
        interpolate = pytest.importorskip("scipy.interpolate")
        chart = sine_chart
        rng = np.random.default_rng(11)
        ts = rng.uniform(chart.ts[0], chart.ts[-1], 300)
        xs = rng.uniform(chart.xs[0], chart.xs[-1], 300)
        got = np.array([np.concatenate(chart._spline(t, x)) for t, x in zip(ts, xs)])
        for c in range(2):
            ref = interpolate.RectBivariateSpline(chart.ts, chart.xs, chart.grid[:, :, c], s=0)
            want = np.column_stack([ref.ev(ts, xs), ref.ev(ts, xs, dx=1), ref.ev(ts, xs, dy=1)])
            assert np.max(np.abs(got[:, c::2] - want)) <= 1e-12


# ---------------------------------------------------------------------------
# order verification


class TestVerifyOrders:
    def test_identity_all_infinite(self):
        report = verify_orders(glue_identity(), 1)
        assert report.all_ok
        for fit in report.fits:
            assert fit.fitted_m == INFINITE
            assert fit.fitted_n == INFINITE

    def test_linear_all_infinite(self):
        report = verify_orders(glue_linear(2.0), 1)
        assert report.all_ok
        assert report.fits[1].fitted_m == INFINITE
        assert report.fits[1].fitted_n == INFINITE

    def test_sine_level_zero_orders(self):
        report = verify_orders(glue_sine(0.1), 0)
        assert report.all_ok
        fit = report.fits[0]
        assert fit.predicted == OrderPair(1, 2)
        assert abs(fit.fitted_m - 1.0) <= 0.25
        assert abs(fit.fitted_n - 2.0) <= 0.25

    def test_sine_level_one_orders(self):
        report = verify_orders(glue_sine(0.1), 1)
        assert report.all_ok
        fit = report.fits[1]
        assert fit.predicted == OrderPair(3, 2)
        assert abs(fit.fitted_m - 3.0) <= 0.25
        assert abs(fit.fitted_n - 2.0) <= 0.25

    def test_sine_level_two_orders(self):
        report = verify_orders(glue_sine(0.1), 2)
        assert report.all_ok
        fit = report.fits[2]
        assert fit.predicted == OrderPair(3, 4)
        assert abs(fit.fitted_m - 3.0) <= 0.25
        assert abs(fit.fitted_n - 4.0) <= 0.25

    def test_rejects_large_k(self):
        with pytest.raises(DomainError):
            verify_orders(glue_sine(0.1), 3)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", sorted(flattening._LADDERS))
    def test_fit_is_the_least_squares_slope(self, k, seed):
        """The closed-form fit agrees with numpy's least-squares line,
        kept here only as the reference."""
        rng = np.random.default_rng(seed)
        ys = np.array([2.0 ** (-j) for j in flattening._LADDERS[k]])
        cs = rng.uniform(0.1, 10.0) * ys ** rng.uniform(0.5, 6.0) * rng.uniform(0.9, 1.1, ys.size)
        want = np.polyfit(np.log(ys), np.log(cs), 1)[0]
        assert flattening._fit_order(ys, cs) == pytest.approx(want, rel=1e-12)
