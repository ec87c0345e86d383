import bisect
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal._oracles import dilatation_fd
from segal.errors import DomainError, InvalidPhi, NonMonotone
from segal.quasisym import (
    CircleDiffeo,
    SampledIncreasingFunction,
    bump,
    circle_identity,
    circle_rotation,
    corner_dilatation,
    corner_transform,
    half_angle_piecewise,
    half_angle_smooth,
    qs_bound,
    sampled_exp,
    sampled_identity,
    sampled_slope_break,
    smooth_twist,
)

TWO_PI = 2.0 * math.pi


def pairwise_qs_bound(h: SampledIncreasingFunction) -> float:
    """Independent scan of the symmetric triples: for each centre and each
    right point, bisect for the left point.  A left point that resolves to
    the centre itself is not a triple."""
    xs, ys = h.xs, h.ys
    n = len(xs)
    tol = 1e-9 * (xs[-1] - xs[0])
    k = 1.0
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            t = xs[j] - xs[i]
            target = xs[i] - t
            if target < xs[0] - tol:
                break
            m = bisect.bisect_left(xs, target - tol)
            if m >= n or m == i or abs(xs[m] - target) > tol:
                continue
            rho = (ys[j] - ys[i]) / (ys[i] - ys[m])
            k = max(k, rho, 1.0 / rho)
    return k


# ---------------------------------------------------------------------------
# sampled functions and qs_bound


class TestSampledIncreasingFunction:
    def test_rejects_short(self):
        with pytest.raises(NonMonotone):
            SampledIncreasingFunction((0.0, 1.0), (0.0, 1.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(NonMonotone):
            SampledIncreasingFunction((0.0, 0.5, 1.0), (0.0, 1.0))

    def test_rejects_non_monotone_xs(self):
        with pytest.raises(NonMonotone):
            SampledIncreasingFunction((0.0, 0.5, 0.5), (0.0, 1.0, 2.0))

    def test_rejects_decreasing_ys(self):
        with pytest.raises(NonMonotone):
            SampledIncreasingFunction((0.0, 0.5, 1.0), (0.0, 2.0, 1.0))

    def test_inverted_swaps(self):
        h = sampled_exp(1.0, 16)
        g = h.inverted()
        assert g.xs == h.ys and g.ys == h.xs


class TestSampledBuilders:
    @pytest.mark.parametrize(
        "build",
        [sampled_identity, lambda n: sampled_slope_break(2.0, n), lambda n: sampled_exp(1.0, n)],
        ids=["identity", "slope", "exp"],
    )
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_a_count_below_one(self, build, n):
        with pytest.raises(DomainError, match=f"sample count must be at least 1, got {n}"):
            build(n)

    @pytest.mark.parametrize("t_max", [1000.0, -1000.0, 710.0, math.inf, 1e308])
    def test_exp_rejects_a_window_that_overflows(self, t_max):
        with pytest.raises(DomainError, match="exp overflows a float"):
            sampled_exp(t_max, 4)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, -math.inf])
    def test_exp_rejects_a_window_that_is_not_positive(self, t_max):
        message = re.escape(f"window size must be positive, got {t_max!r}")
        with pytest.raises(DomainError, match=message):
            sampled_exp(t_max, 4)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_slope_break_rejects_a_slope_that_is_not_positive_and_finite(self, k):
        with pytest.raises(NonMonotone, match="slope must be positive"):
            sampled_slope_break(k, 4)

    def test_exp_takes_the_widest_window_that_fits(self):
        h = sampled_exp(709.0, 4)
        assert h.ys[-1] == math.exp(709.0)


class TestQsBound:
    def test_identity_exact_one(self):
        assert qs_bound(sampled_identity(128)) == 1.0

    def test_affine_exact_one(self):
        h = SampledIncreasingFunction.from_callable(lambda x: 3.0 * x - 2.0, -1.0, 1.0, 64)
        assert qs_bound(h) == pytest.approx(1.0, abs=1e-12)

    def test_slope_break_exact_two(self):
        assert qs_bound(sampled_slope_break(2.0, 128)) == 2.0

    def test_slope_break_exact_half_slope(self):
        # slope 1/2 on the right gives the same distortion from the 1/rho side
        assert qs_bound(sampled_slope_break(0.5, 128)) == 2.0

    def test_exp_reaches_window_width(self):
        t_max = 1.0
        k = qs_bound(sampled_exp(t_max, 128))
        assert k >= math.exp(t_max) * (1.0 - 1e-6)
        # no sampled triple can exceed e^{t_max} for this grid
        assert k <= math.exp(t_max) * (1.0 + 1e-6)

    def test_inversion_symmetry(self):
        # symmetric triples of h^{-1} are images of triples of h with
        # reciprocal ratios only in the affine case; for the broken line the
        # bound is still attained at the kink from either side
        h = sampled_slope_break(3.0, 64)
        assert qs_bound(h.inverted()) == pytest.approx(qs_bound(h), abs=1e-12)

    def test_at_least_one(self):
        h = SampledIncreasingFunction((0.0, 1.0, 3.0), (0.0, 1.0, 3.0))
        assert qs_bound(h) >= 1.0

    @pytest.mark.parametrize(
        "ys", [(0.0, 5e-324, 1e308), (-1e308, 0.0, 5e-324)], ids=["ratio", "inverse"]
    )
    def test_ratio_overflow_is_input_error(self, ys):
        h = SampledIncreasingFunction((0.0, 0.5, 1.0), ys)
        with pytest.raises(DomainError, match="overflows double precision"):
            qs_bound(h)

    def test_close_samples_are_not_a_triple(self):
        # 0.5 and 0.5 + 1e-10 are closer than the 1e-9 * span tolerance, so
        # the left point of (0.5 - t, 0.5, 0.5 + 1e-10) resolves to the
        # centre itself; that match is skipped, not divided by zero.
        h = SampledIncreasingFunction((0.0, 0.5, 0.5000000001, 1.0), (0.0, 0.5, 0.6, 1.0))
        k = qs_bound(h)
        assert math.isfinite(k)
        # the largest distortion is at the triple (0, 0.5 + 1e-10, 1)
        assert k == 1.0 / ((1.0 - 0.6) / (0.6 - 0.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-10.0, 10.0),
        st.lists(
            st.one_of(
                st.integers(1, 4).map(lambda g: g / 4),
                st.sampled_from([1e-10, 3e-11]),
                st.floats(1e-3, 2.0),
            ),
            min_size=2,
            max_size=40,
        ),
        st.data(),
    )
    def test_matches_pairwise_scan(self, x0, gaps, data):
        xs = [x0]
        for g in gaps:
            xs.append(xs[-1] + g)
        dys = data.draw(st.lists(st.floats(1e-6, 5.0), min_size=len(xs) - 1, max_size=len(xs) - 1))
        ys = [0.0]
        for d in dys:
            ys.append(ys[-1] + d)
        h = SampledIncreasingFunction(tuple(xs), tuple(ys))
        got = qs_bound(h)
        assert type(got) is float
        assert got == pairwise_qs_bound(h)


# ---------------------------------------------------------------------------
# circle diffeomorphisms


class TestCircleDiffeo:
    def test_identity_winding(self):
        phi = circle_identity()
        assert phi.angle(TWO_PI + 0.5) == pytest.approx(TWO_PI + 0.5)

    def test_rotation_moves_basepoint(self):
        phi = circle_rotation(0.7)
        assert phi.angle(0.0) == 0.7

    def test_rejects_wrong_winding(self):
        with pytest.raises(InvalidPhi):
            CircleDiffeo(lambda t: 2.0 * t, 2.0, 2.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidPhi):
            CircleDiffeo(lambda t: t + 0.8 * math.sin(2.0 * t), -0.6, 2.6)

    def test_piecewise_profile_nodes(self):
        phi = half_angle_piecewise()
        assert phi.psi(0.0) == 0.0
        assert phi.psi(math.pi) == pytest.approx(0.5 * math.pi)
        assert phi.psi(1.5 * math.pi) == pytest.approx(math.pi)
        assert phi.psi(TWO_PI) == pytest.approx(TWO_PI)

    def test_smooth_profile_joins(self):
        phi = half_angle_smooth()
        assert phi.psi(TWO_PI) == pytest.approx(TWO_PI, abs=1e-12)
        # first derivative continuous across theta = pi: both one-sided
        # difference quotients there give the half-angle slope
        h = 1e-6
        assert (phi.psi(math.pi) - phi.psi(math.pi - h)) / h == pytest.approx(0.5, abs=1e-8)
        assert (phi.psi(math.pi + h) - phi.psi(math.pi)) / h == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# corner map


class TestCornerMap:
    def test_rejects_profiles_not_half_angle_above(self):
        with pytest.raises(InvalidPhi):
            corner_transform(circle_identity())
        with pytest.raises(InvalidPhi):
            corner_transform(circle_rotation(0.3))

    def test_rejects_lift_that_is_nan_above(self):
        base = half_angle_piecewise()
        phi = CircleDiffeo(
            lambda t: math.nan if 1.0 < t < 2.0 else base.psi(t), 0.5, 2.0
        )
        with pytest.raises(InvalidPhi, match="theta=1.00"):
            corner_transform(phi)

    def test_half_angle_check_samples_the_linspace_angles(self):
        """The lift is checked at the angles of np.linspace(0, pi, 257), bit for bit."""
        seen = []
        base = half_angle_piecewise()

        def psi(t):
            seen.append(t)
            return base.psi(t)

        phi = CircleDiffeo(psi, 0.5, 2.0)
        seen.clear()
        corner_transform(phi)
        assert seen == np.linspace(0.0, math.pi, 257).tolist()

    def test_right_angle_at_minus_one(self):
        sigma = corner_transform(half_angle_piecewise())
        assert abs(sigma(-1.0 + 0.0j) - 1j) < 1e-12
        assert abs(sigma(1.0 + 0.0j) - 1.0) < 1e-12

    def test_upper_half_plane_to_first_quadrant(self):
        sigma = corner_transform(half_angle_piecewise())
        for k in range(32):
            z = 2.0 * cmath.exp(1j * (math.pi * (k + 0.5) / 32))
            w = sigma(z)
            assert w.real >= -1e-12 and w.imag >= -1e-12

    def test_radial_scaling(self):
        sigma = corner_transform(half_angle_smooth())
        z = cmath.exp(1j * 2.2)
        assert abs(sigma(4.0 * z) - 2.0 * sigma(z)) < 1e-12
        assert abs(abs(sigma(4.0 * z)) - 2.0) < 1e-12

    def test_origin_fixed(self):
        sigma = corner_transform(half_angle_piecewise())
        assert sigma(0.0 + 0.0j) == 0.0

    def test_piecewise_dilatation_exact(self):
        phi = half_angle_piecewise()
        k_true = corner_dilatation(phi)
        assert k_true == 4.0
        # for this profile the bound max(max'/2, 2/min') coincides
        assert max(0.5 * phi.deriv_max, 2.0 / phi.deriv_min) == k_true

    def test_smooth_dilatation_exact(self):
        assert corner_dilatation(half_angle_smooth()) == 5.0

    def test_corner_map_returns_images_and_k(self):
        phi = half_angle_piecewise()
        sigma = corner_transform(phi)
        images = [sigma(z) for z in (1.0, -1.0, 4.0j)]
        assert corner_dilatation(phi) == 4.0
        assert abs(images[0] - 1.0) < 1e-12
        assert abs(images[1] - 1j) < 1e-12
        assert abs(images[2] - 2.0 * cmath.exp(0.25j * math.pi)) < 1e-12

    @pytest.mark.parametrize(
        "builder", [half_angle_piecewise, half_angle_smooth], ids=["piecewise", "smooth"]
    )
    def test_fd_dilatation_matches(self, builder):
        # sample sector midpoints so no finite-difference stencil straddles
        # a slope break of the profile
        phi = builder()
        sigma = corner_transform(phi)
        k_true = corner_dilatation(phi)
        worst = 0.0
        for j in range(256):
            theta = TWO_PI * (j + 0.5) / 256
            worst = max(worst, dilatation_fd(sigma, cmath.exp(1j * theta), 1e-6))
        assert worst == pytest.approx(k_true, rel=0.05)
        assert worst <= k_true * (1.0 + 1e-4)


# ---------------------------------------------------------------------------
# bump and twist


class TestBump:
    def test_endpoints_bitwise(self):
        assert bump(0.0) == 0.0
        assert bump(1.0) == 1.0

    def test_midpoint(self):
        assert bump(0.5) == 0.5

    def test_monotone(self):
        vals = [bump(j / 64) for j in range(65)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_flat_near_ends(self):
        # exp(-1/t) underflows for t this small, so the tails are exact
        assert bump(1e-3) == 0.0
        assert bump(1.0 - 1e-3) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bump(-0.1)
        with pytest.raises(DomainError):
            bump(1.1)


class TestSmoothTwist:
    def test_bad_radii(self):
        with pytest.raises(DomainError, match="need 0 < r1 < r2"):
            smooth_twist(circle_identity(), 2.0, 1.0)
        with pytest.raises(DomainError, match="twist radius r2 must be finite"):
            smooth_twist(circle_identity(), 1.0, math.inf)

    def test_boundary_exact_at_nodes(self):
        twist, report = smooth_twist(half_angle_smooth(), 1.0, 2.0)
        assert report.inner_max_dev == 0.0
        assert report.outer_max_dev == 0.0

    def test_jacobian_positive(self):
        _, report = smooth_twist(half_angle_smooth(), 1.0, 2.0)
        assert report.min_jacobian > 0.0

    def test_endpoint_flatness(self):
        _, report = smooth_twist(half_angle_smooth(), 1.0, 2.0)
        assert report.endpoint_flatness < 1e-8

    def test_rotation_is_rigid(self):
        twist, report = smooth_twist(circle_rotation(0.9), 1.0, 2.0)
        assert report.rigid_rotation
        assert report.phase == pytest.approx(0.9)
        # every circle of the annulus is rotated rigidly
        for r in (1.0, 1.3, 1.7, 2.0):
            base = twist.angle(r, 0.0)
            for t in (0.5, 2.0, 5.0):
                assert twist.angle(r, t) - t == pytest.approx(base, abs=1e-12)

    def test_generic_profile_not_rigid(self):
        _, report = smooth_twist(half_angle_smooth(), 1.0, 2.0)
        assert not report.rigid_rotation

    def test_radius_preserved(self):
        twist, _ = smooth_twist(half_angle_piecewise(), 0.5, 3.0)
        for z in (0.5 + 0.0j, 1.2j, -2.0 + 0.1j):
            if 0.5 <= abs(z) <= 3.0:
                assert abs(abs(twist(z)) - abs(z)) < 1e-12

    def test_restriction_composes(self):
        # at the inner rim the twists restrict to their circle maps, so
        # composing two twists there composes the maps
        phi1 = circle_rotation(0.4)
        phi2 = half_angle_smooth()
        t1, _ = smooth_twist(phi1, 1.0, 2.0)
        t2, _ = smooth_twist(phi2, 1.0, 2.0)
        for theta in (0.0, 1.0, 2.5):
            w = t2(t1(cmath.exp(1j * theta)) / abs(t1(cmath.exp(1j * theta))))
            expected = cmath.exp(1j * phi2.angle(phi1.angle(theta)))
            assert abs(w - expected) < 1e-10

    def test_midradius_interpolates(self):
        twist, _ = smooth_twist(half_angle_smooth(), 1.0, 2.0)
        # half way through the second stage the angle is a strict blend
        r = 1.75
        a = twist.angle(r, 2.0)
        lo = min(half_angle_smooth().angle(2.0) - twist.phase, 2.0)
        hi = max(half_angle_smooth().angle(2.0) - twist.phase, 2.0)
        assert lo - 1e-12 <= a <= hi + 1e-12

    def test_jacobian_degenerate_guard(self):
        # a profile with tiny positive slope stays valid; the twist keeps
        # the angular derivative positive throughout
        twist, report = smooth_twist(half_angle_piecewise(), 1.0, 2.0)
        assert report.min_jacobian > 0.4
