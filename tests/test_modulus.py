import math
import random
from fractions import Fraction

import pytest

from segal import corpus, modulus
from segal._oracles import module_agm
from segal.acceptance import load_corpus
from segal.errors import DegenerateQuad, DomainError
from segal.modulus import (
    QuadrilateralSpec,
    _adaptive_kronrod,
    check_geometric_qc,
    cross_ratio,
    module_of_quad,
    module_rect,
    module_sc,
    normalize_quad,
    rotated_position,
)


def test_spec_validation():
    with pytest.raises(DegenerateQuad):
        QuadrilateralSpec(0, 1, 1, 2)
    with pytest.raises(DegenerateQuad):
        QuadrilateralSpec(3, 2, 1, 0)
    with pytest.raises(DegenerateQuad):
        QuadrilateralSpec(0, 1e-14, 1, 2)
    with pytest.raises(DegenerateQuad):
        QuadrilateralSpec(-math.inf, 0, 1, 2)
    with pytest.raises(DegenerateQuad):
        QuadrilateralSpec(0, 1, 2, math.nan)
    QuadrilateralSpec(0, 1, 2, math.inf)


def test_normalize_examples():
    assert normalize_quad(QuadrilateralSpec(-1, 0, 1, 3)) == pytest.approx(3, abs=1e-14)
    assert normalize_quad(QuadrilateralSpec(0, 1, 2, 4)) == pytest.approx(3, abs=1e-14)
    assert normalize_quad(QuadrilateralSpec(-1, 0, 1, math.inf)) == math.inf


def test_normalize_wrapped_branch():
    x = normalize_quad(QuadrilateralSpec(-2, -2 / 3, -2 / 7, 2))
    assert x == pytest.approx(-3, abs=1e-12)


def _exact_position(z0, z1, z2, z3):
    """The normalized position in rational arithmetic, rounded once."""
    a, b = Fraction(z1) - Fraction(z0), Fraction(z2) - Fraction(z1)
    if math.isinf(z3):
        return float((a + b) / (b - a))
    c = Fraction(z3) - Fraction(z2)
    return float((a + b) * (b + c) / (b * (a + b) + c * (b - a)))


@pytest.mark.parametrize(
    "zs",
    [(0, 1, 2, 1e8), (0, 1, 2, 1e308), (0, 1, 12, 1e308), (-1.7e308, 1.7e308, 1.75e308, math.inf)],
)
def test_position_of_far_points_is_exact(zs):
    assert normalize_quad(QuadrilateralSpec(*zs)) == _exact_position(*zs)


def test_position_matches_rational_arithmetic():
    rng = random.Random(19)
    worst = 0.0
    for _ in range(20_000):
        zs = sorted(rng.uniform(-4, 4) for _ in range(4))
        want = _exact_position(*zs)
        worst = max(worst, abs(normalize_quad(QuadrilateralSpec(*zs)) - want) / abs(want))
    assert worst <= 1e-11


def test_normalize_preserves_cross_ratio():
    rng = random.Random(0)
    for _ in range(200):
        q = QuadrilateralSpec(*sorted(rng.uniform(-5, 5) for _ in range(4)))
        x = normalize_quad(q)
        assert abs(x) > 1
        if math.isfinite(x):
            assert cross_ratio(-1, 0, 1, x) == pytest.approx(
                cross_ratio(*q.vertices), rel=1e-12
            )


@pytest.mark.parametrize(
    "zs, expected",
    [
        ((0.0, 1.0, 2.0, 1e308), 2.0),  # both products overflow
        ((-1e308, 0.0, 1.0, 1e308), 5e307),  # z0 - z3 overflows
        ((-1e308, 0.0, 1e308, math.inf), 2.0),  # z0 - z2 overflows
    ],
)
def test_cross_ratio_far_points(zs, expected):
    assert cross_ratio(*zs) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "zs",
    [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 2.0), (-1e308, 5e-324, 0.0, 1e308), (math.nan, 0, 1, 2)],
)
def test_cross_ratio_rejects_degenerate_or_unrepresentable(zs):
    with pytest.raises(DegenerateQuad):
        cross_ratio(*zs)


def test_affine_images_normalize_identically():
    rng = random.Random(1)
    for _ in range(100):
        q = QuadrilateralSpec(*sorted(rng.uniform(-3, 3) for _ in range(4)))
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(-5.0, 5.0)
        qa = QuadrilateralSpec(*(a * z + b for z in q.vertices))
        assert normalize_quad(qa) == pytest.approx(normalize_quad(q), rel=1e-11)


@pytest.mark.parametrize(
    "x",
    [1.5, 2.0, 3.0, 5.0, 10.0, -1.5, -3.0, -10.0]
    + [1 + 1e-4, -(1 + 1e-4), 1 + 1e-6, -(1 + 1e-6)],
)
def test_module_matches_agm_oracle(x):
    assert abs(module_sc(x) - module_agm(x)) <= 1e-8


@pytest.mark.parametrize("x", [-(1 + 3e-9), -(1 + 1e-8), -(1 + 1e-5), 1 + 1e-8])
def test_module_matches_agm_oracle_at_the_edge(x):
    """Both routes keep full precision within 1e-8 of the edge |u| = 1."""
    assert abs(module_sc(x) - module_agm(x)) <= 1e-14


def test_quadrature_bisects_a_narrow_peak():
    """A peak of width 1e-3 makes the scheme bisect, which no module
    position does: the first rule call and 13 bisections of two calls each
    reach the closed-form integral."""
    eps, calls = 1e-3, []

    def peak(us):
        calls.append(len(us))
        return [1.0 / (eps * eps + (u - 0.3) ** 2) for u in us]

    value, _err = _adaptive_kronrod(peak, [0.0, 1.0])
    exact = (math.atan(0.7 / eps) + math.atan(0.3 / eps)) / eps
    assert len(calls) == 27
    assert value == pytest.approx(exact, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_module_just_past_the_edge_is_finite_and_monotone(sign):
    xs = [sign * (1.0 + d) for d in (2e-9, 3e-9, 4e-9)]
    ms = [module_sc(x) for x in xs]
    assert all(math.isfinite(m) for m in ms)
    if sign > 0:
        assert 0.0 < ms[0] < ms[1] < ms[2] < 1.0
    else:
        assert ms[0] > ms[1] > ms[2] > 1.0


@pytest.mark.parametrize("x", [1 + 3e-9, 1.00001, 1.5, 2.0, 3.0, 1e6])
def test_mirrored_position_inverts_module(x):
    """s -> -s swaps the two period integrals exactly, term for term."""
    assert module_sc(x) * module_sc(-x) == pytest.approx(1.0, abs=1e-15)


def test_module_at_infinity():
    assert module_sc(math.inf) == 1.0
    assert module_of_quad(QuadrilateralSpec(-1, 0, 1, math.inf)) == 1.0


def test_module_domain_errors():
    with pytest.raises(DomainError):
        module_sc(0.5)
    with pytest.raises(DomainError):
        module_sc(1.0)
    with pytest.raises(DomainError):
        module_sc(-1.0 + 1e-12)
    with pytest.raises(DomainError):
        module_sc(math.nan)


def test_module_monotone_in_position():
    xs = [1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0]
    ms = [module_sc(x) for x in xs]
    assert all(a < b for a, b in zip(ms, ms[1:]))
    assert all(0 < m < 1 for m in ms)
    # The wrapped branch continues past the value 1 at infinity.
    xs_w = [-50.0, -10.0, -5.0, -2.0, -1.2]
    ms_w = [module_sc(x) for x in xs_w]
    assert all(a < b for a, b in zip(ms_w, ms_w[1:]))
    assert all(m > 1 for m in ms_w)


def test_rotation_negates_position():
    for x in (1.5, 2.0, 3.0, 7.0, -2.0, -5.0, 1e8, -1e308):
        assert rotated_position(x) == -x


@pytest.mark.parametrize("x", [1.5, 2.0, 3.0, 5.0, 10.0, -2.5])
def test_rotation_reciprocity(x):
    assert module_sc(x) * module_sc(rotated_position(x)) == pytest.approx(1.0, abs=1e-6)


def test_module_moebius_invariance():
    rng = random.Random(2)
    for _ in range(25):
        q = QuadrilateralSpec(*sorted(rng.uniform(-3, 3) for _ in range(4)))
        m = module_of_quad(q)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-2.0, 2.0)
        affine = QuadrilateralSpec(*(a * z + b for z in q.vertices))
        assert module_of_quad(affine) == pytest.approx(m, abs=1e-8)
        # Inversion anchored left of the quad keeps the order.
        c = q.z0 - rng.uniform(0.5, 2.0)
        inverted = QuadrilateralSpec(*(-1.0 / (z - c) for z in q.vertices))
        assert module_of_quad(inverted) == pytest.approx(m, abs=1e-8)


def test_module_rect_values():
    assert module_rect(1, 1) == 1
    assert module_rect(2, 1) == 2
    assert module_rect(1, 2) == 0.5
    with pytest.raises(DomainError):
        module_rect(0, 1)


def test_check_geometric_qc_conformal_case():
    quads = [QuadrilateralSpec(*q) for q in corpus.generate_quads(seed=3, count=10)]
    report = check_geometric_qc(1.0, quads)
    assert report.within_bounds
    for r in report.quad_ratios + report.rect_ratios:
        assert r == pytest.approx(1.0, abs=1e-8)


def test_check_geometric_qc_stretch():
    quads = [QuadrilateralSpec(*q) for q in corpus.generate_quads(seed=4, count=15)]
    report = check_geometric_qc(2.0, quads)
    assert report.within_bounds
    assert report.max_ratio >= 1.99
    assert max(report.rect_ratios) == pytest.approx(2.0, abs=1e-12)
    # Boundary dilations are conformal symmetries of the half-plane, so the
    # half-plane corpus cannot leave ratio 1; rectangles carry the sup.
    for r in report.quad_ratios:
        assert r == pytest.approx(1.0, abs=1e-8)


def test_check_geometric_qc_integrates_each_position_once(monkeypatch):
    """The stretch by 2 leaves each bundled quad's normalized position as it
    is, so the 50 quads take 50 quadratures, not 100, for the same ratios."""
    quads = [QuadrilateralSpec(*q) for q in load_corpus().quads]
    expected = tuple(module_of_quad(q.scaled(2.0)) / module_of_quad(q) for q in quads)
    positions = []
    monkeypatch.setattr(modulus, "module_sc", lambda x: positions.append(x) or module_sc(x))
    assert check_geometric_qc(2.0, quads).quad_ratios == expected
    assert len(positions) == len(set(positions)) == len(quads) == 50


@pytest.mark.parametrize("count", [0, -1])
def test_generate_quads_rejects_empty_count(count):
    with pytest.raises(DomainError):
        corpus.generate_quads(seed=0, count=count)


def test_random_corpus_modules_finite():
    quads = corpus.generate_quads(seed=5, count=30)
    wrapped = 0
    for t in quads:
        q = QuadrilateralSpec(*t)
        x = normalize_quad(q)
        if x < 0:
            wrapped += 1
        m = module_of_quad(q)
        assert m > 0 and math.isfinite(m)
    assert wrapped > 0
