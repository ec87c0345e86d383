import json
import math
import random

import numpy as np
import pytest

from segal._oracles import dilatation_fd, wirtinger_fd
from segal.beltrami import (
    ACSMatrix,
    DilatationField,
    LinearMapZZbar,
    abs_mu_from_K,
    acs_from_frame,
    acs_from_mu,
    dilatation_K,
    field_distance,
    mu_from_acs,
    mu_of_linear,
    pullback_field,
    pullback_mu,
    sew_sections,
    teichmuller_distance,
    transform_field,
    transform_mu,
)
from segal.errors import (
    DegenerateFrame,
    DomainError,
    GridMismatch,
    InvalidACS,
    NotOrientationPreserving,
    OutOfDisc,
)


def sample_mu(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    t = 2.0 * math.pi * rng.random()
    return r * complex(math.cos(t), math.sin(t))


# ---------------------------------------------------------------------------
# scalar calculus


def test_mu_of_linear_examples():
    assert mu_of_linear(LinearMapZZbar(1, 0)) == 0
    m = LinearMapZZbar(1.5, 0.5)
    assert mu_of_linear(m) == pytest.approx(1 / 3, abs=1e-15)
    with pytest.raises(NotOrientationPreserving):
        LinearMapZZbar(1, 1)


def test_mu_of_linear_against_fd_oracle():
    # Horizontal double stretch as an explicit point map.
    def f(z):
        return complex(2.0 * z.real, z.imag)

    m = LinearMapZZbar.from_real_matrix(2, 0, 0, 1)
    fz, fzbar = wirtinger_fd(f, 0.3 + 0.7j)
    assert fzbar / fz == pytest.approx(mu_of_linear(m), abs=1e-9)
    assert mu_of_linear(m) == pytest.approx(1 / 3, abs=1e-15)


def test_from_real_matrix_evaluates_like_the_matrix():
    rng = random.Random(7)
    for _ in range(50):
        m11, m12, m21, m22 = (rng.uniform(-2, 2) for _ in range(4))
        if m11 * m22 - m12 * m21 <= 0.05:
            continue
        lin = LinearMapZZbar.from_real_matrix(m11, m12, m21, m22)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = lin(z)
        assert w.real == pytest.approx(m11 * z.real + m12 * z.imag, abs=1e-12)
        assert w.imag == pytest.approx(m21 * z.real + m22 * z.imag, abs=1e-12)


def test_dilatation_K_values():
    assert dilatation_K(0) == 1.0
    assert dilatation_K(1 / 3) == pytest.approx(2.0, abs=1e-15)
    assert dilatation_K(0.9) == pytest.approx(19.0, abs=1e-12)
    with pytest.raises(OutOfDisc):
        dilatation_K(1.0)
    with pytest.raises(OutOfDisc):
        dilatation_K(1.0 - 1e-10)


def test_K_roundtrip_bulk():
    rng = random.Random(0)
    for _ in range(10_000):
        mu = sample_mu(rng)
        assert abs(abs_mu_from_K(dilatation_K(mu)) - abs(mu)) <= 1e-12


def test_abs_mu_from_K_returns_only_moduli_the_disc_rule_accepts():
    # every decade up to 1e308, and densely where (K-1)/(K+1) meets 1 - 1e-9
    Ks = [*np.geomspace(1.0, 1e308, 2000), *np.linspace(1.99e9, 2.01e9, 2001)]
    accepted = 0
    for K in map(float, Ks):
        try:
            r = abs_mu_from_K(K)
        except OutOfDisc:
            assert K > 1.99e9
            continue
        accepted += 1
        assert dilatation_K(r) >= 1.0
    assert accepted > 1000
    with pytest.raises(OutOfDisc, match="too close to 1"):
        abs_mu_from_K(1e308)


def test_transform_trivial_cases():
    rng = random.Random(1)
    for _ in range(100):
        mu = sample_mu(rng)
        # Conformal inner map: nothing changes.
        assert transform_mu(mu, 0, 2.0, 0) == pytest.approx(mu, abs=1e-15)
        # Composite equals inner map: outer map is conformal.
        assert transform_mu(mu, mu, 1 + 0.3j, 0.1j) == 0


def test_pullback_trivial_cases():
    assert pullback_mu(0, 0, 1) == 0
    rng = random.Random(2)
    for _ in range(100):
        nu = sample_mu(rng)
        t = rng.uniform(0, 2 * math.pi)
        u = complex(math.cos(t), math.sin(t))
        # Conformal g rotates by the conjugate phase.
        assert pullback_mu(nu, 0, u) == pytest.approx(nu / u, abs=1e-14)


def test_transform_pullback_roundtrip():
    rng = random.Random(3)
    for _ in range(1000):
        mu = sample_mu(rng)
        mu_f = sample_mu(rng)
        fz = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(fz) < 0.1:
            continue
        fzbar = mu_f * fz
        nu = transform_mu(mu, mu_f, fz, fzbar)
        back = pullback_mu(nu, mu_f, fz / fz.conjugate())
        assert abs(back - mu) <= 1e-12
        # And the other composition order.
        again = transform_mu(pullback_mu(mu, mu_f, fz / fz.conjugate()), mu_f, fz, fzbar)
        assert abs(again - mu) <= 1e-12


def test_transform_outputs_stay_in_disc():
    rng = random.Random(4)
    for _ in range(500):
        nu = transform_mu(sample_mu(rng, 0.98), sample_mu(rng, 0.98), 1 + 1j, 0)
        assert abs(nu) < 1


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0)])
def test_non_finite_mu_rejected(bad):
    with pytest.raises(OutOfDisc):
        teichmuller_distance(bad, 0.1)
    with pytest.raises(OutOfDisc):
        dilatation_K(bad)


def test_teichmuller_distance_values():
    assert teichmuller_distance(0.2 + 0.1j, 0.2 + 0.1j) == 0
    assert teichmuller_distance(0, 1 / 3) == pytest.approx(math.log(2), abs=1e-15)
    rng = random.Random(5)
    for _ in range(200):
        m1, m2, m3 = (sample_mu(rng) for _ in range(3))
        d12 = teichmuller_distance(m1, m2)
        assert d12 == pytest.approx(teichmuller_distance(m2, m1), abs=1e-13)
        assert d12 >= 0
        assert d12 <= teichmuller_distance(m1, m3) + teichmuller_distance(m3, m2) + 1e-12


def test_distance_invariant_under_disc_automorphisms():
    rng = random.Random(6)
    for _ in range(200):
        m1, m2, a = sample_mu(rng), sample_mu(rng), sample_mu(rng, 0.8)
        t = rng.uniform(0, 2 * math.pi)
        phase = complex(math.cos(t), math.sin(t))
        f = lambda w: phase * (w - a) / (1 - a.conjugate() * w)
        assert teichmuller_distance(f(m1), f(m2)) == pytest.approx(
            teichmuller_distance(m1, m2), abs=1e-10
        )


def test_transform_is_distance_isometry():
    rng = random.Random(7)
    for _ in range(1000):
        mu_f = sample_mu(rng)
        fz = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(fz) < 0.1:
            continue
        fzbar = mu_f * fz
        m1, m2 = sample_mu(rng), sample_mu(rng)
        d0 = teichmuller_distance(m1, m2)
        d1 = teichmuller_distance(
            transform_mu(m1, mu_f, fz, fzbar), transform_mu(m2, mu_f, fz, fzbar)
        )
        assert abs(d1 - d0) <= 1e-10


# ---------------------------------------------------------------------------
# almost-complex structures


def _matrix(J) -> np.ndarray:
    return np.array([[J.j11, J.j12], [J.j21, J.j22]])


def test_standard_frame_gives_rotation():
    J = acs_from_frame(1.0, 0.0)
    assert (J.j11, J.j12, J.j21, J.j22) == (0.0, -1.0, 1.0, -0.0)
    assert (_matrix(J) @ (1, 0)).tolist() == [0.0, 1.0]


def test_frame_constraints_hold():
    rng = random.Random(8)
    for _ in range(300):
        A = rng.uniform(0.05, 3.0)
        B = rng.uniform(-3.0, 3.0)
        J = acs_from_frame(A, B)
        m = _matrix(J)
        assert np.abs(m @ m + np.eye(2)).max() <= 1e-12 * max(1.0, np.abs(m).max() ** 2)
        v = m @ (A, B)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_and_flipped_frames():
    with pytest.raises(DegenerateFrame):
        acs_from_frame(0.0, 1.0)
    with pytest.raises(NotOrientationPreserving):
        acs_from_frame(-1.0, 0.0)


def test_acs_matrix_validation():
    with pytest.raises(InvalidACS):
        ACSMatrix(1, 0, 0, 1)
    with pytest.raises(InvalidACS):
        ACSMatrix(0, 1, -1, 0)  # negatively oriented rotation


def test_mu_from_acs_examples():
    assert mu_from_acs(ACSMatrix(0, -1, 1, 0)) == 0
    # Structure pulled back through the horizontal double stretch.
    J = acs_from_frame(0.5, 0.0)
    assert (J.j11, J.j12, J.j21, J.j22) == (0.0, -0.5, 2.0, -0.0)
    assert mu_from_acs(J) == pytest.approx(1 / 3, abs=1e-15)


def test_mu_acs_roundtrip():
    rng = random.Random(9)
    for _ in range(300):
        mu = sample_mu(rng)
        assert mu_from_acs(acs_from_mu(mu)) == pytest.approx(mu, abs=1e-12)


def test_frame_mu_matches_linear_map_route():
    # The frame (A,B) is where the inverse differential sends the first basis
    # vector when it fixes the second; the corresponding point map is
    # (x, y) -> (x/A, y - Bx/A), i.e. c = (1 - iB)/A in z/conj(z) form.
    rng = random.Random(10)
    for _ in range(300):
        A = rng.uniform(0.05, 3.0)
        B = rng.uniform(-3.0, 3.0)
        c = (1 - 1j * B) / A
        lin = LinearMapZZbar((c + 1) / 2, (c - 1) / 2)
        mu_direct = mu_of_linear(lin)
        mu_via_acs = mu_from_acs(acs_from_frame(A, B))
        assert mu_via_acs == pytest.approx(mu_direct, abs=1e-12)


# ---------------------------------------------------------------------------
# fields


def test_constant_field_distance():
    a = DilatationField.constant(0.0, 0, 1, 0, 1, 8, 4)
    b = DilatationField.constant(1 / 3, 0, 1, 0, 1, 8, 4)
    assert field_distance(a, a) == 0.0
    assert field_distance(a, b) == pytest.approx(math.log(2), abs=1e-15)


def test_field_rejects_edge_values():
    with pytest.raises(OutOfDisc):
        DilatationField.constant(1.0 - 1e-10, 0, 1, 0, 1, 2, 2)


def test_field_grid_mismatch():
    a = DilatationField.constant(0.0, 0, 1, 0, 1, 4, 4)
    b = DilatationField.constant(0.0, 0, 1, 0, 1, 4, 5)
    c = DilatationField.constant(0.0, 0, 2, 0, 1, 4, 4)
    with pytest.raises(GridMismatch):
        field_distance(a, b)
    with pytest.raises(GridMismatch):
        field_distance(a, c)


def test_field_json_roundtrip():
    z = np.linspace(-0.7, 1.7, 5) + 1j * np.linspace(1 / 6, 5 / 6, 3)[:, None]
    f = DilatationField(-1, 2, 0, 1, 0.4 * z / (1 + abs(z)))
    d = f.to_json()
    assert d["schema"] == "segal.field/1"
    g = DilatationField.from_json(json.loads(json.dumps(d)))
    assert g.values.shape == f.values.shape
    assert np.array_equal(g.values, f.values)
    assert (g.x0, g.x1, g.y0, g.y1) == (f.x0, f.x1, f.y0, f.y1)


def test_field_json_must_be_object():
    with pytest.raises(GridMismatch):
        DilatationField.from_json([1, 2])


def test_value_at_cell_ownership():
    vals = np.array([[0.1, 0.2]])
    f = DilatationField(0.0, 2.0, 0.0, 1.0, vals)
    assert f.value_at(0.5, 0.5) == 0.1
    assert f.value_at(1.5, 0.5) == 0.2
    # The interior cell boundary belongs to the left cell.
    assert f.value_at(1.0, 0.5) == 0.1
    assert f.value_at(0.0, 0.0) == 0.1
    assert f.value_at(2.0, 1.0) == 0.2
    with pytest.raises(GridMismatch):
        f.value_at(2.5, 0.5)


def test_sew_along_x_and_y():
    a = DilatationField.constant(0.1, 0, 1, 0, 1, 4, 4)
    b = DilatationField.constant(0.2, 1, 2, 0, 1, 4, 4)
    s = sew_sections(a, b, "x")
    assert (s.x0, s.x1) == (0, 2)
    assert s.nx == 8 and s.ny == 4
    assert s.sup_abs() == 0.2
    assert s.value_at(1.0, 0.5) == pytest.approx(0.1)

    c = DilatationField.constant(0.3, 0, 1, 1, 2, 4, 4)
    s2 = sew_sections(a, c, "y")
    assert (s2.y0, s2.y1) == (0, 2)
    assert s2.value_at(0.5, 1.0) == pytest.approx(0.1)

    with pytest.raises(GridMismatch):
        sew_sections(b, a, "x")
    with pytest.raises(GridMismatch):
        sew_sections(a, DilatationField.constant(0.2, 1, 2, 0, 1, 4, 5), "x")
    with pytest.raises(GridMismatch):
        sew_sections(a, DilatationField.constant(0.2, 1, 3, 0, 1, 4, 4), "x")


def test_sew_along_y_stacks_rows():
    below = DilatationField(0, 1, 0, 1, np.array([[0.1, 0.2], [0.3, 0.4]]))
    above = DilatationField(0, 1, 1, 2, np.array([[0.5, 0.6], [0.7, 0.8]]))
    s = sew_sections(below, above, "y")
    assert (s.nx, s.ny, s.dy) == (2, 4, below.dy)
    assert np.array_equal(s.values, np.vstack([below.values, above.values]))
    assert s.value_at(0.75, 1.25) == 0.6


# a field that does not continue a 4x4 field on the unit square upwards
NOT_ABOVE = {
    "gap": (DilatationField.constant(0.2, 0, 1, 1.5, 2.5, 4, 4), "do not meet along y"),
    "columns": (DilatationField.constant(0.2, 0, 1, 1, 2, 5, 4), "column counts differ"),
    "x-range": (DilatationField.constant(0.2, 0, 2, 1, 2, 4, 4), "x-ranges"),
    "cell-height": (DilatationField.constant(0.2, 0, 1, 1, 3, 4, 4), "cell heights differ"),
}


@pytest.mark.parametrize("case", NOT_ABOVE)
def test_sew_along_y_rejects_a_field_that_does_not_continue_the_grid(case):
    above, message = NOT_ABOVE[case]
    below = DilatationField.constant(0.1, 0, 1, 0, 1, 4, 4)
    with pytest.raises(GridMismatch, match=message):
        sew_sections(below, above, "y")


def test_sew_rejects_an_unknown_seam():
    a = DilatationField.constant(0.1, 0, 1, 0, 1, 4, 4)
    with pytest.raises(GridMismatch, match="seam must be 'x' or 'y', not 'z'"):
        sew_sections(a, a, "z")


def random_field(rng, x0, x1, y0, y1, nx, ny):
    vals = np.array(
        [[sample_mu(rng, 0.9) for _ in range(nx)] for _ in range(ny)]
    )
    return DilatationField(x0, x1, y0, y1, vals)


@pytest.mark.parametrize("seed", range(100))
def test_sew_isometry_exact(seed):
    rng = random.Random(seed)
    a = random_field(rng, 0, 1, 0, 1, 5, 4)
    a2 = random_field(rng, 0, 1, 0, 1, 5, 4)
    b = random_field(rng, 1, 2, 0, 1, 5, 4)
    b2 = random_field(rng, 1, 2, 0, 1, 5, 4)
    lhs = field_distance(sew_sections(a, b, "x"), sew_sections(a2, b2, "x"))
    rhs = max(field_distance(a, a2), field_distance(b, b2))
    assert lhs == rhs


def test_sew_cell_width_mismatch_rejected():
    a = DilatationField.constant(0.1, 0, 1, 0, 1, 4, 4)
    wide = DilatationField.constant(0.2, 1, 3, 0, 1, 4, 4)
    with pytest.raises(GridMismatch):
        sew_sections(a, wide, "x")


def test_field_kernels_match_scalar_ops():
    rng = random.Random(11)
    s = random_field(rng, 0, 1, 0, 1, 3, 3)
    mu_f = sample_mu(rng)
    fz = 1.2 - 0.7j
    fzbar = mu_f * fz
    t = transform_field(s, mu_f, fz, fzbar)
    u = fz / fz.conjugate()
    p = pullback_field(s, mu_f, u)
    for i in range(3):
        for j in range(3):
            v = complex(s.values[i, j])
            assert t.values[i, j] == pytest.approx(
                transform_mu(v, mu_f, fz, fzbar), abs=1e-14
            )
            assert p.values[i, j] == pytest.approx(pullback_mu(v, mu_f, u), abs=1e-14)


@pytest.mark.parametrize(
    "fz, fzbar, message",
    [
        (0j, 0j, r"\|fz\|=0 must exceed \|fzbar\|=0"),
        (0.5, 0.5j, r"\|fz\|=0.5 must exceed \|fzbar\|=0.5"),
        (complex("inf"), 0j, "chart derivatives must be finite"),
    ],
)
def test_scalar_and_field_transforms_reject_chart_data_alike(fz, fzbar, message):
    field = DilatationField.constant(0.2, 0, 1, 0, 1, 2, 2)
    with pytest.raises((NotOrientationPreserving, DomainError), match=message) as scalar:
        transform_mu(0.2, 0.1, fz, fzbar)
    with pytest.raises((NotOrientationPreserving, DomainError), match=message) as nodewise:
        transform_field(field, 0.1, fz, fzbar)
    assert str(nodewise.value) == str(scalar.value)
    assert type(nodewise.value) is type(scalar.value)


@pytest.mark.parametrize("u", [0.5, 1.1j, 0j])
def test_scalar_and_field_pullbacks_reject_phases_alike(u):
    field = DilatationField.constant(0.2, 0, 1, 0, 1, 2, 2)
    with pytest.raises(NotOrientationPreserving, match="is not a unit phase") as scalar:
        pullback_mu(0.2, 0.1, u)
    with pytest.raises(NotOrientationPreserving, match="is not a unit phase") as nodewise:
        pullback_field(field, 0.1, u)
    assert str(nodewise.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_fd_dilatation_oracle_on_stretch():
    K = dilatation_fd(lambda z: complex(2 * z.real, z.imag), 0.1 + 0.4j)
    assert K == pytest.approx(2.0, abs=1e-7)
