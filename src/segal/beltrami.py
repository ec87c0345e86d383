"""Complex-dilatation algebra on scalars and sampled rectangular fields.

Scalar values live in the open unit disc and measure local conformal
distortion.  Fields sample such values at cell centers of an axis-aligned
rectangle, which keeps sewing exact: joining two fields along a shared edge
is plain concatenation and no sample sits on the seam line.

The chart-change transform, the pullback and the pseudo-distance are each
one expression, in ``_transform_kernel``, ``_pullback_kernel`` and
``_pseudo_distance``.  It runs in Python complex arithmetic on one value and
as a numpy broadcast on a field, so the scalar functions need no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

from . import _FirstUseNumpy
from ._input import abs_or_inf, integer, json_list, json_number
from .errors import (
    DegenerateFrame,
    DomainError,
    GridMismatch,
    InvalidACS,
    NotOrientationPreserving,
    OutOfDisc,
)

np = _FirstUseNumpy(globals())

# Values this close to the unit circle make the fiber metric blow up and are
# rejected everywhere.
DISC_EDGE = 1e-9

FIELD_SCHEMA = "segal.field/1"


def _require_in_disc(value: complex, name: str) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise OutOfDisc(f"{name} is not finite: {value!r}")
    r = abs_or_inf(value)
    if r == math.inf:
        raise OutOfDisc(f"{name} {value!r} has modulus too large for double precision")
    if r >= 1.0 - DISC_EDGE:
        raise OutOfDisc(f"{name} has modulus {r:.12g}, too close to 1")
    return value


# ---------------------------------------------------------------------------
# scalar calculus


@dataclass(frozen=True)
class LinearMapZZbar:
    """Real-linear plane map z -> a*z + b*conj(z), orientation-preserving."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = abs_or_inf(self.a), abs_or_inf(self.b)
        if not a > b:
            raise NotOrientationPreserving(f"|a|={a:.6g} must exceed |b|={b:.6g}")
        # an infinite a passes the test above; b, of smaller modulus, is finite
        if not cmath.isfinite(self.a):
            raise DomainError(f"coefficients must be finite, got a={self.a!r}, b={self.b!r}")

    def __call__(self, z: complex) -> complex:
        return self.a * z + self.b * z.conjugate()


def mu_of_linear(m: LinearMapZZbar) -> complex:
    """Ratio of the conjugate-linear part to the linear part."""
    return m.b / m.a


def dilatation_K(mu: complex) -> float:
    """Distortion factor K = (1+|mu|)/(1-|mu|) >= 1."""
    mu = _require_in_disc(mu, "mu")
    r = abs(mu)
    return (1.0 + r) / (1.0 - r)


def abs_mu_from_K(K: float) -> float:
    """Inverse of dilatation_K on moduli: |mu| = (K-1)/(K+1)."""
    if not math.isfinite(K):
        raise OutOfDisc(f"distortion factor {K} is not finite")
    if K < 1.0:
        raise OutOfDisc(f"distortion factor {K} < 1")
    r = (K - 1.0) / (K + 1.0)
    if r >= 1.0 - DISC_EDGE:
        raise OutOfDisc(f"distortion factor {K} gives |mu| = {r:.12g}, too close to 1")
    return r


def _chart_phase(fz: complex, fzbar: complex) -> complex:
    """The unit phase fz/conj(fz) of orientation-preserving chart data.

    An fz of infinite modulus passes the orientation test, and its phase
    would be nan, so it is rejected after the test; fzbar, of smaller
    modulus, is then finite too."""
    mod_fz, mod_fzbar = abs_or_inf(fz), abs_or_inf(fzbar)
    if not mod_fz > mod_fzbar:
        raise NotOrientationPreserving(f"|fz|={mod_fz:.6g} must exceed |fzbar|={mod_fzbar:.6g}")
    if mod_fz == math.inf and cmath.isfinite(fz):
        raise DomainError(f"chart derivative fz={fz!r} has modulus too large for double precision")
    if mod_fz == math.inf:
        raise DomainError(f"chart derivatives must be finite, got fz={fz!r}, fzbar={fzbar!r}")
    return fz / fz.conjugate()


def _unit_phase(u: complex) -> complex:
    """u normalized to modulus 1; it must already lie within 1e-6 of it."""
    mod = abs_or_inf(u)
    if not abs(mod - 1.0) <= 1e-6:
        raise NotOrientationPreserving(f"|u|={mod:.6g} is not a unit phase")
    return u / mod


def _transform_kernel(mu_gf, mu_f: complex, phase: complex):
    return phase * (mu_gf - mu_f) / (1.0 - mu_f.conjugate() * mu_gf)


def _pullback_kernel(nu_Y, mu_g: complex, u: complex):
    return (nu_Y + u * mu_g) / (u + mu_g.conjugate() * nu_Y)


def _pseudo_distance(a, b):
    """|a - b| / |1 - a conj(b)|, of two values or nodewise of two arrays."""
    return abs((a - b) / (1.0 - a * b.conjugate()))


def _hyperbolic(delta: float) -> float:
    """The hyperbolic distance log((1+d)/(1-d)) of a pseudo-distance d < 1."""
    if not delta < 1.0:
        raise OutOfDisc("the values are too far apart to measure in double precision")
    return math.log((1.0 + delta) / (1.0 - delta))


def transform_mu(mu_gf: complex, mu_f: complex, fz: complex, fzbar: complex) -> complex:
    """Dilatation of g at f, given the dilatation of the composite g . f.

    Solves the chain rule for the outer factor: with phase = f_z/conj(f_z),
    returns phase * (mu_gf - mu_f) / (1 - conj(mu_f) * mu_gf).
    """
    mu_gf = _require_in_disc(mu_gf, "mu_gf")
    mu_f = _require_in_disc(mu_f, "mu_f")
    return _transform_kernel(mu_gf, mu_f, _chart_phase(fz, fzbar))


def pullback_mu(nu_Y: complex, mu_g: complex, u: complex) -> complex:
    """Dilatation of h . g given the dilatation nu_Y of h at the g-image.

    u is the unit-modulus phase g_z/conj(g_z); it is normalized, not
    recomputed, so scalar and field variants share this kernel.  This is the
    exact Moebius inverse of transform_mu.
    """
    nu_Y = _require_in_disc(nu_Y, "nu_Y")
    mu_g = _require_in_disc(mu_g, "mu_g")
    return _pullback_kernel(nu_Y, mu_g, _unit_phase(u))


def teichmuller_distance(mu1: complex, mu2: complex) -> float:
    """Hyperbolic distance log((1+d)/(1-d)) of the pseudo-distance d."""
    mu1 = _require_in_disc(mu1, "mu1")
    mu2 = _require_in_disc(mu2, "mu2")
    return _hyperbolic(_pseudo_distance(mu1, mu2))


# ---------------------------------------------------------------------------
# almost-complex structures


@dataclass(frozen=True)
class ACSMatrix:
    """2x2 matrix J with J*J = -I and positive orientation."""

    j11: float
    j12: float
    j21: float
    j22: float

    def __post_init__(self):
        entries = (self.j11, self.j12, self.j21, self.j22)
        if not all(map(math.isfinite, entries)):
            raise InvalidACS("J has a non-finite entry")
        # J*J + I divided by s*s, with s the largest entry (at least 1), is
        # formed on the entries divided by s, so that no square overflows.
        s = max(1.0, *map(abs, entries))
        a, b, c, d = (x / s for x in entries)
        unit = (1.0 / s) * (1.0 / s)
        err = max(
            abs(a * a + b * c + unit), abs(d * d + b * c + unit), abs(b * (a + d)), abs(c * (a + d))
        )
        if not err <= 1e-12:
            raise InvalidACS(f"J*J differs from -I by {err * s * s:.3g}")
        if self.j21 - self.j12 <= 0.0:
            raise InvalidACS("J is negatively oriented")


def acs_from_frame(A: float, B: float) -> ACSMatrix:
    """The unique J with J*J = -I sending the frame vector (A,B) to (0,1).

    Solving the three constraints pins every entry: J = [[B, -A],
    [(1+B^2)/A, -B]].  Positive orientation forces A > 0.  The dilatation
    of J must keep off the unit circle, as every dilatation value does.
    """
    if not (math.isfinite(A) and math.isfinite(B)):
        raise DegenerateFrame(f"frame vector ({A!r}, {B!r}) is not finite")
    if A == 0.0:
        raise DegenerateFrame("frame vector with vanishing first component")
    if A < 0.0:
        raise NotOrientationPreserving(
            "the structure sending this frame to (0,1) is negatively oriented"
        )
    j21 = (1.0 + B * B) / A
    if not math.isfinite(j21):
        raise DegenerateFrame(f"frame vector ({A!r}, {B!r}) gives J an infinite entry")
    J = ACSMatrix(B, -A, j21, -B)
    _require_in_disc(mu_from_acs(J), "mu")
    return J


def mu_from_acs(J: ACSMatrix) -> complex:
    """Dilatation of the structure J relative to the standard rotation.

    Writing J v = alpha v + beta conj(v) with alpha = i*a2, the unique value
    with (id + mu*conj)(J v) = i (id + mu*conj)(v) is mu = -i*beta/(1+a2).
    """
    a2 = 0.5 * (J.j21 - J.j12)
    beta = complex(J.j11, 0.5 * (J.j12 + J.j21))
    return -1j * beta / (1.0 + a2)


def acs_from_mu(mu: complex) -> ACSMatrix:
    """Inverse of mu_from_acs."""
    mu = _require_in_disc(mu, "mu")
    s = 1.0 - abs(mu) ** 2
    a2 = (1.0 + abs(mu) ** 2) / s
    beta = 2j * mu / s
    return ACSMatrix(beta.real, beta.imag - a2, beta.imag + a2, -beta.real)


# ---------------------------------------------------------------------------
# sampled fields


def _require_rectangle(x0: float, x1: float, y0: float, y1: float) -> None:
    if not (all(map(math.isfinite, (x0, x1, y0, y1))) and x0 < x1 and y0 < y1):
        raise GridMismatch("rectangle is empty or not finite")


@dataclass(frozen=True)
class DilatationField:
    """Cell-centered complex samples on an axis-aligned rectangle.

    values[i, j] is the sample at the center of cell (i, j), i indexing y.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        _require_rectangle(self.x0, self.x1, self.y0, self.y1)
        if v.ndim != 2 or v.size == 0:
            raise GridMismatch("values must be a non-empty 2-d array")
        if not np.isfinite(v).all():
            raise OutOfDisc("samples are not finite")
        worst = float(np.abs(v).max())
        if worst >= 1.0 - DISC_EDGE:
            raise OutOfDisc(f"sample with modulus {worst:.12g}, too close to 1")

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    def sup_abs(self) -> float:
        return float(np.abs(self.values).max())

    def to_json(self) -> dict:
        flat = [[float(v.real), float(v.imag)] for v in self.values.ravel()]
        return {
            "schema": FIELD_SCHEMA,
            "x0": self.x0,
            "x1": self.x1,
            "y0": self.y0,
            "y1": self.y1,
            "nx": self.nx,
            "ny": self.ny,
            "values": flat,
        }

    @classmethod
    def from_json(cls, d: dict) -> "DilatationField":
        if not isinstance(d, dict):
            raise GridMismatch(f"field must be a JSON object, not {type(d).__name__}")
        if d.get("schema", FIELD_SCHEMA) != FIELD_SCHEMA:
            raise GridMismatch(f"unsupported schema {d.get('schema')!r}")
        nx, ny = integer(d["nx"], "nx", 1), integer(d["ny"], "ny", 1)
        flat = json_list(d["values"], "values")
        if len(flat) != nx * ny:
            raise GridMismatch(f"expected {nx * ny} samples, found {len(flat)}")
        pairs = (json_list(pair, "sample pair") for pair in flat)
        vals = [complex(json_number(re, "sample"), json_number(im, "sample")) for re, im in pairs]
        corners = (json_number(d[k], k) for k in ("x0", "x1", "y0", "y1"))
        return cls(*corners, np.array(vals).reshape(ny, nx))


def _require_same_grid(s1: DilatationField, s2: DilatationField) -> None:
    if (s1.nx, s1.ny) != (s2.nx, s2.ny):
        raise GridMismatch(f"resolution {s1.nx}x{s1.ny} vs {s2.nx}x{s2.ny}")
    span = max(s1.x1 - s1.x0, s1.y1 - s1.y0, 1.0)
    for a, b in ((s1.x0, s2.x0), (s1.x1, s2.x1), (s1.y0, s2.y0), (s1.y1, s2.y1)):
        if abs(a - b) > 1e-12 * span:
            raise GridMismatch("field rectangles differ")


def field_distance(s1: DilatationField, s2: DilatationField) -> float:
    """Largest nodewise hyperbolic distance between the two sample sets."""
    _require_same_grid(s1, s2)
    return _hyperbolic(float(_pseudo_distance(s1.values, s2.values).max()))


def transform_field(
    s: DilatationField, mu_f: complex, fz: complex, fzbar: complex
) -> DilatationField:
    """transform_mu applied nodewise with constant chart data."""
    mu_f = _require_in_disc(mu_f, "mu_f")
    out = _transform_kernel(s.values, mu_f, _chart_phase(fz, fzbar))
    return DilatationField(s.x0, s.x1, s.y0, s.y1, out)


def pullback_field(s: DilatationField, mu_g: complex, u: complex) -> DilatationField:
    """pullback_mu applied nodewise with constant chart data."""
    mu_g = _require_in_disc(mu_g, "mu_g")
    out = _pullback_kernel(s.values, mu_g, _unit_phase(u))
    return DilatationField(s.x0, s.x1, s.y0, s.y1, out)


def sew_sections(
    s1: DilatationField, s2: DilatationField, seam: Literal["x", "y"]
) -> DilatationField:
    """Join two fields along a shared full edge into one field.

    seam="x": s1 sits left of s2 and they share the vertical edge x = s1.x1.
    seam="y": s1 sits below s2.  Cell-centered sampling puts no sample on the
    seam line itself, so the joined values are s1's followed by s2's.
    """
    span = max(s1.x1 - s1.x0, s1.y1 - s1.y0, s2.x1 - s2.x0, s2.y1 - s2.y0)
    tol = 1e-12 * span
    if seam == "x":
        if abs(s1.x1 - s2.x0) > tol:
            raise GridMismatch(
                f"fields do not meet along x: s1 ends at {s1.x1}, s2 starts at {s2.x0}"
            )
        if abs(s1.y0 - s2.y0) > tol or abs(s1.y1 - s2.y1) > tol or s1.ny != s2.ny:
            raise GridMismatch("y-ranges or row counts differ along the seam")
        if abs(s1.dx - s2.dx) > 1e-12 * max(s1.dx, s2.dx):
            raise GridMismatch("cell widths differ; sewn field would be non-uniform")
        vals = np.hstack([s1.values, s2.values])
        return DilatationField(s1.x0, s2.x1, s1.y0, s1.y1, vals)
    if seam == "y":
        if abs(s1.y1 - s2.y0) > tol:
            raise GridMismatch(
                f"fields do not meet along y: s1 ends at {s1.y1}, s2 starts at {s2.y0}"
            )
        if abs(s1.x0 - s2.x0) > tol or abs(s1.x1 - s2.x1) > tol or s1.nx != s2.nx:
            raise GridMismatch("x-ranges or column counts differ along the seam")
        if abs(s1.dy - s2.dy) > 1e-12 * max(s1.dy, s2.dy):
            raise GridMismatch("cell heights differ; sewn field would be non-uniform")
        vals = np.vstack([s1.values, s2.values])
        return DilatationField(s1.x0, s1.x1, s1.y0, s2.y1, vals)
    raise GridMismatch(f"seam must be 'x' or 'y', not {seam!r}")
