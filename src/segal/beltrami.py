"""Complex-dilatation algebra on scalars and sampled rectangular fields.

Scalar values live in the open unit disc and measure local conformal
distortion.  Fields sample such values at cell centers of an axis-aligned
rectangle, which keeps sewing exact: joining two fields along a shared edge
is plain concatenation and no sample sits on the seam line.
"""

from __future__ import annotations

import cmath
import csv
import math
import operator
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence, TextIO

import numpy as np

from ._input import json_int, json_list, json_number
from .errors import (
    DegenerateFrame,
    DomainError,
    GridMismatch,
    InvalidACS,
    NotOrientationPreserving,
    OutOfDisc,
)

# Values this close to the unit circle make the fiber metric blow up and are
# rejected everywhere.
DISC_EDGE = 1e-9

FIELD_SCHEMA = "segal.field/1"

# central-difference step of SampledChartMap.from_callable without derivatives
_FD_H = 1e-6


def _require_in_disc(value: complex, name: str) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise OutOfDisc(f"{name} is not finite: {value!r}")
    if abs(value) >= 1.0 - DISC_EDGE:
        raise OutOfDisc(f"{name} has modulus {abs(value):.12g}, too close to 1")
    return value


# ---------------------------------------------------------------------------
# scalar calculus


@dataclass(frozen=True)
class LinearMapZZbar:
    """Real-linear plane map z -> a*z + b*conj(z), orientation-preserving."""

    a: complex
    b: complex

    def __post_init__(self):
        if not abs(self.a) > abs(self.b):
            raise NotOrientationPreserving(
                f"|a|={abs(self.a):.6g} must exceed |b|={abs(self.b):.6g}"
            )

    def __call__(self, z: complex) -> complex:
        return self.a * z + self.b * z.conjugate()

    @staticmethod
    def from_real_matrix(m11: float, m12: float, m21: float, m22: float) -> "LinearMapZZbar":
        """The map (x,y) -> (m11 x + m12 y, m21 x + m22 y) in z/conj(z) form."""
        a = 0.5 * complex(m11 + m22, m21 - m12)
        b = 0.5 * complex(m11 - m22, m21 + m12)
        return LinearMapZZbar(a, b)


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
    return (K - 1.0) / (K + 1.0)


def _chart_phase(fz: complex, fzbar: complex) -> complex:
    """The unit phase fz/conj(fz) of orientation-preserving chart data; an
    infinite fz passes the orientation test, so finiteness is checked after it."""
    if not abs(fz) > abs(fzbar):
        raise NotOrientationPreserving(
            f"|fz|={abs(fz):.6g} must exceed |fzbar|={abs(fzbar):.6g}"
        )
    if not (cmath.isfinite(fz) and cmath.isfinite(fzbar)):
        raise DomainError(f"chart derivatives must be finite, got fz={fz!r}, fzbar={fzbar!r}")
    return fz / fz.conjugate()


def _unit_phase(u: complex) -> complex:
    """u normalized to modulus 1; it must already lie within 1e-6 of it."""
    mod = abs(u)
    if not abs(mod - 1.0) <= 1e-6:
        raise NotOrientationPreserving(f"|u|={mod:.6g} is not a unit phase")
    return u / mod


def _transform_kernel(mu_gf, mu_f, phase):
    return phase * (mu_gf - mu_f) / (1.0 - np.conjugate(mu_f) * mu_gf)


def _pullback_kernel(nu_Y, mu_g, u):
    return (nu_Y + u * mu_g) / (u + np.conjugate(mu_g) * nu_Y)


def transform_mu(mu_gf: complex, mu_f: complex, fz: complex, fzbar: complex) -> complex:
    """Dilatation of g at f, given the dilatation of the composite g . f.

    Solves the chain rule for the outer factor: with phase = f_z/conj(f_z),
    returns phase * (mu_gf - mu_f) / (1 - conj(mu_f) * mu_gf).
    """
    mu_gf = _require_in_disc(mu_gf, "mu_gf")
    mu_f = _require_in_disc(mu_f, "mu_f")
    return complex(_transform_kernel(mu_gf, mu_f, _chart_phase(fz, fzbar)))


def pullback_mu(nu_Y: complex, mu_g: complex, u: complex) -> complex:
    """Dilatation of h . g given the dilatation nu_Y of h at the g-image.

    u is the unit-modulus phase g_z/conj(g_z); it is normalized, not
    recomputed, so scalar and field variants share this kernel.  This is the
    exact Moebius inverse of transform_mu.
    """
    nu_Y = _require_in_disc(nu_Y, "nu_Y")
    mu_g = _require_in_disc(mu_g, "mu_g")
    return complex(_pullback_kernel(nu_Y, mu_g, _unit_phase(u)))


def teichmuller_distance(mu1: complex, mu2: complex) -> float:
    """Hyperbolic distance log((1+d)/(1-d)) of the pseudo-distance d."""
    mu1 = _require_in_disc(mu1, "mu1")
    mu2 = _require_in_disc(mu2, "mu2")
    delta = abs((mu1 - mu2) / (1.0 - mu1 * mu2.conjugate()))
    return math.log((1.0 + delta) / (1.0 - delta))


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
        if not all(map(math.isfinite, (self.j11, self.j12, self.j21, self.j22))):
            raise InvalidACS("J has a non-finite entry")
        sq_diag = self.j11 * self.j11 + self.j12 * self.j21
        off1 = self.j12 * (self.j11 + self.j22)
        off2 = self.j21 * (self.j11 + self.j22)
        sq_diag2 = self.j22 * self.j22 + self.j12 * self.j21
        scale = max(1.0, abs(self.j11), abs(self.j12), abs(self.j21), abs(self.j22)) ** 2
        err = max(abs(sq_diag + 1.0), abs(sq_diag2 + 1.0), abs(off1), abs(off2))
        if err > 1e-12 * scale:
            raise InvalidACS(f"J*J differs from -I by {err:.3g}")
        if self.j21 - self.j12 <= 0.0:
            raise InvalidACS("J is negatively oriented")

    def as_array(self) -> np.ndarray:
        return np.array([[self.j11, self.j12], [self.j21, self.j22]])

    def apply(self, v: Sequence[float]) -> tuple[float, float]:
        return (self.j11 * v[0] + self.j12 * v[1], self.j21 * v[0] + self.j22 * v[1])


def acs_from_frame(A: float, B: float) -> ACSMatrix:
    """The unique J with J*J = -I sending the frame vector (A,B) to (0,1).

    Solving the three constraints pins every entry: J = [[B, -A],
    [(1+B^2)/A, -B]].  Positive orientation forces A > 0.
    """
    if not (math.isfinite(A) and math.isfinite(B)):
        raise DegenerateFrame(f"frame vector ({A!r}, {B!r}) is not finite")
    if A == 0.0:
        raise DegenerateFrame("frame vector with vanishing first component")
    if A < 0.0:
        raise NotOrientationPreserving(
            "the structure sending this frame to (0,1) is negatively oriented"
        )
    return ACSMatrix(B, -A, (1.0 + B * B) / A, -B)


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


def _grid_counts(nx: int, ny: int) -> tuple[int, int]:
    """The column and row counts as integers; a grid needs one cell or more."""
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        raise GridMismatch(f"grid counts {nx!r}x{ny!r} are not integers") from None
    if nx < 1 or ny < 1:
        raise GridMismatch(f"a {nx}x{ny} grid has no cells")
    return nx, ny


def _cell_centers(
    x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the nx-by-ny cells of the rectangle: x values, y values."""
    nx, ny = _grid_counts(nx, ny)
    xs = x0 + (np.arange(nx) + 0.5) * ((x1 - x0) / nx)
    ys = y0 + (np.arange(ny) + 0.5) * ((y1 - y0) / ny)
    return xs, ys


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

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return _cell_centers(self.x0, self.x1, self.y0, self.y1, self.nx, self.ny)

    @classmethod
    def constant(
        cls, value: complex, x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
    ) -> "DilatationField":
        nx, ny = _grid_counts(nx, ny)
        return cls(x0, x1, y0, y1, np.full((ny, nx), complex(value)))

    @classmethod
    def from_function(
        cls,
        f: Callable[[complex], complex],
        x0: float,
        x1: float,
        y0: float,
        y1: float,
        nx: int,
        ny: int,
    ) -> "DilatationField":
        xs, ys = _cell_centers(x0, x1, y0, y1, nx, ny)
        vals = np.array([[complex(f(complex(x, y))) for x in xs] for y in ys])
        return cls(x0, x1, y0, y1, vals)

    def value_at(self, x: float, y: float) -> complex:
        """Sample of the cell owning (x, y); cell boundaries belong to the
        lower/left cell, so a seam line keeps the values of the first field
        of a sew."""
        if not (self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1):
            raise GridMismatch(f"point ({x}, {y}) outside the field rectangle")
        j = min(max(math.ceil((x - self.x0) / self.dx) - 1, 0), self.nx - 1)
        i = min(max(math.ceil((y - self.y0) / self.dy) - 1, 0), self.ny - 1)
        return complex(self.values[i, j])

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
        nx, ny = json_int(d["nx"], "nx"), json_int(d["ny"], "ny")
        flat = json_list(d["values"], "values")
        if len(flat) != nx * ny:
            raise GridMismatch(f"expected {nx * ny} samples, found {len(flat)}")
        pairs = (json_list(pair, "sample pair") for pair in flat)
        vals = [complex(json_number(re, "sample"), json_number(im, "sample")) for re, im in pairs]
        corners = (json_number(d[k], k) for k in ("x0", "x1", "y0", "y1"))
        return cls(*corners, np.array(vals).reshape(ny, nx))

    def to_csv(self, stream: TextIO) -> None:
        xs, ys = self.cell_centers()
        writer = csv.writer(stream)
        writer.writerow(["x", "y", "re", "im"])
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                v = self.values[i, j]
                writer.writerow(
                    [repr(float(x)), repr(float(y)), repr(float(v.real)), repr(float(v.imag))]
                )


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
    v1, v2 = s1.values, s2.values
    delta = np.abs((v1 - v2) / (1.0 - v1 * np.conjugate(v2)))
    dm = float(delta.max())
    return math.log((1.0 + dm) / (1.0 - dm))


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
    seam line itself; point evaluation there resolves to s1 via value_at.
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


# ---------------------------------------------------------------------------
# sampled chart maps


@dataclass(frozen=True)
class SampledChartMap:
    """A plane map sampled with its Wirtinger derivatives on a cell grid."""

    x0: float
    x1: float
    y0: float
    y1: float
    image: np.ndarray
    fz: np.ndarray
    fzbar: np.ndarray

    def __post_init__(self):
        _require_rectangle(self.x0, self.x1, self.y0, self.y1)
        for name in ("image", "fz", "fzbar"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        if not (self.image.shape == self.fz.shape == self.fzbar.shape):
            raise GridMismatch("image and derivative grids must share a shape")
        if self.image.ndim != 2 or self.image.size == 0:
            raise GridMismatch("image and derivative grids must be non-empty 2-d arrays")
        if not all(np.isfinite(a).all() for a in (self.image, self.fz, self.fzbar)):
            raise GridMismatch("image and derivative samples must be finite")
        jac = np.abs(self.fz) ** 2 - np.abs(self.fzbar) ** 2
        if jac.min() <= 0.0:
            raise NotOrientationPreserving(
                f"Jacobian {jac.min():.6g} <= 0 at a sample node"
            )

    @classmethod
    def from_callable(
        cls,
        f: Callable[[complex], complex],
        x0: float,
        x1: float,
        y0: float,
        y1: float,
        nx: int,
        ny: int,
        derivatives: Optional[Callable[[complex], tuple[complex, complex]]] = None,
    ) -> "SampledChartMap":
        xs, ys = _cell_centers(x0, x1, y0, y1, nx, ny)
        image = np.empty((ny, nx), dtype=complex)
        fz = np.empty_like(image)
        fzbar = np.empty_like(image)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                z = complex(x, y)
                image[i, j] = f(z)
                if derivatives is not None:
                    fz[i, j], fzbar[i, j] = derivatives(z)
                else:
                    dfx = (f(z + _FD_H) - f(z - _FD_H)) / (2.0 * _FD_H)
                    dfy = (f(z + 1j * _FD_H) - f(z - 1j * _FD_H)) / (2.0 * _FD_H)
                    fz[i, j] = 0.5 * (dfx - 1j * dfy)
                    fzbar[i, j] = 0.5 * (dfx + 1j * dfy)
        return cls(x0, x1, y0, y1, image, fz, fzbar)

    def mu_field(self) -> DilatationField:
        return DilatationField(self.x0, self.x1, self.y0, self.y1, self.fzbar / self.fz)

    def u_grid(self) -> np.ndarray:
        """Unit phases fz/conj(fz) at each node."""
        return self.fz / np.conjugate(self.fz)
