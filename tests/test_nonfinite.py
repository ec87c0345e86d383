"""Every public constructor, and every map applied to a point, rejects
non-finite input, a grid with no cells or a fractional cell count, and a
chain coefficient or simplex dimension of the wrong kind, with a typed
error."""

import math

import numpy as np
import pytest

from segal import beltrami, chains, flattening, modulus, quasisym
from segal.errors import SegalError

NAN, INF = math.nan, math.inf


def _chart(x0=0.0, x1=1.0, image=0.5, fz=1.0):
    """A constant 2x2 sampled chart map with one argument replaced."""
    image, fz, fzbar = (np.full((2, 2), complex(v)) for v in (image, fz, 0.0))
    return beltrami.SampledChartMap(x0, x1, 0.0, 1.0, image, fz, fzbar)


CASES = {
    "field-value-nan": lambda: beltrami.DilatationField(0, 1, 0, 1, np.array([[NAN + 0j]])),
    "field-value-inf": lambda: beltrami.DilatationField(0, 1, 0, 1, np.array([[complex(0, INF)]])),
    "field-rect-nan": lambda: beltrami.DilatationField(0, NAN, 0, 1, np.zeros((2, 2))),
    "field-rect-inf": lambda: beltrami.DilatationField(0, 1, -INF, 1, np.zeros((2, 2))),
    "circle-winding-nan": lambda: quasisym.circle_rotation(NAN),
    "circle-winding-inf": lambda: quasisym.circle_rotation(INF),
    "circle-derivative-nan": lambda: quasisym.CircleDiffeo(lambda t: t, lambda t: NAN),
    "circle-derivative-nan-inside": lambda: quasisym.CircleDiffeo(
        lambda t: t, lambda t: NAN if 1.0 < t < 2.0 else 1.0
    ),
    "circle-derivative-inf": lambda: quasisym.CircleDiffeo(lambda t: t, lambda t: 1.0, 1.0, INF),
    "sampled-nan": lambda: quasisym.SampledIncreasingFunction((0, 1, NAN), (0, 1, 2)),
    "sampled-inf": lambda: quasisym.SampledIncreasingFunction((0, 1, 2), (0, 1, INF)),
    "glue-linear-nan": lambda: flattening.glue_linear(NAN),
    "glue-linear-inf": lambda: flattening.glue_linear(INF),
    "glue-sine-nan": lambda: flattening.glue_sine(NAN),
    "glue-window-inf": lambda: flattening.glue_identity(x_hi=INF),
    "glue-height-nan": lambda: flattening.glue_identity(y_max=NAN),
    "linear-map-nan": lambda: beltrami.LinearMapZZbar(NAN, 0.0),
    "transform-fz-nan": lambda: beltrami.transform_mu(0.1, 0.0, NAN, 0.0),
    "transform-fz-inf": lambda: beltrami.transform_mu(0.1, 0.2, complex(INF, 0.0), 0.0),
    "transform-field-fz-inf": lambda: beltrami.transform_field(
        beltrami.DilatationField.constant(0.1, 0, 1, 0, 1, 2, 2), 0.2, complex(INF, 0.0), 0.0
    ),
    "chart-image-nan": lambda: _chart(image=NAN),
    "chart-fz-nan": lambda: _chart(fz=NAN),
    "chart-fz-inf": lambda: _chart(fz=INF),
    "chart-rect-nan": lambda: _chart(x1=NAN),
    "chart-rect-reversed": lambda: _chart(x0=1.0, x1=0.0),
    "pullback-u-nan": lambda: beltrami.pullback_mu(0.1, 0.0, complex(NAN, 0.0)),
    "corner-point-nan": lambda: quasisym.corner_transform(quasisym.half_angle_piecewise())(NAN),
    "circle-point-inf": lambda: quasisym.circle_identity()(complex(INF, 0.0)),
    "twist-radius-inf": lambda: quasisym.smooth_twist(quasisym.circle_identity(), 1.0, INF),
    "acs-nan": lambda: beltrami.ACSMatrix(NAN, -1.0, 1.0, NAN),
    "acs-inf": lambda: beltrami.ACSMatrix(0.0, -INF, INF, 0.0),
    "acs-frame-nan": lambda: beltrami.acs_from_frame(NAN, 1.0),
    "acs-frame-inf": lambda: beltrami.acs_from_frame(1.0, INF),
    "abs-mu-nan": lambda: beltrami.abs_mu_from_K(NAN),
    "abs-mu-inf": lambda: beltrami.abs_mu_from_K(INF),
    "rect-nan": lambda: modulus.module_rect(NAN, 1.0),
    "rect-inf": lambda: modulus.module_rect(1.0, INF),
    "qc-K-nan": lambda: modulus.check_geometric_qc(NAN, []),
    "qc-K-inf": lambda: modulus.check_geometric_qc(INF, []),
    "qc-slack-nan": lambda: modulus.check_geometric_qc(2.0, [], slack=NAN),
    # grids with no cells
    "chart-empty-grid": lambda: beltrami.SampledChartMap(0, 1, 0, 1, *(np.zeros((0, 2)),) * 3),
    "chart-callable-no-columns": lambda: beltrami.SampledChartMap.from_callable(
        lambda z: z, 0, 1, 0, 1, 0, 2
    ),
    "field-function-no-columns": lambda: beltrami.DilatationField.from_function(
        lambda z: 0j, 0, 1, 0, 1, 0, 2
    ),
    # grid counts that are not integers
    "field-function-fractional-columns": lambda: beltrami.DilatationField.from_function(
        lambda z: 0j, 0, 1, 0, 1, 2.5, 2
    ),
    "field-constant-fractional-columns": lambda: beltrami.DilatationField.constant(
        0.1, 0, 1, 0, 1, 2.5, 2
    ),
    "chart-callable-fractional-columns": lambda: beltrami.SampledChartMap.from_callable(
        lambda z: z, 0, 1, 0, 1, 2.5, 2
    ),
    # chain coefficients that are not rational numbers
    "chain-coefficient-nan": lambda: chains.Chain.of(chains.generator("a", 1), NAN),
    "chain-coefficient-inf": lambda: chains.Chain([(chains.generator("a", 1), -INF)]),
    "chain-coefficient-none": lambda: chains.Chain.of(chains.generator("a", 1), None),
    "chain-coefficient-complex": lambda: chains.Chain.of(chains.generator("a", 1), 1 + 0j),
    "chain-scalar-nan": lambda: NAN * chains.Chain.of(chains.generator("a", 1)),
    # simplex dimensions that are not integers
    "generator-dimension-fractional": lambda: chains.generator("a", 1.5),
    "generator-dimension-nan": lambda: chains.generator("a", NAN),
    "generator-dimension-inf": lambda: chains.generator("a", INF),
    "generator-dimension-string": lambda: chains.generator("a", "2"),
    "generator-dimension-bool": lambda: chains.generator("a", True),
    "simplex-dimension-float": lambda: chains.FormalSimplex(2.0, "a"),
}


# the message a case must raise, where it names the bad value
MESSAGES = {
    "circle-winding-nan": "rotation angle must be finite, got nan",
    "circle-winding-inf": "rotation angle must be finite, got inf",
}


@pytest.mark.parametrize("case", CASES)
def test_every_public_constructor_rejects_non_finite_input(case):
    with pytest.raises(SegalError, match=MESSAGES.get(case)):
        CASES[case]()
