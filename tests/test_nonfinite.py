"""Every public constructor, and every map applied to a point, rejects
non-finite input, a grid with no cells, and a chain coefficient or
simplex dimension of the wrong kind, with a typed error.  A hypothesis
property drives every number-taking callable of ``beltrami``, ``modulus``,
``quasisym`` and ``flattening`` with extreme finite values too."""

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import beltrami, chains, flattening, modulus, quasisym
from segal.errors import SegalError

NAN, INF = math.nan, math.inf


# a 2x1 field document
_FIELD = beltrami.DilatationField(0, 1, 0, 1, np.array([[0.1, 0.2]]))
_FIELD_DOC = _FIELD.to_json()
_GLUE = flattening.glue_sine(0.1)
_BASE = flattening.base_structure_field(_GLUE)
_TRANSPORTED = flattening.next_structure_field(_BASE)
_CHART = flattening.flatten_step(_BASE)
_TWIST, _ = quasisym.smooth_twist(quasisym.circle_identity(), 1.0, 2.0)


CASES = {
    "field-value-nan": lambda: beltrami.DilatationField(0, 1, 0, 1, np.array([[NAN + 0j]])),
    "field-value-inf": lambda: beltrami.DilatationField(0, 1, 0, 1, np.array([[complex(0, INF)]])),
    "field-rect-nan": lambda: beltrami.DilatationField(0, NAN, 0, 1, np.zeros((2, 2))),
    "field-rect-inf": lambda: beltrami.DilatationField(0, 1, -INF, 1, np.zeros((2, 2))),
    "circle-winding-nan": lambda: quasisym.circle_rotation(NAN),
    "circle-winding-inf": lambda: quasisym.circle_rotation(INF),
    "circle-derivative-bounds-nan": lambda: quasisym.CircleDiffeo(lambda t: t, NAN, NAN),
    "circle-derivative-inf": lambda: quasisym.CircleDiffeo(lambda t: t, 1.0, INF),
    "sampled-nan": lambda: quasisym.SampledIncreasingFunction((0, 1, NAN), (0, 1, 2)),
    "sampled-inf": lambda: quasisym.SampledIncreasingFunction((0, 1, 2), (0, 1, INF)),
    "glue-linear-nan": lambda: flattening.glue_linear(NAN),
    "glue-linear-inf": lambda: flattening.glue_linear(INF),
    "glue-sine-nan": lambda: flattening.glue_sine(NAN),
    "glue-sine-inf": lambda: flattening.glue_sine(INF),
    "glue-linear-negative-inf": lambda: flattening.glue_linear(-INF),
    "glue-values-overflow": lambda: flattening.glue_linear(1.5e308),
    # a glue map given directly by rho and drho, sampled on the fixed strip
    "glue-map-derivative-nan": lambda: flattening.BoundaryGlueMap(
        lambda x: x, lambda x: np.full_like(x, NAN)
    ),
    "glue-map-derivative-inf": lambda: flattening.BoundaryGlueMap(
        lambda x: x, lambda x: np.full_like(x, INF)
    ),
    "glue-map-values-nan": lambda: flattening.BoundaryGlueMap(
        lambda x: np.full_like(x, NAN), np.ones_like
    ),
    "glue-map-values-overflow": lambda: flattening.BoundaryGlueMap(
        lambda x: 1e308 * x * 10.0, np.ones_like
    ),
    "order-pair-m-nan": lambda: flattening.OrderPair(NAN, 0),
    "order-pair-n-inf": lambda: flattening.OrderPair(1, INF),
    "field-inner-steps-zero": lambda: flattening.next_structure_field(_TRANSPORTED, 0),
    "field-inner-steps-negative": lambda: flattening.next_structure_field(_TRANSPORTED, -1),
    "linear-map-nan": lambda: beltrami.LinearMapZZbar(NAN, 0.0),
    "linear-map-inf": lambda: beltrami.LinearMapZZbar(INF, 0.0),
    "transform-fz-nan": lambda: beltrami.transform_mu(0.1, 0.0, NAN, 0.0),
    "transform-fz-inf": lambda: beltrami.transform_mu(0.1, 0.2, complex(INF, 0.0), 0.0),
    "transform-field-fz-inf": lambda: beltrami.transform_field(
        beltrami.DilatationField(0, 1, 0, 1, np.full((2, 2), 0.1)), 0.2, complex(INF, 0.0), 0.0
    ),
    "pullback-u-nan": lambda: beltrami.pullback_mu(0.1, 0.0, complex(NAN, 0.0)),
    "corner-point-nan": lambda: quasisym.corner_transform(quasisym.half_angle_piecewise())(NAN),
    "twist-radius-inf": lambda: quasisym.smooth_twist(quasisym.circle_identity(), 1.0, INF),
    "acs-nan": lambda: beltrami.ACSMatrix(NAN, -1.0, 1.0, NAN),
    "acs-inf": lambda: beltrami.ACSMatrix(0.0, -INF, INF, 0.0),
    "acs-frame-nan": lambda: beltrami.acs_from_frame(NAN, 1.0),
    "acs-frame-inf": lambda: beltrami.acs_from_frame(1.0, INF),
    "abs-mu-nan": lambda: beltrami.abs_mu_from_K(NAN),
    "abs-mu-inf": lambda: beltrami.abs_mu_from_K(INF),
    "rect-nan": lambda: modulus.module_rect(NAN, 1.0),
    "rect-inf": lambda: modulus.module_rect(1.0, INF),
    "rect-module-overflow": lambda: modulus.module_rect(1e308, 1e-308),
    "rect-module-underflow": lambda: modulus.module_rect(1e-320, 1e10),
    "qc-K-nan": lambda: modulus.check_geometric_qc(NAN, []),
    "qc-K-inf": lambda: modulus.check_geometric_qc(INF, []),
    "qc-slack-nan": lambda: modulus.check_geometric_qc(2.0, [], slack=NAN),
    "field-value-nan-inside": lambda: beltrami.DilatationField(
        0, 1, 0, 1, np.array([[0.1, 0.2], [0.3, complex(0.0, NAN)]])
    ),
    "field-rect-reversed": lambda: beltrami.DilatationField(1, 0, 0, 1, np.zeros((2, 2))),
    "field-rect-flat": lambda: beltrami.DilatationField(0, 1, 1, 1, np.zeros((2, 2))),
    "field-json-sample-nan": lambda: beltrami.DilatationField.from_json(
        {**_FIELD_DOC, "values": [[0.1, 0.0], [NAN, 0.0]]}
    ),
    "field-json-rect-inf": lambda: beltrami.DilatationField.from_json({**_FIELD_DOC, "y1": INF}),
    "field-distance-sample-nan": lambda: beltrami.field_distance(
        _FIELD, beltrami.DilatationField(0, 1, 0, 1, np.array([[0.1, NAN]]))
    ),
    "pullback-field-u-inf": lambda: beltrami.pullback_field(_FIELD, 0.2, complex(INF, 0.0)),
    # maps applied to a point
    "dilatation-K-nan": lambda: beltrami.dilatation_K(complex(NAN, 0.0)),
    "acs-mu-nan": lambda: beltrami.acs_from_mu(complex(NAN, 0.0)),
    "teichmuller-nan": lambda: beltrami.teichmuller_distance(NAN, 0.0),
    "quad-point-nan": lambda: modulus.QuadrilateralSpec(NAN, 0.0, 1.0, 3.0),
    "quad-scale-nan": lambda: modulus.QuadrilateralSpec(-1.0, 0.0, 1.0, 3.0).scaled(NAN),
    "cross-ratio-nan": lambda: modulus.cross_ratio(NAN, 0.0, 1.0, 3.0),
    "module-sc-nan": lambda: modulus.module_sc(NAN),
    "circle-angle-nan": lambda: quasisym.half_angle_smooth().angle(NAN),
    "circle-angle-inf": lambda: quasisym.half_angle_smooth().angle(-INF),
    "bump-nan": lambda: quasisym.bump(NAN),
    "twist-radius-nan": lambda: quasisym.smooth_twist(quasisym.circle_identity(), NAN, 2.0),
    "twist-angle-nan": lambda: _TWIST.angle(1.5, NAN),
    "tau-point-nan": lambda: flattening.tau_minus1(_GLUE, [(NAN, 0.5)]),
    "chart-delta-nan": lambda: _CHART.delta(NAN, 0.5),
    # a grid with no cells
    "field-empty-grid": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros((0, 2))),
    "field-no-columns": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros((2, 0))),
    "field-one-dimensional": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros(2)),
    # chain coefficients that are not integers
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


# the message a case must raise, where it names the bad value or the rule
MESSAGES = {
    "circle-winding-nan": "rotation angle must be finite, got nan",
    "circle-winding-inf": "rotation angle must be finite, got inf",
    "circle-derivative-bounds-nan": r"derivative range \[nan, nan\] is not positive and finite",
    "linear-map-inf": "coefficients must be finite",
    "glue-values-overflow": "out of double-precision scale on the strip",
    "glue-sine-inf": "amplitude must have magnitude below 1",
    "glue-linear-negative-inf": "slope must be positive",
    "glue-map-derivative-nan": "derivative reaches nan",
    "glue-map-derivative-inf": "derivative reaches inf",
    "glue-map-values-nan": "sampled values not strictly increasing",
    "glue-map-values-overflow": "out of double-precision scale on the strip",
    "field-inner-steps-zero": "n_steps must be at least 1",
    "field-inner-steps-negative": "n_steps must be at least 1",
    "field-value-nan-inside": "samples are not finite",
    "field-rect-reversed": "rectangle is empty or not finite",
    "field-rect-flat": "rectangle is empty or not finite",
    "field-json-sample-nan": "samples are not finite",
    "field-json-rect-inf": "rectangle is empty or not finite",
    "field-empty-grid": "values must be a non-empty 2-d array",
    "field-no-columns": "values must be a non-empty 2-d array",
    "field-one-dimensional": "values must be a non-empty 2-d array",
    "field-distance-sample-nan": "samples are not finite",
    "pullback-field-u-inf": r"\|u\|=inf is not a unit phase",
    "dilatation-K-nan": r"mu is not finite: \(nan\+0j\)",
    "teichmuller-nan": r"mu1 is not finite",
    "quad-point-nan": "marked point is NaN",
    "cross-ratio-nan": "is not finite in double precision",
    "module-sc-nan": "position is NaN",
    "circle-angle-nan": "angle nan is not finite",
    "circle-angle-inf": "angle -inf is not finite",
    "twist-radius-nan": "twist radius r1 must be finite, got nan",
    "tau-point-nan": r"x=nan outside",
    "chart-delta-nan": "outside the certified rectangle",
}


@pytest.mark.parametrize("case", CASES)
def test_every_public_constructor_rejects_non_finite_input(case):
    with pytest.raises(SegalError, match=MESSAGES.get(case)):
        CASES[case]()


# ---------------------------------------------------------------------------
# every number-taking callable of the numeric layers, on extreme values

EDGE = 1.0 - 1.1e-9  # inside the disc rule, but two such values are far apart
FLOATS = (NAN, INF, -INF, 0.0, -1.0, 5e-324, 1e-200, 0.5, EDGE, -EDGE, 1e308, -1e308)
DRAWS = {
    "f": st.sampled_from(FLOATS),
    "c": st.sampled_from(FLOATS + (complex(1.5e308, 1.5e308),)),
    "i": st.sampled_from((-1, 0, 1, 3, 2.5, NAN, INF, True, "3", np.int64(3))),
}


def _constant(value):
    return beltrami.DilatationField(0.0, 1.0, 0.0, 1.0, np.full((2, 2), complex(value)))


def _identity(x):
    return x


# name -> (callable, the kind of each argument: float, complex or int)
NUMERIC = {
    "LinearMapZZbar": (beltrami.LinearMapZZbar, "cc"),
    "LinearMapZZbar-call": (lambda a, b, z: beltrami.LinearMapZZbar(a, b)(z), "ccc"),
    "mu_of_linear": (lambda a, b: beltrami.mu_of_linear(beltrami.LinearMapZZbar(a, b)), "cc"),
    "dilatation_K": (beltrami.dilatation_K, "c"),
    "abs_mu_from_K": (beltrami.abs_mu_from_K, "f"),
    "transform_mu": (beltrami.transform_mu, "cccc"),
    "pullback_mu": (beltrami.pullback_mu, "ccc"),
    "teichmuller_distance": (beltrami.teichmuller_distance, "cc"),
    "ACSMatrix": (beltrami.ACSMatrix, "ffff"),
    "acs_from_frame": (beltrami.acs_from_frame, "ff"),
    "acs_from_mu": (beltrami.acs_from_mu, "c"),
    "mu_from_acs": (lambda *m: beltrami.mu_from_acs(beltrami.ACSMatrix(*m)), "ffff"),
    "DilatationField": (
        lambda value, *box: beltrami.DilatationField(*box, np.full((2, 2), value)), "cffff"
    ),
    "DilatationField.from_json": (
        lambda re, im, *box: beltrami.DilatationField.from_json(
            {**_FIELD_DOC, **dict(zip(("x0", "x1", "y0", "y1"), box)), "values": [[re, im]] * 2}
        ),
        "fffff",
    ),
    "transform_field": (lambda *chart: beltrami.transform_field(_constant(0.1), *chart), "ccc"),
    "pullback_field": (lambda *chart: beltrami.pullback_field(_constant(0.1), *chart), "cc"),
    "field_distance": (lambda a, b: beltrami.field_distance(_constant(a), _constant(b)), "cc"),
    "sew_sections": (
        lambda x0, x1, x2: beltrami.sew_sections(
            beltrami.DilatationField(x0, x1, 0.0, 1.0, np.full((2, 2), 0.1)),
            beltrami.DilatationField(x1, x2, 0.0, 1.0, np.full((2, 2), 0.2)),
            "x",
        ),
        "fff",
    ),
    "QuadrilateralSpec": (modulus.QuadrilateralSpec, "ffff"),
    "QuadrilateralSpec.scaled": (modulus.QuadrilateralSpec(-1.0, 0.0, 1.0, 3.0).scaled, "f"),
    "normalize_quad": (lambda *zs: modulus.normalize_quad(modulus.QuadrilateralSpec(*zs)), "ffff"),
    "module_of_quad": (lambda *zs: modulus.module_of_quad(modulus.QuadrilateralSpec(*zs)), "ffff"),
    "cross_ratio": (modulus.cross_ratio, "ffff"),
    "module_sc": (modulus.module_sc, "f"),
    "rotated_position": (modulus.rotated_position, "f"),
    "module_rect": (modulus.module_rect, "ff"),
    "check_geometric_qc": (
        lambda K, slack: modulus.check_geometric_qc(
            K, [modulus.QuadrilateralSpec(-1.0, 0.0, 1.0, 3.0)], slack
        ),
        "ff",
    ),
    "SampledIncreasingFunction": (
        lambda *v: quasisym.SampledIncreasingFunction(v[:3], v[3:]), "ffffff"
    ),
    "SampledIncreasingFunction.from_callable": (
        lambda lo, hi, n: quasisym.SampledIncreasingFunction.from_callable(_identity, lo, hi, n),
        "ffi",
    ),
    "SampledIncreasingFunction.inverted": (
        lambda *v: quasisym.SampledIncreasingFunction(v[:3], v[3:]).inverted(), "ffffff"
    ),
    "qs_bound": (
        lambda *v: quasisym.qs_bound(quasisym.SampledIncreasingFunction(v[:3], v[3:])), "ffffff"
    ),
    "sampled_identity": (quasisym.sampled_identity, "i"),
    "sampled_slope_break": (quasisym.sampled_slope_break, "fi"),
    "sampled_exp": (quasisym.sampled_exp, "fi"),
    "CircleDiffeo": (lambda lo, hi: quasisym.CircleDiffeo(_identity, lo, hi), "ff"),
    "CircleDiffeo.angle": (quasisym.half_angle_smooth().angle, "f"),
    "corner_dilatation": (
        lambda lo, hi: quasisym.corner_dilatation(quasisym.CircleDiffeo(_identity, lo, hi)), "ff"
    ),
    "circle_rotation": (quasisym.circle_rotation, "f"),
    "corner_transform-call": (quasisym.corner_transform(quasisym.half_angle_piecewise()), "c"),
    "bump": (quasisym.bump, "f"),
    "smooth_twist": (lambda r1, r2: quasisym.smooth_twist(quasisym.circle_identity(), r1, r2), "ff"),
    "TwistMap-call": (quasisym.smooth_twist(quasisym.half_angle_smooth(), 1.0, 2.0)[0], "c"),
    "TwistMap.angle": (quasisym.smooth_twist(quasisym.half_angle_smooth(), 1.0, 2.0)[0].angle, "ff"),
    "TwistMap.angle_derivative": (
        quasisym.smooth_twist(quasisym.half_angle_smooth(), 1.0, 2.0)[0].angle_derivative, "ff"
    ),
    "OrderPair": (flattening.OrderPair, "ff"),
    "order_step": (lambda m, n: flattening.order_step(flattening.OrderPair(m, n)), "ff"),
    "order_sequence": (flattening.order_sequence, "i"),
    "glue_linear": (flattening.glue_linear, "f"),
    "glue_sine": (flattening.glue_sine, "f"),
    "tau_minus1": (lambda x, y: flattening.tau_minus1(_GLUE, [(x, y)]), "ff"),
    "next_structure_field": (
        lambda n: flattening.next_structure_field(_TRANSPORTED, n).func(np.array([[0.5, 0.5]])),
        "i",
    ),
    "structure_field_chain": (lambda k: flattening.structure_field_chain(_GLUE, k), "i"),
    "verify_orders": (lambda k: flattening.verify_orders(_GLUE, k), "i"),
    "FlattenedChart.delta": (_CHART.delta, "ff"),
}


@pytest.mark.parametrize("name", NUMERIC)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_callable_returns_or_raises_a_segal_error(name, data):
    fn, kinds = NUMERIC[name]
    args = [data.draw(DRAWS[kind]) for kind in kinds]
    try:
        fn(*args)
    except SegalError:
        pass
