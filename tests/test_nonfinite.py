"""Every public constructor, and every map applied to a point, rejects
non-finite input, a grid with no cells or a fractional cell count, and a
chain coefficient or simplex dimension of the wrong kind, with a typed
error.  A hypothesis property drives every number-taking callable of
``beltrami``, ``modulus``, ``quasisym`` and ``flattening`` with extreme
finite values too."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import beltrami, chains, flattening, modulus, quasisym
from segal.errors import SegalError

NAN, INF = math.nan, math.inf


def _flatten(**strip):
    """flatten_step of the identity glue's base field on the given strip."""
    field = flattening.base_structure_field(flattening.glue_identity())
    return flattening.flatten_step(field, **strip)


# a 2x1 field document
_FIELD_DOC = beltrami.DilatationField(0, 1, 0, 1, np.array([[0.1, 0.2]])).to_json()
_GLUE = flattening.glue_sine(0.1)
_BASE = flattening.base_structure_field(_GLUE)
_TRANSPORTED = flattening.next_structure_field(_BASE)
_CHART = flattening.flatten_step(_BASE, nx=5, ny=5)


def _glue(make, *args):
    """The glue map ``make`` returns, with the last three arguments its strip."""
    *params, x_lo, x_hi, y_max = args
    return make(*params, x_lo=x_lo, x_hi=x_hi, y_max=y_max)


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
    "glue-window-too-wide": lambda: flattening.glue_identity(x_lo=-1e308, x_hi=1e308),
    "glue-window-subnormal": lambda: flattening.glue_identity(x_lo=5e-324, x_hi=1e-323),
    "glue-values-overflow": lambda: flattening.glue_linear(1e308, x_lo=0.0, x_hi=1e308),
    "order-pair-m-nan": lambda: flattening.OrderPair(NAN, 0),
    "order-pair-n-inf": lambda: flattening.OrderPair(1, INF),
    "field-point-nan": lambda: _TRANSPORTED.at(NAN, INF),
    "field-point-huge": lambda: _TRANSPORTED.at(0.0, 1e308),
    "field-inner-steps-zero": lambda: flattening.next_structure_field(_TRANSPORTED, 0),
    "field-inner-steps-negative": lambda: flattening.next_structure_field(_TRANSPORTED, -1),
    # strips that are empty, reversed, not finite, or out of double-precision scale
    **{
        f"flatten-window-{name}": partial(_flatten, window=window)
        for name, window in (
            ("empty", (0.0, 0.0)),
            ("too-wide", (-1e308, 1e308)),
            ("reversed", (1.0, -1.0)),
            ("nan", (NAN, 1.0)),
            ("subnormal", (5e-324, 1e-323)),
        )
    },
    **{
        f"flatten-height-{name}": partial(_flatten, y_max=y_max)
        for name, y_max in (
            ("zero", 0.0),
            ("inf", INF),
            ("negative-inf", -INF),
            ("subnormal", 5e-324),
            ("tiny", 1e-200),
            ("huge", 1e308),
        )
    },
    "linear-map-nan": lambda: beltrami.LinearMapZZbar(NAN, 0.0),
    "linear-map-inf": lambda: beltrami.LinearMapZZbar(INF, 0.0),
    "transform-fz-nan": lambda: beltrami.transform_mu(0.1, 0.0, NAN, 0.0),
    "transform-fz-inf": lambda: beltrami.transform_mu(0.1, 0.2, complex(INF, 0.0), 0.0),
    "transform-field-fz-inf": lambda: beltrami.transform_field(
        beltrami.DilatationField.constant(0.1, 0, 1, 0, 1, 2, 2), 0.2, complex(INF, 0.0), 0.0
    ),
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
    "field-constant-value-nan": lambda: beltrami.DilatationField.constant(NAN, 0, 1, 0, 1, 2, 2),
    "field-constant-rect-inf": lambda: beltrami.DilatationField.constant(0.1, 0, INF, 0, 1, 2, 2),
    "field-json-sample-nan": lambda: beltrami.DilatationField.from_json(
        {**_FIELD_DOC, "values": [[0.1, 0.0], [NAN, 0.0]]}
    ),
    "field-json-rect-inf": lambda: beltrami.DilatationField.from_json({**_FIELD_DOC, "y1": INF}),
    # a grid with no cells, and a cell count that is not an integer
    "field-empty-grid": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros((0, 2))),
    "field-no-columns": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros((2, 0))),
    "field-one-dimensional": lambda: beltrami.DilatationField(0, 1, 0, 1, np.zeros(2)),
    "field-constant-no-columns": lambda: beltrami.DilatationField.constant(
        0.1, 0, 1, 0, 1, 0, 2
    ),
    "field-constant-fractional-columns": lambda: beltrami.DilatationField.constant(
        0.1, 0, 1, 0, 1, 2.5, 2
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


# the message a case must raise, where it names the bad value or the rule
MESSAGES = {
    "circle-winding-nan": "rotation angle must be finite, got nan",
    "circle-winding-inf": "rotation angle must be finite, got inf",
    "linear-map-inf": "coefficients must be finite",
    "glue-window-too-wide": "too wide for double precision",
    "glue-window-subnormal": "out of double-precision scale: its 512 samples",
    "glue-values-overflow": "out of double-precision scale for this map",
    "field-point-nan": "is not finite",
    "field-point-huge": "out of double-precision scale",
    "field-inner-steps-zero": "n_steps must be at least 1",
    "field-inner-steps-negative": "n_steps must be at least 1",
    "flatten-window-empty": "is empty or not finite",
    "flatten-window-too-wide": "too wide for double precision",
    "flatten-window-reversed": "is empty or not finite",
    "flatten-window-nan": "is empty or not finite",
    "flatten-window-subnormal": "out of double-precision scale",
    "flatten-height-zero": "y_max must be positive and finite",
    "flatten-height-inf": "y_max must be positive and finite",
    "flatten-height-negative-inf": "y_max must be positive and finite",
    "flatten-height-subnormal": "out of double-precision scale",
    "flatten-height-tiny": "out of double-precision scale",
    "flatten-height-huge": "too large to resolve",
    "field-value-nan-inside": "samples are not finite",
    "field-rect-reversed": "rectangle is empty or not finite",
    "field-rect-flat": "rectangle is empty or not finite",
    "field-json-sample-nan": "samples are not finite",
    "field-json-rect-inf": "rectangle is empty or not finite",
    "field-empty-grid": "values must be a non-empty 2-d array",
    "field-no-columns": "values must be a non-empty 2-d array",
    "field-one-dimensional": "values must be a non-empty 2-d array",
    "field-constant-no-columns": "nx must be at least 1",
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
    return beltrami.DilatationField.constant(value, 0.0, 1.0, 0.0, 1.0, 2, 2)


def _identity(x):
    return x


# name -> (callable, the kind of each argument: float, complex or int)
NUMERIC = {
    "LinearMapZZbar": (beltrami.LinearMapZZbar, "cc"),
    "LinearMapZZbar-call": (lambda a, b, z: beltrami.LinearMapZZbar(a, b)(z), "ccc"),
    "LinearMapZZbar.from_real_matrix": (beltrami.LinearMapZZbar.from_real_matrix, "ffff"),
    "dilatation_K": (beltrami.dilatation_K, "c"),
    "abs_mu_from_K": (beltrami.abs_mu_from_K, "f"),
    "transform_mu": (beltrami.transform_mu, "cccc"),
    "pullback_mu": (beltrami.pullback_mu, "ccc"),
    "teichmuller_distance": (beltrami.teichmuller_distance, "cc"),
    "ACSMatrix": (beltrami.ACSMatrix, "ffff"),
    "ACSMatrix.apply": (lambda x, y: beltrami.acs_from_mu(0.3j).apply((x, y)), "ff"),
    "acs_from_frame": (beltrami.acs_from_frame, "ff"),
    "acs_from_mu": (beltrami.acs_from_mu, "c"),
    "DilatationField.constant": (beltrami.DilatationField.constant, "cffffii"),
    "DilatationField": (
        lambda value, *box: beltrami.DilatationField(*box, np.full((2, 2), value)), "cffff"
    ),
    "DilatationField.from_json": (
        lambda re, im, *box: beltrami.DilatationField.from_json(
            {**_FIELD_DOC, **dict(zip(("x0", "x1", "y0", "y1"), box)), "values": [[re, im]] * 2}
        ),
        "fffff",
    ),
    "DilatationField.value_at": (_constant(0.1).value_at, "ff"),
    "transform_field": (lambda *chart: beltrami.transform_field(_constant(0.1), *chart), "ccc"),
    "pullback_field": (lambda *chart: beltrami.pullback_field(_constant(0.1), *chart), "cc"),
    "field_distance": (lambda a, b: beltrami.field_distance(_constant(a), _constant(b)), "cc"),
    "sew_sections": (
        lambda x0, x1, x2: beltrami.sew_sections(
            beltrami.DilatationField.constant(0.1, x0, x1, 0.0, 1.0, 2, 2),
            beltrami.DilatationField.constant(0.2, x1, x2, 0.0, 1.0, 2, 2),
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
    "sampled_identity": (quasisym.sampled_identity, "i"),
    "sampled_slope_break": (quasisym.sampled_slope_break, "fi"),
    "sampled_exp": (quasisym.sampled_exp, "fi"),
    "CircleDiffeo": (lambda lo, hi: quasisym.CircleDiffeo(_identity, lambda t: 1.0, lo, hi), "ff"),
    "CircleDiffeo-call": (quasisym.circle_identity(), "c"),
    "CircleDiffeo.angle": (quasisym.half_angle_smooth().angle, "f"),
    "circle_rotation": (quasisym.circle_rotation, "f"),
    "corner_transform-call": (quasisym.corner_transform(quasisym.half_angle_piecewise()), "c"),
    "bump": (quasisym.bump, "f"),
    "smooth_twist": (lambda r1, r2: quasisym.smooth_twist(quasisym.circle_identity(), r1, r2), "ff"),
    "TwistMap-call": (quasisym.smooth_twist(quasisym.half_angle_smooth(), 1.0, 2.0)[0], "c"),
    "TwistMap.angle": (quasisym.smooth_twist(quasisym.half_angle_smooth(), 1.0, 2.0)[0].angle, "ff"),
    "OrderPair": (flattening.OrderPair, "ff"),
    "order_sequence": (flattening.order_sequence, "i"),
    "glue_identity": (partial(_glue, flattening.glue_identity), "fff"),
    "glue_linear": (partial(_glue, flattening.glue_linear), "ffff"),
    "glue_sine": (partial(_glue, flattening.glue_sine), "ffff"),
    "tau_minus1": (lambda x, y: flattening.tau_minus1(_GLUE, [(x, y)]), "ff"),
    "StructureField.at": (_BASE.at, "ff"),
    "StructureField.at-transported": (_TRANSPORTED.at, "ff"),
    "next_structure_field": (
        lambda n: flattening.next_structure_field(_TRANSPORTED, n).at(0.5, 0.5), "i"
    ),
    "structure_field_chain": (lambda k: flattening.structure_field_chain(_GLUE, k), "i"),
    "verify_orders": (lambda k: flattening.verify_orders(_GLUE, k), "i"),
    "FlattenedChart.delta": (_CHART.delta, "ff"),
    "flatten_step": (
        lambda x_lo, x_hi, y_max: flattening.flatten_step(
            _BASE, (x_lo, x_hi), y_max, nx=5, ny=5
        ),
        "fff",
    ),
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
