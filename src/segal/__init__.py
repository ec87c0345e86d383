"""Composable surface types, plane dilatation calculus, and boundary flattening.

Six coordinated pieces: a monoid of open/closed surface types with splice
composition, transformation rules for complex dilatation data under chart
changes, quasisymmetry bounds for boundary reparametrizations, conformal
modules of half-plane quadrilaterals, a shuffle product on formal chains,
and the order-doubling recursion that flattens boundary structure fields.

A library module's code runs on first use.  ``import segal`` registers
each module in ``sys.modules`` through ``importlib.util.LazyLoader``, and
the module runs on its first attribute access; a public name such as
``segal.compose_types`` is looked up in its module on each access
(PEP 562).  So importing the package loads no numpy, and a command runs
only the modules it calls.
"""

import importlib.util
import sys

from . import _input, errors  # noqa: F401  (light, so loaded at import)

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "acceptance": ("CriterionResult", "run_acceptance"),
    "beltrami": (
        "ACSMatrix", "DilatationField", "LinearMapZZbar", "SampledChartMap",
        "abs_mu_from_K", "acs_from_frame", "acs_from_mu", "dilatation_K",
        "field_distance", "mu_from_acs", "mu_of_linear", "pullback_field",
        "pullback_mu", "sew_sections", "teichmuller_distance", "transform_field",
        "transform_mu",
    ),
    "chains": (
        "Chain", "FormalSimplex", "ProductSimplex", "boundary", "check_associativity",
        "check_chain_map", "check_symmetry", "generator", "shuffle_product",
        "swap_factors",
    ),
    "cobordism": (
        "BoundaryCycle", "ComponentData", "CycleEntry", "ObjectSignature", "OCType",
        "compose_types", "disjoint_union", "is_stable", "octype_from_json",
        "octype_to_json", "validate_type",
    ),
    "flattening": (
        "INFINITE", "BoundaryGlueMap", "FlattenedChart", "OrderPair", "StructureField",
        "base_structure_field", "flatten_step", "glue_identity", "glue_linear",
        "glue_sine", "next_structure_field", "order_sequence", "order_step",
        "structure_field_chain", "tau_minus1", "verify_orders",
    ),
    "modulus": (
        "DEFAULT_RECT_ASPECTS", "QuadrilateralSpec", "check_geometric_qc", "cross_ratio",
        "module_of_quad", "module_rect", "module_sc", "normalize_quad",
        "rotated_position",
    ),
    "quasisym": (
        "CircleDiffeo", "SampledIncreasingFunction", "bump", "circle_identity",
        "circle_rotation", "corner_dilatation", "corner_map", "corner_transform",
        "half_angle_piecewise", "half_angle_smooth", "qs_bound", "sampled_exp",
        "sampled_identity", "sampled_slope_break", "smooth_twist",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def _register(modules) -> None:
    """Put each ``segal.<module>`` in ``sys.modules``; its code runs on first use."""
    for module in modules:
        spec = importlib.util.find_spec(f"{__name__}.{module}")
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        lazy = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = lazy
        loader.exec_module(lazy)
        globals()[module] = lazy


_register((*_EXPORTS, "corpus", "_oracles"))


def __getattr__(name: str):
    # Not cached here: ``segal.<name>`` stays whatever its module binds now,
    # so a wrapper put into the module and later removed never outlives it.
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
