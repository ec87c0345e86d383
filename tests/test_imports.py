"""Import cost: a module's code, numpy and scipy load on first use, not at import.

Conformal modules need neither: only ``flatten_step`` loads scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import segal
from segal import flattening

SRC = Path(__file__).resolve().parents[1] / "src"
CYLINDER = SRC / "segal" / "data" / "corpus" / "types" / "cylinder.json"

# The package's modules in ``sys.modules`` after ``import segal``; all but
# ``_input`` and ``errors`` are registered there without running their code.
REGISTERED = [
    "segal", "segal._input", "segal._oracles", "segal.acceptance", "segal.beltrami",
    "segal.chains", "segal.cobordism", "segal.corpus", "segal.errors",
    "segal.flattening", "segal.modulus", "segal.quasisym",
]

PUBLIC = [
    "__version__",
    "ACSMatrix", "BoundaryCycle", "BoundaryGlueMap", "Chain", "CircleDiffeo",
    "ComponentData", "CriterionResult", "CycleEntry", "DEFAULT_RECT_ASPECTS",
    "DilatationField", "FlattenedChart", "FormalSimplex", "INFINITE", "LinearMapZZbar",
    "OCType", "ObjectSignature", "OrderPair", "ProductSimplex", "QuadrilateralSpec",
    "SampledChartMap", "SampledIncreasingFunction", "StructureField", "abs_mu_from_K",
    "acs_from_frame", "acs_from_mu", "base_structure_field", "boundary", "bump",
    "check_associativity", "check_chain_map", "check_geometric_qc", "check_symmetry",
    "circle_identity", "circle_rotation", "compose_types", "corner_dilatation",
    "corner_map", "corner_transform", "cross_ratio", "dilatation_K", "disjoint_union",
    "field_distance", "flatten_step", "generator", "glue_identity", "glue_linear",
    "glue_sine", "half_angle_piecewise", "half_angle_smooth", "is_stable",
    "module_of_quad", "module_rect", "module_sc", "mu_from_acs", "mu_of_linear",
    "next_structure_field", "normalize_quad", "octype_from_json", "octype_to_json",
    "order_sequence", "order_step", "pullback_field", "pullback_mu", "qs_bound",
    "rotated_position", "run_acceptance", "sampled_exp", "sampled_identity",
    "sampled_slope_break", "sew_sections", "shuffle_product", "smooth_twist",
    "structure_field_chain", "swap_factors", "tau_minus1", "teichmuller_distance",
    "transform_field", "transform_mu", "validate_type", "verify_orders",
]

# Public values that are not classes or functions, so carry no ``__module__``.
CONSTANT_HOMES = {"DEFAULT_RECT_ASPECTS": "segal.modulus", "INFINITE": "segal.flattening"}


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_does_not_load_scipy():
    out = run_python(
        "import segal, segal.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


def test_module_quadrature_loads_neither_numpy_nor_scipy():
    out = run_python(
        "import sys, segal; from segal import _oracles; "
        "v = segal.module_sc(2.0); "
        "print('numpy' in sys.modules, 'scipy' in sys.modules, "
        "abs(v - _oracles.module_agm(2.0)))"
    )
    numpy_loaded, scipy_loaded, err = out.split()
    assert (numpy_loaded, scipy_loaded) == ("False", "False")
    assert float(err) <= 1e-8


def test_first_flatten_step_loads_scipy():
    out = run_python(
        "import sys, segal; "
        "before = 'scipy' in sys.modules; "
        "segal.flatten_step(segal.base_structure_field(segal.glue_identity()), nx=17, ny=9); "
        "print(before, 'scipy' in sys.modules)"
    )
    assert out.split() == ["False", "True"]


def test_import_registers_every_module_and_loads_no_numpy():
    out = run_python(
        "import segal, sys; "
        "print('numpy' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'segal'))"
    )
    numpy_loaded, registered = out.splitlines()
    assert numpy_loaded == "False"
    assert registered == repr(REGISTERED)


@pytest.mark.parametrize(
    "argv",
    [
        ["types", "validate", str(CYLINDER)],
        ["chains", "product", "2", "1"],
        ["module", "compute", "2.0", "3.0"],
        ["module", "check-qc", "--generate", "--count", "4"],
        ["module", "check-qc"],
    ],
    ids=[
        "types-validate", "chains-product", "module-compute", "check-qc-generate",
        "check-qc-corpus",
    ],
)
def test_light_command_never_imports_numpy(argv):
    out = run_python(
        "import sys, segal.cli; "
        f"code = segal.cli.main({argv!r}); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"


def test_public_names_are_the_published_list():
    assert segal.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(segal))


@pytest.mark.parametrize("name", PUBLIC[1:])
def test_public_name_is_the_object_in_its_module(name):
    value = getattr(segal, name)
    home = CONSTANT_HOMES.get(name) or value.__module__
    assert value is getattr(sys.modules[home], name)


def test_public_name_follows_its_module_binding(monkeypatch):
    """``segal.<name>`` is looked up in its module each time, so a wrapper
    bound into the module and then removed does not stay behind."""
    original = segal.glue_sine
    monkeypatch.setattr(flattening, "glue_sine", len)
    assert segal.glue_sine is len
    monkeypatch.undo()
    assert segal.glue_sine is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        segal.no_such_name
    with pytest.raises(ImportError):
        from segal import no_such_name  # noqa: F401
