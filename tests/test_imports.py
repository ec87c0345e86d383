"""Import cost: a module's code loads on first use, and numpy on first array
use, not at import.

Conformal modules and the pointwise commands (``belt acs``, ``belt distance
--mu``, ``belt transform --value``, ``belt pullback --value``, ``qs corner``,
``qs twist``, ``appb orders``) need no numpy, and no command loads scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import segal
from segal import corpus, flattening

SRC = Path(__file__).resolve().parents[1] / "src"
CYLINDER = corpus.BUNDLED / "types" / "cylinder.json"

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
    "SampledIncreasingFunction", "StructureField", "abs_mu_from_K",
    "acs_from_frame", "acs_from_mu", "base_structure_field", "boundary", "bump",
    "check_associativity", "check_chain_map", "check_geometric_qc", "check_identities",
    "check_symmetry",
    "circle_identity", "circle_rotation", "compose_types", "corner_dilatation",
    "corner_transform", "cross_ratio", "dilatation_K", "disjoint_union",
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


def test_building_the_parser_runs_no_library_module():
    """The subcommand declarations read no library module, so after
    ``build_parser`` each one is still registered without running its code."""
    out = run_python(
        "import importlib.util, sys, segal.cli; segal.cli.build_parser(); "
        "print(sorted(name for name, m in sys.modules.items() if name.startswith('segal.') "
        "and not isinstance(m, importlib.util._LazyModule)))"
    )
    assert out.strip() == repr(["segal._input", "segal.cli", "segal.errors"])


def test_reading_a_corpus_runs_no_acceptance_code():
    """``module check-qc --corpus`` reads ``quads.json`` through ``corpus``
    alone: ``acceptance`` stays registered without running its code."""
    out = run_python(
        "import importlib.util, sys, segal.cli; "
        f"code = segal.cli.main(['module', 'check-qc', '--corpus', {str(corpus.BUNDLED)!r}]); "
        "print(code, isinstance(sys.modules['segal.acceptance'], importlib.util._LazyModule))"
    )
    assert out.splitlines()[-1] == "0 True"


def test_module_quadrature_loads_neither_numpy_nor_scipy():
    """The AGM oracle runs no other ``segal`` module: ``cobordism`` stays unrun."""
    out = run_python(
        "import importlib.util, sys, segal; from segal import _oracles; "
        "err = abs(segal.module_sc(2.0) - _oracles.module_agm(2.0)); "
        "print('numpy' in sys.modules, 'scipy' in sys.modules, "
        "isinstance(sys.modules['segal.cobordism'], importlib.util._LazyModule), err)"
    )
    numpy_loaded, scipy_loaded, cobordism_lazy, err = out.split()
    assert (numpy_loaded, scipy_loaded, cobordism_lazy) == ("False", "False", "True")
    assert float(err) <= 1e-8


# A Ctrl-C raised while a module's code first runs, as
# (module, a command that runs it first through another module).
INTERRUPTED_LOADS = [
    ("segal.cobordism", ["types", "random", "--seed", "1"]),
    ("segal.corpus", ["module", "check-qc", "--generate"]),
    ("segal.cobordism", ["accept", "--only", "6"]),
    ("segal._oracles", ["accept", "--only", "6"]),
]


@pytest.mark.parametrize(
    "module, argv", INTERRUPTED_LOADS, ids=[f"{m}-{a[0]}" for m, a in INTERRUPTED_LOADS]
)
def test_ctrl_c_while_a_module_first_runs_exits_130(module, argv):
    """A module reads a sibling's names through the module object, so an
    interrupt raised while the sibling first runs reaches ``main`` as it is;
    inside a ``from .sibling import name`` statement it was lost, and the
    statement failed with an ``ImportError``."""
    code = textwrap.dedent(
        f"""
        import sys, segal, segal.cli
        loader = object.__getattribute__(sys.modules[{module!r}], "__spec__").loader
        real = loader.exec_module

        def interrupt(module):
            loader.exec_module = real
            raise KeyboardInterrupt

        loader.exec_module = interrupt
        sys.exit(segal.cli.main({argv!r}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (130, "interrupted\n")


def test_chart_flattening_never_loads_scipy():
    """With scipy blocked, a depth-1 chart and the flattening demo still run."""
    demo = SRC.parent / "demos" / "flatten_boundary.py"
    out = run_python(
        "import runpy, sys; sys.modules['scipy'] = None; import segal.cli; "
        "code = segal.cli.main(['appb', 'flatten', '--k', '1', '--chart', '--depth', '1']); "
        f"runpy.run_path({str(demo)!r}, run_name='__main__'); "
        "print(code)"
    )
    assert out.splitlines()[-1] == "0"


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
        ["belt", "acs", "--mu", "0.3+0.1j"],
        ["belt", "distance", "--mu", "0.2+0.1j", "0.1,0.3"],
        ["belt", "transform", "--value", "0.2+0.1j", "--mu-f", "0.3", "--fz", "1+1j"],
        ["belt", "pullback", "--value", "0.2,0", "--mu-g", "0.1,0", "--u", "1,0"],
        ["qs", "corner", "--profile", "piecewise"],
        ["qs", "twist", "--profile", "smooth"],
        ["appb", "orders", "6"],
    ],
    ids=[
        "types-validate", "chains-product", "module-compute", "check-qc-generate",
        "check-qc-corpus", "belt-acs", "belt-distance-mu", "belt-transform-value",
        "belt-pullback-value", "qs-corner", "qs-twist",
        "appb-orders",
    ],
)
def test_light_command_never_imports_numpy(argv):
    out = run_python(
        "import sys, segal.cli; "
        f"code = segal.cli.main({argv!r}); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"


def test_first_array_use_binds_numpy_itself():
    """One array call per module rebinds its ``np`` from the stand-in to numpy."""
    out = run_python(
        "import numpy, segal; from segal import beltrami, flattening, quasisym; "
        "segal.DilatationField(0, 1, 0, 1, [[0.1]]); "
        "segal.qs_bound(segal.sampled_identity(8)); "
        "segal.glue_sine(0.1); "
        "print([m.np is numpy for m in (beltrami, quasisym, flattening)])"
    )
    assert out.strip() == "[True, True, True]"


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
