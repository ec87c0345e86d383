"""Defects the acceptance criteria must catch.  Each row replaces one
function with monkeypatch and must fail its criterion on one named check,
with a negative margin, while the criterion's other checks still hold."""

import importlib

import pytest

from segal.acceptance import run_acceptance


def scaled(factor):
    """The original function with its result multiplied by ``factor``."""
    return lambda original: lambda *args: factor * original(*args)


def printed_corner_bound(original):
    """The bound max(psi'max / 2, 2 / psi'min), which equals the corner map's
    distortion max(2 psi'max, 1 / (2 psi'min)) only when psi'min psi'max = 1."""
    return lambda phi: max(0.5 * phi.deriv_max, 2.0 / phi.deriv_min)


# (module, function, replacement built from the original, criterion index,
# failing check)
MUTANTS = [
    ("modulus", "module_sc", scaled(1.0 + 1e-7), 6, "vs-agm"),
    ("quasisym", "corner_dilatation", scaled(1.01), 8, "profile-bound"),
    ("quasisym", "corner_dilatation", printed_corner_bound, 8, "profile-bound"),
]


@pytest.mark.parametrize(
    "module, function, replace, index, failing",
    MUTANTS,
    ids=["modulus.module_sc", "quasisym.corner_dilatation", "quasisym.corner_dilatation-printed"],
)
def test_mutant_fails_its_check(monkeypatch, module, function, replace, index, failing):
    mod = importlib.import_module(f"segal.{module}")
    monkeypatch.setattr(mod, function, replace(getattr(mod, function)))
    (result,) = [r for r in run_acceptance(indices=[index]) if r.index == index]
    assert not result.passed
    by_name = {c.name: c for c in result.checks}
    assert by_name.pop(failing).margin < 0
    assert all(c.passed for c in by_name.values()), by_name
