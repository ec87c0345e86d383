"""Defects the acceptance criteria must catch.  Each row is applied with
monkeypatch and must fail its criterion on one named check, with a negative
margin, while the criterion's other checks still hold."""

import importlib

import pytest

from segal.acceptance import run_acceptance

# (module, function, factor on its result, criterion index, failing check)
MUTANTS = [
    ("modulus", "module_sc", 1.0 + 1e-7, 6, "vs-agm"),
    ("quasisym", "corner_dilatation", 1.01, 8, "profile-bound"),
]


@pytest.mark.parametrize(
    "module, function, factor, index, failing",
    MUTANTS,
    ids=[f"{m}.{f}" for m, f, *_ in MUTANTS],
)
def test_mutant_fails_its_check(monkeypatch, module, function, factor, index, failing):
    mod = importlib.import_module(f"segal.{module}")
    original = getattr(mod, function)
    monkeypatch.setattr(mod, function, lambda *args: factor * original(*args))
    (result,) = [r for r in run_acceptance(indices=[index]) if r.index == index]
    assert not result.passed
    by_name = {c.name: c for c in result.checks}
    assert by_name.pop(failing).margin < 0
    assert all(c.passed for c in by_name.values()), by_name
