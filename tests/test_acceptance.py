"""One test per shipped guarantee, each printing its verdict line.

The suite runs the same callables as `segal accept`, so a red test here and
a FAIL line on the command line are the same event.
"""

import math

import pytest

from segal.acceptance import CRITERIA, Check, _judge, run_acceptance
from segal.errors import DomainError

_NAMES = ["corpus-integrity"] + [name for _, name, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    res = run_acceptance()
    return {r.name: r for r in res}


@pytest.mark.parametrize("name", _NAMES)
def test_criterion(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, r.line()


def test_all_indices_covered(results):
    assert sorted(r.index for r in results.values()) == list(range(13))


# Every stated bound, as (criterion index, check name, bound, sense).  The
# goldens of the full `segal accept` mask every number, so this table is
# what keeps a bound from moving.
BOUNDS = [
    (0, "problems", 0.0, "<="),
    (1, "mismatches", 0.0, "<="),
    (2, "mismatches", 0.0, "<="),
    (3, "round-trip", 1e-12, "<="),
    (3, "stretch-fd", 1e-8, "<="),
    (4, "distance-change", 1e-10, "<="),
    (5, "distance-change", 1e-12, "<="),
    (6, "vs-agm", 1e-8, "<="),
    (6, "reciprocity", 1e-6, "<="),
    (6, "mobius-invariance", 1e-8, "<="),
    (7, "rectangle-sup", 1.99, ">="),
    (7, "within-bounds", 0.0, "<="),
    (8, "fd-relative", 0.05, "<="),
    (8, "profile-bound", 0.0, "<="),
    (9, "identity-and-slope", 0.0, "<="),
    (9, "exp-window", math.exp(1.0) * (1.0 - 1e-6), ">="),
    (10, "failures", 0.0, "<="),
    (11, "fit-deviation", 0.25, "<="),
    (11, "sequence", 0.0, "<="),
    (11, "growth", 0.0, "<="),
    (12, "boundary-deviation", 0.0, "<="),
    (12, "min-jacobian", 0.0, ">"),
    (12, "rigid-rotation", 0.0, "<="),
]


def test_every_bound_is_pinned(results):
    stated = [
        (r.index, c.name, c.bound, c.sense)
        for r in sorted(results.values(), key=lambda r: r.index)
        for c in r.checks
    ]
    assert stated == BOUNDS


def test_first_check_fills_the_text_columns(results):
    for r in results.values():
        assert (r.measured, r.tolerance) == (r.checks[0].measured, r.checks[0].bound)
        assert r.passed == all(c.passed for c in r.checks)


@pytest.mark.parametrize(
    "check, passed, margin",
    [
        (Check("c", 0.5, 2.0, "<="), True, 0.75),
        (Check("c", 3.0, 2.0, "<="), False, -0.5),
        (Check("c", 0.0, 0.0, "<="), True, 0.0),
        (Check("c", 0.04, 0.0, "<="), False, -0.04),
        (Check("c", 3.0, 2.0, ">="), True, 0.5),
        (Check("c", 1.0, 2.0, ">="), False, -0.5),
        (Check("c", 0.5, 0.0, ">"), True, 0.5),
        (Check("c", 0.0, 0.0, ">"), False, 0.0),
        (Check("c", math.nan, 1.0, "<="), False, math.nan),
    ],
)
def test_judge_margin(check, passed, margin):
    judged = _judge(check)
    assert judged.passed is passed
    assert judged.margin == pytest.approx(margin, nan_ok=True)


def test_scale_is_fixed():
    with pytest.raises(DomainError, match="got 2.0"):
        run_acceptance(None, 2.0)
