"""Acceptance suite: every shipped guarantee as one runnable check.

Each criterion is one ``CRITERIA`` row (index, name, function).  Every
function takes the loaded corpus and returns its checks and a detail text.
A ``Check`` states one bound once: a measured value, the bound and the
sense (``<=``, ``>=`` or ``>``) in which the value must meet it.  An exact
check has bound 0; a yes/no check measures 0 for yes and 1 for no.
``run_acceptance`` alone judges the checks, deriving pass or fail and a
signed margin, and turns rows into results, so the command-line runner and
the test suite print identical one-line verdicts.
"""

from __future__ import annotations

import cmath
import math
import operator
import os
import random
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import _oracles, beltrami, chains, cobordism, corpus, flattening, modulus, quasisym
from ._input import integer, json_list, json_number, json_object, load_file
from .errors import DomainError


@dataclass(frozen=True)
class Check:
    """One stated bound: the check holds when ``measured <sense> bound``."""

    name: str
    measured: float
    bound: float
    sense: str  # "<=", ">=" or ">"


# what a criterion function returns: its checks, then its detail text
Outcome = tuple[list[Check], str]


@dataclass(frozen=True)
class CheckResult(Check):
    """A judged check.  ``margin`` is the signed distance from the measured
    value to the bound, relative to a non-zero bound; it is negative when
    the value lies on the wrong side."""

    passed: bool
    margin: float


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's verdict; ``measured`` and ``tolerance`` are its first check's."""

    index: int
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str
    checks: tuple[CheckResult, ...]

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}  {self.index:2d} {self.name:<28s} "
            f"measured={self.measured:.3e} tolerance={self.tolerance:.3e}  {self.detail}"
        )


@dataclass(frozen=True)
class AcceptanceCorpus:
    quads: tuple[tuple[float, float, float, float], ...]
    types: tuple[tuple[str, cobordism.OCType], ...]


def _quads_from_json(d) -> tuple[tuple[float, float, float, float], ...]:
    quads = json_list(json_object(d, "quad corpus")["quads"], "quad list")
    if not all(isinstance(q, list) and len(q) == 4 for q in quads):
        raise DomainError("each quad must be a list of four numbers")
    return tuple(tuple(json_number(v, "quad entry") for v in q) for q in quads)


def load_corpus(directory: Optional[str] = None) -> AcceptanceCorpus:
    """Read the quad list and example types from a directory, by default the shipped one."""
    root = Path(__file__).parent / "data" / "corpus" if directory is None else Path(directory)
    quad_path = root / "quads.json"
    if not quad_path.is_file():
        raise DomainError(f"missing corpus file {quad_path}")
    quads = load_file(quad_path, _quads_from_json, "quad-corpus")
    types = tuple(
        (p.stem, load_file(p, cobordism.octype_from_json, "surface-type"))
        for p in sorted((root / "types").glob("*.json"))
    )
    return AcceptanceCorpus(quads, types)


def corpus_integrity(data: AcceptanceCorpus) -> Outcome:
    """Pre-flight: every corpus type valid, every quad strictly ordered."""
    problems = []
    for name, t in data.types:
        report = cobordism.validate_type(t)
        if not report.ok:
            problems.append(f"{name}: {report.violations[0]}")
    for q in data.quads:
        if not (q[0] < q[1] < q[2] < q[3]):
            problems.append(f"quad {q} not strictly ordered")
    detail = problems[0] if problems else f"{len(data.types)} types, {len(data.quads)} quads"
    return [Check("problems", float(len(problems)), 0.0, "<=")], detail


# ---------------------------------------------------------------------------
# helpers


# seeded composable triples (criterion 1) and pairs (criterion 2)
_TRIPLES = 1000
_PAIRS = 200


def _small(t: cobordism.OCType) -> bool:
    """The size cap on seeded types: at most 4 components and 6 boundary circles."""
    return len(t.components) <= 4 and sum(c.n for c in t.components) <= 6


def _capped_triple(seed: int) -> tuple[cobordism.OCType, ...]:
    rng = random.Random(seed)
    while True:
        t1 = corpus.random_octype(rng)
        t2 = corpus.random_successor(rng, t1)
        t3 = corpus.random_successor(rng, t2)
        if _small(t1) and _small(t2) and _small(t3):
            return t1, t2, t3


def _sample_mu(rng: random.Random, r_max: float = 0.95) -> complex:
    r = r_max * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def _random_field(
    rng: random.Random, x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
) -> beltrami.DilatationField:
    import numpy as np  # here, so loading a corpus loads no numpy

    vals = np.array(
        [[_sample_mu(rng, 0.9) for _ in range(nx)] for _ in range(ny)]
    )
    return beltrami.DilatationField(x0, x1, y0, y1, vals)


# ---------------------------------------------------------------------------
# the criteria


def criterion_1_associativity(data: AcceptanceCorpus) -> Outcome:
    mismatches = 0
    for seed in range(_TRIPLES):
        t1, t2, t3 = _capped_triple(seed)
        lhs = cobordism.compose_types(cobordism.compose_types(t1, t2), t3)
        rhs = cobordism.compose_types(t1, cobordism.compose_types(t2, t3))
        if lhs != rhs:
            mismatches += 1
    checks = [Check("mismatches", float(mismatches), 0.0, "<=")]
    return checks, f"{_TRIPLES} seeded composable triples, canonical forms compared"


def criterion_2_compose_oracle(data: AcceptanceCorpus) -> Outcome:
    small = corpus.enumerate_small_types()
    by_in: dict[cobordism.ObjectSignature, list[cobordism.OCType]] = {}
    for t in small:
        by_in.setdefault(t.in_signature, []).append(t)
    pairs = [(t1, t2) for t1 in small for t2 in by_in.get(t1.out_signature, ())]
    seeded = (corpus.random_composable_pair(seed) for seed in range(_PAIRS))
    pairs += [(t1, t2) for t1, t2 in seeded if _small(t1) and _small(t2)]
    mismatches = sum(
        _oracles.octype_summary(cobordism.compose_types(t1, t2))
        != _oracles.glued_summary(t1, t2)
        for t1, t2 in pairs
    )
    checks = [Check("mismatches", float(mismatches), 0.0, "<=")]
    return checks, f"{len(pairs)} glued pairs vs polygon-complex oracle, exact"


def criterion_3_dilatation(data: AcceptanceCorpus) -> Outcome:
    rng = random.Random(3)
    worst_rt = 0.0
    for _ in range(10_000):
        mu = _sample_mu(rng, 0.999)
        k = beltrami.dilatation_K(mu)
        worst_rt = max(worst_rt, abs(beltrami.abs_mu_from_K(k) - abs(mu)))
    worst_fd = 0.0
    for _ in range(20):
        k = 1.0 + 9.0 * rng.random()
        f = lambda z, k=k: k * z.real + 1j * z.imag
        fz, fzbar = _oracles.wirtinger_fd(f, complex(0.3, 0.4), 1e-6)
        worst_fd = max(worst_fd, abs(fzbar / fz - (k - 1.0) / (k + 1.0)))
    checks = [Check("round-trip", worst_rt, 1e-12, "<="), Check("stretch-fd", worst_fd, 1e-8, "<=")]
    return checks, f"10^4 samples; stretch FD dev {worst_fd:.2e} vs {checks[1].bound:.1e}"


def criterion_4_fiber_isometry(data: AcceptanceCorpus) -> Outcome:
    rng = random.Random(4)
    worst = 0.0
    for _ in range(1000):
        mu1, mu2 = _sample_mu(rng), _sample_mu(rng)
        mu_f = _sample_mu(rng, 0.9)
        fz = cmath.exp(2j * math.pi * rng.random()) * (0.5 + rng.random())
        fzbar = mu_f * fz
        d0 = beltrami.teichmuller_distance(mu1, mu2)
        d1 = beltrami.teichmuller_distance(
            beltrami.transform_mu(mu1, mu_f, fz, fzbar),
            beltrami.transform_mu(mu2, mu_f, fz, fzbar),
        )
        worst = max(worst, abs(d1 - d0))
    checks = [Check("distance-change", worst, 1e-10, "<=")]
    return checks, "10^3 random coefficient pairs under chart changes"


def criterion_5_sewing_isometry(data: AcceptanceCorpus) -> Outcome:
    worst = 0.0
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        a = _random_field(rng, 0.0, 1.0, 0.0, 1.0, 6, 5)
        a2 = _random_field(rng, 0.0, 1.0, 0.0, 1.0, 6, 5)
        b = _random_field(rng, 1.0, 2.0, 0.0, 1.0, 6, 5)
        b2 = _random_field(rng, 1.0, 2.0, 0.0, 1.0, 6, 5)
        lhs = beltrami.field_distance(
            beltrami.sew_sections(a, b, "x"), beltrami.sew_sections(a2, b2, "x")
        )
        rhs = max(beltrami.field_distance(a, a2), beltrami.field_distance(b, b2))
        worst = max(worst, abs(lhs - rhs))
    checks = [Check("distance-change", worst, 1e-12, "<=")]
    return checks, "100 random field quadruples, seam concatenation"


def criterion_6_module_numerics(data: AcceptanceCorpus) -> Outcome:
    positions = (1.5, 2.0, 3.0, 5.0, 10.0)
    worst_agm = max(
        abs(modulus.module_sc(x) - _oracles.module_agm(x)) for x in positions
    )
    worst_rec = max(
        abs(modulus.module_sc(x) * modulus.module_sc(modulus.rotated_position(x)) - 1.0)
        for x in positions
    )
    rng = random.Random(6)
    worst_mob = 0.0
    for _ in range(25):
        quad = modulus.QuadrilateralSpec(*sorted(rng.uniform(-3, 3) for _ in range(4)))
        base = modulus.module_of_quad(quad)
        aa = rng.uniform(0.5, 2.0)
        bb = rng.uniform(-2.0, 2.0)
        moved = modulus.QuadrilateralSpec(*(aa * z + bb for z in quad.vertices))
        worst_mob = max(worst_mob, abs(modulus.module_of_quad(moved) - base))
        # Pole left of every marked point keeps the ordering intact.
        c = quad.z0 - rng.uniform(0.5, 2.0)
        inverted = modulus.QuadrilateralSpec(*(-1.0 / (z - c) for z in quad.vertices))
        worst_mob = max(worst_mob, abs(modulus.module_of_quad(inverted) - base))
    checks = [
        Check("vs-agm", worst_agm, 1e-8, "<="),
        Check("reciprocity", worst_rec, 1e-6, "<="),
        Check("mobius-invariance", worst_mob, 1e-8, "<="),
    ]
    _, rec, mob = checks
    return checks, (
        f"reciprocity dev {rec.measured:.2e} vs {rec.bound:.1e}; "
        f"invariance dev {mob.measured:.2e} vs {mob.bound:.1e}"
    )


def criterion_7_geometric_qc(data: AcceptanceCorpus) -> Outcome:
    specs = [modulus.QuadrilateralSpec(*q) for q in data.quads]
    report = modulus.check_geometric_qc(2.0, specs, slack=1e-6)
    checks = [
        Check("rectangle-sup", report.max_ratio, 1.99, ">="),
        Check("within-bounds", float(not report.within_bounds), 0.0, "<="),
    ]
    return checks, (
        f"{len(report.quad_ratios)} quads in [1/2,2]; "
        f"rectangle family sup {report.max_ratio:.6f} (measured >= tolerance)"
    )


def criterion_8_corner(data: AcceptanceCorpus) -> Outcome:
    # The corner map stretches by max(2 psi', 1/(2 psi')): fd-relative holds the
    # map to that formula, profile-bound holds corner_dilatation to it.
    thetas = [2.0 * math.pi * (j + 0.5) / 256 for j in range(256)]
    ks, sups, fd_devs, k_devs = [], [], [], []
    for phi in (quasisym.half_angle_piecewise(), quasisym.half_angle_smooth()):
        formula = max(2.0 * phi.deriv_max, 1.0 / (2.0 * phi.deriv_min))
        sigma = quasisym.corner_transform(phi)
        sups.append(max(_oracles.dilatation_fd(sigma, cmath.exp(1j * t), 1e-6) for t in thetas))
        ks.append(quasisym.corner_dilatation(phi))
        fd_devs.append(abs(sups[-1] - formula) / formula)
        k_devs.append(abs(ks[-1] - formula))
    checks = [
        Check("fd-relative", max(fd_devs), 0.05, "<="),
        Check("profile-bound", max(k_devs), 0.0, "<="),
    ]
    return checks, (
        f"K={ks[0]} piecewise, {ks[1]} smooth, each its profile formula exactly: "
        f"{max(k_devs) == 0.0}; FD sup {sups[0]:.4f}, {sups[1]:.4f}"
    )


def criterion_9_quasisymmetry(data: AcceptanceCorpus) -> Outcome:
    k_id = quasisym.qs_bound(quasisym.sampled_identity(128))
    k_slope = quasisym.qs_bound(quasisym.sampled_slope_break(2.0, 128))
    t_max = 1.0
    k_exp = quasisym.qs_bound(quasisym.sampled_exp(t_max, 128))
    checks = [
        Check("identity-and-slope", max(abs(k_id - 1.0), abs(k_slope - 2.0)), 0.0, "<="),
        Check("exp-window", k_exp, math.exp(t_max) * (1.0 - 1e-6), ">="),
    ]
    return checks, f"identity=1 and slope-2=2 exact; exp window k={k_exp:.9f}"


def criterion_10_chain_suite(data: AcceptanceCorpus) -> Outcome:
    failures = sum(chains.check_identities(6).values())
    checks = [Check("failures", float(failures), 0.0, "<=")]
    return checks, "chain map, associativity, term counts, d^2=0; integer arithmetic"


def criterion_11_order_recursion(data: AcceptanceCorpus) -> Outcome:
    expected = [
        flattening.OrderPair(flattening.INFINITE, 0),
        flattening.OrderPair(1, 2),
        flattening.OrderPair(3, 2),
        flattening.OrderPair(3, 4),
        flattening.OrderPair(5, 4),
        flattening.OrderPair(5, 6),
    ]
    seq_ok = flattening.order_sequence(5) == expected
    long_seq = flattening.order_sequence(45)
    growth_ok = any(p.min_order > 20 for p in long_seq)
    report = flattening.verify_orders(flattening.glue_sine(0.1), 1)
    worst = 0.0
    for fit in report.fits:
        if fit.fitted_m != flattening.INFINITE:
            worst = max(worst, abs(fit.fitted_m - fit.predicted.m))
        if fit.fitted_n != flattening.INFINITE:
            worst = max(worst, abs(fit.fitted_n - fit.predicted.n))
    checks = [
        Check("fit-deviation", worst, 0.25, "<="),
        Check("sequence", float(not seq_ok), 0.0, "<="),
        Check("growth", float(not growth_ok), 0.0, "<="),
    ]
    return checks, f"sequence exact: {seq_ok}; min order exceeds 20 within 45: {growth_ok}"


def criterion_12_smooth_twist(data: AcceptanceCorpus) -> Outcome:
    worst = 0.0
    min_jac = math.inf
    for phi in (quasisym.half_angle_smooth(), quasisym.half_angle_piecewise()):
        _, rep = quasisym.smooth_twist(phi, 1.0, 2.0)
        worst = max(worst, rep.inner_max_dev, rep.outer_max_dev)
        min_jac = min(min_jac, rep.min_jacobian)
    _, rot = quasisym.smooth_twist(quasisym.circle_rotation(0.9), 1.0, 2.0)
    checks = [
        Check("boundary-deviation", worst, 0.0, "<="),
        Check("min-jacobian", min_jac, 0.0, ">"),
        Check("rigid-rotation", float(not rot.rigid_rotation), 0.0, "<="),
    ]
    return checks, f"min Jacobian {min_jac:.4f}; rotation extends rigidly: {rot.rigid_rotation}"


CRITERIA: tuple[tuple[int, str, Callable[[AcceptanceCorpus], Outcome]], ...] = (
    (1, "composition-associativity", criterion_1_associativity),
    (2, "compose-vs-cell-complex", criterion_2_compose_oracle),
    (3, "dilatation-round-trip", criterion_3_dilatation),
    (4, "fiber-action-isometry", criterion_4_fiber_isometry),
    (5, "sewing-isometry", criterion_5_sewing_isometry),
    (6, "module-vs-agm", criterion_6_module_numerics),
    (7, "stretch-module-ratios", criterion_7_geometric_qc),
    (8, "corner-map-dilatation", criterion_8_corner),
    (9, "quasisymmetry-bounds", criterion_9_quasisymmetry),
    (10, "chain-product-identities", criterion_10_chain_suite),
    (11, "flattening-order-recursion", criterion_11_order_recursion),
    (12, "smooth-twist-boundaries", criterion_12_smooth_twist),
)

# The criteria a pool starts first, heaviest first.  Warm CPU per criterion
# on a 2-CPU Xeon (one process, interleaved minima; the parent side of
# BENCH_31.json): 0.31 s for criterion 1, 0.28 s for 2, 0.08 s for 11 and
# 0.04 s for 10, at most 0.02 s for each other.  In table order 11 started
# last of the long jobs, and one worker ran it on while the other idled.
HEAVIEST = (1, 2, 11, 10)


_HOLDS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _judge(check: Check) -> CheckResult:
    gap = check.bound - check.measured if check.sense == "<=" else check.measured - check.bound
    return CheckResult(
        **vars(check),
        passed=_HOLDS[check.sense](check.measured, check.bound),
        margin=gap / abs(check.bound) if check.bound else gap,
    )


def run_acceptance(
    corpus_dir: Optional[str] = None,
    scale: float = 1.0,
    indices: Optional[Sequence[int]] = None,
) -> list[CriterionResult]:
    """Run the corpus check and every requested criterion, in order.

    The corpus check runs in this process.  With two usable CPUs or more,
    the criteria run in forked worker processes, and their checks come back
    in table order, so the results are the same either way.  Each bound is
    stated once, in its criterion.  ``indices`` names criteria
    of ``CRITERIA``, all of them when empty or None; an index that is not
    an integer (``_input.integer``) or not in the table is a
    ``DomainError``, raised before the corpus loads.  ``scale`` only holds
    the second positional place for existing callers: any value but 1.0 is
    a ``DomainError``.
    """
    if scale != 1.0:
        raise DomainError(f"acceptance bounds are fixed; scale must be 1.0, got {scale!r}")
    indices = [integer(i, "criterion index") for i in (() if indices is None else indices)]
    known = {idx for idx, _, _ in CRITERIA}
    bad = [i for i in indices if i not in known]
    if bad:
        raise DomainError(f"criterion indices out of range: {bad}")
    data = load_corpus(corpus_dir)
    # both names are looked up at call time, so a wrapper installed over
    # them (perfbench's tracer) sees every criterion it runs
    rows = [(0, "corpus-integrity", corpus_integrity)]
    rows += [row for row in CRITERIA if not indices or row[0] in indices]
    outcomes = [corpus_integrity(data)] + _outcomes(rows[1:], data)
    results = []
    for (idx, name, _), (checks, detail) in zip(rows, outcomes):
        judged = tuple(map(_judge, checks))
        first = checks[0]
        passed = all(c.passed for c in judged)
        results.append(CriterionResult(idx, name, passed, first.measured, first.bound, detail, judged))
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# A worker's criteria and corpus, set in each forked worker by the pool's
# initializer.  Under fork its arguments are inherited, not pickled, so a
# criterion runs there as the caller holds it, wrapped or monkeypatched, and
# only its outcome, or its exception, is pickled back.
_worker_jobs: tuple = ((), None)


def _start_worker(fns: list, data: AcceptanceCorpus) -> None:
    global _worker_jobs
    _worker_jobs = fns, data
    # Ctrl-C reaches the whole process group.  A worker then ends at once,
    # without a traceback, and the parent alone reports the interrupt; one
    # held back while the pool forked lands here.  An ignored one stays so.
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # An idle worker waits on its parent for the next job, so one whose
    # parent was killed would wait for ever, holding the parent's stdout.
    import multiprocessing.connection
    import threading

    def exit_with_parent() -> None:
        multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _run_job(position: int) -> Outcome:
    fns, data = _worker_jobs
    return fns[position](data)


def _outcomes(rows: list, data: AcceptanceCorpus) -> list[Outcome]:
    """Every row's ``fn(data)``, in row order.  With two criteria or more and
    two usable CPUs or more, they run in one forked worker process per CPU,
    and the ``HEAVIEST`` are started first."""
    fns = [fn for _, _, fn in rows]
    workers = min(len(fns), _usable_cpus())
    if workers < 2:
        return [fn(data) for fn in fns]
    import multiprocessing  # here, so a single criterion loads none of them
    import threading
    from concurrent.futures import ProcessPoolExecutor

    import numpy  # noqa: F401  (loaded before the fork, so no worker imports it)

    # the HEAVIEST in their order, then the rest in table order
    rank = {idx: r for r, idx in enumerate(HEAVIEST)}
    order = sorted(range(len(rows)), key=lambda i: rank.get(rows[i][0], len(rank)))
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, context, _start_worker, (fns, data))
    # A Ctrl-C is held back while the first submit forks the workers: each
    # starts with SIGINT blocked and takes it once its initializer has set
    # its action.  Here, where Python's own handler would raise it, it is
    # noted instead, as another thread (numpy's OpenBLAS pool) may take it,
    # and raised after the forks.  An ignored or caller-handled one is left.
    noted = []
    ours = (signal.getsignal(signal.SIGINT) is signal.default_int_handler
            and threading.current_thread() is threading.main_thread())
    if ours:
        signal.signal(signal.SIGINT, lambda *_: noted.append(True))
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            jobs = [None] * len(rows)  # by table position, as results are returned
            for i in order:
                jobs[i] = pool.submit(_run_job, i)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            if ours:  # a SIGINT that was pending is noted before this swap
                signal.signal(signal.SIGINT, signal.default_int_handler)
            if noted:  # also in place of a broken pool from a worker it ended
                raise KeyboardInterrupt
        return [job.result() for job in jobs]
    finally:
        # the pool cancels the jobs not started: one cancelled from this
        # thread would race the pool marking it broken after a Ctrl-C
        pool.shutdown(cancel_futures=True)
