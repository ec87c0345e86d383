"""In-process workloads ``accept`` and ``deep``, one per fresh interpreter.

``run.py`` spawns this file once per run.  It imports ``segal``, builds the
inputs from the seed, warms every timed public function up on its smallest
valid input, notes the monotonic time at which the first timed pass starts,
and then runs passes in a closed loop (one operation in flight) until the
time budget is spent.  Every operation's output is checked; a failed check
is counted and the workload keeps running.  The result is one JSON line on
standard output.

Run through ``run.py``; standalone use is for debugging::

    PYTHONPATH=src python3 perfbench/worker.py --workload deep --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibrate import Calibrator  # noqa: E402

SIZES = {
    "full": {
        "flatten_k": 2,
        "shuffle": (9, 9),
        "assoc": (3, 3, 3),
        "chain_map": (6, 6),
        "slope_n": 2048,   # 4097 samples
        "exp_n": 512,      # 1025 samples
        "quads": 4000,
        "field_n": 1024,
        "module_samples": 16,
        "accept_only": None,
    },
    "smoke": {
        "flatten_k": 1,
        "shuffle": (3, 3),
        "assoc": (1, 1, 1),
        "chain_map": (2, 2),
        "slope_n": 16,
        "exp_n": 16,
        "quads": 20,
        "field_n": 16,
        "module_samples": 4,
        "accept_only": (3, 9),
    },
}

# Expected values and the library's stated tolerances for the output checks.
EXPECTED = {
    "slope_bound": 2.0,          # exact: qs_bound of a slope-2 break
    "exp_rel_tol": 1e-6,         # qs_bound(exp) >= e * (1 - tol)
    "module_agm_tol": 1e-8,      # module_sc against the AGM oracle
    "sewing_tol": 1e-12,         # seam concatenation is an exact isometry
    "chart_action_tol": 1e-10,   # chart changes are isometries
}


class Checks:
    """Counts checked operations; a failed check never raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(name)
        return bool(ok)

    def guard(self, name: str, fn, *args):
        """Run one operation; an exception counts as a failed check."""
        try:
            return fn(*args)
        except Exception as exc:  # keep the closed loop running
            self.check(f"{name}: {type(exc).__name__}: {exc}", False)
            return None


def _timed(clock, times: dict, name: str, fn):
    """Run one timed operation; keep its wall time and the kernel time around it."""
    out, wall, kernel = clock.timed(fn)
    times[name] = [wall, kernel]
    return out


class AcceptWorkload:
    """``run_acceptance()`` on the bundled corpus, as ``segal accept`` does.

    Deterministic by design: the criteria carry their own fixed seeds, so
    the workload seed is recorded and ignored.
    """

    uses_seed = False

    def __init__(self, sizes: dict, seed: int) -> None:
        import segal

        self.segal = segal
        self.only = sizes["accept_only"]
        segal.run_acceptance(indices=[8])  # warm-up on the cheapest criterion

    def run_pass(self, checks: Checks, clock) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {}
        results = _timed(
            clock, times, "accept_s",
            lambda: checks.guard("run_acceptance", self.segal.run_acceptance, None, 1.0, self.only),
        )
        for r in results or ():
            checks.check(f"criterion {r.index} {r.name}: {r.detail}", r.passed)
        return times


class DeepWorkload:
    """The library API at research sizes, one computation per layer."""

    uses_seed = True

    def __init__(self, sizes: dict, seed: int) -> None:
        import numpy as np

        import segal
        from segal import _oracles, corpus, modulus

        self.segal, self.oracles, self.modulus = segal, _oracles, modulus
        self.sizes = sizes
        s = segal
        self.glue = s.glue_sine(0.1)
        p, q = sizes["shuffle"]
        self.gens = (s.generator("a", p), s.generator("b", q))
        self.slope = s.sampled_slope_break(2.0, sizes["slope_n"])
        self.exp = s.sampled_exp(1.0, sizes["exp_n"])
        self.quads = [
            modulus.QuadrilateralSpec(*quad) for quad in corpus.generate_quads(seed, sizes["quads"])
        ]

        rng = np.random.default_rng(seed)
        n = sizes["field_n"]

        def field(x0: float) -> "s.DilatationField":
            r = 0.9 * np.sqrt(rng.random((n, n)))
            return s.DilatationField(x0, x0 + 1.0, 0.0, 1.0, r * np.exp(2j * np.pi * rng.random((n, n))))

        self.fields = (field(0.0), field(0.0), field(1.0), field(1.0))
        mu_f = complex(*(0.4 * rng.random(2) - 0.2))
        fz = complex(*(rng.random(2) + 0.5))
        self.chart = (mu_f, fz, mu_f * fz)
        self.overlap = (complex(*(0.4 * rng.random(2) - 0.2)), np.exp(2j * np.pi * rng.random()))

        # warm-up: each timed public function on its smallest valid input
        s.verify_orders(self.glue, 0)
        s.shuffle_product(s.generator("a", 0), s.generator("b", 0))
        s.check_associativity(0, 0, 0)
        s.check_chain_map(0, 0)
        s.qs_bound(s.sampled_identity(2))
        s.check_geometric_qc(2.0, self.quads[:1])
        tiny = s.DilatationField(0.0, 1.0, 0.0, 1.0, np.zeros((1, 1)))
        s.field_distance(s.transform_field(tiny, *self.chart), s.pullback_field(tiny, *self.overlap))
        s.sew_sections(tiny, s.DilatationField(1.0, 2.0, 0.0, 1.0, np.zeros((1, 1))), "x")

    def run_pass(self, checks: Checks, clock) -> dict[str, list[float]]:
        s, z = self.segal, self.sizes
        times: dict[str, list[float]] = {}

        rep = _timed(clock, times, "flatten_k2_s", lambda: checks.guard("verify_orders", s.verify_orders, self.glue, z["flatten_k"]))
        checks.check("verify_orders all_ok", rep is not None and rep.all_ok)

        def chains_block():
            a, b = self.gens
            return (
                s.shuffle_product(a, b),
                s.check_associativity(*z["assoc"]),
                s.check_chain_map(*z["chain_map"]),
            )

        out = _timed(clock, times, "chains_s", lambda: checks.guard("chains", chains_block))
        prod, assoc, cmap = out if out else (None, False, False)
        p, q = z["shuffle"]
        checks.check("shuffle term count", prod is not None and len(prod) == math.comb(p + q, p))
        checks.check("associativity", assoc is True)
        checks.check("chain map", cmap is True)

        out = _timed(clock, times, "qs_s", lambda: checks.guard("qs_bound", lambda: (s.qs_bound(self.slope), s.qs_bound(self.exp))))
        k_slope, k_exp = out if out else (None, None)
        checks.check("slope-break bound exact", k_slope == EXPECTED["slope_bound"])
        checks.check("exp bound", k_exp is not None and k_exp >= math.e * (1.0 - EXPECTED["exp_rel_tol"]))

        report = _timed(clock, times, "module_s", lambda: checks.guard("check_geometric_qc", s.check_geometric_qc, 2.0, self.quads))
        checks.check("within_bounds", report is not None and report.within_bounds)
        step = max(1, len(self.quads) // z["module_samples"])
        for quad in self.quads[::step][: z["module_samples"]]:
            x = self.modulus.normalize_quad(quad)
            dev = checks.guard("module_sc", lambda: abs(s.module_sc(x) - self.oracles.module_agm(x)))
            checks.check(f"module_sc({x!r}) vs AGM", dev is not None and dev <= EXPECTED["module_agm_tol"])

        dists = _timed(clock, times, "field_s", lambda: checks.guard("fields", self._field_block))
        if dists is None:
            checks.check("sewing isometry", False)
            checks.check("chart-action isometry", False)
        else:
            d_ab, d_cd, d_t, d_p, d_s = dists
            checks.check("sewing isometry", abs(d_s - max(d_ab, d_cd)) <= EXPECTED["sewing_tol"])
            tol = EXPECTED["chart_action_tol"]
            checks.check("chart-action isometry", abs(d_t - d_ab) <= tol and abs(d_p - d_ab) <= tol)
        return times

    def _field_block(self) -> tuple[float, ...]:
        s = self.segal
        a, b, c, d = self.fields
        d_ab = s.field_distance(a, b)
        d_cd = s.field_distance(c, d)
        d_t = s.field_distance(s.transform_field(a, *self.chart), s.transform_field(b, *self.chart))
        d_p = s.field_distance(s.pullback_field(a, *self.overlap), s.pullback_field(b, *self.overlap))
        d_s = s.field_distance(s.sew_sections(a, c, "x"), s.sew_sections(b, d, "x"))
        return d_ab, d_cd, d_t, d_p, d_s


WORKLOADS = {"accept": AcceptWorkload, "deep": DeepWorkload}


def run_passes(work, checks: Checks, seconds: float, clock, tracer=None) -> list[dict]:
    """Closed loop: start a pass only while it is expected to end in time."""
    passes: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_pass()
        p = {"ops": work.run_pass(checks, clock)}
        if tracer is not None:
            p["counters"], p["errors"] = (dict(c) for c in tracer.end_pass())
        last = time.perf_counter() - t0
        passes.append(p)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="trace this process and write its spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        import segal  # noqa: F401  (the tracer wraps what is imported)
        import segal._oracles  # noqa: F401

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    work = WORKLOADS[args.workload](SIZES["smoke" if args.smoke else "full"], args.seed)
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if not args.setup_only:
        checks = Checks()
        with Calibrator() as clock:
            passes = run_passes(work, checks, args.seconds, clock, tracer)
        out.update(
            passes=passes,
            attempted=checks.attempted,
            failed=checks.failed,
            failures=checks.failures,
            seed_used=work.uses_seed,
        )
        if tracer is not None:
            out["layers"] = [tracer.pass_stats(*bounds) for bounds in tracer.passes]
            tracer.dump(Path(args.trace_out), {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
