"""The segal benchmark: what users wait for, and where that time goes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload accept --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload

Workloads (see ``BENCHMARK.json``, ``layers.json`` and ``README.md``):

- ``accept``: ``run_acceptance()`` repeated in one warm process.
- ``cli``: every subcommand once per pass, each a fresh ``python -m segal.cli``.
- ``deep``: the library API at research sizes, one computation per layer.

One client keeps one operation in flight (a closed loop).  ``--trace 0``
reports the end-to-end metrics, in calibrated seconds (``calibrate.py``).
``--trace 1`` makes one untraced and one traced run of the workload, plus
traced runs of the other workloads for the layers it does not reach, and
reports the per-layer metrics and the tracing overhead.  Every output is
checked; the last line of standard output is the JSON result.  ``--smoke``
shrinks every size for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# BENCHMARK.json lists the workloads a regression check runs; ``deep`` runs on request.
WORKLOADS = ("accept", "cli", "deep")
# Between them these two reach every layer; see per_layer_metrics.
COVERAGE = ("accept", "cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170.0

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import cliwork  # noqa: E402


def end_to_end_metrics() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def layer_map() -> dict:
    return json.loads((HERE / "layers.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion; return (exit code, stdout, stderr, wall s)."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - t0


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


class Failure(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# accept and deep: the worker process


def run_worker(workload, seed, seconds, smoke, env, clock, extra=()) -> tuple[dict, list[float]]:
    """One worker process; returns its result and its set-up [wall, kernel]."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), *extra]
    if smoke:
        argv.append("--smoke")
    before = clock.last
    t0 = time.monotonic()
    code, out, err, _ = spawn(argv, env)
    if code != 0:
        raise Failure(f"worker {workload} exited {code}: {err.decode(errors='replace')[-2000:]}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, [result["ready"] - t0, 0.5 * (before + clock.measure())]


def summarize(passes: list[dict[str, list[float]]]) -> dict:
    """Medians of the pass totals and of single operations, scaled and raw."""
    scaled = [{k: calibrate.scaled(w, c) for k, (w, c) in p.items()} for p in passes]
    raw = [{k: w for k, (w, _) in p.items()} for p in passes]

    def stats(ps):
        return {
            "pass_s": statistics.median(sum(p.values()) for p in ps),
            "op_p50_s": statistics.median(v for p in ps for v in p.values()),
        }

    return {
        **stats(scaled),
        "raw": stats(raw),
        "per_op": {k: statistics.median(p[k] for p in scaled) for k in scaled[0]},
        "passes": len(passes),
        "ops": passes,
    }


def setup_median(samples: list[list[float]]) -> dict:
    return {
        "setup_s": statistics.median(calibrate.scaled(w, c) for w, c in samples),
        "raw_setup_s": statistics.median(w for w, _ in samples),
    }


def worker_untraced(workload, seed, seconds, smoke, env, clock) -> dict:
    setups = [
        run_worker(workload, seed, seconds, smoke, env, clock, ["--setup-only"])[1]
        for _ in range(1 if smoke else SETUP_SAMPLES)
    ]
    result, _ = run_worker(workload, seed, seconds, smoke, env, clock)
    summary = summarize([p["ops"] for p in result["passes"]])
    return {
        **summary,
        **setup_median(setups),
        "named": summary["per_op"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "seed_used": result["seed_used"],
    }


def worker_traced(workload, seed, seconds, smoke, env, clock, trace_path: Path) -> dict:
    untraced, _ = run_worker(workload, seed, seconds / 2, smoke, env, clock)
    traced, _ = run_worker(workload, seed, seconds / 2, smoke, env, clock, ["--trace-out", str(trace_path)])
    per_pass = [
        dict(spans=layers, counters=p["counters"], errors=p["errors"])
        for layers, p in zip(traced["layers"], traced["passes"])
    ]
    return {
        "per_pass": per_pass,
        "overhead_s": summarize([p["ops"] for p in traced["passes"]])["pass_s"]
        - summarize([p["ops"] for p in untraced["passes"]])["pass_s"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
    }


# ---------------------------------------------------------------------------
# cli: one process per command


def cli_pass(script, seed, inputs, expected, env, clock, problems: list, trace_dir: Path | None = None):
    """One pass over the script; returns each command's [wall, kernel]."""
    ops: dict[str, list[float]] = {}
    for entry in script:
        argv = cliwork.argv_for(entry, seed, inputs)
        name = cliwork.key(entry[0], entry[1])
        if trace_dir is None:
            cmd = [sys.executable, "-m", "segal.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir / name), *argv]
        (code, out, _, wall), _, kernel = clock.timed(lambda: spawn(cmd, env))
        ops[name] = [wall, kernel]
        problems.append(cliwork.check_output(entry, seed, code, out, expected))
    return ops


def cli_setup(smoke: bool):
    """The script, the field files it reads, and the expected outputs."""
    script = cliwork.SMOKE_SCRIPT if smoke else cliwork.SCRIPT
    return script, cliwork.write_inputs(OUT_DIR / "cli-inputs"), cliwork.load_expected()


def cli_untraced(seed, seconds, smoke, env, clock) -> dict:
    script, inputs, expected = cli_setup(smoke)
    version = [sys.executable, "-m", "segal.cli", "--version"]
    setups = []
    for _ in range(1 if smoke else SETUP_SAMPLES):
        (code, out, _, wall), _, kernel = clock.timed(lambda: spawn(version, env))
        if code != 0 or not out.startswith(b"segal "):
            raise Failure(f"segal --version exited {code}")
        setups.append([wall, kernel])
    problems: list[list[str]] = []
    passes = []
    start = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        passes.append(cli_pass(script, seed, inputs, expected, env, clock, problems))
        last = time.monotonic() - t0
    summary = summarize(passes)
    failures = [p for ps in problems for p in ps]
    return {
        **summary,
        **setup_median(setups),
        "named": {"cli_p50_s": summary["op_p50_s"], "cli_sum_s": summary["pass_s"]},
        "attempted": len(problems),
        "failed": sum(1 for ps in problems if ps),
        "failures": failures[:50],
        "seed_used": True,
    }


def cli_traced(seed, seconds, smoke, env, clock, trace_dir: Path) -> dict:
    script, inputs, expected = cli_setup(smoke)
    problems: list[list[str]] = []
    plain = cli_pass(script, seed, inputs, expected, env, clock, problems)
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = cli_pass(script, seed, inputs, expected, env, clock, problems, trace_dir)
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    errors: dict[str, float] = {}
    for entry in script:
        summary = json.loads((trace_dir / f"{cliwork.key(entry[0], entry[1])}.json").read_text())
        for name, st in summary["layers"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for src, dst in ((summary["counters"], counters), (summary["errors"], errors)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    failures = [p for ps in problems for p in ps]
    return {
        # command wall times are taken from outside, on the untraced pass
        "per_pass": [dict(spans=spans, counters=counters, errors=errors, cli={k: w for k, (w, _) in plain.items()})],
        "overhead_s": summarize([traced])["pass_s"] - summarize([plain])["pass_s"],
        "attempted": len(problems),
        "failed": sum(1 for ps in problems if ps),
        "failures": failures[:50],
    }


# ---------------------------------------------------------------------------
# per-layer metrics


def import_times(env) -> dict[str, float]:
    """Cumulative import seconds of segal, scipy and numpy (``-X importtime``)."""
    code, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import segal"], env)
    if code != 0:
        raise Failure("import segal failed")
    return parse_importtime(err.decode())


def parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative time of each outermost import of each package."""
    entries = []  # (depth, name, cumulative us), in the order printed (children first)
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"segal": 0, "scipy": 0, "numpy": 0}
    stack: list[str] = []
    for depth, name, cumulative in reversed(entries):  # parents first
        del stack[depth:]
        top = name.split(".")[0]
        if top in totals and all(s.split(".")[0] != top for s in stack):
            totals[top] += cumulative
        stack.append(name)
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def layer_value(name: str, run: dict):
    """One per-layer value of one traced pass; None if the pass never got there."""
    if name.startswith("cli.") and name.endswith(".wall_s"):
        return run.get("cli", {}).get(name[4:-7])
    if name.endswith(".errors"):
        layer = name[: -len(".errors")]
        return run["errors"].get("_oracles" if layer == "oracles" else layer, 0)
    if name.endswith((".terms", ".samples", ".nodes", ".drho_points")):
        return run["counters"].get(name)
    base, stat = name.rsplit(".", 1)
    if base.startswith("oracles."):
        base = "_" + base
    st = run["spans"].get(base)
    return None if st is None else st["total_s" if stat == "busy_s" else stat]


def per_layer_metrics(runs: list[dict], imports: dict) -> dict[str, dict]:
    """Every per-layer metric, from the first traced run that reaches its layer.

    ``runs[0]`` is the workload's own traced run; the others cover the
    layers it does not reach (the CLI for ``accept``, the acceptance suite
    for ``cli``), so that no per-layer metric reads a constant 0.
    """
    out = {}
    for entry in layer_map()["per_layer"]:
        name = entry["name"]
        if name in imports:
            value = imports[name]
        elif name == "trace.overhead_s":
            value = runs[0]["overhead_s"]
        elif name == "fail_ratio":
            value = sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)
        else:
            value = 0
            for run in runs:
                per_pass = [layer_value(name, p) for p in run["per_pass"]]
                if any(v is not None for v in per_pass):
                    value = statistics.median(v or 0 for v in per_pass)
                    break
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def traced_run(workload, seed, seconds, smoke, env, clock, tag) -> dict:
    if workload == "cli":
        return cli_traced(seed, seconds, smoke, env, clock, OUT_DIR / "traces" / tag)
    return worker_traced(workload, seed, seconds, smoke, env, clock, OUT_DIR / "traces" / f"{tag}.npz")


# ---------------------------------------------------------------------------
# entry point


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    env = child_env()
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    with calibrate.Calibrator(env) as clock:
        if not trace:
            if workload == "cli":
                res = cli_untraced(seed, seconds, smoke, env, clock)
            else:
                res = worker_untraced(workload, seed, seconds, smoke, env, clock)
        else:
            runs = [traced_run(workload, seed, seconds, smoke, env, clock, tag)] + [
                traced_run(other, seed, 0.0, smoke, env, clock, f"{tag}-cover-{other}")
                for other in COVERAGE if other != workload
            ]
            res = {k: sum(r[k] for r in runs) for k in ("attempted", "failed")}
            res["failures"] = [f for r in runs for f in r["failures"]][:50]
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = {"setup_s": res["setup_s"], "pass_s": res["pass_s"], "peak_rss_mb": peak}
        units = {m["name"]: m["unit"] for m in end_to_end_metrics()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        named = dict(res["named"])
    else:
        metrics = per_layer_metrics(runs, import_times(env))
        named = {}
    named["fail_ratio"] = res["failed"] / max(res["attempted"], 1)
    record = {
        "workload": workload,
        "seed": seed,
        "seed_used": res.get("seed_used", True),
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": machine(),
        "named": named,
        "passes": res.get("passes"),
        "ops": res.get("ops"),
        "raw": dict(res.get("raw", {}), setup_s=res.get("raw_setup_s")),
        "failures": res["failures"],
        "result": {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines: the record's context and every named metric."""
    print("env " + json.dumps({k: record[k] for k in ("workload", "seed", "seed_used", "trace", "machine")}))
    units = {k: v["unit"] for k, v in layer_map()["named"].items()}
    for name, value in record["named"].items():
        print(f"{record['workload']:<7s} {name:<14s} {value:.6g} {units.get(name, '')}")
    for name, m in record["result"]["metrics"].items():
        print(f"{record['workload']:<7s} {name:<40s} {m['value']:.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "segal" / "__init__.py").is_file():
        print(f"error: no segal sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    compileall.compile_dir(str(src / "segal"), quiet=1)
    sys.path.insert(0, str(src))
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (Failure, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(record["result"]))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
