"""The benchmark's own tests, at smoke sizes.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import cliwork  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_is_consistent():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (m["name"], m["unit"]) for m in LAYERS["per_layer"]
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        named = {k for k, v in LAYERS["named"].items() if v["workload"] in (workload, "all")}
        printed = {line.split()[1] for line in stdout.splitlines() if line.startswith(f"{workload} ")}
        assert named <= printed


def test_second_seed_is_correct():
    result, _ = smoke("deep", 0, seed=7)
    assert result["correct"] and result["failed"] == 0


def test_wrong_expected_value_is_a_failure_not_an_error(monkeypatch):
    work = worker.DeepWorkload(worker.SIZES["smoke"], seed=3)
    checks = worker.Checks()
    with calibrate.Calibrator() as clock:
        work.run_pass(checks, clock)
        assert checks.failed == 0
        monkeypatch.setitem(worker.EXPECTED, "slope_bound", 3.0)
        times = work.run_pass(checks, clock)
    assert checks.failed == 1 and checks.failures == ["slope-break bound exact"]
    assert set(times) == {"flatten_k2_s", "chains_s", "qs_s", "module_s", "field_s"}


def test_wrong_cli_expectation_is_a_failure(tmp_path):
    expected = cliwork.load_expected()
    entry = next(e for e in cliwork.SCRIPT if e[:2] == ("chains", "product"))
    wrong = json.loads(json.dumps(expected))
    wrong["chains.product"]["count"] = 4
    problems = []
    inputs = cliwork.write_inputs(tmp_path)
    with calibrate.Calibrator() as clock:
        for table in (expected, wrong):
            run.cli_pass([entry], 0, inputs, table, run.child_env(), clock, problems)
    assert problems[0] == [] and problems[1] == ["chains.product/count: 3 vs 4"]


def test_compare_tolerances():
    assert cliwork.compare({"a": 1.0}, {"a": 1.0 + 1e-12}, 0.0)
    assert not cliwork.compare({"a": 1.0}, {"a": 1.0 + 1e-12}, 1e-10)
    assert cliwork.compare({"fits": [{"fitted_m": 3.0}]}, {"fits": [{"fitted_m": 3.3}]}, {"fitted_m": 0.25})
    assert not cliwork.compare({"fits": [{"fitted_m": 3.0}]}, {"fits": [{"fitted_m": 3.2}]}, {"fitted_m": 0.25})
    assert cliwork.compare({"n": 1}, {"n": 1.0}, 0.0)


def test_calibration_scales_to_the_reference_speed():
    assert calibrate.scaled(2.0, calibrate.REFERENCE_S) == 2.0
    assert calibrate.scaled(2.0, 2 * calibrate.REFERENCE_S) == 1.0
    with calibrate.Calibrator() as clock:
        out, wall, kernel = clock.timed(lambda: sum(range(1000)))
    assert out == 499500 and wall > 0 and kernel > 0
    assert clock._proc.returncode == 0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        10 |         60 |   scipy",
        "import time:       500 |        500 |     scipy.integrate",
        "import time:        20 |        520 |   segal.flattening",
        "import time:         5 |        885 | segal",
    ])
    assert run.parse_importtime(text) == {
        "import.segal_s": 885e-6, "import.scipy_s": 560e-6, "import.numpy_s": 300e-6,
    }


def test_tracer_spans_counts_and_uninstall():
    import segal
    from segal import flattening

    plain = segal.compose_types
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        report = segal.verify_orders(segal.glue_sine(0.1), 1)
        segal.check_chain_map(2, 2)
        counters, errors = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert report.all_ok and not errors
    assert counters["flattening.drho_points"] == 307_284
    stats = tracer.pass_stats(*tracer.passes[0])
    assert stats["flattening.next_structure_field"]["calls"] == 2
    chain_map = stats["chains.check_chain_map"]
    assert chain_map["self_s"] < chain_map["total_s"]
    assert stats["chains.shuffle_product"]["calls"] == 3
    assert segal.compose_types is plain and flattening.glue_sine.__module__ == "segal.flattening"
    assert not hasattr(flattening.glue_sine, "__perfbench_original__")


def test_untraced_worker_installs_no_wrapper():
    work = worker.AcceptWorkload(worker.SIZES["smoke"], seed=0)
    with calibrate.Calibrator() as clock:
        work.run_pass(worker.Checks(), clock)
    for name, mod in list(sys.modules.items()):
        if name.startswith("segal"):
            assert not any(hasattr(v, "__perfbench_original__") for v in vars(mod).values()), name


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accept", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout
