"""The ``cli`` workload: every subcommand once per pass, each a fresh process.

Each command runs as ``python -m segal.cli ... --format json`` in the
checkout root, one at a time.  Its exit code must be 0 and its JSON output
must match the values recorded in ``cli_expected.json``: exactly where the
library promises exactness (types, chains, order tables, the slope-break
constant), within the acceptance tolerances elsewhere.  The two seeded
commands are compared with the library's own result for the workload seed.

Re-record the expected values after an intended output change with::

    python3 perfbench/cliwork.py --record
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "cli_expected.json"
TYPES = "src/segal/data/corpus/types"

# (group, command, arguments); {seed}, {field_a} and {field_b} are filled in.
SCRIPT = (
    ("types", "validate", [f"{TYPES}/pants_split.json"]),
    ("types", "compose", [f"{TYPES}/pants_split.json", f"{TYPES}/pants_join.json"]),
    ("types", "union", [f"{TYPES}/cylinder.json", f"{TYPES}/torus.json"]),
    ("types", "stability", [f"{TYPES}/pants_split.json"]),
    ("types", "random", ["--seed", "{seed}"]),
    ("types", "enumerate", []),
    ("belt", "distance", ["--mu", "0.2+0.1j", "0.1,0.3"]),
    ("belt", "transform", ["{field_a}", "--mu-f", "0.3", "--fz", "1"]),
    ("belt", "pullback", ["{field_a}", "--mu-g", "0.2+0.1j", "--u", "0.6+0.8j"]),
    ("belt", "sew", ["{field_a}", "{field_b}"]),
    ("belt", "acs", ["--mu", "0.3+0.1j"]),
    ("qs", "bound", ["--fn", "slope:2", "--n", "64"]),
    ("qs", "corner", ["--profile", "piecewise"]),
    ("qs", "twist", ["--profile", "smooth"]),
    ("module", "compute", ["2.0", "3.0"]),
    ("module", "check-qc", ["--generate", "--seed", "{seed}", "--count", "50"]),
    ("chains", "product", ["2", "1"]),
    ("chains", "check", ["--degree", "4"]),
    ("appb", "orders", ["6"]),
    ("appb", "flatten", ["--k", "1", "--chart"]),
)
SMOKE_SCRIPT = tuple(c for c in SCRIPT if (c[0], c[1]) in {
    ("types", "compose"), ("types", "random"), ("chains", "product"),
})

# Float tolerance per command; 0 means exact.  A dict gives one per key.
TOLERANCE = {
    "belt.distance": 1e-10,
    "belt.transform": 1e-10,
    "belt.pullback": 1e-10,
    "belt.acs": 1e-10,
    "qs.corner": 1e-10,
    "qs.twist": {"*": 1e-8, "inner_max_dev": 0.0, "outer_max_dev": 0.0},
    "module.compute": 1e-8,
    "module.check-qc": 1e-6,
    "appb.flatten": {"*": 1e-6, "fitted_m": 0.25, "fitted_n": 0.25},
}
IGNORED_KEYS = {"version"}


def key(group: str, command: str) -> str:
    return f"{group}.{command}"


def argv_for(entry, seed: int, inputs: dict[str, str]) -> list[str]:
    group, command, args = entry
    filled = [a.format(seed=seed, **inputs) for a in args]
    return [group, command, *filled, "--format", "json"]


def write_inputs(directory: Path) -> dict[str, str]:
    """Two adjacent 6x5 fields for ``belt sew``/``pullback``; fixed values."""
    import numpy as np

    from segal import beltrami

    rng = random.Random(0)
    paths = {}
    for name, x0 in (("field_a", 0.0), ("field_b", 1.0)):
        vals = np.array([[complex(0.3 * rng.random(), 0.3 * rng.random()) for _ in range(6)] for _ in range(5)])
        path = directory / f"{name}.json"
        directory.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(beltrami.DilatationField(x0, x0 + 1.0, 0.0, 1.0, vals).to_json()))
        paths[name] = str(path)
    return paths


def seeded_expectation(k: str, seed: int, recorded: dict):
    """Expected payload of a seeded command, from the library itself."""
    if k == "types.random":
        from segal import corpus, octype_to_json

        return json.loads(json.dumps(octype_to_json(corpus.random_octype(random.Random(seed)))))
    # the stretch leaves every quad ratio at 1 and puts rectangles at K,
    # so the recorded report holds for every seed
    return recorded


def compare(expected, got, tol, path: str = "") -> list[str]:
    """Differences between two JSON values; floats within ``tol``."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) - IGNORED_KEYS != set(got) - IGNORED_KEYS:
            return [f"{path or '/'}: keys differ"]
        out = []
        for k in sorted(set(expected) - IGNORED_KEYS):
            sub = tol[k] if isinstance(tol, dict) and k in tol else tol
            out += compare(expected[k], got[k], sub, f"{path}/{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: lengths differ"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += compare(e, g, tol, f"{path}/{i}")
        return out
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        limit = tol.get("*", 0.0) if isinstance(tol, dict) else tol
        if math.isfinite(got) and abs(got - expected) <= limit:
            return []
        return [f"{path}: {got!r} vs {expected!r} (tolerance {limit})"]
    if type(expected) is not type(got) or expected != got:
        return [f"{path}: {got!r} vs {expected!r}"]
    return []


def check_output(entry, seed: int, code: int, stdout: bytes, expected: dict) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    k = key(entry[0], entry[1])
    if code != 0:
        return [f"{k}: exit code {code}"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return [f"{k}: output is not JSON"]
    want = expected.get(k)
    if want is None:
        return [f"{k}: no expected value recorded"]
    if k in ("types.random", "module.check-qc"):
        want = seeded_expectation(k, seed, want)
    return [f"{k}{p}" for p in compare(want, got, TOLERANCE.get(k, 0.0))]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def record() -> int:
    """Run every scripted command at seed 0 and store its JSON output."""
    import subprocess

    root = HERE.parent
    inputs = write_inputs(root / ".perfbench" / "cli-inputs")
    recorded = {}
    for entry in SCRIPT:
        proc = subprocess.run(
            [sys.executable, "-m", "segal.cli", *argv_for(entry, 0, inputs)],
            cwd=root, capture_output=True, check=True,
        )
        recorded[key(entry[0], entry[1])] = json.loads(proc.stdout)
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/cliwork.py --record")
    sys.exit(record())
