"""Golden command-line outputs: exit code, stdout and stderr per invocation.

``cli_golden.json`` holds one record per invocation of ``segal.cli.main``:
every subcommand in text and JSON mode, plus bad inputs of every error
kind.  Arguments name their input files by placeholder (``{field_a}``,
``{types}`` ...); ``write_inputs`` builds those files, and temporary paths
in stderr are written back as ``{tmp}``.  stdout must match byte for byte,
except for the commands whose numbers come from scipy quadrature or ODE
solves: their last digits may move with the installed scipy, so for them
every number is masked and only the labels, keys and verdicts must match.
"""

import json
import math
import re
from pathlib import Path

import pytest

import segal
from segal import beltrami, cli, cobordism, corpus

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "cli_golden.json").read_text(encoding="utf-8"))
TYPES = Path(segal.__file__).resolve().parent / "data" / "corpus" / "types"
SCIPY_BACKED = {("module", "compute"), ("module", "check-qc"), ("appb", "flatten")}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _field(x0: float, nx: int, mu: complex) -> dict:
    return beltrami.DilatationField.constant(mu, x0, x0 + 1.0, 0.0, 1.0, nx, 3).to_json()


def write_inputs(tmp: Path) -> dict[str, str]:
    """Input files for the golden cases, keyed by placeholder name."""
    broken_disc = corpus.load_bundled("types/disc_out.json")
    broken_disc["out"]["C"] = 2
    nan_field = _field(0.0, 4, 0.2 + 0.1j)
    nan_field["values"][0] = [math.nan, 0.0]
    nan_rect = _field(0.0, 4, 0.2 + 0.1j)
    nan_rect["x1"] = math.nan
    # decodable types that break a structural invariant
    lost_interval = corpus.load_bundled("types/free_disc.json")
    lost_interval["out"] = {"C": 0, "O": 1, "s": ["a"], "t": ["a"]}
    stray_circle = corpus.load_bundled("types/cylinder.json")
    stray_circle["components"][0]["closed_out"] = [5]
    negative_genus = corpus.load_bundled("types/cylinder.json")
    negative_genus["components"][0]["genus"] = -1
    named_circle = corpus.load_bundled("types/cylinder.json")
    named_circle["components"][0]["closed_in"] = ["x", 0]
    (tmp / "broken.json").write_text('{"components": \n', encoding="utf-8")
    (tmp / "h.csv").write_text(
        "\n".join(["x,y"] + [f"{i / 8},{(i / 8) ** 3 + i / 8}" for i in range(-8, 9)]),
        encoding="utf-8",
    )
    (tmp / "bad.csv").write_text("0,0\n1,not-a-number\n", encoding="utf-8")
    # two samples closer than the 1e-9 * span match tolerance
    (tmp / "close.csv").write_text("x,y\n0,0\n0.5,0.5\n0.5000000001,0.6\n1,1\n", encoding="utf-8")
    return {
        "tmp": str(tmp),
        "types": str(TYPES),
        "field_a": _write_json(tmp / "a.json", _field(0.0, 4, 0.2 + 0.1j)),
        "field_b": _write_json(tmp / "b.json", _field(1.0, 4, 0.1 - 0.2j)),
        "field_c": _write_json(tmp / "c.json", _field(0.0, 4, 0.1 - 0.2j)),
        "field_fine": _write_json(tmp / "fine.json", _field(0.0, 5, 0.1 - 0.2j)),
        "field_far": _write_json(tmp / "far.json", _field(3.0, 4, 0.1 - 0.2j)),
        "field_nan": _write_json(tmp / "nan_field.json", nan_field),
        "field_nan_rect": _write_json(tmp / "nan_rect.json", nan_rect),
        "broken_type": _write_json(tmp / "broken_disc.json", broken_disc),
        "lost_interval": _write_json(tmp / "lost_interval.json", lost_interval),
        "stray_circle": _write_json(tmp / "stray_circle.json", stray_circle),
        "negative_genus": _write_json(tmp / "negative_genus.json", negative_genus),
        "named_circle": _write_json(tmp / "named_circle.json", named_circle),
        "unstable_type": _write_json(
            tmp / "torus.json", cobordism.octype_to_json(corpus.closed_surface(1))
        ),
        "list_json": _write_json(tmp / "list.json", [1, 2]),
        "broken_json": str(tmp / "broken.json"),
        "csv": str(tmp / "h.csv"),
        "bad_csv": str(tmp / "bad.csv"),
        "close_csv": str(tmp / "close.csv"),
        "missing": str(tmp / "missing.json"),
        "nowhere": str(tmp / "nowhere"),
        "out": str(tmp / "out.json"),
    }


def invoke(argv_template: list[str], inputs: dict[str, str], capsys) -> dict:
    """Run one templated invocation; return its exit code and output."""
    code = cli.main([a.format(**inputs) for a in argv_template])
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err.replace(inputs["tmp"], "{tmp}")}


def masked(text: str, json_mode: bool):
    """Labels, keys and verdicts of a report, with every number masked."""
    if json_mode and text:
        return json.loads(NUMBER.sub("0", text))
    return NUMBER.sub("#", text)


def _case_id(case: dict) -> str:
    return " ".join(case["argv"]).replace("{", "").replace("}", "")


def _command(argv: list[str]) -> tuple[str, ...]:
    return (argv[0],) if argv[0] == "accept" else tuple(argv[:2])


@pytest.mark.parametrize("case", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SEGAL_TOLERANCE_SCALE", raising=False)
    got = invoke(case["argv"], write_inputs(tmp_path), capsys)
    assert (got["code"], got["stderr"]) == (case["code"], case["stderr"])
    if _command(case["argv"]) in SCIPY_BACKED:
        json_mode = "json" in case["argv"]
        assert masked(got["stdout"], json_mode) == masked(case["stdout"], json_mode)
    else:
        assert got["stdout"] == case["stdout"]


def test_golden_covers_every_subcommand_in_both_formats():
    for cmd in cli.COMMANDS:
        key = (cmd.group, cmd.name) if cmd.group else (cmd.name,)
        modes = {"json" in c["argv"] for c in GOLDEN if _command(c["argv"]) == key}
        assert modes == {True, False}, key


def test_golden_ids_unique():
    ids = [_case_id(c) for c in GOLDEN]
    assert len(ids) == len(set(ids))
