"""Golden command-line outputs: exit code, stdout and stderr per invocation.

``cli_golden.json`` holds one record per invocation of ``segal.cli.main``:
every subcommand in text and JSON mode, plus bad inputs of every error
kind.  Arguments name their input files by placeholder (``{field_a}``,
``{types}`` ...); ``write_inputs`` builds those files, and temporary paths
in stderr are written back as ``{tmp}``.  A record whose invocation writes
to ``-o {out}`` also holds the text of that file as ``output``, and one
that leaves it unwritten has no ``output``.  One rule holds for every
record: the exit code, stdout, stderr and ``output`` match byte for byte.

Run ``PYTHONPATH=src python tests/test_cli_golden.py 'ARGV' ...`` to append
a record per argument, each an invocation written as in ``argv`` (split on
whitespace, placeholders kept); it prints each new record and refuses an
invocation that is already recorded.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import Iterator, Optional

import pytest

import segal
from segal import beltrami, cli, corpus
from test_cli import REQUIRED_OPS, strict_json

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "cli_golden.json").read_text(encoding="utf-8"))
TYPES = corpus.BUNDLED / "types"


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _bundled_type(name: str) -> dict:
    return json.loads((TYPES / f"{name}.json").read_text(encoding="utf-8"))


def _edited(doc: dict, value, *keys) -> dict:
    """``doc`` with the entry at ``keys`` replaced by ``value``."""
    inner = doc
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return doc


def _corpus(
    root: Path, quads: str, bad_type: Optional[str] = None, type_name: str = "bad"
) -> str:
    """An acceptance corpus directory with the given quads.json text, and
    with ``bad_type`` as its one surface type ``type_name``."""
    (root / "types").mkdir(parents=True)
    (root / "quads.json").write_text(quads, encoding="utf-8")
    if bad_type is not None:
        (root / "types" / f"{type_name}.json").write_text(bad_type, encoding="utf-8")
    return str(root)


def _field(x0: float, nx: int, mu: complex, y0: float = 0.0) -> dict:
    return beltrami.DilatationField(x0, x0 + 1.0, y0, y0 + 1.0, [[mu] * nx] * 3).to_json()


# Files that differ from a bundled type or a field in one entry:
# name -> (base document, new value, key path to the entry).
EDITED = {
    # numbers that are not JSON integers, or not JSON numbers
    "float_genus": (partial(_bundled_type, "cylinder"), 1.5, ("components", 0, "genus")),
    "bool_genus": (partial(_bundled_type, "cylinder"), True, ("components", 0, "genus")),
    "string_count": (partial(_bundled_type, "cylinder"), "1", ("in", "C")),
    "string_circles": (partial(_bundled_type, "cylinder"), "0", ("components", 0, "closed_in")),
    "float_nx": (partial(_field, 0.0, 2, 0.2j), 2.7, ("nx",)),
    "string_x1": (partial(_field, 0.0, 4, 0.2j), "1.0", ("x1",)),
    "huge_x0": (partial(_field, 0.0, 4, 0.2j), 10**400, ("x0",)),
    # shapes that raised a traceback before the decoder checked them
    "short_labels": (partial(_bundled_type, "strip_ab"), [], ("out", "s")),
    "short_entry": (
        partial(_bundled_type, "strip_ab"), ["in"], ("components", 0, "cycles", 0, "entries", 0)
    ),
    "list_direction": (
        partial(_bundled_type, "strip_ab"), ["in"], ("components", 0, "cycles", 0, "entries", 0, 0)
    ),
    "int_label": (
        partial(_bundled_type, "free_annulus"), [1, "a"], ("components", 0, "free_circles")
    ),
    # an object, a string or a number where a JSON list or object belongs
    "object_circles": (partial(_bundled_type, "free_annulus"), {}, ("components", 0, "closed_in")),
    "string_cycles": (partial(_bundled_type, "free_annulus"), "", ("components", 0, "cycles")),
    "string_pair": (partial(_field, 0.0, 4, 0.2j), "ab", ("values", 0)),
    "int_component": (partial(_bundled_type, "cylinder"), 1, ("components", 0)),
    # decodable types that break a structural invariant
    "negative_count": (partial(_bundled_type, "cylinder"), -1, ("in", "C")),
    "sideways_entry": (
        partial(_bundled_type, "strip_ab"),
        "sideways",
        ("components", 0, "cycles", 0, "entries", 0, 0),
    ),
    "negative_index": (
        partial(_bundled_type, "strip_ab"), -1, ("components", 0, "cycles", 0, "entries", 0, 1)
    ),
    # signature counts far beyond what the file assigns
    "million_closed": (partial(_bundled_type, "cylinder"), 1_000_000, ("in", "C")),
    "million_open": (partial(_bundled_type, "cylinder"), 1_000_000, ("in", "O")),
}


def write_inputs(tmp: Path) -> dict[str, str]:
    """Input files for the golden cases, keyed by placeholder name."""
    broken_disc = _bundled_type("disc_out")
    broken_disc["out"]["C"] = 2
    nan_field = _field(0.0, 4, 0.2 + 0.1j)
    nan_field["values"][0] = [math.nan, 0.0]
    nan_rect = _field(0.0, 4, 0.2 + 0.1j)
    nan_rect["x1"] = math.nan
    # decodable types that break a structural invariant
    lost_interval = _bundled_type("free_disc")
    lost_interval["out"] = {"C": 0, "O": 1, "s": ["a"], "t": ["a"]}
    stray_circle = _bundled_type("cylinder")
    stray_circle["components"][0]["closed_out"] = [5]
    negative_genus = _bundled_type("cylinder")
    negative_genus["components"][0]["genus"] = -1
    named_circle = _bundled_type("cylinder")
    named_circle["components"][0]["closed_in"] = ["x", 0]
    (tmp / "broken.json").write_text('{"components": \n', encoding="utf-8")
    samples = ["x,y"] + [f"{i / 8},{(i / 8) ** 3 + i / 8}" for i in range(-8, 9)]
    (tmp / "h.csv").write_text("\n".join(samples), encoding="utf-8")
    # the same samples with a blank line between rows
    (tmp / "blank_lines.csv").write_text("\n\n".join(samples), encoding="utf-8")
    (tmp / "two_rows.csv").write_text("x,y\n0,0\n1,1\n", encoding="utf-8")
    (tmp / "three_columns.csv").write_text("x,y\n0,0,0\n1,1,1\n", encoding="utf-8")
    (tmp / "bad.csv").write_text("0,0\n1,not-a-number\n", encoding="utf-8")
    # samples float() reads, as 10 and as 1, but a file's number rule rejects
    (tmp / "underscore.csv").write_text("x,y\n0,0\n1_0,2\n20,30\n", encoding="utf-8")
    (tmp / "arabic_digit.csv").write_text("x,y\n0,0\n\u0661,2\n20,30\n", encoding="utf-8")
    (tmp / "latin1.csv").write_bytes(b"x,y\n0,0\n\xff,1\n")
    # two samples closer than the 1e-9 * span match tolerance
    (tmp / "close.csv").write_text("x,y\n0,0\n0.5,0.5\n0.5000000001,0.6\n1,1\n", encoding="utf-8")
    # the symmetric ratio about 0.5 overflows double precision
    (tmp / "overflow.csv").write_text("x,y\n0,0\n0.5,5e-324\n1,1e308\n", encoding="utf-8")
    return {
        "tmp": str(tmp),
        "types": str(TYPES),
        "field_a": _write_json(tmp / "a.json", _field(0.0, 4, 0.2 + 0.1j)),
        "field_b": _write_json(tmp / "b.json", _field(1.0, 4, 0.1 - 0.2j)),
        "field_c": _write_json(tmp / "c.json", _field(0.0, 4, 0.1 - 0.2j)),
        "field_fine": _write_json(tmp / "fine.json", _field(0.0, 5, 0.1 - 0.2j)),
        "field_far": _write_json(tmp / "far.json", _field(3.0, 4, 0.1 - 0.2j)),
        # sits above field_a, sharing its top edge
        "field_above": _write_json(tmp / "above.json", _field(0.0, 4, 0.1 - 0.2j, y0=1.0)),
        # inside the disc, but 1 - their pseudo-distance rounds to 0
        "field_edge": _write_json(tmp / "edge.json", _field(0.0, 2, 0.9999999989)),
        "field_edge_neg": _write_json(tmp / "edge_neg.json", _field(0.0, 2, -0.9999999989)),
        "field_nan": _write_json(tmp / "nan_field.json", nan_field),
        "field_nan_rect": _write_json(tmp / "nan_rect.json", nan_rect),
        "broken_type": _write_json(tmp / "broken_disc.json", broken_disc),
        "lost_interval": _write_json(tmp / "lost_interval.json", lost_interval),
        "stray_circle": _write_json(tmp / "stray_circle.json", stray_circle),
        "negative_genus": _write_json(tmp / "negative_genus.json", negative_genus),
        "named_circle": _write_json(tmp / "named_circle.json", named_circle),
        "unstable_type": str(shutil.copy(TYPES / "torus.json", tmp / "torus.json")),
        "list_json": _write_json(tmp / "list.json", [1, 2]),
        "broken_json": str(tmp / "broken.json"),
        "csv": str(tmp / "h.csv"),
        "blank_lines_csv": str(tmp / "blank_lines.csv"),
        "two_rows_csv": str(tmp / "two_rows.csv"),
        "three_columns_csv": str(tmp / "three_columns.csv"),
        "bad_csv": str(tmp / "bad.csv"),
        "underscore_csv": str(tmp / "underscore.csv"),
        "arabic_digit_csv": str(tmp / "arabic_digit.csv"),
        "close_csv": str(tmp / "close.csv"),
        "overflow_csv": str(tmp / "overflow.csv"),
        "latin1": str(tmp / "latin1.csv"),
        "missing": str(tmp / "missing.json"),
        "nowhere": str(tmp / "nowhere"),
        "out": str(tmp / "out.json"),
        **{
            name: _write_json(tmp / f"{name}.json", _edited(base(), value, *keys))
            for name, (base, value, keys) in EDITED.items()
        },
        # acceptance corpora that cannot be read
        "corpus_broken_quads": _corpus(tmp / "broken_quads", '{"quads": [\n'),
        "corpus_broken_type": _corpus(
            tmp / "broken_type",
            (TYPES.parent / "quads.json").read_text(encoding="utf-8"),
            '{"components": \n',
        ),
        "corpus_string_quads": _corpus(
            tmp / "string_quads", json.dumps({"quads": [["0", "1", "2", "3"]]})
        ),
        "corpus_list": _corpus(tmp / "list_corpus", json.dumps([[0.0, 1.0, 2.0, 3.0]])),
        "corpus_object_quads": _corpus(tmp / "object_quads", json.dumps({"quads": {}})),
        "corpus_short_quad": _corpus(tmp / "short_quad", json.dumps({"quads": [[0.0, 1.0, 2.0]]})),
        # acceptance corpora that read, but fail a check
        "corpus_invalid_type": _corpus(
            tmp / "invalid_type",
            (TYPES.parent / "quads.json").read_text(encoding="utf-8"),
            json.dumps(broken_disc),
            "broken_disc",
        ),
        "corpus_unordered_quad": _corpus(
            tmp / "unordered_quad", json.dumps({"quads": [[0.0, 2.0, 1.0, 3.0]]})
        ),
        # a quad whose normalized position lies 2e-5 past the edge at 1
        "corpus_edge_quad": _corpus(
            tmp / "edge_quad", json.dumps({"quads": [[0.0, 1.0, 2.0, 2.00002]]})
        ),
    }


def invoke(argv_template: list[str], inputs: dict[str, str]) -> dict:
    """Run one templated invocation; return its exit code and output, and
    the text it wrote to ``{out}`` if it wrote that file."""
    out_file = Path(inputs["out"])
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([a.format(**inputs) for a in argv_template])
    got = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(inputs["tmp"], "{tmp}"),
    }
    if out_file.exists():
        got["output"] = out_file.read_text(encoding="utf-8")
        out_file.unlink()
    return got


def _case_id(case: dict) -> str:
    return " ".join(case["argv"]).replace("{", "").replace("}", "")


def _command(argv: list[str]) -> tuple[str, ...]:
    return (argv[0],) if argv[0] == "accept" else tuple(argv[:2])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """One set of input files for every case; no case writes a file another reads."""
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def recorded(inputs) -> Iterator[tuple[set[str], set[str]]]:
    """The operations of ``REQUIRED_OPS`` called so far, and the ids of the
    golden cases run so far.  Once the input files are written, every
    operation is wrapped wherever a segal module holds it, for as long as
    this module's tests run."""
    called: set[str] = set()
    with pytest.MonkeyPatch.context() as patch:
        for op in REQUIRED_OPS:
            mod_name, fn_name = op.split(".")
            original = getattr(getattr(segal, mod_name), fn_name)

            def wrapper(*args, _op=op, _original=original, **kwargs):
                called.add(_op)
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "segal" or name.startswith("segal."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch.setattr(module, attr, wrapper)
        yield called, set()


@pytest.mark.parametrize("case", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_golden(case, inputs, recorded):
    got = invoke(case["argv"], inputs)
    recorded[1].add(_case_id(case))
    assert got == {k: v for k, v in case.items() if k != "argv"}


def test_flatten_digits_do_not_depend_on_the_blas_kernel():
    """The fitted orders and the chart report print the golden bytes under
    OpenBLAS's oldest x86-64 kernels too: no BLAS or LAPACK call sits
    between the glue map and a printed number."""
    argv = ["appb", "flatten", "--k", "1", "--chart", "--depth", "1", "--format", "json"]
    (case,) = [c for c in GOLDEN if c["argv"] == argv]
    src = str(Path(segal.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "segal.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout) == (0, case["stdout"])


def test_golden_covers_every_subcommand_in_both_formats():
    for cmd in cli.COMMANDS:
        key = (cmd.group, cmd.name) if cmd.group else (cmd.name,)
        modes = {"json" in c["argv"] for c in GOLDEN if _command(c["argv"]) == key}
        assert modes == {True, False}, key


def test_json_goldens_are_strict_json():
    for case in GOLDEN:
        if "json" in case["argv"] and case["stdout"]:
            strict_json(case["stdout"])


def test_golden_ids_unique():
    ids = [_case_id(c) for c in GOLDEN]
    assert len(ids) == len(set(ids))


def test_every_required_operation_is_called(inputs, recorded):
    """Each operation in ``REQUIRED_OPS`` runs in some golden case.  The calls
    are recorded while ``test_golden`` runs; a case it did not run, as under
    ``-k``, runs here until every operation has been called."""
    called, ran = recorded
    for case in GOLDEN:
        if called == REQUIRED_OPS:
            break
        if _case_id(case) not in ran:
            invoke(case["argv"], inputs)
    never = sorted(REQUIRED_OPS - called)
    assert not never, f"required operations no golden case calls: {never}"


if __name__ == "__main__":
    path = HERE / "cli_golden.json"
    recorded_argv = [case["argv"] for case in GOLDEN]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        for text in sys.argv[1:]:
            argv = text.split()
            if argv in recorded_argv:
                sys.exit(f"already recorded: {text}")
            record = {"argv": argv, **invoke(argv, inputs)}
            print(json.dumps(record, indent=1, ensure_ascii=False))
            GOLDEN.append(record)
            recorded_argv.append(argv)
    path.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
