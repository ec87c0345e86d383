"""Command-line contract: exit codes, determinism, and the subcommand set."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import segal
from segal import cli, corpus, errors
from segal.cli import COMMANDS, build_parser, main

BUNDLED = corpus.BUNDLED

# Operations that must stay reachable from the command line: every public
# function, keyed by its home module, and the corpus generators and loader
# that the commands reach through ``segal.corpus`` and ``segal.acceptance``.
# test_cli_golden.py::test_every_required_operation_is_called checks that
# some golden case calls each of them.
REQUIRED_OPS = {
    f"{obj.__module__.removeprefix('segal.')}.{name}"
    for name in segal.__all__
    if inspect.isfunction(obj := getattr(segal, name))
} | {
    "corpus.random_octype",
    "corpus.random_successor",
    "corpus.enumerate_small_types",
    "corpus.generate_quads",
    "acceptance.load_corpus",
}

SPEC_SUBCOMMANDS = {
    ("types", "validate"),
    ("types", "compose"),
    ("types", "union"),
    ("types", "stability"),
    ("belt", "distance"),
    ("belt", "transform"),
    ("belt", "pullback"),
    ("belt", "sew"),
    ("qs", "bound"),
    ("qs", "corner"),
    ("qs", "twist"),
    ("module", "compute"),
    ("module", "check-qc"),
    ("chains", "product"),
    ("chains", "check"),
    ("appb", "orders"),
    ("appb", "flatten"),
    (None, "accept"),
}


# The number of parser actions and their digest (see ``argument_surface``);
# a change to any subcommand's arguments or help text changes the digest.
SURFACE = (149, "930828e31de909ad31b5dbbec87964105952ddd6e7775fd3268a3610e57b1f65")

# The errors that mean the input was unusable; every other one is a failed check.
EXIT_2_ERRORS = {
    "DomainError",
    "OutOfDisc",
    "NotOrientationPreserving",
    "NonMonotone",
    "DegenerateQuad",
    "DegenerateFrame",
    "InvalidPhi",
    "GridMismatch",
    "OutOfWindow",
}
ERROR_CLASSES = sorted(
    name
    for name, value in vars(errors).items()
    if isinstance(value, type)
    and issubclass(value, errors.SegalError)
    and name not in ("SegalError", "InputError")
)


def _actions(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Each action of ``parser`` and of its subparsers, with its subcommand
    path; each declared subparser is built on the way."""
    for action in parser._actions:
        yield path, action
        if isinstance(action, argparse._SubParsersAction):
            for listed in action._choices_actions:
                yield path, listed
            for name in action.choices:
                yield from _actions(action.parser(name), (*path, name))


def argument_surface() -> tuple[int, str]:
    """The count of parser actions, and a sha256 over what each one accepts
    and says.  It reads the action attributes, not the formatted help, which
    depends on the terminal width."""
    digest = hashlib.sha256()
    count = 0
    for path, a in _actions(build_parser()):
        fields = (
            path, a.option_strings, a.dest, a.nargs, a.default,
            getattr(a.type, "__name__", a.type), a.help, a.metavar,
            None if a.choices is None else list(a.choices), a.required,
        )
        digest.update(repr(fields).encode())
        count += 1
    return count, digest.hexdigest()


class TestDispatchTable:
    def test_contracted_subcommands_exist(self):
        present = {(c.group, c.name) for c in COMMANDS}
        assert SPEC_SUBCOMMANDS <= present

    def test_argument_surface_is_unchanged(self):
        assert argument_surface() == SURFACE

    @pytest.mark.parametrize(
        "argv, parsers, arguments",
        [
            (["--version"], 1, 2),
            (["accept", "--only", "8"], 2, 6),
            (["types", "enumerate"], 3, 6),
            (["module", "compute", "2.0"], 3, 8),
        ],
        ids=["version", "accept", "types-enumerate", "module-compute"],
    )
    def test_a_command_builds_only_the_parsers_on_its_path(
        self, argv, parsers, arguments, monkeypatch, capsys
    ):
        """``ArgumentParser`` objects built and ``add_argument`` calls made
        (``-h`` included) through ``main``: the top level, then a group's
        and a command's parser only where parsing reaches them.  Building
        the whole tree took 29 parsers and 95 calls."""
        counts = {"parsers": 0, "arguments": 0}

        def counted(method, key):
            def call(*args, **kwargs):
                counts[key] += 1
                return method(*args, **kwargs)

            return call

        init, add = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted(init, "parsers"))
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted(add, "arguments"))
        try:
            code = main(argv)
        except SystemExit as e:  # --version
            code = e.code
        assert (code, counts) == (0, {"parsers": parsers, "arguments": arguments})
        assert capsys.readouterr().err == ""

    def test_every_parser_has_a_name(self):
        """The surface digest names each declared parser; one without a name
        (a ``functools.partial``) would put its address there."""
        for cmd in COMMANDS:
            for flags, options in cmd.args:
                if "type" in options:
                    assert options["type"].__name__.isidentifier(), (cmd.name, flags)

    def test_every_error_class_is_known(self):
        assert len(ERROR_CLASSES) == 16
        assert EXIT_2_ERRORS <= set(ERROR_CLASSES)

    @pytest.mark.parametrize("name", ERROR_CLASSES)
    def test_error_class_decides_exit_code(self, name, monkeypatch, capsys):
        def fail(args):
            raise getattr(errors, name)("bad")

        commands = [dataclasses.replace(c, run=fail) for c in cli.COMMANDS]
        monkeypatch.setattr(cli, "COMMANDS", commands)
        code = main(["types", "enumerate"])
        captured = capsys.readouterr()
        if name in EXIT_2_ERRORS:
            assert (code, captured.err) == (2, "error: bad\n")
        else:
            assert (code, captured.err) == (1, "check failed: bad\n")
        assert captured.out == ""

    def test_interrupt_exits_130_without_traceback(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        commands = [dataclasses.replace(c, run=interrupted) for c in cli.COMMANDS]
        monkeypatch.setattr(cli, "COMMANDS", commands)
        assert main(["accept"]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")


class TestExitCodes:
    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"components": \n', encoding="utf-8")
        assert main(["types", "validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}:2:1:" in err

    def test_list_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]", encoding="utf-8")
        nested = tmp_path / "nested.json"
        sig = {"C": 0, "O": 0}
        nested.write_text(json.dumps({"components": [1], "in": sig, "out": sig}), encoding="utf-8")
        assert main(["types", "validate", str(p)]) == 2
        assert main(["belt", "distance", str(p), str(p)]) == 2
        assert main(["types", "validate", str(nested)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("must be a JSON object") == 3
        assert "component must be a JSON object, not int" in err

    def test_nan_mu_is_input_error(self, capsys):
        assert main(["belt", "distance", "--mu", "nan+0j", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: mu1 is not finite: (nan+0j)\n"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["types", "validate", str(tmp_path / "missing.json")]) == 2

    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        assert main(["accept", "--corpus", str(tmp_path / "nowhere")]) == 2
        assert "quads.json" in capsys.readouterr().err

    def test_broken_corpus_type_is_named_failure(self, tmp_path, capsys):
        tdir = tmp_path / "types"
        tdir.mkdir()
        shutil.copy(BUNDLED / "quads.json", tmp_path)
        d = json.loads((BUNDLED / "types" / "disc_out.json").read_text(encoding="utf-8"))
        d["out"]["C"] = 2
        (tdir / "broken_disc.json").write_text(json.dumps(d), encoding="utf-8")
        assert main(["accept", "--corpus", str(tmp_path), "--only", "9"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "broken_disc" in out

    def test_unknown_profile_is_input_error(self, capsys):
        assert main(["qs", "corner", "--profile", "nope"]) == 2

    def test_failing_check_exits_one(self, capsys):
        # no incoming closed boundary and no cycles at all: unstable
        assert main(["types", "stability", str(BUNDLED / "types" / "torus.json")]) == 1


class TestDeterminism:
    def _capture(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_accept_json_byte_identical(self, capsys):
        code1, out1 = self._capture(capsys, ["accept", "--only", "9", "--format", "json"])
        code2, out2 = self._capture(capsys, ["accept", "--only", "9", "--format", "json"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seeded_type_byte_identical(self, capsys):
        _, out1 = self._capture(capsys, ["types", "random", "--seed", "5", "--format", "json"])
        _, out2 = self._capture(capsys, ["types", "random", "--seed", "5", "--format", "json"])
        assert out1 == out2
        assert out1 != self._capture(capsys, ["types", "random", "--seed", "6", "--format", "json"])[1]

    def test_json_reports_carry_schema(self, capsys):
        _, out = self._capture(capsys, ["qs", "twist", "--profile", "rotation:0.5", "--format", "json"])
        d = json.loads(out)
        assert d["schema"] == "segal.report.twist/1"
        assert d["version"] == segal.__version__


class TestTypesCommands:
    def test_random_validate_compose_round_trip(self, tmp_path, capsys):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        out = tmp_path / "c.json"
        assert main(["types", "random", "--seed", "3", "-o", str(t1)]) == 0
        assert main(["types", "random", "--seed", "4", "--successor", str(t1), "-o", str(t2)]) == 0
        capsys.readouterr()
        assert main(["types", "compose", str(t1), str(t2), "-o", str(out)]) == 0
        assert main(["types", "validate", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ok: true" in text

    def test_union_adds_components(self, tmp_path, capsys):
        t1 = tmp_path / "t1.json"
        assert main(["types", "random", "--seed", "3", "-o", str(t1)]) == 0
        capsys.readouterr()
        assert main(["types", "union", str(t1), str(t1), "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        with open(t1, encoding="utf-8") as fh:
            single = json.load(fh)
        assert len(d["components"]) == 2 * len(single["components"])

    def test_enumerate_count(self, capsys):
        assert main(["types", "enumerate"]) == 0
        assert "count: 152" in capsys.readouterr().out

    def test_mismatched_compose_fails_check(self, capsys):
        a = BUNDLED / "types" / "disc_out.json"
        assert main(["types", "compose", str(a), str(a)]) == 1
        assert "check failed" in capsys.readouterr().err


class TestBeltCommands:
    @pytest.fixture()
    def fields(self, tmp_path):
        from segal import beltrami

        f = beltrami.DilatationField(0.0, 1.0, 0.0, 1.0, [[0.2 + 0.1j] * 4] * 3)
        g = beltrami.DilatationField(1.0, 2.0, 0.0, 1.0, [[0.1 - 0.2j] * 4] * 3)
        pf, pg = tmp_path / "f.json", tmp_path / "g.json"
        pf.write_text(json.dumps(f.to_json()), encoding="utf-8")
        pg.write_text(json.dumps(g.to_json()), encoding="utf-8")
        return pf, pg

    def test_distance_modes(self, fields, capsys):
        pf, pg = fields
        assert main(["belt", "distance", str(pf), str(pf)]) == 0
        assert "distance: 0.0" in capsys.readouterr().out
        assert main(["belt", "distance", "--mu", "0.0", "0.0"]) == 0
        assert "distance: 0.0" in capsys.readouterr().out
        assert main(["belt", "distance"]) == 2

    def test_sew_and_output(self, fields, tmp_path, capsys):
        pf, pg = fields
        out = tmp_path / "sewn.json"
        assert main(["belt", "sew", str(pf), str(pg), "--seam", "x", "-o", str(out)]) == 0
        d = json.loads(out.read_text(encoding="utf-8"))
        assert d["schema"] == "segal.field/1"
        assert d["nx"] == 8

    def test_transform_and_pullback(self, fields, capsys):
        pf, _ = fields
        assert main(["belt", "transform", str(pf), "--mu-f", "0.1,0", "--fz", "1,0"]) == 0
        capsys.readouterr()
        assert (
            main(["belt", "pullback", "--value", "0.2,0", "--mu-g", "0.1,0", "--u", "1,0"])
            == 0
        )
        assert "value:" in capsys.readouterr().out

    def test_acs_modes(self, capsys):
        assert main(["belt", "acs", "--mu", "0.2+0.1j"]) == 0
        out = capsys.readouterr().out
        assert "matrix:" in out and "dilatation:" in out
        assert main(["belt", "acs", "--frame", "0.5", "0.0"]) == 0
        capsys.readouterr()
        assert main(["belt", "acs", "--K", "3.0"]) == 0
        assert "abs mu: 0.5" in capsys.readouterr().out
        assert main(["belt", "acs", "--linear", "1,0", "0.5,0"]) == 0
        capsys.readouterr()
        assert main(["belt", "acs"]) == 2


class TestQsCommands:
    def test_bound_builtin(self, capsys):
        assert main(["qs", "bound", "--fn", "slope:2", "--n", "64"]) == 0
        assert "bound: 2.0" in capsys.readouterr().out

    def test_bound_csv(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        rows = ["x,y"] + [f"{i/8},{(i/8)**1}" for i in range(-8, 9)]
        p.write_text("\n".join(rows), encoding="utf-8")
        assert main(["qs", "bound", "--file", str(p)]) == 0
        assert "bound: 1.0" in capsys.readouterr().out

    def test_bound_csv_malformed(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        p.write_text("0,0\n1,not-a-number\n", encoding="utf-8")
        assert main(["qs", "bound", "--file", str(p)]) == 2
        assert f"{p}:2:" in capsys.readouterr().err

    def test_corner(self, capsys):
        assert main(["qs", "corner", "--profile", "piecewise", "--points", "0.5,0.5"]) == 0
        out = capsys.readouterr().out
        assert "dilatation: 4.0" in out and "point 0:" in out

    def test_twist_rigid(self, capsys):
        assert main(["qs", "twist", "--profile", "rotation:0.9"]) == 0
        assert "rigid rotation: true" in capsys.readouterr().out


class TestModuleCommands:
    def test_compute_positions(self, capsys):
        assert main(["module", "compute", "2.0"]) == 0
        assert "product=1.0" in capsys.readouterr().out

    def test_compute_quad_and_rect(self, capsys):
        assert main(["module", "compute", "--quad", "-1", "0", "1", "3"]) == 0
        capsys.readouterr()
        assert main(["module", "compute", "--rect", "2", "1"]) == 0
        assert "module: 2.0" in capsys.readouterr().out
        assert main(["module", "compute"]) == 2

    def test_check_qc_generated(self, capsys):
        assert main(
            ["module", "check-qc", "--generate", "--seed", "0", "--count", "4", "--format", "json"]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["within_bounds"] is True
        assert d["quad_count"] == 4


class TestChainsCommands:
    def test_product_term_count(self, capsys):
        assert main(["chains", "product", "2", "1"]) == 0
        assert "terms: 3" in capsys.readouterr().out

    def test_product_boundary_and_swap(self, capsys):
        assert main(["chains", "product", "1", "1", "--boundary"]) == 0
        capsys.readouterr()
        assert main(["chains", "product", "1", "1", "--swapped"]) == 0
        capsys.readouterr()

    def test_check_sweep(self, capsys):
        assert main(["chains", "check", "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "associativity: true" in out


class TestAppbCommands:
    def test_orders_table(self, capsys):
        assert main(["appb", "orders", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0: m=inf n=0"
        assert lines[1] == "1: m=1 n=2"
        assert lines[-1] == "5: m=5 n=6"

    def test_flatten_csv(self, capsys):
        assert main(["appb", "flatten", "--glue", "sine:0.1", "--k", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,fitted_m,fitted_n,predicted_m,predicted_n,ok"
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",true")

    def test_flatten_chart(self, capsys):
        assert main(["appb", "flatten", "--glue", "identity", "--k", "0", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "certified x:" in out
        assert "boundary max dev: 0.0" in out

    def test_flatten_json(self, capsys):
        assert main(
            ["appb", "flatten", "--glue", "linear:2.0", "--k", "0", "--format", "json"]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["schema"] == "segal.report.orderfits/1"
        assert d["all_ok"] is True


class TestAcceptCommand:
    def test_subset_passes(self, capsys):
        assert main(["accept", "--only", "9,12"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(line.startswith("PASS") for line in out)

    def test_bad_indices(self, capsys):
        assert main(["accept", "--only", "0,99"]) == 2
        assert main(["accept", "--only", "two"]) == 2


# ---------------------------------------------------------------------------
# the contract sweep: every argument that declares a parser, in every
# subcommand, fed values at and past the edge of double precision and values
# that are no number


SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "1e308", "5e-324", "", "x"]

# One valid invocation per subcommand.  Options are written --name=value and
# positionals follow "--", so a value that starts with "-" reaches its
# argument's parser instead of being read as a flag.  An option that takes
# several values gets the sweep value in each of them, and there argparse
# reads "-inf" as a flag and exits 2 before any parser runs.  ``belt acs``
# reads only one of its options, so there the swept option stands alone.
SWEEP_BASES = {
    ("types", "validate"): ["--", "{types}/cylinder.json"],
    ("types", "compose"): ["--", "{types}/pants_split.json", "{types}/pants_join.json"],
    ("types", "union"): ["--", "{types}/cylinder.json", "{types}/disc_out.json"],
    ("types", "stability"): ["--", "{types}/pants_join.json"],
    ("types", "random"): ["--seed=0"],
    ("types", "enumerate"): [],
    ("belt", "distance"): ["--mu", "0.1", "0.2j"],
    ("belt", "transform"): ["--value=0.2", "--mu-f=0.3", "--fz=1"],
    ("belt", "pullback"): ["--value=0.2", "--mu-g=0.1", "--u=1"],
    ("belt", "sew"): ["--", "{field_a}", "{field_b}"],
    ("belt", "acs"): ["--K=3"],
    ("qs", "bound"): ["--fn=slope:2", "--n=64"],
    ("qs", "corner"): [],
    ("qs", "twist"): ["--r1=1", "--r2=2"],
    ("module", "compute"): ["--", "2"],
    ("module", "check-qc"): ["--generate", "--seed=0", "--count=4", "--K=2", "--slack=1e-6"],
    ("chains", "product"): ["--", "2", "1"],
    ("chains", "check"): ["--degree=3"],
    ("appb", "orders"): ["--", "5"],
    ("appb", "flatten"): ["--glue=identity", "--k=0", "--chart", "--depth=0"],
    (None, "accept"): ["--only=8"],
}


def _swept(cmd: cli.Command):
    """Where a sweep value goes in ``cmd``'s base invocation, for each
    argument that declares a parser: ("option", flag, nargs) for an option,
    ("positional", k, None) for the k-th positional."""
    positionals = 0
    for flags, options in cmd.args:
        if flags[0].startswith("-"):
            if "type" in options:
                yield "option", max(flags, key=len), options.get("nargs")
        else:
            if "type" in options:
                yield "positional", positionals, None
            positionals += 1


def _substituted(base: list[str], where: tuple, value: str) -> list[str]:
    kind, key, nargs = where
    argv = list(base)
    if kind == "positional":
        argv[argv.index("--") + 1 + key] = value
        return argv
    if nargs is None:
        return [f"{key}={value}", *(a for a in argv if not a.startswith(f"{key}="))]
    if key in argv:
        del argv[argv.index(key) : argv.index(key) + 1 + nargs]
    return [key, *[value] * nargs, *argv]


def strict_json(text: str):
    """``text`` decoded as JSON; ``NaN``, ``Infinity`` and ``-Infinity`` are rejected."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_contract_sweep(tmp_path, capsys):
    """Every argument that declares a parser takes each sweep value in one
    valid invocation of its subcommand: the exit code is 0, 1 or 2, nothing
    prints a traceback, and an exit-0 report is strict JSON."""
    from segal import beltrami

    files = {"types": str(BUNDLED / "types")}
    for name, x0 in (("field_a", 0.0), ("field_b", 1.0)):
        field = beltrami.DilatationField(x0, x0 + 1.0, 0.0, 1.0, [[0.2 + 0.1j] * 4] * 3)
        (tmp_path / f"{name}.json").write_text(json.dumps(field.to_json()), encoding="utf-8")
        files[name] = str(tmp_path / f"{name}.json")

    broken = []
    swept = 0
    for cmd in COMMANDS:
        head = [cmd.group, cmd.name] if cmd.group else [cmd.name]
        base = [a.format(**files) for a in SWEEP_BASES[cmd.group, cmd.name]]
        alone = (cmd.group, cmd.name) == ("belt", "acs")
        runs = [(None, base)] + [
            (value, _substituted([] if alone else base, where, value))
            for where in _swept(cmd)
            for value in SWEEP_VALUES
        ]
        for value, tail in runs:
            argv = [*head, "--format=json", *tail]
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out, err = capsys.readouterr()
            if value is None and code != 0:
                broken.append(f"{argv}: the base invocation exits {code}")
            elif code not in (0, 1, 2) or "Traceback" in err:
                broken.append(f"{argv}: exit {code}, stderr {err!r}")
            elif code == 0:
                try:
                    strict_json(out)
                except ValueError as e:
                    broken.append(f"{argv}: {e}")
            swept += value is not None
    assert not broken, "\n".join(broken)
    assert swept == 35 * len(SWEEP_VALUES)  # 35 arguments declare a parser


# ---------------------------------------------------------------------------
# the process entry: ``segal.cli.run`` behind ``python -m segal.cli`` and the
# ``segal`` script

SRC = Path(segal.__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _segal(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "segal.cli", *argv],
        env=_child_env(), capture_output=True, text=True, encoding="utf-8", timeout=60,
    )


class TestProcessEntry:
    @pytest.mark.parametrize("argv", [
        ["chains", "product", "2", "1", "--format", "json"],
        ["module", "check-qc", "--generate", "--count", "4", "--slack", "-1"],
        ["chains", "product", "-1", "0"],
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_exit_code_and_output_match_the_golden_record(self, argv):
        (case,) = [c for c in GOLDEN if c["argv"] == argv]
        got = _segal(argv)
        assert (got.returncode, got.stdout, got.stderr) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize(
        "argv", [["--help"], ["--version"], ["types", "bogus"]], ids=["help", "version", "usage-error"]
    )
    def test_argparse_exits_as_in_process(self, argv, monkeypatch, capsys):
        """``--help``, ``--version`` and a usage error raise ``SystemExit``
        in process; the process exits with its code and the same output."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        with pytest.raises(SystemExit) as exc:
            main(argv)
        expected = (exc.value.code or 0, *capsys.readouterr())
        got = _segal(argv)
        assert (got.returncode, got.stdout, got.stderr) == expected
        assert expected[0] == (2 if argv == ["types", "bogus"] else 0)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["types", "enumerate"],
            ["chains", "product", "4", "4", "--boundary"],
            ["--help"],
            ["--version"],
            ["types", "random", "--seed", "0", "-o", "/dev/stdout"],
        ],
        ids=["types-enumerate", "chains-product", "help", "version", "output-file"],
    )
    def test_closed_pipe_exits_141_quietly(self, argv, unbuffered):
        """The reader closes the pipe before the child writes: unbuffered,
        the write fails; buffered, the short report fails at the final flush
        and the 19 kB one at a write.  argparse's help and version text
        fail the same way, unbuffered inside argparse, and so does an
        ``-o`` file that is the pipe itself."""
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "segal.cli", *argv],
            env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_closed_stdout_exits_0_quietly(self):
        cmd = f"{shlex.quote(sys.executable)} -m segal.cli types enumerate >&-"
        got = subprocess.run(
            cmd, shell=True, env=_child_env(), capture_output=True, text=True, timeout=60
        )
        assert (got.returncode, got.stderr) == (0, "")

    def test_exit_handlers_run_before_the_flush(self):
        code = (
            "import atexit, segal.cli\n"
            "atexit.register(print, 'exit handler ran')\n"
            "segal.cli.run(['--version'])\n"
        )
        got = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert (got.returncode, got.stdout, got.stderr) == (
            0, f"segal {segal.__version__}\nexit handler ran\n", ""
        )

    def test_console_script_is_the_process_entry(self):
        text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.split() == ["segal", "=", '"segal.cli:run"']

    def test_no_interpreter_teardown(self):
        """The process leaves without freeing its modules: an object held by
        ``__main__`` is never finalized."""
        code = (
            "import os, segal.cli\n"
            "class Held:\n"
            "    def __del__(self, write=os.write):\n"
            "        write(1, b'finalized\\n')\n"
            "held = Held()\n"
            "segal.cli.run(['--version'])\n"
        )
        got = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert (got.returncode, got.stdout) == (0, f"segal {segal.__version__}\n")
