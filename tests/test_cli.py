"""Command-line contract: the subcommand set, the argument surface, the exit
code of each error class, the contract sweep, the process entry, and what
spans invocations.  What one command prints is pinned by the golden records
in ``cli_golden.json``."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import shlex
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
# that the commands reach through ``segal.corpus``.
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
    "corpus.load_corpus",
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
SURFACE = (149, "a570fef2e6201cf54e88a1be8b9afca3ab5e620b9344222474c2462b2fdf9e1c")

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


class TestAcrossInvocations:
    """What no one golden record pins: a workflow across ``-o`` files, and
    two seeds that give two types."""

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

    def test_seeds_give_different_types(self, capsys):
        outs = []
        for seed in ("5", "6"):
            assert main(["types", "random", "--seed", seed, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]


@pytest.mark.parametrize(
    "parse",
    [cli.real("x"), cli.real("x", int), cli.parse_complex, cli.parse_indices],
    ids=["float", "int", "complex", "indices"],
)
@pytest.mark.parametrize("text", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-digit"])
def test_number_text_on_the_command_line_follows_the_file_rule(parse, text):
    """Python's ``float``, ``int`` and ``complex`` read ``1_0`` and an
    Arabic-Indic digit; neither a CSV file nor the command line does."""
    with pytest.raises(errors.DomainError, match="cannot parse|--only takes"):
        parse(text)


# ---------------------------------------------------------------------------
# the contract sweep: every argument that declares a parser, in every
# subcommand, fed values at and past the edge of double precision and values
# that are no number


SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "1e308", "5e-324", "", "x"]

# The options whose values may be NAME:NUMBER, with each NAME: they take;
# each sweep value also goes after each of them.
SWEEP_PREFIXES = {
    "--fn": ("slope:", "exp:"),
    "--glue": ("linear:", "sine:"),
    "--profile": ("rotation:",),
}

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
    """Where a sweep value goes in ``cmd``'s base invocation, and the text
    put before it, for each argument that declares a parser and each prefix
    in ``SWEEP_PREFIXES``: ("option", flag, nargs) for an option,
    ("positional", k, None) for the k-th positional."""
    positionals = 0
    for flags, options in cmd.args:
        if flags[0].startswith("-"):
            flag = max(flags, key=len)
            for prefix in ("",) * ("type" in options) + SWEEP_PREFIXES.get(flag, ()):
                yield ("option", flag, options.get("nargs")), prefix
        else:
            if "type" in options:
                yield ("positional", positionals, None), ""
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
    valid invocation of its subcommand, bare and after each of its
    ``SWEEP_PREFIXES``: the exit code is 0, 1 or 2, nothing prints a
    traceback, and an exit-0 report is strict JSON."""
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
            (value, _substituted([] if alone else base, where, prefix + value))
            for where, prefix in _swept(cmd)
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
    # 37 arguments declare a parser; 4 options take 6 prefixes
    assert swept == (37 + 6) * len(SWEEP_VALUES)


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
