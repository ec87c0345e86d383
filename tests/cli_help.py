"""Record the command line's help, version and usage-error text.

argparse formats help and usage text differently from one Python minor to
the next, so ``cli_help.json`` holds one record set per minor, keyed
``"3.10"``, ``"3.11"`` ...  Each record is the exit code, stdout and stderr
of one ``segal.cli.main`` invocation at ``COLUMNS=80``: ``--help`` of the
top-level parser, of each group and of each subcommand, ``--version``, and
the usage errors of a missing, an unknown and an incomplete command.

Run it as ``PYTHONPATH=src python tests/cli_help.py`` to (re)write the set
of the running minor; it needs neither numpy nor pytest, and leaves the
other minors' sets as they are.  ``test_cli_help.py`` compares them.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from segal import cli

RECORDS = Path(__file__).resolve().parent / "cli_help.json"
MINOR = f"{sys.version_info[0]}.{sys.version_info[1]}"


def cases() -> list[list[str]]:
    """The recorded invocations, one ``--help`` per parser in ``--help`` order."""
    heads = []
    for cmd in cli.COMMANDS:
        if cmd.group and [cmd.group] not in heads:
            heads.append([cmd.group])
        heads.append([cmd.group, cmd.name] if cmd.group else [cmd.name])
    return [
        ["--help"],
        *([*head, "--help"] for head in heads),
        ["--version"],
        [],
        ["typo"],
        ["types"],
        ["types", "typo"],
        ["types", "validate"],
    ]


def invoke(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``main(argv)`` at ``COLUMNS=80``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # --help, --version, a usage error
            code = e.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> dict[str, list[dict]]:
    return json.loads(RECORDS.read_text(encoding="utf-8")) if RECORDS.exists() else {}


if __name__ == "__main__":
    records = load()
    records[MINOR] = [invoke(argv) for argv in cases()]
    text = json.dumps(dict(sorted(records.items())), indent=1, ensure_ascii=False)
    RECORDS.write_text(text + "\n", encoding="utf-8")
    print(f"{RECORDS.name}: {len(records[MINOR])} records for Python {MINOR}")
