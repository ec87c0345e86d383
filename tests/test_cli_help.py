"""Help, version and usage-error text: stdout, stderr and the exit code of
each invocation in ``cli_help.py`` match the record of the running Python
minor byte for byte.  ``--help`` of every parser is recorded, so a parser
that is built when parsing reaches it must print what the eager one did."""

import pytest

from cli_help import MINOR, cases, invoke, load

RECORDS = load()
RECORDED = {tuple(r["argv"]): r for r in RECORDS.get(MINOR, [])}


@pytest.mark.skipif(
    MINOR not in RECORDS,
    reason=f"help text is recorded for Python {', '.join(RECORDS)}; argparse formats it "
    f"differently from one minor to the next, and none is recorded for {MINOR}",
)
@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_text_match_the_record(argv):
    assert tuple(argv) in RECORDED, f"no record; run tests/cli_help.py under Python {MINOR}"
    assert invoke(argv) == RECORDED[tuple(argv)]
