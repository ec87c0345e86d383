"""Run one ``segal`` command with the tracer installed.

The traced ``cli`` run starts each command through this file instead of
``python -m segal.cli``; untraced runs never load it.  It writes the spans
to ``<out>.npz`` and their per-name totals to ``<out>.json``::

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT types enumerate --format json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import segal._oracles  # noqa: E402,F401  (traced like every segal module)
import segal.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    tracer.begin_pass()
    try:
        code = segal.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        counters, errors = tracer.end_pass()
        sys.stdout.flush()
    summary = {
        "layers": tracer.pass_stats(*tracer.passes[0]),
        "counters": dict(counters),
        "errors": dict(errors),
    }
    out.parent.joinpath(out.name + ".json").write_text(json.dumps(summary))
    tracer.dump(out.parent / (out.name + ".npz"), {"argv": sys.argv[2:]})
    return code


if __name__ == "__main__":
    sys.exit(main())
