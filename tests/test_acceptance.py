"""One test per shipped guarantee, each printing its verdict line.

The suite runs the same callables as `segal accept`, so a red test here and
a FAIL line on the command line are the same event.
"""

import collections
import contextlib
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

import pytest

from segal import _oracles, acceptance, cli, cobordism, corpus, modulus
from segal.acceptance import CRITERIA, Check, _judge, run_acceptance
from segal.errors import DomainError
from test_imports import SRC, run_python

_NAMES = ["corpus-integrity"] + [name for _, name, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    res = run_acceptance()
    return {r.name: r for r in res}


@pytest.mark.parametrize("name", _NAMES)
def test_criterion(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, r.line()


def test_all_indices_covered(results):
    assert sorted(r.index for r in results.values()) == list(range(13))


# Every stated bound, as (criterion index, check name, bound, sense).  The
# `segal accept --format json` golden records every measured value, bound
# and margin byte for byte; this table pins the bounds by name, so a moved
# bound shows here as the bound that moved.
BOUNDS = [
    (0, "problems", 0.0, "<="),
    (1, "mismatches", 0.0, "<="),
    (2, "mismatches", 0.0, "<="),
    (3, "round-trip", 1e-12, "<="),
    (3, "stretch-fd", 1e-8, "<="),
    (4, "distance-change", 1e-10, "<="),
    (5, "distance-change", 1e-12, "<="),
    (6, "vs-agm", 1e-8, "<="),
    (6, "reciprocity", 1e-6, "<="),
    (6, "mobius-invariance", 1e-8, "<="),
    (7, "rectangle-sup", 1.99, ">="),
    (7, "within-bounds", 0.0, "<="),
    (8, "fd-relative", 0.05, "<="),
    (8, "profile-bound", 0.0, "<="),
    (9, "identity-and-slope", 0.0, "<="),
    (9, "exp-window", math.exp(1.0) * (1.0 - 1e-6), ">="),
    (10, "failures", 0.0, "<="),
    (11, "fit-deviation", 0.25, "<="),
    (11, "sequence", 0.0, "<="),
    (11, "growth", 0.0, "<="),
    (12, "boundary-deviation", 0.0, "<="),
    (12, "min-jacobian", 0.0, ">"),
    (12, "rigid-rotation", 0.0, "<="),
]


def test_every_bound_is_pinned(results):
    stated = [
        (r.index, c.name, c.bound, c.sense)
        for r in sorted(results.values(), key=lambda r: r.index)
        for c in r.checks
    ]
    assert stated == BOUNDS


def test_first_check_fills_the_text_columns(results):
    for r in results.values():
        assert (r.measured, r.tolerance) == (r.checks[0].measured, r.checks[0].bound)
        assert r.passed == all(c.passed for c in r.checks)


@pytest.mark.parametrize(
    "check, passed, margin",
    [
        (Check("c", 0.5, 2.0, "<="), True, 0.75),
        (Check("c", 3.0, 2.0, "<="), False, -0.5),
        (Check("c", 0.0, 0.0, "<="), True, 0.0),
        (Check("c", 0.04, 0.0, "<="), False, -0.04),
        (Check("c", 3.0, 2.0, ">="), True, 0.5),
        (Check("c", 1.0, 2.0, ">="), False, -0.5),
        (Check("c", 0.5, 0.0, ">"), True, 0.5),
        (Check("c", 0.0, 0.0, ">"), False, 0.0),
        (Check("c", math.nan, 1.0, "<="), False, math.nan),
    ],
)
def test_judge_margin(check, passed, margin):
    judged = _judge(check)
    assert judged.passed is passed
    assert judged.margin == pytest.approx(margin, nan_ok=True)


def test_scale_is_fixed():
    with pytest.raises(DomainError, match="got 2.0"):
        run_acceptance(None, 2.0)


def test_unknown_indices_are_rejected_before_the_corpus_loads(tmp_path):
    # the corpus directory does not exist, so only a rejection that comes
    # first can name the indices
    with pytest.raises(DomainError, match=r"^criterion indices out of range: \[0, 99\]$"):
        run_acceptance(str(tmp_path / "missing"), indices=[0, 3, 99])


def test_the_composition_criteria_keep_their_work(monkeypatch):
    """Criterion 1 draws 1,000 capped triples in 1,177 rounds (3,531 drawn
    types), composes 4,000 times and compares 1,000 pairs of types;
    criterion 2 composes each of its 3,220 pairs once and glues each once
    on the complex.  A faster run cannot come from doing less of this."""
    counts: collections.Counter = collections.Counter()
    for owner, name in (
        (acceptance, "_capped_triple"),
        (corpus, "random_octype"),
        (corpus, "random_successor"),
        (cobordism, "compose_types"),
        (cobordism.OCType, "__eq__"),
        (_oracles, "glued_summary"),
    ):

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    data = acceptance.load_corpus()
    (check,), _ = acceptance.criterion_1_associativity(data)
    assert check.measured == 0.0
    assert counts == {
        "_capped_triple": 1000,
        "random_octype": 1177,
        "random_successor": 2354,
        "compose_types": 4000,
        "__eq__": 1000,
    }
    counts.clear()
    (check,), detail = acceptance.criterion_2_compose_oracle(data)
    assert check.measured == 0.0
    assert detail.startswith("3220 glued pairs")
    # the 200 seeded pairs are drawn whole; those past the size cap are dropped
    assert counts == {
        "random_octype": 200,
        "random_successor": 200,
        "compose_types": 3220,
        "glued_summary": 3220,
    }


# ---------------------------------------------------------------------------
# the worker path: with two usable CPUs or more, the criteria run in forked
# worker processes, and nothing a caller sees may depend on it


def _on_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: n)


def test_workers_and_the_serial_loop_agree(monkeypatch, capsys):
    original = acceptance.run_acceptance
    seen = {}
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        monkeypatch.setattr(
            acceptance, "run_acceptance", lambda *a, **k: seen.setdefault(cpus, original(*a, **k))
        )
        assert cli.main(["accept", "--format", "json"]) == 0
        seen[cpus, "json"] = capsys.readouterr().out
    assert seen[1] == seen[2]
    assert [r.line() for r in seen[1]] == [r.line() for r in seen[2]]
    assert seen[1, "json"] == seen[2, "json"]


def _row(index: int, fn) -> tuple:
    """``CRITERIA`` with criterion ``index`` replaced by ``fn``."""
    return tuple((i, name, fn if i == index else f) for i, name, f in CRITERIA)


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    def failing(data):
        raise DomainError(f"raised in process {os.getpid()}")

    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(acceptance, "CRITERIA", _row(9, failing))
    handler = signal.getsignal(signal.SIGINT)
    with pytest.raises(DomainError, match=r"^raised in process \d+$") as err:
        run_acceptance(indices=[3, 9])
    assert type(err.value) is DomainError
    assert str(err.value) != f"raised in process {os.getpid()}"
    # the Ctrl-C handler and signal mask of the fork window are restored
    assert signal.getsignal(signal.SIGINT) is handler
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_an_ignored_ctrl_c_stays_ignored(monkeypatch):
    """With SIGINT ignored, as under ``nohup``, a SIGINT to the caller or to
    a worker, while the pool forks or after, ends nothing."""
    caller = os.getpid()
    original = {i: f for i, _, f in CRITERIA}[3]

    def interrupting(data):
        os.kill(caller, signal.SIGINT)
        os.kill(os.getpid(), signal.SIGINT)
        return original(data)

    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(acceptance, "CRITERIA", _row(3, interrupting))
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        results = run_acceptance(indices=[3, 9])
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)
    assert all(r.passed for r in results)


def test_a_defect_is_caught_in_a_worker(monkeypatch, capsys):
    original = modulus.module_sc
    monkeypatch.setattr(modulus, "module_sc", lambda x: (1.0 + 1e-7) * original(x))
    _on_cpus(monkeypatch, 2)
    assert cli.main(["accept", "--only", "5,6"]) == 1
    verdicts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == [["PASS", "0"], ["PASS", "5"], ["FAIL", "6"]]


def test_a_single_criterion_runs_in_the_calling_process(monkeypatch):
    pids = []
    original = {i: f for i, _, f in CRITERIA}[8]

    def recording(data):
        pids.append(os.getpid())
        return original(data)

    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(acceptance, "CRITERIA", _row(8, recording))
    (_, result) = run_acceptance(indices=[8])
    assert result.passed
    assert pids == [os.getpid()]


def test_the_heaviest_criteria_start_first(monkeypatch, tmp_path):
    """On two CPUs the first four jobs the workers take are criteria 1, 2,
    11 and 10, and the results still come back in table order."""
    log = tmp_path / "started"

    def probe(index: int):
        def run(data):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{index}\n".encode())
            os.close(fd)
            time.sleep(0.05)  # so no worker takes a later job while another starts
            return [Check("probe", 0.0, 0.0, "<=")], str(index)

        return run

    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(acceptance, "CRITERIA", tuple((i, n, probe(i)) for i, n, _ in CRITERIA))
    results = run_acceptance()
    started = [int(index) for index in log.read_text().split()]
    assert set(started[:4]) == set(acceptance.HEAVIEST) == {1, 2, 11, 10}
    assert sorted(started) == list(range(1, 13))
    assert [r.index for r in results] == list(range(13))
    assert [r.detail for r in results[1:]] == [str(i) for i in range(1, 13)]


# ---------------------------------------------------------------------------
# numpy on the worker path: the parallel branch loads it before it forks, so
# no worker imports it; the serial path of one criterion never loads it


@pytest.mark.skipif(
    acceptance._usable_cpus() < 2, reason="the criteria run in workers only on two usable CPUs"
)
def test_every_worker_starts_with_numpy_loaded():
    out = run_python(
        "import os, sys\n"
        "from segal import acceptance\n"
        "def probe(data):\n"
        "    loaded = 'numpy' in sys.modules\n"
        "    return [acceptance.Check('numpy-loaded', float(not loaded), 0.0, '<=')], str(os.getpid())\n"
        "acceptance.CRITERIA = ((1, 'probe-a', probe), (2, 'probe-b', probe))\n"
        "before = 'numpy' in sys.modules\n"
        "results = acceptance.run_acceptance()\n"
        "print(before, [r.passed for r in results[1:]], str(os.getpid()) in [r.detail for r in results])\n"
    )
    assert out.splitlines() == ["False [True, True] False"]


def test_a_single_criterion_loads_no_numpy():
    out = run_python(
        "import sys, segal\n"
        "print([r.passed for r in segal.run_acceptance(indices=[8])], 'numpy' in sys.modules)\n"
    )
    assert out.splitlines() == ["[True, True] False"]


# ---------------------------------------------------------------------------
# the worker processes end with their parent: ``segal accept`` runs in a
# session of its own, with many short criteria, so that when the signal
# comes the workers are busy, jobs are queued and results keep arriving

BUSY_ACCEPT = (
    "import os, sys, time\n"
    "from segal import acceptance, cli\n"
    "def busy(data):\n"
    "    os.write(1, b'running\\n')\n"
    "    time.sleep(0.01)\n"
    "    return [acceptance.Check('busy', 0.0, 0.0, '<=')], ''\n"
    "acceptance.CRITERIA = tuple((i, 'busy', busy) for i in range(1, 1001))\n"
    "sys.exit(cli.main(['accept']))\n"
)


@contextlib.contextmanager
def _busy_accept() -> Iterator[subprocess.Popen]:
    """The busy ``segal accept``, once a criterion has started running; its
    session is killed on the way out."""
    proc = subprocess.Popen(
        [sys.executable, "-c", BUSY_ACCEPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == "running\n"
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def _live(group: int) -> list[int]:
    """The processes of ``group`` that have not exited.  A zombie has: when
    its parent was killed, reaping it is up to whoever adopted it."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(pgrp) == group and state != "Z":
            live.append(int(stat.parent.name))
    return live


def _ends_within(group: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _live(group):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


@needs_proc
def test_ctrl_c_ends_every_process_without_a_traceback():
    with _busy_accept() as proc:
        os.killpg(proc.pid, signal.SIGINT)
        _out, err = proc.communicate(timeout=10)
        assert (proc.returncode, err) == (130, "interrupted\n")
        assert _ends_within(proc.pid, 2.0)


@needs_proc
@pytest.mark.skipif(
    acceptance._usable_cpus() < 2, reason="the criteria run in workers only on two usable CPUs"
)
def test_workers_end_with_a_killed_parent():
    with _busy_accept() as proc:
        proc.kill()
        proc.wait(timeout=10)
        assert _ends_within(proc.pid, 2.0)
