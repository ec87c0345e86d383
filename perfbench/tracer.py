"""Opt-in spans around the public functions of the ``segal`` package.

Installed only in a traced process: every public function defined in a
``segal`` module is replaced, in every ``segal`` namespace that holds it,
by a wrapper that records one span (name, start, end, parent).  Internal
callers look functions up in those namespaces, so nested library calls are
traced too.  Spans stay in memory, in flat arrays, and are written out when
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "cli", "acceptance", "cobordism", "corpus", "_oracles", "chains",
    "quasisym", "modulus", "beltrami", "flattening",
)


def _field_nodes(args, out) -> int:
    return sum(a.values.size for a in args if hasattr(a, "values"))


# Work counters recorded at span boundaries, keyed by span name.
COUNTERS = {
    "chains.shuffle_product": ("terms", lambda args, out: len(out)),
    "chains.boundary": ("terms", lambda args, out: len(out)),
    "quasisym.qs_bound": ("samples", lambda args, out: len(args[0].xs)),
    "beltrami.transform_field": (None, _field_nodes),
    "beltrami.pullback_field": (None, _field_nodes),
    "beltrami.sew_sections": (None, _field_nodes),
    "beltrami.field_distance": (None, _field_nodes),
}
_NODE_COUNTER = "beltrami.nodes"

GLUE_FACTORIES = ("glue_identity", "glue_linear", "glue_sine")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._seen_errors: set[int] = set()
        self.passes: list[tuple[int, int]] = []
        self._pass_counters: Counter = Counter()
        self._pass_errors: Counter = Counter()
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.record_error(layer, exc)
                raise
            finally:
                tracer.close(idx)
            if counter is not None:
                suffix, measure = counter
                key = f"{name}.{suffix}" if suffix else _NODE_COUNTER
                tracer.counters[key] += measure(args, out)
            return out

        traced.__perfbench_original__ = fn
        return traced

    def record_error(self, layer: str, exc: BaseException) -> None:
        from segal.errors import SegalError

        # count each error once, at the innermost wrapped call that saw it
        if isinstance(exc, SegalError) and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[layer] += 1

    def begin_pass(self) -> None:
        self.passes.append((len(self.start), -1))
        self._pass_counters = Counter(self.counters)
        self._pass_errors = Counter(self.errors)

    def end_pass(self) -> tuple[Counter, Counter]:
        """Close the current pass; return its own counters and errors."""
        first, _ = self.passes[-1]
        self.passes[-1] = (first, len(self.start))
        return self.counters - self._pass_counters, self.errors - self._pass_errors

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every imported ``segal`` module."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if (name == "segal" or name.startswith("segal.")) and mod is not None
        }
        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.split(".")[-1]
            if short not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != modname:
                    continue
                fn = obj
                if attr in GLUE_FACTORIES and short == "flattening":
                    fn = self._counting_glue(obj)
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", fn)
        # rebind in every namespace that holds an original, so that callers
        # using ``from .module import name`` see the wrapper as well
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    self._replace(mod, attr, wrapped[id(obj)])
        self._install_special(modules)

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install_special(self, modules) -> None:
        cob = modules.get("segal.cobordism")
        if cob is not None:
            self._replace(cob.OCType, "__eq__", self.wrap("cobordism.OCType.__eq__", cob.OCType.__eq__))
        acc = modules.get("segal.acceptance")
        if acc is not None:
            # run_acceptance calls criteria through a table; one span each
            crit = tuple(
                (idx, name, self.wrap(f"acceptance.criterion_{idx}", _original(fn)))
                for idx, name, fn in acc.CRITERIA
            )
            self._replace(acc, "CRITERIA", crit)
            self._replace(acc, "corpus_integrity", self.wrap("acceptance.criterion_0", _original(acc.corpus_integrity)))
        cli = modules.get("segal.cli")
        if cli is not None:
            cmds = tuple(
                dataclasses.replace(cmd, run=self.wrap(f"cli.{cmd.group or cmd.name}.{cmd.name}", _original(cmd.run)))
                for cmd in cli.COMMANDS
            )
            self._replace(cli, "COMMANDS", cmds)

    def _counting_glue(self, factory):
        """Glue maps built while tracing count the points their drho sees."""
        tracer = self

        @functools.wraps(factory)
        def build(*args, **kwargs):
            g = factory(*args, **kwargs)
            live = False
            plain = g.drho

            def drho(x):
                if live:
                    tracer.counters["flattening.drho_points"] += _size(x)
                return plain(x)

            counted = dataclasses.replace(g, drho=drho)
            live = True
            return counted

        return build

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    # -- results -------------------------------------------------------------

    def pass_stats(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name, for spans [first, last)."""
        stats: dict[str, dict[str, float]] = {}
        child = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur
            s = stats.setdefault(self.names[self.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i - first]
        return stats

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (name id, start, end, parent) and the totals.

        An ``.npz`` file: ``names[name_id[i]]`` names span ``i`` and
        ``parent[i]`` is the index of its enclosing span, or -1.
        """
        import numpy as np

        meta = dict(extra, counters=dict(self.counters), errors=dict(self.errors))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            passes=np.array(self.passes, dtype=np.int64).reshape(-1, 2),
            meta=np.array(json.dumps(meta)),
        )


def _original(fn):
    return getattr(fn, "__perfbench_original__", fn)


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1
