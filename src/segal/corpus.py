"""Bundled examples and seeded generators for tests, demos and acceptance runs.

Builders return small standard surface types (discs, strips, cylinders, pants).
The random generators are deterministic in the seed and construct values that
satisfy every structural invariant by construction, including matched labels
for composable pairs.
"""

from __future__ import annotations

import json
import random
from importlib import resources
from typing import Optional, Sequence

from .cobordism import (
    BoundaryCycle,
    ComponentData,
    CycleEntry,
    Label,
    ObjectSignature,
    OCType,
    free_circle,
)
from .errors import DomainError

# ---------------------------------------------------------------------------
# standard types


def disc_out(label: Label = "a") -> OCType:
    """Disc whose boundary is one outgoing interval plus one free arc."""
    comp = ComponentData(
        genus=0,
        cycles=(BoundaryCycle((CycleEntry("out", 0),), (label,)),),
    )
    sig = ObjectSignature(0, 1, (label,), (label,))
    return OCType((comp,), ObjectSignature(0, 0), sig)


def disc_in(label: Label = "a") -> OCType:
    """Disc whose boundary is one incoming interval plus one free arc."""
    comp = ComponentData(
        genus=0,
        cycles=(BoundaryCycle((CycleEntry("in", 0),), (label,)),),
    )
    sig = ObjectSignature(0, 1, (label,), (label,))
    return OCType((comp,), sig, ObjectSignature(0, 0))


def free_disc(label: Label = "a") -> OCType:
    """Disc with fully free boundary: the result of disc_out . disc_in."""
    comp = ComponentData(genus=0, cycles=(free_circle(label),))
    return OCType((comp,), ObjectSignature(0, 0), ObjectSignature(0, 0))


def strip(source: Label = "a", target: Label = "b") -> OCType:
    """Rectangle: one incoming and one outgoing interval between two arcs."""
    comp = ComponentData(
        genus=0,
        cycles=(
            BoundaryCycle(
                (CycleEntry("in", 0), CycleEntry("out", 0)),
                (source, target),
            ),
        ),
    )
    sig = ObjectSignature(0, 1, (source,), (target,))
    return OCType((comp,), sig, sig)


def cylinder() -> OCType:
    """Annulus from one incoming to one outgoing closed circle."""
    comp = ComponentData(genus=0, closed_in=frozenset({0}), closed_out=frozenset({0}))
    sig = ObjectSignature(1, 0)
    return OCType((comp,), sig, sig)


def pants_split() -> OCType:
    """Pair of pants: one incoming circle, two outgoing."""
    comp = ComponentData(
        genus=0, closed_in=frozenset({0}), closed_out=frozenset({0, 1})
    )
    return OCType((comp,), ObjectSignature(1, 0), ObjectSignature(2, 0))


def pants_join() -> OCType:
    """Pair of pants: two incoming circles, one outgoing."""
    comp = ComponentData(
        genus=0, closed_in=frozenset({0, 1}), closed_out=frozenset({0})
    )
    return OCType((comp,), ObjectSignature(2, 0), ObjectSignature(1, 0))


def closed_surface(genus: int) -> OCType:
    """Closed component with no boundary at all (unstable for genus >= 0)."""
    comp = ComponentData(genus=genus)
    return OCType((comp,), ObjectSignature(0, 0), ObjectSignature(0, 0))


def free_annulus(label: Label = "a") -> OCType:
    comp = ComponentData(genus=0, cycles=(free_circle(label), free_circle(label)))
    return OCType((comp,), ObjectSignature(0, 0), ObjectSignature(0, 0))


# ---------------------------------------------------------------------------
# seeded random types

_LABELS: tuple[Label, ...] = ("a", "b", "c")


def _chain_labels(rng: random.Random, n: int, first: Label, last: Label) -> list[Label]:
    """n+1 labels starting at first and ending at last."""
    mids = [rng.choice(_LABELS) for _ in range(max(0, n - 1))]
    return [first, *mids, last]


def _freeze(comps: list[dict]) -> tuple[ComponentData, ...]:
    """The generators' working component records as ComponentData values."""
    return tuple(
        ComponentData(
            genus=c["genus"],
            closed_in=frozenset(c["cin"]),
            closed_out=frozenset(c["cout"]),
            cycles=tuple(c["cycles"]),
        )
        for c in comps
    )


def random_octype(
    rng: random.Random,
    max_components: int = 2,
    max_genus: int = 2,
    max_closed: int = 2,
    max_open: int = 3,
) -> OCType:
    """A structurally valid random type.

    Signature labels are read off the generated cycles, so the D-brane
    conditions hold by construction.
    """
    n_comp = rng.randint(1, max_components)
    comps: list[dict] = [
        {"genus": rng.randint(0, max_genus), "cin": set(), "cout": set(), "cycles": []}
        for _ in range(n_comp)
    ]
    n_cin = rng.randint(0, max_closed)
    n_cout = rng.randint(0, max_closed)
    for i in range(n_cin):
        rng.choice(comps)["cin"].add(i)
    for i in range(n_cout):
        rng.choice(comps)["cout"].add(i)

    n_in = rng.randint(0, max_open)
    n_out = rng.randint(0, max_open)
    src: dict[tuple[str, int], Label] = {}
    tgt: dict[tuple[str, int], Label] = {}
    pending = [("in", i) for i in range(n_in)] + [("out", i) for i in range(n_out)]
    rng.shuffle(pending)
    while pending:
        take = rng.randint(1, len(pending))
        batch, pending = pending[:take], pending[take:]
        comp = rng.choice(comps)
        entries = []
        arcs = []
        prev_label = rng.choice(_LABELS)
        first_label = prev_label
        for pos, (direction, idx) in enumerate(batch):
            is_last = pos == len(batch) - 1
            nxt = first_label if is_last else rng.choice(_LABELS)
            # Free arc before this entry is prev_label, after it is nxt.
            if direction == "out":
                src[("out", idx)] = prev_label
                tgt[("out", idx)] = nxt
            else:
                tgt[("in", idx)] = prev_label
                src[("in", idx)] = nxt
            entries.append(CycleEntry(direction, idx))
            arcs.append(nxt)
            prev_label = nxt
        comp["cycles"].append(BoundaryCycle(tuple(entries), tuple(arcs)))
    for comp in comps:
        for _ in range(rng.randint(0, 1)):
            comp["cycles"].append(free_circle(rng.choice(_LABELS)))

    def sig(count_closed: int, direction: str, n_open: int) -> ObjectSignature:
        return ObjectSignature(
            count_closed,
            n_open,
            tuple(src[(direction, i)] for i in range(n_open)),
            tuple(tgt[(direction, i)] for i in range(n_open)),
        )

    return OCType(_freeze(comps), sig(n_cin, "in", n_in), sig(n_cout, "out", n_out))


def random_successor(rng: random.Random, first: OCType, extra_out: int = 2) -> OCType:
    """A random type whose incoming signature matches ``first``'s outgoing one.

    Every required incoming interval is separated from its cyclic neighbour
    by a fresh outgoing interval whose endpoint labels absorb the mismatch.
    """
    sig = first.out_signature
    n_comp = rng.randint(1, 2)
    comps: list[dict] = [
        {"genus": rng.randint(0, 1), "cin": set(), "cout": set(), "cycles": []}
        for _ in range(n_comp)
    ]
    for i in range(sig.closed_count):
        rng.choice(comps)["cin"].add(i)

    out_src: list[Label] = []
    out_tgt: list[Label] = []

    def fresh_out(s: Label, t: Label) -> CycleEntry:
        out_src.append(s)
        out_tgt.append(t)
        return CycleEntry("out", len(out_src) - 1)

    required = list(range(sig.open_count))
    rng.shuffle(required)
    while required:
        take = rng.randint(1, len(required))
        batch, required = required[:take], required[take:]
        entries: list[CycleEntry] = []
        arcs: list[Label] = []
        # Around an incoming interval i the neighbouring free arcs must read
        # target-label, interval, source-label.  A fresh outgoing interval
        # bridges each consecutive pair.
        for pos, idx in enumerate(batch):
            nxt_idx = batch[(pos + 1) % len(batch)]
            entries.append(CycleEntry("in", idx))
            arcs.append(sig.source_labels[idx])
            entries.append(fresh_out(sig.source_labels[idx], sig.target_labels[nxt_idx]))
            arcs.append(sig.target_labels[nxt_idx])
        rng.choice(comps)["cycles"].append(BoundaryCycle(tuple(entries), tuple(arcs)))

    n_cout = rng.randint(0, 2)
    for i in range(n_cout):
        rng.choice(comps)["cout"].add(i)
    # A spare purely outgoing cycle now and then.
    if extra_out and rng.random() < 0.5:
        lab = rng.choice(_LABELS)
        e = fresh_out(lab, lab)
        rng.choice(comps)["cycles"].append(BoundaryCycle((e,), (lab,)))

    out_sig = ObjectSignature(n_cout, len(out_src), tuple(out_src), tuple(out_tgt))
    return OCType(_freeze(comps), sig, out_sig)


def random_composable_pair(seed: int) -> tuple[OCType, OCType]:
    rng = random.Random(seed)
    t1 = random_octype(rng)
    t2 = random_successor(rng, t1)
    return t1, t2


# ---------------------------------------------------------------------------
# bounded deterministic enumeration of small single-component types


def _two_entry_cycle(d1: str, d2: str, l1: Label, l2: Label) -> BoundaryCycle:
    i2 = 1 if d1 == d2 else 0
    return BoundaryCycle(
        (CycleEntry(d1, 0), CycleEntry(d2, i2)), (l1, l2)
    )


def _cycle_interval_labels(cycle: BoundaryCycle) -> dict:
    """source/target labels of each interval, read off the cycle."""
    out: dict[tuple[str, int], tuple[Label, Label]] = {}
    k = len(cycle.entries)
    for pos, entry in enumerate(cycle.entries):
        succ = cycle.free_arc_labels[pos]
        pred = cycle.free_arc_labels[(pos - 1) % k]
        if entry.direction == "out":
            out[(entry.direction, entry.index)] = (pred, succ)
        else:
            out[(entry.direction, entry.index)] = (succ, pred)
    return out


def enumerate_small_types(labels: Sequence[Label] = ("a", "b")) -> list[OCType]:
    """Every single-component type from a bounded grammar, deterministically.

    Grammar: genus 0 or 1, at most one incoming and one outgoing closed
    circle, and at most one open boundary cycle with at most two intervals
    over the given labels.  Rotation-equal cycles appear once.
    """
    cycles: list[Optional[BoundaryCycle]] = [None]
    for l in labels:
        cycles.append(free_circle(l))
    for d in ("in", "out"):
        for l in labels:
            cycles.append(BoundaryCycle((CycleEntry(d, 0),), (l,)))
    seen = set()
    for d1, d2 in (("in", "in"), ("out", "out"), ("in", "out")):
        for l1 in labels:
            for l2 in labels:
                c = _two_entry_cycle(d1, d2, l1, l2)
                if c.canonical() not in seen:
                    seen.add(c.canonical())
                    cycles.append(c)

    out: list[OCType] = []
    for genus in (0, 1):
        for n_cin in (0, 1):
            for n_cout in (0, 1):
                for cyc in cycles:
                    interval_labels: dict = {}
                    comp_cycles: tuple[BoundaryCycle, ...] = ()
                    if cyc is not None:
                        comp_cycles = (cyc,)
                        if not cyc.is_free_circle:
                            interval_labels = _cycle_interval_labels(cyc)
                    comp = ComponentData(
                        genus=genus,
                        closed_in=frozenset(range(n_cin)),
                        closed_out=frozenset(range(n_cout)),
                        cycles=comp_cycles,
                    )

                    def sig(direction: str, n_closed: int) -> ObjectSignature:
                        keys = sorted(
                            k for k in interval_labels if k[0] == direction
                        )
                        return ObjectSignature(
                            n_closed,
                            len(keys),
                            tuple(interval_labels[k][0] for k in keys),
                            tuple(interval_labels[k][1] for k in keys),
                        )

                    out.append(
                        OCType((comp,), sig("in", n_cin), sig("out", n_cout))
                    )
    return out


# ---------------------------------------------------------------------------
# quadrilateral corpus


def generate_quads(seed: int, count: int, span: float = 4.0, min_gap: float = 0.05) -> list[tuple[float, float, float, float]]:
    """Seeded corpus of marked quadruples on the real line, sorted ascending."""
    if count < 1:
        raise DomainError(f"quad count must be at least 1, got {count}")
    rng = random.Random(seed)
    quads = []
    while len(quads) < count:
        pts = sorted(rng.uniform(-span, span) for _ in range(4))
        if min(b - a for a, b in zip(pts, pts[1:])) < min_gap:
            continue
        quads.append(tuple(pts))
    return quads


def load_bundled(name: str) -> dict:
    """Read one of the JSON files shipped under segal/data/corpus."""
    path = resources.files("segal").joinpath("data", "corpus", name)
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)
