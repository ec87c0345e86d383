"""Bundled examples and seeded generators for tests, demos and acceptance runs.

Builders return small standard surface types (discs, strips, cylinders, pants).
The random generators are deterministic in the seed and construct values that
satisfy every structural invariant by construction, including matched labels
for composable pairs: they only draw or list boundary cycles, and read both
signatures off those cycles through ``cobordism.cycle_signatures``, which
applies the one D-brane orientation rule that ``validate_type`` checks.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .cobordism import (
    BoundaryCycle,
    ComponentData,
    CycleEntry,
    Label,
    ObjectSignature,
    OCType,
    cycle_signatures,
    free_circle,
)
from ._input import integer
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


def _freeze(comps: list[dict]) -> tuple[ComponentData, ...]:
    """The generators' working component records as ComponentData values."""
    return tuple([ComponentData(c["genus"], c["cin"], c["cout"], c["cycles"]) for c in comps])


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
    max_components = integer(max_components, "max_components", 1)
    max_genus = integer(max_genus, "max_genus", 0)
    max_closed = integer(max_closed, "max_closed", 0)
    max_open = integer(max_open, "max_open", 0)
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
    pending = [("in", i) for i in range(n_in)] + [("out", i) for i in range(n_out)]
    rng.shuffle(pending)
    while pending:
        take = rng.randint(1, len(pending))
        batch, pending = pending[:take], pending[take:]
        comp = rng.choice(comps)
        # the arc after each entry; the last one closes the cycle on the first
        first = rng.choice(_LABELS)
        arcs = [rng.choice(_LABELS) for _ in batch[1:]] + [first]
        comp["cycles"].append(BoundaryCycle(tuple(CycleEntry(*e) for e in batch), tuple(arcs)))
    for comp in comps:
        for _ in range(rng.randint(0, 1)):
            comp["cycles"].append(free_circle(rng.choice(_LABELS)))

    frozen = _freeze(comps)
    return OCType(frozen, *cycle_signatures(frozen, n_cin, n_cout))


def random_successor(rng: random.Random, first: OCType) -> OCType:
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

    fresh_out = itertools.count()
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
            entries += [CycleEntry("in", idx), CycleEntry("out", next(fresh_out))]
            arcs += [sig.source_labels[idx], sig.target_labels[batch[(pos + 1) % len(batch)]]]
        rng.choice(comps)["cycles"].append(BoundaryCycle(tuple(entries), tuple(arcs)))

    n_cout = rng.randint(0, 2)
    for i in range(n_cout):
        rng.choice(comps)["cout"].add(i)
    # A spare purely outgoing cycle now and then.
    if rng.random() < 0.5:
        lab = rng.choice(_LABELS)
        e = CycleEntry("out", next(fresh_out))
        rng.choice(comps)["cycles"].append(BoundaryCycle((e,), (lab,)))

    frozen = _freeze(comps)
    return OCType(frozen, *cycle_signatures(frozen, sig.closed_count, n_cout))


def random_composable_pair(seed: int) -> tuple[OCType, OCType]:
    rng = random.Random(seed)
    t1 = random_octype(rng)
    t2 = random_successor(rng, t1)
    return t1, t2


# ---------------------------------------------------------------------------
# bounded deterministic enumeration of small single-component types


def enumerate_small_types(labels: Sequence[Label] = ("a", "b")) -> list[OCType]:
    """Every single-component type from a bounded grammar, deterministically.

    Grammar: genus 0 or 1, at most one incoming and one outgoing closed
    circle, and at most one open boundary cycle with at most two intervals
    over the given labels, which must be distinct.  Rotation-equal cycles
    appear once.
    """
    if len(set(labels)) != len(labels):
        raise DomainError(f"labels must be distinct, got {','.join(labels)}")
    cycles: list[tuple[BoundaryCycle, ...]] = [()]
    for l in labels:
        cycles.append((free_circle(l),))
    for d in ("in", "out"):
        for l in labels:
            cycles.append((BoundaryCycle((CycleEntry(d, 0),), (l,)),))
    seen = set()
    for d1, d2 in (("in", "in"), ("out", "out"), ("in", "out")):
        for l1 in labels:
            for l2 in labels:
                c = BoundaryCycle((CycleEntry(d1, 0), CycleEntry(d2, int(d1 == d2))), (l1, l2))
                if c.canonical() not in seen:
                    seen.add(c.canonical())
                    cycles.append((c,))

    out: list[OCType] = []
    for genus, n_cin, n_cout in itertools.product((0, 1), repeat=3):
        for cyc in cycles:
            comp = ComponentData(genus, frozenset(range(n_cin)), frozenset(range(n_cout)), cyc)
            out.append(OCType((comp,), *cycle_signatures((comp,), n_cin, n_cout)))
    return out


# ---------------------------------------------------------------------------
# quadrilateral corpus


def generate_quads(seed: int, count: int) -> list[tuple[float, float, float, float]]:
    """Seeded marked quadruples in [-4, 4], sorted ascending, at least 0.05 apart."""
    count = integer(count, "quad count", 1)
    rng = random.Random(seed)
    quads = []
    while len(quads) < count:
        pts = sorted(rng.uniform(-4.0, 4.0) for _ in range(4))
        if min(b - a for a, b in zip(pts, pts[1:])) < 0.05:
            continue
        quads.append(tuple(pts))
    return quads
