"""Bundled examples and seeded generators for tests, demos and acceptance runs.

Everything the acceptance criteria read comes from here.  ``load_corpus``
reads an acceptance corpus directory, by default the shipped one, and
``example`` reads one of the small standard surface types (discs, strips,
cylinders, pants) shipped as JSON under ``data/corpus/types``.  The random
generators are deterministic in the seed and construct values that satisfy
every structural invariant by construction, including matched labels for
composable pairs: they only draw or list boundary cycles, and read both
signatures off those cycles through ``cobordism.cycle_signatures``, which
applies the one D-brane orientation rule that ``validate_type`` checks.
``random_mu`` and ``random_field`` draw dilatation values and fields.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import beltrami, cobordism
from ._input import integer, json_list, json_number, json_object, load_file
from .errors import DomainError

if TYPE_CHECKING:
    from .cobordism import BoundaryCycle, ComponentData, CycleEntry, Label, OCType

# ---------------------------------------------------------------------------
# standard types

# the shipped acceptance corpus: quads.json, and one type per file in types/
BUNDLED = Path(__file__).parent / "data" / "corpus"


def example(name: str) -> OCType:
    """The bundled type ``types/<name>.json``, e.g. ``example("pants_split")``."""
    path = BUNDLED / "types" / f"{name}.json"
    return load_file(path, cobordism.octype_from_json, "surface-type")


@dataclass(frozen=True)
class AcceptanceCorpus:
    quads: tuple[tuple[float, float, float, float], ...]
    types: tuple[tuple[str, OCType], ...]


def _quads_from_json(d) -> tuple[tuple[float, float, float, float], ...]:
    quads = json_list(json_object(d, "quad corpus")["quads"], "quad list")
    if not all(isinstance(q, list) and len(q) == 4 for q in quads):
        raise DomainError("each quad must be a list of four numbers")
    return tuple(tuple(json_number(v, "quad entry") for v in q) for q in quads)


def load_corpus(directory: Optional[str] = None) -> AcceptanceCorpus:
    """Read the quad list and example types from a directory, by default the shipped one."""
    root = BUNDLED if directory is None else Path(directory)
    quad_path = root / "quads.json"
    if not quad_path.is_file():
        raise DomainError(f"missing corpus file {quad_path}")
    quads = load_file(quad_path, _quads_from_json, "quad-corpus")
    types = tuple(
        (p.stem, load_file(p, cobordism.octype_from_json, "surface-type"))
        for p in sorted((root / "types").glob("*.json"))
    )
    return AcceptanceCorpus(quads, types)


# ---------------------------------------------------------------------------
# seeded random types

_LABELS: tuple[Label, ...] = ("a", "b", "c")


def _freeze(comps: list[dict]) -> tuple[ComponentData, ...]:
    """The generators' working component records as ComponentData values."""
    return tuple(
        [cobordism.ComponentData(c["genus"], c["cin"], c["cout"], c["cycles"]) for c in comps]
    )


def random_octype(rng: random.Random) -> OCType:
    """A structurally valid random type: 1 or 2 components of genus at most
    2, at most 2 closed circles and at most 3 intervals each way.

    Signature labels are read off the generated cycles, so the D-brane
    conditions hold by construction.
    """
    n_comp = rng.randint(1, 2)
    comps: list[dict] = [
        {"genus": rng.randint(0, 2), "cin": set(), "cout": set(), "cycles": []}
        for _ in range(n_comp)
    ]
    n_cin = rng.randint(0, 2)
    n_cout = rng.randint(0, 2)
    for i in range(n_cin):
        rng.choice(comps)["cin"].add(i)
    for i in range(n_cout):
        rng.choice(comps)["cout"].add(i)

    n_in = rng.randint(0, 3)
    n_out = rng.randint(0, 3)
    pending = [("in", i) for i in range(n_in)] + [("out", i) for i in range(n_out)]
    rng.shuffle(pending)
    while pending:
        take = rng.randint(1, len(pending))
        batch, pending = pending[:take], pending[take:]
        comp = rng.choice(comps)
        # the arc after each entry; the last one closes the cycle on the first
        first = rng.choice(_LABELS)
        arcs = [rng.choice(_LABELS) for _ in batch[1:]] + [first]
        entries = tuple(cobordism.CycleEntry(*e) for e in batch)
        comp["cycles"].append(cobordism.BoundaryCycle(entries, tuple(arcs)))
    for comp in comps:
        for _ in range(rng.randint(0, 1)):
            comp["cycles"].append(cobordism.free_circle(rng.choice(_LABELS)))

    frozen = _freeze(comps)
    return cobordism.OCType(frozen, *cobordism.cycle_signatures(frozen, n_cin, n_cout))


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
            entries += [
                cobordism.CycleEntry("in", idx), cobordism.CycleEntry("out", next(fresh_out))
            ]
            arcs += [sig.source_labels[idx], sig.target_labels[batch[(pos + 1) % len(batch)]]]
        rng.choice(comps)["cycles"].append(cobordism.BoundaryCycle(tuple(entries), tuple(arcs)))

    n_cout = rng.randint(0, 2)
    for i in range(n_cout):
        rng.choice(comps)["cout"].add(i)
    # A spare purely outgoing cycle now and then.
    if rng.random() < 0.5:
        lab = rng.choice(_LABELS)
        e = cobordism.CycleEntry("out", next(fresh_out))
        rng.choice(comps)["cycles"].append(cobordism.BoundaryCycle((e,), (lab,)))

    frozen = _freeze(comps)
    return cobordism.OCType(frozen, *cobordism.cycle_signatures(frozen, sig.closed_count, n_cout))


def random_composable_pair(seed: int) -> tuple[OCType, OCType]:
    rng = random.Random(seed)
    t1 = random_octype(rng)
    t2 = random_successor(rng, t1)
    return t1, t2


def within_cap(t: OCType) -> bool:
    """The size cap on seeded types: at most 4 components and 6 boundary circles."""
    return len(t.components) <= 4 and sum(c.n for c in t.components) <= 6


def capped_triple(seed: int) -> tuple[OCType, ...]:
    """The first composable triple drawn from ``seed`` whose three types are ``within_cap``."""
    rng = random.Random(seed)
    while True:
        t1 = random_octype(rng)
        t2 = random_successor(rng, t1)
        t3 = random_successor(rng, t2)
        if within_cap(t1) and within_cap(t2) and within_cap(t3):
            return t1, t2, t3


# ---------------------------------------------------------------------------
# seeded dilatation data


def random_mu(rng: random.Random, r_max: float = 0.95) -> complex:
    """A dilatation value drawn uniformly from the disc of radius ``r_max``."""
    r = r_max * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def random_field(
    rng: random.Random, x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
) -> beltrami.DilatationField:
    """A field on [x0, x1] x [y0, y1] of ny x nx ``random_mu`` values of modulus below 0.9."""
    vals = [[random_mu(rng, 0.9) for _ in range(nx)] for _ in range(ny)]
    return beltrami.DilatationField(x0, x1, y0, y1, vals)


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
        cycles.append((cobordism.free_circle(l),))
    for d in ("in", "out"):
        for l in labels:
            cycles.append((cobordism.BoundaryCycle((cobordism.CycleEntry(d, 0),), (l,)),))
    seen = set()
    for d1, d2 in (("in", "in"), ("out", "out"), ("in", "out")):
        for l1 in labels:
            for l2 in labels:
                entries = (cobordism.CycleEntry(d1, 0), cobordism.CycleEntry(d2, int(d1 == d2)))
                c = cobordism.BoundaryCycle(entries, (l1, l2))
                if c.canonical() not in seen:
                    seen.add(c.canonical())
                    cycles.append((c,))

    out: list[OCType] = []
    for genus, n_cin, n_cout in itertools.product((0, 1), repeat=3):
        for cyc in cycles:
            comp = cobordism.ComponentData(
                genus, frozenset(range(n_cin)), frozenset(range(n_cout)), cyc
            )
            sigs = cobordism.cycle_signatures((comp,), n_cin, n_cout)
            out.append(cobordism.OCType((comp,), *sigs))
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
