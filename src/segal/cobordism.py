"""Combinatorial types of open-closed surfaces and their gluing algebra.

A surface is described component by component: genus, parametrised closed
boundary circles (incoming/outgoing), and boundary circles that carry a
cyclic arrangement of parametrised intervals separated by free arcs.  Free
arcs and fully free circles carry labels.  Composition glues every outgoing
boundary of the first surface to the positionally matching incoming boundary
of the second and recovers genus from the Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence

from .errors import DomainError, InternalInconsistency, SignatureMismatch

Label = str

DEFAULT_LABEL: Label = "a"


@dataclass(frozen=True)
class ObjectSignature:
    """Boundary signature: closed-circle count plus labelled open intervals.

    ``source_labels[i]`` / ``target_labels[i]`` are the labels at the start
    and end point of the i-th parametrised interval.
    """

    closed_count: int
    open_count: int
    source_labels: tuple[Label, ...] = ()
    target_labels: tuple[Label, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "source_labels", tuple(self.source_labels))
        object.__setattr__(self, "target_labels", tuple(self.target_labels))

    def describe(self) -> str:
        return f"({self.closed_count} closed, {self.open_count} open)"


@dataclass(frozen=True)
class CycleEntry:
    """One parametrised interval as it appears on a boundary circle."""

    direction: Literal["in", "out"]
    index: int


@dataclass(frozen=True)
class BoundaryCycle:
    """Cyclically ordered intervals on one boundary circle.

    ``free_arc_labels[i]`` labels the free arc traversed immediately after
    ``entries[i]``; a cycle with no entries is a fully free circle and keeps
    exactly one label.
    """

    entries: tuple[CycleEntry, ...]
    free_arc_labels: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "free_arc_labels", tuple(self.free_arc_labels))

    @property
    def is_free_circle(self) -> bool:
        return not self.entries

    def encode(self) -> tuple:
        return tuple(
            (e.direction, e.index, lab)
            for e, lab in zip(self.entries, self.free_arc_labels)
        ) or (("free", self.free_arc_labels[0]),)

    def canonical(self) -> tuple:
        """Lexicographically minimal rotation of the encoded cycle."""
        enc = self.encode()
        if len(enc) <= 1:
            return enc
        return min(tuple(enc[i:] + enc[:i]) for i in range(len(enc)))


def free_circle(label: Label = DEFAULT_LABEL) -> BoundaryCycle:
    return BoundaryCycle((), (label,))


@dataclass(frozen=True)
class ComponentData:
    """One connected component of a surface type.

    ``boundary_circles`` may be given explicitly (validation will cross-check
    it) or left as None to be derived from the assigned boundary data.
    """

    genus: int
    closed_in: frozenset[int] = frozenset()
    closed_out: frozenset[int] = frozenset()
    cycles: tuple[BoundaryCycle, ...] = ()
    boundary_circles: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "closed_in", frozenset(self.closed_in))
        object.__setattr__(self, "closed_out", frozenset(self.closed_out))
        object.__setattr__(self, "cycles", tuple(self.cycles))

    @property
    def derived_boundary_count(self) -> int:
        return len(self.closed_in) + len(self.closed_out) + len(self.cycles)

    @property
    def n(self) -> int:
        if self.boundary_circles is not None:
            return self.boundary_circles
        return self.derived_boundary_count

    @property
    def free_circles(self) -> tuple[Label, ...]:
        return tuple(sorted(c.free_arc_labels[0] for c in self.cycles if c.is_free_circle))

    def canonical_key(self) -> tuple:
        return (
            self.genus,
            self.n,
            tuple(sorted(self.closed_in)),
            tuple(sorted(self.closed_out)),
            tuple(sorted(c.canonical() for c in self.cycles)),
        )


def euler_characteristic(component: ComponentData) -> int:
    """chi = 2 - 2g - n for one component."""
    return 2 - 2 * component.genus - component.n


@dataclass(frozen=True)
class OCType:
    """A morphism type: components plus incoming/outgoing signatures.

    Closed circles and open intervals are identified positionally: the k-th
    incoming circle is the integer k, scoped to this type, and likewise for
    outgoing circles and for intervals (via ``CycleEntry``).
    """

    components: tuple[ComponentData, ...]
    in_signature: ObjectSignature
    out_signature: ObjectSignature

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def canonical(self) -> tuple:
        return tuple(sorted(c.canonical_key() for c in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OCType):
            return NotImplemented
        return (
            self.in_signature == other.in_signature
            and self.out_signature == other.out_signature
            and self.canonical() == other.canonical()
        )

    def __hash__(self) -> int:
        return hash((self.in_signature, self.out_signature, self.canonical()))

    def total_euler(self) -> int:
        return sum(euler_characteristic(c) for c in self.components)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _interval_occurrences(t: OCType) -> dict[tuple[str, int], list[tuple[int, int, int]]]:
    """Map (direction, index) -> list of (component, cycle, position)."""
    occ: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for ci, comp in enumerate(t.components):
        for ki, cyc in enumerate(comp.cycles):
            for pi, e in enumerate(cyc.entries):
                occ.setdefault((e.direction, e.index), []).append((ci, ki, pi))
    return occ


def validate_type(t: OCType, label_set: Optional[Iterable[Label]] = None) -> ValidationReport:
    """Check every structural invariant; collect human-readable violations.

    Returns a report rather than raising so that deliberately broken values
    can be inspected.  ``label_set``, when given, restricts admissible labels.
    """
    v: list[str] = []
    labels = set(label_set) if label_set is not None else None

    for side, sig in (("in", t.in_signature), ("out", t.out_signature)):
        if sig.closed_count < 0 or sig.open_count < 0:
            v.append(f"{side} signature: negative count")
        if len(sig.source_labels) != sig.open_count or len(sig.target_labels) != sig.open_count:
            v.append(f"{side} signature: label list length != open_count")
        if labels is not None:
            for lab in (*sig.source_labels, *sig.target_labels):
                if lab not in labels:
                    v.append(f"{side} signature: label {lab!r} outside declared set")

    # Closed circle ownership: each identifier in exactly one component.
    for side, count, getter in (
        ("in", t.in_signature.closed_count, lambda c: c.closed_in),
        ("out", t.out_signature.closed_count, lambda c: c.closed_out),
    ):
        seen: dict[int, int] = {}
        for ci, comp in enumerate(t.components):
            for ident in getter(comp):
                if ident in seen:
                    v.append(f"closed {side} circle {ident} assigned to two components")
                seen[ident] = ci
        expected = set(range(count))
        missing = expected - set(seen)
        extra = set(seen) - expected
        if missing:
            v.append(f"unassigned closed {side} circles: {sorted(missing)}")
        if extra:
            v.append(f"unknown closed {side} circle identifiers: {sorted(extra)}")

    # Interval ownership across all cycles.
    occ = _interval_occurrences(t)
    for direction, count in (("in", t.in_signature.open_count), ("out", t.out_signature.open_count)):
        for idx in range(count):
            hits = occ.get((direction, idx), [])
            if not hits:
                v.append(f"open {direction} interval {idx} appears in no cycle")
            elif len(hits) > 1:
                v.append(f"open {direction} interval {idx} appears in {len(hits)} cycles")
        for (d, idx), hits in occ.items():
            if d == direction and idx >= count:
                v.append(f"unknown open {direction} interval identifier {idx}")

    for ci, comp in enumerate(t.components):
        if comp.genus < 0:
            v.append(f"component {ci}: negative genus")
        derived = comp.derived_boundary_count
        if comp.boundary_circles is not None and comp.boundary_circles != derived:
            v.append(
                f"component {ci}: boundary count mismatch "
                f"(claims n={comp.boundary_circles}, assigned {derived})"
            )
        for ki, cyc in enumerate(comp.cycles):
            m = len(cyc.entries)
            want_arcs = m if m else 1
            if len(cyc.free_arc_labels) != want_arcs:
                v.append(
                    f"component {ci} cycle {ki}: {len(cyc.free_arc_labels)} free arcs "
                    f"for {m} entries"
                )
                continue
            if labels is not None:
                for lab in cyc.free_arc_labels:
                    if lab not in labels:
                        v.append(f"component {ci} cycle {ki}: label {lab!r} outside declared set")
            # D-brane compatibility: the free arc before an interval must carry
            # the label of the endpoint where the traversal enters it.
            for pi, e in enumerate(cyc.entries):
                if e.direction not in ("in", "out"):
                    v.append(f"component {ci} cycle {ki} entry {pi}: bad direction {e.direction!r}")
                    continue
                sig = t.out_signature if e.direction == "out" else t.in_signature
                if not 0 <= e.index < sig.open_count:
                    if e.index < 0:
                        v.append(f"component {ci} cycle {ki} entry {pi}: negative interval index")
                    continue
                pred = cyc.free_arc_labels[(pi - 1) % m]
                succ = cyc.free_arc_labels[pi]
                s_lab = sig.source_labels[e.index]
                t_lab = sig.target_labels[e.index]
                # Outgoing intervals are traversed source->target, incoming
                # ones target->source (their parametrisation reverses the
                # boundary orientation).
                want_pred, want_succ = (s_lab, t_lab) if e.direction == "out" else (t_lab, s_lab)
                if pred != want_pred or succ != want_succ:
                    v.append(
                        f"component {ci} cycle {ki} entry {pi}: D-brane mismatch "
                        f"(arcs {pred!r}/{succ!r}, interval wants {want_pred!r}/{want_succ!r})"
                    )

    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# composition


def _glued_partner(side: str, entry: CycleEntry) -> Optional[CycleEntry]:
    """The entry on the other surface glued to this one, if any."""
    if side == "A" and entry.direction == "out":
        return CycleEntry("in", entry.index)
    if side == "B" and entry.direction == "in":
        return CycleEntry("out", entry.index)
    return None


class _UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def compose_types(t1: OCType, t2: OCType) -> OCType:
    """Glue t1's outgoing boundary to t2's incoming boundary (positionally).

    Raises SignatureMismatch unless ``t1.out_signature == t2.in_signature``.
    Component structure is recomputed by union-find, open boundary cycles are
    spliced across the glued intervals, and the genus of each new component
    is recovered from chi = 2 - 2g - n.
    """
    if t1.out_signature != t2.in_signature:
        raise SignatureMismatch(
            f"cannot compose: out {t1.out_signature.describe()} != in {t2.in_signature.describe()}"
        )

    sides = {"A": t1, "B": t2}
    uf = _UnionFind([(w, ci) for w, t in sides.items() for ci in range(len(t.components))])

    # Ownership maps.
    circle_owner: dict[tuple[str, str, int], int] = {}
    for w, t in sides.items():
        for ci, comp in enumerate(t.components):
            for ident in comp.closed_in:
                circle_owner[(w, "in", ident)] = ci
            for ident in comp.closed_out:
                circle_owner[(w, "out", ident)] = ci
    entry_pos: dict[tuple[str, str, int], tuple[int, int, int]] = {}
    for w, t in sides.items():
        for key, hits in _interval_occurrences(t).items():
            entry_pos[(w, *key)] = hits[0]

    # Merge components across glued circles and intervals.
    glued_interval_count: dict[tuple[str, int], int] = {}
    for c in range(t1.out_signature.closed_count):
        uf.union(("A", circle_owner[("A", "out", c)]), ("B", circle_owner[("B", "in", c)]))
    pairs = []
    for o in range(t1.out_signature.open_count):
        ca = entry_pos[("A", "out", o)][0]
        cb = entry_pos[("B", "in", o)][0]
        uf.union(("A", ca), ("B", cb))
        pairs.append((ca, cb))

    # Splice cycles.  Arc slots are (side, comp, cycle, position); traversal
    # crossing a glued interval jumps to the arc after its partner.
    def cycle_at(w: str, ci: int, ki: int) -> BoundaryCycle:
        return sides[w].components[ci].cycles[ki]

    all_arcs = [
        (w, ci, ki, pi)
        for w, t in sides.items()
        for ci, comp in enumerate(t.components)
        for ki, cyc in enumerate(comp.cycles)
        for pi in range(len(cyc.free_arc_labels))
    ]

    def step(arc):
        w, ci, ki, pi = arc
        cyc = cycle_at(w, ci, ki)
        m = len(cyc.entries)
        nxt = cyc.entries[(pi + 1) % m]
        partner = _glued_partner(w, nxt)
        if partner is None:
            return nxt, (w, ci, ki, (pi + 1) % m)
        w2 = "B" if w == "A" else "A"
        ci2, ki2, pi2 = entry_pos[(w2, partner.direction, partner.index)]
        return None, (w2, ci2, ki2, pi2)

    visited: set[tuple] = set()
    new_cycles_per_class: dict[tuple, list[BoundaryCycle]] = {}
    for start in all_arcs:
        if start in visited:
            continue
        w0, ci0, ki0, _ = start
        cls = uf.find((w0, ci0))
        cyc0 = cycle_at(w0, ci0, ki0)
        if not cyc0.entries:
            # Fully free circle: no splicing can touch it.
            visited.add(start)
            new_cycles_per_class.setdefault(cls, []).append(cyc0)
            continue
        # Walk the orbit, recording (entry-or-None, arc) steps.
        seq: list[tuple[Optional[CycleEntry], tuple]] = []
        arc = start
        while True:
            visited.add(arc)
            entry, nxt = step(arc)
            seq.append((entry, arc))
            arc = nxt
            if arc == start:
                break
        entries_found = [i for i, (e, _) in enumerate(seq) if e is not None]
        arc_label = lambda a: cycle_at(a[0], a[1], a[2]).free_arc_labels[a[3]]
        if not entries_found:
            labs = {arc_label(a) for _, a in seq}
            if len(labs) != 1:
                raise InternalInconsistency(f"free circle with mixed labels {sorted(labs)}")
            new_cycles_per_class.setdefault(cls, []).append(free_circle(labs.pop()))
            continue
        # seq[i] = (entry emitted after arc_i, arc_i); a surviving entry's new
        # free arc is the run of old arcs from position i+1 through the arc
        # preceding the next surviving entry, and must be uniformly labelled.
        new_entries: list[CycleEntry] = []
        new_arcs: list[Label] = []
        k = len(seq)
        for j, i in enumerate(entries_found):
            stop = entries_found[(j + 1) % len(entries_found)]
            run = []
            p = (i + 1) % k
            while True:
                run.append(arc_label(seq[p][1]))
                if p == stop:
                    break
                p = (p + 1) % k
            if len(set(run)) != 1:
                raise InternalInconsistency(f"spliced arcs carry mixed labels {run}")
            new_entries.append(seq[i][0])
            new_arcs.append(run[0])
        new_cycles_per_class.setdefault(cls, []).append(
            BoundaryCycle(tuple(new_entries), tuple(new_arcs))
        )

    glued_per_class: dict[tuple, int] = {}
    for ca, cb in pairs:
        cls = uf.find(("A", ca))
        glued_per_class[cls] = glued_per_class.get(cls, 0) + 1

    members: dict[tuple, list[tuple[str, int]]] = {}
    for w, t in sides.items():
        for ci in range(len(t.components)):
            members.setdefault(uf.find((w, ci)), []).append((w, ci))

    new_components = []
    for cls, mem in sorted(members.items()):
        chi = sum(euler_characteristic(sides[w].components[ci]) for w, ci in mem)
        chi -= glued_per_class.get(cls, 0)
        closed_in = frozenset().union(
            *[sides[w].components[ci].closed_in for w, ci in mem if w == "A"], frozenset()
        )
        closed_out = frozenset().union(
            *[sides[w].components[ci].closed_out for w, ci in mem if w == "B"], frozenset()
        )
        cycles = tuple(new_cycles_per_class.get(cls, []))
        n = len(closed_in) + len(closed_out) + len(cycles)
        num = 2 - chi - n
        if num < 0 or num % 2:
            raise InternalInconsistency(
                f"glued component has chi={chi}, n={n}: no admissible genus"
            )
        new_components.append(
            ComponentData(genus=num // 2, closed_in=closed_in, closed_out=closed_out, cycles=cycles)
        )

    return OCType(tuple(new_components), t1.in_signature, t2.out_signature)


def disjoint_union(t1: OCType, t2: OCType) -> OCType:
    """Place t1 and t2 side by side, re-indexing t2's boundary identifiers."""

    def shift_sig(s1: ObjectSignature, s2: ObjectSignature) -> ObjectSignature:
        return ObjectSignature(
            s1.closed_count + s2.closed_count,
            s1.open_count + s2.open_count,
            s1.source_labels + s2.source_labels,
            s1.target_labels + s2.target_labels,
        )

    dc_in = t1.in_signature.closed_count
    dc_out = t1.out_signature.closed_count
    do_in = t1.in_signature.open_count
    do_out = t1.out_signature.open_count

    def shift_component(c: ComponentData) -> ComponentData:
        def shift_entry(e: CycleEntry) -> CycleEntry:
            off = do_out if e.direction == "out" else do_in
            return CycleEntry(e.direction, e.index + off)

        return ComponentData(
            genus=c.genus,
            closed_in=frozenset(i + dc_in for i in c.closed_in),
            closed_out=frozenset(i + dc_out for i in c.closed_out),
            cycles=tuple(
                BoundaryCycle(tuple(shift_entry(e) for e in cyc.entries), cyc.free_arc_labels)
                for cyc in c.cycles
            ),
            boundary_circles=c.boundary_circles,
        )

    return OCType(
        t1.components + tuple(shift_component(c) for c in t2.components),
        shift_sig(t1.in_signature, t2.in_signature),
        shift_sig(t1.out_signature, t2.out_signature),
    )


# ---------------------------------------------------------------------------
# stability


@dataclass(frozen=True)
class StabilityReport:
    """Per-component stability flags, in component order.

    ``unstable``: no incoming closed boundary and no free boundary at all, so
    no section-space basepoint survives the constructions downstream.
    ``special``: genus-0 disc or annulus whose boundary is entirely free.
    """

    statuses: tuple[str, ...]

    @property
    def all_stable(self) -> bool:
        return all(s == "stable" for s in self.statuses)

    @property
    def unstable_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.statuses) if s == "unstable")

    @property
    def special_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.statuses) if s == "special")


def is_stable(t: OCType) -> StabilityReport:
    statuses = []
    for comp in t.components:
        if not comp.closed_in and not comp.cycles:
            statuses.append("unstable")
        elif (
            comp.genus == 0
            and not comp.closed_in
            and not comp.closed_out
            and comp.cycles
            and all(c.is_free_circle for c in comp.cycles)
            and comp.n in (1, 2)
        ):
            statuses.append("special")
        else:
            statuses.append("stable")
    return StabilityReport(tuple(statuses))


# ---------------------------------------------------------------------------
# JSON codec (schema segal.octype/1)

OCTYPE_SCHEMA = "segal.octype/1"


def _sig_to_json(s: ObjectSignature) -> dict:
    return {
        "C": s.closed_count,
        "O": s.open_count,
        "s": list(s.source_labels),
        "t": list(s.target_labels),
    }


def _json_object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise DomainError(f"{what} must be a JSON object, not {type(v).__name__}")
    return v


def _sig_from_json(d: dict) -> ObjectSignature:
    d = _json_object(d, "boundary signature")
    return ObjectSignature(d["C"], d["O"], tuple(d.get("s", [])), tuple(d.get("t", [])))


def octype_to_json(t: OCType) -> dict:
    """Canonical JSON form: components sorted, cycles rotated minimally."""
    comps = []
    for comp in sorted(t.components, key=ComponentData.canonical_key):
        cycles = []
        frees = []
        for cyc in sorted(comp.cycles, key=BoundaryCycle.canonical):
            if cyc.is_free_circle:
                frees.append(cyc.free_arc_labels[0])
            else:
                enc = cyc.canonical()
                cycles.append(
                    {
                        "entries": [[d, i] for d, i, _ in enc],
                        "arcs": [lab for _, _, lab in enc],
                    }
                )
        comps.append(
            {
                "genus": comp.genus,
                "closed_in": sorted(comp.closed_in),
                "closed_out": sorted(comp.closed_out),
                "cycles": cycles,
                "free_circles": sorted(frees),
            }
        )
    return {
        "schema": OCTYPE_SCHEMA,
        "components": comps,
        "in": _sig_to_json(t.in_signature),
        "out": _sig_to_json(t.out_signature),
    }


def octype_from_json(d: dict) -> OCType:
    d = _json_object(d, "surface type")
    if d.get("schema", OCTYPE_SCHEMA) != OCTYPE_SCHEMA:
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    comps = []
    for cd in d["components"]:
        cd = _json_object(cd, "component")
        cycles = [
            BoundaryCycle(
                tuple(CycleEntry(e[0], int(e[1])) for e in cyc["entries"]),
                tuple(cyc["arcs"]),
            )
            for cyc in cd.get("cycles", [])
        ]
        cycles += [free_circle(lab) for lab in cd.get("free_circles", [])]
        comps.append(
            ComponentData(
                genus=int(cd["genus"]),
                closed_in=frozenset(cd.get("closed_in", [])),
                closed_out=frozenset(cd.get("closed_out", [])),
                cycles=tuple(cycles),
                boundary_circles=cd.get("boundary_circles"),
            )
        )
    return OCType(tuple(comps), _sig_from_json(d["in"]), _sig_from_json(d["out"]))
