"""Combinatorial types of open-closed surfaces and their gluing algebra.

A surface is described component by component: genus, parametrised closed
boundary circles (incoming/outgoing), and boundary circles that carry a
cyclic arrangement of parametrised intervals separated by free arcs.  Free
arcs and fully free circles carry labels.  Composition glues every outgoing
boundary of the first surface to the positionally matching incoming boundary
of the second and recovers genus from the Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from ._input import integer, json_list, json_object, json_str
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

    # Here and in the classes below, a value that already has its field's
    # exact type (tuple, frozenset) is kept: converting it would return it.
    def __post_init__(self):
        if type(self.source_labels) is not tuple:
            object.__setattr__(self, "source_labels", tuple(self.source_labels))
        if type(self.target_labels) is not tuple:
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
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        if type(self.free_arc_labels) is not tuple:
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
    """One connected component of a surface type.  Its boundary circles
    are the ones it is assigned: closed in, closed out and cycles."""

    genus: int
    closed_in: frozenset[int] = frozenset()
    closed_out: frozenset[int] = frozenset()
    cycles: tuple[BoundaryCycle, ...] = ()

    def __post_init__(self):
        if type(self.closed_in) is not frozenset:
            object.__setattr__(self, "closed_in", frozenset(self.closed_in))
        if type(self.closed_out) is not frozenset:
            object.__setattr__(self, "closed_out", frozenset(self.closed_out))
        if type(self.cycles) is not tuple:
            object.__setattr__(self, "cycles", tuple(self.cycles))

    @property
    def n(self) -> int:
        return len(self.closed_in) + len(self.closed_out) + len(self.cycles)

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
        if type(self.components) is not tuple:
            object.__setattr__(self, "components", tuple(self.components))

    def __getstate__(self) -> dict:
        # a pickle or a copy leaves the arc table (``_arcs``) behind
        return {k: v for k, v in vars(self).items() if k != "_arcs"}

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


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _traverse(direction: str, first: Label, second: Label) -> tuple[Label, Label]:
    """The D-brane rule: outgoing intervals are traversed source->target,
    incoming ones target->source (their parametrisation reverses the boundary
    orientation).  The swap is its own inverse, so it takes the arcs before
    and after an entry to the interval's (source, target) labels, and those
    labels back to the arcs the entry wants."""
    return (first, second) if direction == "out" else (second, first)


def cycle_signatures(
    components: Iterable[ComponentData], closed_in: int, closed_out: int
) -> tuple[ObjectSignature, ObjectSignature]:
    """The incoming and outgoing signatures whose interval labels are read
    off the arcs around each cycle entry, with the given closed counts."""
    read: dict[str, dict[int, tuple[Label, Label]]] = {"in": {}, "out": {}}
    for comp in components:
        for cyc in comp.cycles:
            arcs = cyc.free_arc_labels
            for pos, e in enumerate(cyc.entries):
                read[e.direction][e.index] = _traverse(e.direction, arcs[pos - 1], arcs[pos])
    ins, outs = ([ends[i] for i in sorted(ends)] for ends in read.values())
    # zip splits the (source, target) pairs; with no interval it gives no
    # label lists and the signature keeps its empty defaults
    return (
        ObjectSignature(closed_in, len(ins), *zip(*ins)),
        ObjectSignature(closed_out, len(outs), *zip(*outs)),
    )


def _interval_occurrences(t: OCType) -> dict[tuple[str, int], list[tuple[int, int, int]]]:
    """Map (direction, index) -> list of (component, cycle, position)."""
    occ: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for ci, comp in enumerate(t.components):
        for ki, cyc in enumerate(comp.cycles):
            for pi, e in enumerate(cyc.entries):
                occ.setdefault((e.direction, e.index), []).append((ci, ki, pi))
    return occ


_LISTED = 10  # missing identifiers a violation names one by one


def _in_range(ident, count: int) -> bool:
    return isinstance(ident, int) and 0 <= ident < count


def _absent(present: Iterable, count: int) -> tuple[list[int], int]:
    """The first ``_LISTED`` identifiers of 0..count-1 not in ``present``,
    and how many are not; the cost follows ``present``, not ``count``."""
    inside = {i for i in present if _in_range(i, count)}
    n_missing = max(count, 0) - len(inside)
    missing: list[int] = []
    i = 0
    while len(missing) < min(n_missing, _LISTED):
        if i not in inside:
            missing.append(i)
        i += 1
    return missing, n_missing


def validate_type(t: OCType) -> ValidationReport:
    """Check every structural invariant; collect human-readable violations.

    Returns a report rather than raising so that deliberately broken values
    can be inspected.
    """
    v: list[str] = []

    for side, sig in (("in", t.in_signature), ("out", t.out_signature)):
        if sig.closed_count < 0 or sig.open_count < 0:
            v.append(f"{side} signature: negative count")
        if len(sig.source_labels) != sig.open_count or len(sig.target_labels) != sig.open_count:
            v.append(f"{side} signature: label list length != open_count")

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
        missing, n_missing = _absent(seen, count)
        extra = sorted(ident for ident in seen if not _in_range(ident, count))
        if n_missing:
            more = f", {n_missing} in all" if n_missing > len(missing) else ""
            v.append(f"unassigned closed {side} circles: {missing}{more}")
        if extra:
            v.append(f"unknown closed {side} circle identifiers: {extra}")

    # Interval ownership across all cycles.
    occ = _interval_occurrences(t)
    for direction, count in (("in", t.in_signature.open_count), ("out", t.out_signature.open_count)):
        hits = {idx: len(h) for (d, idx), h in occ.items() if d == direction}
        missing, n_missing = _absent(hits, count)
        lines = [(idx, f"open {direction} interval {idx} appears in no cycle") for idx in missing]
        lines += [
            (idx, f"open {direction} interval {idx} appears in {n} cycles")
            for idx, n in hits.items()
            if n > 1 and _in_range(idx, count)
        ]
        v += [line for _, line in sorted(lines)]
        if n_missing > len(missing):
            v.append(
                f"open {direction} intervals in no cycle: {n_missing} in all, "
                f"the first {len(missing)} listed"
            )
        for idx in hits:
            if idx >= count:
                v.append(f"unknown open {direction} interval identifier {idx}")

    for ci, comp in enumerate(t.components):
        try:
            if integer(comp.genus, "genus") < 0:
                v.append(f"component {ci}: negative genus")
        except DomainError as e:
            v.append(f"component {ci}: {e}")
        for ki, cyc in enumerate(comp.cycles):
            m = len(cyc.entries)
            want_arcs = m if m else 1
            if len(cyc.free_arc_labels) != want_arcs:
                v.append(
                    f"component {ci} cycle {ki}: {len(cyc.free_arc_labels)} free arcs "
                    f"for {m} entries"
                )
                continue
            # D-brane compatibility: the free arc before an interval must carry
            # the label of the endpoint where the traversal enters it.
            for pi, e in enumerate(cyc.entries):
                if e.direction not in ("in", "out"):
                    v.append(f"component {ci} cycle {ki} entry {pi}: bad direction {e.direction!r}")
                    continue
                sig = t.out_signature if e.direction == "out" else t.in_signature
                # a short label list is reported with the signature above
                if not 0 <= e.index < min(sig.open_count, len(sig.source_labels), len(sig.target_labels)):
                    if e.index < 0:
                        v.append(f"component {ci} cycle {ki} entry {pi}: negative interval index")
                    continue
                pred, succ = cyc.free_arc_labels[pi - 1], cyc.free_arc_labels[pi]
                want_pred, want_succ = _traverse(
                    e.direction, sig.source_labels[e.index], sig.target_labels[e.index]
                )
                if pred != want_pred or succ != want_succ:
                    v.append(
                        f"component {ci} cycle {ki} entry {pi}: D-brane mismatch "
                        f"(arcs {pred!r}/{succ!r}, interval wants {want_pred!r}/{want_succ!r})"
                    )

    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# composition


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, k: int) -> int:
        parent = self.parent
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class _ArcTable:
    """One type's free arcs, numbered in component, cycle and position order.

    Arc ``a`` is the free arc after one cycle entry: ``label[a]`` is its
    label, ``component[a]`` its component, ``ahead[a]`` the entry that ends
    it and ``succ[a]`` the arc after that entry.  ``cycles`` lists every
    cycle, free circles too, as (component, cycle, its first arc).
    ``ending[d]`` lists the arcs that end at an entry of direction d,
    ``first[d][i]`` is the arc after the first entry of interval i of
    direction d, and ``owner[d][c]`` the component that holds closed circle
    c of direction d (the last, if several do).
    """

    __slots__ = ("cycles", "component", "label", "ahead", "succ", "ending", "first", "owner")

    def __init__(self, t: OCType):
        cycles: list[tuple[int, BoundaryCycle, int]] = []
        component: list[int] = []
        label: list[Label] = []
        ahead: list[CycleEntry] = []
        succ: list[int] = []
        ending: dict[str, list[int]] = {"in": [], "out": []}
        first: dict[str, dict[int, int]] = {"in": {}, "out": {}}
        owner_in: dict[int, int] = {}
        owner_out: dict[int, int] = {}
        for ci, comp in enumerate(t.components):
            for c in comp.closed_in:
                owner_in[c] = ci
            for c in comp.closed_out:
                owner_out[c] = ci
            for ki, cyc in enumerate(comp.cycles):
                lo = len(label)
                cycles.append((ci, cyc, lo))
                entries = cyc.entries
                if not entries:
                    continue
                m = len(entries)
                label += cyc.free_arc_labels[:m]
                if len(label) < lo + m:
                    raise DomainError(
                        f"cannot compose: component {ci} cycle {ki} has "
                        f"{len(cyc.free_arc_labels)} free arcs for {m} entries"
                    )
                ahead += entries[1:]
                ahead.append(entries[0])
                succ += range(lo + 1, lo + m)
                succ.append(lo)
                component += [ci] * m
                before = lo + m - 1  # the arc that ends at each entry
                for a, e in enumerate(entries, lo):
                    d = e.direction
                    if d in first:
                        first[d].setdefault(e.index, a)
                        ending[d].append(before)
                    before = a
        self.cycles, self.component, self.label, self.ahead, self.succ = (
            cycles, component, label, ahead, succ
        )
        self.ending, self.first, self.owner = ending, first, {"in": owner_in, "out": owner_out}


def _arcs(t: OCType) -> _ArcTable:
    """The arc table of t, built on first use and kept on t beside its
    fields, where equality, hashing, ``repr`` and the JSON form never look."""
    table = t.__dict__.get("_arcs")
    if table is None:
        table = t.__dict__["_arcs"] = _ArcTable(t)
    return table


def _splice(walk: list[tuple[Label, Optional[CycleEntry]]]) -> BoundaryCycle:
    """The boundary circle traced by one walk of the glued surface.

    ``walk`` lists (arc label, entry after the arc) steps around the circle,
    with ``None`` for an entry that was glued away.  The run of arcs between
    two surviving entries becomes one free arc and must carry one label; a
    walk with no surviving entry closes up into a free circle.
    """
    for first, (_, e) in enumerate(walk):
        if e is not None:
            break
    else:
        labels = {lab for lab, _ in walk}
        if len(labels) != 1:
            raise InternalInconsistency(f"free circle with mixed labels {sorted(labels)}")
        return free_circle(labels.pop())
    prev = walk[first][1]
    entries: list[CycleEntry] = []
    arcs: list[Label] = []
    run: list[Label] = []
    for lab, e in walk[first + 1 :] + walk[: first + 1]:
        run.append(lab)
        if e is not None:
            if len(run) > 1 and len(set(run)) != 1:
                raise InternalInconsistency(f"spliced arcs carry mixed labels {run}")
            entries.append(prev)
            arcs.append(lab)
            prev, run = e, []
    return BoundaryCycle(tuple(entries), tuple(arcs))


def compose_types(t1: OCType, t2: OCType) -> OCType:
    """Glue t1's outgoing boundary to t2's incoming boundary (positionally).

    Raises SignatureMismatch unless ``t1.out_signature == t2.in_signature``
    and DomainError when a glued circle or interval lies on no component.
    The two arc tables are joined, t2's arcs and components numbered after
    t1's.  Components are merged by union-find across the glued circles,
    then the glued intervals.  Each orbit of free arcs is walked once,
    crossing every glued interval to the arc after its partner, and
    ``_splice`` turns the walk into one boundary circle; a cycle with
    nothing glued on it is its own orbit.  The genus of each new component
    is read off chi = 2 - 2g - n, where chi is the sum over its old
    components less one per glued interval.  Components come out in
    union-find root order.
    """
    if t1.out_signature != t2.in_signature:
        raise SignatureMismatch(
            f"cannot compose: out {t1.out_signature.describe()} != in {t2.in_signature.describe()}"
        )

    tables = (_arcs(t1), _arcs(t2))
    glued = ("out", "in")  # the boundary direction each side gives up

    def locate(w: int, kind: str, i: int) -> int:
        """The component of a glued circle, or the arc after a glued
        interval's first entry, numbered within side w."""
        found = (tables[w].owner if kind == "circle" else tables[w].first)[glued[w]].get(i)
        if found is None:
            raise DomainError(
                f"cannot compose: {glued[w]} {kind} {i} of the "
                f"{('first', 'second')[w]} type lies on no component"
            )
        return found

    comps = t1.components + t2.components
    c1, n1 = len(t1.components), len(tables[0].label)
    uf = _UnionFind(len(comps))
    for c in range(t1.out_signature.closed_count):
        uf.union(locate(0, "circle", c), c1 + locate(1, "circle", c))
    glued_on = []  # t1's component of each glued interval
    for o in range(t1.out_signature.open_count):
        glued_on.append(tables[0].component[locate(0, "interval", o)])
        uf.union(glued_on[-1], c1 + tables[1].component[locate(1, "interval", o)])
    roots = [uf.find(k) for k in range(len(comps))]

    # The joined table.  An arc that ends at a glued entry has no entry ahead
    # and goes on after the partner's first entry.
    label = tables[0].label + tables[1].label
    ahead: list[Optional[CycleEntry]] = tables[0].ahead + tables[1].ahead
    succ = tables[0].succ + [n1 + a for a in tables[1].succ]
    for w, off, other_off in ((0, 0, n1), (1, n1, 0)):
        for a in tables[w].ending[glued[w]]:
            succ[off + a] = other_off + locate(1 - w, "interval", ahead[off + a].index)
            ahead[off + a] = None

    # The cycles each union-find class keeps, walked from each arc in turn.
    seen = bytearray(len(label))
    kept: dict[int, list[BoundaryCycle]] = {r: [] for r in roots}
    for w, off in ((0, 0), (1, n1)):
        for ci, cyc, lo in tables[w].cycles:
            cycles = kept[roots[w * c1 + ci]]
            m = len(cyc.entries)
            if not m:
                cycles.append(cyc)
            elif None not in ahead[off + lo : off + lo + m]:
                # nothing glued on it: its walk would give the cycle back,
                # turned on by one entry
                e, labs = cyc.entries, cyc.free_arc_labels
                cycles.append(
                    cyc if m == len(labs) == 1 else BoundaryCycle(e[1:] + e[:1], labs[1:m] + labs[:1])
                )
                continue
            for arc in range(off + lo, off + lo + m):
                if seen[arc]:
                    continue
                walk: list[tuple[Label, Optional[CycleEntry]]] = []
                while not seen[arc]:
                    seen[arc] = 1
                    walk.append((label[arc], ahead[arc]))
                    arc = succ[arc]
                cycles.append(_splice(walk))

    glued_at = [roots[k] for k in glued_on]
    new_components = []
    for root in sorted(kept):
        # chi and the closed circles of the class; t1 keeps its incoming
        # circles, t2 its outgoing ones
        chi, closed_in, closed_out = -glued_at.count(root), frozenset(), frozenset()
        for k, comp in enumerate(comps):
            if roots[k] == root:
                chi += euler_characteristic(comp)
                if k < c1:
                    closed_in |= comp.closed_in
                else:
                    closed_out |= comp.closed_out
        cycles = kept[root]
        n = len(closed_in) + len(closed_out) + len(cycles)
        num = 2 - chi - n
        if num < 0 or num % 2:
            raise InternalInconsistency(
                f"glued component has chi={chi}, n={n}: no admissible genus"
            )
        new_components.append(ComponentData(num // 2, closed_in, closed_out, tuple(cycles)))

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


def _labels_from_json(v) -> tuple[Label, ...]:
    return tuple(json_str(lab, "label") for lab in json_list(v, "label list"))


def _entry_from_json(e) -> CycleEntry:
    e = json_list(e, "cycle entry")
    return CycleEntry(json_str(e[0], "interval direction"), integer(e[1], "interval index"))


def _sig_from_json(d: dict) -> ObjectSignature:
    d = json_object(d, "boundary signature")
    closed, open_ = (integer(d[k], f"signature count {k}") for k in "CO")
    return ObjectSignature(closed, open_, *(_labels_from_json(d.get(k, [])) for k in "st"))


def octype_to_json(t: OCType) -> dict:
    """Canonical JSON form, read off ``t.canonical()``: components sorted,
    cycles rotated minimally, so equal types give identical documents."""
    comps = []
    for genus, _, closed_in, closed_out, encodings in t.canonical():
        # a free circle encodes as (("free", label),), an entry as a triple
        comps.append(
            {
                "genus": genus,
                "closed_in": list(closed_in),
                "closed_out": list(closed_out),
                "cycles": [
                    {
                        "entries": [[d, i] for d, i, _ in enc],
                        "arcs": [lab for _, _, lab in enc],
                    }
                    for enc in encodings
                    if len(enc[0]) == 3
                ],
                "free_circles": [enc[0][1] for enc in encodings if len(enc[0]) == 2],
            }
        )
    return {
        "schema": OCTYPE_SCHEMA,
        "components": comps,
        "in": _sig_to_json(t.in_signature),
        "out": _sig_to_json(t.out_signature),
    }


def octype_from_json(d: dict) -> OCType:
    d = json_object(d, "surface type")
    if d.get("schema", OCTYPE_SCHEMA) != OCTYPE_SCHEMA:
        raise DomainError(f"unsupported schema {d.get('schema')!r}")
    comps = []
    for cd in json_list(d["components"], "components"):
        cd = json_object(cd, "component")
        cycles = [
            BoundaryCycle(
                tuple(_entry_from_json(e) for e in json_list(cyc["entries"], "entries")),
                _labels_from_json(cyc["arcs"]),
            )
            for cyc in json_list(cd.get("cycles", []), "cycles")
        ]
        cycles += [free_circle(lab) for lab in _labels_from_json(cd.get("free_circles", []))]
        closed = {k: json_list(cd.get(k, []), k) for k in ("closed_in", "closed_out")}
        comp = ComponentData(
            genus=integer(cd["genus"], "genus"),
            closed_in=frozenset(integer(i, "closed circle") for i in closed["closed_in"]),
            closed_out=frozenset(integer(i, "closed circle") for i in closed["closed_out"]),
            cycles=tuple(cycles),
        )
        # an optional restatement of the count, which must be the assigned one
        n = cd.get("boundary_circles", comp.n)
        if integer(n, "boundary circle count") != comp.n:
            raise DomainError(f"boundary_circles is {n}, but the component assigns {comp.n}")
        comps.append(comp)
    return OCType(tuple(comps), _sig_from_json(d["in"]), _sig_from_json(d["out"]))
