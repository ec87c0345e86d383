"""Independent cross-checks for the main algorithms.

Everything here recomputes a result along a second route: surface gluing via
an explicit polygonal cell complex, conformal modules via arithmetic-geometric
means, derivatives via finite differences.  Nothing in this module is imported
by the implementation paths it checks; it exists for the test-suite and for
the acceptance runner, which replays every check at run time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .cobordism import OCType

# ---------------------------------------------------------------------------
# cell-complex route for surface gluing
#
# Each component becomes one oriented polygon.  The boundary word is the
# usual genus block a b a^-1 b^-1 ... followed, for every boundary circle,
# by slit . content . slit^-1 with a fresh slit edge.  Content is a loop
# edge for a parametrised circle, an alternating interval/arc sequence for
# a mixed boundary circle, and a single arc edge for a free circle.  Gluing
# two surfaces makes each matched interval and circle one edge, used twice
# with opposite traversal signs; Euler characteristic, connectivity and
# boundary structure then come from plain counting on the complex.
#
# The complex is integer-coded.  Edge e indexes one descriptor list (None
# for genus, slit and sphere edges, else ("circ", direction, ident),
# ("iv", direction, index) or ("arc", label)); its tail is vertex 2e and its
# head vertex 2e+1.  A word lists occurrence codes: 2e runs along e, 2e+1
# against it, so occurrence o runs from vertex o to vertex o ^ 1.


def _polygon_words(
    t: OCType, side: str, glued: str | None, descs: list, shared: dict
) -> list[list[int]]:
    """One word per component of t, appending each new edge to ``descs``.

    ``glued`` is the interval and circle direction this side gives up.  A
    glued circle or interval is keyed in ``shared`` without side and
    direction, so it meets its partner on the other surface; every other one
    is keyed by side and direction, so a repeat on the same side reuses it.
    """

    def fresh(desc=None) -> int:
        descs.append(desc)
        return 2 * len(descs) - 2

    def edge(kind: str, direction: str, ident) -> int:
        key = (kind, ident) if direction == glued else (side, kind, direction, ident)
        e = shared.get(key)
        if e is None:
            e = shared[key] = len(descs)
            descs.append((kind, direction, ident))
        return 2 * e + (direction != "out")

    words: list[list[int]] = []
    for comp in t.components:
        word: list[int] = []
        for _ in range(comp.genus):
            a, b = fresh(), fresh()
            word += (a, b, a + 1, b + 1)
        for direction, idents in (("in", comp.closed_in), ("out", comp.closed_out)):
            for ident in sorted(idents):
                s = fresh()
                word += (s, edge("circ", direction, ident), s + 1)
        for cyc in comp.cycles:
            s = fresh()
            word.append(s)
            arcs = cyc.free_arc_labels
            if cyc.is_free_circle:
                word.append(fresh(("arc", arcs[0])))
            for pi, e in enumerate(cyc.entries):
                word += (edge("iv", e.direction, e.index), fresh(("arc", arcs[pi])))
            word.append(s + 1)
        if not word:
            # Closed genus-0 component: the sphere word a a^-1.
            a = fresh()
            word = [a, a + 1]
        words.append(word)
    return words


def _find(parent: list[int], k: int) -> int:
    while parent[k] != k:
        parent[k] = k = parent[parent[k]]
    return k


def _min_rotation(seq: tuple) -> tuple:
    if len(seq) <= 1:
        return seq
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def complex_summary(words: list[list[int]], descs: list) -> tuple:
    """Canonical per-component summary of a glued polygon complex.

    ``words`` holds one list of occurrence codes per face, ``descs`` one
    descriptor per edge.  Returns a sorted tuple of
    (genus, closed-in idents, closed-out idents, open boundary encodings)
    where open encodings match ``BoundaryCycle.canonical``.
    """
    n_edges = len(descs)
    uses = [0] * n_edges
    first = [0] * n_edges  # each edge's first occurrence code
    face = [0] * n_edges  # and its face
    repeats: list[tuple[int, int]] = []  # (code, face) of every later one
    vpar = list(range(2 * n_edges))
    for f, w in enumerate(words):
        end = w[-1] ^ 1
        for o in w:
            # the corner where the previous occurrence ends and o starts
            a, b = _find(vpar, end), _find(vpar, o)
            if a != b:
                vpar[a] = b
            end = o ^ 1
            e = o >> 1
            if uses[e]:
                repeats.append((o, f))
            else:
                first[e], face[e] = o, f
            uses[e] += 1
    bad = [o >> 1 for o, _ in repeats if uses[o >> 1] > 2 or first[o >> 1] == o]
    if bad:
        e = min(bad)  # the first edge of the words to go wrong
        if uses[e] > 2:
            raise ValueError(f"edge {descs[e]} has {uses[e]} occurrences")
        raise ValueError(f"edge {descs[e]} glued without reversing orientation")
    fpar = list(range(len(words)))
    for o, f in repeats:
        a, b = _find(fpar, face[o >> 1]), _find(fpar, f)
        if a != b:
            fpar[a] = b
    comp = [_find(fpar, f) for f in range(len(words))]

    # chi = V - E + F per component, in one pass over the edges: each edge
    # counts -1, and +1 for each of its two ends that is its vertex's root.
    chi = dict.fromkeys(comp, 0)
    for r in comp:
        chi[r] += 1
    for e in range(n_edges):
        chi[comp[face[e]]] += (vpar[2 * e] == 2 * e) + (vpar[2 * e + 1] == 2 * e + 1) - 1

    # Boundary = edges with a single occurrence, traced as directed cycles.
    boundary = [e for e in range(n_edges) if uses[e] == 1]
    start_of: dict[int, int] = {}
    end_of: dict[int, int] = {}
    for e in boundary:
        sv = _find(vpar, first[e])
        if sv in start_of:
            raise ValueError("boundary is not a directed 1-manifold")
        start_of[sv] = e
        end_of[e] = _find(vpar, first[e] ^ 1)

    data = {r: (set(), set(), []) for r in chi}
    for e0 in boundary:
        if e0 not in end_of:  # already traced: popping marks an edge done
            continue
        cyc = []
        e = e0
        while True:
            cyc.append(descs[e])
            nxt = start_of[end_of.pop(e)]
            if nxt == e0:
                break
            e = nxt
        cin, cout, opens = data[comp[face[e0]]]
        kinds = {d[0] for d in cyc}
        if kinds == {"circ"}:
            if len(cyc) != 1:
                raise ValueError("parametrised circle traced with extra edges")
            _, direction, ident = cyc[0]
            (cin if direction == "in" else cout).add(ident)
        elif kinds == {"arc"}:
            labels = {d[1] for d in cyc}
            if len(labels) != 1:
                raise ValueError(f"free circle with mixed labels {sorted(labels)}")
            opens.append((("free", labels.pop()),))
        else:
            iv_at = [i for i, d in enumerate(cyc) if d[0] == "iv"]
            enc = []
            k = len(cyc)
            for j, i in enumerate(iv_at):
                stop = iv_at[(j + 1) % len(iv_at)]
                labels = set()
                p = (i + 1) % k
                while p != stop:
                    labels.add(cyc[p][1])
                    p = (p + 1) % k
                if len(labels) != 1:
                    raise ValueError(f"arc run with mixed labels {sorted(labels)}")
                enc.append((cyc[i][1], cyc[i][2], labels.pop()))
            opens.append(_min_rotation(tuple(enc)))

    summary = []
    for r, (cin, cout, opens) in data.items():
        n = len(cin) + len(cout) + len(opens)
        num = 2 - chi[r] - n
        if num < 0 or num % 2:
            raise ValueError(f"component with chi={chi[r]}, n={n} admits no genus")
        summary.append((num // 2, tuple(sorted(cin)), tuple(sorted(cout)), tuple(sorted(opens))))
    return tuple(sorted(summary))


def glued_summary(t1: OCType, t2: OCType) -> tuple:
    """Summary of t1 glued to t2, computed on the cell complex."""
    descs: list = []
    shared: dict = {}
    words = _polygon_words(t1, "A", "out", descs, shared)
    words += _polygon_words(t2, "B", "in", descs, shared)
    return complex_summary(words, descs)


def single_summary(t: OCType) -> tuple:
    """Summary of one surface type on its own complex (nothing glued)."""
    descs: list = []
    return complex_summary(_polygon_words(t, "A", None, descs, {}), descs)


def octype_summary(t: OCType) -> tuple:
    """The same summary shape read straight off an OCType value."""
    out = []
    for comp in t.components:
        out.append(
            (
                comp.genus,
                tuple(sorted(comp.closed_in)),
                tuple(sorted(comp.closed_out)),
                tuple(sorted(c.canonical() for c in comp.cycles)),
            )
        )
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# conformal modules via arithmetic-geometric means


def agm(a: float, b: float) -> float:
    for _ in range(80):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) <= 1e-17 * a:
            break
    return 0.5 * (a + b)


def module_agm(u: float) -> float:
    """Module of the normalized quad at position u, |u| > 1 or u infinite.

    The period-ratio form K(k')/K(k) with k^2 = (u+1)/(2u) covers both the
    plain branch u > 1 and the wrapped branch u < -1 in one formula.  As
    K(k) = pi / (2 AGM(1, k')), the ratio is AGM(1, k') / AGM(1, k); both
    moduli come straight from u, since k' from sqrt(1 - k^2) cancels as
    |u| -> 1.
    """
    if math.isinf(u):
        return 1.0
    if abs(u) <= 1.0:
        raise ValueError(f"normalized position {u} inside [-1, 1]")
    k = math.sqrt((u + 1.0) / (2.0 * u))
    kp = math.sqrt((u - 1.0) / (2.0 * u))
    return agm(1.0, kp) / agm(1.0, k)


# ---------------------------------------------------------------------------
# finite-difference derivatives


def wirtinger_fd(f: Callable[[complex], complex], z: complex, h: float = 1e-6) -> tuple[complex, complex]:
    """Centered-difference (d/dz, d/dzbar) of a plane map at z."""
    fx = (f(z + h) - f(z - h)) / (2.0 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def dilatation_fd(f: Callable[[complex], complex], z: complex, h: float = 1e-6) -> float:
    """Pointwise stretch ratio (|f_z|+|f_zbar|) / (|f_z|-|f_zbar|)."""
    fz, fzb = wirtinger_fd(f, z, h)
    num = abs(fz) + abs(fzb)
    den = abs(fz) - abs(fzb)
    if den <= 0:
        raise ValueError("map is not orientation-preserving at sample point")
    return num / den

