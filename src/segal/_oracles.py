"""Independent cross-checks for the main algorithms.

Everything here recomputes a result along a second route: surface gluing via
an explicit polygonal cell complex, conformal modules via arithmetic-geometric
means, derivatives via finite differences.  Nothing in this module is imported
by the implementation paths it checks; it exists for the test-suite and for
the acceptance runner, which replays every check at run time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Iterable

from .cobordism import OCType

# ---------------------------------------------------------------------------
# cell-complex route for surface gluing
#
# Each component becomes one oriented polygon.  The boundary word is the
# usual genus block a b a^-1 b^-1 ... followed, for every boundary circle,
# by slit . content . slit^-1 with a fresh slit edge.  Content is a loop
# edge for a parametrised circle, an alternating interval/arc sequence for
# a mixed boundary circle, and a single arc edge for a free circle.  Gluing
# two surfaces makes the matched interval and circle edges shared names with
# opposite traversal signs; Euler characteristic, connectivity and boundary
# structure then come from plain counting on the complex.

_Word = list[tuple[tuple, int, tuple | None]]


def _slit_block(side, ci: int, bi: int, content: _Word) -> _Word:
    s = ("slit", side, ci, bi)
    return [(s, 1, None)] + content + [(s, -1, None)]


def _polygon_words(t: OCType, side, glue_out: bool, glue_in: bool) -> list[_Word]:
    words: list[_Word] = []
    for ci, comp in enumerate(t.components):
        word: _Word = []
        for i in range(comp.genus):
            a = ("h", side, ci, i, "a")
            b = ("h", side, ci, i, "b")
            word += [(a, 1, None), (b, 1, None), (a, -1, None), (b, -1, None)]
        bi = 0
        for ident in sorted(comp.closed_in):
            name = ("gc", ident) if glue_in else ("cin", side, ident)
            word += _slit_block(side, ci, bi, [(name, -1, ("circ", "in", ident))])
            bi += 1
        for ident in sorted(comp.closed_out):
            name = ("gc", ident) if glue_out else ("cout", side, ident)
            word += _slit_block(side, ci, bi, [(name, 1, ("circ", "out", ident))])
            bi += 1
        for ki, cyc in enumerate(comp.cycles):
            content: _Word = []
            if cyc.is_free_circle:
                content.append((("arc", side, ci, ki, 0), 1, ("arc", cyc.free_arc_labels[0])))
            else:
                for pi, e in enumerate(cyc.entries):
                    glued = (e.direction == "out" and glue_out) or (
                        e.direction == "in" and glue_in
                    )
                    name = ("gi", e.index) if glued else ("iv", side, e.direction, e.index)
                    sign = 1 if e.direction == "out" else -1
                    content.append((name, sign, ("iv", e.direction, e.index)))
                    content.append(
                        (("arc", side, ci, ki, pi), 1, ("arc", cyc.free_arc_labels[pi]))
                    )
            word += _slit_block(side, ci, bi, content)
            bi += 1
        if not word:
            # Closed genus-0 component: the sphere word a a^-1.
            e = ("sphere", side, ci)
            word = [(e, 1, None), (e, -1, None)]
        words.append(word)
    return words


class _UF:
    def __init__(self):
        self.p: dict = {}

    def add(self, k):
        self.p.setdefault(k, k)

    def find(self, k):
        while self.p[k] != k:
            self.p[k] = self.p[self.p[k]]
            k = self.p[k]
        return k

    def union(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def _min_rotation(seq: tuple) -> tuple:
    if len(seq) <= 1:
        return seq
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def complex_summary(words: list[_Word]) -> tuple:
    """Canonical per-component summary of a glued polygon complex.

    Returns a sorted tuple of
    (genus, closed-in idents, closed-out idents, open boundary encodings)
    where open encodings match ``BoundaryCycle.canonical``.
    """
    occ: dict[tuple, list[tuple[int, int, int]]] = defaultdict(list)
    for f, w in enumerate(words):
        for p, (name, sign, _) in enumerate(w):
            occ[name].append((f, p, sign))
    for name, os in occ.items():
        if len(os) > 2:
            raise ValueError(f"edge {name} has {len(os)} occurrences")
        if len(os) == 2 and os[0][2] == os[1][2]:
            raise ValueError(f"edge {name} glued without reversing orientation")

    vuf = _UF()
    for name in occ:
        vuf.add((name, "t"))
        vuf.add((name, "h"))
    for w in words:
        L = len(w)
        for p in range(L):
            n1, s1, _ = w[p]
            n2, s2, _ = w[(p + 1) % L]
            vuf.union((n1, "h" if s1 > 0 else "t"), (n2, "t" if s2 > 0 else "h"))

    fuf = _UF()
    for f in range(len(words)):
        fuf.add(f)
    for name, os in occ.items():
        if len(os) == 2:
            fuf.union(os[0][0], os[1][0])

    # Boundary = edges with a single occurrence, traced as directed cycles.
    bocc = {name: os[0] for name, os in occ.items() if len(os) == 1}
    start_of: dict = {}
    end_of: dict = {}
    for name, (f, p, s) in bocc.items():
        sv = vuf.find((name, "t" if s > 0 else "h"))
        ev = vuf.find((name, "h" if s > 0 else "t"))
        if sv in start_of:
            raise ValueError("boundary is not a directed 1-manifold")
        start_of[sv] = name
        end_of[name] = ev

    cycles: list[list[tuple]] = []
    seen: set = set()
    for name0 in sorted(bocc):
        if name0 in seen:
            continue
        cyc = []
        name = name0
        while True:
            seen.add(name)
            f, p, _ = bocc[name]
            cyc.append((name, words[f][p][2], f))
            name = start_of[end_of[name]]
            if name == name0:
                break
        cycles.append(cyc)

    comp_data: dict = defaultdict(lambda: {"faces": set(), "cin": set(), "cout": set(), "open": []})
    for f in range(len(words)):
        comp_data[fuf.find(f)]["faces"].add(f)

    for cyc in cycles:
        cls = fuf.find(cyc[0][2])
        descs = [d for _, d, _ in cyc]
        kinds = {d[0] for d in descs}
        if kinds == {"circ"}:
            if len(descs) != 1:
                raise ValueError("parametrised circle traced with extra edges")
            _, direction, ident = descs[0]
            comp_data[cls]["cin" if direction == "in" else "cout"].add(ident)
        elif kinds == {"arc"}:
            labels = {d[1] for d in descs}
            if len(labels) != 1:
                raise ValueError(f"free circle with mixed labels {sorted(labels)}")
            comp_data[cls]["open"].append((("free", labels.pop()),))
        else:
            iv_at = [i for i, d in enumerate(descs) if d[0] == "iv"]
            enc = []
            k = len(descs)
            for j, i in enumerate(iv_at):
                stop = iv_at[(j + 1) % len(iv_at)]
                labels = set()
                p = (i + 1) % k
                while p != stop:
                    labels.add(descs[p][1])
                    p = (p + 1) % k
                if len(labels) != 1:
                    raise ValueError(f"arc run with mixed labels {sorted(labels)}")
                enc.append((descs[i][1], descs[i][2], labels.pop()))
            comp_data[cls]["open"].append(_min_rotation(tuple(enc)))

    summary = []
    for cls, data in comp_data.items():
        faces = data["faces"]
        names = {name for name, os in occ.items() if os[0][0] in faces}
        verts = {vuf.find((n, e)) for n in names for e in ("t", "h")}
        chi = len(verts) - len(names) + len(faces)
        n = len(data["cin"]) + len(data["cout"]) + len(data["open"])
        num = 2 - chi - n
        if num < 0 or num % 2:
            raise ValueError(f"component with chi={chi}, n={n} admits no genus")
        summary.append(
            (
                num // 2,
                tuple(sorted(data["cin"])),
                tuple(sorted(data["cout"])),
                tuple(sorted(data["open"])),
            )
        )
    return tuple(sorted(summary))


def glued_summary(t1: OCType, t2: OCType) -> tuple:
    """Summary of t1 glued to t2, computed on the cell complex."""
    words = _polygon_words(t1, "A", glue_out=True, glue_in=False)
    words += _polygon_words(t2, "B", glue_out=False, glue_in=True)
    return complex_summary(words)


def single_summary(t: OCType) -> tuple:
    """Summary of one surface type on its own complex (nothing glued)."""
    return complex_summary(_polygon_words(t, "A", glue_out=False, glue_in=False))


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


def complete_elliptic_K(k: float) -> float:
    """K(k) with modulus k in [0, 1)."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus {k} outside [0, 1)")
    return math.pi / (2.0 * agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))))


def module_agm(u: float) -> float:
    """Module of the normalized quad at position u, |u| > 1 or u infinite.

    The period-ratio form K(k')/K(k) with k^2 = (u+1)/(2u) covers both the
    plain branch u > 1 and the wrapped branch u < -1 in one formula.
    """
    if math.isinf(u):
        return 1.0
    if abs(u) <= 1.0:
        raise ValueError(f"normalized position {u} inside [-1, 1]")
    k2 = (u + 1.0) / (2.0 * u)
    k = math.sqrt(k2)
    kp = math.sqrt(1.0 - k2)
    return complete_elliptic_K(kp) / complete_elliptic_K(k)


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

