"""Shuffle cross product on normalized chains, with exact arithmetic.

Spaces are formal: a generator stands for a map of a standard simplex into
some space, and products are formal pairs.  What is verified is the
simplicial combinatorics: face bookkeeping, signs, the chain-map identity
and associativity.  Coefficients are integers, as for chains over Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

from ._input import integer
from .errors import InternalInconsistency

# ---------------------------------------------------------------------------
# simplices


@dataclass(frozen=True)
class FormalSimplex:
    """Iterated face of a formal generator.

    ``dimension`` is the generator's dimension; ``omitted`` lists the
    generator vertices removed by face maps.  Keying faces by the omitted
    set makes the simplicial identity d_i d_j = d_{j-1} d_i (i < j) hold on
    the nose, so d.d = 0 cancels term by term.  The hash is computed once
    and cached.
    """

    dimension: int
    label: str
    omitted: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.__dict__["dimension"] = integer(self.dimension, "simplex dimension", 0)
        if any(not 0 <= v <= self.dimension for v in self.omitted):
            raise InternalInconsistency("omitted vertex out of range")
        if len(self.omitted) > self.dimension:
            raise InternalInconsistency("too many omitted vertices")
        self.__dict__["_hash"] = hash((self.dimension, self.label, self.omitted))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.dimension - len(self.omitted)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.dimension + 1) if v not in self.omitted)

    def face(self, i: int) -> "FormalSimplex":
        """Omit the i-th remaining vertex."""
        i = integer(i, "face index")
        if not 0 <= i <= self.degree:
            raise InternalInconsistency(f"no face {i} of a degree-{self.degree} simplex")
        v = self.vertices[i]
        return FormalSimplex(self.dimension, self.label, self.omitted | {v})

    def key(self):
        return ("f", self.label, self.dimension, tuple(sorted(self.omitted)))


Simplex = Union[FormalSimplex, "ProductSimplex"]


@dataclass(frozen=True)
class ProductSimplex:
    """Pair of factors traversed along a monotone vertex path.

    ``pairs[k]`` is the k-th vertex: a (left vertex, right vertex) pair.
    Both coordinate sequences are non-decreasing, every step advances at
    least one coordinate, and each factor's full vertex list occurs (faces
    renormalize the factors, so representations stay canonical).  Shuffle
    products emit unit-step paths; faces may introduce diagonal steps.
    The hash is computed once and cached.
    """

    left: Simplex
    right: Simplex
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lv, rv = self.left.vertices, self.right.vertices
        if not self.pairs:
            raise InternalInconsistency("empty vertex path")
        for (a0, b0), (a1, b1) in zip(self.pairs, self.pairs[1:]):
            if a1 < a0 or b1 < b0:
                raise InternalInconsistency("path coordinates must not decrease")
            if (a0, b0) == (a1, b1):
                raise InternalInconsistency("repeated path vertex")
        if tuple(sorted({a for a, _ in self.pairs})) != lv:
            raise InternalInconsistency("path does not cover left factor vertices")
        if tuple(sorted({b for _, b in self.pairs})) != rv:
            raise InternalInconsistency("path does not cover right factor vertices")
        self.__dict__["_hash"] = hash((self.left, self.right, self.pairs))

    @classmethod
    def _trusted(cls, left: Simplex, right: Simplex, pairs: tuple) -> "ProductSimplex":
        """A simplex whose path is valid by construction, built unchecked."""
        s = object.__new__(cls)
        s.__dict__.update(left=left, right=right, pairs=pairs, _hash=hash((left, right, pairs)))
        return s

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.pairs) - 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(len(self.pairs)))

    def face(self, m: int) -> "ProductSimplex":
        """Omit the m-th path vertex.

        Path coordinates never decrease, so a factor loses the coordinate of
        vertex m exactly when neither neighbour shares it; that factor then
        loses the vertex too.  A product factor is indexed by path position,
        so its later positions shift down by one.  The face of a valid path
        is valid, so it is built unchecked.
        """
        m = integer(m, "face index")
        pairs = self.pairs
        if not 0 <= m < len(pairs) or len(pairs) < 2:
            raise InternalInconsistency(f"no face {m} of a degree-{self.degree} simplex")
        a, b = pairs[m]
        near_a, near_b = zip(*pairs[m - 1 : m], *pairs[m + 1 : m + 2])
        pairs = pairs[:m] + pairs[m + 1 :]
        left, right = self.left, self.right
        if a not in near_a:
            if isinstance(left, FormalSimplex):
                left = left.face(left.vertices.index(a))
            else:
                left = left.face(a)
                pairs = tuple((x - (x > a), y) for x, y in pairs)
        if b not in near_b:
            if isinstance(right, FormalSimplex):
                right = right.face(right.vertices.index(b))
            else:
                right = right.face(b)
                pairs = tuple((x, y - (y > b)) for x, y in pairs)
        return ProductSimplex._trusted(left, right, pairs)

    def key(self):
        return ("p", self.left.key(), self.right.key(), self.pairs)


# ---------------------------------------------------------------------------
# chains


class Chain:
    """Finite formal sum of simplices with integer coefficients.

    Built from a dict or from (simplex, coefficient) pairs; coefficients of
    a repeated simplex are summed and zero terms dropped.  A numpy integer
    coefficient is kept as an ``int``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[dict, Iterable[tuple[Simplex, object]], None] = None):
        if isinstance(terms, dict):
            terms = terms.items()
        merged: dict = {}
        for s, c in terms or ():
            if type(c) is not int:
                c = integer(c, "chain coefficient")
            if c:
                merged[s] = merged.get(s, 0) + c
        self.terms = {s: c for s, c in merged.items() if c}

    @classmethod
    def of(cls, s: Simplex) -> "Chain":
        return cls(((s, 1),))

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Chain":
        k = integer(scalar, "chain scalar")
        return Chain((s, k * c) for s, c in self.terms.items())

    def __neg__(self) -> "Chain":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Simplex, int]]:
        return sorted(self.terms.items(), key=lambda item: item[0].key())

    def __repr__(self):
        if not self.terms:
            return "Chain(0)"
        bits = [f"{c}*{s.key()}" for s, c in self.sorted_terms()]
        return "Chain(" + " + ".join(bits) + ")"


def generator(label: str, dimension: int) -> FormalSimplex:
    return FormalSimplex(dimension, label)


def boundary(c: Union[Chain, Simplex]) -> Chain:
    """Alternating sum of faces, extended linearly."""
    if not isinstance(c, Chain):
        c = Chain.of(c)
    return Chain(
        (s.face(m), -coeff if m % 2 else coeff)
        for s, coeff in c.terms.items()
        if s.degree > 0
        for m in range(s.degree + 1)
    )


def shuffle_product(a: Union[Chain, Simplex], b: Union[Chain, Simplex]) -> Chain:
    """Bilinear shuffle cross product.

    On a pair of simplices of degrees p and q it emits one product simplex
    per monotone unit-step lattice path, binomial(p+q, p) in all: each path
    is the choice of the q steps (out of p+q) that advance the right
    factor.  The sign is the shuffle parity, (-1)^(sum over k of p - r_k + k)
    for the k-th right step at position r_k, which comes before that many
    left steps.
    """
    if not isinstance(a, Chain):
        a = Chain.of(a)
    if not isinstance(b, Chain):
        b = Chain.of(b)
    trusted = ProductSimplex._trusted
    terms = []
    for sa, ca in a.terms.items():
        va, p = sa.vertices, sa.degree
        for sb, cb in b.terms.items():
            vb, q = sb.vertices, sb.degree
            grid = [[(x, y) for y in vb] for x in va]
            # depth first, right step before left step: the paths come out in
            # the order of their right-step positions, and a right step taken
            # after i left steps flips the sign p - i times
            stack = [(0, 0, (grid[0][0],), ca * cb)]
            while stack:
                i, j, path, c = stack.pop()
                if i == p and j == q:
                    terms.append((trusted(sa, sb, path), c))
                    continue
                if i < p:
                    stack.append((i + 1, j, path + (grid[i + 1][j],), c))
                if j < q:
                    stack.append((i, j + 1, path + (grid[i][j + 1],), -c if (p - i) % 2 else c))
    return Chain(terms)


def swap_factors(c: Union[Chain, Simplex]) -> Chain:
    """The coordinate swap of product simplices, extended linearly.

    A swapped valid path is valid, so the swapped simplices are built
    unchecked.
    """
    if not isinstance(c, Chain):
        c = Chain.of(c)
    if not all(isinstance(s, ProductSimplex) for s in c.terms):
        raise InternalInconsistency("swap applies to product simplices")
    return Chain(
        (ProductSimplex._trusted(s.right, s.left, tuple((b, a) for a, b in s.pairs)), coeff)
        for s, coeff in c.terms.items()
    )


# ---------------------------------------------------------------------------
# flattening nested products for the associativity comparison


def _flatten(s: Simplex, memo: dict) -> tuple[tuple, ...]:
    """Expand nested products into per-generator vertex words.

    Returns one (generator key, vertex word) entry per leaf factor; two
    differently nested products describe the same multi-simplex exactly
    when these agree.  ``memo`` remembers every product expanded, so
    products that share factors expand each factor once.
    """
    if isinstance(s, FormalSimplex):
        return ((s.key(), s.vertices),)
    if s in memo:
        return memo[s]
    out = []
    for factor, visited in zip((s.left, s.right), zip(*s.pairs)):
        # a generator's word is its own vertex list, and a product's vertices
        # are its path positions, so the visited vertices index words directly
        if isinstance(factor, FormalSimplex):
            out.append((factor.key(), visited))
        else:
            out.extend(
                (key, tuple(map(word.__getitem__, visited))) for key, word in _flatten(factor, memo)
            )
    memo[s] = out = tuple(out)
    return out


def flattened(c: Chain) -> dict:
    """Coefficients summed per flattened multi-simplex, zeros dropped.

    One memo serves every term, since nested products share their factors.
    """
    memo: dict = {}
    return Chain((_flatten(s, memo), coeff) for s, coeff in c.terms.items()).terms


# ---------------------------------------------------------------------------
# verification harnesses


def check_chain_map(i: int, j: int) -> bool:
    """Leibniz rule for the cross product of formal generators."""
    a = generator("a", i)
    b = generator("b", j)
    lhs = boundary(shuffle_product(a, b))
    rhs = shuffle_product(boundary(a), Chain.of(b))
    sign = -1 if i % 2 else 1
    rhs = rhs + sign * shuffle_product(Chain.of(a), boundary(b))
    return lhs == rhs


def check_associativity(i: int, j: int, k: int) -> bool:
    a, b, c = generator("a", i), generator("b", j), generator("c", k)
    lhs = shuffle_product(shuffle_product(a, b), Chain.of(c))
    rhs = shuffle_product(Chain.of(a), shuffle_product(b, c))
    return flattened(lhs) == flattened(rhs)


def check_symmetry(i: int, j: int) -> bool:
    a, b = generator("a", i), generator("b", j)
    sign = -1 if (i * j) % 2 else 1
    return swap_factors(shuffle_product(a, b)) == sign * shuffle_product(b, a)


def check_identities(degree: int) -> dict[str, int]:
    """Failure count per identity, swept over generators up to ``degree``.

    - ``chain_map``: the Leibniz rule for a_i x b_j, i + j <= degree
    - ``term_counts``: a_i x b_j has binomial(i + j, i) terms
    - ``associativity``: (a_i x b_j) x c_k against a_i x (b_j x c_k),
      i + j + k <= degree
    - ``boundary_squares_to_zero``: d.d = 0 on a_n, 1 <= n <= degree, and
      on a_i x b_j, i, j <= 2 at every degree
    - ``symmetry``: the graded swap of a_i x b_j, i, j <= 3 at every degree
    """
    degree = integer(degree, "degree", 0)
    failures = dict.fromkeys(
        ("chain_map", "term_counts", "associativity", "symmetry", "boundary_squares_to_zero"), 0
    )
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            failures["chain_map"] += not check_chain_map(i, j)
            c = shuffle_product(generator("a", i), generator("b", j))
            failures["term_counts"] += len(c) != math.comb(i + j, i)
            for k in range(degree + 1 - i - j):
                failures["associativity"] += not check_associativity(i, j, k)
    for n in range(1, degree + 1):
        failures["boundary_squares_to_zero"] += not boundary(boundary(generator("a", n))).is_zero()
    for i in range(3):
        for j in range(3):
            c = shuffle_product(generator("a", i), generator("b", j))
            failures["boundary_squares_to_zero"] += not boundary(boundary(c)).is_zero()
    for i in range(4):
        for j in range(4):
            failures["symmetry"] += not check_symmetry(i, j)
    return failures
