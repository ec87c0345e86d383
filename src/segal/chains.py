"""Shuffle cross product on normalized chains, with exact arithmetic.

Spaces are formal: a generator stands for a map of a standard simplex into
some space, and products are formal pairs.  What is verified is the
simplicial combinatorics: face bookkeeping, signs, the chain-map identity
and associativity.  No floats anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Union

from .errors import InternalInconsistency

# ---------------------------------------------------------------------------
# simplices


@dataclass(frozen=True)
class FormalSimplex:
    """Iterated face of a formal generator.

    ``dimension`` is the generator's dimension; ``omitted`` lists the
    generator vertices removed by face maps.  Keying faces by the omitted
    set makes the simplicial identity d_i d_j = d_{j-1} d_i (i < j) hold on
    the nose, so d.d = 0 cancels term by term.
    """

    dimension: int
    label: str
    omitted: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dimension < 0:
            raise InternalInconsistency("negative dimension")
        if any(not 0 <= v <= self.dimension for v in self.omitted):
            raise InternalInconsistency("omitted vertex out of range")
        if len(self.omitted) > self.dimension:
            raise InternalInconsistency("too many omitted vertices")

    @property
    def degree(self) -> int:
        return self.dimension - len(self.omitted)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.dimension + 1) if v not in self.omitted)

    def face(self, i: int) -> "FormalSimplex":
        """Omit the i-th remaining vertex."""
        v = self.vertices[i]
        return FormalSimplex(self.dimension, self.label, self.omitted | {v})

    def drop_vertex(self, v: int) -> "FormalSimplex":
        if v in self.omitted:
            raise InternalInconsistency(f"vertex {v} already omitted")
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

    @property
    def degree(self) -> int:
        return len(self.pairs) - 1

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(len(self.pairs)))

    def face(self, m: int) -> "ProductSimplex":
        pairs = self.pairs[:m] + self.pairs[m + 1 :]
        left, right = self.left, self.right
        lost_l = _lost_coordinate(self.pairs, pairs, side=0)
        lost_r = _lost_coordinate(self.pairs, pairs, side=1)
        if lost_l is not None:
            left, relabel = _drop_factor_vertex(left, lost_l)
            if relabel:
                pairs = tuple((a - 1 if a > lost_l else a, b) for a, b in pairs)
        if lost_r is not None:
            right, relabel = _drop_factor_vertex(right, lost_r)
            if relabel:
                pairs = tuple((a, b - 1 if b > lost_r else b) for a, b in pairs)
        return ProductSimplex(left, right, pairs)

    def key(self):
        return ("p", self.left.key(), self.right.key(), self.pairs)


def _lost_coordinate(old, new, side):
    before = {p[side] for p in old}
    after = {p[side] for p in new}
    lost = before - after
    if len(lost) > 1:
        raise InternalInconsistency("face removed more than one vertex")
    return next(iter(lost)) if lost else None


def _drop_factor_vertex(s: Simplex, v: int):
    """Remove a vertex from a factor.  Returns (factor, needs_relabel).

    Formal factors keep their original vertex labels; product factors are
    indexed by position, so later positions shift down by one.
    """
    if isinstance(s, FormalSimplex):
        return s.drop_vertex(v), False
    return s.face(v), True


# ---------------------------------------------------------------------------
# chains


class Chain:
    """Finite formal sum of simplices with rational coefficients.

    Built from a dict or from (simplex, coefficient) pairs; coefficients of
    a repeated simplex are summed and zero terms dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[dict, Iterable[tuple[Simplex, object]], None] = None):
        if isinstance(terms, dict):
            terms = terms.items()
        merged: dict = {}
        for s, c in terms or ():
            c = Fraction(c)
            if c:
                merged[s] = merged.get(s, Fraction(0)) + c
        self.terms = {s: c for s, c in merged.items() if c}

    @classmethod
    def of(cls, s: Simplex, coeff=1) -> "Chain":
        return cls({s: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "Chain":
        return cls()

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Chain":
        k = Fraction(scalar)
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

    def sorted_terms(self) -> list[tuple[Simplex, Fraction]]:
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
    terms = []
    for sa, ca in a.terms.items():
        va = sa.vertices
        for sb, cb in b.terms.items():
            vb = sb.vertices
            p, q = sa.degree, sb.degree
            for rights in itertools.combinations(range(p + q), q):
                sign = -1 if sum(p - r + k for k, r in enumerate(rights)) % 2 else 1
                i = j = 0
                pairs = [(va[0], vb[0])]
                for step in range(p + q):
                    if j < q and rights[j] == step:
                        j += 1
                    else:
                        i += 1
                    pairs.append((va[i], vb[j]))
                terms.append((ProductSimplex(sa, sb, tuple(pairs)), sign * ca * cb))
    return Chain(terms)


def swap_factors(c: Union[Chain, Simplex]) -> Chain:
    """The coordinate swap of product simplices, extended linearly."""
    if not isinstance(c, Chain):
        c = Chain.of(c)
    if not all(isinstance(s, ProductSimplex) for s in c.terms):
        raise InternalInconsistency("swap applies to product simplices")
    return Chain(
        (ProductSimplex(s.right, s.left, tuple((b, a) for a, b in s.pairs)), coeff)
        for s, coeff in c.terms.items()
    )


# ---------------------------------------------------------------------------
# flattening nested products for the associativity comparison


def flatten_factors(s: Simplex) -> tuple[tuple, ...]:
    """Expand nested products into per-generator vertex words.

    Returns one (generator key, vertex word) entry per leaf factor; two
    differently nested products describe the same multi-simplex exactly
    when these agree.
    """
    if isinstance(s, FormalSimplex):
        return ((s.key(), s.vertices),)
    left_words = flatten_factors(s.left)
    right_words = flatten_factors(s.right)
    lsel = tuple(a for a, _ in s.pairs)
    rsel = tuple(b for _, b in s.pairs)
    lpos = {v: k for k, v in enumerate(s.left.vertices)}
    rpos = {v: k for k, v in enumerate(s.right.vertices)}
    out = []
    for key, word in left_words:
        out.append((key, tuple(word[lpos[v]] for v in lsel)))
    for key, word in right_words:
        out.append((key, tuple(word[rpos[v]] for v in rsel)))
    return tuple(out)


def flattened(c: Chain) -> dict:
    """Coefficients summed per flattened multi-simplex, zeros dropped."""
    return Chain((flatten_factors(s), coeff) for s, coeff in c.terms.items()).terms


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
