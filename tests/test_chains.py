import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal import chains
from segal.chains import (
    Chain,
    FormalSimplex,
    ProductSimplex,
    boundary,
    check_associativity,
    check_chain_map,
    check_identities,
    check_symmetry,
    flattened,
    generator,
    shuffle_product,
    swap_factors,
)
from segal.errors import DomainError, InternalInconsistency


def multinomial(*parts: int) -> int:
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def rebuilt(s):
    """``s`` rebuilt through the validating constructors, factors first."""
    if isinstance(s, FormalSimplex):
        return FormalSimplex(s.dimension, s.label, s.omitted)
    return ProductSimplex(rebuilt(s.left), rebuilt(s.right), s.pairs)


def step_word_shuffle(a: FormalSimplex, b: FormalSimplex) -> Chain:
    """Independent shuffle product of two generators: filter all 2^(p+q)
    step words (0 = left step, 1 = right step) down to those with q right
    steps, signed by (-1)^(right steps before left steps)."""
    p, q = a.degree, b.degree
    terms = {}
    for word in itertools.product((0, 1), repeat=p + q):
        if sum(word) != q:
            continue
        inversions = seen_right = 0
        i = j = 0
        pairs = [(0, 0)]
        for step in word:
            if step:
                seen_right += 1
                j += 1
            else:
                inversions += seen_right
                i += 1
            pairs.append((i, j))
        terms[ProductSimplex(a, b, tuple(pairs))] = -1 if inversions % 2 else 1
    return Chain(terms)


# ---------------------------------------------------------------------------
# simplices


class TestFormalSimplex:
    def test_vertices_and_degree(self):
        s = generator("a", 3)
        assert s.vertices == (0, 1, 2, 3)
        f = s.face(1)
        assert f.vertices == (0, 2, 3)
        assert f.degree == 2

    def test_face_commutation_is_syntactic(self):
        s = generator("a", 3)
        # omit vertices 1 and 3 in both orders
        assert s.face(1).face(2) == s.face(3).face(1)

    def test_invalid(self):
        with pytest.raises(InternalInconsistency):
            FormalSimplex(-1, "a")
        with pytest.raises(InternalInconsistency):
            FormalSimplex(2, "a", frozenset({5}))

    def test_equality_requires_same_label(self):
        assert generator("a", 2) != generator("b", 2)


class TestProductSimplex:
    def test_path_validation(self):
        a, b = generator("a", 1), generator("b", 1)
        with pytest.raises(InternalInconsistency):
            ProductSimplex(a, b, ((0, 0), (1, 1), (0, 1)))
        with pytest.raises(InternalInconsistency):
            ProductSimplex(a, b, ((0, 0), (0, 0), (1, 1)))
        with pytest.raises(InternalInconsistency):
            # never visits left vertex 1
            ProductSimplex(a, b, ((0, 0), (0, 1)))

    def test_face_renormalizes_factor(self):
        a, b = generator("a", 1), generator("b", 1)
        s = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        f = s.face(0)
        # vertex (0,0) was the only appearance of left vertex 0
        assert f.left == a.face(0)
        assert f.pairs == ((1, 0), (1, 1))

    def test_face_keeps_diagonal_steps(self):
        a, b = generator("a", 1), generator("b", 1)
        s = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        f = s.face(1)
        assert f.pairs == ((0, 0), (1, 1))
        assert f.left == a and f.right == b

    def test_face_index_in_range(self):
        a, b = generator("a", 1), generator("b", 1)
        s = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        for simplex, m in ((s, -1), (s, 3), (a, -1), (a, 2)):
            with pytest.raises(InternalInconsistency):
                simplex.face(m)
        with pytest.raises(InternalInconsistency):
            ProductSimplex(generator("a", 0), b.face(0), ((0, 1),)).face(0)

    def test_vertices_are_path_positions(self):
        a, b = generator("a", 2), generator("b", 1)
        s = ProductSimplex(a.face(0), b, ((1, 0), (2, 0), (2, 1)))
        assert s.vertices == (0, 1, 2)


class TestChain:
    def test_pairs_merge_like_dict(self):
        a, b = generator("a", 1), generator("b", 1)
        c = Chain([(a, 1), (b, Fraction(1, 2)), (a, 2), (b, Fraction(-1, 2))])
        assert c == Chain({a: 3})
        assert c.terms == {a: Fraction(3)}

    def test_zero_terms_dropped(self):
        a = generator("a", 1)
        assert Chain([(a, 1), (a, -1)]).is_zero()
        assert Chain({a: 0}).is_zero()
        assert Chain().is_zero() and Chain(None).is_zero()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([generator("a", 1), generator("a", 2), generator("b", 1)]),
                st.integers(-3, 3) | st.fractions(max_denominator=4),
            ),
            max_size=12,
        )
    )
    def test_matches_fraction_sum(self, pairs):
        reference: dict = {}
        for s, c in pairs:
            reference[s] = reference.get(s, Fraction(0)) + Fraction(c)
        c = Chain(pairs)
        assert c.terms == {s: v for s, v in reference.items() if v}
        for s, v in c.terms.items():
            assert type(v) is (int if reference[s].denominator == 1 else Fraction)

    def test_integral_coefficients_are_ints(self):
        a = generator("a", 1)
        for c in (
            Chain.of(a, Fraction(4, 2)),
            Chain.of(a, 2.0),
            Fraction(1, 2) * Chain.of(a, 4),
            Chain.of(a, Fraction(1, 3)) + Chain.of(a, Fraction(5, 3)),
        ):
            assert c.terms == {a: 2} and type(c.terms[a]) is int


# ---------------------------------------------------------------------------
# shuffle product


class TestShuffleProduct:
    def test_degree_zero_pair_single_positive_term(self):
        c = shuffle_product(generator("a", 0), generator("b", 0))
        assert len(c) == 1
        ((s, coeff),) = c.terms.items()
        assert coeff == 1
        assert s.pairs == ((0, 0),)

    def test_one_one_signs(self):
        a, b = generator("a", 1), generator("b", 1)
        c = shuffle_product(a, b)
        assert len(c) == 2
        left_first = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        right_first = ProductSimplex(a, b, ((0, 0), (0, 1), (1, 1)))
        assert c.terms[left_first] == 1
        assert c.terms[right_first] == -1

    def test_two_one_signs(self):
        a, b = generator("a", 2), generator("b", 1)
        c = shuffle_product(a, b)
        assert len(c) == 3
        assert c.terms[ProductSimplex(a, b, ((0, 0), (1, 0), (2, 0), (2, 1)))] == 1
        assert c.terms[ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1), (2, 1)))] == -1
        assert c.terms[ProductSimplex(a, b, ((0, 0), (0, 1), (1, 1), (2, 1)))] == 1

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_term_count(self, i, j):
        c = shuffle_product(generator("a", i), generator("b", j))
        assert len(c) == multinomial(i, j)

    def test_bilinear(self):
        a, b = generator("a", 1), generator("b", 1)
        two_a = 2 * Chain.of(a)
        assert shuffle_product(two_a, Chain.of(b)) == 2 * shuffle_product(a, b)

    def test_exact_rational_coefficients(self):
        a, b = generator("a", 1), generator("b", 1)
        c = shuffle_product(Fraction(1, 3) * Chain.of(a), Chain.of(b))
        assert all(abs(v) == Fraction(1, 3) for v in c.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_matches_step_word_enumeration(self, pq):
        p, q = pq[0], pq[1] - pq[0]
        a, b = generator("a", p), generator("b", q)
        assert shuffle_product(a, b) == step_word_shuffle(a, b)


class TestTrustedPath:
    """Products, swaps and faces skip path validation; pin that nothing they
    emit differs from what the validating constructors build."""

    PAIRS = [(p, q) for p in range(9) for q in range(9 - p)]
    TRIPLES = [(i, j, k) for i in range(5) for j in range(5 - i) for k in range(5 - i - j)]

    def test_repr_digest(self):
        digest = hashlib.sha256()
        for p, q in self.PAIRS:
            c = shuffle_product(generator("a", p), generator("b", q))
            for shown in (c, boundary(c), swap_factors(c)):
                digest.update(repr(shown).encode())
        assert digest.hexdigest() == (
            "0072326a822e2c0366f783b4db4eba81d6eda1c4bbdc514b6274384a607bc3d1"
        )

    def test_terms_rebuild_through_validation(self):
        for p, q in self.PAIRS:
            c = shuffle_product(generator("a", p), generator("b", q))
            for s in itertools.chain(c.terms, swap_factors(c).terms, boundary(c).terms):
                assert rebuilt(s) == s and hash(rebuilt(s)) == hash(s)

    def test_nested_boundary_digest(self):
        """A face of a nested product shifts the positions of its product
        factor; pin those faces, and rebuild each through validation."""
        digest = hashlib.sha256()
        for i, j, k in self.TRIPLES:
            a, b, c = generator("a", i), generator("b", j), generator("c", k)
            left = shuffle_product(shuffle_product(a, b), c)
            for nested in (left, shuffle_product(a, shuffle_product(b, c)), swap_factors(left)):
                d = boundary(nested)
                digest.update(repr(d).encode())
                for s in d.terms:
                    assert rebuilt(s) == s and hash(rebuilt(s)) == hash(s)
        assert digest.hexdigest() == (
            "4d8abb9918f7b9861dd56637746b54087919cdf20e415296200f79d5d65e59db"
        )


# ---------------------------------------------------------------------------
# boundary


class TestBoundary:
    def test_degree_zero_boundary_vanishes(self):
        assert boundary(generator("a", 0)).is_zero()

    def test_interval_boundary(self):
        # d[v0, v1] = [v1] - [v0]; omitting vertex 0 carries the + sign
        a = generator("a", 1)
        d = boundary(a)
        assert d.terms[a.face(0)] == 1
        assert d.terms[a.face(1)] == -1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dd_zero_formal(self, n):
        assert boundary(boundary(generator("a", n))).is_zero()

    def test_dd_zero_mixed_chain(self):
        c = (
            Fraction(2, 7) * Chain.of(generator("a", 3))
            - 3 * Chain.of(generator("b", 4))
            + Chain.of(generator("a", 3).face(2))
        )
        assert boundary(boundary(c)).is_zero()

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_dd_zero_products(self, i, j):
        c = shuffle_product(generator("a", i), generator("b", j))
        assert boundary(boundary(c)).is_zero()

    def test_linear(self):
        a, b = generator("a", 2), generator("b", 2)
        c = Chain.of(a) + 5 * Chain.of(b)
        assert boundary(c) == boundary(a) + 5 * boundary(b)


# ---------------------------------------------------------------------------
# chain map, associativity, symmetry, unit


class TestChainMap:
    @pytest.mark.parametrize(
        "i,j", [(i, j) for i in range(4) for j in range(4) if i + j <= 6]
    )
    def test_generators(self, i, j):
        assert check_chain_map(i, j)

    def test_leibniz_with_coefficients(self):
        a = Fraction(1, 2) * Chain.of(generator("a", 2)) - Chain.of(
            generator("a", 2).face(0)
        )
        b = 3 * Chain.of(generator("b", 1))
        lhs = boundary(shuffle_product(a, b))
        # mixed degrees: apply the sign generator by generator
        rhs = shuffle_product(boundary(a), b)
        for s, coeff in a.terms.items():
            sign = -1 if s.degree % 2 else 1
            rhs = rhs + sign * shuffle_product(Chain.of(s, coeff), boundary(b))
        assert lhs == rhs

    def test_faced_generators(self):
        a = generator("a", 3).face(1)
        b = generator("b", 2).face(0)
        lhs = boundary(shuffle_product(a, b))
        rhs = shuffle_product(boundary(a), Chain.of(b)) + shuffle_product(
            Chain.of(a), boundary(b)
        )
        assert lhs == rhs


class TestAssociativity:
    @pytest.mark.parametrize(
        "i,j,k",
        [
            (i, j, k)
            for i in range(4)
            for j in range(4)
            for k in range(4)
            if i + j + k <= 6
        ],
    )
    def test_exhaustive(self, i, j, k):
        assert check_associativity(i, j, k)

    @pytest.mark.parametrize("i,j,k,count", [(1, 1, 1, 6), (2, 1, 1, 12)])
    def test_term_counts(self, i, j, k, count):
        a, b, c = generator("a", i), generator("b", j), generator("c", k)
        lhs = shuffle_product(shuffle_product(a, b), Chain.of(c))
        rhs = shuffle_product(Chain.of(a), shuffle_product(b, c))
        assert len(lhs) == count == len(rhs)
        assert multinomial(i, j, k) == count

    def test_flatten_distinguishes_words(self):
        a, b = generator("a", 1), generator("b", 1)
        s = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        t = ProductSimplex(a, b, ((0, 0), (0, 1), (1, 1)))
        assert flattened(Chain.of(s)) != flattened(Chain.of(t))

    def test_flattened_cancels(self):
        a, b = generator("a", 1), generator("b", 1)
        s = ProductSimplex(a, b, ((0, 0), (1, 0), (1, 1)))
        c = Chain.of(s) - Chain.of(s)
        assert flattened(c) == {}


class TestSymmetryAndUnit:
    @pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(4)])
    def test_swap_sign(self, i, j):
        assert check_symmetry(i, j)

    def test_swap_requires_products(self):
        with pytest.raises(InternalInconsistency):
            swap_factors(generator("a", 2))

    def test_unit_left(self):
        e = generator("pt", 0)
        b = generator("b", 3)
        c = shuffle_product(e, b)
        assert len(c) == 1
        ((s, coeff),) = c.terms.items()
        assert coeff == 1
        # right factor traversed fully, left factor constant
        assert s.pairs == tuple((0, k) for k in range(4))

    def test_unit_right(self):
        e = generator("pt", 0)
        b = generator("b", 2)
        c = shuffle_product(b, e)
        ((s, coeff),) = c.terms.items()
        assert coeff == 1
        assert s.pairs == tuple((k, 0) for k in range(3))


class TestCheckIdentities:
    def test_counts_failures_per_identity(self, monkeypatch):
        names = ("chain_map", "term_counts", "associativity", "symmetry", "boundary_squares_to_zero")
        assert check_identities(3) == dict.fromkeys(names, 0)
        # the 10 triples of total degree 3 fail
        monkeypatch.setattr(chains, "check_associativity", lambda i, j, k: i + j + k != 3)
        assert check_identities(3) == {**dict.fromkeys(names, 0), "associativity": 10}

    @pytest.mark.parametrize("degree", [-1, 2.5, True])
    def test_degree_is_a_natural_number(self, degree):
        with pytest.raises(DomainError):
            check_identities(degree)
