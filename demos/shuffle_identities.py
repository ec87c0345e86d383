"""The shuffle product on formal chains, term by term.

Products of simplices are indexed by monotone lattice paths with signs.
All coefficients are exact rationals, so the boundary-of-product rule,
associativity, and graded symmetry hold on the nose, not approximately.
"""

from segal import (
    boundary,
    check_identities,
    generator,
    shuffle_product,
    swap_factors,
)


def show(title, chain):
    print(title)
    for simplex, coef in chain.sorted_terms():
        pairs = getattr(simplex, "pairs", None)
        word = "".join(f"({a},{b})" for a, b in pairs) if pairs else simplex
        print(f"  {str(coef):>3s}  {word}")


def main():
    a, b = generator("a", 1), generator("b", 1)
    show("a1 * b1 (two paths around the unit square):", shuffle_product(a, b))
    print()

    a2 = generator("a", 2)
    show("a2 * b1 (three staircase paths):", shuffle_product(a2, b))
    print()

    prod = shuffle_product(a2, b)
    lhs = boundary(prod)
    rhs = shuffle_product(boundary(a2), b) + (-1) ** 2 * shuffle_product(a2, boundary(b))
    print(f"boundary follows the product rule: {lhs == rhs}")
    print(f"d^2 on the product vanishes: {boundary(boundary(prod)).is_zero()}")

    flipped = swap_factors(shuffle_product(a, b))
    print(f"degree (1,1) swap flips the sign: {flipped == -shuffle_product(b, a)}")
    print()

    failures = check_identities(5)
    for name, key in (
        ("chain map, all i+j <= 5", "chain_map"),
        ("associativity, all i+j+k <= 5", "associativity"),
        ("graded symmetry, i, j < 4", "symmetry"),
    ):
        print(f"{name}: {failures[key] == 0}")


if __name__ == "__main__":
    main()
