"""Property checks for the integer hot paths: pairing, evaluation, binomials, push-pull."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from hypothesis import given, settings, strategies as st

from cdcalc import Ambient, NSClass, binom, eval_top, pair, pushpull

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


@st.composite
def ambients(draw, allow_excess=False):
    g = draw(st.integers(2, 14))
    d = draw(st.integers(1, g + 4 if allow_excess else g))
    return Ambient(g, d)


@st.composite
def homogeneous(draw, amb, degree):
    exponents = st.integers(0, degree).map(lambda i: (i, degree - i))
    return NSClass(amb, draw(st.dictionaries(exponents, fractions, max_size=degree + 1)))


@st.composite
def classes(draw, amb):
    def key(i):
        return st.integers(0, amb.d - i).map(lambda j: (i, j))

    keys = st.integers(0, amb.d).flatmap(key)
    return NSClass(amb, draw(st.dictionaries(keys, fractions, max_size=6)))


@st.composite
def complementary_pairs(draw):
    amb = draw(ambients())
    p = draw(st.integers(0, amb.d))
    return draw(homogeneous(amb, p)), draw(homogeneous(amb, amb.d - p))


@settings(max_examples=300, deadline=None)
@given(complementary_pairs())
def test_pair_agrees_with_eval_top_of_product(classes_ab):
    # pair never builds the product; eval_top goes through the ring product
    a, b = classes_ab
    assert pair(a, b) == eval_top(a * b)


@st.composite
def dense_top_classes(draw):
    g = draw(st.integers(2, 7))
    d = draw(st.integers(1, g))
    coeffs = draw(st.lists(fractions, min_size=d + 1, max_size=d + 1))
    return NSClass(Ambient(g, d), {(k, d - k): c for k, c in enumerate(coeffs)})


@settings(max_examples=200, deadline=None)
@given(dense_top_classes())
def test_eval_top_counts_distinct_index_tuples(c):
    # Macdonald: theta = sigma_1 + ... + sigma_g with sigma_i^2 = 0, and x^k sigma_I = 1 for
    # every set I of d-k indices.  So x^k theta^(d-k) counts the ordered (d-k)-tuples of
    # distinct indices, each surviving term of the expanded power once.
    g, d = c.ambient.g, c.ambient.d
    expected = sum(
        c.coefficient(k, d - k) * sum(1 for _ in permutations(range(g), d - k))
        for k in range(d + 1)
    )
    assert eval_top(c) == expected


def _falling_binom(a: int, j: int) -> int:
    product = 1
    for step in range(j):
        product *= a - step
    return product // factorial(j)


@settings(max_examples=500, deadline=None)
@given(st.integers(-40, 40), st.integers(-2, 40))
def test_binom_is_the_falling_factorial(a, j):
    expected = 0 if j < 0 else _falling_binom(a, j)
    assert binom(a, j) == expected


@st.composite
def pushpull_cases(draw):
    amb = draw(ambients(allow_excess=True).filter(lambda amb: amb.d >= 2))
    k1 = draw(st.integers(0, amb.d - 1))
    k2 = draw(st.integers(0, amb.d - 1 - k1))
    return draw(classes(amb)), k1, k2


@settings(max_examples=300, deadline=None)
@given(pushpull_cases())
def test_pushpull_semigroup_law(case):
    c, k1, k2 = case
    assert pushpull(pushpull(c, k1), k2) == comb(k1 + k2, k1) * pushpull(c, k1 + k2)
