"""Property checks for the integer hot paths: pairing, binomials, push-pull."""

from fractions import Fraction
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
    # pair sums integer numerators against the weights; eval_top goes through the ring product
    a, b = classes_ab
    assert pair(a, b) == eval_top(a * b)


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
