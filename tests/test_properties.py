"""Property checks for the integer paths: pairing, evaluation, binomials, push-pull, parsing, cones."""

import pickle
import re
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import cone_oracle
from cdcalc import (
    Ambient, Cone2D, ConeRay, LinearSeries, NSClass, SystemData, binom, c1d_class, canonical_class,
    chern_character, contains, diagonal_class, dm_class, eval_top, format_class, pair, pushpull,
    subordinate_class, system_c1,
)
from cdcalc import nsring
from cdcalc.cli import parse_class

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


def _pushpull_oracle(c: NSClass, k: int) -> NSClass:
    """Push-pull term by term: one Fraction product and one Fraction sum per contribution."""
    g, d = c.ambient.g, c.ambient.d
    out = {}
    for (a, b), coeff in c.terms().items():
        for j in range(max(0, k - a), min(k, b) + 1):
            weight = comb(a, k - j) * comb(b, j) * _falling_binom(g - b + j, j) * factorial(j)
            key = (a - k + j, b - j)
            out[key] = out.get(key, Fraction(0)) + coeff * weight
    return NSClass(Ambient(g, d - k), out)


@st.composite
def cancelling(draw, amb, k):
    """A class whose push-pull contributions cancel, for k >= 1.

    Two monomials of degree k both land on the constant term; each is weighted
    by the other's image, so they cancel.  Terms of degree below k contribute
    nothing at all.
    """
    a1, a2 = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
    m1, m2 = amb.monomial(a1, k - a1), amb.monomial(a2, k - a2)
    w1 = _pushpull_oracle(m1, k).coefficient(0, 0)
    w2 = _pushpull_oracle(m2, k).coefficient(0, 0)
    low = st.integers(0, k - 1).flatmap(lambda degree: st.integers(0, degree).map(lambda i: (i, degree - i)))
    scale = draw(fractions.filter(bool))
    return scale * (w2 * m1 - w1 * m2) + NSClass(amb, draw(st.dictionaries(low, fractions, max_size=4)))


@st.composite
def pushpull_oracle_cases(draw):
    # d up to g + 4: monomials theta^b with b > g + j give binom a negative upper argument
    amb = draw(ambients(allow_excess=True))
    k = draw(st.integers(0, amb.d - 1))
    inputs = [classes(amb), st.just(amb.zero())] + ([cancelling(amb, k)] if k else [])
    return draw(st.one_of(inputs)), k


@settings(max_examples=300, deadline=None)
@given(pushpull_oracle_cases())
@example((NSClass(Ambient(3, 7), {(0, 6): Fraction(1, 7), (1, 5): Fraction(-2, 3), (2, 0): Fraction(5, 30)}), 2))
@example((Ambient(5, 4).zero(), 0))
def test_pushpull_matches_the_term_by_term_oracle(case):
    # An oracle outside the code under test: the semigroup law has pushpull on both sides.
    c, k = case
    result = pushpull(c, k)
    assert result == _pushpull_oracle(c, k)
    assert 0 not in result.terms().values()


@pytest.mark.parametrize("g", range(2, 10))
def test_pushpull_matches_the_oracle_on_dense_classes_above_the_genus(g):
    # On C_d with d > g, monomials theta^b with b > g make g-b negative, and rising products
    # (g-b+1) ... (g-b+j) that pass through zero cut a term's weights off: every k, every monomial.
    for d in range(g + 1, g + 5):
        amb = Ambient(g, d)
        dense = NSClass(amb, {(i, j): Fraction((-1) ** j * (3 * i + 5 * j + 1), 1 + (i + 2 * j) % 7)
                              for i in range(d + 1) for j in range(d + 1 - i)})
        for k in range(d):
            assert pushpull(dense, k) == _pushpull_oracle(dense, k), (g, d, k)


@st.composite
def cancelling_cases(draw):
    amb = draw(ambients(allow_excess=True).filter(lambda amb: amb.d >= 2))
    k = draw(st.integers(1, amb.d - 1))
    return draw(cancelling(amb, k)), k


@settings(max_examples=200, deadline=None)
@given(cancelling_cases())
@example((NSClass(Ambient(6, 4), {(1, 0): 6, (0, 1): -1}), 1))
def test_pushpull_of_cancelling_contributions_is_the_zero_class(case):
    c, k = case
    result = pushpull(c, k)
    assert result.is_zero()
    assert result == Ambient(c.ambient.g, c.ambient.d - k).zero()


@st.composite
def dense_classes(draw):
    amb = Ambient(draw(st.integers(2, 40)), draw(st.integers(1, 12)))
    coeff = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12))
    return NSClass(amb, {(i, j): draw(coeff) for i in range(amb.d + 1) for j in range(amb.d + 1 - i)})


@settings(max_examples=100, deadline=None)
@given(dense_classes())
def test_parse_inverts_format_class(c):
    text = format_class(c)
    parsed = parse_class(text, c.ambient)
    assert parsed == c
    assert format_class(parsed) == text


# -- the stored form: integer numerators over one denominator -------------------

def _assert_stored_form(c: NSClass) -> None:
    """den > 0, no zero numerator, no factor common to den and every numerator, every key the shared
    tuple; equal to its rebuild."""
    numerators = list(c._terms.values())
    assert all(nsring._KEYS.get(key) is key for key in c._terms)
    assert type(c.den) is int and c.den > 0
    assert all(type(n) is int and n for n in numerators)
    assert gcd(c.den, *numerators) == 1
    twin = NSClass(c.ambient, c.terms())
    assert c == twin and hash(c) == hash(twin)


def _catalogue_classes(amb: Ambient, k: int) -> list[NSClass]:
    """The catalogue classes built through `nsring._of`, on `amb` (or its g) where their ranges allow.

    0 <= k <= d picks the series, the system and the truncation."""
    g, d = amb.g, amb.d
    built = [subordinate_class(amb, LinearSeries(d + k, min(k, d))), canonical_class(amb),
             system_c1(amb, SystemData(1 + k, k - g, (1 + k) * d)), chern_character(amb, 1 + k, k - g, k)]
    if d >= 2:
        built.append(diagonal_class(amb))
    if g - d + 1 <= d <= g:
        built.append(c1d_class(amb))
    if g >= 4:
        built.append(dm_class(g, 1 + k % ((g - 2) // 2)))
    return built


@st.composite
def stored_form_cases(draw):
    amb = draw(ambients(allow_excess=True))
    scalars = fractions | st.integers(-50, 50)
    return (draw(classes(amb)), draw(classes(amb)), draw(scalars), draw(scalars.filter(bool)),
            draw(st.integers(0, amb.d)))


@settings(max_examples=300, deadline=None)
@given(stored_form_cases())
@example((Ambient(6, 4).zero(), Ambient(6, 4).zero(), 0, -3, 0))
@example((NSClass(Ambient(6, 4), {(0, 1): Fraction(1, 6), (1, 0): Fraction(1, 4)}),
          NSClass(Ambient(6, 4), {(1, 0): Fraction(-1, 4)}), Fraction(6), Fraction(-1, 6), 1))
def test_every_operation_keeps_the_stored_form(case):
    a, b, scalar, divisor, k = case
    produced = [
        a, a + b, a - b, a - a, a * b, scalar * a, a * scalar, a / divisor,
        a.homogeneous_part(k), a.truncate_degree(k), pushpull(a, min(k, a.ambient.d - 1)),
        parse_class(format_class(a), a.ambient), pickle.loads(pickle.dumps(a)),
        *_catalogue_classes(a.ambient, k),
    ]
    for c in produced:
        _assert_stored_form(c)


def _format_oracle(c: NSClass) -> str:
    """The canonical text with every coefficient written by str(Fraction)."""
    pieces = []
    for (i, j), coeff in sorted(c.terms().items(), key=lambda term: (-sum(term[0]), term[0][0])):
        factors = ["x" if i == 1 else f"x^{i}"] * (i > 0) + ["theta" if j == 1 else f"theta^{j}"] * (j > 0)
        pieces.append(("- " if coeff < 0 else "+ ") + "*".join([str(abs(coeff)), *factors]))
    text = " ".join(pieces)
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


LARGE_CLASSES = {
    "gamma a > d-r": lambda: subordinate_class(Ambient(2, 300), LinearSeries(600, 0)),
    "gamma a < 0": lambda: subordinate_class(Ambient(320, 300), LinearSeries(300, 1)),
    "gamma 0 < a < d-r": lambda: subordinate_class(Ambient(200, 300), LinearSeries(400, 10)),
    "ch 300": lambda: chern_character(Ambient(310, 300), 2, 17, 300),
    "ch 299": lambda: chern_character(Ambient(290, 300), 3, -40, 299),
}


@pytest.mark.parametrize("build", LARGE_CLASSES.values(), ids=LARGE_CLASSES.keys())
def test_format_class_matches_a_fraction_per_term(build):
    # Large, mixed denominators: each term is reduced from the class's one denominator as it prints.
    c = build()
    assert len(c._terms) > 150 and c.den.bit_length() > 1000
    assert format_class(c) == _format_oracle(c)


@settings(max_examples=100, deadline=None)
@given(dense_classes())
def test_format_class_matches_the_oracle_on_dense_classes(c):
    assert format_class(c) == _format_oracle(c)


# -- cones: integer directions against the Fraction oracle ----------------------

coords = st.integers(-6, 6) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
directions = st.tuples(coords, coords).filter(lambda d: d != (0, 0))
scales = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


def _same_error(expected: ValueError):
    return pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$")


@settings(max_examples=300, deadline=None)
@given(coords, coords)
@example(0, 0)
@example(0, Fraction(-5, 3))
@example(Fraction(-4, 6), 8)
@example(Fraction(3, 4), Fraction(-5, 6))
def test_cone_ray_matches_the_fraction_oracle(theta, x):
    try:
        expected = cone_oracle.ray(theta, x)
    except ValueError as exc:
        with _same_error(exc):
            ConeRay(theta, x)
        return
    ray = ConeRay(theta, x)
    assert (ray.theta, ray.x) == expected
    assert type(ray.theta) is type(ray.x) is Fraction


@st.composite
def cone_cases(draw):
    """Two ray directions: independent, proportional (either way round), or the second vertical."""
    d1 = draw(directions)
    kind = draw(st.sampled_from(["free", "proportional", "vertical"]))
    if kind == "proportional":
        scale = draw(scales)
        return d1, (d1[0] * scale, d1[1] * scale)
    return d1, ((0, draw(scales)) if kind == "vertical" else draw(directions))


@settings(max_examples=300, deadline=None)
@given(cone_cases())
@example(((1, -2), (3, -6)))
@example(((1, -2), (-1, 2)))
@example(((0, 1), (0, -3)))
@example(((0, 1), (1, Fraction(-3, 2))))
@example(((1, Fraction(-3, 2)), (0, -1)))
@example(((-1, 9), (1, Fraction(-3, 2))))
def test_cone2d_matches_the_fraction_oracle(case):
    d1, d2 = case
    try:
        expected = cone_oracle.cone(cone_oracle.ray(*d1), cone_oracle.ray(*d2))
    except ValueError as exc:
        with _same_error(exc):
            Cone2D(ConeRay(*d1), ConeRay(*d2))
        return
    cone = Cone2D(ConeRay(*d1), ConeRay(*d2))
    assert ((cone.ray1.theta, cone.ray1.x), (cone.ray2.theta, cone.ray2.x)) == expected


@st.composite
def contains_cases(draw):
    """A cone and a query: a divisor class or a ray (on an edge or not), zero, or not a divisor."""
    d1, d2 = draw(cone_cases().filter(lambda case: case[0][0] * case[1][1] != case[1][0] * case[0][1]))
    amb = draw(ambients())
    kind = draw(st.sampled_from(["class", "ray", "edge class", "edge ray", "zero", "not a divisor"]))
    if kind.startswith("edge"):
        scale, (a, b) = draw(scales), draw(st.sampled_from([d1, d2]))
        query = (a * scale, b * scale)
    else:
        query = draw(directions)
    if kind.endswith("ray"):
        return d1, d2, query
    terms = {} if kind == "zero" else {(0, 1): query[0], (1, 0): query[1]}
    if kind == "not a divisor":
        terms[(0, 0)] = draw(scales)
    return d1, d2, NSClass(amb, terms)


@settings(max_examples=300, deadline=None)
@given(contains_cases())
@example(((1, -1), (1, -2), (1, Fraction(-3, 2))))
@example(((1, -1), (-1, 3), NSClass(Ambient(6, 4), {(0, 1): 2, (1, 0): -2})))
@example(((0, 1), (1, 0), (0, 5)))
@example(((0, 1), (1, 0), (0, -5)))
@example(((-1, 9), (1, Fraction(-3, 2)), Ambient(6, 4).zero()))
@example(((-1, 9), (1, Fraction(-3, 2)), Ambient(6, 4).one()))
@example(((-1, 9), (1, Fraction(-3, 2)), NSClass(Ambient(6, 4), {(0, 1): Fraction(-1, 3), (1, 0): 3})))
def test_contains_matches_the_fraction_oracle(case):
    d1, d2, query = case
    cone = Cone2D(ConeRay(*d1), ConeRay(*d2))
    reference = cone_oracle.cone(cone_oracle.ray(*d1), cone_oracle.ray(*d2))
    if isinstance(query, tuple):
        assert contains(cone, ConeRay(*query)) == cone_oracle.contains(reference, cone_oracle.ray(*query))
        return
    try:
        expected = cone_oracle.contains(reference, query)
    except ValueError as exc:
        with _same_error(exc):
            contains(cone, query)
        return
    assert contains(cone, query) == expected
