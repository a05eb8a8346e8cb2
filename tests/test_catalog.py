import math
import random
from fractions import Fraction

import pytest

from cdcalc import (
    Ambient,
    KernelBundleData,
    LinearSeries,
    NSClass,
    SystemData,
    binom,
    brill_noether_rho,
    c1d_class,
    chern_character,
    diagonal_class,
    dm_class,
    kernel_twist_h1,
    mult_degeneracy_class,
    pushpull,
    subordinate_class,
    system_c1,
    twisted_kernel_class,
)
from conftest import random_class, random_fraction


def test_binom_matches_comb_for_nonnegative():
    for a in range(0, 12):
        for j in range(0, 14):
            assert binom(a, j) == math.comb(a, j)


def test_binom_negative_upper():
    # binom(-2, j) = (-1)^j (j+1), the identity driving the pencil expansions
    for j in range(0, 30):
        assert binom(-2, j) == (-1) ** j * (j + 1)
        assert binom(-1, j) == (-1) ** j
    assert binom(-3, 2) == 6
    assert binom(-4, 3) == -20
    assert binom(5, -1) == 0
    assert binom(-2, -3) == 0


def test_subordinate_pencil_degree5():
    amb = Ambient(6, 4)
    gamma = subordinate_class(amb, LinearSeries(5, 1))
    assert gamma.terms() == {
        (0, 3): Fraction(1, 6),
        (1, 2): Fraction(-1),
        (2, 1): Fraction(3),
        (3, 0): Fraction(-4),
    }
    assert gamma.pure_degree() == 3


def test_subordinate_pencil_degree4():
    amb = Ambient(6, 4)
    gamma = subordinate_class(amb, LinearSeries(4, 1))
    assert gamma.terms() == {
        (0, 3): Fraction(1, 6),
        (1, 2): Fraction(-3, 2),
        (2, 1): Fraction(6),
        (3, 0): Fraction(-10),
    }


def test_subordinate_full_series_is_unit():
    amb = Ambient(6, 4)
    assert subordinate_class(amb, LinearSeries(7, 4)) == amb.one()


def test_subordinate_r_one_below_d():
    # degree-1 case: theta + (n-g-d+1)x
    for g, d, n in [(6, 4, 7), (5, 3, 8), (9, 5, 5)]:
        amb = Ambient(g, d)
        expected = NSClass(amb, {(0, 1): 1, (1, 0): n - g - d + 1})
        assert subordinate_class(amb, LinearSeries(n, d - 1)) == expected


def test_subordinate_pure_degree_random():
    rng = random.Random(421)
    for _ in range(200):
        g = rng.randint(2, 12)
        d = rng.randint(1, g + 2)
        r = rng.randint(0, d)
        n = rng.randint(d, d + 10)
        gamma = subordinate_class(Ambient(g, d), LinearSeries(n, r))
        assert gamma.is_zero() or gamma.pure_degree() == d - r


def test_subordinate_skips_vanishing_binomials():
    # n - g - r = 0: only the j = 0 term survives, and no other factorial is built
    amb = Ambient(20000, 10000)
    gamma = subordinate_class(amb, LinearSeries(20000, 0))
    assert gamma == amb.monomial(0, 10000, Fraction(1, math.factorial(10000)))


def subordinate_by_formula(amb, n, r):
    """The docstring's sum, one binomial and one factorial per term."""
    top = amb.d - r
    return NSClass(amb, {(j, top - j): Fraction(binom(n - amb.g - r, j), math.factorial(top - j))
                         for j in range(top + 1)})


# n - g - r negative (no binomial vanishes), zero, positive below d - r (the
# zero tail is cut) and at or above d - r.
@pytest.mark.parametrize("g, d, n, r", [
    (9, 5, 5, 1), (12, 8, 8, 0), (30, 12, 14, 2),
    (6, 4, 7, 1), (10, 6, 10, 0),
    (6, 6, 9, 0), (8, 7, 12, 1), (5, 9, 10, 2),
    (6, 4, 12, 1), (3, 5, 20, 0),
])
def test_subordinate_matches_per_term_formula(g, d, n, r):
    amb = Ambient(g, d)
    assert subordinate_class(amb, LinearSeries(n, r)) == subordinate_by_formula(amb, n, r)


def test_subordinate_matches_per_term_formula_random():
    rng = random.Random(1107)
    for _ in range(300):
        g = rng.randint(2, 40)
        d = rng.randint(1, 40)
        r = rng.randint(0, d)
        n = rng.randint(d, d + g + 20)
        amb = Ambient(g, d)
        assert subordinate_class(amb, LinearSeries(n, r)) == subordinate_by_formula(amb, n, r)


def test_subordinate_constraint_errors():
    amb = Ambient(6, 4)
    with pytest.raises(ValueError, match="series/degree constraint"):
        subordinate_class(amb, LinearSeries(3, 1))  # d > n
    with pytest.raises(ValueError, match="series/degree constraint"):
        subordinate_class(amb, LinearSeries(9, 5))  # r > d
    with pytest.raises(ValueError):
        LinearSeries(-1, 0)
    with pytest.raises(ValueError):
        LinearSeries(5, -1)


@pytest.mark.parametrize(
    "g, d, expected_x",
    [(6, 4, 18), (5, 3, 14), (2, 2, 6)],
)
def test_diagonal_values(g, d, expected_x):
    assert diagonal_class(Ambient(g, d)) == NSClass(Ambient(g, d), {(0, 1): -2, (1, 0): expected_x})


def test_diagonal_requires_d_at_least_2():
    with pytest.raises(ValueError, match="d >= 2"):
        diagonal_class(Ambient(6, 1))


def test_c1d_values():
    assert c1d_class(Ambient(6, 5)) == NSClass(
        Ambient(6, 5), {(0, 2): Fraction(1, 2), (1, 1): -1}
    )
    assert c1d_class(Ambient(6, 4)) == NSClass(
        Ambient(6, 4), {(0, 3): Fraction(1, 6), (1, 2): Fraction(-1, 2)}
    )
    for g in range(2, 10):
        assert c1d_class(Ambient(g, g)) == NSClass(Ambient(g, g), {(0, 1): 1, (1, 0): -1})


def test_c1d_errors():
    with pytest.raises(ValueError, match="exceeds dimension"):
        c1d_class(Ambient(6, 3))  # codimension 4 on a 3-fold
    with pytest.raises(ValueError, match="d <= g"):
        c1d_class(Ambient(4, 5))


def test_pushpull_identity_at_k0():
    rng = random.Random(422)
    for _ in range(50):
        amb = Ambient(rng.randint(2, 10), rng.randint(1, 8))
        cls = random_class(rng, amb)
        assert pushpull(cls, 0) == cls


def test_pushpull_on_x_powers():
    # only the j=0 term survives: B_k(x^a) = binom(a,k) x^(a-k)
    amb = Ambient(7, 5)
    assert pushpull(amb.monomial(4, 0), 2) == Ambient(7, 3).monomial(2, 0, 6)
    assert pushpull(amb.monomial(1, 0), 3).is_zero()


def test_pushpull_on_theta_square():
    # B_1(theta^2) = 2(g-1) theta
    for g in (4, 6, 9):
        amb = Ambient(g, 3)
        assert pushpull(amb.monomial(0, 2), 1) == Ambient(g, 2).monomial(0, 1, 2 * (g - 1))


def test_pushpull_moving_class_g_minus_1():
    # B_1(c1 of C_{g-1}) = (g-2) theta - g x on C_{g-2}
    for g in range(5, 13):
        image = pushpull(c1d_class(Ambient(g, g - 1)), 1)
        assert image == NSClass(Ambient(g, g - 2), {(0, 1): g - 2, (1, 0): -g})


def test_pushpull_linearity():
    rng = random.Random(423)
    for _ in range(200):
        amb = Ambient(rng.randint(2, 10), rng.randint(2, 8))
        k = rng.randint(0, amb.d - 1)
        a = random_class(rng, amb)
        b = random_class(rng, amb)
        lam = random_fraction(rng)
        assert pushpull(a + lam * b, k) == pushpull(a, k) + lam * pushpull(b, k)


def test_pushpull_errors():
    amb = Ambient(6, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        pushpull(amb.x(), -1)
    with pytest.raises(ValueError, match="k < d"):
        pushpull(amb.x(), 4)


@pytest.mark.parametrize(
    "g, m, theta_coeff, x_coeff",
    [(6, 1, 4, -6), (6, 2, 5, -15), (8, 2, 14, -28)],
)
def test_dm_values(g, m, theta_coeff, x_coeff):
    cls = dm_class(g, m)
    assert cls.ambient == Ambient(g, g - 2 * m)
    assert cls == NSClass(cls.ambient, {(0, 1): theta_coeff, (1, 0): x_coeff})


def test_dm_range_errors():
    with pytest.raises(ValueError, match="m out of range"):
        dm_class(6, 0)
    with pytest.raises(ValueError, match="m out of range"):
        dm_class(6, 3)
    with pytest.raises(ValueError, match="m out of range"):
        dm_class(5, 2)


def test_system_c1_values():
    assert system_c1(Ambient(6, 4), SystemData(2, 15, 8)) == NSClass(
        Ambient(6, 4), {(0, 1): 2, (1, 0): -3}
    )
    # the canonical-twist numbers land on (g-2)theta - (g-1)x
    for g in range(5, 12):
        f = (g - 2) * (2 * g - 2) - (2 * g - 3)
        cls = system_c1(Ambient(g, g - 2), SystemData(g - 2, f, (g - 2) ** 2))
        assert cls == NSClass(Ambient(g, g - 2), {(0, 1): g - 2, (1, 0): -(g - 1)})


def test_system_c1_rank_one_matches_subordinate():
    rng = random.Random(424)
    for _ in range(200):
        g = rng.randint(2, 15)
        d = rng.randint(1, g + 3)
        n = rng.randint(d, d + 25)
        amb = Ambient(g, d)
        assert system_c1(amb, SystemData(1, n, d)) == subordinate_class(amb, LinearSeries(n, d - 1))


def test_system_c1_dimension_error():
    with pytest.raises(ValueError, match="not a virtual divisor configuration"):
        system_c1(Ambient(6, 4), SystemData(2, 15, 7))
    with pytest.raises(ValueError):
        SystemData(0, 3, 0)


def test_chern_character_low_degrees():
    amb = Ambient(6, 4)
    ch = chern_character(amb, 2, 15, 2)
    assert ch.homogeneous_part(0) == NSClass(amb, {(0, 0): 8})
    assert ch.homogeneous_part(1) == system_c1(amb, SystemData(2, 15, 8))
    assert ch.homogeneous_part(2) == NSClass(amb, {(2, 0): Fraction(3, 2), (1, 1): -2})
    assert chern_character(amb, 2, 15, 0) == NSClass(amb, {(0, 0): 8})


def test_chern_character_degree2_coefficients_random():
    rng = random.Random(425)
    for _ in range(200):
        g = rng.randint(2, 20)
        d = rng.randint(2, g + 3)
        r = rng.randint(1, 6)
        f = rng.randint(-20, 40)
        amb = Ambient(g, d)
        ch = chern_character(amb, r, f, 2)
        excess = r * d + r * g - f - r
        assert ch.homogeneous_part(0) == NSClass(amb, {(0, 0): r * d})
        assert ch.homogeneous_part(1) == system_c1(amb, SystemData(r, f, r * d))
        assert ch.coefficient(2, 0) == Fraction(excess, 2)
        assert ch.coefficient(1, 1) == -r


def test_chern_character_errors():
    amb = Ambient(6, 4)
    with pytest.raises(ValueError, match="rank"):
        chern_character(amb, 0, 5, 2)
    with pytest.raises(ValueError, match="truncation degree"):
        chern_character(amb, 2, 5, 5)
    with pytest.raises(ValueError, match="truncation degree"):
        chern_character(amb, 2, 5, -1)


def test_kernel_bundle_data():
    quintic_conic = KernelBundleData(base_degree=5, base_sections=3)
    assert quintic_conic.kernel_rank == 2
    assert quintic_conic.kernel_degree == -5
    canonical_minus_point = KernelBundleData(base_degree=9, base_sections=5)  # g = 6
    assert canonical_minus_point.kernel_rank == 4
    assert canonical_minus_point.kernel_degree == -9
    with pytest.raises(ValueError, match="at least 2 sections"):
        KernelBundleData(3, 1)


def test_kernel_twist_h1_rule():
    assert kernel_twist_h1(KernelBundleData(5, 3)) == 3
    for g in range(4, 11):
        assert kernel_twist_h1(KernelBundleData(2 * g - 3, g - 1)) == g - 1
    with pytest.raises(ValueError, match="no h\\^1 rule"):
        kernel_twist_h1(KernelBundleData(6, 3))  # even degree
    with pytest.raises(ValueError, match="no h\\^1 rule"):
        kernel_twist_h1(KernelBundleData(7, 3))  # wrong section count
    with pytest.raises(ValueError, match="no h\\^1 rule"):
        kernel_twist_h1(KernelBundleData(3, 2))  # k = 3 too small


def test_twisted_kernel_class_quintic():
    cls = twisted_kernel_class(6, KernelBundleData(5, 3), 3)
    assert cls.ambient == Ambient(6, 4)
    assert cls == NSClass(Ambient(6, 4), {(0, 1): 2, (1, 0): -3})


def test_twisted_kernel_class_canonical_sweep():
    for g in range(5, 14):
        data = KernelBundleData(2 * g - 3, g - 1)
        cls = twisted_kernel_class(g, data, g - 1)
        assert cls.ambient == Ambient(g, g - 2)
        assert cls == NSClass(Ambient(g, g - 2), {(0, 1): g - 2, (1, 0): -(g - 1)})


def test_twisted_kernel_class_bad_h1():
    with pytest.raises(ValueError, match="dim V"):
        twisted_kernel_class(6, KernelBundleData(5, 3), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        twisted_kernel_class(6, KernelBundleData(5, 3), -1)


def test_brill_noether_rho():
    assert brill_noether_rho(6, 1, 5) == 2
    assert brill_noether_rho(6, 1, 4) == 0
    assert brill_noether_rho(4, 1, 3) == 0
    for g in range(5, 15):
        assert brill_noether_rho(g, 1, g - 1) == g - 4
        assert brill_noether_rho(g, 0, g) == g


@pytest.mark.parametrize("g, d, r", [(6, 4, 2), (8, 6, 3), (10, 5, 1), (7, 4, 2)])
def test_mult_degeneracy_values(g, d, r):
    cls = mult_degeneracy_class(g, d, r)
    assert cls == NSClass(Ambient(g, d), {(0, 1): r, (1, 0): -(r + 1)})


def test_mult_degeneracy_errors():
    with pytest.raises(ValueError, match="2 <= d <= g-1"):
        mult_degeneracy_class(6, 1, 2)
    with pytest.raises(ValueError, match="2 <= d <= g-1"):
        mult_degeneracy_class(6, 6, 2)
    with pytest.raises(ValueError, match="multiplication rank"):
        mult_degeneracy_class(6, 4, 1)
    with pytest.raises(ValueError, match="multiplication rank"):
        mult_degeneracy_class(6, 4, 0)
