import pickle
import random
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest

from cdcalc import Ambient, NSClass, canonical_class, eval_top, format_class, format_rational, nsring, pair
from cdcalc.cli import parse_class
from conftest import random_ambient, random_class, random_fraction


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(1, 1)
    with pytest.raises(ValueError):
        Ambient(6, 0)
    assert str(Ambient(6, 4)) == "(g=6, d=4)"


def test_monomial_arithmetic():
    amb = Ambient(6, 4)
    assert amb.x() * amb.x() == amb.monomial(2, 0)
    assert amb.x() * amb.theta() == amb.monomial(1, 1)
    assert (amb.theta() - 2 * amb.x()) + 2 * amb.x() == amb.theta()
    # total degree above d vanishes for dimension reasons
    assert amb.monomial(3, 0) * amb.monomial(2, 0) == amb.zero()
    assert NSClass(amb, {(5, 0): 7, (1, 1): 2}) == amb.monomial(1, 1, 2)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        NSClass(Ambient(6, 4), {(-1, 0): 1})


@pytest.mark.parametrize("key", [(2.0, 0), (1, 0.5), (True, 0), (0, False), ("2", 0)])
def test_exponents_must_be_ints(key):
    with pytest.raises(TypeError, match="exponents must be ints"):
        NSClass(Ambient(6, 4), {key: 1})


def test_refused_float_exponent_leaves_later_keys_intact():
    amb = Ambient(6, 4)
    with pytest.raises(TypeError):
        NSClass(amb, {(2.0, 0): 1})
    later = NSClass(amb, {(2, 0): 1})
    assert format_class(later) == "1*x^2"
    assert all(type(e) is int for key in later.terms() for e in key)


def test_floats_rejected():
    amb = Ambient(6, 4)
    with pytest.raises(TypeError):
        NSClass(amb, {(0, 1): 0.5})
    with pytest.raises(TypeError):
        amb.theta() * 0.5


NOT_INT_OR_FRACTION = ["1/2", " 3e-2 ", "3", Decimal("0.5"), Decimal(2), 0.5, None, 1j]


@pytest.mark.parametrize("value", NOT_INT_OR_FRACTION, ids=repr)
def test_coefficients_must_be_int_or_fraction(value):
    amb = Ambient(6, 4)
    name = type(value).__name__
    with pytest.raises(TypeError, match=rf"^coefficients must be int or Fraction, got {name}$"):
        NSClass(amb, {(0, 1): value})
    with pytest.raises(TypeError, match=rf"^coefficients must be int or Fraction, got {name}$"):
        amb.monomial(1, 0, value)
    with pytest.raises(TypeError):
        amb.theta() * value
    with pytest.raises(TypeError):
        value * amb.theta()
    with pytest.raises(TypeError):
        amb.theta() / value


def test_bool_coefficients_read_as_ints():
    amb = Ambient(6, 4)
    assert NSClass(amb, {(0, 1): True, (1, 0): False}) == amb.theta()
    assert amb.monomial(1, 0, True) == amb.x()
    assert amb.x() * True == amb.x() and amb.x() / True == amb.x()


def test_immutability_and_hash():
    amb = Ambient(6, 4)
    cls = amb.theta()
    with pytest.raises(AttributeError):
        cls.ambient = Ambient(5, 3)
    assert hash(amb.theta() + amb.x()) == hash(amb.x() + amb.theta())


def test_pure_degree_and_parts():
    amb = Ambient(6, 4)
    mixed = amb.theta() + amb.monomial(2, 0)
    assert mixed.pure_degree() is None
    assert mixed.homogeneous_part(1) == amb.theta()
    assert mixed.homogeneous_part(2) == amb.monomial(2, 0)
    assert mixed.homogeneous_part(3).is_zero()
    assert amb.monomial(2, 1).pure_degree() == 3
    assert amb.zero().pure_degree() is None
    assert mixed.truncate_degree(1) == amb.theta()


def test_scalar_operations():
    amb = Ambient(6, 4)
    assert (amb.theta() / 2) * 2 == amb.theta()
    assert Fraction(1, 3) * amb.x() == amb.monomial(1, 0, Fraction(1, 3))
    assert -(amb.theta() - amb.x()) == amb.x() - amb.theta()
    assert amb.theta() ** 0 == amb.one()
    assert amb.theta() ** 3 == amb.monomial(0, 3)
    with pytest.raises(ValueError):
        amb.theta() ** -1


def test_pow_matches_repeated_product():
    rng = random.Random(414)
    for _ in range(100):
        amb = random_ambient(rng, g_max=8, allow_excess=True)
        cls = random_class(rng, amb)
        power = amb.one()
        for exponent in range(7):
            assert cls ** exponent == power
            power = power * cls


def test_pow_large_exponent_is_fast():
    amb = Ambient(4, 4)
    start = time.perf_counter()
    assert amb.x() ** 200000 == amb.zero()
    assert (amb.one() + amb.x()) ** 200000 == NSClass(
        amb, {(k, 0): comb(200000, k) for k in range(5)}
    )
    assert time.perf_counter() - start < 0.05


def test_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient mismatch"):
        Ambient(6, 4).theta() + Ambient(5, 3).theta()
    with pytest.raises(ValueError, match="ambient mismatch"):
        pair(Ambient(6, 4).theta(), Ambient(6, 3).theta())


# x^i theta^(d-i) on C_d at g=6, d=4: 6!/(2+i)!  [values frozen from the formula]
@pytest.mark.parametrize("i, value", [(0, 360), (1, 120), (2, 30), (3, 6), (4, 1)])
def test_eval_top_g6_d4(i, value):
    amb = Ambient(6, 4)
    assert eval_top(amb.monomial(i, 4 - i)) == value


def test_eval_top_theta_power_is_g_factorial():
    for g in range(2, 9):
        amb = Ambient(g, g)
        assert eval_top(amb.theta() ** g) == factorial(g)


def test_eval_top_linear_combination():
    amb = Ambient(5, 3)
    # theta^3 = 5!/2! = 60, x*theta^2 = 5!/3! = 20
    cls = amb.monomial(0, 3, Fraction(1, 2)) - 3 * amb.monomial(1, 2)
    assert eval_top(cls) == Fraction(60, 2) - 3 * 20
    assert eval_top(amb.zero()) == 0


def test_eval_top_monomial_factorial_identity():
    rng = random.Random(411)
    for _ in range(300):
        amb = random_ambient(rng)
        i = rng.randint(0, amb.d)
        assert eval_top(amb.monomial(i, amb.d - i)) * factorial(amb.g - amb.d + i) == factorial(amb.g)


def test_eval_top_errors():
    amb = Ambient(6, 4)
    with pytest.raises(ValueError, match="not a top-degree class"):
        eval_top(amb.theta())
    with pytest.raises(ValueError, match="not a top-degree class"):
        eval_top(amb.theta() ** 4 + amb.x())
    with pytest.raises(ValueError, match="evaluation undefined"):
        eval_top(Ambient(4, 5).monomial(5, 0))


def test_pair_values():
    amb = Ambient(6, 4)
    assert pair(amb.theta() ** 2, amb.theta() ** 2) == 360
    assert pair(amb.x(), amb.x() ** 3) == 1
    assert pair(amb.theta(), amb.monomial(1, 2)) == 120
    assert pair(amb.zero(), amb.theta()) == 0


def test_pair_degree_mismatch():
    amb = Ambient(6, 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        pair(amb.theta(), amb.theta())
    with pytest.raises(ValueError, match="degree mismatch"):
        pair(amb.theta() + amb.one(), amb.theta() ** 3)
    excess = Ambient(4, 5)
    with pytest.raises(ValueError, match="evaluation undefined"):
        pair(excess.theta(), excess.monomial(1, 3))
    with pytest.raises(ValueError, match="evaluation undefined"):  # as eval_top refuses the zero class
        pair(excess.zero(), excess.x())


def test_eval_top_large_genus_is_fast():
    amb = Ambient(3 * 10**6, 1)
    start = time.perf_counter()
    assert eval_top(amb.x()) == 1
    assert eval_top(amb.theta()) == 3 * 10**6
    assert eval_top(Ambient(3 * 10**6, 40).monomial(40, 0)) == 1
    assert time.perf_counter() - start < 0.05


def test_pair_large_genus_is_fast():
    g = 10**6
    amb = Ambient(g, 2)
    a = amb.theta() - Fraction(1, 3) * amb.x()
    start = time.perf_counter()
    assert pair(amb.theta(), amb.theta()) == g * (g - 1)
    assert pair(amb.x(), amb.theta()) == g
    assert pair(a, a) == g * (g - 1) - Fraction(2, 3) * g + Fraction(1, 9)
    assert time.perf_counter() - start < 0.05


def test_pair_symmetry_and_bilinearity():
    rng = random.Random(412)
    for _ in range(300):
        g = rng.randint(3, 10)
        d = rng.randint(2, g)
        amb = Ambient(g, d)
        k = rng.randint(0, d)
        a = random_class(rng, amb, degree=k)
        a2 = random_class(rng, amb, degree=k)
        b = random_class(rng, amb, degree=d - k)
        lam = random_fraction(rng)
        assert pair(a, b) == pair(b, a)
        assert pair(a + a2, b) == pair(a, b) + pair(a2, b)
        assert pair(lam * a, b) == lam * pair(a, b)


def test_ring_axioms():
    rng = random.Random(413)
    for _ in range(300):
        amb = random_ambient(rng, allow_excess=True)
        a = random_class(rng, amb)
        b = random_class(rng, amb)
        c = random_class(rng, amb)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert amb.one() * a == a
        assert a + amb.zero() == a


def test_canonical_class_values():
    assert canonical_class(Ambient(6, 4)) == NSClass(Ambient(6, 4), {(0, 1): 1, (1, 0): 1})
    assert format_class(canonical_class(Ambient(5, 3))) == "1*theta + 1*x"
    assert canonical_class(Ambient(7, 6)) == Ambient(7, 6).theta()


def test_format_class_canonical_order():
    amb = Ambient(6, 4)
    gamma = NSClass(amb, {(0, 3): Fraction(1, 6), (1, 2): -1, (2, 1): 3, (3, 0): -4})
    assert format_class(gamma) == "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3"
    assert format_class(NSClass(amb, {(0, 1): -2, (1, 0): 18})) == "-2*theta + 18*x"
    assert format_class(amb.zero()) == "0"
    assert format_class(amb.one()) == "1"
    assert format_class(amb.monomial(0, 2, Fraction(-3, 2))) == "-3/2*theta^2"
    assert str(amb.x() + amb.one()) == "1*x + 1"


def test_format_rational():
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(7) == "7"


# -- shared monomial keys -------------------------------------------------------

def _keys_by_value(cls):
    return {key: key for key in cls._terms}


def test_independent_classes_share_key_objects():
    amb = Ambient(9, 5)
    parsed = parse_class("3*x^2*theta + 1/2*x*theta^2 - 1*theta^3", amb)
    built = (3 * amb.x() ** 2 * amb.theta() + Fraction(1, 2) * amb.x() * amb.theta() ** 2
             - amb.theta() ** 3)
    assert parsed == built
    keys = _keys_by_value(built)
    for key in parsed._terms:
        assert keys[key] is key


def test_pickle_round_trip_shares_keys():
    amb = Ambient(9, 5)
    cls = amb.one() + amb.x() * amb.theta() - 7 * amb.theta() ** 3
    copy = pickle.loads(pickle.dumps(cls))
    assert copy == cls
    keys = _keys_by_value(cls)
    for key in copy._terms:
        assert keys[key] is key


def test_key_table_is_bounded_by_the_largest_degree(monkeypatch):
    monkeypatch.setattr(nsring, "_KEYS", {})
    top = 12
    amb = Ambient(40, top)
    dense = NSClass(amb, {(i, j): i + j + 1 for i in range(top + 1) for j in range(top + 1 - i)})
    dense * dense, dense ** 3, -dense, dense.homogeneous_part(7)
    NSClass(amb, {(top + 1, 0): 1, (0, top + 5): 2})  # above degree d: dropped, never stored
    assert len(nsring._KEYS) == (top + 1) * (top + 2) // 2


def test_threads_racing_on_new_keys_agree_on_one_tuple(monkeypatch):
    amb = Ambient(40, 30)
    count = 31 * 32 // 2
    workers = 8

    def work(start, out):
        start.wait(timeout=30)
        out.append(NSClass(amb, {(i, j): 1 for i in range(31) for j in range(31 - i)}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # each round races on a fresh table
            monkeypatch.setattr(nsring, "_KEYS", {})
            start, built = threading.Barrier(workers), []
            threads = [threading.Thread(target=work, args=(start, built)) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(built) == workers and len(nsring._KEYS) == count
            for cls in built:
                assert all(nsring._KEYS[key] is key for key in cls._terms)
    finally:
        sys.setswitchinterval(interval)
