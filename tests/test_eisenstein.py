import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import (
    E,
    OMEGA,
    OMEGA_BAR,
    ONE,
    THETA,
    UNITS,
    ZERO,
    EisensteinInt,
    QOmega,
    e_gcd,
    is_associate,
    reduce_mod_theta,
)
from eisenlat.hermitian import HermGram, diag, is_isometry, vector
from eisenlat.monodromy import GroupElt


def test_omega_relation():
    # w^2 = -1 - w
    assert OMEGA * OMEGA == E(-1, -1)
    assert OMEGA * OMEGA + OMEGA + ONE == E(0)


def test_theta_squares_to_minus_three():
    assert THETA == OMEGA - OMEGA.conj()
    assert THETA * THETA == E(-3)


def test_product_example():
    # (1 + w)(1 - w) = 1 - w^2 = 2 + w
    assert (E(1) + OMEGA) * (E(1) - OMEGA) == E(2, 1)


def test_conjugation():
    assert E(5, 3).conj() == E(2, -3)
    assert OMEGA.conj() == OMEGA_BAR


def test_norms():
    assert THETA.norm() == 3
    assert E(1).norm() == 1
    assert E(2, 1).norm() == 3


def test_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        x = E(rng.randint(-50, 50), rng.randint(-50, 50))
        y = E(rng.randint(-50, 50), rng.randint(-50, 50))
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() >= 0


def test_unit_group():
    # exactly the six norm-1 elements
    units = {
        E(a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if E(a, b).norm() == 1
    }
    assert units == set(UNITS)
    assert len(UNITS) == 6


def test_euclidean_property():
    rng = random.Random(11)
    for _ in range(500):
        x = E(rng.randint(-200, 200), rng.randint(-200, 200))
        y = E(0)
        while not y:
            y = E(rng.randint(-30, 30), rng.randint(-30, 30))
        q, r = x.divmod(y)
        assert q * y + r == x
        assert r.norm() < y.norm()


def test_gcd_examples():
    # 3 = -theta^2, so (3, theta) = (theta)
    assert is_associate(e_gcd(E(3), THETA), THETA)
    assert is_associate(e_gcd(E(7, 0), E(0)), E(7))
    assert is_associate(e_gcd(E(1, 2), E(3)), THETA)


def test_gcd_zero_zero():
    with pytest.raises(ValueError):
        e_gcd(E(0), E(0))


def test_gcd_rejects_an_entry_that_is_not_an_eisenstein_integer():
    with pytest.raises(TypeError, match="expected an Eisenstein integer"):
        e_gcd(1.5, E(3))


@pytest.mark.parametrize("x", [np.int64(3), 1.5, 1.0, None, "3"])
@pytest.mark.parametrize(
    "fn",
    [
        lambda x: is_associate(x, E(0)),
        lambda x: is_associate(E(3), x),
        reduce_mod_theta,
        lambda x: HermGram([[x]]),
        lambda x: vector([E(1), x]),
        lambda x: diag([x]),
        lambda x: is_isometry(diag([3]), [[x]]),
        lambda x: GroupElt([[x]], diag([3])),
    ],
)
def test_entry_functions_reject_a_value_that_is_not_an_eisenstein_integer(fn, x):
    # is_associate read such a value as 0, so is_associate(np.int64(3), E(0)) was True
    with pytest.raises(TypeError, match="expected an Eisenstein integer"):
        fn(x)


@pytest.mark.parametrize("op", [E.divmod, E.__floordiv__, E.__mod__, E.exact_div])
def test_division_takes_an_int_divisor_and_refuses_any_other(op):
    # divmod read an int divisor as E, and the others read a value of any other type as a zero divisor
    assert op(E(3), 3) == op(E(3), E(3))
    for x in (np.int64(3), 1.5, None):
        with pytest.raises(TypeError, match="expected an Eisenstein integer"):
            op(E(3), x)
    with pytest.raises(ZeroDivisionError):
        op(E(3), 0)


def test_gcd_divides_both():
    rng = random.Random(13)
    for _ in range(200):
        x = E(rng.randint(-40, 40), rng.randint(-40, 40))
        y = E(rng.randint(-40, 40), rng.randint(-40, 40))
        if not x and not y:
            continue
        g = e_gcd(x, y)
        assert not x % g
        assert not y % g


def test_canonical_associate_unique():
    rng = random.Random(17)
    for _ in range(200):
        x = E(0)
        while not x:
            x = E(rng.randint(-20, 20), rng.randint(-20, 20))
        cands = [u * x for u in UNITS if 0 <= (u * x).b < (u * x).a]
        assert len(cands) == 1
        assert x.canonical_associate() == cands[0]
        # associates share the canonical form
        for u in UNITS:
            assert (u * x).canonical_associate() == x.canonical_associate()


def test_reduce_mod_theta_values():
    assert reduce_mod_theta(OMEGA) == 1  # (w - 1)/theta = -wbar lies in E
    assert (OMEGA - E(1)).exact_div(THETA) == -OMEGA_BAR
    assert reduce_mod_theta(THETA) == 0
    assert reduce_mod_theta(E(2, 1)) == 0


def test_reduce_mod_theta_homomorphism():
    rng = random.Random(19)
    for _ in range(300):
        x = E(rng.randint(-60, 60), rng.randint(-60, 60))
        y = E(rng.randint(-60, 60), rng.randint(-60, 60))
        assert reduce_mod_theta(x + y) == (reduce_mod_theta(x) + reduce_mod_theta(y)) % 3
        assert reduce_mod_theta(x * y) == (reduce_mod_theta(x) * reduce_mod_theta(y)) % 3
        # kernel is theta E: x - lift(red(x)) is divisible by theta
        lift = E(reduce_mod_theta(x))
        assert not (x - lift) % THETA


def test_real_elements_of_theta_ideal_are_3z():
    # theta * (a + b w) is real iff b = 2a, giving the value -3a
    rng = random.Random(23)
    for _ in range(200):
        x = E(rng.randint(-30, 30), rng.randint(-30, 30))
        y = THETA * x
        if y.b == 0:
            assert y.a % 3 == 0
    for k in range(-15, 16):
        assert not E(3 * k) % THETA


def test_qomega_field_ops():
    x = QOmega(THETA.a, THETA.b)
    assert x * x.inverse() == QOmega(1)
    assert (QOmega(1) / x) * x == QOmega(1)
    assert QOmega(3, 0) / x == QOmega(-THETA.a, -THETA.b)


def test_json_roundtrip():
    x = E(-7, 22)
    assert E.from_json(x.to_json()) == x


# Z[w] ring axioms, derandomized so every run draws the same cases; the entries
# reach past 64 bits, since the arithmetic is arbitrary-precision
BOUNDED = settings(derandomize=True, max_examples=200, deadline=None, database=None)
big = st.integers(-(2**70), 2**70)
elements = st.builds(EisensteinInt, big, big)
nonzero = elements.filter(bool)
small = st.builds(EisensteinInt, st.integers(-2, 2), st.integers(-2, 2))


def packed(x):
    """a + b w as the integer matrix of multiplication by it, w -> [[0, -1], [1, -1]]."""
    return ((x.a, -x.b), (x.b, x.a - x.b))


@BOUNDED
@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x * ZERO == ZERO
    assert x + (-x) == ZERO and x - y == x + (-y)


@BOUNDED
@given(elements, elements)
def test_multiplication_matches_the_integer_matrix_model(x, y):
    p, q = packed(x), packed(y)
    product = tuple(tuple(p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)) for i in range(2))
    assert packed(x * y) == product


@BOUNDED
@given(elements, elements)
def test_conj_is_a_ring_automorphism(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x and ONE.conj() == ONE
    assert x * x.conj() == EisensteinInt(x.norm())
    assert (x * y).norm() == x.norm() * y.norm()


@BOUNDED
@given(elements, nonzero)
def test_exact_div_inverts_mul(x, y):
    assert (x * y).exact_div(y) == x
    q, r = x.divmod(y)
    assert q * y + r == x and r.norm() < y.norm()
    if r:
        with pytest.raises(ValueError):
            x.exact_div(y)
    else:
        assert x.exact_div(y) * y == x


@BOUNDED
@given(st.lists(st.one_of(small, elements), min_size=1, max_size=5))
@example([ZERO, ZERO, ZERO])
@example([ZERO, E(6), ZERO, E(0, 3)])
def test_gcd_of_many_is_the_pairwise_fold(xs):
    if not any(xs):
        with pytest.raises(ValueError):
            e_gcd(*xs)
        return
    g = e_gcd(*xs)
    fold = None
    for x in xs:
        if x:
            fold = x.canonical_associate() if fold is None else e_gcd(fold, x)
    assert g == fold == g.canonical_associate()
    assert all(not x % g for x in xs)


@BOUNDED
@given(st.one_of(small, elements))
def test_units_are_the_elements_of_norm_one(x):
    assert x.is_unit() == (x in UNITS)
    for u in UNITS:
        assert u * u.unit_inverse() == ONE
        assert (x * u).norm() == x.norm()
