import random

import pytest

from eisenlat import discpoly as dp


def test_disc_quadratic():
    # disc(s^2 + c) = -4c
    for c in (-3, 1, 5):
        assert dp.discriminant([c, 0, 1]) == -4 * c


def test_disc_depressed_cubic():
    # disc(s^3 + p s + q) = -4 p^3 - 27 q^2
    rng = random.Random(51)
    for _ in range(50):
        p, q = rng.randint(-8, 8), rng.randint(-8, 8)
        assert dp.discriminant([q, p, 0, 1]) == -4 * p**3 - 27 * q**2


def test_disc_vanishes_on_multiple_roots():
    # (s - 1)^2 (s + 2) = s^3 - 3 s + 2
    assert dp.discriminant([2, -3, 0, 1]) == 0


def test_disc_degree_requirement():
    with pytest.raises(ValueError):
        dp.discriminant([1, 2])


def test_disc_zero_iff_gcd_nonconstant():
    rng = random.Random(53)
    for _ in range(200):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice([1, -1, 2])]
        if rng.random() < 0.5:
            # plant a double root at an integer point
            a = rng.randint(-3, 3)
            base = coeffs[: deg - 1] + [1]
            # multiply by (s - a)^2
            poly = [0] * (len(base) + 2)
            for i, c in enumerate(base):
                poly[i] += c * a * a
                poly[i + 1] += -2 * a * c
                poly[i + 2] += c
            coeffs = poly
        f = dp.poly_trim(coeffs)
        if dp.poly_deg(f) < 2:
            continue
        d = dp.discriminant(f)
        shared = dp.int_poly_gcd_nonconstant(f, dp.poly_derivative(f))
        assert (d == 0) == shared, (f, d, shared)


def test_a11_family_encoding():
    c = dp.a11_poly({2: 5, 12: -1})
    assert c[12] == 1 and c[10] == 5 and c[0] == -1 and c[11] == 0


def test_weighted_monomial():
    m = dp.WeightedMonomial.parse("u12^9 u11^2 u2")
    assert m.weight == 9 * 12 + 2 * 11 + 2 == 132
    assert str(m) == "u12^9 u11^2 u2"
    with pytest.raises(ValueError):
        dp.WeightedMonomial({1: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        dp.WeightedMonomial.parse("u12^-1")
    with pytest.raises(ValueError, match="negative exponent"):
        dp.WeightedMonomial({12: 2, 2: -1})


def test_rigidity_monomials_list():
    ms = dp.rigidity_monomials()
    assert len(ms) == 11
    assert all(m.weight == 132 for m in ms)
    assert str(ms[0]) == "u12^11"
    assert str(ms[1]) == "u11^12"  # the i = 11 case collapses to u11^12


def test_off_weight_coefficient_is_zero():
    assert dp.a11_coeff(dp.WeightedMonomial({12: 10})) == 0
    assert dp.a11_coeff(dp.WeightedMonomial({2: 1, 11: 1})) == 0


def test_leading_coefficient_closed_form():
    # disc(s^n + c) = (-1)^(n(n-1)/2) n^n c^(n-1); n = 12 gives +12^12 c^11
    assert dp.a11_coeff(dp.WeightedMonomial({12: 11})) == 12**12
    assert dp.a11_coeff(dp.WeightedMonomial({11: 12})) == -(11**11)


def test_rigidity_coefficients_nonzero():
    for m in dp.rigidity_monomials():
        assert dp.a11_coeff(m) != 0, m


def test_interpolation_matches_direct_evaluation():
    rng = random.Random(57)
    for variables in [(2, 11, 12), (7, 11, 12)]:
        for _ in range(3):
            point = tuple(rng.randint(-25, 25) for _ in variables)
            direct = dp.a11_delta(dict(zip(variables, point)))
            recon = dp.reconstructed_delta_eval(variables, point)
            assert direct == recon


def test_reported_coefficients_have_weight_132():
    from eisenlat.discpoly import _restricted_coefficients

    table = _restricted_coefficients((2, 11, 12))
    for exps in table:
        assert 2 * exps[0] + 11 * exps[1] + 12 * exps[2] == 132


def test_quasihomogeneity_lambda_one_and_minus_one():
    rng = random.Random(59)
    u = {i: rng.randint(-6, 6) for i in range(2, 13)}
    base = dp.a11_delta(u)
    assert dp.a11_delta({i: (1) ** i * v for i, v in u.items()}) == base
    assert dp.a11_delta({i: (-1) ** i * v for i, v in u.items()}) == base  # 132 even


def test_quasihomogeneity_random_batch():
    assert dp.quasihomogeneity_check(samples=30, bound=12, seed=5)
