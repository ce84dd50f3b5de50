import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat import discpoly as dp
from test_linalg import solve

BOUNDED = settings(derandomize=True, max_examples=80, deadline=None, database=None)
S = sympy.Symbol("s")


def int_poly_gcd_nonconstant(f, g):
    """True iff gcd(f, g) over Q has positive degree (shared root)."""
    f = [Fraction(x) for x in dp.poly_trim(f)]
    g = [Fraction(x) for x in dp.poly_trim(g)]
    while g and dp.poly_deg(g) >= 0 and any(g):
        if dp.poly_deg(g) == 0:
            return False
        f, g = g, _poly_mod(f, g)
        g = _ftrim(g)
        if not g:
            return dp.poly_deg(f) >= 1
    return dp.poly_deg(f) >= 1


def _ftrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mod(f, g):
    f = list(f)
    dg = dp.poly_deg(g)
    lg = g[-1]
    while len(f) - 1 >= dg and any(f):
        df = len(f) - 1
        c = f[-1] / lg
        for i in range(dg + 1):
            f[df - dg + i] -= c * g[i]
        f = _ftrim(f)
        if not f:
            break
    return f


def restricted_coefficients_reference(variables):
    """The Fraction solve at points from [-9, 9], redrawing singular or
    non-integral samples (the interpolation before the fraction-free one)."""
    exps = dp._weight_132_exponents(variables)
    k = len(exps)
    rng = random.Random(0xA11)
    while True:
        points = []
        seen = set()
        while len(points) < k:
            p = tuple(rng.randint(-9, 9) for _ in variables)
            if p not in seen:
                seen.add(p)
                points.append(p)
        rows = [[Fraction(dp._monomial_eval(e, p)) for e in exps] for p in points]
        rhs = [Fraction(dp.a11_delta(dict(zip(variables, p)))) for p in points]
        try:
            sol = solve(rows, rhs)
        except ValueError:
            continue
        if all(c.denominator == 1 for c in sol):
            return {e: int(c) for e, c in zip(exps, sol) if c}


def to_sympy(c):
    return sympy.Poly(list(reversed(c)), S)


def sympy_resultant(f, g):
    """Res(f, g) = det Sylvester(f, g) from sympy.  sympy 1.14 returns Res(g, f)
    when deg f < deg g (for s - 1 and a cubic, 3 both ways round), so the
    larger degree goes first and the swap's sign (-1)^(deg f deg g) is applied."""
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        return (-1) ** (n * m) * sympy.resultant(to_sympy(g), to_sympy(f))
    return sympy.resultant(to_sympy(f), to_sympy(g))


# coefficient lists c0, c1, ..., with a nonzero leading coefficient
polys = st.lists(st.integers(-6, 6), min_size=0, max_size=6).flatmap(
    lambda c: st.integers(-4, 4).filter(bool).map(lambda lead: c + [lead])
)


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
        shared = int_poly_gcd_nonconstant(f, dp.poly_derivative(f))
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


@BOUNDED
@given(polys, polys)
@example([0, 0, 3], [5, 0, -2])  # zero constant terms, non-monic
@example([7], [1, 2, 3])  # degree-0 operands
@example([2, -3, 0, 1], [-4])
@example([-1, 1], [-1, -2, -1, 1])  # odd degrees, the smaller first
def test_sylvester_resultant_matches_sympy(f, g):
    assert dp.sylvester_resultant(f, g) == sympy_resultant(f, g)


@BOUNDED
@given(polys.filter(lambda c: len(c) >= 3))
@example([0, 0, -3])
@example([0, 4, 0, 2])
def test_discriminant_matches_sympy(f):
    assert dp.discriminant(f) == sympy.discriminant(to_sympy(f))


def _eligible_sets():
    """Variable sets of at most 3 variables with 1 to 20 unknowns."""
    out = []
    for r in (1, 2, 3):
        for vs in combinations(range(2, 13), r):
            if 1 <= len(dp._weight_132_exponents(vs)) <= 20:
                out.append(vs)
    return out


def test_interpolation_matches_the_fraction_reference():
    rigid = {tuple(sorted(m.exponents)) for m in dp.rigidity_monomials()}
    sample = random.Random(61).sample(_eligible_sets(), 8)
    for vs in sorted(rigid) + sample:
        assert dp._restricted_coefficients(vs) == restricted_coefficients_reference(vs), vs


def _counting_delta(monkeypatch, delta):
    calls = []

    def counted(u):
        calls.append(u)
        return delta(u)

    monkeypatch.setattr(dp, "_coeff_cache", {})
    monkeypatch.setattr(dp, "a11_delta", counted)
    return calls


def test_interpolation_evaluates_delta_once_per_unknown(monkeypatch):
    calls = _counting_delta(monkeypatch, dp.a11_delta)
    vs = (5, 11, 12)
    table = dp._restricted_coefficients(vs)
    assert len(calls) == len(dp._weight_132_exponents(vs)) == 15
    assert table == restricted_coefficients_reference(vs)


def test_inconsistent_system_raises_without_redrawing(monkeypatch):
    # a constant is not a weight-132 polynomial, so the solution is not integral
    calls = _counting_delta(monkeypatch, lambda u: 1)
    vs = (2, 11, 12)
    with pytest.raises(ArithmeticError, match="non-integral"):
        dp._restricted_coefficients(vs)
    assert len(calls) == len(dp._weight_132_exponents(vs))
