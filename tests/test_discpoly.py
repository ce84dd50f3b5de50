import math
import operator
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat import discpoly as dp
from eisenlat.linalg import adjugate
from test_linalg import det, solve

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


def sylvester_matrix(f, g):
    """The (deg f + deg g)-square Sylvester matrix of trimmed f and g: deg g
    shifted rows of f's coefficients, then deg f shifted rows of g's."""
    n, m = dp.poly_deg(f), dp.poly_deg(g)
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, a in enumerate(reversed(f)):
            mat[i][i + j] = a
    for i in range(n):
        for j, a in enumerate(reversed(g)):
            mat[m + i][i + j] = a
    return mat


def sylvester_resultant(f, g):
    """Resultant of integer polynomials via Bareiss on the Sylvester matrix."""
    f, g = dp.poly_trim(f), dp.poly_trim(g)
    if not f or not g:
        return 0
    n, m = dp.poly_deg(f), dp.poly_deg(g)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    return det(sylvester_matrix(f, g), operator.floordiv)


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


def restricted_coefficients_adjugate_reference(variables):
    """The integer-adjugate solve at points from 1..19 (the interpolation before
    the multimodular one): singularity decided before any delta is evaluated,
    then c = adj(V) delta / det(V), exactly."""
    exps = dp._weight_132_exponents(variables)
    k = len(exps)
    rng = random.Random(0xA11)
    d = 0
    while not d:
        points = {}
        while len(points) < k:
            points[tuple(rng.randint(1, 19) for _ in variables)] = None
        d, adj = adjugate([[dp._monomial_eval(e, p) for e in exps] for p in points])
    values = [dp.a11_delta(dict(zip(variables, p))) for p in points]
    table = {}
    for e, row in zip(exps, adj):
        c, r = divmod(sum(x * y for x, y in zip(row, values)), d)
        assert not r, f"non-integral coefficient of {e}"
        if c:
            table[e] = c
    return table


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
    # each factor is checked before equal variables merge, and a zero exponent does not hide a bad variable
    with pytest.raises(ValueError, match="negative exponent -1 on u_12"):
        dp.WeightedMonomial.parse("u12^12 u12^-1")
    for text in ("u1 u1^-1 u12^11", "u13^0 u12^11"):
        with pytest.raises(ValueError, match="is not a coordinate"):
            dp.WeightedMonomial.parse(text)
    with pytest.raises(ValueError, match="u_13 is not a coordinate"):
        dp.WeightedMonomial({13: 0, 12: 11})
    assert str(dp.WeightedMonomial.parse("u12^0 u12^11")) == "u12^11"


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
    assert sylvester_resultant(f, g) == sympy_resultant(f, g)


@BOUNDED
@given(polys.filter(lambda c: len(c) >= 3))
@example([0, 0, -3])
@example([0, 4, 0, 2])
@example([1, 0, -1])  # the leading coefficients -1, 2, 3 and -7
@example([3, -1, 0, 2])
@example([1, 2, -5, 0, 3])
@example([-2, 5, 1, -7])
@example([6, -9, 0, 3])  # 3 (s - 1)^2 (s + 2): a repeated root, lc 3
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


def test_multimodular_tables_match_the_adjugate_reference():
    # every set the query workloads draw from (those with a monomial using all their
    # variables) is among the eligible sets, and so are the rigidity sets
    rigid = {tuple(sorted(m.exponents)) for m in dp.rigidity_monomials()}
    sets = sorted(set(_eligible_sets()) | rigid)
    assert sum(any(all(e) for e in dp._weight_132_exponents(vs)) for vs in _eligible_sets()) == 147
    for vs in sets:
        assert dp._restricted_coefficients(vs) == restricted_coefficients_adjugate_reference(vs), vs


def test_monomial_of_degree_above_22_has_no_unknowns_and_coefficient_zero():
    # u2^66 has weight 132 but degree 66 > deg delta = 22: the system is 0 x 0
    assert dp._weight_132_exponents((2,)) == []
    assert dp.a11_coeff(dp.WeightedMonomial({2: 66})) == 0


def test_unknowns_are_capped_before_any_system_is_built():
    m = dp.WeightedMonomial.parse("u2 u3 u4 u5 u6 u7 u8 u9 u10 u11^6 u12")
    with pytest.raises(ValueError, match=f"more than {dp.MAX_UNKNOWNS} unknown"):
        dp.a11_coeff(m)
    largest = max(
        len(dp._weight_132_exponents(vs)) for r in range(1, 5) for vs in combinations(range(2, 13), r)
    )
    assert largest == 410 <= dp.MAX_UNKNOWNS


def test_permanent_bound_from_the_sylvester_row_sums():
    # every entry of Sylvester(f, f') is one monomial c u_i; with every u_i = 1 the
    # entries are the c, and the permanent of |c| is at most the product of row sums
    f = dp.a11_poly({i: 1 for i in range(2, 13)})
    rows = sylvester_matrix(f, dp.poly_derivative(f))
    sums = [sum(abs(x) for x in row) for row in rows]
    assert sorted(sums) == [12] * 11 + [67] * 12
    assert math.prod(sums) == dp.COEFF_BOUND < 2**113
    assert all(sympy.isprime(p) and p < 2**31 for p in dp.PRIMES)
    assert len(set(dp.PRIMES)) == len(dp.PRIMES)
    assert math.prod(dp.PRIMES) > 2 * dp.COEFF_BOUND


def test_coefficient_beyond_the_bound_raises(monkeypatch):
    monkeypatch.setattr(dp, "_coeff_cache", {})
    monkeypatch.setattr(dp, "COEFF_BOUND", 12**12 - 1)
    with pytest.raises(ArithmeticError, match="permanent bound"):
        dp._restricted_coefficients((12,))


@BOUNDED
@given(st.dictionaries(st.integers(2, 12), st.integers(-(2**40), 2**40), min_size=1))
@example({12: 1})
@example({i: -1 for i in range(2, 13)})
@example({2: 3, 3: 0, 12: 0})  # a zero column: f = s^12 + 3 s^10 has a multiple root
def test_multiplication_by_f_prime_has_determinant_delta(u):
    variables = tuple(sorted(u))
    points = np.array([[[u[v] % p for v in variables]] for p in dp.PRIMES], dtype=np.int64)
    expected = dp.a11_delta(u)
    assert dp._delta_mod_p(variables, points)[:, 0].tolist() == [expected % p for p in dp.PRIMES]


def _counting_evaluator(monkeypatch, delta):
    """Record the points of every call to the batched delta evaluator."""
    calls = []

    def counted(variables, points):
        calls.append(points.shape)
        return delta(variables, points)

    monkeypatch.setattr(dp, "_coeff_cache", {})
    monkeypatch.setattr(dp, "_delta_mod_p", counted)
    return calls


def test_interpolation_evaluates_delta_in_one_batch_of_k_plus_one_points(monkeypatch):
    calls = _counting_evaluator(monkeypatch, dp._delta_mod_p)
    vs = (5, 11, 12)
    table = dp._restricted_coefficients(vs)
    k = len(dp._weight_132_exponents(vs))
    assert k == 15
    assert calls == [(len(dp.PRIMES), k + 1, len(vs))]
    assert table == restricted_coefficients_reference(vs)


def test_inconsistent_system_raises_without_redrawing(monkeypatch):
    # a constant is not a weight-132 polynomial, so the interpolant misses the check point
    calls = _counting_evaluator(monkeypatch, lambda variables, points: np.ones(points.shape[:2], dtype=np.int64))
    vs = (2, 11, 12)
    with pytest.raises(ArithmeticError, match="incomplete"):
        dp._restricted_coefficients(vs)
    assert calls == [(len(dp.PRIMES), len(dp._weight_132_exponents(vs)) + 1, len(vs))]


def test_coinciding_nodes_are_refused_before_delta_is_evaluated(monkeypatch):
    # with the bases 2 and 4, the node of u6^a u12^b is 2^(a + 2b) = 2^22, as 6a + 12b = 132
    calls = _counting_evaluator(monkeypatch, dp._delta_mod_p)
    monkeypatch.setattr(dp, "_BASES", (2, 4))
    with pytest.raises(ArithmeticError, match="u6 u12"):
        dp._restricted_coefficients((6, 12))
    assert calls == []


def test_a_set_without_u11_and_u12_is_not_sampled(monkeypatch):
    # u11 = u12 = 0 makes f = s^12 + ... + u10 s^2 = s^2 h(s): 0 is a double root
    calls = _counting_evaluator(monkeypatch, dp._delta_mod_p)
    assert dp._restricted_coefficients((2, 5, 10)) == {}
    assert calls == []


def test_delta_vanishes_when_u11_and_u12_do():
    rng = random.Random(67)
    for _ in range(50):
        u = {i: rng.choice((-1, 1)) * rng.randint(1, 40) for i in range(2, 11)}
        assert dp.a11_delta({**u, 11: 0, 12: 0}) == 0
