"""The discriminant of the A_11 family s^12 + u2 s^10 + u3 s^9 + ... + u12.

delta(u2, ..., u12) is the discriminant of the monic degree-12 polynomial with
zero root sum; it is quasihomogeneous of weight 132 for wt(u_i) = i.  Exact
evaluation goes through the Sylvester resultant of (f, f') with fraction-free
elimination.  Specific coefficients are recovered by fraction-free
interpolation after setting all other variables to zero: one integer
Gauss-Jordan elimination of the monomial values at the sample points, then
an exact division of its adjugate times the resultant values.
"""

from __future__ import annotations

import operator
import random

from .linalg import adjugate, det

WEIGHTS = {i: i for i in range(2, 13)}
TOTAL_WEIGHT = 132


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deg(c):
    return len(c) - 1


def poly_derivative(c):
    return [i * c[i] for i in range(1, len(c))]


def sylvester_resultant(f, g):
    """Resultant of integer polynomials via Bareiss on the Sylvester matrix."""
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return 0
    n, m = poly_deg(f), poly_deg(g)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, a in enumerate(reversed(f)):
            mat[i][i + j] = a
    for i in range(n):
        for j, a in enumerate(reversed(g)):
            mat[m + i][i + j] = a
    return det(mat, operator.floordiv)


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), exact."""
    f = poly_trim(f)
    n = poly_deg(f)
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = sylvester_resultant(f, poly_derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val = sign * res
    lc = f[-1]
    if val % lc:
        raise AssertionError("resultant not divisible by leading coefficient")
    return val // lc


def a11_poly(u):
    """Coefficient list of s^12 + u2 s^10 + u3 s^9 + ... + u12 from {i: u_i}."""
    c = [0] * 13
    c[12] = 1
    for i, v in u.items():
        if not 2 <= i <= 12:
            raise ValueError(f"u_{i} is not a coordinate of the family")
        c[12 - i] = v
    return c


def a11_delta(u):
    """delta(u2..u12): discriminant of the A_11 family at the point u."""
    return discriminant(a11_poly(u))


class WeightedMonomial:
    """Monomial in u2..u12 with wt(u_i) = i."""

    def __init__(self, exponents):
        self.exponents = {int(i): int(e) for i, e in exponents.items() if e}
        for i, e in self.exponents.items():
            if not 2 <= i <= 12:
                raise ValueError(f"u_{i} is not a coordinate of the family")
            if e < 0:
                raise ValueError(f"negative exponent {e} on u_{i}")

    @property
    def weight(self):
        return sum(i * e for i, e in self.exponents.items())

    def __repr__(self):
        if not self.exponents:
            return "1"
        parts = []
        for i in sorted(self.exponents, reverse=True):
            e = self.exponents[i]
            parts.append(f"u{i}" + (f"^{e}" if e > 1 else ""))
        return " ".join(parts)

    @staticmethod
    def parse(text):
        """Parse "u12^9 u11^2 u2" style monomial text."""
        exps = {}
        for tok in text.replace("*", " ").split():
            if not tok.startswith("u"):
                raise ValueError(f"bad monomial factor {tok!r}")
            body = tok[1:]
            if "^" in body:
                var, e = body.split("^", 1)
            else:
                var, e = body, "1"
            i, e = int(var), int(e)
            exps[i] = exps.get(i, 0) + e
        return WeightedMonomial(exps)


def rigidity_monomials():
    """The 11 monomials whose nonvanishing drives the coordinate rigidity:
    u12^11 and u12^(11-i) u11^i u_i for i = 11, ..., 2."""
    out = [WeightedMonomial({12: 11})]
    for i in range(11, 1, -1):
        exps = {12: 11 - i, 11: i}
        exps[i] = exps.get(i, 0) + 1
        out.append(WeightedMonomial(exps))
    return out


def _weight_132_exponents(variables):
    """All exponent tuples over the given variables with weight exactly 132
    and total degree <= 22 (the degree of the discriminant)."""
    variables = sorted(variables)
    out = []

    def rec(idx, remaining, degree, acc):
        if idx == len(variables):
            if remaining == 0:
                out.append(tuple(acc))
            return
        v = variables[idx]
        maxe = min(remaining // v, 22 - degree)
        if idx == len(variables) - 1:
            if remaining % v == 0 and remaining // v <= maxe:
                out.append(tuple(acc + [remaining // v]))
            return
        for e in range(maxe + 1):
            rec(idx + 1, remaining - e * v, degree + e, acc + [e])

    rec(0, TOTAL_WEIGHT, 0, [])
    return out


_coeff_cache = {}


def a11_coeff(m: WeightedMonomial):
    """Exact coefficient of the monomial in delta(u2..u12).

    Zero immediately unless the weight is 132 (quasihomogeneity).  Otherwise
    all variables not in the monomial are set to zero and the coefficients of
    the restricted polynomial identity are recovered by solving an exact
    linear system against resultant evaluations.
    """
    if m.weight != TOTAL_WEIGHT:
        return 0
    variables = tuple(sorted(m.exponents))
    table = _restricted_coefficients(variables)
    target = tuple(m.exponents[v] for v in sorted(m.exponents))
    return table.get(target, 0)


def _restricted_coefficients(variables):
    """{exponents: coefficient} of delta restricted to ``variables``, exactly.

    The k unknown coefficients solve A c = delta at k sample points, with A
    the monomial values.  Points are drawn from 1..19: a zero coordinate or
    a sign flip x_i -> (-1)^i x_i makes two rows proportional.  Singularity
    is decided by ``adjugate`` before any resultant is evaluated, so exactly
    k values of delta are computed; then c = adj delta / d, exactly.
    """
    if variables in _coeff_cache:
        return _coeff_cache[variables]
    exps = _weight_132_exponents(variables)
    k = len(exps)
    rng = random.Random(0xA11)
    d = 0
    while not d:  # singular sample: draw fresh points
        points = {}
        while len(points) < k:
            points[tuple(rng.randint(1, 19) for _ in variables)] = None
        d, adj = adjugate([[_monomial_eval(e, p) for e in exps] for p in points])
    values = [a11_delta(dict(zip(variables, p))) for p in points]
    table = {}
    for e, row in zip(exps, adj):
        c, r = divmod(sum(x * y for x, y in zip(row, values)), d)
        if r:
            raise ArithmeticError(
                f"non-integral coefficient of {e}: the exponent set is incomplete"
            )
        if c:
            table[e] = c
    _coeff_cache[variables] = table
    return table


def _monomial_eval(exps, point):
    out = 1
    for e, x in zip(exps, point):
        out *= x**e
    return out


def reconstructed_delta_eval(variables, point):
    """Evaluate the interpolated restricted delta at a fresh point (oracle
    cross-check against the direct resultant evaluation)."""
    table = _restricted_coefficients(tuple(sorted(variables)))
    out = 0
    for e, c in table.items():
        out += c * _monomial_eval(e, point)
    return out


def quasihomogeneity_check(samples: int = 100, bound: int = 20, seed: int = 1932):
    """delta(lambda^2 u2, ..., lambda^12 u12) = lambda^132 delta(u), exactly."""
    rng = random.Random(seed)
    for _ in range(samples):
        u = {i: rng.randint(-bound, bound) for i in range(2, 13)}
        lam = 0
        while lam == 0:
            lam = rng.randint(-4, 4)
        base = a11_delta(u)
        scaled = a11_delta({i: lam**i * v for i, v in u.items()})
        if scaled != lam**TOTAL_WEIGHT * base:
            return False
    return True
