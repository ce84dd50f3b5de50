"""The discriminant of the A_11 family s^12 + u2 s^10 + u3 s^9 + ... + u12.

delta(u2, ..., u12) is the discriminant of the monic degree-12 polynomial with
zero root sum; it is quasihomogeneous of weight 132 for wt(u_i) = i.  Exact
evaluation reads the determinant of the Bezout matrix of (f, f') off the pivot
minors of the one Hermitian elimination (``zlattice.determinant``).  Specific
coefficients are recovered by multimodular interpolation after setting all
other variables to zero (Collins 1971): for each of four primes below 2^31,
delta is sampled at the points u_v = alpha_v^j of fixed prime bases alpha_v,
each value the determinant of multiplication by f' on Z[s]/(f), a 12 x 12
int64 elimination batched over all sample points, and the monomial values are
the powers of distinct integer nodes, so the system is a transposed
Vandermonde system solved in O(k^2) per prime (Zippel 1990).  The CRT of the
residues is exact because every coefficient of delta is bounded by the
permanent of the Sylvester matrix's coefficients, 12^11 67^12 < 2^113.
A set of variables without u11 and u12 is not sampled at all: its restriction
f = s^2 h(s) has 0 as a double root, so delta restricts to 0 there.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np

from .zlattice import ZGram, determinant

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


def discriminant(f):
    """disc(f) = det B / lc(f)^2, exact, with B the n x n Bezout matrix of f and f'.

    B holds the coefficients of (f(x) f'(y) - f(y) f'(x)) / (x - y), Hermite's
    Bezoutian (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*,
    2006): with g = f' and c(a, b) = f[a] g[b] - f[b] g[a], B[i][j] is the sum
    of c(i + j + 1 - k, k) over k <= min(i, j), so row by row
    B[i][j] = B[i - 1][j + 1] + c(j + 1, i), with B[-1] and B[i][n] zero.  It
    is a symmetric integer form whose determinant is lc(f)^2 disc(f).
    """
    f = poly_trim(f)
    n = poly_deg(f)
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    g = poly_derivative(f) + [0]
    bezout = []
    prev = [0] * (n + 1)
    for i in range(n):
        fi, gi = f[i], g[i]
        prev = [prev[j + 1] + f[j + 1] * gi - fi * g[j + 1] for j in range(n)] + [0]
        bezout.append(prev[:n])
    d, r = divmod(determinant(ZGram(bezout)), f[n] ** 2)
    if r:
        raise AssertionError("Bezout determinant not divisible by lc(f)^2")
    return d


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
        exponents = {int(i): int(e) for i, e in exponents.items()}
        for i, e in exponents.items():
            if not 2 <= i <= 12:
                raise ValueError(f"u_{i} is not a coordinate of the family")
            if e < 0:
                raise ValueError(f"negative exponent {e} on u_{i}")
        self.exponents = {i: e for i, e in exponents.items() if e}

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
        """Parse "u12^9 u11^2 u2" style monomial text; each factor is checked before equal variables merge."""
        exps = Counter()
        for tok in text.replace("*", " ").split():
            if not tok.startswith("u"):
                raise ValueError(f"bad monomial factor {tok!r}")
            var, hat, e = tok[1:].partition("^")
            exps.update(WeightedMonomial({int(var): int(e if hat else 1)}).exponents)
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


def _iter_weight_132_exponents(variables):
    """Exponent tuples over the sorted ``variables`` with weight exactly 132 and
    total degree <= 22 (the degree of the discriminant), lazily and in
    lexicographic order.  A branch whose remaining weight cannot fit in the
    degree left, even all on the heaviest variable, is cut."""
    variables = sorted(variables)
    if not variables:
        return
    top = variables[-1]
    last = len(variables) - 1

    def rec(idx, remaining, room):
        v = variables[idx]
        if idx == last:
            if remaining % v == 0 and remaining // v <= room:
                yield (remaining // v,)
            return
        for e in range(min(remaining // v, room) + 1):
            rest = remaining - e * v
            if rest <= (room - e) * top:
                for tail in rec(idx + 1, rest, room - e):
                    yield (e, *tail)

    yield from rec(0, TOTAL_WEIGHT, 22)


def _weight_132_exponents(variables):
    """All exponent tuples of ``_iter_weight_132_exponents``, as a list."""
    return list(_iter_weight_132_exponents(variables))


_coeff_cache = {}


def a11_coeff(m: WeightedMonomial):
    """Exact coefficient of the monomial in delta(u2..u12).

    Zero immediately unless the weight is 132 (quasihomogeneity).  Otherwise
    all variables not in the monomial are set to zero and the coefficients of
    the restricted polynomial are interpolated modulo a few primes and
    combined by the Chinese remainder theorem (``_restricted_coefficients``).
    """
    if m.weight != TOTAL_WEIGHT:
        return 0
    variables = tuple(sorted(m.exponents))
    table = _restricted_coefficients(variables)
    target = tuple(m.exponents[v] for v in sorted(m.exponents))
    return table.get(target, 0)


# Every Sylvester entry of (f, f') is one monomial c u_i, so a coefficient of
# delta is at most the permanent of the |c|, at most the product of the row
# sums: 11 rows of f with sum 12 and 12 rows of f' with sum 12 + 55 = 67.
# The bound is on delta itself, so it holds whatever route computes it.
COEFF_BOUND = 12**11 * 67**12
# The four largest primes below 2^31: residues and their products stay below
# 2^62, and the product of the primes (about 2^124) exceeds 2 * COEFF_BOUND.
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)
_P = np.array(PRIMES, dtype=np.int64)
_MODULUS = math.prod(PRIMES)
_CRT_WEIGHTS = tuple(_MODULUS // p * pow(_MODULUS // p, -1, p) for p in PRIMES)
# Every set of at most 4 variables fits (the largest has 410 unknowns); the
# 11-variable u2 u3 ... u11^6 u12 has 2,633,495, which no O(k^2) solve finishes.
MAX_UNKNOWNS = 500
# The base alpha_v of the sample points u_v = alpha_v^j, one prime per variable
# of a set in increasing order, so distinct exponent tuples have distinct nodes.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _restricted_coefficients(variables):
    """{exponents: coefficient} of delta restricted to ``variables``, exactly.

    The k unknown coefficients c_l solve sum_l c_l m_l^j = delta at the points
    u_v = alpha_v^j, j < k, where m_l = prod_v alpha_v^(e_lv) is the node of
    the l-th exponent tuple e_l and alpha_v is taken from ``_BASES``.  The
    nodes are distinct integers by unique factorisation; nodes that coincide
    mod a prime of ``PRIMES`` are refused before delta is evaluated.  For
    each prime, delta is evaluated at j = 0..k at once (``_delta_mod_p``) and
    the transposed Vandermonde system is solved mod p at j < k.  The
    interpolant must reproduce delta at j = k for every prime, or the
    exponent set is incomplete.  The residues combine by CRT to symmetric
    residues, exact because |c| <= COEFF_BOUND.

    Without u11 and u12 the table is empty and nothing is sampled: then
    f = s^12 + ... + u10 s^2 = s^2 h(s), so 0 is a double root and delta is
    identically 0.  The rule comes after the cap, so a set over the cap is
    still refused.
    """
    if variables in _coeff_cache:
        return _coeff_cache[variables]
    exps = list(itertools.islice(_iter_weight_132_exponents(variables), MAX_UNKNOWNS + 1))
    k = len(exps)
    if k > MAX_UNKNOWNS:
        raise ValueError(
            f"delta restricted to {_names(variables)} has more than {MAX_UNKNOWNS} unknown coefficients"
        )
    if max(variables, default=0) < 11:
        _coeff_cache[variables] = {}
        return _coeff_cache[variables]
    q = _P[:, None]
    bases = np.array(_BASES[: len(variables)], dtype=np.int64) % q
    nodes = _monomial_values(bases[:, None], np.array(exps, dtype=np.int64).reshape(k, len(variables)))[:, 0]
    if np.any(np.diff(np.sort(nodes), axis=1) == 0):
        raise ArithmeticError(f"two interpolation nodes of {_names(variables)} coincide mod a prime")
    points = [np.ones_like(bases)]
    for _ in range(k):
        points.append(points[-1] * bases % q)
    values = _delta_mod_p(variables, np.stack(points, axis=1))
    residues = _vandermonde_solve(nodes, values[:, :k])
    top = np.array([[pow(m, k, p) for m in row] for row, p in zip(nodes.tolist(), PRIMES)], dtype=np.int64)
    if np.any((residues * top % q).sum(axis=1) % _P != values[:, k]):
        raise ArithmeticError(
            f"the interpolant of delta on {_names(variables)} misses a sample point: "
            "the exponent set is incomplete"
        )
    table = {}
    half = _MODULUS // 2
    for e, column in zip(exps, residues.T.tolist()):
        c = sum(r * w for r, w in zip(column, _CRT_WEIGHTS)) % _MODULUS
        if c > half:
            c -= _MODULUS
        if abs(c) > COEFF_BOUND:
            raise ArithmeticError(f"coefficient of {e} exceeds the permanent bound")
        if c:
            table[e] = c
    _coeff_cache[variables] = table
    return table


def _names(variables):
    return " ".join(f"u{v}" for v in variables)


def _vandermonde_solve(nodes, values):
    """c with sum_l c[i, l] nodes[i, l]^j = values[i, j] mod PRIMES[i] for j < k,
    the nodes of each row distinct mod its prime (Zippel 1990).

    With M = prod_l (z - m_l) and q_l = M / (z - m_l), q_l(m_t) is 0 for
    t != l, so c_l = sum_j q_l[j] y_j / q_l(m_l).  One pass from the top
    produces the coefficients of every q_l by synthetic division,
    q_l[j - 1] = M[j] + m_l q_l[j], and accumulates both the sum and the
    Horner value q_l(m_l): O(k^2) operations and O(k) memory per prime.
    Every residue is below 2^31, so every product of two stays below 2^62.
    """
    q = _P[:, None]
    k = nodes.shape[1]
    master = np.zeros((len(PRIMES), k + 1), dtype=np.int64)  # M[k], M[k - 1], ..., M[0]
    master[:, 0] = 1
    for m in nodes.T:  # times (z - m)
        master[:, 1:] = (master[:, 1:] - m[:, None] * master[:, :-1]) % q
    quotient = np.ones_like(nodes)
    total = np.zeros_like(nodes)
    horner = np.zeros_like(nodes)
    for j in range(k - 1, -1, -1):
        total = (total + quotient * values[:, j, None]) % q
        horner = (horner * nodes + quotient) % q
        quotient = (master[:, k - j, None] + nodes * quotient) % q
    inverse = [[pow(h, -1, p) for h in row] for row, p in zip(horner.tolist(), PRIMES)]
    return total * np.array(inverse, dtype=np.int64) % q


def _monomial_values(points, powers):
    """V[i, j, l] = prod_v points[i, j, v] ** powers[l, v] mod PRIMES[i]."""
    q = _P[:, None, None]
    top = int(powers.max(initial=0))
    table = [np.ones_like(points)]
    for _ in range(top):
        table.append(table[-1] * points % q)
    table = np.stack(table, axis=-1)  # (P, count, nvars, top + 1)
    out = np.ones(points.shape[:2] + (len(powers),), dtype=np.int64)
    for v in range(points.shape[2]):
        out = out * table[:, :, v, powers[:, v]] % q
    return out


def _delta_mod_p(variables, points):
    """delta mod PRIMES[i] at each point of the (P, K, len(variables))
    residues ``points[i]``: det of multiplication by f' on Z[s]/(f), in the
    basis 1, s, ..., s^11.  f is monic of degree 12, so this is Res(f, f'), and
    the sign (-1)^(12*11/2) of the discriminant is +1."""
    q = _P[:, None]
    shape = points.shape[:2]
    low = np.zeros(shape + (12,), dtype=np.int64)  # f = s^12 + sum low[i] s^i
    fprime = np.zeros(shape + (12,), dtype=np.int64)
    fprime[..., 11] = 12
    for v, u in zip(variables, np.moveaxis(points, -1, 0)):
        low[..., 12 - v] = u
        if v < 12:
            fprime[..., 11 - v] = (12 - v) * u % q
    rows = [fprime]
    for _ in range(11):  # s^(j+1) f' mod f from s^j f' mod f
        prev = rows[-1]
        nxt = np.zeros_like(prev)
        nxt[..., 1:] = prev[..., :11]
        rows.append((nxt - prev[..., 11:] * low) % q[..., None])
    mats = np.stack(rows, axis=-2).reshape(-1, 12, 12)
    return _det_mod_p(mats, np.broadcast_to(q, shape).reshape(-1)).reshape(shape)


def _det_mod_p(a, p):
    """Determinants of the (B, n, n) residues ``a``, each mod its p[b] < 2^31.

    Division-free elimination: a row update a_i <- pv a_i - a_ik a_k (both
    products below 2^62) scales the determinant by the pivot pv, so the
    product of the diagonal is divided, at the end, by prod_k pv_k^(n-1-k):
    one modular inverse per matrix.  A zero pivot swaps in a lower row; a
    column with no nonzero entry left makes the determinant 0.
    """
    a = a.copy()
    n = a.shape[-1]
    q = p[:, None, None]
    diag = np.ones_like(p)
    scale = np.ones_like(p)
    prefix = np.ones_like(p)
    for k in range(n - 1):
        first = (a[:, k:, k] != 0).argmax(axis=1)
        moved = np.flatnonzero(first)
        if moved.size:
            below = first[moved] + k
            a[moved, k], a[moved, below] = a[moved, below], a[moved, k].copy()
            diag[moved] = (p[moved] - diag[moved]) % p[moved]
        pv = a[:, k, k]
        singular = pv == 0
        if singular.any():
            diag[singular] = 0
            pv = np.where(singular, 1, pv)
        a[:, k + 1 :, k + 1 :] = (
            a[:, k + 1 :, k + 1 :] * pv[:, None, None] - a[:, k + 1 :, k, None] * a[:, None, k, k + 1 :]
        ) % q
        diag = diag * pv % p
        prefix = prefix * pv % p
        scale = scale * prefix % p
    diag = diag * a[:, n - 1, n - 1] % p
    inverse = [pow(s, -1, m) for s, m in zip(scale.tolist(), p.tolist())]
    return diag * np.array(inverse, dtype=np.int64) % p


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
