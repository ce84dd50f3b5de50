"""Property tests of the shared exact linear algebra, with sympy as the oracle.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same cases.
"""

import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from eisenlat.eisenstein import UNITS, E, EisensteinInt, QOmega
from eisenlat.linalg import det, f3_rref, inverse, kernel, mat_mul, rref, solve

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None, database=None)

W = sympy.Symbol("w")

# small entries, so singular matrices and nontrivial kernels come up often
small = st.integers(-2, 2)
ints = st.integers(-9, 9)
e_ints = st.builds(E, ints, ints)
fractions = st.builds(Fraction, small, st.integers(1, 3))
qomegas = st.builds(QOmega, fractions, fractions)


def matrices(elements, rows=(1, 4), cols=(1, 5)):
    shape = st.tuples(st.integers(*rows), st.integers(*cols))
    return shape.flatmap(
        lambda s: st.lists(
            st.lists(elements, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]
        )
    )


def square(elements, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def to_sympy_e(x):
    return x.a + x.b * W


def from_sympy_e(expr):
    """a + b*w from a polynomial in w, reduced by w^2 + w + 1."""
    p = sympy.Poly(sympy.rem(sympy.expand(expr), W**2 + W + 1, W), W)
    return E(int(p.coeff_monomial(1)), int(p.coeff_monomial(W)))


def companion(a):
    """Q-matrix of a Q(w)-matrix, a + b*w acting as [[a, -b], [b, a - b]]."""
    out = []
    for row in a:
        out.append([y for x in row for y in (x.a, -x.b)])
        out.append([y for x in row for y in (x.b, x.a - x.b)])
    return sympy.Matrix(out)


def field_rank(a):
    if isinstance(a[0][0], QOmega):
        r = companion(a).rank()
        assert r % 2 == 0
        return r // 2
    return sympy.Matrix(a).rank()


def identity_like(a):
    zero = a[0][0] * 0
    return tuple(tuple(zero + (i == j) for j in range(len(a))) for i in range(len(a)))


@BOUNDED
@given(square(ints, max_n=6))
def test_int_det_matches_sympy(a):
    assert det(a, operator.floordiv) == sympy.Matrix(a).det()


@BOUNDED
@given(square(e_ints, max_n=4))
def test_e_det_matches_sympy(a):
    m = DomainMatrix.from_Matrix(sympy.Matrix([[to_sympy_e(x) for x in row] for row in a]))
    assert det(a, EisensteinInt.exact_div) == from_sympy_e(m.domain.to_sympy(m.det()))


@BOUNDED
@given(matrices(ints), st.integers(1, 4), st.data())
def test_int_mat_mul_matches_sympy(a, m, data):
    b = data.draw(st.lists(st.lists(ints, min_size=m, max_size=m), min_size=len(a[0]), max_size=len(a[0])))
    assert sympy.Matrix(mat_mul(a, b)) == sympy.Matrix(a) * sympy.Matrix(b)


@BOUNDED
@given(st.one_of(square(fractions), square(qomegas, max_n=4)), st.data())
def test_solve_and_inverse(a, data):
    n = len(a)
    b = data.draw(st.lists(st.sampled_from([x for row in a for x in row]), min_size=n, max_size=n))
    if field_rank(a) < n:
        with pytest.raises(ValueError):
            solve(a, b)
        with pytest.raises(ValueError):
            inverse(a)
        return
    x = solve(a, b)
    assert mat_mul(a, [[y] for y in x]) == tuple((y,) for y in b)
    assert mat_mul(a, inverse(a)) == identity_like(a)


@BOUNDED
@given(st.one_of(matrices(fractions), matrices(qomegas, rows=(1, 3), cols=(1, 4))))
def test_kernel_vectors_and_dimension(a):
    basis = kernel(a)
    assert len(basis) == len(a[0]) - field_rank(a)
    zero = a[0][0] * 0
    for v in basis:
        assert all(y == (zero,) for y in mat_mul(a, [[x] for x in v]))
    rows = [list(r) for r in a]
    assert len(rref(rows)) == field_rank(a)


@BOUNDED
@given(matrices(st.integers(-4, 4), rows=(1, 5), cols=(1, 6)))
def test_f3_rank_matches_sympy(a):
    F = GF(3)
    expected = DomainMatrix([[F(x) for x in row] for row in a], (len(a), len(a[0])), F).rank()
    assert len(f3_rref([list(r) for r in a])) == expected


@BOUNDED
@given(e_ints.filter(bool))
def test_canonical_unit_puts_x_in_the_first_sextant(x):
    u = x.canonical_unit()
    assert u in UNITS
    y = u * x
    assert 0 <= y.b < y.a
    assert x.canonical_associate() == y


def test_canonical_unit_of_zero_is_undefined():
    with pytest.raises(ValueError):
        E(0).canonical_unit()
