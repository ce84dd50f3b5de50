import random
from fractions import Fraction

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat import zlattice as zl
from eisenlat.eisenstein import OMEGA
from eisenlat.hermitian import (
    chain,
    det_e,
    diag,
    e8e,
    hyp,
    in_theta_dual,
    lambda10,
    signature,
    z_realization,
)
from eisenlat.linalg import identity, pack
from eisenlat.zlattice import ZGram, an_vanishing_gram, determinant, inertia, is_even
from test_linalg import det


def inertia_oracle(G):
    """Independent count of eigenvalue signs (floating, small well-conditioned
    integer matrices only)."""
    w = np.linalg.eigvalsh(np.array(G.g, dtype=float))
    tol = 1e-8 * max(1.0, float(np.abs(w).max()))
    return (
        int((w > tol).sum()),
        int((np.abs(w) <= tol).sum()),
        int((w < -tol).sum()),
    )


def det_oracle(G):
    """Fraction Gaussian elimination, independent of the Bareiss route."""
    n = G.n
    a = [[Fraction(G.g[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            c = a[i][k] * inv
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def random_gram(rng, n, bound=4):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rng.randint(-bound, bound)
            g[i][j] = g[j][i] = v
    return ZGram(g)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def congruent(G, P):
    n = G.n
    rows = [
        [
            sum(P[k][i] * G.g[k][l] * P[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ZGram(rows)


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        ZGram([[1, 2], [3, 1]])


def test_inertia_examples():
    assert inertia(zl.e8_gram()) == (8, 0, 0)
    assert inertia(zl.a2_gram()) == (2, 0, 0)
    assert inertia(zl.ii22_gram()) == (2, 0, 2)


def test_inertia_against_oracle_random():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 6)
        G = random_gram(rng, n)
        assert inertia(G) == inertia_oracle(G)


def test_inertia_congruence_invariance():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 5)
        G = random_gram(rng, n)
        P = random_unimodular(rng, n)
        assert inertia(congruent(G, P)) == inertia(G)


def test_determinant_examples():
    assert determinant(zl.e8_gram()) == 1
    assert determinant(zl.ii22_gram()) == 1
    assert determinant(zl.a2_gram()) == 3


def test_determinant_against_oracle_random():
    rng = random.Random(107)
    for _ in range(120):
        n = rng.randint(1, 6)
        G = random_gram(rng, n)
        assert determinant(G) == det_oracle(G)


def test_determinant_congruence_invariance():
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(1, 5)
        G = random_gram(rng, n)
        P = random_unimodular(rng, n)
        assert determinant(congruent(G, P)) == determinant(G)


@st.composite
def symmetric_forms(draw, max_n=7):
    """A symmetric int form of rank <= 7, rank 0 included; if asked, the
    diagonal is zeroed (hyperbolic pairs) and one index is doubled (singular)."""
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.integers(-2, 2), st.integers(-(2**40), 2**40))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    if 0 < n < max_n and draw(st.booleans()):
        s = list(range(n)) + [draw(st.integers(0, n - 1))]
        g = [[g[i][j] for j in s] for i in s]
    return ZGram(g)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(symmetric_forms())
@example(ZGram([]))
@example(ZGram([[0, 1], [1, 0]]))
@example(zl.ii22_gram())
@example(ZGram([[0, 0], [0, 0]]))
@example(ZGram([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
def test_determinant_matches_bareiss(G):
    assert determinant(G) == det(G.g, operator.floordiv)


def test_is_even():
    assert is_even(zl.e8_gram())
    assert not is_even(ZGram([[3]]))
    assert is_even(zl.ii22_gram())


def test_an_vanishing_shape():
    G = an_vanishing_gram(3)
    assert G.n == 6
    # a_i^2 = b_i^2 = 2, a_i.b_i = -1, a_2.b_1 = 1
    assert G.g[0][0] == 2 and G.g[3][3] == 2
    assert G.g[0][1] == -1 and G.g[3][4] == -1
    assert G.g[0][3] == -1
    assert G.g[1][3] == 1
    assert G.g[0][4] == 0


def test_an_vanishing_radicals():
    for n in range(1, 12):
        rad = inertia(an_vanishing_gram(n))[1]
        assert rad == (2 if n in (5, 11) else 0), n


def test_an_vanishing_12_negative_part():
    assert inertia(an_vanishing_gram(12))[2] >= 4


def test_an_vanishing_bad_input():
    with pytest.raises(ValueError):
        an_vanishing_gram(0)


def test_tensor_of_cycle_isometries_matches_vanishing_count():
    # V(k) as A_{k-1} with its order-k rotation: sanity on ranks
    G3 = zl.a2_gram()  # A_2 with its order-3 Coxeter rotation
    S3 = zl.a2_rotation()
    H = zl.hermitian_from_z(G3, S3)
    assert H.n == 1
    assert H.g[0][0].a == 3


def test_hermitian_from_z_rejects_bad_isometry():
    G = zl.a2_gram()
    with pytest.raises(ValueError):
        zl.hermitian_from_z(G, ((1, 0), (0, 1)))  # fixes everything
    with pytest.raises(ValueError):
        zl.hermitian_from_z(G, ((0, 1), (1, 0)))  # order 2
    with pytest.raises(ValueError):
        zl.hermitian_from_z(ZGram([[2, 0], [0, 2]]), ((0, -1), (1, -1)))  # not isometry


def test_hermitian_from_z_odd_rank():
    with pytest.raises(ValueError):
        zl.hermitian_from_z(ZGram([[2]]), ((1,),))


def test_roundtrip_e8():
    Z = z_realization(e8e())
    H = zl.hermitian_from_z(Z, pack(identity(4, OMEGA)))
    assert H == e8e()


def test_roundtrip_diag3():
    Z = z_realization(diag([3]))
    assert zl.hermitian_from_z(Z, pack(identity(1, OMEGA))) == diag([3])


@pytest.mark.parametrize(
    "source",
    [e8e, hyp, lambda: chain(5), lambda: diag([3, -3]), lambda10],
    ids=["e8e", "hyp", "chain5", "diag3-3", "lambda10"],
)
def test_recovery_in_scrambled_coordinates(source):
    # conjugate the interleaved omega-action on the Z-realization by random
    # unimodular integer matrices: the recovered Hermitian lattice keeps the
    # source's invariants, and its own Z-realization gives it back exactly
    L = source()
    rng = random.Random(131)
    Z = z_realization(L)
    S0 = pack(identity(L.n, OMEGA))
    for _ in range(10):
        U = random_unimodular(rng, Z.n)
        G2 = congruent(Z, U)
        # S in the new coordinates: U^-1 S0 U
        Uinv = _int_inverse(U)
        S = _int_mul(_int_mul(Uinv, [list(r) for r in S0]), U)
        H = zl.hermitian_from_z(G2, S)
        assert H.n == L.n
        assert det_e(H) == det_e(L)
        assert signature(H) == signature(L)
        assert in_theta_dual(H) == in_theta_dual(L)
        assert zl.hermitian_from_z(z_realization(H), S0) == H


def test_recovery_needs_a_positive_rank():
    # the rank-0 lattice has no E-basis to recover and no isometry to check
    with pytest.raises(ValueError, match="rank must be positive"):
        zl.hermitian_from_z(ZGram([]), ())


def _int_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def _int_inverse(P):
    n = len(P)
    a = [
        [Fraction(P[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        d = a[k][k]
        a[k] = [x / d for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                c = a[i][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = a[i][n + j]
            assert v.denominator == 1
            row.append(int(v))
        out.append(row)
    return out


def test_basis_completion_for_skew_isometry():
    # order-3 fixed-point-free S whose pair-span Z{e1, S e1} has index 13, so
    # the Hermite completion must enlarge it; the recovered rank-1 form must
    # have the same underlying Z-lattice invariants
    S = ((3, -1), (13, -4))
    G = ZGram([[728, -196], [-196, 56]])  # sum of S^k^T (2I) S^k
    H = zl.hermitian_from_z(G, S)
    assert H.n == 1
    Z = z_realization(H)
    assert determinant(Z) == determinant(G) == 2352
    assert inertia(Z) == inertia(G) == (2, 0, 0)
    # h(v, v) = (3/2) |v|^2 and the shortest E-generator here is e2 of norm 56
    assert H.g[0][0].a == 84
