import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import UNITS, E, ONE, THETA, ZERO, EisensteinInt
from eisenlat.hnf import hnf_columns_e, snf_e
from eisenlat.linalg import identity, mat_mul
from test_linalg import det

# derandomized, so every run draws the same cases
BOUNDED = settings(derandomize=True, max_examples=60, deadline=None, database=None)

e_small = st.builds(E, st.integers(-3, 3), st.integers(-3, 3))


def e_matrices(rows, cols):
    return st.lists(st.lists(e_small, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def unimodular(draw, n):
    """A unimodular n x n matrix over E: elementary row additions, then unit scalings."""
    m = [list(row) for row in identity(n, ONE)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), e_small), max_size=3 * n)):
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    units = draw(st.lists(st.sampled_from(UNITS), min_size=n, max_size=n))
    return [[u * x for x in row] for u, row in zip(units, m)]


@st.composite
def snf_cases(draw):
    """(C, U, V): an n x m matrix C with unimodular U (n x n) and V (m x m)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(e_matrices(n, m)), draw(unimodular(n)), draw(unimodular(m))


def random_e(rng, bound=4):
    return E(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_cols(rng, m, k):
    return [[random_e(rng) for _ in range(m)] for _ in range(k)]


def test_hnf_canonical_under_generator_shuffle():
    rng = random.Random(71)
    for _ in range(60):
        m = rng.randint(1, 4)
        k = rng.randint(1, 5)
        cols = random_cols(rng, m, k)
        H1 = hnf_columns_e(cols)
        shuffled = [list(c) for c in cols]
        rng.shuffle(shuffled)
        # also mix in redundant combinations of the generators
        if len(shuffled) >= 2:
            extra = [x + THETA * y for x, y in zip(shuffled[0], shuffled[1])]
            shuffled.append(extra)
        H2 = hnf_columns_e(shuffled)
        assert H1 == H2


def test_hnf_membership():
    rng = random.Random(73)
    for _ in range(40):
        m = rng.randint(1, 3)
        cols = random_cols(rng, m, 3)
        H = hnf_columns_e(cols)
        # every generator reduces to zero against the basis
        for c in cols:
            v = list(c)
            for col in H:
                p = next(i for i, x in enumerate(col) if x)
                if v[p]:
                    q, r = v[p].divmod(col[p])
                    if not r:
                        for i in range(m):
                            v[i] = v[i] - q * col[i]
            assert all(not x for x in v), (cols, H)


def test_hnf_pivots_canonical():
    rng = random.Random(79)
    for _ in range(40):
        cols = random_cols(rng, 3, 3)
        for col in hnf_columns_e(cols):
            p = next(x for x in col if x)
            assert 0 <= p.b < p.a  # canonical associate


def test_snf_transform_identities():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 4)
        C = [[random_e(rng) for _ in range(n)] for _ in range(n)]
        diag, L, Linv = snf_e(C)
        # L Linv = I
        prod = mat_mul(L, Linv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (ONE if i == j else ZERO)
        # divisibility chain on nonzero entries
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert not b % a
        # canonical associates on the diagonal
        for d in nz:
            assert 0 <= d.b < d.a
        # |det| is preserved up to units: norm of product of diag = norm det C
        diag_prod = ONE
        for d in diag:
            diag_prod = diag_prod * d
        assert diag_prod.norm() == det(C, EisensteinInt.exact_div).norm()


def test_snf_rectangular():
    rng = random.Random(89)
    C = [[random_e(rng) for _ in range(2)] for _ in range(4)]
    diag, L, Linv = snf_e(C)
    assert len(diag) == 2


def test_snf_divisibility_fold():
    # diag(2, 3) needs the coupling step: gcd 1, so SNF is (1, unit*6)
    C = [[E(2), ZERO], [ZERO, E(3)]]
    diag, L, Linv = snf_e(C)
    assert diag[0] == ONE
    assert diag[1].norm() == 36
    assert not diag[1] % diag[0]


def test_snf_theta_power_chain():
    # diag(theta^2, theta) reorders to (theta-assoc, theta^2-assoc)
    C = [[THETA * THETA, ZERO], [ZERO, THETA]]
    diag, _, _ = snf_e(C)
    assert diag[0].norm() == 3
    assert diag[1].norm() == 9
    assert not diag[1] % diag[0]


@BOUNDED
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(e_matrices(m, 3), unimodular(3))))
def test_hnf_invariant_under_unimodular_change_of_generators(case):
    A, U = case  # the generators are the 3 columns of the m x 3 matrix A
    cols = list(zip(*A))
    changed = list(zip(*mat_mul(A, U)))
    assert hnf_columns_e(changed) == hnf_columns_e(cols)


@BOUNDED
@given(snf_cases())
def test_snf_transforms_invert_and_diagonal_is_a_canonical_divisibility_chain(case):
    C, U, V = case
    diag, L, Linv = snf_e(C)
    assert mat_mul(L, Linv) == identity(len(C), ONE)
    nz = [d for d in diag if d]
    assert all(0 <= d.b < d.a for d in nz)
    assert all(not b % a for a, b in zip(nz, nz[1:]))
    assert diag == snf_e(mat_mul(mat_mul(U, C), V))[0]
