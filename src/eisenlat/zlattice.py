"""Integer lattices given by symmetric Gram matrices.

Everything is exact and fraction-free: the inertia, determinant and rank of
a form are read from the pivot minors of the elimination of Hermitian forms,
``linalg.herm_eliminate``, run on the integer entries.  Also holds the
constructors for the A_n vanishing lattices of cuspidal fourfold
degenerations and the recovery of a Hermitian E-structure from a Z-lattice
with a fixed-point-free isometry S of order 3.  That recovery reads its
E-basis off one Hermite normal form over E: F(v) = v - w Sv maps Z^n into
E^n, E-linearly since F(Sv) = w F(v) follows from S^2 = -S - I, and
injectively since the a-part of F(v) is v.
"""

from __future__ import annotations

from .eisenstein import EisensteinInt
from .hnf import hnf_columns_e
from .linalg import herm_eliminate, identity, mat_mul


class ZGram:
    """Symmetric n x n integer Gram matrix."""

    __slots__ = ("n", "g")

    def __init__(self, rows):
        g = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        self.n = n
        self.g = g

    def __repr__(self):
        return f"ZGram({[list(r) for r in self.g]})"

    def __eq__(self, other):
        return isinstance(other, ZGram) and self.g == other.g

    def __hash__(self):
        return hash(self.g)

    def to_json(self):
        return {"n": self.n, "g": [list(r) for r in self.g]}


def pivot_minors(rows):
    """The pivot minors D_1..D_r of a symmetric int form, r its rank: those of
    ``herm_eliminate`` on the same entries read as rational elements of E."""
    return herm_eliminate([[EisensteinInt(x) for x in row] for row in rows])


def invariants(n, minors):
    """((positive, radical, negative), determinant) of an n x n form from its pivot minors.

    The minors are those of ``herm_eliminate`` on a Hermitian form over E,
    a symmetric int form among them.  The k-th pivot is D_k / D_(k-1),
    whose sign is that of D_k D_(k-1).  Every congruence of the
    elimination is by a unimodular matrix P and scales the determinant by
    det(P) conj(det(P)) = 1, so the determinant is D_n at full rank, 0
    below it, and 1 for n = 0.
    """
    r = len(minors)
    pos = sum(prev * d > 0 for prev, d in zip([1] + minors, minors))
    det = 0 if r < n else minors[-1] if minors else 1
    return (pos, n - r, r - pos), det


def inertia(G: ZGram):
    """Exact inertia (positive, radical, negative) of the rational form."""
    return invariants(G.n, pivot_minors(G.g))[0]


def determinant(G: ZGram):
    """Exact determinant, the last pivot minor of the elimination."""
    return invariants(G.n, pivot_minors(G.g))[1]


def is_even(G: ZGram):
    return all(G.g[i][i] % 2 == 0 for i in range(G.n))


def an_vanishing_gram(n: int) -> ZGram:
    """Gram of the rank-2n vanishing lattice of an A_n cusp degeneration.

    Basis a_1..a_n, b_1..b_n with a_i^2 = b_i^2 = 2, a_i.a_{i+1} = -1,
    b_i.b_{i+1} = -1, a_i.b_i = -1, a_i.b_{i-1} = 1, all else zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 2 * n
    g = [[0] * m for _ in range(m)]

    def put(i, j, v):
        g[i][j] = v
        g[j][i] = v

    for i in range(n):
        put(i, i, 2)
        put(n + i, n + i, 2)
        if i + 1 < n:
            put(i, i + 1, -1)
            put(n + i, n + i + 1, -1)
        put(i, n + i, -1)
        if i >= 1:
            put(i, n + i - 1, 1)
    return ZGram(g)


def e8_gram() -> ZGram:
    """The even unimodular E8 root lattice (chain 1..7 with node 8 on node 5)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return ZGram(g)


def ii22_gram() -> ZGram:
    """II_{2,2} = (0 1; 1 0) + (0 1; 1 0)."""
    return ZGram([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def a2_gram() -> ZGram:
    return ZGram([[2, -1], [-1, 2]])


def a2_rotation():
    """Order-3 fixed-point-free isometry of the A2 root lattice (columns)."""
    return ((0, -1), (1, -1))


def hermitian_from_z(G: ZGram, S):
    """Recover the Hermitian E-lattice from a Z-lattice with w acting as S.

    S must be an isometry of G with S^3 = I fixing no nonzero vector; then
    h(x, y) = (1/2) [3 x.y - theta x.(S^-1 y - S y)] is an E-valued Hermitian
    form whose Z-realization returns G.  The E-basis comes from the map
    F(v) = v - w Sv of Z^n into E^n: F(Sv) = w F(v) because S^2 = -S - I, so
    F is E-linear, and the a-part of F(v) is v, so F is injective.  The
    Hermite normal form over E of the columns F(e_j) is then an E-basis of
    F(Z^n), and the a-parts of its columns are an E-basis of Z^n.  For the
    standard action ``pack(w I)`` that is the standard basis e_0, e_2, ...
    """
    from .hermitian import HermGram

    n = G.n
    if n == 0:
        raise ValueError("rank must be positive to carry an E-structure")
    if n % 2 != 0:
        raise ValueError("rank must be even to carry an E-structure")
    S = tuple(tuple(int(x) for x in row) for row in S)
    if len(S) != n or any(len(r) != n for r in S):
        raise ValueError("isometry has wrong shape")
    St = tuple(zip(*S))
    if mat_mul(St, mat_mul(G.g, S)) != G.g:
        raise ValueError("S is not an isometry of G")
    S2 = mat_mul(S, S)
    I = identity(n, 1)
    if mat_mul(S2, S) != I:
        raise ValueError("S does not have order dividing 3")
    # no nonzero fixed vector <=> S^2 + S + I = 0
    for i in range(n):
        for j in range(n):
            if S2[i][j] + S[i][j] + I[i][j] != 0:
                raise ValueError("S has a nonzero fixed vector")

    F = [[EisensteinInt(I[i][j], -S[i][j]) for i in range(n)] for j in range(n)]
    B = tuple(tuple(x.a for x in col) for col in hnf_columns_e(F))
    # P = (x.y) and K = (x.(S^-1 y - S y)) on the basis, with S^-1 = S^2;
    # h = (1/2)(3P - theta K) with theta = 1 + 2w
    D = tuple(tuple(x - y for x, y in zip(r2, r)) for r2, r in zip(S2, S))
    BG = mat_mul(B, G.g)
    Bt = tuple(zip(*B))
    P = mat_mul(BG, Bt)
    K = mat_mul(mat_mul(BG, D), Bt)
    rows = []
    for Pi, Ki in zip(P, K):
        if any((3 * p - k) % 2 for p, k in zip(Pi, Ki)):
            raise ValueError("form is not E-valued on the extracted basis")
        rows.append([EisensteinInt((3 * p - k) // 2, -k) for p, k in zip(Pi, Ki)])
    return HermGram(rows)
