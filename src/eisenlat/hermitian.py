"""Hermitian E-lattices: Gram matrices over Z[w], inner products, invariants.

Vectors are columns and group elements act on the left, so a matrix M is an
isometry of the Gram G exactly when M^T G conj(M) = G, the Gram of M's
columns.  ``gram`` is the one Gram of a list of vectors, V G conj(V)^T
through ``linalg.mat_mul``, and ``pairings`` the one pairing of a vector v
with the basis, G conj(v) through ``linalg.mat_vec``.  The central
examples are built by the named constructors:

    lambda_()   rank 11, (3) + E8E + E8E + hyp, signature (10,1), det -3^6
    lambda10()  rank 10, E8E + E8E + hyp, the span of the braid roots
    e8e()       rank 4 chain, underlying Z-lattice E8
    hyp()       ((0, theta), (thetabar, 0)), underlying Z-lattice II_{2,2}
    chain(n)    3 on the diagonal, theta above it, thetabar below it

The determinant over E and the signature both come from one Hermitian
elimination of the Gram over E, ``linalg.herm_eliminate``.  The integral
real form pairs the basis (e1, w e1, e2, w e2, ...) by 2 Re <alpha, beta>;
the Z-realization alpha.beta = (2/3) Re <alpha, beta> is this form divided
by 3, which is integral exactly when every inner product lies in theta*E.
"""

from __future__ import annotations

from .eisenstein import (
    ONE,
    THETA,
    ZERO,
    EisensteinInt,
    e_gcd,
    is_associate,
    to_e,
)
from .linalg import herm_eliminate, mat_mul, mat_vec
from .zlattice import ZGram, invariants


class HermGram:
    """Conjugate-symmetric n x n matrix over E with rational-integer diagonal."""

    __slots__ = ("n", "g")

    def __init__(self, rows):
        g = tuple(tuple([x if type(x) is EisensteinInt else to_e(x) for x in row]) for row in rows)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i, row in enumerate(g):  # on the coordinates: conj(a + b w) = (a - b) - b w
            if row[i].b != 0:
                raise ValueError(f"diagonal entry {i} is not real")
            for j in range(i):
                x, y = row[j], g[j][i]
                if y.a != x.a - x.b or y.b != -x.b:
                    raise ValueError(f"not conjugate-symmetric at ({i},{j})")
        self.n = n
        self.g = g

    def __repr__(self):
        return f"HermGram({[[str(x) for x in r] for r in self.g]})"

    def __eq__(self, other):
        return isinstance(other, HermGram) and self.g == other.g

    def __hash__(self):
        return hash(self.g)

    def to_json(self):
        return {"n": self.n, "g": [[x.to_json() for x in row] for row in self.g]}

    @staticmethod
    def from_json(data):
        rows = data.get("g") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('expected {"g": [[[a, b], ...], ...]}, a list of rows of entries a + b w')
        # a well-formed entry [a, b] is built here; any other goes through from_json, which names it
        g = [
            [
                EisensteinInt(*x)
                if type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
                else EisensteinInt.from_json(x)
                for x in row
            ]
            for row in rows
        ]
        if len(g) != data.get("n", len(g)):
            raise ValueError("rank field does not match matrix size")
        return HermGram(g)


def vector(coords):
    return tuple(to_e(x) for x in coords)


def basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def pairings(G: HermGram, v):
    """(<e_1, v>, ..., <e_n, v>) = G conj(v) through ``linalg.mat_vec``: the one pairing of v with the basis.

    The entries of v may be in any ring that multiplies with E and has ``conj``, such as Q(w).
    """
    return mat_vec(G.g, [y.conj() if y else y for y in v])


def ip(G: HermGram, x, y):
    """<x, y> = sum x_i <e_i, y>: E-linear in x, antilinear in y, for entries in E or Q(w).

    The <e_i, y> of ``pairings(G, y)`` are formed on x's support only, from those rows of G, by ``linalg.mat_vec``.
    """
    if len(x) != G.n or len(y) != G.n:
        raise ValueError("vector lengths do not match the Gram rank")
    support = [i for i, a in enumerate(x) if a]
    at = mat_vec([G.g[i] for i in support], [b.conj() if b else b for b in y])
    return sum((x[i] * p for i, p in zip(support, at)), ZERO)


def norm_of(G: HermGram, x):
    return ip(G, x, x)


def gram(G: HermGram, vectors):
    """The Gram (<v_i, v_j>) of a list of E-vectors: V G conj(V)^T for V with rows v_i."""
    if not vectors:
        return ()
    return mat_mul(mat_mul(vectors, G.g), tuple(zip(*([x.conj() for x in v] for v in vectors))))


def diag(entries) -> HermGram:
    n = len(entries)
    return HermGram(
        [[to_e(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    )


def chain(n: int) -> HermGram:
    """Rank-n lattice of braid-generator roots: 3 diagonal, theta superdiagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = []
    for i in range(n):
        row = [ZERO] * n
        row[i] = EisensteinInt(3)
        if i + 1 < n:
            row[i + 1] = THETA
        if i - 1 >= 0:
            row[i - 1] = THETA.conj()
        rows.append(row)
    return HermGram(rows)


def e8e() -> HermGram:
    return chain(4)


def hyp() -> HermGram:
    return HermGram([[ZERO, THETA], [THETA.conj(), ZERO]])


def direct_sum(*grams) -> HermGram:
    n = sum(G.n for G in grams)
    rows = [[ZERO] * n for _ in range(n)]
    off = 0
    for G in grams:
        for i in range(G.n):
            for j in range(G.n):
                rows[off + i][off + j] = G.g[i][j]
        off += G.n
    return HermGram(rows)


def lambda_() -> HermGram:
    """The rank-11 lattice (3) + E8E + E8E + hyp."""
    return direct_sum(diag([3]), e8e(), e8e(), hyp())


def lambda10() -> HermGram:
    """The rank-10 summand E8E + E8E + hyp, orthogonal to a chordal root."""
    return direct_sum(e8e(), e8e(), hyp())


NAMED_LATTICES = {
    "lambda": lambda_,
    "lambda10": lambda10,
    "e8e": e8e,
    "hyp": hyp,
}


# the largest N of chain:N, whose Gram has N^2 entries: about 15 MiB at N = 1000; each elimination
# step rewrites only the one row next to its pivot, so its invariants take about 0.3 s there
MAX_CHAIN_RANK = 1000


def named_lattice(name: str) -> HermGram:
    if name in NAMED_LATTICES:
        return NAMED_LATTICES[name]()
    if name.startswith("chain:"):
        n = int(name.split(":", 1)[1])
        if n > MAX_CHAIN_RANK:
            raise ValueError(f"rank {n} is above the bound {MAX_CHAIN_RANK} on chain:N")
        return chain(n)
    raise ValueError(f"unknown lattice name {name!r}")


def _real_form(G: HermGram):
    """The 2n x 2n int rows of 2 Re <u e_i, v e_j> = 2 Re(u conj(v) h), u, v in {1, w}.

    Since 2 Re(a + b w) = 2a - b, the block of h = g_ij = a + b w is
    [[2a - b, 2b - a], [-a - b, 2a - b]]: 3 times the Z-realization.
    """
    rows = []
    for row in G.g:
        top, bottom = [], []
        for h in row:
            a, b = h.a, h.b
            re = 2 * a - b
            top += (re, 2 * b - a)
            bottom += (-a - b, re)
        rows += (top, bottom)
    return rows


def z_realization(G: HermGram) -> ZGram:
    """Gram of the underlying Z-lattice in the basis (e1, w e1, e2, w e2, ...).

    The dot product is (2/3) Re <u e_i, v e_j>, the real form divided by 3.
    Each entry of a block is congruent to -(a + b) mod 3, so all are
    integral exactly when theta | h.
    """
    if not in_theta_dual(G):
        raise ValueError("Z-realization is not integral; inner products must lie in theta*E")
    return ZGram([[x // 3 for x in row] for row in _real_form(G)])


_last = (None, None)  # the last Gram passed to det_signature, and its result


def det_signature(G: HermGram):
    """(det_e(G), signature(G)) from one Hermitian elimination of G over E.

    The pivot minors of ``herm_eliminate`` are rational integers; the
    signature counts their sign changes and det_e is the last of them at
    full rank, as ``zlattice.invariants`` reads them.  The result for the
    last Gram object is kept, so det_e and signature of one Gram share the
    elimination; the key is the object itself, since a HermGram does not
    change, so a call costs no hashing of its entries.
    """
    global _last
    if _last[0] is not G:
        sig, d = invariants(G.n, herm_eliminate(G.g))
        _last = G, (EisensteinInt(d), sig)
    return _last[1]


def det_e(G: HermGram) -> EisensteinInt:
    """Exact determinant over E, a rational integer since G is Hermitian."""
    return det_signature(G)[0]


def signature(G: HermGram):
    """(positive, radical, negative) over C."""
    return det_signature(G)[1]


def in_theta_dual(G: HermGram) -> bool:
    """True iff every inner product lies in theta*E, i.e. L is contained in theta L*."""
    return not any((x.a + x.b) % 3 for row in G.g for x in row)  # a + b w = a + b mod theta


def theta_self_dual(G: HermGram) -> bool:
    """True iff theta L* = L: |det|^2 = 3^n and every inner product in theta*E.

    ``det_e`` reuses the elimination ``det_signature`` keeps for the last Gram, and the theta test runs
    only when N(det) = 3^n.  Raises ValueError for a singular form.
    """
    d = det_e(G)
    if not d:
        raise ValueError("theta-self-duality is undefined for singular forms")
    return d.norm() == 3**G.n and in_theta_dual(G)


NODAL = "Nodal"
CHORDAL = "Chordal"


def root_classify(G: HermGram, r) -> str:
    """Classify a norm-3 vector by the ideal its inner products generate.

    Nodal roots pair to theta*E with the lattice, chordal roots to 3*E; the ideal is that of ``pairings(G, r)``.
    """
    r = vector(r)
    if norm_of(G, r) != EisensteinInt(3):
        raise ValueError("not a root: norm is not 3")
    gen = e_gcd(*pairings(G, r))
    if is_associate(gen, THETA):
        return NODAL
    if is_associate(gen, EisensteinInt(3)):
        return CHORDAL
    raise AssertionError(
        f"root pairing ideal generated by {gen} is neither theta*E nor 3*E"
    )


def is_isometry(G: HermGram, M) -> bool:
    """True iff M^T G conj(M) = G, the Gram of M's columns."""
    m = tuple(tuple(to_e(x) for x in row) for row in M)
    if len(m) != G.n or any(len(r) != G.n for r in m):
        return False
    return gram(G, tuple(zip(*m))) == G.g
