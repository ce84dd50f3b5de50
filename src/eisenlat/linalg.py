"""Exact linear algebra over Z, Z[w] and F_3, written once and fraction-free.

Matrices are sequences of rows.  ``adjugate`` is Bareiss' fraction-free
elimination (Bareiss 1968) in its Gauss-Jordan form over Z, which solves
integer systems without fractions; ``herm_eliminate`` the same elimination
as a congruence of a Hermitian form over Z[w], on int pairs, reading and
writing only the upper half of the still live block and leaving alone the
rows a step would only scale; a symmetric integer form is the Hermitian
form whose entries are all rational.
E-matrices are solved through ``pack``, the ring map a + b w ->
[[a, -b], [b, a - b]] into integer 2 x 2 blocks, and read back whole by
``unpack``: ``adjugate_e`` is ``adjugate`` of the packing.  ``monodromy``'s
int64 group elements are packings too; it reads their traces and roots off
the blocks' first columns, and their mirrors off both rows of a block row.
A rational vector travels as a pair (d, x) of a positive int d and an
integer vector x, meaning x / d.
``f3_rref`` is Gauss-Jordan elimination on integer rows modulo 3.
"""

from __future__ import annotations

import math

from .eisenstein import EisensteinInt


def identity(n, one):
    """The n x n identity matrix over the ring of ``one``, as a tuple of row tuples."""
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(A, B):
    """A*B over any ring, as a tuple of row tuples; the zero is taken from A.

    Zeros are skipped by index: each row t of B lists its nonzero (j, y)
    once, and a row of A adds x times that list into its output row for
    each nonzero entry x at t, in the order of t, so only products of two
    nonzero factors are formed.  A row of A must have one entry per row of B.
    """
    zero = A[0][0] - A[0][0]
    width = len(B[0])
    rows = [[(j, y) for j, y in enumerate(row) if y] for row in B]
    out = []
    for Ai in A:
        acc = [zero] * width
        for x, row in zip(Ai, rows, strict=True):
            if x:
                for j, y in row:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(A, x):
    """A*x for a column vector x, as a tuple; each row of A must have len(x) entries.

    As in ``mat_mul``, x lists its nonzero (j, y) once by index; each row sums row[j] * y over that list from its
    first term, or is x's zero (0 for an empty x) if none.
    """
    if {*map(len, A)} - {len(x)}:
        raise ValueError(f"a row does not have the {len(x)} entries of x")
    support = [(j, y) for j, y in enumerate(x) if y]
    if not support:
        return (x[0] - x[0] if len(x) else 0,) * len(A)
    (k, z), rest = support[0], support[1:]
    return tuple(sum([row[j] * y for j, y in rest], row[k] * z) for row in A)


def adjugate(a):
    """(d, adj) with adj * a = d * I and d = +-det a, for a square int matrix.

    Fraction-free Gauss-Jordan elimination on [a | I]: the step on column k
    updates every other row by Bareiss' (p x - c y) / prev, so each entry is
    a minor of [a | I] and every quotient is exact.  Each row then drops
    column k, which is 0 off the pivot row; the left block ends as d * I
    and is not kept.  The right block records the row operations, swaps
    included, so it is such an adj with d the last pivot.  A singular a
    gives (0, None).
    """
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][0]), None)
        if piv is None:
            return 0, None
        rows[k], rows[piv] = rows[piv], rows[k]
        p = rows[k][0]
        rk = rows[k] = rows[k][1:]
        for i in range(n):
            if i != k:
                c = rows[i][0]
                rows[i] = [(p * x - c * y) // prev for x, y in zip(rows[i][1:], rk)]
        prev = p
    return prev, rows


def pack(a):
    """The 2n x 2n int matrix of an n x n E-matrix: a + b w -> [[a, -b], [b, a - b]].

    This is the matrix of multiplication by a + b w on the basis (1, w), so
    packing is a ring map into integer matrices.
    """
    out = []
    for row in a:
        out.append(tuple(y for x in row for y in (x.a, -x.b)))
        out.append(tuple(y for x in row for y in (x.b, x.a - x.b)))
    return tuple(out)


def unpack(z):
    """The E-matrix of a packing z, rows of ints or an int array: the inverse of ``pack``.

    Block (i, j) is [[a, -b], [b, a - b]], so its first column reads a + b w.
    """
    return tuple(
        tuple(EisensteinInt(int(a), int(b)) for a, b in zip(z[i][::2], z[i + 1][::2]))
        for i in range(0, len(z), 2)
    )


def adjugate_e(a):
    """(d, b) with b * a = d * I, d > 0 an int and b an E-matrix, for a nonsingular a.

    ``adjugate`` of ``pack(a)`` is d times the packing of a^-1, so it is the
    packing of an E-matrix; d and b are then divided by their common factor,
    which leaves d the least common denominator of a^-1.  Raises ValueError
    when a is singular.
    """
    d, adj = adjugate(pack(a))
    if not d:
        raise ValueError("singular matrix")
    g = math.gcd(d, *(x for row in adj[::2] for x in row))  # even rows hold a and -b
    if d < 0:
        g = -g
    return d // g, unpack([[x // g for x in row] for row in adj])


def _e_mul(a, b, c, d):
    """(a + b w)(c + d w) as a pair, since w^2 = -1 - w."""
    return a * c - b * d, a * d + b * c - b * d


def herm_eliminate(rows):
    """Pivot minors D_1..D_r of a Hermitian form over E, r its rank.

    Bareiss' elimination (Bareiss 1968) run as a congruence on int pairs
    (a, b) for a + b w, reading and writing only the upper half t <= u:
    a_tp for t > p is conj(a_pt), and conj(a + b w) = (a - b) - b w.  The
    step on the pivot p sets a_tu <- (d a_tu - a_tp a_pu) / prev on the live
    block; d and prev are minors of a Hermitian form, so rational integers,
    and each division is two exact floor divisions.  D_k is the k-th
    leading principal minor of the form in the pivot basis, so the k-th
    pivot of the diagonalized form is D_k / D_(k-1).

    A row with a_tp = 0 would only scale by d / prev, so the step skips it:
    each row holds its entries times scale / prev, scale being the minor of
    the step that last rewrote it, exact since every live entry is a minor
    (Sylvester's identity).  The row's next rewrite fuses that scale into
    its update, and a row read as the pivot row or in the pivot column is
    read at the current level.  Scaling keeps zero-ness, so the pivots and
    minors are those of the eager update.

    A pivot is the first live nonzero diagonal entry; it must be real, and
    an ArithmeticError reports one that is not, which only a diagonal entry
    that is not real can give.  When every live diagonal entry is zero but
    some a_pj (p < j) is not, every live row is brought to the current
    level and e_p -> e_p + conj(u) e_j applied.  The live rows before p are
    zero, so only row p changes, and a_pp becomes 2 Re(u a_pj): with u = 1
    that is 2a - b, and when it is 0, a_pj = a theta and u = w gives a_pp =
    -3a instead.  A symmetric int form is the case b = 0: every entry stays
    rational, and u = 1.
    """
    A = [[x.a for x in row] for row in rows]
    B = [[x.b for x in row] for row in rows]
    live = list(range(len(A)))
    scale = [1] * len(A)
    minors = []
    prev = 1
    while live:
        p = next((i for i in live if A[i][i] or B[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if j > i and (A[i][j] or B[i][j])), None)
            if pair is None:
                break
            for t in live:
                if scale[t] != prev:
                    _rescale(A[t], B[t], [u for u in live if u >= t], prev, scale[t])
                    scale[t] = prev
            p, j = pair
            Ap, Bp, Aj, Bj = A[p], B[p], A[j], B[j]
            ua, ub = (1, 0) if 2 * Ap[j] - Bp[j] else (0, 1)
            x, y = _e_mul(ua, ub, Ap[j], Bp[j])  # u a_pj
            Ap[p] = 2 * x - y
            for t in live:
                if t > p and t != j:  # a_pj gains conj(u) a_jj = 0
                    x, y = (Aj[t], Bj[t]) if t > j else (A[t][j] - B[t][j], -B[t][j])  # a_jt
                    x, y = _e_mul(ua - ub, -ub, x, y)
                    Ap[t] += x
                    Bp[t] += y
        i = live.index(p)
        del live[i]
        Ap, Bp = A[p], B[p]
        if scale[p] != prev:
            _rescale(Ap, Bp, [p, *live[i:]], prev, scale[p])
        d = Ap[p]
        if Bp[p]:
            raise ArithmeticError(f"pivot {d} + {Bp[p]}w of a Hermitian elimination is not real")
        prow = []  # (u, x, y, y - x) for each live u, with a_pu = x + y w at the current level
        for u in live[:i]:  # a_pu = conj(a_up), from row u
            x, y, h = A[u][p], B[u][p], scale[u]
            if h != prev:
                x, y = x * prev // h, y * prev // h
            prow.append((u, x - y, -y, -x))
        prow += [(u, Ap[u], Bp[u], Bp[u] - Ap[u]) for u in live[i:]]
        for s, (t, x, y, _) in enumerate(prow):
            if not (x or y):
                continue
            c, e, h = x - y, -y, scale[t]  # a_tp = c + e w
            if h == prev:
                dn, dd = d, prev
            else:  # the stored a_tu is the current one times h / prev
                dn, dd, c, e = d * prev, h * prev, h * c, h * e
            At, Bt = A[t], B[t]
            for u, x, y, z in prow[s:]:  # a_tp a_pu = (c x - e y) + (c y - e z) w
                At[u] = (dn * At[u] - c * x + e * y) // dd
                Bt[u] = (dn * Bt[u] - c * y + e * z) // dd
            scale[t] = d
        minors.append(d)
        prev = d
    return minors


def _rescale(a, b, cols, num, den):
    """Entries cols of the row (a, b) times num / den, a quotient known to be exact."""
    for u in cols:
        a[u] = a[u] * num // den
        b[u] = b[u] * num // den


def f3_rref(rows):
    """Gauss-Jordan on integer rows modulo 3, in place; entries end in {0, 1, 2}."""
    n = len(rows)
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col] % 3), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col] % 3  # 1 and 2 are their own inverses mod 3
        pr = rows[r] = [(x * inv) % 3 for x in rows[r]]
        for i in range(n):
            c = rows[i][col] % 3
            if i != r and c:
                rows[i] = [(x - c * y) % 3 for x, y in zip(rows[i], pr)]
        pivots.append(col)
    return pivots
