"""Hermite and Smith normal forms over the Euclidean domain E = Z[w].

Column-style HNF: generators are column vectors; the output is the canonical
echelon basis of the module they span.  Pivots are canonical associates and
off-pivot entries are reduced with the nearest-point Euclidean remainder, so
two generating sets of the same module produce identical output.  The SNF
has no caller in the package; it is the tests' reference for theta N*/N.
"""

from __future__ import annotations

from .eisenstein import ONE, EisensteinInt
from .linalg import identity


def hnf_columns_e(cols):
    """Canonical column-echelon basis over E of the span of ``cols``.

    cols: list of columns, each a list of EisensteinInt of a common length m.
    Returns the list of basis columns ordered by pivot row.
    """
    active = [list(c) for c in cols if any(c)]
    if not active:
        return []
    m = len(active[0])
    done = []  # (pivot_row, column)
    for row in range(m):
        nz = [c for c in active if c[row]]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda c: c[row].norm())
            piv = nz[0]
            for c in nz[1:]:
                q, _ = c[row].divmod(piv[row])
                if q:
                    for i in range(row, m):
                        c[i] = c[i] - q * piv[i]
            nz = [c for c in nz if c[row]]
        piv = nz[0]
        active.remove(piv)
        u = piv[row].canonical_unit()
        if u != ONE:
            piv = [u * x for x in piv]
        done.append((row, piv))
    done.sort(key=lambda t: t[0])
    # reduce entries of earlier columns at later pivot rows
    for idx, (p, c) in enumerate(done):
        for p2, c2 in done[idx + 1 :]:
            q, _ = c[p2].divmod(c2[p2])
            if q:
                for i in range(p2, len(c)):
                    c[i] = c[i] - q * c2[i]
    return [c for _, c in done]


def snf_e(C):
    """Smith normal form over E: returns (diag, L, Linv) with L*C*R = diag.

    The diagonal entries are canonical associates with d_i | d_{i+1}.  Only
    the row transform L (and its inverse) is returned; column operations are
    untracked.
    """
    n = len(C)
    m = len(C[0]) if n else 0
    a = [list(row) for row in C]
    L = [list(row) for row in identity(n, ONE)]
    Linv = [list(row) for row in identity(n, ONE)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        L[i] = [x - q * y for x, y in zip(L[i], L[j])]
        for r in range(n):
            Linv[r][j] = Linv[r][j] + q * Linv[r][i]

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        L[i], L[j] = L[j], L[i]
        for r in range(n):
            Linv[r][i], Linv[r][j] = Linv[r][j], Linv[r][i]

    def row_scale(i, u):
        a[i] = [u * x for x in a[i]]
        L[i] = [u * x for x in L[i]]
        uinv = u.unit_inverse()
        for r in range(n):
            Linv[r][i] = uinv * Linv[r][i]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for r in range(n):
            a[r][j] = a[r][j] - q * a[r][k]

    def col_swap(j, k):
        if j == k:
            return
        for r in range(n):
            a[r][j], a[r][k] = a[r][k], a[r][j]

    size = min(n, m)

    def diagonalize():
        t = 0
        while t < size:
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if a[i][j] and (best is None or a[i][j].norm() < best[2]):
                        best = (i, j, a[i][j].norm())
            if best is None:
                break
            row_swap(t, best[0])
            col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q, _ = a[i][t].divmod(a[t][t])
                    row_sub(i, t, q)
                    dirty = dirty or bool(a[i][t])
            for j in range(t + 1, m):
                if a[t][j]:
                    q, _ = a[t][j].divmod(a[t][t])
                    col_sub(j, t, q)
                    dirty = dirty or bool(a[t][j])
            if not dirty:
                t += 1

    diagonalize()
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise AssertionError("Smith normal form did not stabilize")
        bad = None
        for i in range(size - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if not di and dj:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                bad = i
                break
            if di and dj and (dj % di):
                bad = i
                # col_i += col_{i+1}: re-couples the two diagonal entries
                col_sub(i, i + 1, EisensteinInt(-1))
                break
        if bad is None:
            break
        diagonalize()
    for i in range(size):
        if a[i][i]:
            u = a[i][i].canonical_unit()
            if u != ONE:
                row_scale(i, u)
    diag = [a[i][i] for i in range(size)]
    return diag, L, Linv
