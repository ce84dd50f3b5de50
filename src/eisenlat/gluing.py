"""Reductions mod theta, discriminant groups theta N*/N, index-3 gluing, and hyperplane orbits.

Every reduction modulo theta lives here: of vectors, of group elements, and
of the pairing <v, w>/theta on L/theta L.  For a nondegenerate E-lattice N
with all inner products in theta*E, theta z / 3 lies in theta N* exactly
when z mod theta is in the F_3 kernel of that pairing, which is all of
theta N*/N exactly when N(det) = 3^(n+k); the quotient is then an F_3-space
with the form "inner product of lifts, reduced mod theta".  Enlargements of
N inside theta N* along isotropic lines undo index-3 sublattice passages;
the group generated by reduced triflections acts on the hyperplanes of
L/theta L, whose count (3^10 - 1)/2 = 29524 for L of rank 10 is reproduced
by orbit enumeration.  Since 1 - w = w^2 theta and theta^2 = -3, the
triflection in a norm-3 root r is x -> x + w^2 (<x, r>/theta) r, and
w = 1 mod theta, so it reduces to the transvection T_r = I + rbar (S rbar)^T
of the symplectic Gram S, built straight from S with no lattice matrix.
S takes no division: x = a + b w in theta E has x/theta = ((2b - a) +
(b - 2a) w)/3, which reduces to (b - a) mod 3.  The orbit maps base-3 line
codes through lookup tables of half codes, built by base-3 expansion with no
matrix product.  Every line code of rank n is below 2 * 3^(n-1), so the orbit
keeps its lines in a boolean table indexed by the code, with no sort, search
or merge; it takes ranks up to 10, the rank of L.
One Gaussian congruence mod 3 diagonalizes the F_3 form; each pair of -1
entries is then turned into +1, +1, so the diagonal
is 1, ..., 1[, -1], 0, ..., 0 in every basis of N, and ``coords`` solves
for coordinates in that basis with ``f3_rref``.  Grams of lifts and of new
bases come from ``hermitian.gram``.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .eisenstein import (
    ONE,
    THETA,
    ZERO,
    EisensteinInt,
    reduce_mod_theta,
)
from .hermitian import HermGram, basis_vector, det_e, gram, in_theta_dual, norm_of, vector
from .hnf import hnf_columns_e
from .linalg import f3_rref, identity, mat_vec


def reduce_vector(v):
    """Coordinatewise reduction of an E-vector modulo theta."""
    return tuple(reduce_mod_theta(x) for x in v)


def f3_reduce(M):
    """Entrywise reduction of a group element's matrix modulo theta, as an F_3 matrix."""
    return tuple(map(reduce_vector, M.m))


def symplectic_gram(G: HermGram):
    """The F_3 pairing on L/theta L: (v, w) = reduction of <v, w>/theta mod theta.

    x = a + b w in theta E has x/theta = ((2b - a) + (b - 2a) w)/3, so the reduction is (b - a) mod 3.
    """
    if not in_theta_dual(G):
        raise ValueError("symplectic reduction needs all inner products in theta*E")
    return tuple(tuple((x.b - x.a) % 3 for x in row) for row in G.g)


def f3_rank(mat) -> int:
    return len(f3_rref([list(r) for r in mat]))


class F3QuadSpace:
    """theta N*/N with its F_3-valued symmetric form and ambient lift data.

    A vector of theta N* has rational coordinates in N's basis; it travels
    as a pair (d, x) of a positive int d and an E-vector x, meaning x / d.
    """

    def __init__(self, ambient: HermGram, k, form, lifts, solve_data):
        self.ambient = ambient
        self.k = k
        self.form = form  # k x k tuple of ints mod 3
        self.lifts = lifts  # (d, [x_1..x_k]): the k lifts x_i / d in N-coordinates
        self._solve = solve_data  # (rows, free, change) for coords(): the kernel's rref and free columns, the new basis

    def norm(self, v):
        """v^T F v for the form F, through ``linalg.mat_vec``."""
        _check_length(v, self.k, "vector", "theta N*/N has dimension")
        return sum(map(operator.mul, v, mat_vec(self.form, v))) % 3

    def coords(self, v):
        """F_3 coordinates of a vector (d, x) of theta N*, x / d in N's basis."""
        d, x = v
        _check_length(x, self.ambient.n, "vector", "the lattice has rank")
        rows, free, change = self._solve
        # x / d = theta z / 3 for z = conj(theta) x / d, which must be an E-vector reducing into the kernel
        qr = [(THETA.conj() * y).divmod(EisensteinInt(d)) for y in x]
        z = [reduce_mod_theta(c) for c, _ in qr]
        if any(r for _, r in qr) or any(c % 3 for c in mat_vec(rows, z)):
            raise ValueError("vector is not in theta N*")
        # raw coords are z at the free columns, w.r.t. the kernel basis, and raw = change^T new
        system = [[row[j] for row in change] + [z[f]] for j, f in enumerate(free)]
        f3_rref(system)
        return tuple(row[-1] for row in system)

    def lift(self, v):
        """A lift (d, x) to theta N*, x / d in N's basis, of the F_3 vector v."""
        d, xs = self.lifts
        return d, _combine(v, xs, self.ambient.n)

    def diagonal(self):
        return tuple(self.form[i][i] for i in range(self.k))


def _combine(coeffs, vectors, n):
    """sum c_i v_i over E for F_3 coefficients c_i in {0, 1, 2}."""
    out = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        c %= 3
        if c:
            out = [o + c * y for o, y in zip(out, v)]
    return tuple(out)


def disc_group(N: HermGram) -> F3QuadSpace:
    """The discriminant group theta N*/N as an F_3 quadratic space.

    Requires N nondegenerate with inner products in theta*E; raises if the
    quotient has exponent larger than theta (not an F_3 space).
    """
    if not in_theta_dual(N):
        raise ValueError("inner products must lie in theta*E")
    det = det_e(N)
    if not det:
        raise ValueError("lattice is degenerate")
    n = N.n
    # G = theta H, and theta z / 3 lies in theta N* iff z H = 0 mod theta, i.e. iff z mod theta
    # is in the kernel of symplectic_gram(N) (alternating, so left and right kernels agree)
    rows = [list(r) for r in symplectic_gram(N)]
    pivots = f3_rref(rows)
    rows = rows[: len(pivots)]
    free = [j for j in range(n) if j not in pivots]
    k = len(free)
    # the kernel has 3^k elements and theta N*/N has N(det H) = N(det) / 3^n
    if det.norm() != 3 ** (n + k):
        raise ValueError(
            f"theta N*/N has order {det.norm() // 3**n}, not the 3^{k} of its theta-torsion; not an F_3 space"
        )
    zs = []
    for f in free:
        z = [ZERO] * n
        z[f] = ONE
        for row, p in zip(rows, pivots):
            z[p] = EisensteinInt(-row[f] % 3)
        zs.append(z)
    # <theta z_i / 3, theta z_j / 3> = <z_i, z_j> / 3
    form = [[reduce_mod_theta(x.exact_div(EisensteinInt(3))) for x in row] for row in gram(N, zs)]
    change, newform = _f3_diagonalize(form)
    # canonicalize: -x^2 - y^2 = u^2 + v^2 with u = x + y, v = x - y, so each pair of -1s
    # becomes +1, +1 and the diagonal reads 1, ..., 1[, -1], 0, ..., fixed by rank and discriminant
    minus = [i for i in range(k) if newform[i][i] == 2]
    for p, q in zip(minus[::2], minus[1::2]):
        newform[p][p] = newform[q][q] = 1
        c = list(zip(change[p], change[q]))
        change[p], change[q] = [(x + y) % 3 for x, y in c], [(x - y) % 3 for x, y in c]
    lifts = [[THETA * x for x in z] for z in zs]
    return F3QuadSpace(
        N,
        k,
        tuple(tuple(r) for r in newform),
        (3, [_combine(change[i], lifts, n) for i in range(k)]),
        (rows, free, change),
    )


def _f3_diagonalize(form):
    """Congruence diagonalization over F_3: (change, diagonal form).

    Gaussian steps on [form | I] mod 3: each pivots on the first live p with
    a_pp != 0, its own inverse, and subtracts a_tp a_pp e_p from every live
    e_t; with a zero live diagonal, e_p += e_j first makes a_pp = 2 a_pj for
    the first a_pj != 0 (p < j).  The change rows are the new basis, sorted
    +1, -1 (=2), 0, each stably in the elimination order.
    """
    k = len(form)
    a = [[x % 3 for x in row] + list(e) for row, e in zip(form, identity(k, 1))]

    def add(i, j, c):
        a[i] = [(x + c * y) % 3 for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = (row[i] + c * row[j]) % 3

    live = list(range(k))
    order = []
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if j > i and a[i][j]), None)
            if pair is None:
                break
            p = pair[0]
            add(p, pair[1], 1)
        live.remove(p)
        for t in live:
            if a[t][p]:
                add(t, p, -a[t][p] * a[p][p])
        order.append(p)
    ranks = sorted(order + live, key=lambda i: (a[i][i] - 1) % 3)  # 1, 2, 0
    change = [a[i][k:] for i in ranks]
    newform = [[a[i][i] if i == j else 0 for j in ranks] for i in ranks]
    return change, newform


def _digit_rows(k):
    """All 3^k int8 rows of F_3^k in base-3 order, coordinate 0 least significant."""
    return np.indices((3,) * k, dtype=np.int8).reshape(k, 3**k)[::-1].T


# enumerate_norm builds 3^(k - a) x 3^a int8 tables, a = k // 2: at k = 12 the f3 norm-enum command
# writes about 177,000 vectors, 16 MB of JSON, in about 0.2 s with a 38 MB peak resident size (2-vCPU
# Xeon); each further two coordinates cost about 9 times more, and at k = 20 each table takes 3.5 GB
NORM_ENUM_MAX_COORDINATES = 12


def enumerate_norm(S: F3QuadSpace, c):
    """All vectors of the space with norm c, as one (m, k) int8 array.

    The rows come in base-3 order with coordinate 0 least significant.  The
    scan splits the coordinates into a low half l (0..a-1) and a high half
    h and reads Q(l + h) = Q(l) + Q(h) + B(l, h) + B(h, l) off three exact
    integer tables: the norms of the 3^a low rows, those of the 3^b high
    rows, and the 3^b x 3^a cross table.  That grid, read row-major, is the
    base-3 order, so its hits index the two digit tables directly.  A space
    of more than NORM_ENUM_MAX_COORDINATES raises ValueError before any table.
    """
    k = S.k
    if k > NORM_ENUM_MAX_COORDINATES:
        raise ValueError(
            f"the norm scan reads all 3^k vectors and takes at most {NORM_ENUM_MAX_COORDINATES} coordinates, not {k}"
        )
    a = k // 2
    form = (np.array(S.form, dtype=np.int64).reshape(k, k) % 3).astype(np.int8)
    low, high = _digit_rows(a), _digit_rows(k - a)
    # each table is reduced mod 3 before its last sum, so every entry of the
    # int8 grid is at most 4a + 4 (3^a rows fill any memory long before a = 31)
    q_low = ((low @ form[:a, :a] % 3) * low).sum(axis=1, dtype=np.int8) % 3
    q_high = ((high @ form[a:, a:] % 3) * high).sum(axis=1, dtype=np.int8) % 3
    # B(l, h) + B(h, l) = h (F_hl + F_lh^T) l^T
    cross = (high @ ((form[a:, :a] + form[:a, a:].T) % 3) % 3) @ low.T
    norms = (cross + q_high[:, None] + q_low) % 3
    h, l = np.nonzero(norms == c % 3)
    return np.concatenate([np.take(low, l, axis=0), np.take(high, h, axis=0)], axis=1)


def _places(k):
    """Place values of the line codes: coordinate 0 most significant."""
    return 3 ** np.arange(k - 1, -1, -1, dtype=np.int64)


def line_codes(vectors):
    """The base-3 int64 code of the line spanned by each F_3 row.

    A line is coded by its generator whose first nonzero entry is 1, read
    with coordinate 0 most significant.  Of v and 2v that generator has the
    smaller code, and code(2v) = 3 code(support of v) - code(v).
    """
    a = np.asarray(vectors) % 3
    k = a.shape[-1]
    if 3**k > np.iinfo(np.int64).max // 2:  # 3 code(support) < 3^(k+1) / 2 must fit
        raise ValueError(f"rank {k} is too large for base-3 int64 codes")
    place = _places(k)
    c = a @ place
    return np.minimum(c, 3 * ((a != 0) @ place) - c)


def line_digits(codes, k):
    """The F_3 rows of length k coded by ``line_codes``."""
    return np.asarray(codes)[:, None] // _places(k) % 3


def canon_lines(vectors):
    """Each F_3 row scaled so its first nonzero entry is 1: one generator per line."""
    a = np.asarray(vectors)
    return line_digits(line_codes(a), a.shape[-1])


def isotropic_lines(S: F3QuadSpace, orth_to=None, not_orth_to=None):
    """1-dimensional isotropic subspaces, optionally constrained.

    Lines are returned as their canonical generators (first nonzero entry 1),
    in the order their first vector comes in ``enumerate_norm``.  The int8
    array of isotropic vectors from its split-half scan is coded as it comes.
    """
    k = S.k
    vecs = enumerate_norm(S, 0)
    codes = line_codes(vecs[vecs.any(axis=1)])
    _, first = np.unique(codes, return_index=True)
    lines = line_digits(codes[np.sort(first)], k)
    form = np.array(S.form, dtype=np.int64).reshape(k, k)
    if orth_to is not None:
        _check_length(orth_to, k, "orth_to", "theta N*/N has dimension")
        lines = lines[lines @ form @ np.array(orth_to) % 3 == 0]
    if not_orth_to is not None:
        _check_length(not_orth_to, k, "not_orth_to", "theta N*/N has dimension")
        lines = lines[lines @ form @ np.array(not_orth_to) % 3 != 0]
    return list(map(tuple, lines.tolist()))


class GluedLattice:
    """Result of an index-3 enlargement: Gram plus basis in old coordinates."""

    def __init__(self, gram: HermGram, basis):
        self.gram = gram
        self.basis = basis  # (d, columns): the basis columns / d, in the old coordinates


def glue(S: F3QuadSpace, line) -> GluedLattice:
    """The enlargement of N = S.ambient spanned by N and a lift of the isotropic line of theta N*/N."""
    N = S.ambient
    _check_length(line, S.k, "line", "theta N*/N has dimension")
    line = tuple(x % 3 for x in line)
    if not any(line):
        return GluedLattice(N, (1, identity(N.n, ONE)))
    if S.norm(line) != 0:
        raise ValueError("gluing line must be isotropic")
    d, lift = S.lift(line)
    return _span_with(N, (d, [lift]))


def _span_with(N: HermGram, extra) -> GluedLattice:
    """Lattice generated by N's basis and extra vectors (d, [x..]), x / d, via E-HNF."""
    n = N.n
    den, vectors = extra
    cols = [[EisensteinInt(den) if i == j else ZERO for i in range(n)] for j in range(n)]
    H = hnf_columns_e(cols + list(vectors))
    if len(H) != n:
        raise AssertionError("enlargement lost rank")
    dd = EisensteinInt(den * den)
    rows = [[x.divmod(dd) for x in row] for row in gram(N, H)]
    if any(r for row in rows for _, r in row):
        raise ValueError("enlargement is not integral over E")
    return GluedLattice(HermGram([[val for val, _ in row] for row in rows]), (den, H))


def hyperplane_preimage(G: HermGram, functional) -> GluedLattice:
    """Index-3 sublattice of G: preimage of the kernel of a functional on L/theta L.

    ``functional`` is a nonzero F_3 covector in the coordinates of L/theta L.
    With p its first nonzero coordinate and c_j = phi_j / phi_p, x lies in the
    kernel iff x_p + sum c_j x_j lies in theta E, so theta e_p and the
    e_j - c_j e_p (j != p), in the order of j, are a basis of it.
    """
    if not in_theta_dual(G):
        raise ValueError("inner products must lie in theta*E")
    _check_length(functional, G.n, "functional", "the lattice has rank")
    phi = tuple(x % 3 for x in functional)
    if not any(phi):
        raise ValueError("functional must be nonzero (the full space is not a hyperplane)")
    n = G.n
    piv = next(i for i in range(n) if phi[i])
    inv = pow(phi[piv], -1, 3)
    H = []
    for j in range(n):
        col = [ZERO] * n
        if j == piv:
            col[piv] = THETA
        else:
            col[j] = ONE
            col[piv] = EisensteinInt(-(phi[j] * inv % 3))
        H.append(tuple(col))
    return GluedLattice(HermGram(gram(G, H)), (1, H))


_BLOCK = 2048  # frontier lines per batch of images: the (block, m) temporaries stay in cache
# every code and table index of rank n is below 3^(2 ceil(n/2)), which fits uint16 up to rank 10
_MAX_RANK = 10


@functools.cache
def _code_tables(n):
    """The uint16 tables (addh, addl, canon) of rank n, built on first use with no % or // on a 3^n array.

    With h = ceil(n/2) leading and l = floor(n/2) trailing coordinates,
    ``addh[a * 3^h + b]`` is the tritwise sum of the h-digit codes a and b
    times 3^l, ``addl[a * 3^l + b]`` that of two l-digit codes, and
    ``canon[v]`` the line code min(v, code(2v)) of the vector coded v.
    The sums come by base-3 expansion, code d 3^j + s from the j-digit s.
    """
    h, l = (n + 1) // 2, n // 2

    def sums(k):
        d, s = np.arange(3, dtype=np.uint16), np.zeros((1, 1), np.uint16)
        for j in range(k):  # digits (d_a, d_b) on the new axes 0 and 2
            s = ((d[:, None, None, None] + d[:, None]) % 3 * np.uint16(3**j) + s[:, None]).reshape(3 ** (j + 1), -1)
        return s.ravel()

    addh, addl = sums(h) * np.uint16(3**l), sums(l)
    double = addh[np.arange(3**h) * (3**h + 1), None] + addl[np.arange(3**l) * (3**l + 1)]  # 2v = v + v, split
    return addh, addl, np.minimum(np.arange(3**n, dtype=np.uint16), double.ravel())


def _pattern_tables(gens, addh, addl):
    """The split image codes (HH, HL, LH, LL) of every leading and trailing pattern under the (m, n, n) generators.

    Row p of the (3^h, m) tables HH and HL holds the leading code times 3^h
    and the trailing code times 3^l, as ``addh`` and ``addl`` take their
    first operand, of the image of the vector whose h leading digits read p
    and whose others are 0; row q of the (3^l, m) tables LH and LL, the two
    codes of the image of the vector whose l trailing digits read q.
    """
    m, n = len(gens), gens.shape[-1]
    h, l = (n + 1) // 2, n // 2
    # the split codes of 0, 1 and 2 times each column, (3, m, n) each
    col_h, col_l = np.divmod(_places(n) @ (np.arange(3)[:, None, None, None] * gens % 3), 3**l)
    tables = []
    for lo, hi in [(0, h), (h, n)]:
        a = b = np.zeros((1, m), np.uint16)
        for k in range(lo, hi):  # the image of pattern 3p + d is that of p plus d times column k
            a = (addh[a[:, None] * 3**h + col_h[:, :, k]] // 3**l).reshape(-1, m)
            b = addl[b[:, None] * 3**l + col_l[:, :, k]].reshape(-1, m)
        tables += [a, b]
    HH, HL, LH, LL = tables
    return HH * np.uint16(3**h), HL * np.uint16(3**l), LH, LL


def _line_images(code_tables, pattern_tables, codes):
    """The (F, m) uint16 line codes of the images of F coded lines under each tabulated generator.

    A code splits as x_h 3^l + x_l, and the image of its line is
    ``canon[addh[HH[x_h] + LH[x_l]] + addl[HL[x_h] + LL[x_l]]]``: four row
    gathers, three adds and three table lookups.
    """
    (addh, addl, canon), (HH, HL, LH, LL) = code_tables, pattern_tables
    x_h, x_l = np.divmod(codes, len(LH))  # take, not fancy indexing, which is half as fast on uint16
    return canon.take(addh.take(HH.take(x_h, 0) + LH.take(x_l, 0)) + addl.take(HL.take(x_h, 0) + LL.take(x_l, 0)))


def line_orbit(gens, start, cap: int = 200000):
    """Number of lines of F_3^n in the orbit of the line of ``start`` under (m, n, n) F_3 matrices.

    The integer entries of the generators and of ``start`` are read mod 3.
    Raises ValueError, naming the fault, for no generator, generators that
    are not n x n, a start not of length n, generators or a start whose
    dtype is not integer, a start that is zero, or a generator that maps a
    line of the orbit to zero; and once the orbit outgrows ``cap``, a whole
    level counted first.  A level's images come in blocks of ``_BLOCK``
    frontier lines.  Every ``line_codes`` value is below 2 * 3^(n-1), so the
    lines are kept in two boolean tables indexed by the code, with no sort,
    search or merge: the lines reached and those of one level.  Each level
    scatters its images into a fresh table, drops the lines seen before, and
    reads the next frontier back in code order.  A rank above ``_MAX_RANK``
    raises ValueError, naming the rank, before any table is built.
    """
    gens, start = np.asarray(gens), np.asarray(start)
    if not len(gens):
        raise ValueError("no generator was given")
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"generators must be n x n matrices, got an array of shape {gens.shape}")
    n = gens.shape[-1]
    if n > _MAX_RANK:
        raise ValueError(f"rank {n} is too large for the orbit tables, which take at most rank {_MAX_RANK}")
    _check_start(start, n)
    if gens.dtype.kind not in "iu" or start.dtype.kind not in "iu":
        raise ValueError(f"generators and start must have integer dtypes, not {gens.dtype} and {start.dtype}")
    code_tables = _code_tables(n)
    pattern_tables = _pattern_tables((gens % 3).astype(np.int64), *code_tables[:2])
    frontier = line_codes([(start % 3).astype(np.int64)])
    seen = np.zeros(2 * 3 ** (n - 1), bool)
    seen[frontier] = True
    count = 1
    while len(frontier):
        level = np.zeros_like(seen)
        for i in range(0, len(frontier), _BLOCK):  # an intp index scatters 3 times as fast as a narrow one
            level[_line_images(code_tables, pattern_tables, frontier[i : i + _BLOCK]).astype(np.intp)] = True
        if level[0]:
            raise ValueError("a generator maps a line of the orbit to zero")
        level &= ~seen
        frontier = np.flatnonzero(level)
        count += len(frontier)
        if count > cap:
            raise ValueError(f"orbit exceeded cap {cap}")
        seen |= level
    return count


def _check_start(start, n):
    """Raise ValueError unless ``start`` has n coordinates and, if they are integers, is nonzero mod 3."""
    start = np.asarray(start)
    if start.shape != (n,):
        raise ValueError(f"start must have the generators' {n} coordinates, got an array of shape {start.shape}")
    if start.dtype.kind in "iu" and not (start % 3).any():
        raise ValueError("start must be nonzero mod 3")


def _check_length(v, n, name, space):
    """Raise ValueError, naming both lengths, unless v has n coordinates; ``space`` reads "<space> n"."""
    if len(v) != n:
        raise ValueError(f"{name} has {len(v)} coordinates, but {space} {n}")


def reduced_triflections(G: HermGram, roots):
    """The (m, n, n) int64 F_3 matrices of the triflections in the norm-3 ``roots``, reduced mod theta.

    Since 1 - w = w^2 theta and theta^2 = -3, the triflection in a root r is
    x -> x + w^2 (<x, r>/theta) r, and w = 1 mod theta, so its reduction is
    the symplectic transvection T_r = I + rbar (S rbar)^T, with S the
    ``symplectic_gram`` of G and rbar = ``reduce_vector(r)``.  Raises
    ValueError naming the first root that does not have G.n coordinates or
    norm 3.  Each T_r is certified against S: T_r^T S T_r = S mod 3.
    """
    n = G.n
    for i, r in enumerate(roots):
        _check_length(r, n, f"root {i}", "the lattice has rank")
        rr = norm_of(G, vector(r))
        if rr != EisensteinInt(3):
            raise ValueError(f"root {i} has norm {rr}, not 3")
    rbar = np.array([reduce_vector(r) for r in roots], dtype=np.int64).reshape(-1, n)
    S = np.array(symplectic_gram(G), dtype=np.int64)
    T = (np.eye(n, dtype=np.int64) + rbar[:, :, None] * (rbar @ S.T)[:, None, :]) % 3
    if np.any((T.transpose(0, 2, 1) @ S @ T - S) % 3):
        raise AssertionError("a reduced triflection does not preserve the symplectic form")
    return T


def hyperplane_orbit(roots, G: HermGram, start=None, cap: int = 200000):
    """Size of the orbit of a hyperplane under the reduced triflections.

    Hyperplanes of L/theta L are encoded by their symplectic normal vectors
    up to sign; the generators are the transvections T_r = I + rbar (S rbar)^T
    of ``reduced_triflections``, the reductions of the triflections in the
    given norm-3 roots (1 - w = w^2 theta makes the triflection
    x -> x + w^2 (<x, r>/theta) r, and w = 1 mod theta).  ``start``
    (default: the first root) has integer or Eisenstein coordinates.
    Returns (orbit size, generator count).
    """
    if not len(roots):
        raise ValueError("need at least one root")
    n = G.n
    if f3_rank(symplectic_gram(G)) != n:
        raise ValueError("symplectic form must be nondegenerate")
    if start is not None:  # an explicit start is checked before any triflection is built
        try:
            start = [reduce_mod_theta(x) if isinstance(x, EisensteinInt) else operator.index(x) % 3 for x in start]
        except TypeError:
            raise ValueError("start hyperplane normal must have integer or Eisenstein coordinates") from None
        _check_start(start, n)
    gens = reduced_triflections(G, roots)  # checks every root, the default start root 0 among them
    return line_orbit(gens, reduce_vector(roots[0]) if start is None else start, cap), len(gens)


def sp_generating_roots():
    """Roots of lambda10 whose reduced triflections generate Sp(10, F_3).

    The chain roots of the two E8 blocks, two norm-3 vectors of the
    hyperbolic summand with independent reductions, and two roots mixing
    each E8 block with the hyperbolic summand.
    """
    from .eisenstein import OMEGA

    def vec(entries):
        v = [ZERO] * 10
        for i, x in entries:
            v[i] = x
        return tuple(v)

    roots = [basis_vector(10, i) for i in range(8)]
    roots.append(vec([(8, ONE), (9, OMEGA)]))
    roots.append(vec([(8, ONE), (9, ONE + OMEGA)]))
    # norm 3 = 3 + 0: block root plus isotropic hyperbolic vector
    roots.append(vec([(3, ONE), (8, ONE)]))
    roots.append(vec([(7, ONE), (8, ONE)]))
    return roots
