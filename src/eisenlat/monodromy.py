"""Complex reflections, unitary transvections, braid words and finite closures.

Group elements are matrices over E acting on the left of column vectors in a
fixed ambient Hermitian lattice; every constructor checks that the lattice is
preserved exactly.  The finite groups R_1..R_4 generated by triflections in
chain roots are held as stabilizer chains (Schreier-Sims), with the matrices
packed into an integer companion embedding so numpy can batch the products.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .eisenstein import (
    ONE,
    OMEGA,
    THETA,
    UNITS,
    ZERO,
    EisensteinInt,
    e_gcd,
    reduce_mod_theta,
)
from .hermitian import (
    HermGram,
    basis_vector,
    in_theta_dual,
    is_isometry,
    mat_mul,
    norm_of,
    vector,
)
from . import linalg
from .linalg import f3_rref, mat_vec

INFINITE = "Infinite"


class Unknown:
    """Order not determined below the cap."""

    def __init__(self, cap):
        self.cap = cap

    def __repr__(self):
        return f"Unknown(cap={self.cap})"

    def __eq__(self, other):
        return isinstance(other, Unknown) and self.cap == other.cap


class GroupElt:
    """Matrix over E together with its ambient Hermitian Gram."""

    __slots__ = ("m", "ambient")

    def __init__(self, m, ambient: HermGram, check=True):
        m = tuple(tuple(x if isinstance(x, EisensteinInt) else EisensteinInt(x) for x in row) for row in m)
        if check and not is_isometry(ambient, m):
            raise ValueError("matrix does not preserve the Hermitian form")
        self.m = m
        self.ambient = ambient

    def __repr__(self):
        return f"GroupElt({[[str(x) for x in r] for r in self.m]})"

    def __eq__(self, other):
        return (
            isinstance(other, GroupElt)
            and self.ambient == other.ambient
            and self.m == other.m
        )

    def __hash__(self):
        return hash(self.m)

    def __mul__(self, other):
        if not isinstance(other, GroupElt):
            return NotImplemented
        if self.ambient != other.ambient:
            raise ValueError("ambient lattices differ")
        return GroupElt(mat_mul(self.m, other.m), self.ambient, check=False)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = identity(self.ambient)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        return mat_vec(self.m, x)

    def is_identity(self):
        return self.m == linalg.identity(len(self.m), ONE)


def identity(G: HermGram) -> GroupElt:
    return GroupElt(linalg.identity(G.n, ONE), G, check=False)


def _rank_one(G: HermGram, v, scale, den, message):
    """The element x -> x - (scale <x, v> / den) v of G's group, built sparsely.

    Entry (i, j) is delta_ij - coeff_j v_i, coeff_j = scale <e_j, v> / den, so
    only rows in v's support and columns with coeff_j != 0 move.  The first
    coeff_j not in E raises a ValueError with ``message.format(j)``.
    """
    support = [(k, x) for k, x in enumerate(v) if x]
    coeffs = []
    for j, row in enumerate(G.g):
        c = scale * sum((row[k] * x.conj() for k, x in support), ZERO)  # scale <e_j, v>
        try:
            coeffs.append(c.exact_div(den))
        except ValueError:
            raise ValueError(message.format(j)) from None
    m = [list(row) for row in linalg.identity(G.n, ONE)]
    moved = [(j, c) for j, c in enumerate(coeffs) if c]
    for i, x in support:
        mi = m[i]
        for j, c in moved:
            mi[j] = mi[j] - c * x
    return GroupElt(m, G)


def reflection(G: HermGram, r, zeta) -> GroupElt:
    """The zeta-reflection x -> x - (1 - zeta) (<x, r> / <r, r>) r.

    zeta must be a root of unity in E; the matrix must have entries in E,
    otherwise the lattice is not preserved and a ValueError is raised.
    """
    r = vector(r)
    if not isinstance(zeta, EisensteinInt) or not zeta.is_unit():
        raise ValueError("zeta must be a unit of E")
    rr = norm_of(G, r)
    if not rr:
        raise ValueError("reflection root must have nonzero norm")
    message = "reflection does not preserve the lattice: (1 - zeta)<e_{}, r>/<r, r> is not in E"
    return _rank_one(G, r, ONE - zeta, rr, message)


def triflection(G: HermGram, r) -> GroupElt:
    return reflection(G, r, OMEGA)


def hexaflection(G: HermGram, r) -> GroupElt:
    return reflection(G, r, -OMEGA.conj())


def transvection(G: HermGram, xi) -> GroupElt:
    """The unitary transvection x -> x - (<x, xi> / theta) xi in an isotropic xi."""
    xi = vector(xi)
    if norm_of(G, xi):
        raise ValueError("transvection vector must be isotropic")
    message = "transvection does not preserve the lattice: <e_{}, xi>/theta not in E"
    return _rank_one(G, xi, ONE, THETA, message)


def chain_triflections(n: int):
    """The standard braid-generator triflections a_1..a_n on chain(n)."""
    from .hermitian import chain

    G = chain(n)
    return [triflection(G, basis_vector(n, i)) for i in range(n)]


def word_eval(factors) -> GroupElt:
    """Ordered (left-to-right) product of group elements."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty word has no ambient; use identity(G)")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


DEFAULT_ORDER_CAP = 10000


def _first_power(M: GroupElt, cap: int, hit):
    """The smallest k <= cap for which hit holds on the matrix M^k, or Unknown(cap)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    acc = M.m
    for k in range(1, cap + 1):
        if hit(acc):
            return k
        acc = mat_mul(acc, M.m)
    return Unknown(cap)


def _unit_scalars(n: int):
    """The six unit multiples u I of the n x n identity, each mapped to its u."""
    return {tuple(tuple(u if i == j else ZERO for j in range(n)) for i in range(n)): u for u in UNITS}


def order(M: GroupElt, cap: int = DEFAULT_ORDER_CAP):
    """Smallest k <= cap with M^k = I; Infinite for nontrivial unipotents."""
    n = len(M.m)
    I = linalg.identity(n, ONE)
    # a cap below 1 raises in _first_power; a unipotent has trace n, a finite-order M != I does not
    if cap >= 1 and M.m != I and sum((M.m[i][i] for i in range(n)), ZERO) == n:
        # unipotent shortcut: (M - I) nilpotent and M != I means infinite order
        K = tuple(tuple(M.m[i][j] - I[i][j] for j in range(n)) for i in range(n))
        P = K
        for _ in range(n):
            P = mat_mul(P, K)
        if all(not x for row in P for x in row):
            return INFINITE
    return _first_power(M, cap, I.__eq__)


def projective_order(M: GroupElt, modulo_radical: bool = False, cap: int = DEFAULT_ORDER_CAP):
    """Smallest k with M^k a unit scalar, optionally modulo the form's radical.

    Modulo the radical, M^k = u I is tested as G M^k = u G, which says the
    columns of M^k - u I lie in the kernel of the form.
    """
    G = M.ambient
    if modulo_radical:
        multiples = {tuple(tuple(u * x for x in row) for row in G.g) for u in UNITS}
        return _first_power(M, cap, lambda m: mat_mul(G.g, m) in multiples)
    return _first_power(M, cap, _unit_scalars(G.n).__contains__)


NOT_SCALAR = "NotScalar"


def central_word_scalar(n: int):
    """Evaluate (a_1 ... a_n)^(n+1) on chain(n); the unit u if it is u*I."""
    from .hermitian import chain, det_e

    G = chain(n)
    if not det_e(G):
        raise ValueError(f"chain({n}) is degenerate; the scalar is not defined")
    w = word_eval(chain_triflections(n)) ** (n + 1)
    return _unit_scalars(n).get(w.m, NOT_SCALAR)


BRAID = "Braid"
COMMUTE = "Commute"
NEITHER = "Neither"


def braid_check(A: GroupElt, B: GroupElt) -> str:
    if A.ambient != B.ambient:
        raise ValueError("ambient lattices differ")
    if (A * B).m == (B * A).m:
        return COMMUTE
    if (A * B * A).m == (B * A * B).m:
        return BRAID
    return NEITHER


class CapExceeded(Exception):
    pass


def _companion_pack(m, n):
    """The 2n x 2n int64 ``linalg.pack`` of an n x n E-matrix."""
    return np.array(linalg.pack(m), dtype=np.int64).reshape(2 * n, 2 * n)


def _companion_unpack(z, n):
    return tuple(
        tuple(EisensteinInt(int(z[2 * i, 2 * j]), int(z[2 * i + 1, 2 * j])) for j in range(n))
        for i in range(n)
    )


DEFAULT_CLOSURE_CAP = 2_000_000


def env_closure_cap() -> int:
    """The closure cap set by EISENLAT_CLOSURE_CAP, or DEFAULT_CLOSURE_CAP if unset."""
    text = os.environ.get("EISENLAT_CLOSURE_CAP")
    if text is None:
        return DEFAULT_CLOSURE_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"EISENLAT_CLOSURE_CAP must be a positive integer, got {text!r}")
    return cap


_BLOCK = 4096  # elements per batch of int64 products


def _top(a) -> int:
    """The largest |entry| of an int64 array, 0 for an empty one."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _product(a, b):
    """a @ b for int64 packings, vectors or batches of them; OverflowError before an entry could leave int64."""
    ta, tb = _top(a), _top(b)
    if a.shape[-1] * ta * tb >= 2**63:
        raise OverflowError(f"closure products of entries up to {ta} and {tb} could overflow int64")
    return a @ b


def _inverse(z):
    """The inverse of an int64 packing, exactly; ValueError when it has no integer inverse."""
    d, adj = linalg.adjugate(z.tolist())
    if not d or any(x % d for row in adj for x in row):
        raise ValueError("a generator is not invertible over E")
    return np.array([[x // d for x in row] for row in adj], np.int64)


class Orbit:
    """The orbit of e_base under one level's generators in a stabilizer chain, with its Schreier tree.

    Points are packed vectors, compared exactly through their bytes.  Point p is gens[letter[p]]
    applied to point parent[p], and act[p][s] is the point gens[s] maps p to.  trans[p], which
    maps e_base to point p, is that letter times the parent's; trans_inv[p] is its inverse.
    """

    def __init__(self, n, base):
        e = np.eye(2 * n, dtype=np.int64)[2 * base]
        self.base, self.gens, self.invs = base, [], []
        self.points, self.where = [e], {e.tobytes(): 0}
        self.parent, self.letter, self.act = [0], [0], [[]]
        self.trans = self.trans_inv = np.eye(2 * n, dtype=np.int64)[None]

    def find(self, v):
        """The index of each point in v, an (..., 2n) int64 array, or -1 where it is not in the orbit."""
        v = np.ascontiguousarray(v)
        idx = [self.where.get(p.tobytes(), -1) for p in v.reshape(-1, v.shape[-1])]
        return np.array(idx, np.intp).reshape(v.shape[:-1])

    def grow(self, cap, others):
        """Apply every generator to every point, then extend the transversal to the new points.

        CapExceeded once others times the orbit size passes cap.
        """
        for p, row in enumerate(self.act):  # act grows with the orbit, so new points are visited too
            if len(row) == len(self.gens):
                continue
            for img in _product(np.stack(self.gens[len(row) :]), self.points[p]):
                key = img.tobytes()
                if key not in self.where:
                    if (len(self.points) + 1) * others > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    self.where[key] = len(self.points)
                    self.points.append(img)
                    self.parent.append(p)
                    self.letter.append(len(row))
                    self.act.append([])
                row.append(self.where[key])
        self.invs += [_inverse(g) for g in self.gens[len(self.invs) :]]
        trans, trans_inv = list(self.trans), list(self.trans_inv)
        for p in range(len(trans), len(self.points)):  # parents come first
            s, q = self.letter[p], self.parent[p]
            trans.append(_product(self.gens[s], trans[q]))
            trans_inv.append(_product(trans_inv[q], self.invs[s]))
        self.trans, self.trans_inv = np.stack(trans), np.stack(trans_inv)

    def schreier(self):
        """The Schreier generators trans_inv[act[p][s]] gens[s] trans[p], for every point p and generator s."""
        if not self.gens:
            return self.trans[:0]
        p, s = np.divmod(np.arange(len(self.points) * len(self.gens)), len(self.gens))
        return _product(self.trans_inv[np.ravel(self.act)], _product(np.stack(self.gens)[s], self.trans[p]))


def _sift(orbits, y):
    """Strip the orbits' transversal elements off each y in turn, in place: (index, stop).

    stop is the position of the first orbit that misses the image of its base vector, len(orbits)
    when none does; index is the mixed-radix index sum i_l |G_(l+1)| of the stripped part.
    """
    idx, stop, live = np.zeros(len(y), np.int64), np.full(len(y), len(orbits)), np.arange(len(y))
    for depth, o in enumerate(orbits):
        at = o.find(y[live, :, 2 * o.base])
        stop[live[at < 0]] = depth
        live, at = live[at >= 0], at[at >= 0]
        idx[live] = idx[live] * len(o.points) + at
        y[live] = _product(o.trans_inv[at], y[live])
    return idx, stop


def _schreier_sims(levels, cap):
    """Complete the levels, deepest first (Sims 1970; Holt, Eick and O'Brien 2005, 4.4.2).

    A level is complete when each of its Schreier generators sifts through the levels below it.
    One that does not leaves a residue, which joins every level down to the one whose orbit it
    extends; the work resumes there.  The orbits only grow, so the product of their sizes, a
    lower bound on the group order, is checked against cap as each point arrives.
    """
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        level.grow(cap, math.prod(len(lv.points) for lv in levels) // len(level.points))
        y = level.schreier()
        _, stop = _sift(levels[i + 1 :], y)
        bad = np.flatnonzero(stop < len(levels) - i - 1)
        if len(bad):
            j = i + 1 + int(stop[bad[0]])
            for lv in levels[i + 1 : j + 1]:
                lv.gens.append(y[bad[0]])
        i = j if len(bad) else i - 1


class GroupHandle:
    """A finite matrix group as a stabilizer chain over the base e_0, e_1, ... of standard vectors.

    G_0 is the group and G_(l+1) the subgroup of G_l fixing the base vector of orbits[l], which is
    that vector's orbit under G_l.  Each element is one product trans_0[i_0] trans_1[i_1] ... and
    has the index sum i_l |G_(l+1)|, so the identity is 0 and the elements of G_l have the indices
    below |G_l|.  Matrices are formed only for the indices asked for.
    """

    def __init__(self, ambient: HermGram, orbits, generators):
        self.ambient = ambient
        self.orbits = orbits  # the Orbits of length > 1, so every G_l is larger than G_(l+1)
        self.generators = generators  # (k, 2n, 2n) int64 packings of the generating set
        self.sizes = [math.prod(len(o.points) for o in orbits[l:]) for l in range(len(orbits) + 1)]  # |G_l|
        self.order = self.sizes[0]
        self._table = None

    def matrices(self, idx, level=0):
        """The (len(idx), 2n, 2n) packings of the elements of G_level with indices idx."""
        width = self.generators.shape[1]
        out = np.broadcast_to(np.eye(width, dtype=np.int64), (len(idx), width, width))
        idx = np.asarray(idx, np.int64)
        for o, below in zip(self.orbits[level:], self.sizes[level + 1 :]):
            i, idx = np.divmod(idx, below)
            out = _product(out, o.trans[i])
        return out

    def index(self, z, level=0):
        """The indices in G_level of the packings z; ValueError when one is not in G_level."""
        out, ident = np.empty(len(z), np.int64), np.eye(z.shape[-1], dtype=np.int64)
        for start in range(0, len(z), _BLOCK):
            x = z[start : start + _BLOCK].copy()
            out[start : start + _BLOCK], stop = _sift(self.orbits[level:], x)
            if (stop < len(self.orbits) - level).any() or (x != ident).any():
                raise ValueError("not an element of the group: its sift through the chain does not end at I")
        return out

    @property
    def table(self):
        """The (order, k) int32 left Cayley table: the index of g_j x at [x, j]; built on first use."""
        if self._table is None:
            self._table = self._left_rows(self.generators, 0).T.astype(np.int32)
        return self._table

    def _left_rows(self, z, level):
        """rows[q, x]: the index in G_level of z[q] x, for elements z[q] and x of G_level.

        z U_i h = U_z(i) s h with s in G_(level+1): sifting z U_i gives z(i) and s at once.  The row
        of z is i -> z(i) scaled by |G_(level+1)|, plus the level-down row of each distinct s.
        """
        if level == len(self.orbits):
            return np.zeros((len(z), 1), np.int64)
        trans, below = self.orbits[level].trans, self.sizes[level + 1]
        zu = _product(z[:, None], trans[None]).reshape(-1, *trans.shape[1:])
        moved, s = np.divmod(self.index(zu, level).reshape(len(z), len(trans)), below)
        distinct, at = np.unique(s, return_inverse=True)
        rows = self._left_rows(self.matrices(distinct, level + 1), level + 1)
        return (moved[:, :, None] * below + rows[at.reshape(s.shape)]).reshape(len(z), -1)


def group_closure(gens, cap: int = DEFAULT_CLOSURE_CAP) -> GroupHandle:
    """The generated group as a certified stabilizer chain; CapExceeded past cap elements.

    Deterministic Schreier-Sims over the base e_0..e_(n-1): the order is the product of the orbit
    sizes once every Schreier generator sifts, and the cap is checked against that product as the
    orbits grow, before any per-element array exists.  A generator starts at every level whose
    earlier base vectors it fixes.  Raises OverflowError before a product could leave int64.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    G = gens[0].ambient
    if any(g.ambient != G for g in gens):
        raise ValueError("generators have different ambients")
    gen_z = np.stack([_companion_pack(g.m, G.n) for g in gens])
    levels = [Orbit(G.n, b) for b in range(G.n)]
    for z in gen_z:
        for level in levels:
            level.gens.append(z)
            if not (z[:, 2 * level.base] == level.points[0]).all():
                break
    _schreier_sims(levels, cap)
    return GroupHandle(G, [lv for lv in levels if len(lv.points) > 1], gen_z)


def reflections_in(handle: GroupHandle):
    """All complex reflections in the group: (root, rotation unit) pairs, by ascending element index.

    The traces of all elements come from one integer product; only the elements with a reflection's
    trace are formed for ``_reflections``.  The root spans M - I's image, the unit is M's eigenvalue.
    """
    n = handle.ambient.n
    # element i |H| + j is T[i] H[j], T the first transversal and H the elements of its stabilizer
    T = handle.orbits[0].trans if handle.orbits else np.eye(2 * n, dtype=np.int64)[None]
    H = handle.matrices(np.arange(handle.order // len(T)))
    # the trace a + b w sums the diagonal 2 x 2 blocks: a from the even rows of T H, b from the odd ones
    cols = H[:, :, ::2].transpose(0, 2, 1).reshape(len(H), -1).T
    traces = (_product(T[:, r::2].reshape(len(T), -1), cols).ravel() for r in (0, 1))
    z = handle.matrices(np.flatnonzero(_reflection_trace(*traces, n)))  # the traces are freed first
    return [_reflection_data(_companion_unpack(m, n)) for m in z[_reflections(z)]]


def _reflection_trace(tr_a, tr_b, n):
    """Where the trace tr_a + tr_b w of an n x n matrix is n - 1 + zeta for a unit zeta != 1."""
    return np.logical_or.reduce([(tr_a == n - 1 + u.a) & (tr_b == u.b) for u in UNITS if u != ONE])


def _reflections(z):
    """The positions of the complex reflections among the packings z.

    M is a reflection with eigenvalue zeta != 1 iff K = M - I has trace zeta - 1
    and K^2 = (zeta - 1) K, for K / (zeta - 1) is then an idempotent of trace 1,
    so K has rank one.  Only the matrices with such a trace are squared.
    """
    n = z.shape[-1] // 2
    ident = np.eye(2 * n, dtype=np.int64)
    tr_a, tr_b = (np.einsum("kii->k", z[:, r::2, ::2]) for r in (0, 1))
    at = np.flatnonzero(_reflection_trace(tr_a, tr_b, n))
    K = z[at] - ident
    # zeta - 1 = a + b w times I, packed: a I + b (the packing of w I)
    a, b = (t[at, None, None] for t in (tr_a - n, tr_b))
    scalar = a * ident + b * np.kron(np.eye(n, dtype=np.int64), [[0, -1], [1, -1]])
    return at[(_product(K, K) == _product(scalar, K)).all(axis=(1, 2))]


def _reflection_data(m):
    """The root line and rotation unit of a reflection matrix m over E.

    The root is a primitive generator of the image of K = m - I, the unit m's eigenvalue on it.
    """
    n = len(m)
    K = [[m[i][j] - (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    root = _primitive_vector(next(c for c in zip(*K) if any(c)))
    mr = mat_vec(m, root)
    return root, next(u for u in UNITS if mr == tuple(u * x for x in root))


def _primitive_vector(v):
    g = None
    for x in v:
        if x:
            g = x if g is None else e_gcd(g, x)
    out = tuple(x.exact_div(g) for x in v)
    # deterministic orientation: first nonzero coordinate canonical
    u = next(x for x in out if x).canonical_unit()
    return tuple(u * x for x in out)


def _entry_bound(handle: GroupHandle) -> int:
    """A bound on |entry| over the group: an entry of U h is at most the largest row sum of |U| times h's bound.

    Raises OverflowError when a product of two matrices within it, 2n terms below top^2, could leave int64.
    """
    top = math.prod(int(np.abs(o.trans).sum(axis=2).max()) for o in handle.orbits)
    if 2 * handle.ambient.n * top * top >= 2**63:
        raise OverflowError(f"entries up to {top} could overflow int64 in products of group elements")
    return top


def _power_sums(g, bound: int, top: int):
    """P = I + g + ... + g^(k-1) for a batch g of packings, k the order of g.

    k is at most bound.  Raises ValueError when a power leaves the entry
    bound top (it is then no element) or does not reach I in time.
    """
    ident = np.eye(g.shape[1], dtype=np.int64)
    P = np.broadcast_to(ident, g.shape).copy()
    live, power = np.arange(len(g)), g
    for _ in range(bound):
        keep = (power != ident).any(axis=(1, 2))
        live, power = live[keep], power[keep]
        if not len(live):
            return P
        if _top(power) > top:
            raise ValueError("not a finite group: some element's power is not in it")
        P[live] += power
        power = power @ g[live]
    raise ValueError("not a finite group: some element's powers never reach I")


def _conjugations(handle: GroupHandle):
    """The conjugations x -> g x g^-1 by the generators g, as index arrays.

    Element i |G_1| + j is T[i] h_j, T the first orbit's transversal and h_j in G_1.  For i > 0,
    T[i] = g_a T[p], a and p the letter and parent of point i in the orbit's Schreier tree (whose
    generators must be the handle's), so x = g_a y, y = p |G_1| + j, and x g^-1 = g_a (y g^-1) is
    the left table's entry [y g^-1, a].  Row by row of |G_1|, x g^-1 fills in one tree depth at a
    time from the root row h_j g^-1, located by sifting.  Conjugation is g's column read there.
    """
    if not handle.orbits:
        return []  # the trivial group
    o, gens = handle.orbits[0], handle.generators
    if len(o.gens) != len(gens) or not np.array_equal(np.stack(o.gens), gens):
        raise ValueError("the generators do not generate the group through its first orbit's Schreier tree")
    parent, letter, depth = np.array(o.parent), np.array(o.letter), [0]
    for p in o.parent[1:]:  # parents come first
        depth.append(depth[p] + 1)
    layers = [np.flatnonzero(np.equal(depth, d)) for d in range(1, max(depth) + 1)]
    H, table, maps = handle.matrices(np.arange(handle.sizes[1])), handle.table, []
    for inv, col in zip(o.invs, table.T):
        right = np.empty((len(parent), len(H)), np.intp)
        right[0] = handle.index(_product(H, inv))
        for x in layers:
            right[x] = table[right[parent[x]], letter[x, None]]
        maps.append(col[right.ravel()])
    return maps


def _class_labels(handle: GroupHandle):
    """Each element's class label, the least index in its orbit under the generators' conjugations."""
    maps = _conjugations(handle)
    # min-label propagation with pointer jumping; each label stays in its orbit
    labels = np.arange(handle.order)
    while True:
        new = labels
        for image in maps:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def conjugacy_classes(handle: GroupHandle):
    """(representatives, sizes) of the conjugacy classes, each class represented by its least index."""
    return np.unique(_class_labels(handle), return_counts=True)


def _class_reflections(handle: GroupHandle, labels):
    """``reflections_in``'s list from the class labels: trace and rank are class invariants, so
    the reflections are the members of the classes whose representative (label = index) is one."""
    reps, n = np.flatnonzero(labels == np.arange(len(labels))), handle.ambient.n
    blocks = np.split(reps, range(_BLOCK, len(reps), _BLOCK))
    refl = np.concatenate([b[_reflections(handle.matrices(b))] for b in blocks])
    members = handle.matrices(np.flatnonzero(np.isin(labels, refl)))
    return [_reflection_data(_companion_unpack(m, n)) for m in members]


def free_action_check(handle: GroupHandle) -> bool:
    """True iff each non-identity element's fixed space lies in some mirror,
    i.e. the group acts freely off the union of its reflection mirrors.

    The fixed space of g is the column span of P_g = I + g + ... + g^(k-1),
    k the order of g (g P_g = P_g, and P_g v = k v when g fixes v), so it
    lies in the mirror of r iff the row (<e_i, r>)_i times P_g vanishes.
    The zero fixed space (P_g = 0) is vacuously contained.  Conjugation moves
    fixed spaces and mirrors together, so one element per class is tested,
    and only those elements' matrices are formed; the mirrors come from them too.
    """
    G, n = handle.ambient, handle.ambient.n
    top = _entry_bound(handle)
    labels = _class_labels(handle)
    mirrors = dict.fromkeys(root for root, _ in _class_reflections(handle, labels))
    # each mirror as the first packed row of (<e_i, r>)_i = G rbar; it vanishes iff the E-row does
    rows = np.array(
        [[x for c in mat_vec(G.g, [y.conj() for y in r]) for x in (c.a, -c.b)] for r in mirrors], np.int64
    ).reshape(-1, 2 * n)
    # _power_sums keeps each power within top; P_g sums at most |group| powers, rows @ P_g 2n terms
    row_top = int(np.abs(rows).max(initial=0))
    if handle.order * top * max(1, 2 * n * row_top) >= 2**63:
        raise OverflowError(f"entries up to {top} could overflow int64 in the fixed-space projectors")
    reps, ident = np.flatnonzero(labels == np.arange(handle.order)), np.eye(2 * n, dtype=np.int64)
    for start in range(0, len(reps), _BLOCK):
        g = handle.matrices(reps[start : start + _BLOCK])
        P = _power_sums(g[(g != ident).any(axis=(1, 2))], handle.order, top)
        P = P[P.any(axis=(1, 2))]
        if not (rows @ P == 0).all(axis=2).any(axis=1).all():
            return False
    return True


def chain_signed(eps):
    """chain(5)-like Gram with <r_i, r_{i+1}> = eps_i * theta, eps_i = +-1."""
    n = len(eps) + 1
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = EisensteinInt(3)
        if i + 1 < n:
            t = THETA if eps[i] == 1 else -THETA
            rows[i][i + 1] = t
            rows[i + 1][i] = t.conj()
    return HermGram(rows)


A5_XI = (ONE, -THETA, EisensteinInt(-2), THETA, ONE)


def a5_transvection_report():
    """Search the sign patterns <r_i, r_{i+1}> = eps_i theta for those making
    xi = r1 - theta r2 - 2 r3 + theta r4 + r5 isotropic, and check that
    (a1..a5)^6 equals the transvection in xi (both product orders).

    Returns a list of dicts, one per isotropic pattern.
    """
    out = []
    for eps in itertools.product((1, -1), repeat=4):
        G = chain_signed(eps)
        if norm_of(G, A5_XI):
            continue
        gens = [triflection(G, basis_vector(5, i)) for i in range(5)]
        T = transvection(G, A5_XI)
        ltr = (word_eval(gens) ** 6).m == T.m
        rtl = (word_eval(list(reversed(gens))) ** 6).m == T.m
        out.append(
            {
                "pattern": eps,
                "xi_nonzero": any(A5_XI),
                "left_to_right": ltr,
                "right_to_left": rtl,
            }
        )
    return out


def d4_star_gram():
    """Gram of the D4 star: three orthogonal roots r1, r2, r3 and a central
    root r' with <r_i, r'> = theta."""
    t, tc, z, three = THETA, THETA.conj(), ZERO, EisensteinInt(3)
    return HermGram(
        [
            [three, z, z, t],
            [z, three, z, t],
            [z, z, three, t],
            [tc, tc, tc, three],
        ]
    )


D4_XI = (ONE, ONE, ONE, -THETA)


def d4_transvection_report():
    """(a1 a2 a3 b)^3 versus the transvection in xi = r1 + r2 + r3 - theta r'."""
    G = d4_star_gram()
    gens = [triflection(G, basis_vector(4, i)) for i in range(4)]
    T = transvection(G, D4_XI)
    return {
        "xi_isotropic": not norm_of(G, D4_XI),
        "xi_nonzero": any(D4_XI),
        "left_to_right": (word_eval(gens) ** 3).m == T.m,
        "right_to_left": (word_eval(list(reversed(gens))) ** 3).m == T.m,
    }


def braid_loop_word(n: int = 11):
    """The word a1..a_{n-1} a_n^2 a_{n-1}..a1 on chain(n): the leftmost strand
    circling all others."""
    gens = chain_triflections(n)
    seq = gens[: n - 1] + [gens[n - 1], gens[n - 1]] + list(reversed(gens[: n - 1]))
    return word_eval(seq)


def f3_reduce(M: GroupElt):
    """Entrywise reduction of the matrix modulo theta, as an F_3 matrix."""
    return tuple(tuple(reduce_mod_theta(x) for x in row) for row in M.m)


def symplectic_gram(G: HermGram):
    """The F_3 pairing on L/theta L: (v, w) = reduction of <v, w>/theta mod theta."""
    if not in_theta_dual(G):
        raise ValueError("symplectic reduction needs all inner products in theta*E")
    n = G.n
    return tuple(
        tuple(reduce_mod_theta(G.g[i][j].exact_div(THETA)) for j in range(n))
        for i in range(n)
    )


def f3_rank(mat) -> int:
    return len(f3_rref([list(r) for r in mat]))
