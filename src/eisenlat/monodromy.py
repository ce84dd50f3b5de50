"""Complex reflections, unitary transvections, braid words and finite closures.

Group elements are matrices over E acting on the left of column vectors in a
fixed ambient Hermitian lattice; every constructor checks that the lattice is
preserved exactly.  The finite groups R_1..R_4 generated by triflections in
chain roots are held as stabilizer chains (Schreier-Sims), with the matrices
packed by ``linalg.pack`` into int64 arrays so numpy can batch the products.
"""

from __future__ import annotations

import functools
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
    to_e,
)
from .hermitian import (
    HermGram,
    basis_vector,
    chain,
    det_e,
    gram,
    is_isometry,
    mat_mul,
    norm_of,
    pairings,
    signature,
    vector,
)
from . import linalg
from .hnf import hnf_columns_e
from .linalg import mat_vec

INFINITE = "Infinite"


class GroupElt:
    """Matrix over E together with its ambient Hermitian Gram.

    The checked path converts the entries with ``to_e`` and tests the isometry; check=False takes m
    as it is, a tuple of row tuples of EisensteinInt, which ``mat_mul`` and ``linalg.identity`` give.
    """

    __slots__ = ("m", "ambient")

    def __init__(self, m, ambient: HermGram, check=True):
        if check:
            m = tuple(tuple(map(to_e, row)) for row in m)
            if not is_isometry(ambient, m):
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

    Entry (i, j) is delta_ij - coeff_j v_i, coeff_j = scale <e_j, v> / den,
    with the <e_j, v> read off ``hermitian.pairings``, so only rows in v's
    support and columns with coeff_j != 0 move.  The first coeff_j not in E
    raises a ValueError with ``message.format(j)``.
    """
    moved = []  # (j, coeff_j) for each <e_j, v> != 0
    for j, c in enumerate(pairings(G, v)):
        if c:
            try:
                moved.append((j, (scale * c).exact_div(den)))
            except ValueError:
                raise ValueError(message.format(j)) from None
    m = [list(row) for row in linalg.identity(G.n, ONE)]
    for i, x in enumerate(v):
        if x:
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
    """The smallest k <= cap for which hit holds on the matrix M^k, or "Unknown(cap=N)" for cap N."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    acc = M.m
    for k in range(1, cap + 1):
        if hit(acc):
            return k
        acc = mat_mul(acc, M.m)
    return f"Unknown(cap={cap})"


def _unit_scalars(n: int):
    """The six unit multiples u I of the n x n identity, each mapped to its u."""
    return {linalg.identity(n, u): u for u in UNITS}


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


class InfiniteGroup(CapExceeded):
    """Reflection generators of an infinite group, refused before any orbit grows."""


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
    return max(int(np.maximum.reduce(a, None, initial=0)), -int(np.minimum.reduce(a, None, initial=0)))


def _product(a, b, tb=None):
    """a @ b for int64 packings, vectors or batches of them; OverflowError before an entry could leave int64.

    tb bounds _top(b), for a caller that multiplies many a by one b.
    """
    ta, tb = _top(a), _top(b) if tb is None else tb
    if a.shape[-1] * ta * tb >= 2**63:
        raise OverflowError(f"closure products of entries up to {ta} and {tb} could overflow int64")
    return a @ b


def _inverse(z):
    """The inverse of an int64 packing, exactly; None when it has no integer inverse."""
    d, adj = linalg.adjugate(z.tolist())
    if not d or any(x % d for row in adj for x in row):
        return None
    return np.array([[x // d for x in row] for row in adj], np.int64)


def _keys(a, w):
    """The dict keys of the points in a, an int64 array of whole points of width w: their bytes, in order."""
    return np.ascontiguousarray(a).reshape(-1, w).view(np.dtype((np.void, 8 * w))).ravel().tolist()


class Orbit:
    """The orbit of e_base under one level's generators in a stabilizer chain, with its Schreier tree.

    Points are packed vectors, compared exactly through their bytes in ``where``.  Point p is
    gens[letter[p]] applied to point parent[p].  trans[p], which maps e_base to point p, is that
    letter times the parent's, so point p is its base column; trans_inv[p] is its inverse.  invs[s]
    is the inverse of gens[s] (None if it has none), formed once where gens[s] is made.
    sifted[p, s] is set once the Schreier generator of p and s has sifted to I; it stays set, for
    the points and transversal elements it rests on never change.  It is set from the start for each
    tree edge, p = parent[q] and s = letter[q]: trans[q] = gens[s] trans[p], so that one is I.

    The orbit grows one breadth-first level at a time, and a fresh point takes the next number in
    the order it first occurs in the (point, generator) scan: the numbering of a point-by-point
    search, so every index is the same whichever way the orbit is grown.  A point is kept once: as
    its key in ``where`` (and a row of its level while that level is expanded), then as a base column.
    """

    def __init__(self, n, base):
        e = np.eye(2 * n, dtype=np.int64)[2 * base]
        self.base, self.gens, self.invs, self.where = base, [], [], {_keys(e, 2 * n)[0]: 0}
        self.parent, self.letter, self.sifted = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros((1, 0), bool)
        self.trans = self.trans_inv = np.eye(2 * n, dtype=np.int64)[None]

    @property
    def points(self):
        """The (size, 2n) points, each the base column of its transversal element."""
        return self.trans[:, :, 2 * self.base]

    def find(self, v):
        """The index of each point in v, an (..., 2n) int64 array, or -1 where it is not in the orbit."""
        idx = [self.where.get(b, -1) for b in _keys(v, v.shape[-1])]
        return np.array(idx, np.intp).reshape(v.shape[:-1])

    def grow(self, cap, others):
        """Apply the generators new since the last call to the old points, then all of them to each
        new level, and extend the transversal one level per product.

        Each block of _BLOCK points of a level is one product.  CapExceeded once others times the
        orbit size passes cap, checked as each point arrives.
        """
        k, known, points = len(self.gens), self.sifted.shape[1], self.points
        if k == known:
            return
        gens, old, parent, letter = np.stack(self.gens), len(points), [], []
        w, where = gens.shape[-1], self.where
        images = gens.reshape(-1, w).T  # a row v times it lists gens[s] v for each s in turn
        # the first level meets the generators from known on, every later one all of them
        meets = {f: (images[:, f * w :], _top(images[:, f * w :])) for f in (known, 0)}
        bounds, first = [0, old], known  # the levels are [bounds[i], bounds[i + 1])
        while len(points):
            m, (level, top), found = k - first, meets[first], []
            for start in range(0, len(points), _BLOCK):
                img = _product(points[start : start + _BLOCK], level, top)
                fresh = []
                for j, b in enumerate(_keys(img, w)):
                    if b not in where:
                        if (len(where) + 1) * others > cap:
                            raise CapExceeded(f"closure exceeded cap {cap}")
                        where[b] = len(where)
                        fresh.append(j)
                found.append(img.reshape(-1, w)[fresh])
                parent += [bounds[-2] + start + j // m for j in fresh]
                letter += [first + j % m for j in fresh]
            points = np.concatenate(found)
            bounds.append(len(where))
            first = 0
        size = len(where)
        self.parent = np.concatenate([self.parent, np.array(parent, np.int64)])
        self.letter = np.concatenate([self.letter, np.array(letter, np.int64)])
        sifted = np.zeros((size, k), bool)
        sifted[:old, :known] = self.sifted
        sifted[self.parent[old:], self.letter[old:]] = True
        self.sifted = sifted
        if any(inv is None for inv in self.invs[known:]):
            raise ValueError("a generator is not invertible over E")
        invs = np.stack(self.invs)
        trans, trans_inv = np.empty((2, size, w, w), np.int64)
        trans[:old], trans_inv[:old] = self.trans, self.trans_inv
        for lo, hi in zip(bounds[1:], bounds[2:]):  # parents come a level earlier
            s, q = self.letter[lo:hi], self.parent[lo:hi]
            trans[lo:hi] = _product(gens[s], trans[q])
            trans_inv[lo:hi] = _product(trans_inv[q], invs[s])
        self.trans, self.trans_inv = trans, trans_inv

    def schreier(self):
        """Each gens[s] trans[p] not sifted yet, with p and s; stripped by this level it is their Schreier generator."""
        p, s = np.nonzero(~self.sifted)
        if not len(p):
            return p, s, self.trans[:0]
        return p, s, _product(np.stack(self.gens)[s], self.trans[p])


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

    A level is complete when each of its Schreier generators sifts through the levels below it:
    gens[s] trans[p] sifts through its own level first, whose strip leaves the Schreier generator
    of p and s.  One that does not pass leaves a residue, which joins every level below it down to
    the one whose orbit it extends; the work resumes there.  The orbits only grow, so the product
    of their sizes, a lower bound on the group order, is checked against cap as each point arrives.
    A Schreier generator that sifted once is not sifted again: the levels below only gain points,
    and an old point keeps its index and its transversal element, so its sift takes the same steps.
    """
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        level.grow(cap, math.prod(len(lv.points) for lv in levels) // len(level.points))
        p, s, y = level.schreier()
        _, stop = _sift(levels[i:], y)
        passed = stop == len(levels) - i
        level.sifted[p[passed], s[passed]] = True
        bad = np.flatnonzero(~passed)
        if len(bad):
            j = i + int(stop[bad[0]])
            if not levels[i + 1 : j + 1]:
                raise RuntimeError(f"Schreier-Sims made no progress: a residue at level {i} joins no level")
            inv = _inverse(y[bad[0]])
            for lv in levels[i + 1 : j + 1]:
                lv.gens.append(y[bad[0]])
                lv.invs.append(inv)
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

    def matrices(self, idx, level=0):
        """The (len(idx), 2n, 2n) packings of the elements of G_level with indices idx."""
        width = self.generators.shape[1]
        out = np.broadcast_to(np.eye(width, dtype=np.int64), (len(idx), width, width))
        idx = np.asarray(idx, np.int64)
        for o, below in zip(self.orbits[level:], self.sizes[level + 1 :]):
            i, idx = np.divmod(idx, below)
            out = _product(out, o.trans[i])
        return out

    @functools.cached_property
    def reflection_rows(self):
        """``_reflection_rows`` of the group, searched once on first use: a closed handle does not change."""
        return _reflection_rows(self)


def group_closure(gens, cap: int = DEFAULT_CLOSURE_CAP) -> GroupHandle:
    """The generated group as a certified stabilizer chain; CapExceeded past cap elements.

    Reflections that generate an infinite group raise InfiniteGroup before any orbit grows.  Otherwise
    deterministic Schreier-Sims over the base e_0..e_(n-1): the order is the product of the orbit
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
    gen_z = np.stack([np.array(linalg.pack(g.m), np.int64) for g in gens])
    _refuse_infinite(G, gen_z)
    levels = [Orbit(G.n, b) for b in range(G.n)]
    for z, inv in zip(gen_z, map(_inverse, gen_z)):
        for level in levels:
            level.gens.append(z)
            level.invs.append(inv)
            if not (z[:, 2 * level.base] == level.points[0]).all():
                break
    _schreier_sims(levels, cap)
    return GroupHandle(G, [lv for lv in levels if len(lv.points) > 1], gen_z)


def _refuse_infinite(G: HermGram, gen_z):
    """InfiniteGroup when the packings gen_z, isometries of G, are reflections in roots of nonzero norm that generate
    an infinite group: the form is indefinite or degenerate on the span of some component of the roots, linked
    where they have a nonzero inner product (Shephard and Todd 1954).  Generators of any other kind pass."""
    roots = _reflections(gen_z)[2]  # one per generator that is a reflection
    h, k = gram(G, roots), len(roots)
    if k < len(gen_z) or not all(h[i][i] for i in range(k)):
        return
    link = np.array([[bool(x) for x in row] for row in h])  # with its diagonal, so link^k joins each component
    for idx in sorted({tuple(np.flatnonzero(row).tolist()) for row in np.linalg.matrix_power(link, k)}):
        pos, _, neg = signature(HermGram([[h[i][j] for j in idx] for i in idx]))
        if (pos and neg) or pos + neg < len(hnf_columns_e([roots[i] for i in idx])):
            kind = "indefinite" if pos and neg else "degenerate"
            raise InfiniteGroup(f"infinite reflection group: the form is {kind} on the roots of generators {idx}")


def _reflection_rows(handle: GroupHandle):
    """The group's reflections by ascending element index, each as (unit, root, mirror pair) read by ``_reflections``.

    A reflection M x = x + phi(x) r first moves the base e_b of some level, to p = e_b + r.  As M is an isometry,
    phi(x) = <x, r> / <e_b, r> unless r is in the radical, so the coset labelled p holds one candidate, where
    <x, r> = <T^-1 x - x, e_b> for T = trans[p].  Those with entries in E that ``_reflections`` certifies are
    sifted, for membership and index.  A coset whose r is in the radical, as only a degenerate form allows, is
    certified element by element, _BLOCK at a time.
    """
    if not handle.orbits:
        return []
    n, parts, radical = handle.ambient.n, [], []
    ident = np.eye(2 * n, dtype=np.int64)
    for l, o in enumerate(handle.orbits):
        b = 2 * o.base
        row = np.array(linalg.pack([pairings(handle.ambient, basis_vector(n, o.base))]), np.int64)  # x -> <x, e_b>
        F = _product(row, o.trans_inv[1:] - ident)  # x -> <x, r>
        parts.append((F, F[:, :, b : b + 2], o.trans[1:, :, b : b + 2] - ident[:, b : b + 2]))  # <e_b, r>, c -> c r
        radical += [(l, p) for p in np.flatnonzero(~F.any(axis=(1, 2))) + 1]
    F, B, L = map(np.concatenate, zip(*parts))
    adj = B.transpose(0, 2, 1)[:, ::-1, ::-1] * np.array([[1, -1], [-1, 1]])  # conj(<e_b, r>); det its norm
    det = _product(B, adj)[:, 0, 0]
    num = _product(_product(L, adj), F, _top(F) + 1)  # room to add I after / det
    whole = (det > 0) & ~(num % np.maximum(det, 1)[:, None, None]).any(axis=(1, 2))
    z = ident + num[whole] // det[whole, None, None]
    at, *read = _reflections(z)
    y = z[at]
    idx, stop = _sift(handle.orbits, y)
    member = (stop == len(handle.orbits)) & (y == ident).all(axis=(1, 2))
    found, kept = [idx[member]], [k for k, m in zip(zip(*read), member) if m]
    for l, p in radical:
        o, size = handle.orbits[l], handle.sizes[l + 1]
        for lo in range(0, size, _BLOCK):
            H = handle.matrices(np.arange(lo, min(lo + _BLOCK, size)), l + 1)
            at, *read = _reflections(_product(o.trans[p], H))
            found.append(p * size + lo + at)
            kept += zip(*read)
    return [kept[k] for k in np.argsort(np.concatenate(found))]


def reflections_in(handle: GroupHandle):
    """All complex reflections in the group: (root, rotation unit) pairs, by ascending element index.

    Each root is the primitive multiple of the one ``_reflection_rows`` reads, found once per line.
    """
    kept = handle.reflection_rows
    lines = [_oriented(v) for _, v, _ in kept]
    root = {line: _primitive_vector(line) for line in set(lines)}
    return [(root[line], u) for line, (u, _, _) in zip(lines, kept)]


def _reflections(z):
    """The complex reflections among the packings z: (at, units, roots, mirrors), one entry per reflection.

    M is a reflection with eigenvalue zeta != 1 iff K = M - I has trace zeta - 1 and K^2 = (zeta - 1) K, for
    K / (zeta - 1) is then an idempotent of trace 1, so of rank one; only the M of trace n - 1 + zeta, zeta a unit
    != 1, are squared.  For z[at[r]], units[r] is zeta, roots[r] the first nonzero column of K as an E-vector, which
    spans im K, and mirrors[r] both packed rows (a, -b, ...) and (b, a - b, ...) of K's first nonzero E-row m, which
    give the a- and b-parts of m v on a packed E-vector v and so both vanish exactly on ker K.  ``_reflection_rows``
    runs it on its candidates and its cosets in the radical.
    """
    n = z.shape[-1] // 2
    ident = np.eye(2 * n, dtype=np.int64)
    tr_a, tr_b = (np.einsum("kii->k", z[:, r::2, ::2]) for r in (0, 1))
    at = np.flatnonzero(np.logical_or.reduce([(tr_a == n - 1 + u.a) & (tr_b == u.b) for u in UNITS if u != ONE]))
    K = z[at] - ident
    # zeta - 1 = a + b w times I, packed: a I + b (the packing of w I)
    a, b = (t[at, None, None] for t in (tr_a - n, tr_b))
    scalar = a * ident + b * np.array(linalg.pack(linalg.identity(n, OMEGA)), np.int64)
    rank_one = (_product(K, K) == _product(scalar, K)).all(axis=(1, 2))
    at, K, r = at[rank_one], K[rank_one], np.arange(int(rank_one.sum()))
    units = [EisensteinInt(x - n + 1, y) for x, y in zip(tr_a[at].tolist(), tr_b[at].tolist())]
    cols = K[r, :, 2 * K[:, :, ::2].any(axis=1).argmax(axis=1)].reshape(len(K), n, 2).tolist()
    roots = [[EisensteinInt(x, y) for x, y in c] for c in cols]
    return at, units, roots, K[r[:, None], 2 * K[:, ::2].any(axis=2).argmax(axis=1)[:, None] + [0, 1]]


def _oriented(v):
    """The unit multiple of v != 0 whose first nonzero entry is canonical, the same for all unit multiples."""
    u = next(x for x in v if x).canonical_unit()
    return tuple(u * x for x in v)


def _primitive_vector(v):
    g = e_gcd(*v)
    return _oriented([x.exact_div(g) for x in v])


def _entry_bound(handle: GroupHandle) -> int:
    """A bound on |entry| over the group: an entry of U h is at most the largest row sum of |U| times h's bound.

    Raises OverflowError when a product of two matrices within it, 2n terms below top^2, could leave int64.
    """
    top = math.prod(int(np.abs(o.trans).sum(axis=2).max()) for o in handle.orbits)
    if 2 * handle.ambient.n * top * top >= 2**63:
        raise OverflowError(f"entries up to {top} could overflow int64 in products of group elements")
    return top


def _power_sums(g, k: int, top: int):
    """The even columns of P = I + g + ... + g^(k-1) for a batch g of packings of order k: P as an E-matrix.

    Each power is a group element, so within the entry bound top, and costs one product.
    """
    power = g[:, :, ::2]
    P = np.eye(g.shape[1], dtype=np.int64)[:, ::2] + power
    for _ in range(k - 2):
        power = _product(g, power, top)
        P += power
    return P


def _suborbits(handle: GroupHandle):
    """The least index of each orbit of G_1 on the first orbit's points, G_1 the stabilizer of its base.

    In a complete chain the second orbit's generators generate G_1, which is trivial when there is no second
    orbit.  Each label falls to the least label it reaches through them, with pointer jumping, until none moves.
    """
    o = handle.orbits[0]
    label = np.arange(len(o.points))
    if len(handle.orbits) == 1:
        return label
    gens = np.stack(handle.orbits[1].gens)
    w = gens.shape[-1]
    moved = o.find(_product(o.points, gens.reshape(-1, w).T).reshape(len(label), -1, w))  # [p, s]: gens[s] p
    while True:
        new = np.minimum(label, label[moved].min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            return np.flatnonzero(label == np.arange(len(label)))
        label = new


def free_action_check(handle: GroupHandle) -> bool:
    """True iff each non-identity element's fixed space lies in some mirror,
    i.e. the group acts freely off the union of its reflection mirrors.

    The fixed space of g is the column span of P_g = I + g + ... + g^(k-1),
    k the order of g (g P_g = P_g, and P_g v = k v when g fixes v), so it
    lies in the mirror of a reflection M iff a nonzero E-row of M - I vanishes on P_g, that is iff both its
    packed rows vanish on the even columns of P_g's packing, which are P_g as an E-matrix; the zero fixed
    space (P_g = 0) is vacuously contained.  Three exact reductions pick the elements tested:

    * fix(g) lies in fix(g^(k/p)) for a prime p dividing k, so only elements of prime order are tested;
    * conjugation moves fixed spaces and mirrors together, and each x is conjugate by some s in G_1, the
      stabilizer of the first orbit's base b, to an element of the coset trans[r] G_1 of the least point r
      of x(b)'s G_1-orbit (s x s^-1 sends b to s x(b) = r), so one coset per G_1-orbit is formed;
    * an element g of prime order p >= 5 with p > n, the rank, fixes no vector, so only the primes
      p <= max(3, n) are stepped.  The characteristic polynomial of g has coefficients in Q(w), and the
      cyclotomic polynomial of p stays irreducible over Q(w), as Q(zeta_p) meets Q(w) only in Q.  So every
      primitive p-th root of unity is an eigenvalue of g, each as often, and 1 is one at most n - (p - 1)
      times, none when p > n: P_g = 0.  The primes 2 and 3 split over Q(w) and are always stepped.

    Each coset is formed in blocks of at most _BLOCK elements X, several small cosets to a block, which step
    through the even columns of their powers X^k, k = 2 up to the largest prime p <= max(3, n) dividing the
    order, one product a step and no list of powers kept.  At a prime k the elements with X^k = I, of order k,
    are tested; after each k they are dropped.  ``reflection_rows`` gives the mirrors' pairs of rows.
    """
    if not handle.orbits:
        return True  # the trivial group
    n, top = handle.ambient.n, _entry_bound(handle)
    rows = np.array([m for *_, m in handle.reflection_rows], np.int64).reshape(-1, 2, 2 * n)
    primes = [p for p in range(2, max(3, n) + 1) if handle.order % p == 0 and all(p % d for d in range(2, p))]
    last = max(primes, default=1)
    # P_g sums at most `last` powers, each within top; rows @ P_g sums 2n terms
    if last * top * max(1, 2 * n * int(np.abs(rows).max(initial=0))) >= 2**63:
        raise OverflowError(f"entries up to {top} could overflow int64 in the fixed-space projectors")
    o, size, ident = handle.orbits[0], handle.sizes[1], np.eye(2 * n, dtype=np.int64)
    cosets = o.trans[_suborbits(handle)]
    for lo in range(0, size, _BLOCK):
        H = handle.matrices(np.arange(lo, min(lo + _BLOCK, size)), 1)
        step = max(1, _BLOCK // 4 // len(H))  # cosets a block: one when G_1 is large, where more are slower
        for c in range(0, len(cosets), step):
            x = _product(cosets[c : c + step, None], H[None], top).reshape(-1, 2 * n, 2 * n)
            x = x[(x != ident).any(axis=(1, 2))]
            power = x[:, :, ::2]  # an E-matrix is its packing's even columns, so X^k = I is read there
            for k in range(2, last + 1):
                power = _product(x, power, top)
                done = (power == ident[:, ::2]).all(axis=(1, 2))
                if k in primes:
                    P = _power_sums(x[done], k, top)
                    P = P[P.any(axis=(1, 2))]
                    if not (rows @ P[:, None] == 0).all(axis=(2, 3)).any(axis=1).all():
                        return False
                x, power = x[~done], power[~done]
    return True


def chain_signed(eps):
    """chain(5)-like Gram with <r_i, r_{i+1}> = eps_i * theta, eps_i = +-1: chain's signs flipped."""
    rows = [list(row) for row in chain(len(eps) + 1).g]
    for i, e in enumerate(eps):
        if e != 1:
            rows[i][i + 1], rows[i + 1][i] = -rows[i][i + 1], -rows[i + 1][i]
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
        out.append({"pattern": eps, "xi_nonzero": any(A5_XI), **_transvection_word(G, A5_XI, 6)})
    return out


def _transvection_word(G: HermGram, xi, k):
    """Whether the k-th power of the product of the triflections in G's basis vectors, read left to right
    and right to left, equals the transvection in xi."""
    gens = [triflection(G, basis_vector(G.n, i)) for i in range(G.n)]
    T = transvection(G, xi)
    return {
        "left_to_right": (word_eval(gens) ** k).m == T.m,
        "right_to_left": (word_eval(gens[::-1]) ** k).m == T.m,
    }


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
    return {"xi_isotropic": not norm_of(G, D4_XI), "xi_nonzero": any(D4_XI), **_transvection_word(G, D4_XI, 3)}


def braid_loop_word(n: int = 11):
    """The word a1..a_{n-1} a_n^2 a_{n-1}..a1 on chain(n): the leftmost strand
    circling all others."""
    gens = chain_triflections(n)
    seq = gens[: n - 1] + [gens[n - 1], gens[n - 1]] + list(reversed(gens[: n - 1]))
    return word_eval(seq)
