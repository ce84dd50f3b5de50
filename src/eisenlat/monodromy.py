"""Complex reflections, unitary transvections, braid words and finite closures.

Group elements are matrices over E acting on the left of column vectors in a
fixed ambient Hermitian lattice; every constructor checks that the lattice is
preserved exactly.  The finite groups R_1..R_4 generated by triflections in
chain roots are enumerated by breadth-first closure, with the matrices packed
into an integer companion embedding so numpy can batch the products.
"""

from __future__ import annotations

import itertools
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
    ip,
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
    n = G.n
    one_minus = ONE - zeta
    cols = []
    for j in range(n):
        e = basis_vector(n, j)
        c = one_minus * ip(G, e, r)
        try:
            coeff = c.exact_div(rr)
        except ValueError:
            raise ValueError(
                "reflection does not preserve the lattice: "
                f"(1 - zeta)<e_{j}, r>/<r, r> is not in E"
            ) from None
        cols.append(tuple(e[i] - coeff * r[i] for i in range(n)))
    m = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return GroupElt(m, G)


def triflection(G: HermGram, r) -> GroupElt:
    return reflection(G, r, OMEGA)


def hexaflection(G: HermGram, r) -> GroupElt:
    return reflection(G, r, -OMEGA.conj())


def transvection(G: HermGram, xi) -> GroupElt:
    """The unitary transvection x -> x - (<x, xi> / theta) xi in an isotropic xi."""
    xi = vector(xi)
    if norm_of(G, xi):
        raise ValueError("transvection vector must be isotropic")
    n = G.n
    cols = []
    for j in range(n):
        e = basis_vector(n, j)
        c = ip(G, e, xi)
        try:
            coeff = c.exact_div(THETA)
        except ValueError:
            raise ValueError(
                f"transvection does not preserve the lattice: <e_{j}, xi>/theta not in E"
            ) from None
        cols.append(tuple(e[i] - coeff * xi[i] for i in range(n)))
    m = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return GroupElt(m, G)


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


def order(M: GroupElt, cap: int = DEFAULT_ORDER_CAP):
    """Smallest k <= cap with M^k = I; Infinite for nontrivial unipotents."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = len(M.m)
    I = linalg.identity(n, ONE)
    if M.m == I:
        return 1
    # unipotent shortcut: (M - I) nilpotent and M != I means infinite order
    K = tuple(
        tuple(M.m[i][j] - I[i][j] for j in range(n)) for i in range(n)
    )
    P = K
    for _ in range(n):
        P = mat_mul(P, K)
    if all(not x for row in P for x in row):
        return INFINITE
    acc = M
    for k in range(1, cap + 1):
        if acc.m == I:
            return k
        acc = acc * M
    return Unknown(cap)


def _scalar_of(m):
    """The unit u with m = u*I, or None."""
    n = len(m)
    u = m[0][0]
    for i in range(n):
        for j in range(n):
            if m[i][j] != (u if i == j else ZERO):
                return None
    return u if u.is_unit() else None


def projective_order(M: GroupElt, modulo_radical: bool = False, cap: int = DEFAULT_ORDER_CAP):
    """Smallest k with M^k a unit scalar, optionally modulo the form's radical.

    Modulo the radical, M^k = u I is tested as G (M^k - u I) = 0, which says
    the columns of M^k - u I lie in the kernel of the form.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    G = M.ambient
    n = G.n
    acc = M
    for k in range(1, cap + 1):
        if modulo_radical:
            for u in UNITS:
                diffcols = tuple(
                    tuple(acc.m[i][j] - (u if i == j else ZERO) for j in range(n))
                    for i in range(n)
                )
                prod = mat_mul(G.g, diffcols)
                if all(not x for row in prod for x in row):
                    return k
        else:
            if _scalar_of(acc.m) is not None:
                return k
        acc = acc * M
    return Unknown(cap)


NOT_SCALAR = "NotScalar"


def central_word_scalar(n: int):
    """Evaluate (a_1 ... a_n)^(n+1) on chain(n); the unit u if it is u*I."""
    from .hermitian import chain, det_e

    G = chain(n)
    if not det_e(G):
        raise ValueError(f"chain({n}) is degenerate; the scalar is not defined")
    gens = chain_triflections(n)
    w = word_eval(gens) ** (n + 1)
    u = _scalar_of(w.m)
    return u if u is not None else NOT_SCALAR


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


class GroupHandle:
    """Finite closure of a generating set: the element array, the generators and the right Cayley table."""

    def __init__(self, ambient: HermGram, elements, generators, table=None):
        self.ambient = ambient
        self.elements = elements  # (order, 2n, 2n) int64 companion packings, identity first
        self.generators = generators  # (k, 2n, 2n) int64 packings of the generating set
        self.table = table  # (order, k) int32, x g_j at [x, j]; a handle made by hand gets it on first use

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)


def _companion_pack(m, n):
    """The 2n x 2n int64 ``linalg.pack`` of an n x n E-matrix."""
    return np.array(linalg.pack(m), dtype=np.int64).reshape(2 * n, 2 * n)


def _packings_from_columns(e):
    """The (m, 2n, 2n) packings whose even columns are e, an (m, 2n, n) array.

    ``linalg.pack`` maps an entry a + b w to [[a, -b], [b, a - b]], so its
    even column (a, b) fixes the odd one.
    """
    out = np.empty(e.shape[:2] + (2 * e.shape[2],), dtype=np.int64)
    out[:, :, ::2] = e
    out[:, ::2, 1::2] = -e[:, 1::2]
    out[:, 1::2, 1::2] = e[:, ::2] - e[:, 1::2]
    return out


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


def _hash_coeffs(seed: int, size: int):
    """The coefficients of the seeded linear hash of ``size`` int64 entries."""
    return np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64)


def _hash(e, coeffs):
    """The hash of each (2n, n) E-column block of e, wrapping mod 2^64."""
    return np.ascontiguousarray(e).reshape(len(e), -1).view(np.uint64) @ coeffs


class _Collision(Exception):
    """Two distinct elements share a hash."""


def group_closure(gens, cap: int = DEFAULT_CLOSURE_CAP) -> GroupHandle:
    """Breadth-first closure of the generated group; CapExceeded past cap.

    Raises OverflowError before a block's products could leave int64.  The
    handle's table records the index of x g for each element x and generator g.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    G = gens[0].ambient
    if any(g.ambient != G for g in gens):
        raise ValueError("generators have different ambients")
    gen_z = np.stack([_companion_pack(g.m, G.n) for g in gens])
    for seed in itertools.count():
        try:
            return _closure(G, gen_z, cap, _hash_coeffs(seed, 2 * G.n * G.n))
        except _Collision:
            pass  # two distinct elements share a hash: draw the next one


def _search(keys, idx, h):
    """(found, where): which ascending hashes h are among the sorted keys, and the idx of each match."""
    pos = np.minimum(np.searchsorted(keys, h), len(keys) - 1)
    return keys[pos] == h, idx[pos]


def _merge(keys, idx, new_keys, new_idx):
    """The sorted union of two sorted hash arrays, with their indices."""
    at = np.searchsorted(keys, new_keys)
    return np.insert(keys, at, new_keys), np.insert(idx, at, new_idx)


def _stored(chunks, starts, idx, e, at):
    """Whether each element idx[i], kept in chunks that begin at starts, has the E-columns e[at[i]]."""
    order = np.argsort(idx)
    parts = np.split(order, np.searchsorted(idx[order], starts[1:]))
    return all(np.array_equal(chunk[idx[p] - s], e[at[p]]) for chunk, s, p in zip(chunks, starts, parts) if len(p))


def _closure(G, gen_z, cap, coeffs):
    """``group_closure`` under one hash; raises _Collision when two elements share a hash.

    The E-columns of the elements are kept in chunks, one per block's fresh rows.
    """
    n, k = G.n, len(gen_z)
    gen_top = max(int(gen_z.max()), -int(gen_z.min()))
    gen_e = np.ascontiguousarray(gen_z[:, :, ::2])
    chunks = [_companion_pack(linalg.identity(n, ONE), n)[None, :, ::2]]
    starts, rows = [0], []
    keys, key_idx = _hash(chunks[0], coeffs), np.zeros(1, np.int64)
    count, level = 1, 0
    while level < len(chunks):
        end, pending, pending_idx = len(chunks), keys[:0], key_idx[:0]
        for chunk in chunks[level:end]:
            for s in range(0, len(chunk), _BLOCK):
                frontier = _packings_from_columns(chunk[s : s + _BLOCK])
                top = max(int(frontier.max()), -int(frontier.min()))
                if 2 * n * top * gen_top >= 2**63:
                    raise OverflowError(f"closure products of entries up to {top} and {gen_top} could overflow int64")
                prods = np.matmul(frontier[:, None], gen_e[None]).reshape(-1, 2 * n, n)
                # in ascending hash order binary searches run faster, and equal hashes are adjacent
                h = _hash(prods, coeffs)
                ranks = np.argsort(h)
                h = h[ranks]
                found, idx = _search(keys, key_idx, h)
                if len(pending):
                    in_level, level_idx = _search(pending, pending_idx, h)
                    found, idx = found | in_level, np.where(found, idx, level_idx)
                if not _stored(chunks, starts, idx[found], prods, ranks[found]):
                    raise _Collision
                miss = np.flatnonzero(~found)
                fresh_h, heads, run = np.unique(h[miss], return_index=True, return_inverse=True)
                # a run of equal hashes is one fresh element, first met at its least product position
                first = np.minimum.reduceat(ranks[miss], heads) if len(miss) else heads
                repeat = ranks[miss] != first[run]
                if not np.array_equal(prods[ranks[miss[repeat]]], prods[first[run[repeat]]]):
                    raise _Collision
                if count + len(first) > cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                fresh = count + np.argsort(np.argsort(first))
                idx[miss] = fresh[run]
                rows.append(np.empty(len(h), np.int32))
                rows[-1][ranks] = idx
                chunks.append(prods[np.sort(first)])
                starts.append(count)
                pending, pending_idx = _merge(pending, pending_idx, fresh_h, fresh)
                count += len(first)
        keys, key_idx = _merge(keys, key_idx, pending, pending_idx)
        level = end
    z = np.empty((count, 2 * n, 2 * n), np.int64)
    for i, s in enumerate(starts):
        chunk, chunks[i] = chunks[i], None
        z[s : s + len(chunk)] = _packings_from_columns(chunk)
    return GroupHandle(G, z, gen_z, np.concatenate(rows).reshape(-1, k))


def reflections_in(handle: GroupHandle):
    """All complex reflections in the group: (root, rotation unit) pairs.

    A reflection with eigenvalue zeta != 1 has trace n - 1 + zeta; only elements
    with one of those five traces get the exact rank-one test.  The root is a
    primitive generator of the image of M - I, the unit its eigenvalue.
    """
    n = handle.ambient.n
    z = handle.elements
    # the trace a + b w, read off the diagonal 2 x 2 blocks of the packings
    tr_a = np.trace(z[:, ::2, ::2], axis1=1, axis2=2)
    tr_b = np.trace(z[:, 1::2, ::2], axis1=1, axis2=2)
    candidates = np.logical_or.reduce([(tr_a == n - 1 + u.a) & (tr_b == u.b) for u in UNITS if u != ONE])
    out = []
    for idx in np.nonzero(candidates)[0]:
        root, unit = _reflection_data(handle.ambient, _companion_unpack(z[idx], n))
        if root is not None:
            out.append((root, unit))
    return out


def _reflection_data(G: HermGram, m):
    """Exact root line and rotation unit of a candidate reflection matrix."""
    n = G.n
    I = linalg.identity(n, ONE)
    K = [[m[i][j] - I[i][j] for j in range(n)] for i in range(n)]
    # find a nonzero column of K: it spans the image if rank is one
    col = None
    for j in range(n):
        c = tuple(K[i][j] for i in range(n))
        if any(c):
            col = c
            break
    if col is None:
        return None, None
    # verify rank one exactly: all 2x2 minors vanish
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    if K[i1][j1] * K[i2][j2] != K[i1][j2] * K[i2][j1]:
                        return None, None
    root = _primitive_vector(col)
    mr = mat_vec(m, root)
    # eigenvalue on the root: mr = zeta * root
    zeta = None
    for u in UNITS:
        if mr == tuple(u * x for x in root):
            zeta = u
            break
    if zeta is None or zeta == ONE:
        return None, None
    return root, zeta


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
    """The largest |entry| of the elements and generators.

    Raises OverflowError when a product of two matrices within that bound,
    2n terms below top^2, could leave int64.
    """
    top = max(max(int(a.max()), -int(a.min())) for a in (handle.elements, handle.generators))
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
        if max(int(power.max()), -int(power.min())) > top:
            raise ValueError("not a finite group: some element's power is not in it")
        P[live] += power
        power = power @ g[live]
    raise ValueError("not a finite group: some element's powers never reach I")


class ElementIndex:
    """Exact lookup of elements by their E-columns, the even packing columns.

    A seeded linear hash mod 2^64 of the columns only locates a candidate in
    the sorted hashes; every lookup confirms the candidate's columns exactly.
    """

    def __init__(self, z):
        self.z = z
        for seed in itertools.count():
            self.coeffs = _hash_coeffs(seed, z.shape[1] * z.shape[2] // 2)
            hashes = np.concatenate([_hash(z[s : s + _BLOCK, :, ::2], self.coeffs) for s in range(0, len(z), _BLOCK)])
            self.order = np.argsort(hashes)
            self.hashes = hashes[self.order]
            same = np.flatnonzero(self.hashes[1:] == self.hashes[:-1])
            if not len(same):
                return
            if (z[self.order[same], :, ::2] == z[self.order[same + 1], :, ::2]).all(axis=(1, 2)).any():
                raise ValueError("an element is listed twice")
            # two distinct elements share a hash: draw the next one

    def find(self, e):
        """The indices of the elements with E-columns e, or None if one is missing."""
        ranks = np.argsort(h := _hash(e, self.coeffs))  # binary searches run faster over ascending keys
        idx = np.empty_like(self.order, shape=len(h))
        idx[ranks] = _search(self.hashes, self.order, h[ranks])[1]
        return idx if np.array_equal(self.z[idx, :, ::2], e) else None


def _right_table(handle: GroupHandle):
    """The handle's table, by exact lookups of each x g on first use; ValueError if it is no group."""
    if handle.table is None:
        z, gens = handle.elements, handle.generators
        # finite generator orders make each column a permutation; the bound keeps each x g within int64
        _power_sums(gens, len(z), _entry_bound(handle))
        if not (z[0] == np.eye(z.shape[1], dtype=np.int64)).all():
            raise ValueError("the handle is not a group: its first element is not I")
        index, gen_e, rows = ElementIndex(z), gens[:, :, ::2], []
        for start in range(0, len(z), _BLOCK):
            idx = index.find(np.matmul(z[start : start + _BLOCK, None], gen_e[None]).reshape(-1, *gen_e.shape[1:]))
            if idx is None:
                raise ValueError("the handle is not a group: some x g is not in it")
            rows.append(idx.reshape(-1, len(gens)).astype(np.int32))
        handle.table = np.concatenate(rows)
    return handle.table


def _inverse_maps(table):
    """(back, inv) as index arrays: back[j][x] is x g_j^-1, inv[x] is x^-1.

    The first entry p g_j of each x in the table, with p before x in a closure, is its parent in a BFS tree
    from the identity, element 0; walking x's word g_j1 ... g_jd back to it gives x^-1 = g_jd^-1 ... g_j1^-1.
    """
    order, k = table.shape
    back = np.argsort(table, axis=0).T  # each column of the table is a permutation
    parent, letter = np.divmod(np.unique(table.ravel(), return_index=True)[1], k)
    if (parent[1:] >= np.arange(1, order)).any():
        raise ValueError("the handle is not the closure of its generators: some x is no p g with p listed before x")
    inv = np.zeros(order, np.intp)
    live = node = np.arange(1, order)
    while len(live):
        inv[live] = back[letter[node], inv[live]]
        node = parent[node]
        live, node = live[node != 0], node[node != 0]
    return back, inv


def conjugacy_classes(handle: GroupHandle):
    """(representatives, sizes) of the conjugacy classes, representatives ascending.

    The classes are the orbits of the conjugations x -> g x g^-1 by the
    generators, composed from the right Cayley table and the inverse map, and
    labelled by their first element.  Raises ValueError when the handle is no group.
    """
    back, inv = _inverse_maps(_right_table(handle))
    # g x g^-1 = ((x g^-1)^-1 g^-1)^-1
    maps = [inv[b[inv[b]]] for b in back]
    # min-label propagation with pointer jumping; each label stays in its orbit
    labels = np.arange(len(inv))
    while True:
        new = labels
        for image in maps:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_counts=True)
        labels = new


def free_action_check(handle: GroupHandle) -> bool:
    """True iff each non-identity element's fixed space lies in some mirror,
    i.e. the group acts freely off the union of its reflection mirrors.

    The fixed space of g is the column span of P_g = I + g + ... + g^(k-1),
    k the order of g (g P_g = P_g, and P_g v = k v when g fixes v), so it
    lies in the mirror of r iff the row (<e_i, r>)_i times P_g vanishes.
    The zero fixed space (P_g = 0) is vacuously contained.  Conjugation moves
    fixed spaces and mirrors together, so one element per class is tested.
    """
    G, z = handle.ambient, handle.elements
    n = G.n
    mirrors = dict.fromkeys(root for root, _ in reflections_in(handle))
    # each mirror as the first packed row of (<e_i, r>)_i = G rbar; it vanishes iff the E-row does
    rows = np.array(
        [[x for c in mat_vec(G.g, [y.conj() for y in r]) for x in (c.a, -c.b)] for r in mirrors], np.int64
    ).reshape(-1, 2 * n)
    # _power_sums keeps each power within top; P_g sums at most |group|
    # powers, rows @ P_g 2n terms
    top = _entry_bound(handle)
    row_top = int(np.abs(rows).max(initial=0))
    if len(z) * top * max(1, 2 * n * row_top) >= 2**63:
        raise OverflowError(f"entries up to {top} could overflow int64 in the fixed-space projectors")
    reps, _ = conjugacy_classes(handle)
    ident = np.eye(2 * n, dtype=np.int64)
    for start in range(0, len(reps), _BLOCK):
        g = z[reps[start : start + _BLOCK]]
        P = _power_sums(g[(g != ident).any(axis=(1, 2))], len(z), top)
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
