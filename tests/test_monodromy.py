import functools
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import E, ONE, OMEGA, OMEGA_BAR, THETA, UNITS, EisensteinInt, QOmega
from eisenlat.hermitian import (
    HermGram,
    basis_vector,
    chain,
    det_e,
    diag,
    direct_sum,
    hyp,
    ip,
    is_isometry,
    lambda10,
    lambda_,
    norm_of,
)
from eisenlat import cli, gluing, verify
from eisenlat import monodromy as mono
from eisenlat.gluing import sp_generating_roots
from eisenlat.linalg import mat_vec, pack, unpack
from conftest import traced_peak
from test_linalg import det, kernel

NODAL_ROOT = tuple([E(0)] * 9 + [E(1), OMEGA])


def test_reflection_basics():
    L = lambda_()
    t = mono.triflection(L, NODAL_ROOT)
    assert is_isometry(L, t.m)
    assert mono.order(t) == 3
    # sends r to w r
    img = t(NODAL_ROOT)
    assert img == tuple(OMEGA * x for x in NODAL_ROOT)
    # fixes the orthogonal complement: check on vectors orthogonal to r
    e0 = basis_vector(11, 0)
    assert ip(L, e0, NODAL_ROOT) == E(0)
    assert t(e0) == e0


def test_hexaflection_is_diagonal():
    L = lambda_()
    h = mono.hexaflection(L, basis_vector(11, 0))
    for i in range(11):
        for j in range(11):
            expect = -OMEGA_BAR if i == j == 0 else (E(1) if i == j else E(0))
            assert h.m[i][j] == expect
    assert mono.projective_order(h) == 6


def test_biflection_in_nodal_root_rejected():
    # (1 - (-1)) theta / 3 = 2 theta / 3 is not in E
    L = lambda_()
    with pytest.raises(ValueError):
        mono.reflection(L, NODAL_ROOT, E(-1))


def test_reflection_requires_nonzero_norm():
    L = lambda_()
    xi = tuple([E(0)] * 9 + [E(1), E(0)])
    with pytest.raises(ValueError):
        mono.reflection(L, xi, OMEGA)


def reflection_reference(G, r, zeta):
    """The dense builder before the sparse one: column j is e_j - coeff_j r, for every j and every entry."""
    rr = norm_of(G, r)
    n = G.n
    cols = []
    for j in range(n):
        e = basis_vector(n, j)
        c = (ONE - zeta) * ip(G, e, r)
        try:
            coeff = c.exact_div(rr)
        except ValueError:
            raise ValueError(
                "reflection does not preserve the lattice: "
                f"(1 - zeta)<e_{j}, r>/<r, r> is not in E"
            ) from None
        cols.append(tuple(e[i] - coeff * r[i] for i in range(n)))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def compare_reflection(G, r, zeta):
    """Assert that ``reflection`` agrees with the dense builder: True when both
    build the same matrix, False when both refuse with the same message."""
    try:
        expected = reflection_reference(G, r, zeta)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            mono.reflection(G, r, zeta)
        assert str(got.value) == str(exc)
        return False
    assert mono.reflection(G, r, zeta).m == expected
    return True


def test_sparse_reflection_matches_the_dense_builder():
    L10, L = lambda10(), lambda_()
    for r in sp_generating_roots():
        assert compare_reflection(L10, r, OMEGA)
        # these roots are nodal and (1 - zeta) theta / 3 = -w theta / 3 is not in E, so both refuse the hexaflection
        assert not compare_reflection(L10, r, -OMEGA_BAR)
    assert compare_reflection(L, basis_vector(11, 0), -OMEGA_BAR)  # a chordal root
    assert not compare_reflection(L, NODAL_ROOT, E(-1))
    rng = random.Random(239)
    built = refused = 0
    for _ in range(300):
        G = rng.choice([lambda10(), lambda_(), chain(5), diag([1, -2, 3])])
        r = [E(0)] * G.n
        for i in rng.sample(range(G.n), rng.randint(1, min(3, G.n))):
            r[i] = E(rng.randint(-2, 2), rng.randint(-2, 2))
        r = tuple(r)
        if norm_of(G, r):
            if compare_reflection(G, r, rng.choice([u for u in UNITS if u != ONE])):
                built += 1
            else:
                refused += 1
    assert built and refused


def test_reflection_determinant_is_zeta():
    G = chain(3)
    for i in range(3):
        t = mono.triflection(G, basis_vector(3, i))
        assert det(t.m, EisensteinInt.exact_div) == OMEGA


def test_transvection_zero_is_identity():
    G = hyp()
    t = mono.transvection(G, (E(0), E(0)))
    assert t.is_identity()


def test_transvection_requires_isotropic():
    G = chain(2)
    with pytest.raises(ValueError):
        mono.transvection(G, basis_vector(2, 0))


def test_transvection_a5_vector():
    # xi = r1 - theta r2 - 2 r3 + theta r4 + r5 inside a rank-6 chain
    G = chain(6)
    xi = tuple(list(mono.A5_XI) + [E(0)])
    assert norm_of(G, xi) == E(0)
    t = mono.transvection(G, xi)
    assert not t.is_identity()
    assert mono.order(t) == mono.INFINITE
    assert is_isometry(G, t.m)


def test_transvections_on_a_line_compose():
    # the product of the transvections in xi and c*xi multiplies the shear by
    # 1 + norm(c); when that is again a norm the product is the transvection
    # in a vector on the same line (c = theta: 1 + 3 = 4 = norm(2))
    G = chain(6)
    xi = tuple(list(mono.A5_XI) + [E(0)])
    t1 = mono.transvection(G, xi)
    t2 = mono.transvection(G, tuple(THETA * x for x in xi))
    prod = t1 * t2
    t_two = mono.transvection(G, tuple(E(2) * x for x in xi))
    assert prod.m == t_two.m
    assert mono.order(prod) == mono.INFINITE


def test_a5_transvection_identity():
    reports = mono.a5_transvection_report()
    assert len(reports) == 1
    rep = reports[0]
    assert rep["pattern"] == (1, 1, 1, 1)
    assert rep["left_to_right"] and rep["right_to_left"]


def test_d4_transvection_identity():
    rep = mono.d4_transvection_report()
    assert rep["xi_isotropic"] and rep["xi_nonzero"]
    assert rep["left_to_right"] and rep["right_to_left"]


def test_word_eval_empty():
    with pytest.raises(ValueError):
        mono.word_eval([])


def test_word_ambient_mismatch():
    a = mono.triflection(chain(2), basis_vector(2, 0))
    b = mono.triflection(chain(3), basis_vector(3, 0))
    with pytest.raises(ValueError):
        a * b


def test_central_word_orders():
    for n, expected in zip(range(1, 5), (3, 2, 3, 6)):
        gens = mono.chain_triflections(n)
        w = mono.word_eval(gens) ** (n + 1)
        assert mono.order(w) == expected


def test_central_word_scalars():
    assert mono.central_word_scalar(1) == OMEGA_BAR
    assert mono.central_word_scalar(2) == E(-1)
    assert mono.central_word_scalar(7) == OMEGA_BAR
    # the order-6 case carries a primitive sixth root
    assert mono.central_word_scalar(4) == -OMEGA_BAR


def test_central_word_scalar_rejects_degenerate():
    with pytest.raises(ValueError):
        mono.central_word_scalar(5)


def test_chain11_loop_word_order():
    w = mono.braid_loop_word(11)
    assert mono.projective_order(w, modulo_radical=True, cap=50) == 6


def test_an_order_past_the_cap_is_unknown():
    # a1 a2 a3 a4 a5 a6 a1 a2 on chain(7) has infinite order, but it is not unipotent, and none of its
    # first 20 powers is I or a unit scalar
    gens = mono.chain_triflections(7)
    w = mono.word_eval([gens[i - 1] for i in (1, 2, 3, 4, 5, 6, 1, 2)])
    assert str(mono.order(w, cap=20)) == "Unknown(cap=20)"
    assert str(mono.projective_order(w, cap=20)) == "Unknown(cap=20)"


def test_projective_order_identity():
    G = chain(2)
    assert mono.projective_order(mono.identity(G)) == 1
    assert mono.projective_order(mono.identity(G), modulo_radical=True) == 1
    with pytest.raises(ValueError):
        mono.projective_order(mono.identity(G), cap=0)


def test_f3_reductions_preserve_symplectic_form():
    rng = random.Random(47)
    G = chain(4)
    sg = gluing.symplectic_gram(G)
    gens = mono.chain_triflections(4)
    for _ in range(50):
        w = mono.word_eval([gens[rng.randrange(4)] for _ in range(4)])
        r = gluing.f3_reduce(w)
        n = 4
        lhs = tuple(
            tuple(
                sum(r[k][i] * sg[k][l] * r[l][j] for k in range(n) for l in range(n)) % 3
                for j in range(n)
            )
            for i in range(n)
        )
        assert lhs == tuple(tuple(x % 3 for x in row) for row in sg)


def test_braid_check():
    gens = mono.chain_triflections(3)
    assert mono.braid_check(gens[0], gens[1]) == mono.BRAID
    assert mono.braid_check(gens[0], gens[2]) == mono.COMMUTE
    # triflection and hexaflection in orthogonal roots commute
    L = lambda_()
    t = mono.triflection(L, NODAL_ROOT)
    h = mono.hexaflection(L, basis_vector(11, 0))
    assert mono.braid_check(t, h) == mono.COMMUTE


def test_braid_relation_forces_theta_pairing():
    # braid-then-neither contrast: orthogonal roots never braid
    G = direct_sum(diag([3]), diag([3]))
    a = mono.triflection(G, basis_vector(2, 0))
    b = mono.triflection(G, basis_vector(2, 1))
    assert mono.braid_check(a, b) == mono.COMMUTE
    # pairing 2*theta: triflections neither braid nor commute
    from eisenlat.hermitian import HermGram

    t2 = THETA + THETA
    G2 = HermGram([[E(3), t2], [t2.conj(), E(3)]])
    a2 = mono.triflection(G2, basis_vector(2, 0))
    b2 = mono.triflection(G2, basis_vector(2, 1))
    assert mono.braid_check(a2, b2) == mono.NEITHER


def test_group_closures_small(closures):
    assert closures(1).order == 3
    assert closures(2).order == 24
    assert closures(3).order == 648
    z = closures(3).matrices(np.arange(648))
    assert z.shape == (648, 6, 6) and z.dtype == np.int64
    assert (z[0] == np.eye(6, dtype=np.int64)).all()


def test_closure_cap():
    gens = mono.chain_triflections(3)
    for cap in (100, 647):
        with pytest.raises(mono.CapExceeded):
            mono.group_closure(gens, cap=cap)
    assert mono.group_closure(gens, cap=648).order == 648


def test_reflections_in_r1(closures):
    refl = mono.reflections_in(closures(1))
    assert len(refl) == 2
    units = sorted(str(u) for _, u in refl)
    assert units == sorted([str(OMEGA), str(OMEGA_BAR)])


def test_reflections_in_r2(closures):
    h = closures(2)
    refl = mono.reflections_in(h)
    assert len(refl) == 8
    assert all(norm_of(h.ambient, r) == E(3) for r, _ in refl)
    assert all(u in (OMEGA, OMEGA_BAR) for _, u in refl)


def test_reflections_in_r3(closures):
    h = closures(3)
    refl = mono.reflections_in(h)
    assert len(refl) == 24
    assert all(norm_of(h.ambient, r) == E(3) for r, _ in refl)


def test_free_action_r2_r3(closures):
    assert mono.free_action_check(closures(2))
    assert mono.free_action_check(closures(3))


def test_free_action_fixed_point_free_rotation():
    # cyclic group generated by a fixed-point-free rotation: vacuously free
    G = diag([3])
    rot = mono.GroupElt(((OMEGA,),), G)
    h = mono.group_closure([rot])
    assert h.order == 3
    assert mono.free_action_check(h)


def test_free_action_steps_a_prime_above_3_up_to_the_rank():
    # n >= p: the 5-cycle of the basis of diag([3] * 5) is no reflection and fixes (1, ..., 1), so its group of
    # order 5 has no mirror and does not act freely; this is decided only by stepping to k = 5
    G = diag([3] * 5)
    gens = [mono.GroupElt([[int(i == (j + 1) % 5) for j in range(5)] for i in range(5)], G)]
    h = mono.group_closure(gens)
    assert h.order == 5 and mono.reflections_in(h) == []
    assert reference_free_action(G, reference_closure(gens)) is False
    assert mono.free_action_check(h) is False


def test_free_action_skips_a_prime_above_the_rank(monkeypatch):
    # n < p: the companion matrix C of x^4 + x^3 + x^2 + x + 1 preserves 3 sum_k (C^k)^T C^k; its group of order 5
    # has no mirror and fixes no vector, as its eigenvalues are the primitive 5th roots of unity, so it acts
    # freely and no projector is formed
    C = np.array([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], np.int64)
    powers = [np.linalg.matrix_power(C, k) for k in range(5)]
    G = HermGram((3 * sum(c.T @ c for c in powers)).tolist())
    gens = [mono.GroupElt(C.tolist(), G)]
    h = mono.group_closure(gens)
    assert h.order == 5 and mono.reflections_in(h) == []
    assert reference_free_action(G, reference_closure(gens)) is True
    bounds, sums = [], mono._power_sums
    monkeypatch.setattr(mono, "_power_sums", lambda g, bound, top: bounds.append(bound) or sums(g, bound, top))
    assert mono.free_action_check(h) is True
    assert 5 not in bounds
    assert not sums(np.array(pack(gens[0].m), np.int64)[None], 5, mono._entry_bound(h)).any()


def reference_closure(gens):
    """The per-row BFS that group_closure replaced: einsum products, whole packings as keys."""
    n = gens[0].ambient.n
    gen_z = np.stack([np.array(pack(g.m), np.int64) for g in gens])
    frontier = np.array(pack(mono.identity(gens[0].ambient).m), np.int64)[None]
    seen = {frontier[0].tobytes()}
    levels = [frontier]
    while frontier.shape[0]:
        prods = np.einsum("fij,gjk->fgik", frontier, gen_z).reshape(-1, 2 * n, 2 * n)
        fresh = []
        for idx in range(prods.shape[0]):
            key = prods[idx].tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(idx)
        frontier = prods[fresh]
        levels.append(frontier)
    return np.concatenate(levels)


def index(h, z, level=0):
    """The indices in G_level of the packings z, by sifting them through the chain a block at a time;
    ValueError when one is not in G_level."""
    out, ident = np.empty(len(z), np.int64), np.eye(z.shape[-1], dtype=np.int64)
    for start in range(0, len(z), mono._BLOCK):
        x = z[start : start + mono._BLOCK].copy()
        out[start : start + mono._BLOCK], stop = mono._sift(h.orbits[level:], x)
        if (stop < len(h.orbits) - level).any() or (x != ident).any():
            raise ValueError("not an element of the group: its sift through the chain does not end at I")
    return out


def assert_same_elements(h, z):
    """The chain's elements are exactly the packings z: each one's index, once, and back."""
    idx = index(h, z)
    assert h.order == len(z)
    assert np.array_equal(np.sort(idx), np.arange(len(z)))
    assert np.array_equal(h.matrices(idx), z)


def reference_reflections(G, z):
    """Every element of z through the exact test over E, with no trace filter: K = M - I has
    rank one (its nonzero columns are proportional) and M r = zeta r on its root, zeta != 1."""
    n, out = G.n, []
    for w in z:
        m = unpack(w)
        cols = [c for c in zip(*[[m[i][j] - (ONE if i == j else E(0)) for j in range(n)] for i in range(n)]) if any(c)]
        pairs = itertools.combinations(range(n), 2)
        if cols and all(a[i] * b[j] == a[j] * b[i] for i, j in pairs for a, b in itertools.combinations(cols, 2)):
            root = mono._primitive_vector(cols[0])
            units = [u for u in UNITS if u != ONE and mat_vec(m, root) == tuple(u * x for x in root)]
            if units:
                out.append((root, units[0]))
    return out


def assert_same_reflections(h, z):
    """reflections_in finds each reflection of the element array z exactly once."""
    assert Counter(mono.reflections_in(h)) == Counter(reference_reflections(h.ambient, z))


def reference_free_action(G, z):
    """Every non-identity element's fixed space by Gauss-Jordan over Q(w)."""
    n = G.n
    mirrors = {root for root, _ in reference_reflections(G, z)}
    for w in z:
        m = unpack(w)
        a = [[QOmega(m[i][j].a - (i == j), m[i][j].b) for j in range(n)] for i in range(n)]
        if not any(x for row in a for x in row):
            continue
        fixed = kernel(a)
        if fixed and not any(all(not ip(G, v, r) for v in fixed) for r in mirrors):
            return False
    return True


def reference_projector_free_action(h, z):
    """The projector test on every element of z, as free_action_check ran before it used classes."""
    G, n = h.ambient, h.ambient.n
    mirrors = dict.fromkeys(root for root, _ in mono.reflections_in(h))
    rows = np.array(
        [[x for c in mat_vec(G.g, [y.conj() for y in r]) for x in (c.a, -c.b)] for r in mirrors], np.int64
    ).reshape(-1, 2 * n)
    ident = np.eye(2 * n, dtype=np.int64)
    for start in range(0, len(z), 4096):
        g = z[start : start + 4096]
        g = g[(g != ident).any(axis=(1, 2))]
        P = np.broadcast_to(ident, g.shape).copy()
        live, power = np.arange(len(g)), g
        for _ in range(len(z)):
            keep = (power != ident).any(axis=(1, 2))
            live, power = live[keep], power[keep]
            if not len(live):
                break
            P[live] += power
            power = power @ g[live]
        else:
            raise ValueError("not a finite group")
        P = P[P.any(axis=(1, 2))]
        if not (rows @ P == 0).all(axis=2).any(axis=1).all():
            return False
    return True


def diagonal_gens(G, *diagonals):
    n = G.n
    return [
        mono.GroupElt(tuple(tuple(d[i] if i == j else E(0) for j in range(n)) for i in range(n)), G)
        for d in diagonals
    ]


SMALL_GROUPS = [
    # (generator diagonals on diag([3, 3, 3]), acts freely off its mirrors)
    ([(OMEGA, OMEGA, ONE)], False),  # no mirror at all, yet e3 is fixed
    ([(OMEGA, OMEGA, ONE), (ONE, ONE, OMEGA)], False),  # the mirror misses the fixed line e3
    ([(OMEGA, ONE, ONE), (ONE, OMEGA, ONE)], True),
    ([(OMEGA, OMEGA, OMEGA)], True),  # no mirror, but nothing is fixed either
]


@pytest.mark.parametrize("diagonals, free", SMALL_GROUPS)
def test_free_action_small_groups_against_reference(diagonals, free):
    gens = diagonal_gens(diag([3, 3, 3]), *diagonals)
    h, z = mono.group_closure(gens), reference_closure(gens)
    assert_same_reflections(h, z)
    assert reference_free_action(h.ambient, z) is free
    assert reference_projector_free_action(h, z) is free
    assert mono.free_action_check(h) is free


def test_free_action_reads_both_packed_rows_of_a_mirror():
    # diag(-1, 1, -1) fixes e2, which the one mirror, e2's orthogonal complement, misses; for the reflection
    # diag(1, -wbar, 1) = diag(1, 1 + w, 1), K's first nonzero E-row (0, w, 0) sends e2 to w, whose a-part is 0,
    # so only the second packed row (b, a - b, ...) shows that e2 is off that mirror
    gens = diagonal_gens(diag([3, 3, 3]), (-ONE, ONE, -ONE), (ONE, ONE + OMEGA, ONE))
    h, z = mono.group_closure(gens), reference_closure(gens)
    assert h.order == 12 and len(mono.reflections_in(h)) == 5
    assert reference_free_action(h.ambient, z) is False
    assert reference_projector_free_action(h, z) is False
    assert mono.free_action_check(h) is False


@pytest.mark.parametrize(
    "gens",
    [
        *(mono.chain_triflections(n) for n in (1, 2, 3)),
        [mono.identity(chain(2))],
        # order 18: a hexaflection's unit -wbar is read off the trace like a triflection's
        [mono.hexaflection(diag([3, 3]), basis_vector(2, 0)), mono.triflection(diag([3, 3]), basis_vector(2, 1))],
    ],
    ids=["1", "2", "3", "trivial", "hexaflection"],
)
def test_reflections_and_free_action_match_reference(gens):
    h, z = mono.group_closure(gens), reference_closure(gens)
    assert_same_reflections(h, z)
    assert mono.free_action_check(h) is reference_free_action(h.ambient, z) is True
    assert reference_projector_free_action(h, z) is True


def test_conjugacy_classes_match_brute_force(closures):
    # R2 = G4: the class of x is {y x y^-1 : y in the group}, by whole-group products
    z = closures(2).matrices(np.arange(24))
    position = {w.tobytes(): i for i, w in enumerate(z)}
    inverses = [next(w for w in z if (w @ x == np.eye(4, dtype=np.int64)).all()) for x in z]
    classes = {frozenset(position[(y @ x @ yi).tobytes()] for y, yi in zip(z, inverses)) for x in z}
    reps, sizes = np.unique(class_labels(closures(2)), return_counts=True)
    assert sorted(min(c) for c in classes) == list(reps)
    assert sorted(len(c) for c in classes) == sorted(sizes)


def test_conjugacy_classes_reject_a_set_that_is_not_a_group(closures):
    h = closures(2)
    # 2 e_0 is no point of e_0's orbit
    with pytest.raises(ValueError, match="not an element of the group"):
        index(h, np.array(pack(((E(2), E(0)), (E(0), ONE))), np.int64)[None])
    # w I is central of order 3, and the centre of G4 has order 2: its sift ends at a scalar
    with pytest.raises(ValueError, match="does not end at I"):
        index(h, np.array(pack(((OMEGA, E(0)), (E(0), OMEGA))), np.int64)[None])
    # the check reads the chain and never the generators: a1 alone, of order 3, gets G4's verdict
    a1_only = mono.GroupHandle(h.ambient, h.orbits, h.generators[:1])
    assert mono.free_action_check(a1_only) is True


def test_conjugacy_classes_bound_the_intermediate_product(closures):
    # x fixes e_0, so its sift multiplies x by the identity, and 2n |1| |2^62| reaches 2^63
    # before the product could wrap
    x = np.eye(4, dtype=np.int64)
    x[0, 3] = 2**62
    with pytest.raises(OverflowError, match="entries up to 1 and 4611686018427387904 "):
        index(closures(2), x[None])


def chain_subset(n, letters):
    """The triflections a_i, i in letters, on chain(n)."""
    gens = mono.chain_triflections(n)
    return [gens[i - 1] for i in letters]


# (chain rank, letters, base of the first moved orbit): a3 and a4 fix e_0 on chain(4), so their
# first moved base is e_1; on chain(5), a4 and a5 fix e_0 and e_1
CHAIN_SUBSETS = [(4, (1, 2), 0), (4, (3, 4), 1), (4, (2, 3, 4), 0), (5, (1, 3, 5), 0), (5, (3, 4, 5), 1), (5, (4, 5), 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_first_orbit_has_exactly_the_generators(closures, n):
    h = closures(n)
    assert h.orbits[0].base == 0
    assert np.array_equal(np.stack(h.orbits[0].gens), h.generators)


@pytest.mark.parametrize("n, letters, base", CHAIN_SUBSETS)
def test_chain_subsets_first_orbit_has_exactly_the_generators(n, letters, base):
    # every generator starts at the first moved level, and no Schreier residue ever joins it
    h = mono.group_closure(chain_subset(n, letters))
    assert h.orbits[0].base == base
    assert np.array_equal(np.stack(h.orbits[0].gens), h.generators)


def fresh(h):
    """A handle on h's chain that has kept nothing yet, so its first report searches for the reflections."""
    return mono.GroupHandle(h.ambient, h.orbits, h.generators)


def group_handle(closures, group):
    if isinstance(group, int):
        return fresh(closures(group))
    return mono.group_closure(diagonal_gens(diag([3, 3, 3]), *group))


GROUPS = [1, 2, 3, 4, *(d for d, _ in SMALL_GROUPS)]
GROUP_IDS = ["R1", "R2", "R3", "R4", "small0", "small1", "small2", "small3"]


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_mirror_rows_cut_out_the_mirrors_of_reflections_in(closures, group):
    # pair i belongs to reflection M_i of reflections_in (both by ascending element index): its row 0 is nonzero,
    # a Q(w)-multiple of the root's row (<e_j, r_i>)_j = G rbar, and zero on ker(M_i - I), and its row 1 is the
    # second packed row (b, a - b) of the same E-row.  A row of M - I need not be an E-multiple of the root's row:
    # on small2 it is (0, w - 1, 0) against (0, 3, 0)
    h = group_handle(closures, group)
    G, n = h.ambient, h.ambient.n
    refl = mono.reflections_in(h)
    pairs = np.array([m for *_, m in mono._reflection_rows(h)], np.int64).reshape(-1, 2, 2 * n)
    assert pairs.shape == (len(refl), 2, 2 * n)
    for (row, second), (root, unit) in zip(pairs, refl):
        a, b = row[::2], -row[1::2]  # (a, -b) is a + b w
        assert np.array_equal(second[::2], b) and np.array_equal(second[1::2], a - b)
        u = [EisensteinInt(int(x), int(y)) for x, y in zip(a, b)]
        v = mat_vec(G.g, [y.conj() for y in root])
        assert any(u)
        assert all(u[j] * v[k] == u[k] * v[j] for j, k in itertools.combinations(range(n), 2))
        m = mono.reflection(G, root, unit).m
        mirror = kernel([[QOmega(m[i][j].a - (i == j), m[i][j].b) for j in range(n)] for i in range(n)])
        assert len(mirror) == n - 1
        assert not any(sum((x * QOmega(y.a, y.b) for x, y in zip(w, u)), QOmega(0)) for w in mirror)


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_reflections_in_come_by_strictly_ascending_element_index(closures, group):
    # part of the contract of reflections_in; _reflection_rows gives its mirror rows in the same order
    h = group_handle(closures, group)
    refl = [mono.reflection(h.ambient, root, unit) for root, unit in mono.reflections_in(h)]
    idx = index(h, np.array([pack(r.m) for r in refl], np.int64).reshape(-1, 2 * h.ambient.n, 2 * h.ambient.n))
    assert (np.diff(idx) > 0).all()


def radical_example(n):
    """On diag([3, 0]) the isometry a = [[1, 0], [1, w]] of order 3, whose powers are reflections that move e_0 by
    a multiple of e_1, in the radical.  n = 3 adds e_2 of norm 3 and the triflection b in it, and generates with
    a b and b: the stabilizer of e_0 is then <b>, of order 3, and a^k = (a b)^k b^-k is not the first element of
    its coset."""
    G = diag([3, 0, 3][:n])
    m = [[E(int(i == j)) for j in range(n)] for i in range(n)]
    m[1][0], m[1][1] = ONE, OMEGA
    a = mono.GroupElt(m, G)
    if n == 2:
        return [a]
    b = mono.triflection(G, basis_vector(3, 2))
    return [a * b, b]


@pytest.mark.parametrize("block", [1, 2, 7, 647, 649])
def test_reflections_in_is_the_same_in_any_block_size(closures, block, monkeypatch):
    # only a coset in the radical is walked in blocks: radical_example(3)'s has the 3 elements of its stabilizer;
    # each search runs on a fresh handle, for a handle keeps the rows of its first
    handles = [group_handle(closures, group) for group in GROUPS]
    handles += [mono.group_closure(radical_example(n)) for n in (2, 3)]
    expected = [mono.reflections_in(fresh(h)) for h in handles]
    monkeypatch.setattr(mono, "_BLOCK", block)
    assert [mono.reflections_in(fresh(h)) for h in handles] == expected


@pytest.mark.parametrize("block", [2, 7, 647, 649])
def test_free_action_check_tests_the_same_elements_in_any_block_size(closures, block, monkeypatch):
    # G_1 has 9 elements in R3, 648 in R4 and 3 in small1, so each size splits some coset into several blocks,
    # and 647 and 649 put several cosets in one block where a slice of G_1 is small (R2, R3, the last of R4 at 647);
    # a group that fails returns at its first failing block, so only the verdicts are compared there
    groups, sums, tested = [g for g in GROUPS if g != 4 or block > 7], mono._power_sums, Counter()

    def record(g, bound, top):
        tested.update(z.tobytes() for z in g)
        return sums(g, bound, top)

    def run():
        out = []
        for group in groups:
            tested.clear()
            free = mono.free_action_check(group_handle(closures, group))
            out.append((free, Counter(tested) if free else None))
        return out

    monkeypatch.setattr(mono, "_power_sums", record)
    expected = run()
    monkeypatch.setattr(mono, "_BLOCK", block)
    assert run() == expected


def reference_candidates(h):
    """The one possible reflection of each coset, by exact arithmetic over E: at a level with base e_b and a point
    p != e_b, r = p - e_b and M x = x + <x, r> / <e_b, r> r, kept as a packing when <e_b, r> != 0, every entry of
    M is in E and its zeta = 1 + <r, r> / <e_b, r> is a unit != 1."""
    G, n, out = h.ambient, h.ambient.n, []
    for o in h.orbits:
        for p in o.points[1:].tolist():
            r = [E(p[2 * i] - (i == o.base), p[2 * i + 1]) for i in range(n)]
            d = [ip(G, basis_vector(n, j), r) for j in range(n)]
            if not d[o.base]:
                continue
            try:
                m = [[E(int(i == j)) + (r[i] * d[j]).exact_div(d[o.base]) for j in range(n)] for i in range(n)]
                zeta = ONE + norm_of(G, r).exact_div(d[o.base])
            except ValueError:
                continue
            if zeta in UNITS and zeta != ONE:
                out.append(pack(m))
    return out


@pytest.mark.parametrize("group", [1, 2, 3, 4, *CHAIN_SUBSETS], ids=["R1", "R2", "R3", "R4", *map(str, CHAIN_SUBSETS)])
def test_reflections_in_sifts_one_candidate_per_coset(closures, group, monkeypatch):
    # the candidates sifted are exactly the reference's; R4 has 239 + 26 + 7 + 2 = 274 cosets off the base
    # points, and only 80 of their candidates have entries in E: its 80 reflections
    h = fresh(closures(group)) if isinstance(group, int) else mono.group_closure(chain_subset(*group[:2]))
    sifted, sift = [], mono._sift
    monkeypatch.setattr(mono, "_sift", lambda orbits, y: sifted.append(y.copy()) or sift(orbits, y))
    refl = mono.reflections_in(h)
    got = Counter(tuple(map(tuple, y)) for y in np.concatenate(sifted).tolist())
    assert got == Counter(reference_candidates(h))
    if group == 4:
        assert [len(o.points) - 1 for o in h.orbits] == [239, 26, 7, 2]
        assert len(sifted) == 1 and len(sifted[0]) == len(refl) == 80


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_reflections_in_forms_no_element_on_a_nondegenerate_form(closures, group, monkeypatch):
    # no r = p - e_b lies in the radical, so no coset is certified element by element
    h, calls, form = group_handle(closures, group), [], mono.GroupHandle.matrices
    assert det_e(h.ambient)
    monkeypatch.setattr(mono.GroupHandle, "matrices", lambda self, *args: calls.append(args) or form(self, *args))
    mono.reflections_in(h)
    assert calls == []


def test_reflections_in_certifies_a_coset_in_the_radical_element_by_element():
    gens = radical_example(2)
    h = mono.group_closure(gens)
    assert mono.reflections_in(h) == [((E(0), ONE), OMEGA), ((E(0), ONE), OMEGA_BAR)]
    assert_same_reflections(h, reference_closure(gens))
    gens = radical_example(3)
    h = mono.group_closure(gens)
    assert [len(o.points) for o in h.orbits] == [3, 3]
    w, wbar, e2, e3 = OMEGA, OMEGA_BAR, (E(0), ONE, E(0)), (E(0), E(0), ONE)
    assert mono.reflections_in(h) == [(e3, w), (e3, wbar), (e2, w), (e2, wbar)]
    assert_same_reflections(h, reference_closure(gens))


def test_reflections_in_bounds_the_candidate_products():
    # the pairing row of e_0 (entries up to 3) times a transversal inverse with an entry of 2^62 could leave
    # int64: the first product refuses it before any entry is formed
    h = mono.group_closure(mono.chain_triflections(2))
    o = h.orbits[0]
    o.trans_inv = o.trans_inv.copy()
    o.trans_inv[1, 0, 3] = 2**62
    with pytest.raises(OverflowError, match="entries up to 3 and 4611686018427387904 could overflow int64"):
        mono.reflections_in(h)


def test_r4_reflections_in_stays_small(closures):
    # one candidate per coset off the base points, 274 for R4, and no element of the group formed: 0.47 MiB;
    # a fresh handle, for the shared one keeps the rows of its first search
    h = closures(4)
    refl, peak = traced_peak(lambda: mono.reflections_in(fresh(h)))
    assert len(refl) == 80
    assert peak < 1.5 * 2**20


def test_trivial_group_is_one_class_and_acts_freely():
    h = mono.group_closure([mono.identity(chain(2))])
    assert h.order == 1 and h.orbits == []
    reps, sizes = np.unique(class_labels(h), return_counts=True)
    assert list(reps) == [0] and list(sizes) == [1]
    assert mono.free_action_check(h) is True


def test_r4_free_action_check_from_a_fresh_handle_stays_small(closures):
    # the whole check, its reflection search included, on a handle that has kept nothing: 13 cosets of the 648
    # elements of G_1, each formed and stepped through its powers on its own, 1.4 MiB
    h = closures(4)
    free, peak = traced_peak(lambda: mono.free_action_check(fresh(h)))
    assert free is True
    assert peak < 4 * 2**20


def reference_conjugations(h):
    """x -> g x g^-1 for each generator g, as int64 indices located by sifting the products, a block at a time."""
    maps = np.empty((len(h.generators), h.order), np.int64)
    for start in range(0, h.order, 4096):
        z = h.matrices(np.arange(start, min(start + 4096, h.order)))
        for image, g in zip(maps, h.generators):
            image[start : start + len(z)] = index(h, g @ z @ mono._inverse(g))
    return maps


def reference_labels(maps, order):
    """The least int64 index in each element's orbit under the maps, by Jacobi min-label propagation."""
    labels = np.arange(order)
    while True:
        new = labels
        for image in maps:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@functools.cache
def class_labels(h):
    """Each element's conjugacy class label, the least index in its class, from the references above; once a handle."""
    return reference_labels(reference_conjugations(h), h.order)


def element_order(z):
    """The order of the packing z of an element of a finite group."""
    power, k = z, 1
    while (power != np.eye(len(z), dtype=np.int64)).any():
        power, k = power @ z, k + 1
    return k


def is_prime(k):
    return k > 1 and all(k % d for d in range(2, k))


@pytest.mark.parametrize("group", [1, 2, 3, 4, *CHAIN_SUBSETS], ids=["R1", "R2", "R3", "R4", *map(str, CHAIN_SUBSETS)])
def test_tested_cosets_meet_every_class_of_prime_order(closures, group, monkeypatch):
    # the elements handed to _power_sums at a prime k have order k, and among them lies one of each conjugacy
    # class of elements of prime order, but for a class of order p >= 5 above the rank, whose projector is 0:
    # on R4, 16 of its 17 such classes met within 13 cosets of 648 elements, and the class of order 5 has P = 0
    h = closures(group) if isinstance(group, int) else mono.group_closure(chain_subset(*group[:2]))
    tested, sums = [], mono._power_sums
    monkeypatch.setattr(mono, "_power_sums", lambda g, bound, top: tested.append((g, bound)) or sums(g, bound, top))
    assert mono.free_action_check(h) is True
    labels = class_labels(h)
    reps = np.flatnonzero(labels == np.arange(h.order))
    orders = {int(i): element_order(z) for i, z in zip(reps, h.matrices(reps))}
    prime = {i for i, k in orders.items() if is_prime(k)}
    met = set()
    for g, k in tested:
        assert is_prime(k) and all(element_order(z) == k for z in g)
        met |= set(labels[index(h, g)].tolist())
    assert met <= prime
    n, top = h.ambient.n, mono._entry_bound(h)
    for i in prime - met:
        p = orders[i]
        assert p >= 5 and p > n and not sums(h.matrices([i]), p, top).any()
    if group == 4:
        assert len(prime) == 17 and len(met) == 16 and [orders[i] for i in prime - met] == [5]
        assert len(mono._suborbits(h)) * h.sizes[1] == 13 * 648


@pytest.mark.parametrize("group", [1, 2, 3, 4, *CHAIN_SUBSETS], ids=["R1", "R2", "R3", "R4", *map(str, CHAIN_SUBSETS)])
def test_power_sums_are_the_even_columns_of_the_full_sum(closures, group, monkeypatch):
    # each batch handed to _power_sums at k against I + g + ... + g^(k-1) summed at full width, every power by
    # its own product: a power dropped or repeated changes the sum, for no power of g has a zero column
    h = closures(group) if isinstance(group, int) else mono.group_closure(chain_subset(*group[:2]))
    checked, sums = [], mono._power_sums

    def compare(g, k, top):
        P = sums(g, k, top)
        power, full = np.broadcast_to(np.eye(g.shape[1], dtype=np.int64), g.shape), 0
        for _ in range(k):
            full, power = full + power, power @ g
        assert P.dtype == np.int64 and np.array_equal(P, full[:, :, ::2])
        checked.append(len(g))
        return P

    monkeypatch.setattr(mono, "_power_sums", compare)
    assert mono.free_action_check(h) is True
    assert sum(checked) > 0


@pytest.mark.parametrize("group", [1, 2, 3, 4, *CHAIN_SUBSETS], ids=["R1", "R2", "R3", "R4", *map(str, CHAIN_SUBSETS)])
def test_suborbits_are_the_least_points_of_the_stabilizer_orbits(closures, group):
    # every element of G_1 applied to every point of the first orbit: {h p} is p's whole G_1-orbit
    h = closures(group) if isinstance(group, int) else mono.group_closure(chain_subset(*group[:2]))
    o = h.orbits[0]
    images = o.find(np.einsum("hij,pj->hpi", h.matrices(np.arange(h.sizes[1]), 1), o.points))
    assert (images >= 0).all()
    assert np.array_equal(mono._suborbits(h), np.unique(images.min(axis=0)))


def test_reflection_rows_are_searched_once_per_handle(closures, monkeypatch):
    # both reports read the rows the handle keeps: directly, through the closure command and in verify's R2 pair
    searched, search = [], mono._reflection_rows
    monkeypatch.setattr(mono, "_reflection_rows", lambda h: searched.append(h) or search(h))
    handles = [fresh(closures(n)) for n in (1, 2, 3, 4)]
    for h, count in zip(handles, (2, 8, 24, 80)):
        assert len(mono.reflections_in(h)) == count
        assert mono.free_action_check(h) is True
        assert len(mono.reflections_in(h)) == count
    assert searched == handles
    searched.clear()
    assert cli.main(["monodromy", "closure", "--lattice", "chain:3", "--report", "reflections,free-action"]) == 0
    assert len(searched) == 1
    searched.clear()
    ctx = verify.Context()
    for name in ("reflections-are-triflections", "free-action-r2"):
        assert verify.run_verify(name_filter=name, ctx=ctx)["summary"] == {"total": 1, "passed": 1, "failed": 0}
    assert searched == [ctx.closure(2)]


@pytest.mark.parametrize("group", [1, 2, 3, 4, *CHAIN_SUBSETS], ids=["R1", "R2", "R3", "R4", *map(str, CHAIN_SUBSETS)])
def test_tree_edges_start_sifted_and_leave_the_chain_unchanged(group, monkeypatch):
    # the Schreier generator of a tree edge, p = parent[q] and s = letter[q], is I, so Orbit.grow
    # marks it sifted; undoing those marks after each grow forms one more Schreier generator per
    # tree edge and gives the same orbits, transversals and order
    gens = mono.chain_triflections(group) if isinstance(group, int) else chain_subset(*group[:2])
    grow, schreier, formed = mono.Orbit.grow, mono.Orbit.schreier, []

    def counted_schreier(self):
        out = schreier(self)
        formed.append(len(out[0]))
        return out

    def unmarked_grow(self, cap, others):
        old = len(self.parent)
        grow(self, cap, others)
        self.sifted[self.parent[old:], self.letter[old:]] = False

    monkeypatch.setattr(mono.Orbit, "schreier", counted_schreier)
    h = mono.group_closure(gens)
    marked = sum(formed)
    formed.clear()
    monkeypatch.setattr(mono.Orbit, "grow", unmarked_grow)
    ref = mono.group_closure(gens)
    assert sum(formed) - marked == sum(len(o.points) - 1 for o in h.orbits) > 0
    assert (h.order, len(h.orbits)) == (ref.order, len(ref.orbits))
    for o, r in zip(h.orbits, ref.orbits):
        assert o.base == r.base and len(o.gens) == len(r.gens)
        assert all(np.array_equal(a, b) for a, b in zip(o.gens, r.gens))
        for name in ("parent", "letter", "trans", "trans_inv", "sifted"):
            assert np.array_equal(getattr(o, name), getattr(r, name))


def test_closure_order_holds_across_block_boundaries(monkeypatch):
    # with 7-row blocks each orbit level of R3 is grown in several products
    gens = mono.chain_triflections(3)
    monkeypatch.setattr(mono, "_BLOCK", 7)
    h = mono.group_closure(gens)
    assert_same_elements(h, reference_closure(gens))


def test_element_index_confirms_every_lookup(closures):
    z = reference_closure(mono.chain_triflections(3))
    assert_same_elements(closures(3), z)
    with pytest.raises(ValueError, match="not an element of the group"):
        index(closures(3), z + 3)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# Shephard-Todd: R1..R4 are Z/3, G4, G25 and G32, with these degrees and class counts
@pytest.mark.parametrize(
    "n, degrees, count", [(1, (3,), 3), (2, (4, 6), 7), (3, (6, 9, 12), 24), (4, (12, 18, 24, 30), 102)]
)
def test_conjugacy_classes_and_solomon_identity(closures, n, degrees, count):
    h = closures(n)
    reps, sizes = np.unique(class_labels(h), return_counts=True)
    assert len(reps) == count
    assert sizes.sum() == h.order
    assert reps[0] == 0 and sizes[0] == 1  # the identity is its own class
    assert (np.diff(reps) > 0).all()
    # Solomon: sum over g of t^(dim Fix g) = prod (t + d_i - 1), over the classes weighted by size
    lhs = [0] * (n + 1)
    for z, size in zip(h.matrices(reps), sizes):
        m = unpack(z)
        dim = len(kernel([[QOmega(m[i][j].a - (i == j), m[i][j].b) for j in range(n)] for i in range(n)]))
        lhs[dim] += int(size)
    rhs = [1]
    for d in degrees:
        rhs = poly_mul(rhs, [d - 1, 1])
    assert lhs == rhs
    if n == 4:
        assert rhs == [124729, 28400, 2310, 80, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_matches_reference(closures, n):
    assert_same_elements(closures(n), reference_closure(mono.chain_triflections(n)))


@pytest.mark.parametrize("diagonals", [d for d, _ in SMALL_GROUPS])
def test_small_closures_match_reference(diagonals):
    gens = diagonal_gens(diag([3, 3, 3]), *diagonals)
    assert_same_elements(mono.group_closure(gens), reference_closure(gens))


def path_gram():
    """r1 and r2 orthogonal, both joined to r3 by theta: a chain r1 - r3 - r2 listed out of order."""
    t, tc, z, three = THETA, THETA.conj(), E(0), E(3)
    return HermGram([[three, z, t], [z, three, t], [tc, tc, three]])


@pytest.mark.parametrize(
    "gens",
    [mono.chain_triflections(n) for n in (1, 2, 3)]
    + [diagonal_gens(diag([3, 3, 3]), *d) for d, _ in SMALL_GROUPS]
    + [[mono.triflection(path_gram(), basis_vector(3, i)) for i in range(3)]],
    ids=["R1", "R2", "R3", "small0", "small1", "small2", "small3", "path3"],
)
def test_chain_order_is_the_bfs_order(gens):
    # the order is the product of the orbit sizes, certified without listing an element
    h = mono.group_closure(gens)
    assert h.order == math.prod(len(o.trans) for o in h.orbits) == len(reference_closure(gens))


def per_point_orbit(base, gens, calls):
    """The orbit's points as a point-by-point search numbers them: the k-th call applies each of the
    first calls[k] generators not yet applied to a point to each point in turn, those found on the way too."""
    e = np.eye(gens.shape[-1], dtype=np.int64)[2 * base]
    points, seen, applied = [e], {e.tobytes()}, [0]
    for k in calls:
        p = 0
        while p < len(points):
            for s in range(applied[p], k):
                image = gens[s] @ points[p]
                if image.tobytes() not in seen:
                    seen.add(image.tobytes())
                    points.append(image)
                    applied.append(0)
            applied[p] = k
            p += 1
    return np.array(points)


@pytest.mark.parametrize(
    "gens",
    [mono.chain_triflections(n) for n in (1, 2, 3, 4)] + [diagonal_gens(diag([3, 3, 3]), *d) for d, _ in SMALL_GROUPS],
    ids=["R1", "R2", "R3", "R4", "small0", "small1", "small2", "small3"],
)
def test_orbits_are_schreier_trees_numbered_as_a_point_by_point_search(gens, monkeypatch):
    calls, grow = {}, mono.Orbit.grow

    def recording_grow(self, cap, others):
        calls.setdefault(id(self), []).append(len(self.gens))
        return grow(self, cap, others)

    monkeypatch.setattr(mono.Orbit, "grow", recording_grow)
    h = mono.group_closure(gens)
    for o in h.orbits:
        g, n = np.stack(o.gens), len(o.points)
        at = {v.tobytes(): i for i, v in enumerate(o.points)}
        assert len(at) == n
        assert (o.parent[1:] < np.arange(1, n)).all()
        for p in range(1, n):
            assert np.array_equal(o.points[p], g[o.letter[p]] @ o.points[o.parent[p]])
        for p, s in itertools.product(range(n), range(len(g))):
            assert o.find(g[s] @ o.points[p]) >= 0
        assert o.find(o.points).tolist() == list(range(n))
        assert (o.trans_inv @ o.trans == np.eye(g.shape[-1], dtype=np.int64)).all()
        assert np.array_equal(o.points, per_point_orbit(o.base, g, calls[id(o)]))


@pytest.mark.parametrize("n, order, most", [(3, 648, 279), (4, 155520, 1313)])
def test_closure_sifts_each_schreier_generator_until_it_passes(n, order, most, monkeypatch):
    # a Schreier generator that sifted once sifts again, so it is not sifted twice
    rows, sift = [], mono._sift

    def counting_sift(orbits, y):
        rows.append(len(y))
        return sift(orbits, y)

    monkeypatch.setattr(mono, "_sift", counting_sift)
    assert mono.group_closure(mono.chain_triflections(n)).order == order
    assert sum(rows) <= most


def test_closure_refuses_a_residue_that_joins_no_level(monkeypatch):
    # stop 0 would append the residue nowhere and run the same level again forever
    class Looping(Exception):
        pass

    calls, sift = [], mono._sift

    def stalled_sift(orbits, y):
        calls.append(len(y))
        if len(calls) > 50:
            raise Looping
        idx, stop = sift(orbits, y)
        stop[:] = 0
        return idx, stop

    monkeypatch.setattr(mono, "_sift", stalled_sift)
    with pytest.raises(RuntimeError, match="no progress: a residue at level 0 joins no level"):
        mono.group_closure(mono.chain_triflections(2))
    assert calls[-1] > 0


def test_closure_cap_bounds_the_memory_of_each_orbit_point():
    # the A5 transvection on chain(6) has infinite order, so its one orbit fills the cap alone
    t = mono.transvection(chain(6), tuple(list(mono.A5_XI) + [E(0)]))
    tracemalloc.start()
    try:
        with pytest.raises(mono.CapExceeded, match="cap 20000"):
            mono.group_closure([t], cap=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_checked_group_elt_converts_its_entries():
    g = mono.GroupElt([[1, 0], [0, 1]], diag([3, 3]))
    assert g.m == ((E(1), E(0)), (E(0), E(1))) and all(isinstance(x, EisensteinInt) for row in g.m for x in row)
    with pytest.raises(TypeError, match="expected an Eisenstein integer"):
        mono.GroupElt([[1, 0], [0, 1.0]], diag([3, 3]))


def test_closure_cap_trips_before_the_elements_exist():
    # one short of |R4|: the orbits' product passes the cap as the last point arrives
    gens = mono.chain_triflections(4)
    tracemalloc.start()
    try:
        with pytest.raises(mono.CapExceeded, match="cap 155519"):
            mono.group_closure(gens, cap=155519)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_closure_refuses_an_infinite_reflection_group_before_any_orbit_grows(monkeypatch):
    t = THETA
    monkeypatch.setattr(mono, "Orbit", None)  # a closure that got as far as its orbits would fail on this
    cases = [
        (chain(5), "degenerate on the roots of generators (0, 1, 2, 3, 4)"),  # signature (4, 1, 0)
        (HermGram([[3, t], [t.conj(), -3]]), "indefinite on the roots of generators (0, 1)"),
        (direct_sum(chain(2), HermGram([[3, 3], [3, 3]])), "degenerate on the roots of generators (2, 3)"),
    ]
    for G, message in cases:
        with pytest.raises(mono.InfiniteGroup, match=re.escape(message)):
            mono.group_closure([mono.triflection(G, basis_vector(G.n, i)) for i in range(G.n)])
    assert issubclass(mono.InfiniteGroup, mono.CapExceeded)  # so the CLI's CapExceeded handler exits 3 on it


def test_a_reflection_in_a_radical_root_is_closed_without_the_criterion():
    # diag(1, w) fixes diag(3, 0) and is a reflection in e_1, whose norm is 0: the criterion does not apply
    h = mono.group_closure([mono.GroupElt(((ONE, E(0)), (E(0), OMEGA)), diag([3, 0]))])
    assert h.order == 3


OFF_DIAGONAL = [E(0), E(3), E(-3), 3 * OMEGA, E(3) + 3 * OMEGA, *(u * THETA for u in UNITS[:5])]


@st.composite
def reflection_grams(draw):
    """Grams of rank 2-4 with diagonal +-3 and entries in theta E, so each basis vector has a triflection."""
    n = draw(st.integers(2, 4))
    g = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = E(draw(st.sampled_from([3, -3])))
        for j in range(i + 1, n):
            g[i][j] = draw(st.sampled_from(OFF_DIAGONAL))
            g[j][i] = g[i][j].conj()
    return HermGram(g)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(reflection_grams())
@example(chain(3))
@example(HermGram([[-3, THETA], [THETA.conj(), -3]]))
@example(HermGram([[3, 3], [3, 3]]))
def test_infinite_reflection_groups_are_refused_exactly_when_the_closure_has_no_end(G):
    # the closure with the criterion bypassed: a group it lets through closes under cap 200,000, and one it
    # refuses passes cap 2,000
    gens = [mono.triflection(G, basis_vector(G.n, i)) for i in range(G.n)]
    try:
        mono._refuse_infinite(G, np.array([pack(g.m) for g in gens], np.int64))
        finite = True
    except mono.InfiniteGroup:
        finite = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mono, "_refuse_infinite", lambda G, gen_z: None)
        if finite:
            assert mono.group_closure(gens, cap=200_000).order <= 200_000
        else:
            with pytest.raises(mono.CapExceeded, match="cap 2000$"):
                mono.group_closure(gens, cap=2000)


def test_closure_overflow_guard():
    # an infinite-order word on lambda10 whose 64th power needs 63-bit entries
    G = lambda10()
    tri = [mono.triflection(G, r) for r in sp_generating_roots()]
    rng = random.Random(3)
    w = mono.word_eval([rng.choice(tri) for _ in range(8)])
    assert max(max(abs(x.a), abs(x.b)) for row in (w**64).m for x in row).bit_length() == 63
    with pytest.raises(OverflowError):
        mono.group_closure([w], cap=200)
    # the bound 2n |generator| |orbit point| reaches 2^63 exactly at the second point
    x = mono.GroupElt(((E(2**31),),), diag([3]), check=False)
    with pytest.raises(OverflowError, match="entries up to 2147483648 and 2147483648 "):
        mono.group_closure([x])


def test_free_action_rejects_infinite_order():
    # an infinite group never becomes a handle: its orbit passes the cap
    G = chain(6)
    t = mono.transvection(G, tuple(list(mono.A5_XI) + [E(0)]))
    with pytest.raises(mono.CapExceeded, match="cap 1000"):
        mono.free_action_check(mono.group_closure([t], cap=1000))


def test_free_action_overflow_guard():
    # diag(w, 1) conjugated by [[1, N], [0, 1]] has order 3 and entries near N; the group's entry
    # bound, a product of transversal row sums, passes 2n top^2 >= 2^63 before any projector is formed
    N = 2**29
    g = mono.GroupElt(((OMEGA, E(N) * (ONE - OMEGA)), (E(0), ONE)), diag([3, 3]), check=False)
    h = mono.group_closure([g])
    assert h.order == 3
    with pytest.raises(OverflowError, match="in products of group elements"):
        mono.free_action_check(h)


def test_f3_reduce_homomorphism():
    rng = random.Random(31)
    gens = mono.chain_triflections(4)
    for _ in range(100):
        w1 = mono.word_eval([gens[rng.randrange(4)] for _ in range(3)])
        w2 = mono.word_eval([gens[rng.randrange(4)] for _ in range(3)])
        lhs = gluing.f3_reduce(w1 * w2)
        r1, r2 = gluing.f3_reduce(w1), gluing.f3_reduce(w2)
        prod = tuple(
            tuple(sum(r1[i][k] * r2[k][j] for k in range(4)) % 3 for j in range(4))
            for i in range(4)
        )
        assert lhs == prod


def test_symplectic_gram_shapes():
    sg10 = gluing.symplectic_gram(lambda10())
    assert gluing.f3_rank(sg10) == 10
    # antisymmetry with zero diagonal
    for i in range(10):
        assert sg10[i][i] == 0
        for j in range(10):
            assert (sg10[i][j] + sg10[j][i]) % 3 == 0
    sg11 = gluing.symplectic_gram(lambda_())
    assert gluing.f3_rank(sg11) == 10


def test_symplectic_gram_requires_theta_dual():
    with pytest.raises(ValueError):
        gluing.symplectic_gram(diag([1]))


def test_f3_reduce_of_triflection_is_transvection():
    L10 = lambda10()
    sg = gluing.symplectic_gram(L10)
    v = basis_vector(10, 4)
    red = gluing.f3_reduce(mono.triflection(L10, v))
    vbar = tuple(1 if i == 4 else 0 for i in range(10))
    for j in range(10):
        col = tuple(red[i][j] for i in range(10))
        pair = sum(sg[j][t] * vbar[t] for t in range(10)) % 3
        expect = tuple(
            ((1 if i == j else 0) + pair * vbar[i]) % 3 for i in range(10)
        )
        assert col == expect


def test_isometry_invariant_under_generated_words():
    rng = random.Random(37)
    L = lambda_()
    t = mono.triflection(L, NODAL_ROOT)
    h = mono.hexaflection(L, basis_vector(11, 0))
    pool = [t, h]
    w = mono.word_eval([pool[rng.randrange(2)] for _ in range(6)])
    assert is_isometry(L, w.m)


def test_words_in_triflections_have_cube_root_determinant():
    rng = random.Random(41)
    gens = mono.chain_triflections(4)
    for _ in range(50):
        w = mono.word_eval([gens[rng.randrange(4)] for _ in range(rng.randint(1, 8))])
        d = det(w.m, EisensteinInt.exact_div)
        assert d in (E(1), OMEGA, OMEGA_BAR)
