import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from eisenlat.eisenstein import E, ONE, OMEGA, OMEGA_BAR, THETA, UNITS, EisensteinInt, QOmega
from eisenlat.hermitian import (
    HermGram,
    basis_vector,
    chain,
    diag,
    direct_sum,
    hyp,
    ip,
    is_isometry,
    lambda10,
    lambda_,
    norm_of,
)
from eisenlat import monodromy as mono
from eisenlat.gluing import sp_generating_roots
from eisenlat.linalg import mat_vec
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


def test_projective_order_identity():
    G = chain(2)
    assert mono.projective_order(mono.identity(G)) == 1
    assert mono.projective_order(mono.identity(G), modulo_radical=True) == 1
    with pytest.raises(ValueError):
        mono.projective_order(mono.identity(G), cap=0)


def test_f3_reductions_preserve_symplectic_form():
    rng = random.Random(47)
    G = chain(4)
    sg = mono.symplectic_gram(G)
    gens = mono.chain_triflections(4)
    for _ in range(50):
        w = mono.word_eval([gens[rng.randrange(4)] for _ in range(4)])
        r = mono.f3_reduce(w)
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


def reference_closure(gens):
    """The per-row BFS that group_closure replaced: einsum products, whole packings as keys."""
    n = gens[0].ambient.n
    gen_z = np.stack([mono._companion_pack(g.m, n) for g in gens])
    frontier = mono._companion_pack(mono.identity(gens[0].ambient).m, n)[None]
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


def assert_same_elements(h, z):
    """The chain's elements are exactly the packings z: each one's index, once, and back."""
    idx = h.index(z)
    assert h.order == len(z)
    assert np.array_equal(np.sort(idx), np.arange(len(z)))
    assert np.array_equal(h.matrices(idx), z)


def reference_reflections(G, z):
    """Every element of z through the exact test over E, with no trace filter: K = M - I has
    rank one (its nonzero columns are proportional) and M r = zeta r on its root, zeta != 1."""
    n, out = G.n, []
    for w in z:
        m = mono._companion_unpack(w, n)
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
        m = mono._companion_unpack(w, n)
        a = [[QOmega.from_e(m[i][j] - (1 if i == j else 0)) for j in range(n)] for i in range(n)]
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflections_and_free_action_match_reference(closures, n):
    h, z = closures(n), reference_closure(mono.chain_triflections(n))
    assert_same_reflections(h, z)
    assert mono.free_action_check(h) is reference_free_action(h.ambient, z) is True
    assert reference_projector_free_action(h, z) is True


def test_conjugacy_classes_match_brute_force(closures):
    # R2 = G4: the class of x is {y x y^-1 : y in the group}, by whole-group products
    z = closures(2).matrices(np.arange(24))
    position = {w.tobytes(): i for i, w in enumerate(z)}
    inverses = [next(w for w in z if (w @ x == np.eye(4, dtype=np.int64)).all()) for x in z]
    classes = {frozenset(position[(y @ x @ yi).tobytes()] for y, yi in zip(z, inverses)) for x in z}
    reps, sizes = mono.conjugacy_classes(closures(2))
    assert sorted(min(c) for c in classes) == list(reps)
    assert sorted(len(c) for c in classes) == sorted(sizes)


def test_conjugacy_classes_reject_a_set_that_is_not_a_group(closures):
    h = closures(2)
    # 2 e_0 is no point of e_0's orbit
    with pytest.raises(ValueError, match="not an element of the group"):
        h.index(mono._companion_pack(((E(2), E(0)), (E(0), ONE)), 2)[None])
    # w I is central of order 3, and the centre of G4 has order 2: its sift ends at a scalar
    with pytest.raises(ValueError, match="does not end at I"):
        h.index(mono._companion_pack(((OMEGA, E(0)), (E(0), OMEGA)), 2)[None])
    # a1 alone generates a subgroup of order 3, so its table reaches three of the chain's elements
    a1_only = mono.GroupHandle(h.ambient, h.orbits, h.generators[:1])
    with pytest.raises(ValueError, match="do not generate the group"):
        mono.conjugacy_classes(a1_only)
    with pytest.raises(ValueError, match="do not generate the group"):
        mono.free_action_check(a1_only)


def test_conjugacy_classes_bound_the_intermediate_product(closures):
    # the table's Schreier elements are located by sifting: x fixes e_0, so its sift multiplies
    # x by the identity, and 2n |1| |2^62| reaches 2^63 before the product could wrap
    x = np.eye(4, dtype=np.int64)
    x[0, 3] = 2**62
    with pytest.raises(OverflowError, match="entries up to 1 and 4611686018427387904 "):
        closures(2).index(x[None])


def sample(h):
    """Every element of R1..R3, every seventh of R4."""
    return np.arange(0, h.order, 7 if h.order > 648 else 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_table_is_the_right_cayley_table(closures, n):
    # the table records g x, so it is the left Cayley table of the generators
    h = closures(n)
    table, idx = h.table, sample(h)
    assert table.dtype == np.int32 and table.shape == (h.order, len(h.generators))
    z = h.matrices(idx)
    for j, g in enumerate(h.generators):
        assert np.array_equal(h.matrices(table[idx, j]), g @ z)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugations_are_g_x_g_inverse(closures, n):
    h = closures(n)
    idx = sample(h)
    maps = mono._conjugations(h)
    assert len(maps) == len(h.generators)
    z = h.matrices(idx)
    for image, g in zip(maps, h.generators):
        assert np.array_equal(h.matrices(image[idx]), g @ z @ mono._inverse(g))


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
def test_chain_subsets_first_orbit_and_conjugations(n, letters, base):
    # every generator starts at the first moved level, and no Schreier residue ever joins it
    h = mono.group_closure(chain_subset(n, letters))
    assert h.orbits[0].base == base
    assert np.array_equal(np.stack(h.orbits[0].gens), h.generators)
    z = h.matrices(np.arange(h.order))
    for image, g in zip(mono._conjugations(h), h.generators):
        assert np.array_equal(h.matrices(image), g @ z @ mono._inverse(g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_reflections_are_reflections_in(closures, n):
    # the same roots and units in the same order, read off the classes instead of every trace
    h = closures(n)
    assert mono._class_reflections(h, mono._class_labels(h)) == mono.reflections_in(h)


def test_conjugations_refuse_generators_out_of_the_tree_order(closures):
    # the same generators reversed: the first orbit's Schreier tree spells its points in other letters
    h = closures(3)
    by_hand = mono.GroupHandle(h.ambient, h.orbits, h.generators[::-1])
    with pytest.raises(ValueError, match="do not generate the group"):
        mono.conjugacy_classes(by_hand)
    with pytest.raises(ValueError, match="do not generate the group"):
        mono.free_action_check(by_hand)


def test_trivial_group_is_one_class_and_acts_freely():
    h = mono.group_closure([mono.identity(chain(2))])
    assert h.order == 1 and h.orbits == []
    reps, sizes = mono.conjugacy_classes(h)
    assert list(reps) == [0] and list(sizes) == [1]
    assert mono.free_action_check(h) is True


def test_conjugacy_classes_of_r4_stay_small(closures):
    # one right-multiplication map at a time, filled along the first orbit's Schreier tree, no inverse map
    h = closures(4)
    h.table  # built outside the measured region
    tracemalloc.start()
    try:
        reps, sizes = mono.conjugacy_classes(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reps) == 102 and sizes.sum() == h.order
    assert peak < 10 * 2**20


def test_handle_made_by_hand_gets_the_closure_table(closures):
    h = closures(3)
    by_hand = mono.GroupHandle(h.ambient, h.orbits, h.generators)
    assert by_hand._table is None
    assert np.array_equal(by_hand.table, h.table)


def test_closure_order_holds_across_block_boundaries(closures, monkeypatch):
    # with 7-row blocks every sift of the table's Schreier elements spans several blocks
    gens, table = mono.chain_triflections(3), closures(3).table
    monkeypatch.setattr(mono, "_BLOCK", 7)
    h = mono.group_closure(gens)
    assert_same_elements(h, reference_closure(gens))
    assert np.array_equal(h.table, table)


def test_element_index_confirms_every_lookup(closures):
    z = reference_closure(mono.chain_triflections(3))
    assert_same_elements(closures(3), z)
    with pytest.raises(ValueError, match="not an element of the group"):
        closures(3).index(z + 3)


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
    reps, sizes = mono.conjugacy_classes(h)
    assert len(reps) == count
    assert sizes.sum() == h.order
    assert reps[0] == 0 and sizes[0] == 1  # the identity is its own class
    assert (np.diff(reps) > 0).all()
    # Solomon: sum over g of t^(dim Fix g) = prod (t + d_i - 1), over the classes weighted by size
    lhs = [0] * (n + 1)
    for z, size in zip(h.matrices(reps), sizes):
        m = mono._companion_unpack(z, n)
        dim = len(kernel([[QOmega.from_e(m[i][j] - (1 if i == j else 0)) for j in range(n)] for i in range(n)]))
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
    # and the projector sums stop a power that never returns to I
    with pytest.raises(ValueError, match="never reach I"):
        mono._power_sums(mono._companion_pack(t.m, 6)[None], 50, 10**6)


def test_free_action_stops_a_power_that_leaves_the_entry_bound():
    # 2^20 has infinite order; within 4 steps its power 2^80 would wrap in int64
    g = mono._companion_pack(((E(2**20),),), 1)
    with pytest.raises(ValueError, match="power is not in it"):
        mono._power_sums(g[None], 4, 2**20)


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
        lhs = mono.f3_reduce(w1 * w2)
        r1, r2 = mono.f3_reduce(w1), mono.f3_reduce(w2)
        prod = tuple(
            tuple(sum(r1[i][k] * r2[k][j] for k in range(4)) % 3 for j in range(4))
            for i in range(4)
        )
        assert lhs == prod


def test_symplectic_gram_shapes():
    sg10 = mono.symplectic_gram(lambda10())
    assert mono.f3_rank(sg10) == 10
    # antisymmetry with zero diagonal
    for i in range(10):
        assert sg10[i][i] == 0
        for j in range(10):
            assert (sg10[i][j] + sg10[j][i]) % 3 == 0
    sg11 = mono.symplectic_gram(lambda_())
    assert mono.f3_rank(sg11) == 10


def test_symplectic_gram_requires_theta_dual():
    with pytest.raises(ValueError):
        mono.symplectic_gram(diag([1]))


def test_f3_reduce_of_triflection_is_transvection():
    L10 = lambda10()
    sg = mono.symplectic_gram(L10)
    v = basis_vector(10, 4)
    red = mono.f3_reduce(mono.triflection(L10, v))
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
