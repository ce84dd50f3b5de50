import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import E, OMEGA, THETA, UNITS, e_gcd, is_associate, reduce_mod_theta
from eisenlat.hermitian import (
    NAMED_LATTICES,
    HermGram,
    basis_vector,
    det_e,
    diag,
    direct_sum,
    e8e,
    hyp,
    in_theta_dual,
    ip,
    lambda10,
    lambda_,
    named_lattice,
    norm_of,
    signature,
)
from eisenlat import gluing
from eisenlat import monodromy as mono
from eisenlat.hnf import snf_e


def over_theta(n, i):
    """e_i / theta as a pair (d, x), x / d: 1 / theta = conj(theta) / 3."""
    return 3, tuple(THETA.conj() if j == i else E(0) for j in range(n))


def big_n():
    return direct_sum(diag([3]), e8e(), e8e(), diag([-3]), diag([3]))


def test_disc_group_shapes():
    assert gluing.disc_group(diag([3])).diagonal() == (1,)
    assert gluing.disc_group(e8e()).k == 0
    assert gluing.disc_group(hyp()).k == 0
    S = gluing.disc_group(big_n())
    assert S.k == 3
    assert sorted(S.diagonal()) == [1, 1, 2]


def test_disc_group_rejects_bad_input():
    with pytest.raises(ValueError):
        gluing.disc_group(diag([1]))  # not theta-dual


def test_disc_group_norms_of_standard_lifts():
    N = big_n()
    S = gluing.disc_group(N)
    abar = S.coords(over_theta(11, 0))
    bbar = S.coords(over_theta(11, 9))
    rbar = S.coords(over_theta(11, 10))
    assert (S.norm(abar), S.norm(bbar), S.norm(rbar)) == (1, 2, 1)
    # the three classes are independent
    assert len({abar, bbar, rbar}) == 3
    # the diagonalized form and the coordinates themselves, which the report omits
    assert S.form == ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    assert (abar, bbar, rbar) == ((2, 0, 0), (0, 0, 2), (0, 2, 0))


def test_disc_norm_independent_of_lift():
    # perturbing a lift by a lattice vector does not change its class data
    N = big_n()
    S = gluing.disc_group(N)
    rng = random.Random(43)
    base = over_theta(11, 0)
    d, x = base
    for _ in range(30):
        # adding the lattice vector e to x / d adds d e to x
        pert = [y + d * E(rng.randint(-2, 2), rng.randint(-2, 2)) for y in x]
        assert S.coords((d, tuple(pert))) == S.coords(base)


@pytest.mark.parametrize("call, message", [
    (lambda S: gluing.hyperplane_preimage(lambda10(), [1] * 11), "functional has 11 coordinates, but the lattice has rank 10"),
    (lambda S: gluing.hyperplane_preimage(lambda10(), [1] * 9), "functional has 9 coordinates, but the lattice has rank 10"),
    (lambda S: gluing.glue(S, (1, 0, 1, 5)), "line has 4 coordinates, but theta N\\*/N has dimension 3"),
    (lambda S: gluing.glue(S, (1, 0)), "line has 2 coordinates, but theta N\\*/N has dimension 3"),
    (lambda S: S.norm((1, 0, 0, 2)), "vector has 4 coordinates, but theta N\\*/N has dimension 3"),
    (lambda S: S.norm((1, 0)), "vector has 2 coordinates, but theta N\\*/N has dimension 3"),
    (lambda S: S.coords(over_theta(12, 0)), "vector has 12 coordinates, but the lattice has rank 11"),
    (lambda S: S.coords(over_theta(10, 0)), "vector has 10 coordinates, but the lattice has rank 11"),
    (lambda S: gluing.isotropic_lines(S, orth_to=(1, 0)), "orth_to has 2 coordinates, but theta N\\*/N has dimension 3"),
    (lambda S: gluing.isotropic_lines(S, not_orth_to=(1, 0)), "not_orth_to has 2 coordinates, but theta N\\*/N has dimension 3"),
], ids=[
    "preimage-long", "preimage-short", "glue-long", "glue-short", "norm-long", "norm-short",
    "coords-long", "coords-short", "orth-to", "not-orth-to",
])
def test_f3_input_of_the_wrong_length_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call(gluing.disc_group(big_n()))


def test_coords_rejects_a_vector_outside_theta_dual():
    # e_0 / 3 pairs with the (3) summand to 1, which is not in theta E
    S = gluing.disc_group(big_n())
    with pytest.raises(ValueError, match="not in theta N"):
        S.coords((3, basis_vector(11, 0)))


@pytest.mark.parametrize("rows", [((3,),), ((0, 3), (3, 0)), ((0, 3, 0), (3, 0, 0), (0, 0, 3))])
def test_coords_inverts_lift(rows):
    # the raw form of the hyperbolic plane is ((0, 1), (1, 0)): with no
    # nonzero diagonal entry, _f3_diagonalize first adds one basis vector to
    # the other, and coords must undo that step through the inverse transpose;
    # the symplectic Gram of (3) is 0, so its kernel rref has no row
    S = gluing.disc_group(HermGram([[E(x) for x in row] for row in rows]))
    assert S.k == len(rows)
    for v in itertools.product(range(3), repeat=S.k):
        assert S.coords(S.lift(v)) == v


def test_enumerate_norm_counts():
    S = gluing.disc_group(big_n())
    assert len(gluing.enumerate_norm(S, 1)) == 12
    zero = vectors(gluing.enumerate_norm(S, 0))
    assert (0, 0, 0) in zero
    # definite rank-1 space: no vectors of norm -1 (squares are 0, 1)
    S1 = gluing.disc_group(diag([3]))
    assert vectors(gluing.enumerate_norm(S1, 2)) == []


def test_norm1_set_matches_closed_form():
    N = big_n()
    S = gluing.disc_group(N)
    abar = S.coords(over_theta(11, 0))
    bbar = S.coords(over_theta(11, 9))
    rbar = S.coords(over_theta(11, 10))
    expected = set()
    for s in (1, 2):
        expected.add(tuple((s * x) % 3 for x in abar))
        expected.add(tuple((s * x) % 3 for x in rbar))
    for sa in (1, 2):
        for sb in (1, 2):
            for sr in (1, 2):
                expected.add(
                    tuple(
                        (sa * x + sb * y + sr * z) % 3
                        for x, y, z in zip(abar, bbar, rbar)
                    )
                )
    assert set(vectors(gluing.enumerate_norm(S, 1))) == expected


def test_isotropic_lines():
    N = big_n()
    S = gluing.disc_group(N)
    bbar = S.coords(over_theta(11, 9))
    rbar = S.coords(over_theta(11, 10))
    lines = gluing.isotropic_lines(S, not_orth_to=rbar)
    ends = [[r - b for r, b in zip(rbar, bbar)], [r + b for r, b in zip(rbar, bbar)]]
    expected = set(map(tuple, gluing.canon_lines(ends).tolist()))
    assert set(lines) == expected and len(lines) == 2
    abar = S.coords(over_theta(11, 0))
    lines_a = gluing.isotropic_lines(S, orth_to=abar)
    assert tuple(gluing.canon_lines([[x + y for x, y in zip(bbar, rbar)]])[0].tolist()) in lines_a


def test_positive_definite_space_has_no_isotropic_lines():
    # x^2 + y^2 = 0 over F_3 forces x = y = 0
    N2 = direct_sum(diag([3]), diag([3]))
    S2 = gluing.disc_group(N2)
    assert S2.diagonal() == (1, 1)
    assert gluing.isotropic_lines(S2) == []


def test_glue_zero_line_is_identity():
    N = big_n()
    S = gluing.disc_group(N)
    GL = gluing.glue(S, (0, 0, 0))
    assert GL.gram == N


def test_glue_rejects_anisotropic_line():
    N = big_n()
    S = gluing.disc_group(N)
    abar = S.coords(over_theta(11, 0))
    with pytest.raises(ValueError):
        gluing.glue(S, abar)


def test_glue_drops_determinant_by_nine():
    N = big_n()
    S = gluing.disc_group(N)
    rbar = S.coords(over_theta(11, 10))
    for ln in gluing.isotropic_lines(S, not_orth_to=rbar):
        M = gluing.glue(S, ln).gram
        assert det_e(N).norm() == det_e(M).norm() * 3**2
        assert in_theta_dual(M)
        assert det_e(M) == E(-729)
        assert signature(M) == (10, 0, 1)


def test_glued_lattice_contains_theta_pairing_vector():
    N = big_n()
    S = gluing.disc_group(N)
    rbar = S.coords(over_theta(11, 10))
    r_old = basis_vector(11, 10)
    for ln in gluing.isotropic_lines(S, not_orth_to=rbar):
        d, cols = gluing.glue(S, ln).basis
        g = e_gcd(*(ip(N, col, r_old).exact_div(d) for col in cols))
        assert is_associate(g, THETA)


def test_hyperplane_preimage_invariants_agree():
    L10 = lambda10()
    A = gluing.hyperplane_preimage(L10, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)).gram
    B = gluing.hyperplane_preimage(L10, (0, 0, 1, 0, 0, 2, 0, 0, 1, 0)).gram
    assert det_e(A) == det_e(B)
    assert signature(A) == signature(B) == (9, 0, 1)
    assert det_e(A).norm() == det_e(L10).norm() * 9
    SA, SB = gluing.disc_group(A), gluing.disc_group(B)
    assert SA.diagonal() == SB.diagonal()
    assert in_theta_dual(A) and in_theta_dual(B)


def test_hyperplane_preimage_rejects_zero_functional():
    with pytest.raises(ValueError):
        gluing.hyperplane_preimage(lambda10(), (0,) * 10)


def test_hyperplane_preimage_explicit_coordinate_kernel():
    # kernel of the first coordinate functional: basis (unit*theta)*e1, e2, ..., en
    L10 = lambda10()
    GL = gluing.hyperplane_preimage(L10, (1,) + (0,) * 9)
    d, cols = GL.basis
    assert d == 1
    first = cols[0]
    assert all(not first[i] for i in range(1, 10))
    assert is_associate(first[0], THETA)
    for j in range(1, 10):
        assert tuple(cols[j]) == basis_vector(10, j)


def test_glue_undoes_hyperplane_preimage_on_lambda():
    # the roundtrip is exercised in depth by the acceptance suite; here just
    # check the sublattice invariants feeding it
    L = lambda_()
    rbar = gluing.reduce_vector(tuple([E(0)] * 9 + [E(1), OMEGA]))
    sg = gluing.symplectic_gram(L)
    phi = tuple(sum(sg[i][j] * rbar[j] for j in range(11)) % 3 for i in range(11))
    N = gluing.hyperplane_preimage(L, phi).gram
    assert det_e(N) == E(-3**7)
    assert signature(N) == (10, 0, 1)
    assert sorted(gluing.disc_group(N).diagonal()) == [1, 1, 2]


def test_orbit_small_cases():
    L10 = lambda10()
    size1, _ = gluing.hyperplane_orbit(
        [basis_vector(10, 0)], L10, start=basis_vector(10, 1)
    )
    assert size1 <= 3
    size0, _ = gluing.hyperplane_orbit(
        [basis_vector(10, 0)], L10, start=basis_vector(10, 0)
    )
    assert size0 == 1


def test_orbit_rejects_degenerate():
    with pytest.raises(ValueError):
        gluing.hyperplane_orbit([basis_vector(11, 1)], lambda_())


def test_sp_generating_roots_are_roots():
    L10 = lambda10()
    for r in gluing.sp_generating_roots():
        assert norm_of(L10, r) == E(3)


def test_disc_dimension_tracks_determinant():
    # norm(det) = 3^(n + k) with k the dimension of theta N*/N
    for N in (diag([3]), e8e(), hyp(), lambda_(), lambda10(), big_n()):
        k = gluing.disc_group(N).k
        assert det_e(N).norm() == 3 ** (N.n + k)


def test_theta_self_dual_lattices_have_trivial_disc_group():
    for N in (e8e(), hyp(), lambda10()):
        assert gluing.disc_group(N).k == 0


def test_disc_group_rejects_non_elementary_quotient():
    with pytest.raises(ValueError):
        gluing.disc_group(diag([9]))


def unimodular_congruent(N, rng):
    """The Gram T^T N conj(T) of a random unimodular T over E, built by elementary column operations."""
    n = N.n
    T = [[E(1) if i == j else E(0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = E(rng.randint(-1, 1), rng.randint(-1, 1))
        for k in range(n):
            T[k][i] = T[k][i] + c * T[k][j]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = E(0)
            for p in range(n):
                for q in range(n):
                    s = s + T[p][i] * N.g[p][q] * T[q][j].conj()
            row.append(s)
        rows.append(row)
    return HermGram(rows)


def test_disc_group_invariant_under_unimodular_congruence():
    rng = random.Random(137)
    N = big_n()
    for _ in range(5):
        M = unimodular_congruent(N, rng)
        S2 = gluing.disc_group(M)
        assert S2.k == 3
        assert S2.diagonal() == gluing.disc_group(N).diagonal()
        assert len(gluing.enumerate_norm(S2, 1)) == 12


@pytest.mark.parametrize(
    "entries, diagonal",
    [([3, 3], (1, 1)), ([3, 3, 3], (1, 1, 1)), ([-3, -3, -3, 3], (1, 1, 1, 2)), ([-3] * 5, (1, 1, 1, 1, 2))],
)
def test_disc_group_form_is_the_same_in_every_basis(entries, diagonal):
    # over F_3, -x^2 - y^2 = u^2 + v^2 (u = x + y, v = x - y): the diagonal has at most one -1
    rng = random.Random(5)
    for M in [diag(entries)] + [unimodular_congruent(diag(entries), rng) for _ in range(30)]:
        S = gluing.disc_group(M)
        assert S.diagonal() == diagonal
        assert S.form == tuple(tuple(x if i == j else 0 for j, x in enumerate(diagonal)) for i in range(S.k))
        for v in itertools.product(range(3), repeat=S.k):
            assert S.coords(S.lift(v)) == v
        d, lifts = S.lifts
        for i, x in enumerate(lifts):
            for j, y in enumerate(lifts):
                assert reduce_mod_theta(ip(M, x, y).exact_div(E(d * d))) == S.form[i][j]


def random_theta_dual(case):
    """The Gram with diagonal 3 a_i and entries theta e_ij above it."""
    diagonal, above = case
    n = len(diagonal)
    g = [[E(0)] * n for _ in range(n)]
    pairs = iter(above)
    for i in range(n):
        g[i][i] = E(3 * diagonal[i])
        for j in range(i + 1, n):
            g[i][j] = THETA * E(*next(pairs))
            g[j][i] = g[i][j].conj()
    return HermGram(g)


theta_dual_grams = st.one_of(
    st.integers(1, 6)
    .flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            st.lists(
                st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    )
    .map(random_theta_dual),
    st.builds(
        lambda blocks, seed: unimodular_congruent(direct_sum(*blocks), random.Random(seed)),
        st.lists(st.sampled_from([diag([3]), diag([-3]), diag([9]), hyp()]), min_size=1, max_size=3),
        st.integers(0, 2**16),
    ),
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(theta_dual_grams)
@example(diag([9]))
@example(direct_sum(diag([3]), diag([-9])))
def test_disc_group_matches_the_smith_normal_form(G):
    # theta N*/N is the cokernel of Gbar / theta: F_3^k for the k SNF entries of norm 3,
    # and not an F_3 space when an entry has larger norm
    assume(det_e(G))
    norms = [x.norm() for x in snf_e([[x.conj().exact_div(THETA) for x in row] for row in G.g])[0]]
    if max(norms) > 3:
        with pytest.raises(ValueError, match="not an F_3 space"):
            gluing.disc_group(G)
        return
    S = gluing.disc_group(G)
    assert S.k == norms.count(3)
    for v in itertools.product(range(3), repeat=S.k):
        assert S.coords(S.lift(v)) == v
    d, lifts = S.lifts
    for i, x in enumerate(lifts):
        for j, y in enumerate(lifts):
            assert reduce_mod_theta(ip(G, x, y).exact_div(E(d * d))) == S.form[i][j]


# ---------------------------------------------------------------- references
# The per-row loops that the batched F_3 layers replaced, kept as references.


def reference_canon(arr):
    """Scale so the first nonzero entry is 1 (kills the +-v ambiguity)."""
    for x in arr:
        if x:
            if x == 2:
                return tuple((2 * arr) % 3)
            return tuple(arr)
    raise AssertionError("zero vector")


def reference_orbit(roots, G, start=None, cap=200000):
    """Orbit size by one set lookup per image row."""
    gens = [np.array(gluing.f3_reduce(mono.triflection(G, r)), dtype=np.int64) for r in roots]
    if start is None:
        start = gluing.reduce_vector(roots[0])
    return reference_line_orbit(gens, start, cap), len(gens)


def reference_line_orbit(gens, start, cap=200000):
    """Number of lines in the orbit of start's line, one set lookup per image row."""
    start = np.array([int(x) % 3 for x in start], dtype=np.int64)
    seen = {reference_canon(start)}
    frontier = [start]
    while frontier:
        block = np.stack(frontier)
        fresh = []
        for g in gens:
            for row in block @ g.T % 3:
                key = reference_canon(row)
                if key not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"orbit exceeded cap {cap}")
                    seen.add(key)
                    fresh.append(np.array(key, dtype=np.int64))
        frontier = fresh
    return len(seen)


def reference_code(row):
    """The base-3 code of the line of a nonzero F_3 row, coordinate 0 most significant."""
    return int("".join(map(str, reference_canon(np.asarray(row) % 3))), 3)


def reference_enumerate_norm(S, c):
    """Every vector of norm c, coordinate 0 varying fastest."""
    out = []
    vec = [0] * S.k
    for idx in range(3**S.k):
        t = idx
        for i in range(S.k):
            vec[i] = t % 3
            t //= 3
        if S.norm(vec) == c % 3:
            out.append(tuple(vec))
    return out


def vectors(a):
    """The rows of an int8 array from ``enumerate_norm`` as a list of int tuples."""
    return list(map(tuple, a.tolist()))


def f3_space(form):
    k = len(form)
    return gluing.F3QuadSpace(None, k, tuple(tuple(r) for r in form), [None] * k, None)


def seeded_starts(seed, count, n=10):
    rng = random.Random(seed)
    starts = []
    while len(starts) < count:
        v = tuple(rng.randrange(3) for _ in range(n))
        if any(v):
            starts.append(v)
    return starts


@pytest.mark.parametrize("m, size", [(3, 12), (5, 40), (8, 40)])
def test_orbit_of_generator_subsets_matches_reference(m, size):
    L10, roots = lambda10(), gluing.sp_generating_roots()[:m]
    assert gluing.hyperplane_orbit(roots, L10) == reference_orbit(roots, L10) == (size, m)
    for start in seeded_starts(m, 4):
        assert gluing.hyperplane_orbit(roots, L10, start=start) == reference_orbit(roots, L10, start=start)


def test_full_orbit_matches_reference():
    L10, roots = lambda10(), gluing.sp_generating_roots()
    assert gluing.hyperplane_orbit(roots, L10) == reference_orbit(roots, L10) == (29524, 12)
    for start in seeded_starts(7, 3):
        assert gluing.hyperplane_orbit(roots, L10, start=start) == (29524, 12)


def test_orbit_cap():
    L10, roots = lambda10(), gluing.sp_generating_roots()[:5]
    assert gluing.hyperplane_orbit(roots, L10, cap=40) == (40, 5)
    for run in (gluing.hyperplane_orbit, reference_orbit):
        with pytest.raises(ValueError, match="orbit exceeded cap 39"):
            run(roots, L10, cap=39)


def test_full_orbit_cap_edge_on_the_dense_path():
    L10, roots = lambda10(), gluing.sp_generating_roots()
    assert gluing.hyperplane_orbit(roots, L10, cap=29524) == (29524, 12)
    with pytest.raises(ValueError, match="orbit exceeded cap 29523"):
        gluing.hyperplane_orbit(roots, L10, cap=29523)


@pytest.mark.parametrize("start", [None, (1,) + (0,) * 9])
def test_orbit_refuses_an_empty_root_list(start):
    with pytest.raises(ValueError, match="need at least one root"):
        gluing.hyperplane_orbit([], lambda10(), start=start)


@pytest.mark.parametrize("gens", [np.zeros((0, 4, 4), int), []], ids=["array", "list"])
def test_line_orbit_refuses_an_empty_generator_set(gens):
    with pytest.raises(ValueError, match="no generator was given"):
        gluing.line_orbit(gens, [1, 0, 0, 0])


def test_orbit_rejects_bad_start():
    roots = gluing.sp_generating_roots()
    with pytest.raises(ValueError, match="nonzero"):
        gluing.hyperplane_orbit(roots, lambda10(), start=(0,) * 10)
    with pytest.raises(ValueError, match="10 coordinates"):
        gluing.hyperplane_orbit(roots, lambda10(), start=(1,) * 9)


@pytest.mark.parametrize("start, message", [
    ((0,) * 10, "nonzero"),
    ((1,) * 9, "10 coordinates"),
    ((1.7,) + (0,) * 9, "integer or Eisenstein coordinates"),
])
def test_orbit_checks_the_start_before_building_a_triflection(monkeypatch, start, message):
    calls = []
    real = gluing.reduced_triflections
    monkeypatch.setattr(gluing, "reduced_triflections", lambda *args: calls.append(args) or real(*args))
    roots = gluing.sp_generating_roots()[:3]
    with pytest.raises(ValueError, match=message):
        gluing.hyperplane_orbit(roots, lambda10(), start=start)
    assert calls == []
    # the patched name is the one the orbit builds its generators with, all three in one call
    assert gluing.hyperplane_orbit(roots, lambda10()) == (12, 3)
    assert len(calls) == 1 and list(calls[0][1]) == roots


def seeded_roots(G, roots, seed, count):
    """Norm-3 vectors of G: a unit times the image of one of ``roots`` under a random word in their triflections."""
    rng = random.Random(seed)
    tri = [mono.triflection(G, r) for r in roots]
    out = []
    for _ in range(count):
        v = rng.choice(roots)
        for _ in range(rng.randint(1, 6)):
            v = rng.choice(tri)(v)
        u = rng.choice(UNITS)
        out.append(tuple(u * x for x in v))
    return out


@pytest.mark.parametrize("name", ["lambda10", "e8e"])
def test_reduced_triflections_are_the_reduced_lattice_triflections(name):
    if name == "lambda10":
        G, roots = lambda10(), gluing.sp_generating_roots()
    else:
        G, roots = e8e(), [basis_vector(4, i) for i in range(4)]
    vectors = roots + seeded_roots(G, roots, 33, 40)
    assert all(norm_of(G, v) == E(3) for v in vectors)
    got = gluing.reduced_triflections(G, vectors)
    assert got.dtype == np.int64 and got.shape == (len(vectors), G.n, G.n)
    assert np.array_equal(got, np.array([gluing.f3_reduce(mono.triflection(G, v)) for v in vectors]))


def test_reduced_triflections_take_only_roots():
    L10, r = lambda10(), gluing.sp_generating_roots()[0]
    six = (E(1), E(0), E(1)) + (E(0),) * 7
    minus_three = (E(0),) * 8 + (E(1), -OMEGA)  # its triflection is integral, but it is not a root
    mono.triflection(L10, minus_three)
    for bad, message in [
        (tuple(2 * x for x in r), "root 1 has norm 12, not 3"),
        (six, "root 1 has norm 6, not 3"),
        (minus_three, "root 1 has norm -3, not 3"),
        (r[:9], "root 1 has 9 coordinates, but the lattice has rank 10"),
    ]:
        with pytest.raises(ValueError, match=message):
            gluing.reduced_triflections(L10, [r, bad])


@pytest.mark.parametrize("run, want, bound", [
    # a level's images come in blocks of narrow codes and land in 39366-byte tables of the line codes: 0.80 MiB traced
    (lambda: gluing.hyperplane_orbit(gluing.sp_generating_roots(), lambda10()), (29524, 12), 2.5 * 2**20),
    # the two 354294-byte tables of rank 12 stay within the 2 MiB that _MAX_RANK allows: 1.03 MiB traced
    (lambda: gluing.line_orbit(shift_and_swap(12), [1] + [0] * 11), 12, 2**21),
], ids=["rank-10-hyperplanes", "rank-12-lines"])
def test_orbit_peak_memory_is_bounded(run, want, bound):
    run()
    tracemalloc.start()
    try:
        assert run() == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_orbit_start_takes_integers_and_eisenstein_integers():
    L10, roots = lambda10(), gluing.sp_generating_roots()[:5]
    want = gluing.hyperplane_orbit(roots, L10, start=(2, 1) + (0,) * 8)
    assert want == reference_orbit(roots, L10, start=(2, 1) + (0,) * 8)
    for start in [
        (np.int64(2), np.int8(1)) + (0,) * 8,
        (-1, True) + (0,) * 8,
        (E(1, 1), 1) + (0,) * 8,  # 1 + w = 2 mod theta
        (OMEGA.conj(), E(4)) + (E(0),) * 8,
    ]:
        assert gluing.hyperplane_orbit(roots, L10, start=start) == want


@pytest.mark.parametrize("bad", [1.7, 2.0, "2", None, (1,)])
def test_orbit_rejects_a_start_that_is_not_integral(bad):
    # int(1.7) and int("2") would read these as 1 and 2
    with pytest.raises(ValueError, match="integer or Eisenstein coordinates"):
        gluing.hyperplane_orbit(gluing.sp_generating_roots()[:5], lambda10(), start=(bad,) + (0,) * 9)


def random_invertible_f3(rng, n):
    while True:
        g = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
        if gluing.f3_rank(g) == n:
            return np.array(g, dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 13))
def test_line_images_match_row_by_row_images(n):
    # every rank the orbit takes, so every chunk remainder of the 5-coordinate tables
    rng = random.Random(n)
    gens = np.stack([random_invertible_f3(rng, n) for _ in range(3)])
    rows = [[2] * n, [1] * n, [0] * (n - 1) + [2]]
    rows += [[rng.randrange(3) for _ in range(n)] for _ in range(200)]
    rows = [r for r in rows if any(r)]
    images = gluing._line_images(gluing._chunk_tables(gens), gluing.line_codes(rows))
    assert images.tolist() == [[reference_code(g @ r) for r in rows] for g in gens]


@pytest.mark.parametrize("n", range(1, 9))
def test_line_orbit_of_random_matrices_matches_reference(n):
    rng = random.Random(100 + n)
    gens = [random_invertible_f3(rng, n) for _ in range(2)]
    for start in seeded_starts(n, 3, n):
        assert gluing.line_orbit(gens, start) == reference_line_orbit(gens, start)


@pytest.mark.parametrize("n", range(2, 9))
def test_line_orbit_cap_edge_matches_reference(n):
    # the whole space's lines: line_orbit returns the size at cap size and raises
    # where the reference raises at caps size - 1, size // 2 and 1
    rng = random.Random(200 + n)
    gens = [random_invertible_f3(rng, n) for _ in range(2)]
    start = seeded_starts(n, 1, n)[0]
    size = reference_line_orbit(gens, start)
    assert gluing.line_orbit(gens, start, cap=size) == size
    for cap in {c for c in (size - 1, size // 2, 1) if 0 < c < size}:
        for run in (gluing.line_orbit, reference_line_orbit):
            with pytest.raises(ValueError, match=f"orbit exceeded cap {cap}"):
                run(gens, start, cap=cap)


# the lowest, benchmarked and highest accepted ranks, then ranks the orbit took before its cap of 12:
# 13, both sides of the old mask and code dtype switches, and rank 39
@pytest.mark.parametrize("n", [1, 10, 12, 13, 15, 16, 19, 20, 31, 32, 39])
@pytest.mark.parametrize("cap", [1, 39, 9841, 200000, 10**18])
def test_line_orbit_refuses_ranks_above_12_before_any_table(monkeypatch, n, cap):
    calls = []
    real = gluing._chunk_tables
    monkeypatch.setattr(gluing, "_chunk_tables", lambda gens: calls.append(gens.shape[-1]) or real(gens))
    if n > 12:
        with pytest.raises(ValueError, match=f"rank {n} is too large"):
            gluing.line_orbit(np.eye(n, dtype=np.int64)[None], [1] * n, cap)
        assert calls == []
    else:
        # the identity fixes the line of (1, ..., 1), so every accepted rank counts one line at every cap
        assert gluing.line_orbit(np.eye(n, dtype=np.int64)[None], [1] * n, cap) == 1
        assert calls == [n]


def shift4():
    """The cyclic shift of four coordinates, as one F_3 generator."""
    return np.roll(np.eye(4, dtype=np.int64), 1, axis=0)[None]


@pytest.mark.parametrize("gens, start, message", [
    (shift4(), [1, 0, 0], r"start must have the generators' 4 coordinates, got an array of shape \(3,\)"),
    (shift4(), [], r"start must have the generators' 4 coordinates, got an array of shape \(0,\)"),
    (shift4(), [1, 0, 0, 0, 0], r"start must have the generators' 4 coordinates, got an array of shape \(5,\)"),
    (shift4(), [0, 0, 0, 0], "start must be nonzero mod 3"),
    (shift4(), [0, 3, 0, -3], "start must be nonzero mod 3"),
    (np.zeros((1, 4, 3), np.int64), [1, 0, 0, 0], r"generators must be n x n matrices, got an array of shape \(1, 4, 3\)"),
    (shift4(), [0.5, 0, 0, 1], "generators and start must have integer dtypes, not int64 and float64"),
    (1.5 * shift4(), [1, 0, 0, 0], "generators and start must have integer dtypes, not float64 and int64"),
], ids=["short-start", "empty-start", "long-start", "zero-start", "zero-mod-3-start", "non-square", "float-start", "float-generators"])
def test_line_orbit_refuses_bad_input_by_name(gens, start, message):
    with pytest.raises(ValueError, match=message):
        gluing.line_orbit(gens, start)


def test_line_orbit_reads_integer_entries_mod_3():
    # -g and 4g are 2g and g mod 3; each power of the shift moves (1, 0, 0, 0) to a new line
    g = shift4()
    for gens, start in [(-g, [1, 0, 0, 0]), (4 * g, [-2, 0, 0, 3]), (g.astype(np.uint64) + np.uint64(2**63 + 1), [1, 0, 0, 0])]:
        assert gluing.line_orbit(gens, start) == reference_line_orbit((gens % 3).astype(np.int64), start) == 4


def shift_and_swap(n):
    """The cyclic shift and the swap of coordinates 0 and 1, as F_3 matrices of rank n."""
    return np.roll(np.eye(n, dtype=np.int64), 1, axis=0), np.eye(n, dtype=np.int64)[[1, 0] + list(range(2, n))]


def test_line_orbit_reaches_the_top_codes_of_rank_12():
    # the 2 of (1, ..., 1, 2) moves through every coordinate; its line
    # codes lie just above (3^12 - 1) / 2, and (1, 2, ..., 2) has the
    # largest code of any line, 2 * 3^11 - 1, the last index of the table
    n = 12
    gens = shift_and_swap(n)
    start = [1] * (n - 1) + [2]
    tables = gluing._chunk_tables(np.stack(gens))
    assert gluing._line_images(tables, gluing.line_codes([start])).tolist() == [[2 * 3**11 - 1], [(3**12 + 1) // 2]]
    assert gluing.line_orbit(gens, start) == reference_line_orbit(gens, start) == n
    with pytest.raises(ValueError, match="orbit exceeded cap 11"):
        gluing.line_orbit(gens, start, cap=11)


@pytest.mark.parametrize("n", range(3, 13))
def test_line_orbit_keeps_int16_masks_and_int32_codes_at_every_rank(n):
    # the fixed dtypes hold every mask and code up to rank 12: the images of the line with the
    # largest codes match the int64 reference, and the orbit and its cap edge match the reference
    # (from rank 3, where the shift and the swap differ; at rank 2 both fix the line of (1, 2))
    gens = shift_and_swap(n)
    start = [1] * (n - 1) + [2]
    tables = gluing._chunk_tables(np.stack(gens))
    for _, _, ones, twos, value in tables:
        assert ones.dtype == twos.dtype == np.int16 and value.dtype == np.int32
    images = gluing._line_images(tables, gluing.line_codes([start]))
    assert images.tolist() == [[reference_code(g @ start)] for g in gens]
    assert gluing.line_orbit(gens, start) == reference_line_orbit(gens, start) == n
    with pytest.raises(ValueError, match=f"orbit exceeded cap {n - 1}"):
        gluing.line_orbit(gens, start, cap=n - 1)


def reference_chunk_tables(gens):
    """The chunk tables by matrix products: the digit rows of every chunk pattern times the generators' columns."""
    n = gens.shape[-1]
    bits = np.left_shift(1, np.arange(n - 1, -1, -1)).astype(np.int16)
    tables = []
    for lo in range(0, n, gluing._CHUNK):
        hi = min(lo + gluing._CHUNK, n)
        w = hi - lo
        images = (gluing.line_digits(np.arange(3**w), w) @ gens[:, :, lo:hi].transpose(0, 2, 1) % 3).transpose(1, 0, 2)
        place = 3 ** np.arange(w, dtype=np.int64)
        value = (np.arange(4**w)[:, None] >> np.arange(2 * w) & 1) @ np.concatenate([2 * place, place])
        tables.append((lo, hi, (images == 1) @ bits, (images == 2) @ bits, (value * 3 ** (n - hi)).astype(np.int32)))
    return tables


@pytest.mark.parametrize("n", range(1, 13))
def test_chunk_tables_match_the_matrix_products(n):
    # every rank the orbit takes, so every chunk remainder 0..4
    rng = np.random.default_rng(n)
    gens = rng.integers(0, 3, size=(4, n, n))
    got, want = gluing._chunk_tables(gens), reference_chunk_tables(gens)
    assert [(lo, hi) for lo, hi, *_ in got] == [(lo, hi) for lo, hi, *_ in want]
    for (_, _, *arrays), (_, _, *expected) in zip(got, want):
        for x, y in zip(arrays, expected):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)


def reference_symplectic_gram(G):
    """The definition: <v, w>/theta, reduced mod theta."""
    return tuple(gluing.reduce_vector(x.exact_div(THETA) for x in row) for row in G.g)


def random_theta_gram(rng, n):
    """A Hermitian Gram of rank n with every entry in theta E: a diagonal in 3Z, theta y off it."""
    rows = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = E(3 * rng.randint(-4, 4))
        for j in range(i):
            rows[i][j] = THETA * E(rng.randint(-5, 5), rng.randint(-5, 5))
            rows[j][i] = rows[i][j].conj()
    return HermGram(rows)


def test_symplectic_gram_matches_its_definition():
    rng = random.Random(34)
    grams = [random_theta_gram(rng, 1 + i % 12) for i in range(200)]
    grams += [named_lattice(name) for name in [*NAMED_LATTICES, *(f"chain:{n}" for n in range(1, 12))]] + [big_n()]
    for G in grams:
        assert in_theta_dual(G)
        assert gluing.symplectic_gram(G) == reference_symplectic_gram(G)


def test_line_codes_need_int64_room():
    # 3^39 fits in int64 and 3^40 does not
    assert gluing.line_codes(np.full((1, 39), 2)) == [(3**39 - 1) // 2]
    with pytest.raises(ValueError, match="too large"):
        gluing.line_codes(np.ones((1, 40), dtype=np.int64))
    with pytest.raises(ValueError, match="rank 40 is too large"):
        gluing.hyperplane_orbit([basis_vector(40, 0)], direct_sum(*[e8e()] * 10))


def test_canon_lines_first_nonzero_entry_is_one():
    rows = list(itertools.product(range(3), repeat=4))[1:]
    assert [tuple(r) for r in gluing.canon_lines(rows).tolist()] == [reference_canon(np.array(r)) for r in rows]
    # v and 2v, and only they, share a line code
    codes = gluing.line_codes(rows)
    assert len(set(codes.tolist())) == len(rows) // 2
    assert (codes == gluing.line_codes([[2 * x for x in r] for r in rows])).all()


@pytest.mark.parametrize("k", range(7))
def test_enumerate_norm_matches_reference_on_diagonal_forms(k):
    rng = random.Random(k)
    for _ in range(4):
        S = f3_space([[rng.randrange(3) if i == j else 0 for j in range(k)] for i in range(k)])
        for c in range(3):
            assert vectors(gluing.enumerate_norm(S, c)) == reference_enumerate_norm(S, c)


def test_enumerate_norm_matches_reference_on_a_full_form():
    S = f3_space([[1, 2, 0, 1], [2, 0, 1, 1], [0, 1, 2, 0], [1, 1, 0, 1]])
    for c in range(3):
        assert vectors(gluing.enumerate_norm(S, c)) == reference_enumerate_norm(S, c)


def random_form(k, seed, symmetric=True):
    rng = random.Random(seed)
    form = [[rng.randrange(3) for _ in range(k)] for _ in range(k)]
    if symmetric:
        form = [[form[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    return form


@pytest.mark.parametrize("k, symmetric", [(0, True), (1, True), (1, False), (2, False), (5, True), (5, False), (9, True)])
def test_enumerate_norm_matches_reference_across_the_split(k, symmetric):
    # k = 0 and 1 leave the low half empty, and an odd k makes the high half
    # the larger; a non-symmetric form reads both off-diagonal blocks
    S = f3_space(random_form(k, k, symmetric))
    for c in range(3):
        got = gluing.enumerate_norm(S, c)
        assert got.dtype == np.int8 and got.shape == (got.shape[0], k)
        assert vectors(got) == reference_enumerate_norm(S, c)


def test_enumerate_norm_matches_reference_on_a_full_form_of_ten_coordinates():
    S = f3_space(random_form(10, 10))
    assert vectors(gluing.enumerate_norm(S, 1)) == reference_enumerate_norm(S, 1)
    assert sum(len(gluing.enumerate_norm(S, c)) for c in range(3)) == 3**10


def test_enumerate_norm_refuses_more_coordinates_than_its_bound():
    # 13 coordinates would scan 3^13 vectors; the bound is checked before any table is built
    space = f3_space([[int(i == j) for j in range(13)] for i in range(13)])
    with pytest.raises(ValueError, match="at most 12 coordinates, not 13"):
        gluing.enumerate_norm(space, 1)
    with pytest.raises(ValueError, match="at most 12 coordinates, not 13"):
        gluing.isotropic_lines(space)


def test_enumerate_norm_without_a_vector_of_the_norm_is_empty():
    # the zero form gives every vector norm 0, so no vector has norm 1 or 2
    for k in (0, 1, 4, 7):
        for c in (1, 2):
            got = gluing.enumerate_norm(f3_space([[0] * k for _ in range(k)]), c)
            assert got.dtype == np.int8 and got.shape == (0, k)


def test_enumerate_norm_scans_past_one_block():
    # k = 11 splits into 5 low and 6 high coordinates, a 3^6 x 3^5 grid that
    # is read row by row; compare the counts and the order
    S = f3_space([[1 if i == j else 0 for j in range(11)] for i in range(11)])
    vecs = vectors(gluing.enumerate_norm(S, 1))
    codes = [sum(x * 3**i for i, x in enumerate(v)) for v in vecs]
    assert codes == sorted(codes)
    assert all(sum(x * x for x in v) % 3 == 1 for v in vecs)
    assert len(vecs) == sum(1 for v in itertools.product(range(3), repeat=11) if sum(x * x for x in v) % 3 == 1)


def test_enumerate_norm_matches_reference_on_disc_groups():
    for N in (diag([3]), e8e(), big_n(), diag([3, -3, 3, 3])):
        S = gluing.disc_group(N)
        for c in range(3):
            assert vectors(gluing.enumerate_norm(S, c)) == reference_enumerate_norm(S, c)


def test_isotropic_lines_match_reference_order():
    S = f3_space([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    seen, expected = set(), []
    for v in reference_enumerate_norm(S, 0):
        if any(v) and reference_canon(np.array(v)) not in seen:
            seen.add(reference_canon(np.array(v)))
            expected.append(reference_canon(np.array(v)))
    assert gluing.isotropic_lines(S) == expected
    assert gluing.isotropic_lines(f3_space([])) == []
