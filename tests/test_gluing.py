import random

import pytest

from eisenlat.eisenstein import E, OMEGA, THETA, QOmega, e_gcd, is_associate
from eisenlat.hermitian import (
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
    norm_of,
    signature,
)
from eisenlat import gluing
from eisenlat import monodromy as mono

TQ = QOmega.from_e(THETA)


def over_theta(n, i):
    v = [QOmega(0)] * n
    v[i] = QOmega(1) / TQ
    return tuple(v)


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


def test_disc_norm_independent_of_lift():
    # perturbing a lift by a lattice vector does not change its class data
    N = big_n()
    S = gluing.disc_group(N)
    rng = random.Random(43)
    base = over_theta(11, 0)
    for _ in range(30):
        pert = list(base)
        for i in range(11):
            pert[i] = pert[i] + QOmega(rng.randint(-2, 2), rng.randint(-2, 2))
        assert S.coords(tuple(pert)) == S.coords(base)


def test_enumerate_norm_counts():
    S = gluing.disc_group(big_n())
    assert len(gluing.enumerate_norm(S, 1)) == 12
    zero = gluing.enumerate_norm(S, 0)
    assert (0, 0, 0) in zero
    # definite rank-1 space: no vectors of norm -1 (squares are 0, 1)
    S1 = gluing.disc_group(diag([3]))
    assert gluing.enumerate_norm(S1, 2) == []


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
    assert set(gluing.enumerate_norm(S, 1)) == expected


def test_isotropic_lines():
    N = big_n()
    S = gluing.disc_group(N)
    bbar = S.coords(over_theta(11, 9))
    rbar = S.coords(over_theta(11, 10))
    lines = gluing.isotropic_lines(S, not_orth_to=rbar)
    expected = {
        gluing._canon_line(tuple((r - b) % 3 for r, b in zip(rbar, bbar))),
        gluing._canon_line(tuple((r + b) % 3 for r, b in zip(rbar, bbar))),
    }
    assert set(lines) == expected and len(lines) == 2
    abar = S.coords(over_theta(11, 0))
    lines_a = gluing.isotropic_lines(S, orth_to=abar)
    assert gluing._canon_line(tuple((x + y) % 3 for x, y in zip(bbar, rbar))) in lines_a


def test_positive_definite_space_has_no_isotropic_lines():
    # x^2 + y^2 = 0 over F_3 forces x = y = 0
    N2 = direct_sum(diag([3]), diag([3]))
    S2 = gluing.disc_group(N2)
    assert S2.diagonal() == (1, 1)
    assert gluing.isotropic_lines(S2) == []


def test_glue_zero_line_is_identity():
    N = big_n()
    S = gluing.disc_group(N)
    GL = gluing.glue(N, S, (0, 0, 0))
    assert GL.gram == N


def test_glue_rejects_anisotropic_line():
    N = big_n()
    S = gluing.disc_group(N)
    abar = S.coords(over_theta(11, 0))
    with pytest.raises(ValueError):
        gluing.glue(N, S, abar)


def test_glue_drops_determinant_by_nine():
    N = big_n()
    S = gluing.disc_group(N)
    rbar = S.coords(over_theta(11, 10))
    for ln in gluing.isotropic_lines(S, not_orth_to=rbar):
        M = gluing.glue(N, S, ln).gram
        assert det_e(N).norm() == det_e(M).norm() * 3**2
        assert in_theta_dual(M)
        assert det_e(M) == E(-729)
        assert signature(M) == (10, 0, 1)


def test_glued_lattice_contains_theta_pairing_vector():
    N = big_n()
    S = gluing.disc_group(N)
    rbar = S.coords(over_theta(11, 10))
    r_old = tuple(QOmega(1) if i == 10 else QOmega(0) for i in range(11))
    for ln in gluing.isotropic_lines(S, not_orth_to=rbar):
        GL = gluing.glue(N, S, ln)
        vals = [ip(N, GL.basis[i], r_old).to_e() for i in range(11)]
        g = None
        for v in vals:
            if v:
                g = v if g is None else e_gcd(g, v)
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
    first = GL.basis[0]
    assert all(not first[i] for i in range(1, 10))
    assert is_associate(first[0].to_e(), THETA)
    for j in range(1, 10):
        assert GL.basis[j] == tuple(
            QOmega(1) if i == j else QOmega(0) for i in range(10)
        )


def test_glue_undoes_hyperplane_preimage_on_lambda():
    # the roundtrip is exercised in depth by the acceptance suite; here just
    # check the sublattice invariants feeding it
    L = lambda_()
    rbar = gluing.reduce_vector(tuple([E(0)] * 9 + [E(1), OMEGA]))
    sg = mono.symplectic_gram(L)
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


def test_disc_group_invariant_under_unimodular_congruence():
    from eisenlat.hermitian import HermGram

    rng = random.Random(137)
    N = big_n()
    n = N.n
    for _ in range(5):
        # random unimodular T over E via elementary column operations
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
        M = HermGram(rows)
        S2 = gluing.disc_group(M)
        assert S2.k == 3
        assert S2.diagonal() == gluing.disc_group(N).diagonal()
        assert len(gluing.enumerate_norm(S2, 1)) == 12
