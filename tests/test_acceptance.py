"""Acceptance suite: the thirteen headline criteria, one test each.

Each test prints a single PASS line when it completes (run with -s to see
them); a failing criterion prints its evidence through the assertion message.
Criterion 7 is split: the order computations and the 8-strand scalar pass,
while the stated 5-strand scalar value contradicts the order-6 computation in
the same criterion and is kept as an honest failure (see the README note on
the central-scalar-4 check).
"""

import random
import time

from eisenlat.eisenstein import E, OMEGA, OMEGA_BAR, THETA
from eisenlat.hermitian import (
    CHORDAL,
    NODAL,
    basis_vector,
    chain,
    det_e,
    diag,
    direct_sum,
    e8e,
    hyp,
    in_theta_dual,
    lambda10,
    lambda_,
    norm_of,
    root_classify,
    signature,
    theta_self_dual,
    z_realization,
)
from eisenlat import gluing
from eisenlat import monodromy as mono
from eisenlat import zlattice as zl
from eisenlat import discpoly as dp
from eisenlat import residues as rs
from eisenlat.linalg import identity, pack

NODAL_ROOT = tuple([E(0)] * 9 + [E(1), OMEGA])


def report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_lambda_invariants():
    t0 = time.time()
    L = lambda_()
    assert signature(L) == (10, 0, 1)
    assert det_e(L) == E(-729) and det_e(L).norm() == 3**12
    Z = z_realization(L)
    assert abs(zl.determinant(Z)) == 3
    assert zl.inertia(Z) == (20, 0, 2)
    assert time.time() - t0 < 1.0
    report(1, "rank-11 lattice invariants: signature (10,1), det -3^6, Z-det 3, Z-inertia (20,2)")


def test_criterion_02_z_realizations():
    t0 = time.time()
    assert z_realization(diag([3])).g == ((2, -1), (-1, 2))
    Z8 = z_realization(e8e())
    assert zl.determinant(Z8) == 1
    assert zl.inertia(Z8) == (8, 0, 0)
    assert zl.is_even(Z8)
    Zh = z_realization(hyp())
    assert zl.determinant(Zh) == 1
    assert zl.inertia(Zh) == (2, 0, 2)
    assert zl.is_even(Zh)
    assert time.time() - t0 < 1.0
    report(2, "Z-realizations: (3), E8, II_2,2")


def test_criterion_03_hermitian_roundtrip():
    t0 = time.time()
    cases = [diag([3]), e8e(), hyp(), lambda_(), lambda10()] + [
        chain(n) for n in range(1, 12)
    ]
    for L in cases:
        back = zl.hermitian_from_z(z_realization(L), pack(identity(L.n, OMEGA)))
        assert back == L
    assert time.time() - t0 < 1.0
    report(3, "hermitian_from_z(z_realization(L), w) = L for all 16 named lattices")


def test_criterion_04_vanishing_lattices():
    t0 = time.time()
    for n in range(1, 12):
        rad = zl.inertia(zl.an_vanishing_gram(n))[1]
        assert rad == (2 if n in (5, 11) else 0), n
    assert zl.inertia(zl.an_vanishing_gram(12))[2] >= 4
    assert time.time() - t0 < 1.0
    report(4, "A_n vanishing lattices: radical 2 only at n = 5, 11; A_12 has >= 4 negative directions")


def test_criterion_05_monodromy_words():
    t0 = time.time()
    w = mono.braid_loop_word(11)
    assert mono.projective_order(w, modulo_radical=True, cap=50) == 6
    h = mono.hexaflection(lambda_(), basis_vector(11, 0))
    assert mono.projective_order(h, cap=50) == 6
    assert time.time() - t0 < 1.0
    report(5, "loop word on the 11-chain and the hexaflection both have projective order 6")


def test_criterion_06_a5_d4_transvections():
    t0 = time.time()
    a5 = mono.a5_transvection_report()
    assert len(a5) == 1  # the all-plus pattern is the only isotropic one
    assert a5[0]["pattern"] == (1, 1, 1, 1)
    assert a5[0]["xi_nonzero"]
    assert a5[0]["left_to_right"] and a5[0]["right_to_left"]
    d4 = mono.d4_transvection_report()
    assert d4["xi_isotropic"] and d4["xi_nonzero"]
    assert d4["left_to_right"] and d4["right_to_left"]
    assert time.time() - t0 < 1.0
    report(6, "(a1..a5)^6 and (a1 a2 a3 b)^3 are the unitary transvections in their null vectors")


def test_criterion_07_central_words_orders_and_scalar7():
    t0 = time.time()
    orders = []
    for n in range(1, 5):
        gens = mono.chain_triflections(n)
        orders.append(mono.order(mono.word_eval(gens) ** (n + 1)))
    assert orders == [3, 2, 3, 6]
    assert mono.central_word_scalar(7) == OMEGA_BAR
    assert time.time() - t0 < 1.0
    report(7, "central words have orders 3, 2, 3, 6 and the 8-strand scalar is wbar")


def test_criterion_07_central_word_scalar_4_as_stated():
    # Stated value: wbar.  The computation returns -wbar, the primitive sixth
    # root forced by the order-6 entry of the same criterion (wbar itself has
    # order 3).  Kept as stated; see the README's known-discrepancy note.
    assert mono.central_word_scalar(4) == OMEGA_BAR, (
        "central_word_scalar(4) computed "
        f"{mono.central_word_scalar(4)} (= -wbar), which has order 6 as the "
        "order criterion requires; the stated scalar wbar has order 3 and is "
        "inconsistent with it"
    )
    report("7b", "5-strand central scalar as stated")


def test_criterion_08_finite_reflection_groups(closures):
    t0 = time.time()
    assert [closures(n).order for n in range(1, 5)] == [3, 24, 648, 155520]
    for n in range(1, 5):
        h = closures(n)
        refl = mono.reflections_in(h)
        assert all(norm_of(h.ambient, r) == E(3) for r, _ in refl)
        assert all(u in (OMEGA, OMEGA_BAR) for _, u in refl)
        assert mono.free_action_check(h)
    assert time.time() - t0 < 300.0
    report(8, "R_1..R_4 have orders 3, 24, 648, 155520; +-triflections only; free actions")


def test_criterion_09_a11_discriminant():
    t0 = time.time()
    vals = [dp.a11_coeff(m) for m in dp.rigidity_monomials()]
    assert len(vals) == 11 and all(v != 0 for v in vals)
    assert dp.a11_coeff(dp.WeightedMonomial({12: 11})) == 12**12
    assert dp.quasihomogeneity_check(samples=100, bound=20)
    assert time.time() - t0 < 120.0
    report(9, "all 11 rigidity coefficients nonzero; leading 12^12; quasihomogeneous of weight 132")


def test_criterion_10_f3_machinery():
    t0 = time.time()
    assert gluing.f3_rank(gluing.symplectic_gram(lambda10())) == 10
    assert gluing.f3_rank(gluing.symplectic_gram(lambda_())) == 10  # radical 1 of 11
    N = direct_sum(diag([3]), e8e(), e8e(), diag([-3]), diag([3]))
    S = gluing.disc_group(N)
    assert S.k == 3 and sorted(S.diagonal()) == [1, 1, 2]
    assert len(gluing.enumerate_norm(S, 1)) == 12

    def bar(i):
        # e_i / theta as the pair (3, conj(theta) e_i)
        return S.coords((3, tuple(THETA.conj() if j == i else E(0) for j in range(11))))

    rbar = bar(10)
    lines = gluing.isotropic_lines(S, not_orth_to=rbar)
    assert len(lines) == 2
    for ln in lines:
        M = gluing.glue(S, ln).gram
        assert det_e(M) == E(-729)
        assert signature(M) == (10, 0, 1)
        assert in_theta_dual(M)
    size, ngens = gluing.hyperplane_orbit(gluing.sp_generating_roots(), lambda10())
    assert size == 29524
    assert time.time() - t0 < 30.0
    report(10, "disc group diag(1,-1,1), 12 norm-1 vectors, 2 gluing lines, orbit 29524")


def test_criterion_11_residue_hodge_numbers():
    t0 = time.time()
    F = rs.fermat_cubic_fourfold()
    assert rs.hodge_vector(F) == (0, 1, 20, 1, 0)
    assert (rs.eigen_hodge_dim(F, 1, OMEGA), rs.eigen_hodge_dim(F, 2, OMEGA)) == (1, 10)
    C = rs.curve_c()
    pairs = {
        lam: (rs.eigen_hodge_dim(C, 0, lam), rs.eigen_hodge_dim(C, 1, lam))
        for lam in (1, 5)
    }
    assert sorted(pairs.values()) == [(1, 9), (9, 1)]
    H1 = rs.chordal_e1_fiber()
    assert sum(rs.hodge_vector(H1)) == 2
    NE = rs.nodal_e1()
    basis = rs.jacobian_monomial_basis(NE, NE.grade(2))
    assert set(basis) == {(0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 3)}
    eigs = {rs.monomial_eigenvalue(NE, b) for b in basis}
    assert eigs == {OMEGA, OMEGA * OMEGA}
    Z = rs.z_model()
    assert rs.hodge_vector(Z, OMEGA) == (0, 1, 9, 0, 0)
    assert time.time() - t0 < 1.0
    report(11, "Fermat (0,1,20,1,0)+(1,10); curve (1,9); fibers 2-dim; Z-model (0,1,9,0,0)")


def test_criterion_12_root_taxonomy():
    t0 = time.time()
    L = lambda_()
    assert root_classify(L, basis_vector(11, 0)) == CHORDAL
    assert root_classify(L, NODAL_ROOT) == NODAL
    # no chordal roots in the rank-10 summand, by the exact chain:
    L10 = lambda10()
    # (i) all inner products lie in theta*E, so all norms lie in 3Z
    assert in_theta_dual(L10)
    rng = random.Random(64)
    for _ in range(200):
        v = tuple(
            E(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(10)
        )
        nv = norm_of(L10, v)
        assert nv.b == 0 and nv.a % 3 == 0
    # hence theta*v has norm 3*norm(v): no norm-3 vector is theta-divisible,
    # since norm 1 is impossible in 3Z
    assert theta_self_dual(L10)
    # (ii) the symplectic pairing is nondegenerate, so any primitive vector
    # pairs to exactly theta with some lattice vector: no pairing lands in 3E
    assert gluing.f3_rank(gluing.symplectic_gram(L10)) == 10
    # spot-check the conclusion on explicit norm-3 vectors
    for r in gluing.sp_generating_roots():
        assert root_classify(L10, r) == NODAL
    assert time.time() - t0 < 1.0
    report(12, "root taxonomy: chordal and nodal witnesses; no chordal roots in the rank-10 summand")


def test_criterion_13_property_suites():
    t0 = time.time()
    from test_properties import (
        test_discriminant_gcd_equivalence_1000,
        test_f3_reduce_homomorphism_1000,
        test_generated_elements_preserve_form_1000,
        test_hermitian_form_axioms_1000,
    )

    test_hermitian_form_axioms_1000()
    test_generated_elements_preserve_form_1000()
    test_f3_reduce_homomorphism_1000()
    test_discriminant_gcd_equivalence_1000()
    assert time.time() - t0 < 60.0
    report(13, "1000-case suites: Hermitian axioms, isometry preservation, F_3 homomorphism, disc-gcd")
