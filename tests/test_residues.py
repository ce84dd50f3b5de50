import pytest

from eisenlat.eisenstein import E, OMEGA, OMEGA_BAR
from eisenlat import residues as rs


def test_fermat_fourfold_hodge_numbers():
    F = rs.fermat_cubic_fourfold()
    assert rs.hodge_vector(F) == (0, 1, 20, 1, 0)
    assert rs.jacobian_dim(F, 3) == 20
    assert rs.jacobian_dim(F, 0) == 1
    assert rs.jacobian_dim(F, -3) == 0
    assert rs.hodge_piece_dim(F, 1) == 1


def test_fermat_fourfold_omega_eigenspaces():
    F = rs.fermat_cubic_fourfold()
    assert rs.eigen_hodge_dim(F, 1, OMEGA) == 1
    assert rs.eigen_hodge_dim(F, 2, OMEGA) == 10
    assert rs.eigen_hodge_dim(F, 2, OMEGA_BAR) == 10
    # conjugation symmetry h^{3,1}_w = h^{1,3}_wbar
    assert rs.eigen_hodge_dim(F, 3, OMEGA_BAR) == 1


def test_eigen_partition():
    for H in (
        rs.fermat_cubic_fourfold(),
        rs.chordal_e1_fiber(),
        rs.nodal_e1(),
        rs.curve_c(),
        rs.z_model(),
    ):
        for q in range(H.dim + 1):
            total = rs.hodge_piece_dim(H, q)
            assert total == sum(rs.eigen_hodge_dim(H, q, lam) for lam in range(6))


def test_chordal_e1_fiber():
    H = rs.chordal_e1_fiber()
    assert rs.hodge_piece_dim(H, 1) == 1
    assert rs.hodge_piece_dim(H, 2) == 1
    assert sum(rs.hodge_vector(H)) == 2


def test_nodal_e1():
    H = rs.nodal_e1()
    assert rs.hodge_piece_dim(H, 2) == 2
    basis = rs.jacobian_monomial_basis(H, H.grade(2))
    # z s and s^3 in variables (y1, y2, y3, y4, z, s)
    assert set(basis) == {(0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 3)}
    eigs = {b: rs.monomial_eigenvalue(H, b) for b in basis}
    assert eigs[(0, 0, 0, 0, 1, 1)] == OMEGA * OMEGA  # w^2
    assert eigs[(0, 0, 0, 0, 0, 3)] == OMEGA
    # each of the two eigenspaces is 1-dimensional
    assert rs.eigen_hodge_dim(H, 2, OMEGA) == 1
    assert rs.eigen_hodge_dim(H, 2, OMEGA * OMEGA) == 1


def test_curve_c_eigenspace_pair():
    C = rs.curve_c()
    dims = {
        lam: (rs.eigen_hodge_dim(C, 0, lam), rs.eigen_hodge_dim(C, 1, lam))
        for lam in range(6)
    }
    # the (1, 9) pair appears at exactly one primitive sixth root
    primitive = [1, 5]
    hits = [lam for lam in primitive if dims[lam] == (1, 9)]
    assert len(hits) == 1
    # and its conjugate carries (9, 1)
    other = primitive[1 - primitive.index(hits[0])]
    assert dims[other] == (9, 1)
    # total genus 25 split as 1+3+5+7+9
    assert rs.hodge_piece_dim(C, 0) == 25


def test_z_model_eigenspace():
    Z = rs.z_model()
    assert rs.hodge_vector(Z, OMEGA) == (0, 1, 9, 0, 0)


def test_full_report_shapes():
    F = rs.fermat_cubic_fourfold()
    rows = rs.full_report(F)
    assert all(p + q == 4 for p, q, lam, dim in rows)
    assert sum(dim for _, q, _, dim in rows if q == 2) == 20
    # degenerate 1-variable input: empty table
    H = rs.WeightedHypersurface([1], 3, rs.GENERIC_CI)
    assert rs.full_report(H) == []


def test_monomial_and_ci_agree_on_fermat():
    FM = rs.fermat_cubic_fourfold()
    FC = rs.WeightedHypersurface([1] * 6, 3, rs.GENERIC_CI, char=FM.char)
    for q in range(5):
        assert rs.hodge_piece_dim(FM, q) == rs.hodge_piece_dim(FC, q)
        for lam in range(6):
            assert rs.eigen_hodge_dim(FM, q, lam) == rs.eigen_hodge_dim(FC, q, lam)


def test_monomial_and_ci_agree_on_chordal_fiber():
    M = rs.chordal_e1_fiber()
    C = rs.WeightedHypersurface([3, 3, 3, 2, 1], 6, rs.GENERIC_CI, char=M.char)
    for q in range(M.dim + 1):
        for lam in range(6):
            assert rs.eigen_hodge_dim(M, q, lam) == rs.eigen_hodge_dim(C, q, lam)


def test_gorenstein_symmetry():
    # Hilbert function of the CI Jacobian ring is symmetric about the socle
    for H in (rs.curve_c(), rs.z_model()):
        socle = sum(H.degree - 2 * w for w in H.weights)
        for g in range(0, socle + 1):
            assert rs.jacobian_dim(H, g) == rs.jacobian_dim(H, socle - g)


def test_character_invariance_validation():
    with pytest.raises(ValueError):
        # character must preserve the diagonal equation
        rs.WeightedHypersurface.diagonal([1] * 3, 3, char=[1, 0, 0])
    with pytest.raises(ValueError):
        rs.WeightedHypersurface.diagonal([2, 3], 7)  # weights must divide degree
    with pytest.raises(ValueError):
        rs.WeightedHypersurface([1, 1], 3, "nosuch")


def test_generic_ci_degree_must_exceed_every_weight():
    # weights (1,1,1) in degree 1 have a negative residue grade, so the series
    # alone would report (0, 0) instead of rejecting the input
    for weights, degree in (([1, 1, 1], 1), ([1, 2], 2)):
        with pytest.raises(ValueError, match="degree must exceed every weight"):
            rs.WeightedHypersurface(weights, degree, rs.GENERIC_CI)


def test_unit_exponent_mapping():
    assert rs.exp_unit(0) == E(1)
    assert rs.exp_unit(2) == OMEGA
    assert rs.exp_unit(3) == E(-1)
    assert rs.exp_unit(4) == OMEGA_BAR
    for k in range(6):
        assert rs.unit_exp(rs.exp_unit(k)) == k
    with pytest.raises(ValueError):
        rs.unit_exp(E(2))
