import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import E, OMEGA, OMEGA_BAR
from eisenlat import residues as rs


def test_fermat_fourfold_hodge_numbers():
    F = rs.fermat_cubic_fourfold()
    assert rs.hodge_vector(F) == (0, 1, 20, 1, 0)
    assert sum(rs._char_counts(F, 3)) == 20
    assert sum(rs._char_counts(F, 0)) == 1
    assert sum(rs._char_counts(F, -3)) == 0
    assert rs.hodge_vector(F)[1] == 1


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
            total = rs.hodge_vector(H)[q]
            assert total == sum(rs.eigen_hodge_dim(H, q, lam) for lam in range(6))


def test_chordal_e1_fiber():
    H = rs.chordal_e1_fiber()
    assert rs.hodge_vector(H)[1] == 1
    assert rs.hodge_vector(H)[2] == 1
    assert sum(rs.hodge_vector(H)) == 2


def test_nodal_e1():
    H = rs.nodal_e1()
    assert rs.hodge_vector(H)[2] == 2
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
    assert rs.hodge_vector(C)[0] == 25


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
        assert rs.hodge_vector(FM)[q] == rs.hodge_vector(FC)[q]
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
            assert sum(rs._char_counts(H, g)) == sum(rs._char_counts(H, socle - g))


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


def test_a_series_past_its_step_bound_is_refused():
    # weights 1, 1, 1 in degree 40,000 run to grade 79,997: 3 * 79,998 steps, past the bound of 100,000
    H = rs.WeightedHypersurface.diagonal([1, 1, 1], 40_000)
    for count in (rs.hodge_vector, rs.full_report, lambda H: rs.eigen_hodge_dim(H, 1, 0)):
        with pytest.raises(ValueError, match="3 weights would run to grade 79997; .* at most 100000 weight-grade steps"):
            count(H)


def test_unit_exponent_mapping():
    assert rs.exp_unit(0) == E(1)
    assert rs.exp_unit(2) == OMEGA
    assert rs.exp_unit(3) == E(-1)
    assert rs.exp_unit(4) == OMEGA_BAR
    for k in range(6):
        assert rs.unit_exp(rs.exp_unit(k)) == k
    with pytest.raises(ValueError):
        rs.unit_exp(E(2))


def monomial_char_counts_reference(H, grade):
    """Counts of capped monomials of the given weight, by character exponent,
    by enumeration: the monomial-mode count before the relation series."""
    counts = [0] * 6
    if grade < 0:
        return counts
    state = {(0, 0): 1}  # (accumulated weight, char exponent) -> count
    for w, cap, chi in zip(H.weights, H.caps, H.char):
        nxt = {}
        maxe = grade // w if cap is None else min(cap, grade // w)
        for (wt, ch), cnt in state.items():
            for e in range(0, maxe + 1):
                nwt = wt + e * w
                if nwt > grade:
                    break
                key = (nwt, (ch + e * chi) % 6)
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    for (wt, ch), cnt in state.items():
        if wt == grade:
            counts[ch] += cnt
    return counts


def ci_char_series_reference(H, grade):
    """prod (1 - chi_i^-1 t^(d - w_i)) / (1 - chi_i t^(w_i)) over Z[Z/6] at one
    grade, all divisions first: the generic-CI count before the relation series."""
    if grade < 0:
        return [0] * 6
    series = [[0] * 6 for _ in range(grade + 1)]
    series[0][0] = 1
    d = H.degree
    for w, chi in zip(H.weights, H.char):
        out = [row[:] for row in series]
        for g in range(w, grade + 1):
            for c in range(6):
                out[g][(c + chi) % 6] += out[g - w][c]
        series = out
    for w, chi in zip(H.weights, H.char):
        e = d - w
        out = [row[:] for row in series]
        for g in range(e, grade + 1):
            for c in range(6):
                out[g][(c - chi) % 6] -= series[g - e][c]
        series = out
    return series[grade]


@st.composite
def hypersurfaces(draw):
    """A weighted hypersurface in either mode with a random character; monomial
    caps run from -2 (no monomial at all) to 5, or None (uncapped)."""
    k = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    char = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    if draw(st.booleans()):
        caps = draw(st.lists(st.none() | st.integers(-2, 5), min_size=k, max_size=k))
        degree = draw(st.integers(1, 12))
        return rs.WeightedHypersurface(weights, degree, rs.MONOMIAL, caps=caps, char=char)
    degree = draw(st.integers(max(weights) + 1, 14))
    return rs.WeightedHypersurface(weights, degree, rs.GENERIC_CI, char=char)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(hypersurfaces())
def test_relation_series_matches_both_former_counts(H):
    reference = monomial_char_counts_reference if H.mode == rs.MONOMIAL else ci_char_series_reference
    for grade in range(-1, 30):
        assert rs._char_counts(H, grade) == reference(H, grade)
