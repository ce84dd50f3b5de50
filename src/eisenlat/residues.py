"""Griffiths residue Hodge numbers for quasihomogeneous hypersurfaces.

A hypersurface of degree d in a weighted projective space P(w_1..w_k) has its
primitive middle cohomology spanned by residues of A*Omega/F^(q+1), with A of
weight (q+1)d - sum(w_i); classes correspond to elements of the Jacobian ring
of F in that weight.  Two ideal models are supported:

* monomial caps: F with a monomial Jacobian ideal (diagonal x_i^(m_i) terms
  give caps m_i - 2; hyperbolic pairs x*y give caps 0 on both variables), so
  graded pieces are counted by capped exponent enumeration;
* generic complete intersection: the Jacobian ring of a quasismooth F has
  Hilbert series prod (1 - t^(d - w_i)) / (1 - t^(w_i)).

A diagonal automorphism with entries in the sixth roots of unity refines both
counts; the residue of A*Omega/F^(q+1) transforms by chi(A) * prod(chi_i).
Sixth roots are tracked as exponents of zeta6 = -wbar.
"""

from __future__ import annotations

from .eisenstein import SIXTH_ROOTS, EisensteinInt

# unit <-> exponent of zeta6 = -wbar
_UNIT_TO_EXP = {u: k for k, u in enumerate(SIXTH_ROOTS)}


def unit_exp(u) -> int:
    if isinstance(u, int):
        return u % 6
    if isinstance(u, EisensteinInt):
        try:
            return _UNIT_TO_EXP[u]
        except KeyError:
            raise ValueError(f"{u} is not a sixth root of unity") from None
    raise TypeError(f"cannot read {u!r} as a sixth root of unity")


def exp_unit(k) -> EisensteinInt:
    return SIXTH_ROOTS[k % 6]


MONOMIAL = "monomial"
GENERIC_CI = "generic_ci"


def _checked(weights, degree):
    """(weights, degree) as a tuple and an int; raises ValueError unless all are positive."""
    weights = tuple(int(w) for w in weights)
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    degree = int(degree)
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return weights, degree


class WeightedHypersurface:
    """Weights, degree, Jacobian-ideal model and automorphism character.

    caps: per-variable exponent caps for the monomial model (None entries
    mean the variable is unconstrained); char: list of sixth-root exponents
    giving the diagonal automorphism action on the variables.
    """

    def __init__(self, weights, degree, mode, caps=None, char=None):
        self.weights, self.degree = _checked(weights, degree)
        if mode not in (MONOMIAL, GENERIC_CI):
            raise ValueError(f"unknown ideal mode {mode!r}")
        self.mode = mode
        if mode == MONOMIAL:
            if caps is None:
                raise ValueError("monomial mode needs exponent caps")
            self.caps = tuple(caps)
        else:
            if any(w >= self.degree for w in self.weights):
                raise ValueError("degree must exceed every weight")
            self.caps = None
        k = len(self.weights)
        self.char = tuple(unit_exp(c) for c in (char or [0] * k))
        if len(self.char) != k:
            raise ValueError("character length must match the weights")

    @staticmethod
    def diagonal(weights, degree, char=None):
        """F = sum x_i^(m_i) with w_i m_i = d; caps are m_i - 2."""
        weights, degree = _checked(weights, degree)
        caps = []
        exps = []
        for w in weights:
            if degree % w:
                raise ValueError("each weight must divide the degree")
            m = degree // w
            exps.append(m)
            caps.append(m - 2)
        H = WeightedHypersurface(weights, degree, MONOMIAL, caps=caps, char=char)
        for m, c in zip(exps, H.char):
            if (c * m) % 6:
                raise ValueError("character does not preserve the diagonal equation")
        return H

    @property
    def dim(self):
        return len(self.weights) - 2

    def grade(self, q):
        return (q + 1) * self.degree - sum(self.weights)

    def omega_char(self):
        return sum(self.char) % 6


def fermat_cubic_fourfold(char=None):
    """x0^3 + ... + x5^3 in P^5; char defaults to the cyclic cover action."""
    if char is None:
        char = [0, 0, 0, 0, 0, unit_exp(EisensteinInt(0, 1))]
    return WeightedHypersurface.diagonal([1] * 6, 3, char=char)


def chordal_e1_fiber():
    """u^2 + v^2 + w^2 + z^3 + s^6 in P(3,3,3,2,1), the exceptional fiber of a
    chordal degeneration, with the cover action scaling z by w."""
    char = [0, 0, 0, unit_exp(EisensteinInt(0, 1)), 0]
    return WeightedHypersurface.diagonal([3, 3, 3, 2, 1], 6, char=char)


def nodal_e1():
    """y1 y2 + y3 y4 + z^3 + s^6 in P(3,3,3,3,2,1); the pair terms put every
    y_i in the Jacobian ideal, so the monomial caps are (0,0,0,0,1,4)."""
    char = [0, 0, 0, 0, unit_exp(EisensteinInt(0, 1)), 0]
    return WeightedHypersurface(
        [3, 3, 3, 3, 2, 1], 6, MONOMIAL, caps=[0, 0, 0, 0, 1, 4], char=char
    )


def curve_c(char_z=None):
    """f(x, y) + z^6 in P(1,1,2) with f generic of degree 12; the deck
    transformation scales z by -w."""
    if char_z is None:
        char_z = unit_exp(-EisensteinInt(0, 1))
    return WeightedHypersurface([1, 1, 2], 12, GENERIC_CI, char=[0, 0, char_z])


def z_model():
    """f(x, y) + u^2 + v^2 + w^2 + z^3 in P(1,1,6,6,6,4), f generic of
    degree 12, with z scaled by w."""
    char = [0, 0, 0, 0, 0, unit_exp(EisensteinInt(0, 1))]
    return WeightedHypersurface([1, 1, 6, 6, 6, 4], 12, GENERIC_CI, char=char)


def _monomial_char_counts(H: WeightedHypersurface, grade):
    """Counts of capped monomials of the given weight, by character exponent."""
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


def _ci_char_series(H: WeightedHypersurface, grade):
    """Character-valued Hilbert function of the generic CI Jacobian ring.

    Series = prod (1 - chi_i^{-1} t^(d - w_i)) / (1 - chi_i t^(w_i)) over the
    group ring Z[Z/6], expanded to the requested grade.
    """
    if grade < 0:
        return [0] * 6
    series = [[0] * 6 for _ in range(grade + 1)]
    series[0][0] = 1
    d = H.degree
    for w, chi in zip(H.weights, H.char):
        # multiply by 1/(1 - chi t^w): cumulative sums with character shift
        out = [row[:] for row in series]
        for g in range(w, grade + 1):
            for c in range(6):
                out[g][(c + chi) % 6] += out[g - w][c]
        series = out
    for w, chi in zip(H.weights, H.char):
        e = d - w
        # multiply by (1 - chi^{-1} t^e)
        out = [row[:] for row in series]
        for g in range(e, grade + 1):
            for c in range(6):
                out[g][(c - chi) % 6] -= series[g - e][c]
        series = out
    return series[grade]


def _char_counts(H: WeightedHypersurface, grade):
    if H.mode == MONOMIAL:
        return _monomial_char_counts(H, grade)
    return _ci_char_series(H, grade)


def jacobian_dim(H: WeightedHypersurface, grade) -> int:
    """Dimension of the given graded piece of the Jacobian ring."""
    if grade < 0:
        return 0
    return sum(_char_counts(H, grade))


def hodge_piece_dim(H: WeightedHypersurface, q) -> int:
    """h^(dim - q, q) of primitive middle cohomology = Jacobian dim in the
    residue grade (q+1)d - sum(w_i)."""
    if q < 0:
        return 0
    return jacobian_dim(H, H.grade(q))


def eigen_hodge_dim(H: WeightedHypersurface, q, eigenvalue) -> int:
    """Dimension of the eigenvalue subspace of the (dim - q, q) piece.

    The residue of A*Omega/F^(q+1) has eigenvalue chi(A) * prod(chi_i); the
    eigenvalue may be given as a sixth root of unity in E or as an exponent
    of zeta6 = -wbar.
    """
    if q < 0:
        return 0
    lam = unit_exp(eigenvalue)
    counts = _char_counts(H, H.grade(q))
    shift = H.omega_char()
    return counts[(lam - shift) % 6]


def jacobian_monomial_basis(H: WeightedHypersurface, grade):
    """Monomial basis (exponent tuples) of a graded piece; monomial mode only."""
    if H.mode != MONOMIAL:
        raise ValueError("monomial basis requires the monomial ideal model")
    out = []
    k = len(H.weights)

    def rec(i, rem, acc):
        if i == k:
            if rem == 0:
                out.append(tuple(acc))
            return
        w, cap = H.weights[i], H.caps[i]
        maxe = rem // w if cap is None else min(cap, rem // w)
        for e in range(maxe + 1):
            rec(i + 1, rem - e * w, acc + [e])

    if grade >= 0:
        rec(0, grade, [])
    return out


def monomial_eigenvalue(H: WeightedHypersurface, exponents) -> EisensteinInt:
    """Eigenvalue of the residue class of x^exponents * Omega / F^(q+1)."""
    ch = H.omega_char()
    for e, chi in zip(exponents, H.char):
        ch = (ch + e * chi) % 6
    return exp_unit(ch)


def full_report(H: WeightedHypersurface):
    """Rows (p, q, eigenvalue exponent, dim) over all q and eigenvalues."""
    rows = []
    if H.dim < 0:
        return rows
    for q in range(H.dim + 1):
        counts = _char_counts(H, H.grade(q))
        shift = H.omega_char()
        for lam in range(6):
            dim = counts[(lam - shift) % 6]
            if dim:
                rows.append((H.dim - q, q, lam, dim))
    return rows


def hodge_vector(H: WeightedHypersurface, eigenvalue=None):
    """(h^(dim,0), ..., h^(0,dim)), optionally restricted to one eigenvalue."""
    out = []
    for q in range(H.dim + 1):
        if eigenvalue is None:
            out.append(hodge_piece_dim(H, q))
        else:
            out.append(eigen_hodge_dim(H, q, eigenvalue))
    return tuple(out)
