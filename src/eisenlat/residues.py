"""Griffiths residue Hodge numbers for quasihomogeneous hypersurfaces.

A hypersurface of degree d in a weighted projective space P(w_1..w_k) has its
primitive middle cohomology spanned by residues of A*Omega/F^(q+1), with A of
weight (q+1)d - sum(w_i); classes correspond to elements of the Jacobian ring
of F in that weight.  Two ideal models are supported:

* monomial caps: F with a monomial Jacobian ideal (diagonal x_i^(m_i) terms
  give caps m_i - 2; hyperbolic pairs x*y give caps 0 on both variables), so
  a capped x_i has the relation x_i^(c_i + 1);
* generic complete intersection: the Jacobian ring of a quasismooth F has
  Hilbert series prod (1 - t^(d - w_i)) / (1 - t^(w_i)).

Both are counted by one Hilbert series with a relation per variable.  A
diagonal automorphism with entries in the sixth roots of unity refines it to
a character-valued series; the residue of A*Omega/F^(q+1) transforms by
chi(A) * prod(chi_i).
Sixth roots are tracked as exponents of zeta6 = -wbar.
"""

from __future__ import annotations

import operator

from .eisenstein import SIXTH_ROOTS, EisensteinInt

# the series is built one weight at a time, each pass over every grade up to the top one: that is
# weights times grades steps, and 100,000 of them take about half a second
HODGE_MAX_SERIES_STEPS = 100_000

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


def fermat_cubic_fourfold():
    """x0^3 + ... + x5^3 in P^5, with the cyclic cover action scaling x5 by w."""
    return WeightedHypersurface.diagonal([1] * 6, 3, char=[0, 0, 0, 0, 0, unit_exp(EisensteinInt(0, 1))])


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


def curve_c():
    """f(x, y) + z^6 in P(1,1,2) with f generic of degree 12; the deck
    transformation scales z by -w."""
    return WeightedHypersurface([1, 1, 2], 12, GENERIC_CI, char=[0, 0, unit_exp(-EisensteinInt(0, 1))])


def z_model():
    """f(x, y) + u^2 + v^2 + w^2 + z^3 in P(1,1,6,6,6,4), f generic of
    degree 12, with z scaled by w."""
    char = [0, 0, 0, 0, 0, unit_exp(EisensteinInt(0, 1))]
    return WeightedHypersurface([1, 1, 6, 6, 6, 4], 12, GENERIC_CI, char=char)


def _relations(H: WeightedHypersurface):
    """Per variable, the (degree, character) of its relation, or None if it has none.

    A capped x_i (exponent at most c_i) has the relation x_i^(c_i + 1); in
    the generic complete intersection the partial derivative of x_i is a
    relation of degree d - w_i and character -chi_i.
    """
    if H.mode == GENERIC_CI:
        return [(H.degree - w, -chi) for w, chi in zip(H.weights, H.char)]
    return [
        None if cap is None else (w * max(cap + 1, 0), max(cap + 1, 0) * chi)
        for w, cap, chi in zip(H.weights, H.caps, H.char)
    ]


def _char_series(H: WeightedHypersurface, top):
    """Character-valued Hilbert function of the Jacobian ring, grades 0..top.

    The series is prod (1 - chi_r t^(e_r)) / (1 - chi_i t^(w_i)) over the
    group ring Z[Z/6], one factor per variable and one per relation (of
    degree e_r and character chi_r).  Row g holds the counts of grade g by
    character exponent; multiplying by a character chi rotates a row by chi
    places, which is the slice of the row at (-chi) mod 6.  More than
    HODGE_MAX_SERIES_STEPS weight-grade steps raise ValueError before any row is built.
    """
    if len(H.weights) * (top + 1) > HODGE_MAX_SERIES_STEPS:
        raise ValueError(
            f"the residue series of {len(H.weights)} weights would run to grade {top}; "
            f"hodge report takes at most {HODGE_MAX_SERIES_STEPS} weight-grade steps"
        )
    series = [[0] * 6 for _ in range(top + 1)]
    if top >= 0:
        series[0][0] = 1
    for w, chi, rel in zip(H.weights, H.char, _relations(H)):
        # divide by (1 - chi t^w): cumulative sums, from the bottom grade up
        k = (-chi) % 6
        for g in range(w, top + 1):
            low = series[g - w]
            series[g] = list(map(operator.add, series[g], low[k:] + low[:k]))
        if rel is None:
            continue
        # multiply by (1 - chi_r t^e), from the top grade down so that each
        # step reads a grade not yet updated (e = 0 comes with chi_r = 0)
        e, chi_r = rel
        k = (-chi_r) % 6
        for g in range(top, e - 1, -1):
            low = series[g - e]
            series[g] = list(map(operator.sub, series[g], low[k:] + low[:k]))
    return series


def _char_counts(H: WeightedHypersurface, grade):
    """The character counts of the Jacobian ring in one grade."""
    return _char_series(H, grade)[grade] if grade >= 0 else [0] * 6


def _residue_counts(H: WeightedHypersurface):
    """The character counts in the residue grades of q = 0..dim, from one series."""
    grades = [H.grade(q) for q in range(H.dim + 1)]
    series = _char_series(H, max(grades, default=-1))
    return [series[g] if g >= 0 else [0] * 6 for g in grades]


def eigen_hodge_dim(H: WeightedHypersurface, q, eigenvalue) -> int:
    """Dimension of the eigenvalue subspace of the (dim - q, q) piece.

    The residue of A*Omega/F^(q+1) has eigenvalue chi(A) * prod(chi_i); the
    eigenvalue may be given as a sixth root of unity in E or as an exponent
    of zeta6 = -wbar.
    """
    return _char_counts(H, H.grade(q))[(unit_exp(eigenvalue) - H.omega_char()) % 6]


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
    shift = H.omega_char()
    for q, counts in enumerate(_residue_counts(H)):
        for lam in range(6):
            dim = counts[(lam - shift) % 6]
            if dim:
                rows.append((H.dim - q, q, lam, dim))
    return rows


def hodge_vector(H: WeightedHypersurface, eigenvalue=None):
    """(h^(dim,0), ..., h^(0,dim)), optionally restricted to one eigenvalue."""
    counts = _residue_counts(H)
    if eigenvalue is None:
        return tuple(sum(c) for c in counts)
    return tuple(c[(unit_exp(eigenvalue) - H.omega_char()) % 6] for c in counts)
