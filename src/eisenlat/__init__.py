"""Exact arithmetic for Eisenstein lattices and their reflection groups.

The package recomputes, in exact arithmetic, the finite calculations behind
the period-map description of cubic threefold moduli: Hermitian lattices over
Z[w], triflection and transvection monodromy words, finite complex reflection
groups, discriminant groups over F_3 and their gluings, the quasihomogeneous
A_11 discriminant, and Griffiths residue Hodge numbers.
"""

from .eisenstein import (
    E,
    OMEGA,
    OMEGA_BAR,
    THETA,
    EisensteinInt,
    QOmega,
    e_gcd,
    is_associate,
    reduce_mod_theta,
)
from .hermitian import (
    HermGram,
    basis_vector,
    chain,
    det_e,
    diag,
    direct_sum,
    e8e,
    hyp,
    in_theta_dual,
    ip,
    is_isometry,
    lambda10,
    lambda_,
    named_lattice,
    norm_of,
    root_classify,
    signature,
    theta_self_dual,
    vector,
    z_realization,
)
from .zlattice import (
    ZGram,
    an_vanishing_gram,
    determinant,
    hermitian_from_z,
    inertia,
    is_even,
)

__version__ = "0.1.0"

__all__ = [
    "E",
    "OMEGA",
    "OMEGA_BAR",
    "THETA",
    "EisensteinInt",
    "QOmega",
    "e_gcd",
    "is_associate",
    "reduce_mod_theta",
    "HermGram",
    "ZGram",
    "basis_vector",
    "chain",
    "det_e",
    "diag",
    "direct_sum",
    "e8e",
    "hyp",
    "in_theta_dual",
    "ip",
    "is_isometry",
    "lambda10",
    "lambda_",
    "named_lattice",
    "norm_of",
    "root_classify",
    "signature",
    "theta_self_dual",
    "vector",
    "z_realization",
    "an_vanishing_gram",
    "determinant",
    "hermitian_from_z",
    "inertia",
    "is_even",
]
