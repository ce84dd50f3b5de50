"""Exact arithmetic for Eisenstein lattices and their reflection groups.

The package recomputes, in exact arithmetic, the finite calculations behind
the period-map description of cubic threefold moduli: Hermitian lattices over
Z[w], triflection and transvection monodromy words, finite complex reflection
groups, discriminant groups over F_3 and their gluings, the quasihomogeneous
A_11 discriminant, and Griffiths residue Hodge numbers.
"""
