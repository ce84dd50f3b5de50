"""One-shot verification suite: every externally stated value, recomputed.

Each check records a short claim string (its anchor), the expected value, the
computed value and a pass flag; the report is deterministic and identical
between runs.  Checks are registered at import time and executed lazily, with
the artifacts that several checks use (group closures, the discriminant
set-up) shared through a context cache.
"""

from __future__ import annotations

import time

from .eisenstein import E, OMEGA, THETA, EisensteinInt, e_gcd, is_associate
from .hermitian import (
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
    ip,
    is_isometry,
    lambda10,
    lambda_,
    norm_of,
    pairings,
    root_classify,
    signature,
    theta_self_dual,
    z_realization,
)
from .linalg import adjugate_e, identity, mat_mul, mat_vec, pack
from . import zlattice
from . import monodromy as mono
from . import gluing
from . import discpoly
from . import residues

_REGISTRY = []


class Check:
    def __init__(self, name, anchor, fn):
        self.name = name
        self.anchor = anchor
        self.fn = fn


def check(name, anchor):
    def deco(fn):
        _REGISTRY.append(Check(name, anchor, fn))
        return fn

    return deco


def registered_checks():
    return list(_REGISTRY)


class Context:
    """Memoizes the artifacts that two or more checks share: the group closures and the disc set-up."""

    def __init__(self, closure_cap=None):
        self._cache = {}
        self.closure_cap = mono.env_closure_cap() if closure_cap is None else closure_cap

    def closure(self, n):
        return self.get(
            ("closure", n), lambda: mono.group_closure(mono.chain_triflections(n), cap=self.closure_cap)
        )

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def run_verify(name_filter=None, ctx=None, timings=None):
    """Run the registered checks (optionally filtered by substring).

    Returns the report dict {"checks": [...], "summary": {...}}.  When timings
    is a dict, each check's wall seconds are stored in it under the check's
    name; they never enter the report.
    """
    ctx = ctx or Context()
    rows = []
    for c in _REGISTRY:
        if name_filter and name_filter not in c.name:
            continue
        start = time.perf_counter()
        expected, computed = c.fn(ctx)
        if timings is not None:
            timings[c.name] = time.perf_counter() - start
        rows.append(
            {
                "name": c.name,
                "anchor": c.anchor,
                "expected": _render(expected),
                "computed": _render(computed),
                "pass": _render(expected) == _render(computed),
            }
        )
    passed = sum(1 for r in rows if r["pass"])
    return {
        "checks": rows,
        "summary": {"total": len(rows), "passed": passed, "failed": len(rows) - passed},
    }


def _render(v):
    if isinstance(v, EisensteinInt):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_render(v[k])}" for k in sorted(v)) + "}"
    return str(v)


# ---------------------------------------------------------------- lattice Λ

WBAR = OMEGA.conj()
NODAL_ROOT = tuple([E(0)] * 9 + [E(1), OMEGA])
CHORDAL_ROOT = basis_vector(11, 0)


@check("lambda-rank", "the Hermitian module of the cyclic fourfold is free of rank 11")
def _(ctx):
    return 11, lambda_().n


@check("lambda-ip-diag", "the first diagonal entry of the rank-11 Gram is 3")
def _(ctx):
    L = lambda_()
    return E(3), ip(L, basis_vector(11, 0), basis_vector(11, 0))


@check("lambda-ip-offdiag", "adjacent chain roots have inner product theta")
def _(ctx):
    L = lambda_()
    return THETA, ip(L, basis_vector(11, 1), basis_vector(11, 2))


@check("lambda-signature", "the rank-11 form has signature (10, 1)")
def _(ctx):
    return (10, 0, 1), signature(lambda_())


@check("lambda10-signature", "the root span has signature (9, 1)")
def _(ctx):
    return (9, 0, 1), signature(lambda10())


@check("lambda-det", "the determinant of the rank-11 lattice is -3^6")
def _(ctx):
    return E(-729), det_e(lambda_())


@check("lambda10-det", "the root-span lattice has determinant -3^5")
def _(ctx):
    return E(-243), det_e(lambda10())


@check("lambda-z-det", "the underlying 22-dimensional Z-lattice has determinant +-3")
def _(ctx):
    return 3, abs(zlattice.determinant(z_realization(lambda_())))


@check("lambda-z-inertia", "the underlying Z-lattice has signature (20, 2)")
def _(ctx):
    return (20, 0, 2), zlattice.inertia(z_realization(lambda_()))


@check("z-real-3", "(3) realizes over Z as ((2,-1),(-1,2))")
def _(ctx):
    return ((2, -1), (-1, 2)), z_realization(diag([3])).g


@check("z-real-e8e", "the rank-4 chain block realizes over Z as even unimodular E8")
def _(ctx):
    Z = z_realization(e8e())
    return (
        (1, (8, 0, 0), True),
        (zlattice.determinant(Z), zlattice.inertia(Z), zlattice.is_even(Z)),
    )


@check("z-real-hyp", "the hyperbolic block realizes over Z as even unimodular II_2,2")
def _(ctx):
    Z = z_realization(hyp())
    return (
        (1, (2, 0, 2), True),
        (zlattice.determinant(Z), zlattice.inertia(Z), zlattice.is_even(Z)),
    )


@check("lambda10-theta-self-dual", "theta times the dual of the root span is itself")
def _(ctx):
    return True, theta_self_dual(lambda10())


@check("chain11-rank", "the 11 chain roots span only a 10-dimensional space")
def _(ctx):
    G = chain(11)
    return 10, G.n - signature(G)[1]


@check("e8-unimodular", "the standard E8 Gram is even unimodular")
def _(ctx):
    Z = zlattice.e8_gram()
    return (1, True), (zlattice.determinant(Z), zlattice.is_even(Z))


@check("ii22-unimodular", "II_2,2 has determinant 1")
def _(ctx):
    return 1, zlattice.determinant(zlattice.ii22_gram())


@check("an-vanishing-5-11", "the A_5 and A_11 vanishing lattices have radical dimension 2")
def _(ctx):
    return (2, 2), tuple(
        zlattice.inertia(zlattice.an_vanishing_gram(n))[1] for n in (5, 11)
    )


@check("an-vanishing-nondegenerate", "the other A_n vanishing lattices, n <= 10, are nondegenerate")
def _(ctx):
    rads = tuple(
        zlattice.inertia(zlattice.an_vanishing_gram(n))[1]
        for n in range(1, 11)
        if n != 5
    )
    return tuple(0 for _ in rads), rads


@check("an-vanishing-12", "the A_12 vanishing lattice has a negative-definite part of dimension >= 4")
def _(ctx):
    return True, zlattice.inertia(zlattice.an_vanishing_gram(12))[2] >= 4


@check("hermitian-from-a2", "the A2 root lattice with its rotation carries the Hermitian form (3)")
def _(ctx):
    H = zlattice.hermitian_from_z(zlattice.a2_gram(), zlattice.a2_rotation())
    return diag([3]).g, H.g


@check("hermitian-from-ii22", "II_2,2 with an order-3 fixed-point-free isometry gives the hyperbolic plane over E")
def _(ctx):
    # transport the omega action of hyp's Z-realization to the literal II_2,2
    S0 = pack(identity(2, OMEGA))
    # basis change P: z_real(hyp) basis (e1, we1, e2, we2) -> hyperbolic pairs
    # u1 = e1, u2 = we2, u3 = we1, u4 = -e2
    P = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1), (0, 1, 0, 0))
    # columns of P are u_i in old coordinates; P is a signed permutation, so P^-1 = P^T
    S = mat_mul(mat_mul(tuple(zip(*P)), S0), P)
    H = zlattice.hermitian_from_z(zlattice.ii22_gram(), S)
    return (
        (E(-3), (1, 0, 1), True),
        (det_e(H), signature(H), in_theta_dual(H)),
    )


@check("root-chordal", "(1, 0, ..., 0) is a chordal root")
def _(ctx):
    return CHORDAL, root_classify(lambda_(), CHORDAL_ROOT)


@check("root-nodal", "(0, ..., 0, 1, w) is a nodal root")
def _(ctx):
    return NODAL, root_classify(lambda_(), NODAL_ROOT)


@check("isometry-swap", "the swap of the two (3)-summands of (3)+E8E+E8E+(-3)+(3) is an isometry")
def _(ctx):
    N = direct_sum(diag([3]), e8e(), e8e(), diag([-3]), diag([3]))
    n = N.n
    perm = list(range(n))
    perm[0], perm[10] = perm[10], perm[0]
    M = tuple(
        tuple(E(1) if perm[j] == i else E(0) for j in range(n)) for i in range(n)
    )
    return True, is_isometry(N, M)


@check("isometry-nodal-triflection", "the w-reflection in a nodal root preserves the lattice, with order 3")
def _(ctx):
    t = mono.triflection(lambda_(), NODAL_ROOT)
    return (True, 3), (is_isometry(lambda_(), t.m), mono.order(t))


# ------------------------------------------------------------- monodromy

@check("a5-transvection", "on the A5 chain, (a1..a5)^6 is the unitary transvection in the null vector xi")
def _(ctx):
    reports = mono.a5_transvection_report()
    ok = (
        len(reports) == 1
        and reports[0]["pattern"] == (1, 1, 1, 1)
        and reports[0]["left_to_right"]
        and reports[0]["right_to_left"]
    )
    return True, ok


@check("d4-transvection", "on the D4 star, (a1 a2 a3 b)^3 is the unitary transvection in xi")
def _(ctx):
    rep = mono.d4_transvection_report()
    return (True, True, True), (
        rep["xi_isotropic"] and rep["xi_nonzero"],
        rep["left_to_right"],
        rep["right_to_left"],
    )


@check("a5-transvection-unipotent", "the A5 transvection embedded in a rank-6 chain is a nontrivial unipotent")
def _(ctx):
    G6 = chain(6)
    xi6 = tuple(list(mono.A5_XI) + [E(0)])
    t = mono.transvection(G6, xi6)
    return (False, mono.INFINITE), (t.is_identity(), mono.order(t))


@check("central-orders", "the central braid words act with orders 3, 2, 3, 6 for n = 1..4")
def _(ctx):
    orders = []
    for n in range(1, 5):
        gens = mono.chain_triflections(n)
        w = mono.word_eval(gens) ** (n + 1)
        orders.append(mono.order(w))
    return (3, 2, 3, 6), tuple(orders)


@check("central-scalar-7", "the central word of the 8-strand braid group acts as the scalar wbar")
def _(ctx):
    return WBAR, mono.central_word_scalar(7)


@check("central-scalar-4", "the central word of the 5-strand braid group acts as the scalar wbar")
def _(ctx):
    # stated value wbar; the order-6 computation above forces a primitive
    # sixth root, and the evaluation returns -wbar.  Kept as stated.
    return WBAR, mono.central_word_scalar(4)


@check("hexaflection-order", "the meridian of the chordal divisor acts with projective order 6")
def _(ctx):
    h = mono.hexaflection(lambda_(), CHORDAL_ROOT)
    return 6, mono.projective_order(h)


@check("chain11-loop-word", "a1..a10 a11^2 a10..a1 acts on the 11-chain with order 6 modulo the radical")
def _(ctx):
    w = mono.braid_loop_word(11)
    return 6, mono.projective_order(w, modulo_radical=True, cap=50)


@check("braid-relation", "adjacent chain triflections satisfy the braid relation, distant ones commute")
def _(ctx):
    gens = mono.chain_triflections(3)
    return (mono.BRAID, mono.COMMUTE), (
        mono.braid_check(gens[0], gens[1]),
        mono.braid_check(gens[0], gens[2]),
    )


@check("group-orders", "the triflection quotients of the braid groups have orders 3, 24, 648, 155520")
def _(ctx):
    return (3, 24, 648, 155520), tuple(ctx.closure(n).order for n in range(1, 5))


@check("reflections-are-triflections", "every reflection in R2 is a +-triflection in a norm-3 root")
def _(ctx):
    h = ctx.closure(2)
    refl = mono.reflections_in(h)
    ok_norm = all(norm_of(h.ambient, r) == E(3) for r, _ in refl)
    ok_unit = all(u in (OMEGA, WBAR) for _, u in refl)
    return (8, True, True), (len(refl), ok_norm, ok_unit)


@check("free-action-r2", "R2 acts freely off its mirrors")
def _(ctx):
    return True, mono.free_action_check(ctx.closure(2))


@check("free-action-r4", "R4 acts freely off its mirrors")
def _(ctx):
    return True, mono.free_action_check(ctx.closure(4))


@check("sympl-lambda10", "the F_3 pairing on the rank-10 lattice mod theta is nondegenerate")
def _(ctx):
    return 10, gluing.f3_rank(gluing.symplectic_gram(lambda10()))


@check("sympl-lambda", "the F_3 pairing on the rank-11 lattice mod theta has a 1-dimensional kernel")
def _(ctx):
    return 10, gluing.f3_rank(gluing.symplectic_gram(lambda_()))


@check("f3-transvection", "triflections reduce mod theta to symplectic transvections")
def _(ctx):
    L10, v = lambda10(), basis_vector(10, 2)
    # the transvection I + vbar (S vbar)^T, as the hyperplane orbit forms it
    expected = gluing.reduced_triflections(L10, [v])[0].tolist()
    return expected, gluing.f3_reduce(mono.triflection(L10, v))


# ---------------------------------------------------------------- gluing

def _disc_setup(ctx):
    def build():
        N = direct_sum(diag([3]), e8e(), e8e(), diag([-3]), diag([3]))
        S = gluing.disc_group(N)

        def bar(i):
            # e_i / theta = conj(theta) e_i / 3
            return S.coords((3, tuple(THETA.conj() if j == i else E(0) for j in range(11))))

        return N, S, bar(0), bar(9), bar(10)

    return ctx.get("disc_setup", build)


@check("disc-group-form", "theta N*/N for N = (3)+E8E+E8E+(-3)+(3) is F_3^3 with norms 1, -1, 1")
def _(ctx):
    N, S, abar, bbar, rbar = _disc_setup(ctx)
    # norms of the images of a/theta, b/theta, r/theta; -1 = 2 in F_3
    return (3, (1, 2, 1)), (S.k, (S.norm(abar), S.norm(bbar), S.norm(rbar)))


@check("disc-norm1-count", "the discriminant group has exactly 12 norm-1 vectors")
def _(ctx):
    N, S, abar, bbar, rbar = _disc_setup(ctx)
    vecs = set(map(tuple, gluing.enumerate_norm(S, 1).tolist()))
    expected = set()
    for sa in (1, 2):
        expected.add(tuple((sa * x) % 3 for x in abar))
        expected.add(tuple((sa * x) % 3 for x in rbar))
    for sa in (1, 2):
        for sb in (1, 2):
            for sr in (1, 2):
                expected.add(
                    tuple(
                        (sa * x + sb * y + sr * z) % 3
                        for x, y, z in zip(abar, bbar, rbar)
                    )
                )
    return (12, True), (len(vecs), vecs == expected)


@check("disc-isotropic-lines", "exactly two isotropic lines meet the nodal-root direction: spans of rbar -+ bbar")
def _(ctx):
    N, S, abar, bbar, rbar = _disc_setup(ctx)
    lines = gluing.isotropic_lines(S, not_orth_to=rbar)
    ends = [[r - b for r, b in zip(rbar, bbar)], [r + b for r, b in zip(rbar, bbar)]]
    expected = set(map(tuple, gluing.canon_lines(ends).tolist()))
    return (2, True), (len(lines), set(lines) == expected)


@check("disc-line-orth-a", "if sbar = abar, the span of bbar + rbar is an isotropic line orthogonal to it")
def _(ctx):
    N, S, abar, bbar, rbar = _disc_setup(ctx)
    lines = gluing.isotropic_lines(S, orth_to=abar)
    target = tuple(gluing.canon_lines([[x + y for x, y in zip(bbar, rbar)]])[0].tolist())
    return True, target in lines


@check("glue-enlargements", "both enlargements along those lines have the invariants of the rank-11 lattice")
def _(ctx):
    N, S, abar, bbar, rbar = _disc_setup(ctx)
    lines = gluing.isotropic_lines(S, not_orth_to=rbar)
    out = []
    for ln in lines:
        GL = gluing.glue(S, ln)
        M = GL.gram
        d, cols = GL.basis
        g = e_gcd(*(x.exact_div(d) for x in mat_vec(cols, pairings(N, basis_vector(11, 10)))))  # <col, e_10> / d
        out.append(
            (
                det_e(M),
                signature(M),
                in_theta_dual(M),
                is_associate(g, THETA),
            )
        )
    expected = tuple((E(-729), (10, 0, 1), True, True) for _ in range(2))
    return expected, tuple(out)


@check("glue-recovers-lambda", "one enlargement of the index-3 sublattice of the rank-11 lattice is the lattice itself")
def _(ctx):
    return True, _lambda_roundtrip(ctx)


def _lambda_roundtrip(ctx):
    from .hnf import hnf_columns_e

    L = lambda_()
    rbar = gluing.reduce_vector(NODAL_ROOT)
    NL = gluing.hyperplane_preimage(L, mat_vec(gluing.symplectic_gram(L), rbar))  # the functional <., r>/theta
    S2 = gluing.disc_group(NL.gram)
    # coordinates of the nodal root inside the sublattice: B^-1 r = (adj r) / d
    dn, H = NL.basis
    d, adj = adjugate_e(tuple(zip(*H)))
    c = mat_vec(adj, [dn * x for x in NODAL_ROOT])
    # c / theta = conj(theta) c / (3 d)
    rbar2 = S2.coords((3 * d, tuple(x * THETA.conj() for x in c)))
    lines = gluing.isotropic_lines(S2, not_orth_to=rbar2)
    if len(lines) != 2:
        return False
    hits = 0
    for ln in lines:
        den, cols = gluing.glue(S2, ln).basis
        # the new basis columns in the old coordinates, over den * dn
        Hg = hnf_columns_e(mat_mul(cols, H))
        if all(
            Hg[i][j] == (E(den * dn) if i == j else E(0))
            for i in range(11)
            for j in range(11)
        ):
            hits += 1
    return hits == 1


@check("hyperplane-orbit", "the orbit of a hyperplane mod theta has size (3^10 - 1)/2 = 29524")
def _(ctx):
    return 29524, gluing.hyperplane_orbit(gluing.sp_generating_roots(), lambda10())[0]


# ----------------------------------------------------------- discriminant

@check("a11-rigidity-coefficients", "the 11 rigidity monomials of the A_11 discriminant have nonzero coefficients")
def _(ctx):
    vals = [discpoly.a11_coeff(m) for m in discpoly.rigidity_monomials()]
    return (11, True), (len(vals), all(v != 0 for v in vals))


@check("a11-leading-coefficient", "the u12^11 coefficient is 12^12")
def _(ctx):
    return 12**12, discpoly.a11_coeff(discpoly.WeightedMonomial({12: 11}))


@check("a11-off-weight", "monomials of weight other than 132 have coefficient 0")
def _(ctx):
    m = discpoly.WeightedMonomial({12: 10, 2: 1})
    return 0, discpoly.a11_coeff(m)


@check("a11-quasihomogeneous", "the discriminant is quasihomogeneous of weight 132")
def _(ctx):
    return True, discpoly.quasihomogeneity_check(25)


# ---------------------------------------------------------------- residues

@check("hodge-fermat", "the Fermat cubic fourfold has primitive Hodge numbers (0, 1, 20, 1, 0)")
def _(ctx):
    return (0, 1, 20, 1, 0), residues.hodge_vector(residues.fermat_cubic_fourfold())


@check("hodge-fermat-eigen", "its w-eigenspace pieces in degrees (3,1) and (2,2) are 1- and 10-dimensional")
def _(ctx):
    F = residues.fermat_cubic_fourfold()
    return (1, 10), (
        residues.eigen_hodge_dim(F, 1, OMEGA),
        residues.eigen_hodge_dim(F, 2, OMEGA),
    )


@check("hodge-chordal-e1", "the generic exceptional fiber u^2+v^2+w^2+z^3+s^6 has 2-dimensional middle cohomology")
def _(ctx):
    H = residues.chordal_e1_fiber()
    return 2, sum(residues.hodge_vector(H))


@check("hodge-nodal-e1", "the nodal exceptional fiber has residue basis {zs, s^3} with eigenvalues w^2 and w")
def _(ctx):
    H = residues.nodal_e1()
    basis = residues.jacobian_monomial_basis(H, H.grade(2))
    eigs = sorted(str(residues.monomial_eigenvalue(H, b)) for b in basis)
    return (2, sorted([str(OMEGA), str(WBAR)])), (len(basis), eigs)


@check("hodge-curve", "the cover of P^1 branched over 12 points has an eigenspace with Hodge numbers (1, 9)")
def _(ctx):
    C = residues.curve_c()
    hits = [
        lam
        for lam in (1, 5)  # primitive sixth roots
        if (
            residues.eigen_hodge_dim(C, 0, lam),
            residues.eigen_hodge_dim(C, 1, lam),
        )
        == (1, 9)
    ]
    return True, len(hits) == 1


@check("hodge-z-model", "the birational model of the exceptional divisor has w-eigenspace Hodge numbers (0, 1, 9, 0, 0)")
def _(ctx):
    Z = residues.z_model()
    return (0, 1, 9, 0, 0), residues.hodge_vector(Z, OMEGA)
