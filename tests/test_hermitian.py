import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlat import cli, hermitian
from eisenlat import monodromy as mono
from eisenlat.eisenstein import E, ONE, OMEGA, THETA, ZERO, EisensteinInt, QOmega, e_gcd, is_associate
from eisenlat.hermitian import (
    CHORDAL,
    NODAL,
    HermGram,
    basis_vector,
    chain,
    det_e,
    diag,
    direct_sum,
    e8e,
    gram,
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
from eisenlat.linalg import herm_eliminate
from eisenlat.zlattice import ZGram, determinant, inertia, invariants, is_even
from test_linalg import BOUNDED, det, herm_eliminate_reference, kernel, sym_eliminate_reference


def random_vec(rng, n, bound=3):
    return tuple(
        E(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)
    )


def random_herm(rng, n, bound=3):
    rows = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = E(rng.randint(-bound, bound))
        for j in range(i):
            v = E(rng.randint(-bound, bound), rng.randint(-bound, bound))
            rows[i][j] = v.conj()
            rows[j][i] = v
    return HermGram(rows)


def test_gram_validation():
    with pytest.raises(ValueError):
        HermGram([[OMEGA]])  # diagonal must be real
    with pytest.raises(ValueError):
        HermGram([[E(3), THETA], [THETA, E(3)]])  # not conjugate-symmetric


def test_gram_validation_names_the_first_bad_entry():
    x = E(2, 1)  # conj(x) = 1 - w
    for y in (E(1, 1), E(2, -1), E(1, 0)):  # conj(x) wrong in b, in a, in both
        with pytest.raises(ValueError, match=r"not conjugate-symmetric at \(2,1\)"):
            HermGram([[E(3), ZERO, ZERO], [ZERO, E(3), y], [ZERO, x, E(3)]])
    assert HermGram([[E(3), ZERO, ZERO], [ZERO, E(3), x.conj()], [ZERO, x, E(3)]]).n == 3
    with pytest.raises(ValueError, match="diagonal entry 1 is not real"):
        HermGram([[E(3), E(1, 1)], [E(1, 1), E(3, 1)]])  # the diagonal is checked first


def test_constructors():
    assert lambda_().n == 11
    assert lambda10().n == 10
    assert e8e().n == 4
    assert chain(4) == e8e()
    assert diag([3]).g == ((E(3),),)
    C = chain(3)
    assert C.g[0][1] == THETA and C.g[1][0] == THETA.conj()
    with pytest.raises(ValueError):
        chain(0)


def test_ip_examples():
    L = lambda_()
    e = lambda i: basis_vector(11, i)
    assert ip(L, e(0), e(0)) == E(3)
    assert ip(L, e(1), e(2)) == THETA
    assert ip(L, e(1), (E(0),) * 11) == E(0)


def test_ip_hermitian_axioms_random():
    rng = random.Random(211)
    for _ in range(200):
        n = rng.randint(1, 4)
        G = random_herm(rng, n)
        x, y, z = (random_vec(rng, n) for _ in range(3))
        c = E(rng.randint(-3, 3), rng.randint(-3, 3))
        # conjugate symmetry and E-linearity in the first slot
        assert ip(G, x, y) == ip(G, y, x).conj()
        xz = tuple(a + b for a, b in zip(x, z))
        assert ip(G, xz, y) == ip(G, x, y) + ip(G, z, y)
        cx = tuple(c * a for a in x)
        assert ip(G, cx, y) == c * ip(G, x, y)
        assert ip(G, y, cx) == c.conj() * ip(G, y, x)


def ip_reference(G, x, y):
    """The double loop sum g_ij x_i conj(y_j) that ``ip`` ran before ``pairings``: the reference for it."""
    s = ZERO
    for i in range(G.n):
        if not x[i]:
            continue
        row = G.g[i]
        for j in range(G.n):
            if y[j]:
                s = s + row[j] * x[i] * y[j].conj()
    return s


def rank_one_reference(G, v, scale, den):
    """The matrix delta_ij - (scale <e_j, v> / den) v_i of ``monodromy._rank_one``, with <e_j, v> the
    pairing sum it ran before ``pairings``: the reference for triflections and transvections."""
    support = [(k, x) for k, x in enumerate(v) if x]
    coeffs = [(scale * sum((row[k] * x.conj() for k, x in support), ZERO)).exact_div(den) for row in G.g]
    return tuple(tuple((ONE if i == j else ZERO) - coeffs[j] * v[i] for j in range(G.n)) for i in range(G.n))


def classify_reference(G, r):
    """``root_classify`` from n calls of ``ip_reference``, one per basis vector."""
    gen = e_gcd(*(ip_reference(G, basis_vector(G.n, i), r) for i in range(G.n)))
    return NODAL if is_associate(gen, THETA) else CHORDAL if is_associate(gen, E(3)) else None


def test_ip_takes_q_omega_entries():
    # 1/theta = conj(theta)/3, so e/theta has norm 3/3 in (3), and <e/theta, e> = 3/theta = -theta
    x = (QOmega(1) / THETA,)
    assert ip(diag([3]), x, x) == 1
    assert ip(diag([3]), x, (ONE,)) == -THETA
    assert pairings(diag([3]), x) == (THETA,)


def named_roots():
    """(Gram, norm-3 root) pairs: the basis vectors of chain(1..6) and the roots of ``sp_generating_roots``."""
    from eisenlat.gluing import sp_generating_roots

    pairs = [(chain(n), basis_vector(n, i)) for n in range(1, 7) for i in range(n)]
    return pairs + [(lambda10(), r) for r in sp_generating_roots()]


def test_root_classify_and_triflections_match_the_pairing_sum_references():
    for G, r in named_roots():
        assert root_classify(G, r) == classify_reference(G, r)
        assert mono.triflection(G, r).m == rank_one_reference(G, r, ONE - OMEGA, E(3))


def test_transvections_match_the_pairing_sum_reference():
    cases = [(mono.d4_star_gram(), mono.D4_XI), (hyp(), (ONE, ZERO)), (lambda10(), basis_vector(10, 8))]
    cases += [
        (G, mono.A5_XI)
        for G in map(mono.chain_signed, itertools.product((1, -1), repeat=4))
        if not norm_of(G, mono.A5_XI)
    ]
    assert len(cases) > 3
    for G, xi in cases:
        assert mono.transvection(G, xi).m == rank_one_reference(G, xi, ONE, THETA)


def test_z_realization_examples():
    assert z_realization(diag([3])).g == ((2, -1), (-1, 2))
    Z8 = z_realization(e8e())
    assert (determinant(Z8), inertia(Z8), is_even(Z8)) == (1, (8, 0, 0), True)
    Zh = z_realization(hyp())
    assert (determinant(Zh), inertia(Zh), is_even(Zh)) == (1, (2, 0, 2), True)


def test_z_realization_needs_theta_divisibility():
    with pytest.raises(ValueError):
        z_realization(diag([1]))


def test_signatures():
    assert signature(lambda_()) == (10, 0, 1)
    assert signature(lambda10()) == (9, 0, 1)
    assert signature(chain(11)) == (9, 1, 1)
    assert signature(chain(5)) == (4, 1, 0)


def test_det_e_values():
    assert det_e(lambda_()) == E(-729)
    assert det_e(lambda10()) == E(-243)
    assert det_e(e8e()) == E(9)
    assert det_e(hyp()) == E(-3)


def test_det_e_e8e_cofactor_oracle():
    # cofactor expansion of the 4x4 tridiagonal chain: d_n = 3 d_{n-1} + 3 d_{n-2}
    # with theta * conj(theta) = 3 appearing with a minus sign
    d0, d1 = E(1), E(3)
    for _ in range(3):
        d0, d1 = d1, E(3) * d1 - (THETA * THETA.conj()) * d0
    assert d1 == det_e(e8e()) == E(9)


def test_det_e_multiplicative_on_sums():
    rng = random.Random(223)
    for _ in range(50):
        A = random_herm(rng, rng.randint(1, 3))
        B = random_herm(rng, rng.randint(1, 3))
        assert det_e(direct_sum(A, B)) == det_e(A) * det_e(B)


def det_e_reference(G):
    """Bareiss on EisensteinInt objects, the determinant before the pair kernel."""
    return det(G.g, EisensteinInt.exact_div) if G.n else ONE


# zeros and small values make zero pivots and radicals; large ones reach 2^70
big = st.one_of(st.integers(-2, 2), st.integers(-(2**70), 2**70))


@st.composite
def hermitian_grams(draw, max_n=8):
    """A Hermitian Gram of rank <= 8; if asked, one index is doubled, which
    repeats a row and a column and makes the Gram singular."""
    n = draw(st.integers(1, max_n))
    rows = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = E(draw(big))
        for j in range(i):
            v = E(draw(big), draw(big))
            rows[i][j], rows[j][i] = v.conj(), v
    if n < max_n and draw(st.booleans()):
        s = list(range(n)) + [draw(st.integers(0, n - 1))]
        rows = [[rows[i][j] for j in s] for i in s]
    return HermGram(rows)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hermitian_grams())
@example(hyp())  # zero leading pivot: the row-swap path
@example(direct_sum(hyp(), chain(3)))
@example(HermGram([[0, 0], [0, 5]]))  # singular, zero first column
@example(chain(11))  # singular; its 5x5 leading minor is 0, so a row swap comes first
def test_det_e_matches_object_bareiss(G):
    assert det_e(G) == det_e_reference(G)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hermitian_grams())
@example(diag([1]))  # outside theta E
@example(diag([1, -1]))
@example(chain(11))  # singular
@example(HermGram([[0, 0], [0, 0]]))
def test_signature_is_half_the_inertia_of_the_tripled_z_realization(G):
    # 3G lies in theta E and has the signature of G, so this route does not
    # pass through the real form of G itself
    tripled = HermGram([[E(3) * x for x in row] for row in G.g])
    p, r, m = inertia(z_realization(tripled))
    assert signature(G) == (p // 2, r // 2, m // 2)
    assert (p % 2, r % 2, m % 2) == (0, 0, 0)


def test_det_e_and_signature_of_rank_0_and_unimodular_grams():
    assert (det_e(HermGram([])), signature(HermGram([]))) == (ONE, (0, 0, 0))
    assert (det_e(diag([1])), signature(diag([1]))) == (ONE, (1, 0, 0))
    assert (det_e(diag([1, -1])), signature(diag([1, -1]))) == (E(-1), (1, 0, 1))


def det_signature_reference(G):
    """(det_e, signature) from the 2n x 2n integral real form, the route before the Hermitian elimination.

    The real form has inertia (2p, 2r, 2m) for the signature (p, r, m), and
    determinant 3^n det(G)^2, whose sign is (-1)^m.
    """
    rows = hermitian._real_form(G)
    (p, r, m), d = invariants(len(rows), sym_eliminate_reference(rows, operator.floordiv)[1])
    sig = (p // 2, r // 2, m // 2)
    if r:
        return ZERO, sig
    q, rem = divmod(d, 3**G.n)
    root = math.isqrt(q)
    assert not rem and root * root == q
    return E(-root if sig[2] % 2 else root), sig


small = st.integers(-2, 2)
elimination_entries = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b: THETA * E(a, b), small, small),
    st.builds(E, small, small),
)


@st.composite
def elimination_grams(draw, max_n=7):
    """A Hermitian Gram of rank <= 7 for every branch of the elimination: its
    diagonal is sometimes all zero, its entries lie in theta E or outside it,
    and, if asked, one index is doubled (a repeated row) or zeroed (a radical)."""
    n = draw(st.integers(1, max_n))
    zero_diagonal = draw(st.booleans())
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ZERO if zero_diagonal else E(draw(st.integers(-3, 3)))
        for j in range(i):
            v = draw(elimination_entries)
            rows[i][j], rows[j][i] = v.conj(), v
    change = draw(st.sampled_from(["none", "repeat", "zero"]))
    if change == "repeat" and n < max_n:
        s = list(range(n)) + [draw(st.integers(0, n - 1))]
        rows = [[rows[i][j] for j in s] for i in s]
    elif change == "zero":
        k = draw(st.integers(0, n - 1))
        rows = [[ZERO if k in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return HermGram(rows)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(elimination_grams())
@example(direct_sum(hyp(), chain(3)))
@example(lambda_())
@example(lambda10())
def test_det_signature_matches_the_real_form(G):
    assert hermitian.det_signature(G) == det_signature_reference(G)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(elimination_grams())
@example(hyp())  # a zero diagonal and a_01 = theta: u = w
@example(direct_sum(chain(1), hyp()))  # the zero-diagonal step levels the rows the first step skipped
@example(HermGram([[2, 0, 0, 1], [0, 3, 1, 0], [0, 1, 5, 0], [1, 0, 0, 7]]))  # pending rows read and rewritten
@example(HermGram([[0, 0, 1], [0, 2, 0], [1, 0, 3]]))  # a pending row before the pivot, read in its column
def test_elimination_matches_the_eager_reference(G):
    assert herm_eliminate(G.g) == herm_eliminate_reference(G.g)


@pytest.mark.parametrize(
    "rows, minors, invariants_",
    [
        # every diagonal entry is 0 and 2a - b = 0 for a_01 = theta: u = w makes a_00 = -3
        (hyp().g, [-3, -3], (E(-3), (1, 0, 1))),
        # a_01 = 1, so 2a - b = 2 and u = 1 makes a_00 = 2
        (((0, 1), (1, 0)), [2, -1], (E(-1), (1, 0, 1))),
        ((), [], (ONE, (0, 0, 0))),
        (((1,),), [1], (ONE, (1, 0, 0))),
        # index 0 is radical and comes before the one pivot
        (((0, 0), (0, 1)), [1], (ZERO, (1, 1, 0))),
    ],
)
def test_hermitian_elimination_examples(rows, minors, invariants_):
    G = HermGram(rows)
    assert herm_eliminate(G.g) == minors
    assert hermitian.det_signature(G) == invariants_ == det_signature_reference(G)


def _unchecked_gram(rows):
    """A HermGram that skips the validation, so it need not be Hermitian."""
    G = object.__new__(HermGram)
    G.g = tuple(tuple(E(*x) if isinstance(x, tuple) else E(x) for x in row) for row in rows)
    G.n = len(G.g)
    return G


def test_det_signature_refuses_a_pivot_that_is_not_real():
    for rows, pivot in [
        ([[(0, 1)]], "0 + 1w"),  # the first pivot is w
        ([[1, 1], [1, (0, 1)]], "-1 + 1w"),  # the second is w - 1
        # row 2 is never rewritten, so it is read at the level D_2 = 6 as the pivot row
        ([[2, 0, 0], [0, 3, 0], [0, 0, (0, 1)]], "0 + 6w"),
    ]:
        with pytest.raises(ArithmeticError, match=re.escape(f"pivot {pivot} of a Hermitian elimination is not real")):
            hermitian.det_signature(_unchecked_gram(rows))


def test_herm_eliminate_reads_only_the_upper_half():
    """a_tp for t > p is read as conj(a_pt), so the minors of a matrix are
    those of the Hermitian form of its upper half, whatever its lower half holds."""
    for rows, minors in [
        ([[0, 1], [(0, 1), 0]], [2, -1]),  # the zero-diagonal step makes a_00 = 2 Re(a_01) = 2
        ([[1, 1], [(0, 1), 1]], [1]),  # [[1, 1], [1, 1]] has rank 1
        ([[3, (1, 2)], [(5, 5), 3]], [3, 6]),  # chain(2)
    ]:
        assert herm_eliminate(_unchecked_gram(rows).g) == minors


def test_det_signature_keys_its_cache_on_the_gram_object(monkeypatch):
    def no_hash(self):
        raise AssertionError("det_signature hashed a Gram")

    monkeypatch.setattr(HermGram, "__hash__", no_hash)
    A, B = lambda10(), lambda10()  # equal, but not the same object
    lambda10_invariants, hyp_invariants = (E(-243), (9, 0, 1)), (E(-3), (1, 0, 1))
    for G, expected in [(A, lambda10_invariants), (B, lambda10_invariants), (hyp(), hyp_invariants), (A, lambda10_invariants)]:
        assert (det_e(G), signature(G)) == expected
        assert hermitian.det_signature(G) == expected


def z_realization_reference(G):
    """The Z-realization from E-products u_i conj(u_j) h, before the closed-form block."""
    n = G.n
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            h = G.g[i][j]
            for (bi, ui) in ((0, ONE), (1, OMEGA)):
                for (bj, uj) in ((0, ONE), (1, OMEGA)):
                    # <u_i e_i, u_j e_j> = u_i conj(u_j) h ; dot = (2/3) Re
                    v = ui * uj.conj() * h
                    num = 2 * v.a - v.b  # 2*Re(v) = 2a - b
                    if num % 3:
                        raise ValueError(
                            "Z-realization is not integral; inner products "
                            "must lie in theta*E"
                        )
                    rows[2 * i + bi][2 * j + bj] = num // 3
    return ZGram(rows)


@st.composite
def theta_grams(draw, max_n=6):
    """A Hermitian Gram with entries in theta E; if asked, one entry and its
    mirror are then moved by a small amount, which may leave theta E."""
    n = draw(st.integers(1, max_n))
    rows = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = E(3 * draw(big))
        for j in range(i):
            v = THETA * E(draw(big), draw(big))
            rows[i][j], rows[j][i] = v.conj(), v
    if draw(st.booleans()):
        i, j = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        u = E(draw(st.integers(1, 2))) if i == j else E(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        rows[i][j] = rows[i][j] + u
        if i != j:
            rows[j][i] = rows[j][i] + u.conj()
    return HermGram(rows)


some_grams = st.one_of(theta_grams(), hermitian_grams(max_n=6))


@BOUNDED
@given(hermitian_grams(max_n=4), st.data())
def test_gram_is_the_table_of_inner_products(G, data):
    entry = st.builds(E, st.integers(-5, 5), st.integers(-5, 5))
    vs = data.draw(st.lists(st.tuples(*[entry] * G.n), max_size=4))
    out = gram(G, vs)
    assert len(out) == len(vs)
    for i, u in enumerate(vs):
        assert out[i] == tuple(ip(G, u, v) for v in vs)


e_entries = st.one_of(st.just(E(0)), st.builds(E, st.integers(-5, 5), st.integers(-5, 5)))
q_entries = st.one_of(st.just(QOmega(0)), st.builds(QOmega, st.fractions(max_denominator=6), st.fractions(max_denominator=6)))


@BOUNDED
@given(some_grams, st.data())
def test_ip_and_pairings_match_the_double_loop(G, data):
    x, y = (data.draw(st.lists(st.one_of(e_entries, q_entries), min_size=G.n, max_size=G.n)) for _ in "xy")
    assert ip(G, x, y) == ip_reference(G, x, y)
    assert pairings(G, y) == tuple(ip_reference(G, basis_vector(G.n, i), y) for i in range(G.n))
    assert ip(G, x, [E(0)] * G.n) == ZERO


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(some_grams)
@example(lambda_())
@example(diag([1]))
def test_z_realization_matches_product_reference(G):
    try:
        expected = z_realization_reference(G)
    except ValueError:
        with pytest.raises(ValueError):
            z_realization(G)
        return
    assert z_realization(G) == expected


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(some_grams)
def test_in_theta_dual_matches_division_by_theta(G):
    assert in_theta_dual(G) == all(not (x % THETA) for row in G.g for x in row)


def test_theta_duality():
    assert in_theta_dual(lambda_())
    assert not theta_self_dual(lambda_())  # norm(det) = 3^12 but rank 11
    assert theta_self_dual(lambda10())
    assert theta_self_dual(e8e())
    assert theta_self_dual(hyp())
    with pytest.raises(ValueError):
        theta_self_dual(chain(5))


@BOUNDED
@given(theta_grams())
@example(lambda_())
@example(lambda10())
@example(e8e())
@example(hyp())
@example(diag([1, 3]))  # N(det) = 9 = 3^2, but 1 is not in theta E
@example(chain(5))
def test_theta_self_dual_is_theta_duality_with_a_determinant_of_norm_3_to_the_n(G):
    d = det_e(G)
    if not d:
        with pytest.raises(ValueError, match="singular"):
            theta_self_dual(G)
        return
    assert theta_self_dual(G) == (in_theta_dual(G) and d.norm() == 3**G.n)


def test_lattice_invariants_eliminates_once_per_query(monkeypatch, capsys):
    calls = []
    real = hermitian.herm_eliminate
    monkeypatch.setattr(hermitian, "herm_eliminate", lambda rows: calls.append(len(rows)) or real(rows))
    for name, n in [("lambda", 11), ("lambda10", 10), ("e8e", 4), ("hyp", 2), ("chain:5", 5)]:
        calls.clear()
        assert cli.main(["lattice", "invariants", "--name", name, "--json"]) == 0
        assert calls == [n], name
    assert '"theta_self_dual": true' in capsys.readouterr().out


def test_norms_in_3z_when_theta_dual():
    rng = random.Random(227)
    for G in (lambda_(), lambda10(), e8e(), hyp()):
        for _ in range(100):
            v = random_vec(rng, G.n, 2)
            nv = norm_of(G, v)
            assert nv.b == 0 and nv.a % 3 == 0


def test_root_classify():
    L = lambda_()
    assert root_classify(L, basis_vector(11, 0)) == CHORDAL
    nodal = tuple([E(0)] * 9 + [E(1), OMEGA])
    assert root_classify(L, nodal) == NODAL
    with pytest.raises(ValueError):
        root_classify(L, tuple([E(0)] * 9 + [E(1), E(0)]))  # isotropic, not a root


def test_is_isometry():
    L = lambda_()
    n = L.n
    I = tuple(tuple(E(1) if i == j else E(0) for j in range(n)) for i in range(n))
    assert is_isometry(L, I)
    # swap of the two (3)-summands of (3)+E8E+E8E+(-3)+(3)
    N = direct_sum(diag([3]), e8e(), e8e(), diag([-3]), diag([3]))
    perm = list(range(11))
    perm[0], perm[10] = perm[10], perm[0]
    M = tuple(
        tuple(E(1) if perm[j] == i else E(0) for j in range(11)) for i in range(11)
    )
    assert is_isometry(N, M)
    # a non-isometry
    M2 = tuple(
        tuple(E(2) if i == j == 0 else (E(1) if i == j else E(0)) for j in range(n))
        for i in range(n)
    )
    assert not is_isometry(L, M2)


def test_matrix_rank():
    # the rank over Q(w) is n minus the radical count of the signature; the
    # reference kernel is Gauss-Jordan over Q(w)
    for G, rank in ((chain(11), 10), (chain(5), 4), (lambda_(), 11)):
        assert G.n - signature(G)[1] == rank
        assert G.n - len(kernel([[QOmega(x.a, x.b) for x in row] for row in G.g])) == rank


def test_named_and_json():
    from eisenlat.hermitian import named_lattice

    assert named_lattice("lambda") == lambda_()
    assert named_lattice("chain:7") == chain(7)
    with pytest.raises(ValueError):
        named_lattice("nosuch")
    L = lambda_()
    assert HermGram.from_json(L.to_json()) == L
