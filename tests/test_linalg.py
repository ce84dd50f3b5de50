"""Property tests of the shared exact linear algebra, with sympy as the oracle.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same cases.  The field Gauss-Jordan routines ``rref``, ``kernel``,
``solve`` and ``inverse`` over Fraction and QOmega live here as references;
``eisenlat`` solves through integer adjugates instead.  ``det``, Bareiss'
fraction-free determinant over any integral domain, lives here too, as the
reference for the determinants that ``eisenlat`` reads off the Hermitian
elimination.
"""

import ast
import math
import operator
import random
import re
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from eisenlat import discpoly
from eisenlat.eisenstein import THETA, UNITS, ZERO, E, EisensteinInt, QOmega
from eisenlat.gluing import _f3_diagonalize
from eisenlat.hermitian import NAMED_LATTICES, chain, lambda_, z_realization
from eisenlat.linalg import adjugate, adjugate_e, f3_rref, herm_eliminate, identity, mat_mul, mat_vec, pack, unpack
from eisenlat.zlattice import ZGram, an_vanishing_gram, inertia

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None, database=None)
# the symmetric elimination has more branches: pivots, hyperbolic pairs and radicals
MANY = settings(BOUNDED, max_examples=300)

W = sympy.Symbol("w")

# small entries, so singular matrices and nontrivial kernels come up often
small = st.integers(-2, 2)
ints = st.integers(-9, 9)
e_ints = st.builds(E, ints, ints)
fractions = st.builds(Fraction, small, st.integers(1, 3))
qomegas = st.builds(QOmega, fractions, fractions)


def matrices(elements, rows=(1, 4), cols=(1, 5)):
    shape = st.tuples(st.integers(*rows), st.integers(*cols))
    return shape.flatmap(
        lambda s: st.lists(
            st.lists(elements, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]
        )
    )


def square(elements, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def to_sympy_e(x):
    return x.a + x.b * W


def from_sympy_e(expr):
    """a + b*w from a polynomial in w, reduced by w^2 + w + 1."""
    p = sympy.Poly(sympy.rem(sympy.expand(expr), W**2 + W + 1, W), W)
    return E(int(p.coeff_monomial(1)), int(p.coeff_monomial(W)))


def companion(a):
    """Q-matrix of a Q(w)-matrix, a + b*w acting as [[a, -b], [b, a - b]]."""
    out = []
    for row in a:
        out.append([y for x in row for y in (x.a, -x.b)])
        out.append([y for x in row for y in (x.b, x.a - x.b)])
    return sympy.Matrix(out)


def field_rank(a):
    if isinstance(a[0][0], QOmega):
        r = companion(a).rank()
        assert r % 2 == 0
        return r // 2
    return sympy.Matrix(a).rank()


def identity_like(a):
    zero = a[0][0] * 0
    return tuple(tuple(zero + (i == j) for j in range(len(a))) for i in range(len(a)))


# The field Gauss-Jordan elimination, the reference for the fraction-free solves.


def rref(rows):
    """Reduce ``rows`` (a list of lists over a field) to reduced row echelon form.

    The reduction happens in place: entries of ``rows`` are swapped and
    replaced by new lists, never mutated.  Each pivot row is scaled by one
    inverse, so no entry is divided.  Returns the pivot columns.
    """
    n = len(rows)
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        pr = rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [x - c * y for x, y in zip(rows[i], pr)]
        pivots.append(col)
    return pivots


def kernel(a):
    """Basis of {v : a v = 0}, one vector per non-pivot column of rref(a)."""
    rows = [list(r) for r in a]
    m = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    pivots = rref(rows)
    out = []
    for f in range(m):
        if f in pivots:
            continue
        v = [zero] * m
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        out.append(tuple(v))
    return out


def solve(a, b):
    """The x with a x = b, for a square nonsingular matrix a over a field."""
    n = len(a)
    rows = [list(r) + [y] for r, y in zip(a, b)]
    if rref(rows) != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n] for r in rows]


def inverse(a):
    """The inverse of a square nonsingular matrix over a field, as row lists."""
    n = len(a)
    zero = a[0][0] - a[0][0]
    one = zero + 1
    rows = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(a)]
    if rref(rows) != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n:] for r in rows]


def det(a, div):
    """Determinant by Bareiss' fraction-free elimination.

    ``div(x, y)`` is the ring's exact division: ``operator.floordiv`` for int,
    ``EisensteinInt.exact_div`` for E.  Every quotient taken is exact, so the
    entries stay in the ring.
    """
    a = [list(row) for row in a]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = None
    for k in range(n - 1):
        ak = a[k]
        if not ak[k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return ak[k]
            a[k], a[piv] = a[piv], ak
            ak = a[k]
            sign = -sign
        p = ak[k]
        if prev is None:
            prev = div(p, p)  # the ring's one
        for ai in a[k + 1 :]:
            c = ai[k]
            for j in range(k + 1, n):
                ai[j] = div(ai[j] * p - c * ak[j], prev)
        prev = p
    d = a[-1][-1]
    return -d if sign < 0 else d


@BOUNDED
@given(square(ints, max_n=6))
def test_int_det_matches_sympy(a):
    assert det(a, operator.floordiv) == sympy.Matrix(a).det()


@BOUNDED
@given(square(small, max_n=6))
def test_adjugate_inverts_up_to_the_determinant(a):
    d, adj = adjugate(a)
    expected = sympy.Matrix(a).det()
    if not expected:
        assert (d, adj) == (0, None)
        return
    assert abs(d) == abs(expected)
    n = len(a)
    assert mat_mul(adj, a) == tuple(tuple(d * (i == j) for j in range(n)) for i in range(n))


@st.composite
def e_squares(draw, max_n=5):
    """E-matrices up to rank 5; half of those above rank 1 repeat a row times a unit."""
    a = draw(square(st.builds(E, small, small), max_n=max_n))
    if len(a) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(a))))[:2]
        u = draw(st.sampled_from(UNITS))
        a[j] = [u * x for x in a[i]]
    return a


@settings(BOUNDED, max_examples=150)
@given(e_squares())
def test_adjugate_e_inverts_up_to_a_positive_int(a):
    n = len(a)
    if not det(a, EisensteinInt.exact_div):
        with pytest.raises(ValueError):
            adjugate_e(a)
        return
    d, b = adjugate_e(a)
    assert type(d) is int and d > 0
    assert mat_mul(b, a) == identity(n, E(d))
    # d is the least common denominator of a^-1
    assert math.gcd(d, *(y for row in b for x in row for y in (x.a, x.b))) == 1
    aq = [[QOmega(x.a, x.b) for x in row] for row in a]
    for j in range(n):
        col = solve(aq, [QOmega(int(i == j)) for i in range(n)])
        assert col == [QOmega(b[i][j].a, b[i][j].b) / QOmega(d) for i in range(n)]


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_pack_is_a_ring_map(n, data):
    a, b = (data.draw(st.lists(st.lists(e_ints, min_size=n, max_size=n), min_size=n, max_size=n)) for _ in "ab")
    assert pack(mat_mul(a, b)) == mat_mul(pack(a), pack(b))
    assert pack(identity(len(a), E(1))) == identity(2 * len(a), 1)


@BOUNDED
@given(matrices(e_ints))
def test_unpack_inverts_pack_on_tuples_and_int64_arrays(a):
    a = tuple(map(tuple, a))
    z = pack(a)
    assert unpack(z) == a
    back = unpack(np.array(z, np.int64))
    assert back == a
    assert all(type(x.a) is int and type(x.b) is int for row in back for x in row)


def test_only_eisenstein_imports_fractions_or_names_qomega():
    """The library has one fraction-free kernel: Fraction and QOmega stay in eisenstein.py."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "eisenstein.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                bad = any(alias.name.split(".")[0] == "fractions" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "fractions" or any(alias.name == "QOmega" for alias in node.names)
            elif isinstance(node, ast.Name):
                bad = node.id == "QOmega"
            elif isinstance(node, ast.Attribute):
                bad = node.attr == "QOmega"
            else:
                bad = False
            if bad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_top_level_function_and_class_has_a_caller_outside_the_tests():
    """No helper whose only caller is its own test: each top-level function and class of ``src/eisenlat`` is named,
    as a name, attribute or import, in another top-level statement of ``src/``, or else in ``perfbench/``.
    ``verify``'s checks, each a ``_`` under ``@check``, are used through that decorator.  Four names pass only
    through ``perfbench/``, ROADMAP item 1's pins: ``snf_e`` (a traced layer), ``_weight_132_exponents`` and
    ``reconstructed_delta_eval`` (a query workload and its cross-check) and ``registered_checks`` (the tracer)."""
    root = Path(__file__).resolve().parents[1]
    bench = "\n".join(path.read_text() for path in sorted((root / "perfbench").rglob("*.py")))
    tops = [(path.stem, node) for path in sorted((root / "src" / "eisenlat").glob("*.py"))
            for node in ast.parse(path.read_text(), str(path)).body]
    kinds = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    used = [{getattr(n, kinds[type(n)]) for n in ast.walk(node) if type(n) in kinds} for _, node in tops]
    unused, pinned = [], set()
    for i, (module, node) in enumerate(tops):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name == "_":
            assert [ast.unparse(d.func) for d in node.decorator_list if isinstance(d, ast.Call)] == ["check"]
        elif not any(node.name in names for j, names in enumerate(used) if j != i):
            if re.search(rf"\b{node.name}\b", bench):
                pinned.add(node.name)
            else:
                unused.append(f"{module}.{node.name}")
    assert unused == []
    assert pinned <= {"snf_e", "_weight_132_exponents", "reconstructed_delta_eval", "registered_checks"}


def test_only_zlattice_and_hermitian_import_the_elimination():
    """``herm_eliminate`` is imported from linalg only by zlattice and
    hermitian, and the library defines no generic ``det``, so a second copy
    of a form's elimination shows here; discriminants go through zlattice."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    importers = set()
    defined = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "linalg"
                and any(alias.name == "herm_eliminate" for alias in node.names)
            ):
                importers.add(path.stem)
    assert importers == {"zlattice", "hermitian"}
    assert "det" not in defined


def test_packing_and_gram_are_written_once():
    """Only linalg defines a function named like ``pack``, only hermitian
    defines ``gram``, no module calls ``np.kron``, and no module packs an
    attribute named ``g`` (a Gram), so a second copy of the packing, its
    inverse or the Gram of a list of vectors, or a packed Hermitian form
    beside the packed group elements, shows here."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    packers, grams, krons, packed_grams = set(), set(), [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and "pack" in node.name:
                packers.add(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "gram":
                grams.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "kron":
                krons.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pack":
                if any(isinstance(arg, ast.Attribute) and arg.attr == "g" for arg in node.args):
                    packed_grams.append(f"{path.name}:{node.lineno}")
    assert packers == {"linalg"}
    assert grams == {"hermitian"}
    assert krons == []
    assert packed_grams == []


def test_matrix_vector_products_and_pairings_are_written_once():
    """Only linalg defines ``mat_vec`` and ``mat_mul``, and no module but
    linalg and eisenstein multiplies by the ``conj()`` of an expression that
    reads a loop or comprehension variable, so a second hand-written pairing
    sum g_ij conj(v_j) beside ``hermitian.pairings`` shows here.  A scaling
    by the conj() of a constant, such as conj(theta), is not flagged."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    definers, products = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loop_vars = {
            name.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension))
            for name in ast.walk(node.target)
            if isinstance(name, ast.Name)
        }

        def conj_of_loop_var(node):
            return (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "conj"
                and any(isinstance(n, ast.Name) and n.id in loop_vars for n in ast.walk(node.func.value))
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("mat_vec", "mat_mul"):
                definers.add((path.stem, node.name))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and path.stem not in ("linalg", "eisenstein"):
                if conj_of_loop_var(node.left) or conj_of_loop_var(node.right):
                    products.append(f"{path.name}:{node.lineno}")
    assert definers == {("linalg", "mat_vec"), ("linalg", "mat_mul")}
    assert products == []


def test_reductions_mod_theta_live_in_gluing():
    """Only gluing defines the F_3 reductions of Grams and matrices or
    imports ``reduce_mod_theta``, and no module imports ``snf_e``, so
    theta N*/N comes from the F_3 kernel alone."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    definers, reducers, snf = set(), set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in ("symplectic_gram", "f3_reduce", "f3_rank"):
                definers.add(path.stem)
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if "reduce_mod_theta" in names:
                    reducers.add(path.stem)
                if "snf_e" in names:
                    snf.add(path.stem)
    assert definers == {"gluing"}
    assert reducers == {"gluing"}
    assert snf == set()


@BOUNDED
@given(square(e_ints, max_n=4))
def test_e_det_matches_sympy(a):
    m = DomainMatrix.from_Matrix(sympy.Matrix([[to_sympy_e(x) for x in row] for row in a]))
    assert det(a, EisensteinInt.exact_div) == from_sympy_e(m.domain.to_sympy(m.det()))


@BOUNDED
@given(matrices(ints), st.integers(1, 4), st.data())
def test_int_mat_mul_matches_sympy(a, m, data):
    b = data.draw(st.lists(st.lists(ints, min_size=m, max_size=m), min_size=len(a[0]), max_size=len(a[0])))
    assert sympy.Matrix(mat_mul(a, b)) == sympy.Matrix(a) * sympy.Matrix(b)


def mat_mul_reference(A, B):
    """The dense product that tests every triple (i, j, t), the reference for ``mat_mul``."""
    zero = A[0][0] - A[0][0]
    Bt = tuple(zip(*B))
    ks = range(len(B))
    out = []
    for Ai in A:
        row = []
        for Bj in Bt:
            s = zero
            for t in ks:
                if Ai[t] and Bj[t]:
                    s = s + Ai[t] * Bj[t]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def seeded_matrix(rng, rows, cols, density, ring):
    """A rows x cols matrix over ``ring`` (int or E): each entry is drawn from [-9, 9] (each part, for E)
    with probability ``density``, and is zero otherwise."""
    def entry():
        if rng.random() >= density:
            return ring(0)
        return ring(rng.randint(-9, 9)) if ring is int else E(rng.randint(-9, 9), rng.randint(-9, 9))
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("ring", [int, E])
def test_mat_mul_matches_the_dense_reference(ring):
    rng = random.Random(7)
    zero = ring(0)
    shapes = [(1, 1, 1), (2, 3, 4), (3, 1, 5), (5, 4, 1), (4, 4, 4), (7, 3, 6), (10, 10, 10), (11, 11, 2)]
    for r, k, c in shapes:
        for density in (0.0, 0.15, 0.5, 1.0):
            A = seeded_matrix(rng, r, k, density, ring)
            B = seeded_matrix(rng, k, c, density, ring)
            assert mat_mul(A, B) == mat_mul_reference(A, B)
            # an all-zero row of A and an all-zero column of B give A's zero
            i, j = rng.randrange(r), rng.randrange(c)
            A = A[:i] + ((zero,) * k,) + A[i + 1 :]
            B = tuple(row[:j] + (zero,) + row[j + 1 :] for row in B)
            out = mat_mul(A, B)
            assert out == mat_mul_reference(A, B)
            assert all(type(x) is ring for row in out for x in row)
            assert all(x == zero for x in out[i]) and all(row[j] == zero for row in out)
    # identity plus rank one, like a reflection, against sparse and dense factors
    for n in (3, 10, 11):
        u = seeded_matrix(rng, n, 1, 0.3, ring)
        v = seeded_matrix(rng, 1, n, 0.5, ring)
        T = tuple(tuple((ring(1) if i == j else zero) + u[i][0] * v[0][j] for j in range(n)) for i in range(n))
        for density in (0.2, 1.0):
            M = seeded_matrix(rng, n, n, density, ring)
            for A, B in ((T, M), (M, T), (T, T)):
                assert mat_mul(A, B) == mat_mul_reference(A, B)


def test_mat_mul_takes_the_zero_of_its_left_factor():
    assert mat_mul(((E(0), E(0)),), ((0,), (5,))) == ((E(0),),)
    assert type(mat_mul(((E(0), E(0)),), ((0,), (5,)))[0][0]) is EisensteinInt
    assert type(mat_mul(((0, 0),), ((E(1),), (E(2),)))[0][0]) is int
    assert mat_mul(((E(2), E(1)),), ((3,), (E(1, 1),))) == ((E(7, 1),),)


def mat_vec_reference(A, x):
    """The dense product that forms every a_ij x_j, the reference for ``mat_vec``."""
    zero = x[0] - x[0] if x else 0
    return tuple(sum((a * y for a, y in zip(row, x, strict=True)), zero) for row in A)


@pytest.mark.parametrize("ring", [int, E])
def test_mat_vec_matches_the_dense_reference(ring):
    rng = random.Random(11)
    for r, k in [(1, 1), (3, 1), (1, 4), (4, 4), (7, 3), (11, 11)]:
        for density in (0.0, 0.15, 0.5, 1.0):
            A = seeded_matrix(rng, r, k, density, ring)
            (x,) = seeded_matrix(rng, 1, k, density, ring)
            out = mat_vec(A, x)
            assert out == mat_vec_reference(A, x)
            assert all(type(y) is ring for y in out)
    # an empty matrix, as the kernel rref of a form of rank 0 is, and an empty vector
    assert mat_vec((), (1, 0, 2)) == mat_vec((), ()) == ()
    assert mat_vec(((),), ()) == (0,)


@BOUNDED
@given(matrices(st.one_of(st.just(0), ints, e_ints)), st.data())
def test_mat_vec_over_q_omega_matches_the_dense_reference(A, data):
    x = data.draw(st.lists(st.one_of(st.just(QOmega(0)), qomegas), min_size=len(A[0]), max_size=len(A[0])))
    assert mat_vec(A, x) == mat_vec_reference(A, x)


def test_mat_mul_rejects_a_row_that_does_not_fit_the_right_factor():
    for A in (((1, 2, 3),), ((1,),)):
        with pytest.raises(ValueError):
            mat_mul(A, ((1,), (2,)))


def test_mat_vec_rejects_a_row_that_does_not_fit_the_vector():
    # a row longer than x would drop its last entries, a shorter one would be read past its end
    for A, x in ((((1, 2, 3),), (1, 1)), (((1,),), (0, 1)), (((1, 2), (1,)), (E(0), E(0))), (((),), (1,))):
        with pytest.raises(ValueError, match="does not have the"):
            mat_vec(A, x)
    assert mat_vec((), (1, 1)) == ()
    assert mat_vec(((1, 2),), (0, 0)) == (0,)


@BOUNDED
@given(st.one_of(square(fractions), square(qomegas, max_n=4)), st.data())
def test_solve_and_inverse(a, data):
    n = len(a)
    b = data.draw(st.lists(st.sampled_from([x for row in a for x in row]), min_size=n, max_size=n))
    if field_rank(a) < n:
        with pytest.raises(ValueError):
            solve(a, b)
        with pytest.raises(ValueError):
            inverse(a)
        return
    x = solve(a, b)
    assert mat_mul(a, [[y] for y in x]) == tuple((y,) for y in b)
    assert mat_mul(a, inverse(a)) == identity_like(a)


@BOUNDED
@given(st.one_of(matrices(fractions), matrices(qomegas, rows=(1, 3), cols=(1, 4))))
def test_kernel_vectors_and_dimension(a):
    basis = kernel(a)
    assert len(basis) == len(a[0]) - field_rank(a)
    zero = a[0][0] * 0
    for v in basis:
        assert all(y == (zero,) for y in mat_mul(a, [[x] for x in v]))
    rows = [list(r) for r in a]
    assert len(rref(rows)) == field_rank(a)


@BOUNDED
@given(matrices(st.integers(-4, 4), rows=(1, 5), cols=(1, 6)))
def test_f3_rank_matches_sympy(a):
    F = GF(3)
    expected = DomainMatrix([[F(x) for x in row] for row in a], (len(a), len(a[0])), F).rank()
    assert len(f3_rref([list(r) for r in a])) == expected


@BOUNDED
@given(e_ints.filter(bool))
def test_canonical_unit_puts_x_in_the_first_sextant(x):
    u = x.canonical_unit()
    assert u in UNITS
    y = u * x
    assert 0 <= y.b < y.a
    assert x.canonical_associate() == y


def test_canonical_unit_of_zero_is_undefined():
    with pytest.raises(ValueError):
        E(0).canonical_unit()


# The full-row symmetric elimination, the reference for ``linalg.herm_eliminate`` on int forms.


def sym_eliminate_reference(rows, div):
    """Bareiss' congruence elimination of the symmetric form in the leading
    n x n block of ``rows``, each step rewriting every column of every live row.

    Each step pivots on the first live index with a nonzero diagonal entry;
    when there is none but some a_ij (i < j) is nonzero, row and column j
    are first added to row and column i.  Further columns follow the row
    operations.  Returns (order, minors, rows): the pivot indices followed by
    the radical ones, the pivot minors D_1..D_r, and the eliminated rows,
    in which the columns of eliminated indices end at zero and the trailing
    part of the k-th row in ``order`` is D_(k-1) times its Gaussian
    counterpart (D_r for the radical).
    """
    a = [list(row) for row in rows]
    live = list(range(len(a)))
    order, minors = [], []
    prev = 1
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if j > i and a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for t in live:
                a[t][p] += a[t][j]
        live.remove(p)
        ap = a[p]
        d = ap[p]
        for t in live:
            c = a[t][p]
            a[t] = [div(d * x - c * y, prev) for x, y in zip(a[t], ap)]
        order.append(p)
        minors.append(d)
        prev = d
    return order + live, minors, a


# References for ``zlattice.inertia`` and ``gluing._f3_diagonalize``, written without an elimination kernel.


def inertia_reference(G):
    """Inertia by rational symmetric elimination: the reference for ``zlattice.inertia``.

    Symmetric elimination with symmetric pivoting; when all remaining diagonal
    entries vanish but an off-diagonal one does not, a hyperbolic 2 x 2 block
    is split off contributing (1, 0, 1).
    """
    n = G.n
    a = [[Fraction(G.g[i][j]) for j in range(n)] for i in range(n)]
    live = list(range(n))
    pos = neg = rad = 0
    while live:
        piv = next((i for i in live if a[i][i]), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            live.remove(piv)
            for i in live:
                if a[i][piv]:
                    c = a[i][piv] / d
                    for j in live:
                        a[i][j] -= c * a[piv][j]
            for i in live:
                a[i][piv] = a[piv][i] = Fraction(0)
            continue
        off = None
        for i in live:
            for j in live:
                if j > i and a[i][j]:
                    off = (i, j)
                    break
            if off:
                break
        if off is None:
            rad += len(live)
            break
        i0, j0 = off
        # diag is zero, a[i0][j0] != 0: the plane <i0, j0> is hyperbolic
        pos += 1
        neg += 1
        b = a[i0][j0]
        live.remove(i0)
        live.remove(j0)
        for i in live:
            ci, cj = a[i][i0], a[i][j0]
            if ci or cj:
                # subtract the projection onto the hyperbolic plane
                for j in live:
                    a[i][j] -= (ci * a[j0][j] + cj * a[i0][j]) / b
        for i in live:
            a[i][i0] = a[i0][i] = a[i][j0] = a[j0][i] = Fraction(0)
    return (pos, rad, neg)


def f3_diagonalize_reference(form):
    """Congruence diagonalization by Gaussian steps mod 3: the reference for ``gluing._f3_diagonalize``.

    change rows express the new basis in the old one; the diagonal is sorted
    with +1 entries first, then -1 (=2), then 0.
    """
    k = len(form)
    a = [[form[i][j] % 3 for j in range(k)] for i in range(k)]
    basis = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    done = []
    live = list(range(k))

    def addrow(i, j, c):
        a[i] = [(x + c * y) % 3 for x, y in zip(a[i], a[j])]
        for t in range(k):
            a[t][i] = (a[t][i] + c * a[t][j]) % 3
        basis[i] = [(x + c * y) % 3 for x, y in zip(basis[i], basis[j])]

    while live:
        piv = next((i for i in live if a[i][i] % 3), None)
        if piv is None:
            off = None
            for i in live:
                for j in live:
                    if j != i and a[i][j] % 3:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                done.extend(live)
                break
            i, j = off
            # zero diagonal, a_ij != 0: adding row j to row i gives
            # a_ii' = 2 a_ij != 0 in characteristic 3
            addrow(i, j, 1)
            piv = i
            if not a[piv][piv] % 3:
                raise AssertionError("F_3 diagonalization failed")
        for i in live:
            if i != piv and a[i][piv] % 3:
                c = (-a[i][piv] * pow(a[piv][piv], -1, 3)) % 3
                addrow(i, piv, c)
        live.remove(piv)
        done.append(piv)
    # sort: +1 diag first, then 2, then 0
    def key(i):
        d = a[i][i] % 3
        return {1: 0, 2: 1, 0: 2}[d]

    order_idx = sorted(done, key=key)
    change = [basis[i] for i in order_idx]
    newform = [
        [a[order_idx[i]][order_idx[j]] % 3 for j in range(len(order_idx))]
        for i in range(len(order_idx))
    ]
    return change, newform


@st.composite
def symmetric_forms(draw, entries, max_n=8):
    """Random symmetric forms; some with a repeated row and column, some with zero diagonal."""
    n = draw(st.integers(1, max_n))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entries)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        for t in range(n):
            a[j][t] = a[i][t]
        for t in range(n):
            a[t][j] = a[t][i]
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = 0
    return a


@MANY
@given(symmetric_forms(st.integers(-3, 3)))
def test_inertia_matches_rational_reference(a):
    assert inertia(ZGram(a)) == inertia_reference(ZGram(a))


@MANY
@given(symmetric_forms(st.integers(0, 2)))
def test_f3_diagonalization_matches_reference(form):
    assert _f3_diagonalize(form) == f3_diagonalize_reference(form)


def as_e(rows):
    """An int form as a form over E with every entry rational."""
    return [[E(x) for x in row] for row in rows]


@MANY
@given(symmetric_forms(st.integers(-3, 3)))
def test_pivot_minors_are_the_leading_minors_in_the_pivot_basis(a):
    n = len(a)
    order, minors, rows = sym_eliminate_reference([row + list(e) for row, e in zip(a, identity(n, 1))], operator.floordiv)
    assert herm_eliminate(as_e(a)) == minors
    r = len(minors)
    D = [1] + minors
    assert sorted(order) == list(range(n))
    # row k of [form | I] is D_(k-1) times the Gaussian basis vector b_k
    B = [[Fraction(x, D[min(s, r)]) for x in rows[i][n:]] for s, i in enumerate(order)]
    assert det(B, operator.truediv) in (1, -1)
    T = mat_mul(mat_mul(B, a), tuple(zip(*B)))
    diagonal = [Fraction(D[k + 1], D[k]) for k in range(r)] + [0] * (n - r)
    assert T == tuple(tuple(d if i == j else 0 for j in range(n)) for i, d in enumerate(diagonal))
    for k in range(1, r + 1):
        assert det([row[:k] for row in T[:k]], operator.truediv) == D[k]


@MANY
@given(symmetric_forms(st.integers(-3, 3)))
@example([[0, 1], [1, 0]])  # a hyperbolic pair
@example([[0, 2, 0], [2, 0, 0], [0, 0, 0]])  # a pair, then a radical
def test_live_block_elimination_matches_the_full_row_reference(a):
    assert herm_eliminate(as_e(a)) == sym_eliminate_reference(a, operator.floordiv)[1]


# The eager Hermitian elimination, the reference for ``linalg.herm_eliminate`` on forms over E.


def herm_eliminate_reference(rows):
    """The pivot minors of a Hermitian form over E by Bareiss' congruence elimination, eagerly.

    Each step rewrites every live entry: the upper half by a_tu <- (d a_tu -
    a_tp a_pu) / prev, t <= u, and the lower half as its conjugate, with no
    scale left pending on any row.  When every live diagonal entry is zero
    but some a_pj (p < j) is not, conj(u) times row j is added to row p and
    u times column j to column p, with u = 1 when 2 Re(a_pj) = 2a - b is
    nonzero and u = w otherwise.
    """

    def mul(a, b, c, d):  # (a + b w)(c + d w), w^2 = -1 - w
        return a * c - b * d, a * d + b * c - b * d

    A = [[x.a for x in row] for row in rows]
    B = [[x.b for x in row] for row in rows]
    live = list(range(len(A)))
    minors = []
    prev = 1
    while live:
        p = next((i for i in live if A[i][i] or B[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if j > i and (A[i][j] or B[i][j])), None)
            if pair is None:
                break
            p, j = pair
            ua, ub = (1, 0) if 2 * A[p][j] - B[p][j] else (0, 1)
            Ap, Bp, Aj, Bj = A[p], B[p], A[j], B[j]
            for t in live:
                x, y = mul(ua - ub, -ub, Aj[t], Bj[t])  # conj(u) a_jt
                Ap[t] += x
                Bp[t] += y
            for t in live:
                x, y = mul(ua, ub, A[t][j], B[t][j])  # u a_tj
                A[t][p] += x
                B[t][p] += y
        live.remove(p)
        Ap, Bp = A[p], B[p]
        d = Ap[p]
        if Bp[p]:
            raise ArithmeticError(f"pivot {d} + {Bp[p]}w of a Hermitian elimination is not real")
        for s, t in enumerate(live):
            At, Bt = A[t], B[t]
            c, e = At[p], Bt[p]
            for u in live[s:]:
                x, y = Ap[u], Bp[u]
                ey = e * y
                At[u] = a = (d * At[u] - c * x + ey) // prev
                Bt[u] = b = (d * Bt[u] - c * y - e * x + ey) // prev
                A[u][t] = a - b
                B[u][t] = -b
        minors.append(d)
        prev = d
    return minors


def seeded_gram(rng, n, density, band=None, zero_diagonal=False, theta=True):
    """A rank-n Hermitian form over E: each a_ij with i < j <= i + band is nonzero with
    probability density, theta times a small element when theta is set (the Grams of
    ``lattice invariants`` in the benchmark's query mix) or a small element otherwise."""
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = ZERO if zero_diagonal else E(3 * rng.randint(-3, 3))
        for j in range(i + 1, min(n, i + 1 + (band or n))):
            if rng.random() < density:
                x = E(rng.randint(-2, 2), rng.randint(-2, 2))
                g[i][j] = THETA * x if theta else x
                g[j][i] = g[i][j].conj()
    return g


def chain_minors(n):
    """The pivot minors of chain(n), which is 3 on the diagonal and theta next to it.

    Its leading minors obey D_k = 3 D_(k-1) - 3 D_(k-2), since |theta|^2 = 3,
    so they run 3, 6, 9, 9, 0, -27 and then D_(k+6) = -27 D_k.  Where
    D_k = 0 (k = 5 mod 6) index k is live with a zero diagonal entry, so the
    elimination pivots on index k + 1 first, and that minor is 3 D_(k-1);
    chain(n) has rank n - 1 when n = 5 mod 6.
    """
    return [(-27) ** (k // 6) * (3, 6, 9, 9, 27, -27)[k % 6] for k in range(n - (n % 6 == 5))]


@pytest.mark.parametrize("name", sorted(NAMED_LATTICES))
def test_elimination_matches_the_eager_reference_on_the_named_lattices(name):
    g = NAMED_LATTICES[name]().g
    assert herm_eliminate(g) == herm_eliminate_reference(g)


def test_elimination_of_chains_matches_the_eager_reference_and_the_recurrence():
    # the eager reference is cubic on a chain; it gives chain_minors(n) for every n <= 400
    for n in range(1, 61):
        g = chain(n).g
        assert herm_eliminate(g) == herm_eliminate_reference(g) == chain_minors(n)
    for n in [*range(61, 395, 13), *range(395, 401)]:  # every residue mod 6, and the top six
        assert herm_eliminate(chain(n).g) == chain_minors(n)


@pytest.mark.parametrize("n", range(4, 25))
def test_elimination_matches_the_eager_reference_on_dense_theta_grams(n):
    rng = random.Random(f"dense/{n}")
    for density in (0.5, 0.5, 0.5, 1.0, 1.0):
        g = seeded_gram(rng, n, density)
        assert herm_eliminate(g) == herm_eliminate_reference(g)


@pytest.mark.parametrize("seed", range(8))
def test_elimination_matches_the_eager_reference_on_banded_and_sparse_grams(seed):
    # an odd seed zeroes the diagonal, so zero-diagonal steps meet rows with a pending scale
    rng = random.Random(f"sparse/{seed}")
    zero = bool(seed % 2)
    grams = [seeded_gram(rng, rng.randint(20, 50), 0.9, band=band, zero_diagonal=zero) for band in (1, 2, 3)]
    grams += [seeded_gram(rng, rng.randint(20, 50), density, zero_diagonal=zero, theta=False) for density in (0.04, 0.1)]
    for g in grams:
        assert herm_eliminate(g) == herm_eliminate_reference(g)


def test_elimination_matches_the_eager_reference_on_the_integer_forms(monkeypatch):
    """The Bezout forms behind ``quasihomogeneity_check``, the A_n vanishing
    lattices and the Z-realization of lambda, read as forms over E."""
    forms, determinant = [], discpoly.determinant

    def recorded(G):
        forms.append(G.g)
        return determinant(G)

    monkeypatch.setattr(discpoly, "determinant", recorded)
    assert discpoly.quasihomogeneity_check()
    assert len(forms) == 200
    forms += [an_vanishing_gram(n).g for n in (5, 11, 12)] + [z_realization(lambda_()).g]
    for rows in forms:
        assert herm_eliminate(as_e(rows)) == herm_eliminate_reference(as_e(rows))


def test_only_linalg_and_monodromy_reach_the_integer_adjugate():
    """``adjugate`` is named only in linalg and in monodromy's inverse of a
    packed generator, and no module defines ``_complete_e_basis``: the
    E-structure of a Z-lattice comes from one Hermite normal form over E,
    with no solve over Q(w)."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    users, completers = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_complete_e_basis":
                completers.add(path.stem)
            elif (
                (isinstance(node, ast.Name) and node.id == "adjugate")
                or (isinstance(node, ast.Attribute) and node.attr == "adjugate")
                or (isinstance(node, ast.ImportFrom) and any(alias.name == "adjugate" for alias in node.names))
            ):
                users.add(path.stem)
    assert users == {"linalg", "monodromy"}
    assert completers == set()
