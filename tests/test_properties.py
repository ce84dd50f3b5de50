"""Property suites of 1000 cases per family: Hypothesis derandomized, or fixed seeds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlat.eisenstein import E, THETA, reduce_mod_theta
from eisenlat.hermitian import (
    HermGram,
    chain,
    ip,
    is_isometry,
    lambda_,
    norm_of,
)
from eisenlat import discpoly as dp
from eisenlat import gluing
from eisenlat import monodromy as mono
from test_discpoly import int_poly_gcd_nonconstant

# derandomized, so every run draws the same 1000 cases
THOUSAND = settings(derandomize=True, max_examples=1000, deadline=None, database=None)
small = st.builds(E, st.integers(-3, 3), st.integers(-3, 3))


def random_vec(rng, n, bound=3):
    return tuple(
        E(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)
    )


@st.composite
def forms_with_vectors(draw):
    """A Hermitian Gram of rank 1..4 with entries in [-3, 3], two vectors and a scalar."""
    n = draw(st.integers(1, 4))
    rows = [[E(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = E(draw(st.integers(-3, 3)))
        for j in range(i):
            v = draw(small)
            rows[i][j], rows[j][i] = v.conj(), v
    vectors = st.tuples(*[small] * n)
    return HermGram(rows), draw(vectors), draw(vectors), draw(st.builds(E, st.integers(-4, 4), st.integers(-4, 4)))


@THOUSAND
@given(forms_with_vectors())
def test_hermitian_form_axioms_1000(case):
    G, x, y, c = case
    assert ip(G, x, y) == ip(G, y, x).conj()
    cx = tuple(c * a for a in x)
    assert ip(G, cx, y) == c * ip(G, x, y)
    s = tuple(a + b for a, b in zip(x, y))
    assert ip(G, s, y) == ip(G, x, y) + ip(G, y, y)


# the triflections of chain(4) and their squares, the inverse triflections
CHAIN4_LETTERS = mono.chain_triflections(4) + [g * g for g in mono.chain_triflections(4)]


@THOUSAND
@given(st.lists(st.sampled_from(CHAIN4_LETTERS), min_size=4, max_size=4))
def test_generated_elements_preserve_form_1000(word):
    assert is_isometry(chain(4), mono.word_eval(word).m)


def test_f3_reduce_homomorphism_1000():
    rng = random.Random(2028)
    G = chain(4)
    gens = mono.chain_triflections(4)
    words = [
        mono.word_eval([gens[rng.randrange(4)] for _ in range(3)]) for _ in range(60)
    ]
    sg = gluing.symplectic_gram(G)
    n = 4
    count = 0
    while count < 1000:
        w1 = words[rng.randrange(len(words))]
        w2 = words[rng.randrange(len(words))]
        lhs = gluing.f3_reduce(w1 * w2)
        r1, r2 = gluing.f3_reduce(w1), gluing.f3_reduce(w2)
        rhs = tuple(
            tuple(sum(r1[i][k] * r2[k][j] for k in range(n)) % 3 for j in range(n))
            for i in range(n)
        )
        assert lhs == rhs
        count += 1


def test_discriminant_gcd_equivalence_1000():
    rng = random.Random(2029)
    done = 0
    while done < 1000:
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        if rng.random() < 0.4:
            a = rng.randint(-3, 3)
            base = coeffs[: deg - 1] + [1]
            poly = [0] * (len(base) + 2)
            for i, c in enumerate(base):
                poly[i] += c * a * a
                poly[i + 1] += -2 * a * c
                poly[i + 2] += c
            coeffs = poly
        f = dp.poly_trim(coeffs)
        if dp.poly_deg(f) < 2:
            continue
        d = dp.discriminant(f)
        shared = int_poly_gcd_nonconstant(f, dp.poly_derivative(f))
        assert (d == 0) == shared
        done += 1


def test_theta_dual_norms_1000():
    rng = random.Random(2030)
    L = lambda_()
    for _ in range(1000):
        v = random_vec(rng, 11, 2)
        nv = norm_of(L, v)
        assert nv.b == 0 and nv.a % 3 == 0


def test_reduce_mod_theta_kernel_1000():
    rng = random.Random(2031)
    for _ in range(1000):
        x = E(rng.randint(-99, 99), rng.randint(-99, 99))
        lift = E(reduce_mod_theta(x))
        assert not (x - lift) % THETA
