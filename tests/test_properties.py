"""Randomized property suites: 1000 cases per family, fixed seeds."""

import random

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
from eisenlat import monodromy as mono
from test_discpoly import int_poly_gcd_nonconstant


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


def test_hermitian_form_axioms_1000():
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(1, 4)
        G = random_herm(rng, n)
        x, y = random_vec(rng, n), random_vec(rng, n)
        c = E(rng.randint(-4, 4), rng.randint(-4, 4))
        assert ip(G, x, y) == ip(G, y, x).conj()
        cx = tuple(c * a for a in x)
        assert ip(G, cx, y) == c * ip(G, x, y)
        s = tuple(a + b for a, b in zip(x, y))
        assert ip(G, s, y) == ip(G, x, y) + ip(G, y, y)


def test_generated_elements_preserve_form_1000():
    rng = random.Random(2027)
    G = chain(4)
    gens = mono.chain_triflections(4)
    gens = gens + [g * g for g in gens]  # include the inverse triflections
    for _ in range(1000):
        w = mono.word_eval([gens[rng.randrange(len(gens))] for _ in range(4)])
        assert is_isometry(G, w.m)


def test_f3_reduce_homomorphism_1000():
    rng = random.Random(2028)
    G = chain(4)
    gens = mono.chain_triflections(4)
    words = [
        mono.word_eval([gens[rng.randrange(4)] for _ in range(3)]) for _ in range(60)
    ]
    sg = mono.symplectic_gram(G)
    n = 4
    count = 0
    while count < 1000:
        w1 = words[rng.randrange(len(words))]
        w2 = words[rng.randrange(len(words))]
        lhs = mono.f3_reduce(w1 * w2)
        r1, r2 = mono.f3_reduce(w1), mono.f3_reduce(w2)
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
        assert nv.is_real() and nv.a % 3 == 0


def test_reduce_mod_theta_kernel_1000():
    rng = random.Random(2031)
    for _ in range(1000):
        x = E(rng.randint(-99, 99), rng.randint(-99, 99))
        lift = E(reduce_mod_theta(x))
        assert not (x - lift) % THETA
