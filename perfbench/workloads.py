"""Seeded inputs, one measured pass, and the answer checks of each workload.

`make_inputs` runs in the parent process before any child starts; it imports
only `eisenlat.discpoly`, to count the unknowns of the a11 queries, and that
import does not reach the children, which start cold.  `run_pass` runs in a
fresh child interpreter; it returns the start and latency of every request,
the number of operations, and a callable that afterwards checks every answer
against a known value or an independent identity.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

WORKLOADS = ("query-mix", "group-enum", "verify-full")

GOLDEN_VERIFY = Path(__file__).resolve().parent / "golden_verify.json"

# known values: |R_n| for the chain closures, and reflection counts of R_2..R_4
GROUP_ORDERS = {1: 3, 2: 24, 3: 648, 4: 155520}
REFLECTION_COUNTS = {2: 8, 3: 24, 4: 80}
HYPERPLANE_ORBIT = (3**10 - 1) // 2  # 29524: Sp(10, F3) is transitive on lines

GROUP_ENUM_STARTS = 5  # seeded orbit starts besides the default one
NORM_FORM_RANK = 9

# every query kind gets the same number of queries, so no layer is weighted by hand
QUERY_KINDS = ("lattice", "word", "a11", "hodge", "f3")
QUERIES_PER_KIND = 128
LATTICE_RANKS = (4, 24)
WORD_MAX_LETTERS = 16
A11_MAX_VARIABLES = 3
A11_MAX_UNKNOWNS = 20  # a 4-variable system can run for minutes
A11_STRATA = 8  # the eligible variable sets, sorted by unknowns, in this many equal strata
HODGE_MAX_MONOMIALS = 3000
F3_RANKS = (2, 8)


# ------------------------------------------------------------------ inputs


def make_inputs(workload, seed):
    """JSON-serialisable inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-full":
        return {"workload": workload, "argv": ["verify", "--json"]}
    if workload == "group-enum":
        starts = []
        while len(starts) < GROUP_ENUM_STARTS:
            v = [rng.randrange(3) for _ in range(10)]
            if any(v):
                starts.append(v)
        form = [rng.choice((1, 2)) for _ in range(NORM_FORM_RANK)]
        return {"workload": workload, "orbit_starts": starts, "norm_form": form, "norms": [0, 1]}
    if workload == "query-mix":
        c = QUERIES_PER_KIND
        queries = (
            [_lattice_query(rng, n) for n in _spread(LATTICE_RANKS, c)]
            + [_word_query(rng, n) for n in _spread((1, 4), c)]
            + _a11_queries(rng, c)
            + [_hodge_query(rng) for _ in range(c)]
            + [_f3_query(rng, k) for k in _spread(F3_RANKS, c)]
        )
        rng.shuffle(queries)
        return {"workload": workload, "queries": queries, "summary": _query_summary(queries)}
    raise ValueError(f"unknown workload {workload!r}")


def _spread(bounds, count):
    """count sizes spread evenly over lo..hi, so every seed does about the same work."""
    lo, hi = bounds
    return [lo + i * (hi - lo + 1) // count for i in range(count)]


def _theta_times(a, b):
    """(a + b w) * theta with theta = 1 + 2w, as a pair."""
    return (a - 2 * b, 2 * a - b)


def _lattice_query(rng, n):
    """A random rank-n Hermitian Gram with every entry in theta*E, so its Z-realization is integral."""
    g = [[[0, 0] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        g[i][i] = [3 * rng.randint(-3, 3), 0]
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                x, y = _theta_times(rng.randint(-2, 2), rng.randint(-2, 2))
                g[i][j] = [x, y]
                g[j][i] = [x - y, -y]  # conjugate of x + y w
    return {"kind": "lattice", "n": n, "gram": {"n": n, "g": g}}


def _word_query(rng, n):
    letters = []
    for _ in range(rng.randint(1, WORD_MAX_LETTERS)):
        i = rng.randint(1, n)
        letters.append(f"a{i}^2" if rng.random() < 0.2 else f"a{i}")
    word = " ".join(letters)
    return {
        "kind": "word",
        "n": n,
        "word": word,
        "argv": ["monodromy", "word-order", "--lattice", f"chain:{n}", "--word", word, "--json"],
    }


@functools.cache
def a11_variable_sets():
    """The eligible variable sets, sorted by unknowns: (variables, exponent tuples
    using every variable, number of unknowns)."""
    from eisenlat.discpoly import _weight_132_exponents

    out = []
    for r in range(1, A11_MAX_VARIABLES + 1):
        for vs in itertools.combinations(range(2, 13), r):
            exps = _weight_132_exponents(vs)
            full = [e for e in exps if all(e)]
            if full and len(exps) <= A11_MAX_UNKNOWNS:
                out.append((vs, full, len(exps)))
    return sorted(out, key=lambda s: s[2])


def _a11_queries(rng, count):
    """count monomials on variable sets drawn uniformly, with replacement, from the
    eligible sets.  The draw is stratified by unknowns (query i draws from stratum
    i mod A11_STRATA), so every seed does about the same work; repeated sets, which
    a cache could serve, are left to the draw."""
    ranked = a11_variable_sets()
    strata = [ranked[j * len(ranked) // A11_STRATA : (j + 1) * len(ranked) // A11_STRATA] for j in range(A11_STRATA)]
    out = []
    for i in range(count):
        vs, full, unknowns = rng.choice(strata[i % A11_STRATA])
        exps = rng.choice(full)
        out.append(
            {
                "kind": "a11",
                "variables": list(vs),
                "exponents": list(exps),
                "unknowns": unknowns,
                "fresh_point": [rng.choice((-1, 1)) * rng.randint(10, 40) for _ in vs],
                "argv": ["disc", "a11-coeff", "--monomial", " ".join(f"u{v}^{e}" for v, e in zip(vs, exps)), "--json"],
            }
        )
    return out


def _hodge_query(rng):
    while True:
        degree = rng.choice((2, 3, 4, 6, 8, 9, 10, 12))
        divisors = [w for w in range(1, degree) if degree % w == 0]
        weights = [rng.choice(divisors) for _ in range(rng.randint(3, 6))]
        size = 1
        for w in weights:
            size *= degree // w - 1
        if size <= HODGE_MAX_MONOMIALS:
            break
    return {
        "kind": "hodge",
        "weights": weights,
        "degree": degree,
        "argv": ["hodge", "report", "--weights", ",".join(map(str, weights)), "--degree", str(degree), "--json"],
    }


def _f3_query(rng, k):
    form = [rng.choice((1, -1)) for _ in range(k)]
    norm = rng.randrange(3)
    return {
        "kind": "f3",
        "form": form,
        "norm": norm,
        "argv": ["f3", "norm-enum", "--form=" + ",".join(map(str, form)), "--norm", str(norm), "--json"],
    }


def _query_summary(queries):
    seen = set()
    repeats = 0
    unknowns = 0
    a11 = [q for q in queries if q["kind"] == "a11"]
    for q in a11:
        key = tuple(q["variables"])
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
            unknowns += q["unknowns"]
    return {
        "counts": {kind: sum(q["kind"] == kind for q in queries) for kind in QUERY_KINDS},
        "a11_repeat_frac": repeats / len(a11),
        "a11_distinct_variable_sets": len(seen),
        "a11_unknowns": unknowns,
    }


def write_inputs(inputs, workdir):
    """Write the inputs (and one JSON Gram file per lattice query) under workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, q in enumerate(inputs.get("queries", ())):
        if q["kind"] == "lattice":
            path = workdir / f"gram_{i:04d}.json"
            path.write_text(json.dumps(q["gram"]))
            q["argv"] = ["lattice", "invariants", "--name", str(path), "--json"]
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs))
    return path


def load_inputs(path):
    inputs = json.loads(Path(path).read_text())
    if inputs["workload"] == "verify-full":
        inputs["golden"] = GOLDEN_VERIFY.read_text()
    return inputs


# ------------------------------------------------------------------ passes


def run_cli(argv):
    """eisenlat.cli.main(argv) with captured output: (exit code, stdout)."""
    from eisenlat import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class OpLog:
    """Latency, answer or error of each operation; answers are checked later."""

    def __init__(self):
        self.ops = []

    def run(self, label, fn, check):
        t0 = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # an operation that raises is a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.ops.append((label, (t0, time.perf_counter() - t0), value, error, check))
        return value

    def spans(self):
        return [op[1] for op in self.ops]

    def failures(self):
        out = []
        for label, _, value, error, check in self.ops:
            if error is None:
                try:
                    if check(value):
                        continue
                    error = "wrong answer"
                except Exception as exc:  # a malformed answer is a wrong answer
                    error = f"unreadable answer ({type(exc).__name__}: {exc})"
            out.append(f"{label}: {error}")
        return out


def run_pass(inputs):
    """One pass of the workload: ((start, seconds) of each request, number of
    operations, callable returning the failed operations)."""
    workload = inputs["workload"]
    if workload == "verify-full":
        return _verify_pass(inputs)
    log = OpLog()
    if workload == "group-enum":
        # a batch job, like verify: its one request is the whole pass, each layer call one operation
        t0 = time.perf_counter()
        _group_enum_pass(inputs, log)
        return [(t0, time.perf_counter() - t0)], len(log.ops), log.failures
    for i, q in enumerate(inputs["queries"]):
        log.run(f"query {i} ({q['kind']})", lambda q=q: run_cli(q["argv"]), _query_check(q))
    return log.spans(), len(log.ops), log.failures


def _verify_pass(inputs):
    """The whole command is the user's one request; each of its checks is one operation."""
    t0 = time.perf_counter()
    try:
        code, out = run_cli(inputs["argv"])
    except Exception:  # a check that raises aborts the report: every check counts as failed
        code, out = None, None
    latency = time.perf_counter() - t0
    golden = inputs["golden"]
    return [(t0, latency)], len(json.loads(golden)["checks"]), lambda: verify_failures(golden, code, out)


def verify_failures(golden, code, out):
    """Rows of the report that differ from the golden report (at least one if any byte differs)."""
    gold = json.loads(golden)
    want_code = 0 if gold["summary"]["failed"] == 0 else 1
    if out == golden and code == want_code:
        return []
    try:
        got = {r["name"]: r for r in json.loads(out)["checks"]}
    except (TypeError, ValueError, KeyError):
        got = {}
    failures = [f"verify {r['name']}: differs from the golden report" for r in gold["checks"] if got.get(r["name"]) != r]
    return failures or [f"verify report: differs from the golden report (exit {code})"]


def _group_enum_pass(inputs, log):
    from eisenlat import gluing
    from eisenlat import monodromy as mono
    from eisenlat.hermitian import lambda10, norm_of

    handles = {}
    for n in GROUP_ORDERS:
        handles[n] = log.run(
            f"closure R{n}",
            lambda n=n: mono.group_closure(mono.chain_triflections(n)),
            lambda h, n=n: h.order == GROUP_ORDERS[n],
        )
    for n in REFLECTION_COUNTS:
        log.run(
            f"reflections_in R{n}",
            lambda n=n: mono.reflections_in(handles[n]),
            lambda refl, n=n: len(refl) == REFLECTION_COUNTS[n]
            and all(norm_of(handles[n].ambient, root) == 3 for root, _ in refl),
        )
    G = lambda10()
    roots = gluing.sp_generating_roots()
    for start in [None] + inputs["orbit_starts"]:
        log.run(
            f"hyperplane_orbit from {start or 'default'}",
            lambda start=start: gluing.hyperplane_orbit(roots, G, start=start),
            lambda res: res == (HYPERPLANE_ORBIT, len(roots)),
        )
    form = inputs["norm_form"]
    k = len(form)
    space = gluing.F3QuadSpace(None, k, tuple(tuple(form[i] if i == j else 0 for j in range(k)) for i in range(k)), [None] * k, None)
    for c in inputs["norms"]:
        log.run(
            f"enumerate_norm {c} on {form}",
            lambda c=c: gluing.enumerate_norm(space, c),
            lambda vecs, c=c: sorted(map(tuple, vecs)) == f3_vectors_of_norm(form, c),
        )


# ------------------------------------------------------------------ checks


def _query_check(q):
    checks = {
        "lattice": check_lattice,
        "word": check_word,
        "a11": check_a11,
        "hodge": check_hodge,
        "f3": check_f3,
    }
    check = checks[q["kind"]]

    def run(value):
        code, out = value
        return code == 0 and check(q, json.loads(out))

    return run


_E_PATTERN = re.compile(r"^(-?\d+)$|^(-?\d+)w$|^(-?\d+)([+-]\d+)w$")


def parse_e(text):
    """Inverse of str(EisensteinInt): "3", "2w", "1+2w" -> (a, b)."""
    m = _E_PATTERN.match(text)
    if not m:
        raise ValueError(f"not an Eisenstein integer: {text!r}")
    if m.group(1):
        return int(m.group(1)), 0
    if m.group(2):
        return 0, int(m.group(2))
    return int(m.group(3)), int(m.group(4))


def check_lattice(q, out):
    """|det_E|^2 / 3^n = |det_Z| and Z-inertia = 2 * Hermitian signature."""
    from eisenlat import zlattice
    from eisenlat.hermitian import HermGram, z_realization

    n = q["n"]
    Z = z_realization(HermGram.from_json(q["gram"]))
    a, b = parse_e(out["det"])
    det_norm = a * a - a * b + b * b
    p, r, m = out["signature"]
    ok = (
        out["rank"] == n
        and det_norm == 3**n * abs(zlattice.determinant(Z))
        and tuple(zlattice.inertia(Z)) == (2 * p, 2 * r, 2 * m)
        and out["in_theta_dual"] is True
    )
    if det_norm:
        ok = ok and out["theta_self_dual"] == (det_norm == 3**n)
    return ok


def _companion(m):
    """E-matrix as a 2n x 2n integer matrix, w acting as [[0, -1], [1, -1]]."""
    n = len(m)
    out = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            a, b = m[i][j].a, m[i][j].b
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = [[a, -b], [b, a - b]]
    return out


def _mat_pow(M, k):
    out = np.eye(M.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = out @ M
        M = M @ M
        k >>= 1
        # elements of a finite group have small entries; a large one means a wrong element
        if np.abs(M).max() > 2**20 or np.abs(out).max() > 2**20:
            raise OverflowError("entries too large for an element of a finite group")
    return out


def _prime_factors(k):
    out, p = set(), 2
    while p * p <= k:
        while k % p == 0:
            out.add(p)
            k //= p
        p += 1
    if k > 1:
        out.add(k)
    return out


def check_word(q, out):
    """k divides |R_n|, M^k = I and M^(k/p) != I for every prime p dividing k."""
    from eisenlat import monodromy as mono
    from eisenlat.cli import parse_word
    from eisenlat.hermitian import basis_vector, chain

    n = q["n"]
    k = int(out["order"])
    G = chain(n)
    gens = {i: _companion(mono.triflection(G, basis_vector(n, i - 1)).m) for i in range(1, n + 1)}
    M = np.eye(2 * n, dtype=np.int64)
    for i in parse_word(q["word"]):
        M = M @ gens[i]
    ident = np.eye(2 * n, dtype=np.int64)
    return (
        GROUP_ORDERS[n] % k == 0
        and np.array_equal(_mat_pow(M, k), ident)
        and all(not np.array_equal(_mat_pow(M, k // p), ident) for p in _prime_factors(k))
    )


def check_a11(q, out):
    """The interpolated restricted delta equals a11_delta at a fresh point, and the
    printed coefficient is that interpolant's coefficient, looked up in its table
    directly rather than through a11_coeff."""
    from eisenlat import discpoly

    vs = q["variables"]  # sorted, as the interpolant's table keys its exponents
    point = q["fresh_point"]
    table = discpoly._restricted_coefficients(tuple(vs))
    return (
        out["weight"] == 132
        and discpoly.reconstructed_delta_eval(vs, point) == discpoly.a11_delta(dict(zip(vs, point)))
        and int(out["coefficient"]) == table.get(tuple(q["exponents"]), 0)
    )


def fermat_hodge_numbers(weights, degree):
    """h^(dim-q, q) of sum x_i^(d/w_i): Jacobian monomials with sum w_i (e_i + 1) = (q + 1) d."""
    caps = [degree // w - 2 for w in weights]
    dim = len(weights) - 2
    counts = [0] * (dim + 1)
    for e in itertools.product(*(range(c + 1) for c in caps)):
        s = sum(w * (x + 1) for w, x in zip(weights, e))
        if s % degree == 0 and 1 <= s // degree <= dim + 1:
            counts[s // degree - 1] += 1
    return counts


def check_hodge(q, out):
    """Hodge numbers equal the Fermat monomial count and are symmetric."""
    h = out["hodge_numbers"]
    return h == fermat_hodge_numbers(q["weights"], q["degree"]) and h == h[::-1]


def f3_vectors_of_norm(form, c):
    """Sorted vectors v of F_3^k with sum form_i v_i^2 = c (mod 3), by brute force."""
    k = len(form)
    vecs = np.indices((3,) * k).reshape(k, -1).T
    norms = (vecs**2 @ (np.array(form) % 3)) % 3
    return sorted(map(tuple, vecs[norms == c % 3].tolist()))


def check_f3(q, out):
    vecs = sorted(map(tuple, out["vectors"]))
    return out["count"] == len(vecs) and vecs == f3_vectors_of_norm(q["form"], q["norm"])
