"""Layer spans recorded from outside the program.

A `Tracer` replaces selected public functions of the eisenlat modules with
timing wrappers.  Every module that bound the same function object (for
example through ``from .hermitian import mat_mul``) gets the wrapper too, so
calls are seen whichever module makes them.  Self time is a span's duration
minus the part covered by nested traced spans.  `Tracer.uninstall` puts every
replaced binding back.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time

# module -> public functions whose self time and call count are reported
LAYERS = {
    "monodromy": [
        "free_action_check",
        "reflections_in",
        "group_closure",
        "word_eval",
        "order",
        "projective_order",
    ],
    "gluing": ["hyperplane_orbit", "enumerate_norm", "disc_group", "isotropic_lines", "glue"],
    "hermitian": ["det_e", "signature", "z_realization", "mat_mul", "is_isometry"],
    "zlattice": ["inertia", "determinant"],
    "hnf": ["hnf_columns_e", "snf_e"],
    "discpoly": ["a11_coeff", "a11_delta"],
    "residues": ["hodge_vector", "full_report"],
    "cli": ["main"],
}

# the verify checks that took more than 0.1 s at the seed; the rest are summed
HEAVY_CHECKS = [
    "free-action-r4",
    "group-orders",
    "hyperplane-orbit",
    "a11-rigidity-coefficients",
    "glue-recovers-lambda",
]

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.self_s", "s"))
        out.append((f"{span}.calls", "count"))
    for op in MICROBENCH_OPS:
        out.append((f"eisenstein.{op}_ns", "ns"))
    for name in HEAVY_CHECKS:
        out.append((f"verify.check.{name}_s", "s"))
    out.append(("verify.other_checks_s", "s"))
    return out


def _eisenlat_modules():
    return [m for name, m in list(sys.modules.items()) if name == "eisenlat" or name.startswith("eisenlat.")]


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self._stack = []  # time covered by nested spans, one entry per open span
        self._replaced = []  # (owner, attribute, original)

    def _span(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - nested
                self.total_s[name] = self.total_s.get(name, 0.0) + dt
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1] += dt

        return traced

    def install(self):
        for mod in LAYERS:
            importlib.import_module(f"eisenlat.{mod}")
        verify = importlib.import_module("eisenlat.verify")
        modules = _eisenlat_modules()
        for mod, fns in LAYERS.items():
            owner = sys.modules[f"eisenlat.{mod}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapped = self._span(f"{mod}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replaced.append((m, attr, original))
                            setattr(m, attr, wrapped)
        for chk in verify.registered_checks():
            self._replaced.append((chk, "fn", chk.fn))
            chk.fn = self._span(f"verify.check.{chk.name}", chk.fn)
        return self

    def uninstall(self):
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self):
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.self_s"] = self.self_s.get(span, 0.0)
            out[f"{span}.calls"] = self.calls.get(span, 0)
        # checks are reported inclusive of the layers they call
        checks = {k[len("verify.check."):]: t for k, t in self.total_s.items() if k.startswith("verify.check.")}
        for name in HEAVY_CHECKS:
            out[f"verify.check.{name}_s"] = checks.get(name, 0.0)
        out["verify.other_checks_s"] = sum(t for name, t in checks.items() if name not in HEAVY_CHECKS)
        return out


def wrapper_cost_s(calls=20000, repeats=5):
    """Seconds that tracing adds to one call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer()._span("noop", noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, (best(traced) - best(noop)) / calls)


MICROBENCH_OPS = ["mul", "exact_div", "qomega_mul", "qomega_inverse"]
MICROBENCH_SEED = 20060608
MICROBENCH_SIZE = 4000
MICROBENCH_REPEATS = 7


def microbench():
    """Nanoseconds per Z[w] / Q(w) operation on fixed seeded operands (median of repeats)."""
    from fractions import Fraction

    from eisenlat.eisenstein import EisensteinInt, QOmega

    rng = random.Random(MICROBENCH_SEED)

    def e():
        x = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        return x if x else EisensteinInt(1)

    def q():
        x = QOmega(Fraction(rng.randint(-999, 999), rng.randint(1, 999)), Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
        return x if x else QOmega(1)

    xs = [e() for _ in range(MICROBENCH_SIZE)]
    ys = [e() for _ in range(MICROBENCH_SIZE)]
    prods = [x * y for x, y in zip(xs, ys)]
    qs = [q() for _ in range(MICROBENCH_SIZE)]
    rs = [q() for _ in range(MICROBENCH_SIZE)]
    cases = {
        "mul": lambda: [x * y for x, y in zip(xs, ys)],
        "exact_div": lambda: [p.exact_div(y) for p, y in zip(prods, ys)],
        "qomega_mul": lambda: [x * y for x, y in zip(qs, rs)],
        "qomega_inverse": lambda: [x.inverse() for x in qs],
    }
    out = {}
    for op in MICROBENCH_OPS:
        times = []
        for _ in range(MICROBENCH_REPEATS):
            t0 = time.perf_counter()
            cases[op]()
            times.append(time.perf_counter() - t0)
        times.sort()
        out[f"eisenstein.{op}_ns"] = times[len(times) // 2] / MICROBENCH_SIZE * 1e9
    return out
