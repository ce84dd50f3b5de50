"""Tests of the benchmark itself: tracing, answer checks, seeded inputs, host-speed scaling.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from eisenlat import cli, hermitian, monodromy, verify  # noqa: E402


def _bindings():
    """Every eisenlat module attribute and check function, by identity."""
    out = {(name, attr): id(value) for name, mod in list(sys.modules.items()) if name.startswith("eisenlat") for attr, value in vars(mod).items()}
    out.update({("check", c.name): id(c.fn) for c in verify.registered_checks()})
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    originals = {(mod, fn): getattr(sys.modules[f"eisenlat.{mod}"], fn) for mod, fns in tracer.LAYERS.items() for fn in fns}
    t = tracer.Tracer()
    with t:
        for original in originals.values():
            for name, mod in sys.modules.items():
                if name.startswith("eisenlat"):
                    assert all(value is not original for value in vars(mod).values()), name
        # monodromy binds mat_mul with `from .hermitian import mat_mul`
        assert monodromy.mat_mul is hermitian.mat_mul is not originals[("hermitian", "mat_mul")]
        G = hermitian.chain(2)
        a1 = monodromy.triflection(G, hermitian.basis_vector(2, 0))
        assert monodromy.order(a1) == 3
    assert t.calls["hermitian.mat_mul"] > 0 and t.calls["monodromy.order"] == 1
    assert t.self_s["monodromy.order"] <= t.total_s["monodromy.order"]
    assert _bindings() == before


def _small_query_mix():
    queries = workloads.make_inputs("query-mix", 0)["queries"]
    cheap = {
        "lattice": lambda q: q["n"] <= 8,
        "word": lambda q: True,
        "a11": lambda q: q["unknowns"] <= 4,
        "hodge": lambda q: True,
        "f3": lambda q: len(q["form"]) <= 4,
    }
    picked = [next(q for q in queries if q["kind"] == kind and ok(q)) for kind, ok in cheap.items()]
    return {"workload": "query-mix", "queries": picked}


def test_corrupted_answer_counts_as_failed(tmp_path, monkeypatch):
    inputs = workloads.load_inputs(workloads.write_inputs(_small_query_mix(), tmp_path))
    spans, attempted, check = workloads.run_pass(inputs)
    assert len(spans) == attempted == 5 and check() == []

    real_det_e = cli.det_e
    monkeypatch.setattr(cli, "det_e", lambda G: real_det_e(G) + 1)
    spans, attempted, check = workloads.run_pass(inputs)
    failures = check()
    assert len(failures) == 1 and "lattice" in failures[0]
    assert len(failures) / attempted > 0  # ops_failed_frac


def test_verify_rows_are_compared_with_the_golden_report():
    golden = workloads.GOLDEN_VERIFY.read_text()
    # central-scalar-4 is FAIL in the golden report, so the golden report itself passes
    assert workloads.verify_failures(golden, 1, golden) == []
    report = json.loads(golden)
    report["checks"][3]["computed"] = "corrupted"
    corrupted = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert len(workloads.verify_failures(golden, 1, corrupted)) == 1
    assert len(workloads.verify_failures(golden, 0, golden)) == 1  # wrong exit code
    assert len(workloads.verify_failures(golden, None, None)) == len(report["checks"])


def test_group_enum_checks_use_known_values():
    log = workloads.OpLog()
    log.run("closure R2", lambda: 24, lambda order: order == workloads.GROUP_ORDERS[2])
    log.run("closure R3", lambda: 647, lambda order: order == workloads.GROUP_ORDERS[3])
    log.run("raises", lambda: 1 / 0, lambda _: True)
    assert [f.split(":")[0] for f in log.failures()] == ["closure R3", "raises"]
    assert workloads.f3_vectors_of_norm([1, -1], 0) == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    if workload != "verify-full":  # verify-full has no inputs to vary
        assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_query_mix_stays_bounded():
    from eisenlat.discpoly import _weight_132_exponents

    inputs = workloads.make_inputs("query-mix", 3)
    queries = inputs["queries"]
    assert len(queries) >= 300
    assert inputs["summary"]["counts"] == {kind: workloads.QUERIES_PER_KIND for kind in workloads.QUERY_KINDS}
    for q in queries:
        if q["kind"] == "a11":
            assert len(q["variables"]) <= 3 and q["unknowns"] <= 20
            assert q["unknowns"] == len(_weight_132_exponents(q["variables"]))
        if q["kind"] == "word":
            assert 1 <= q["n"] <= 4


def test_parse_e_inverts_str():
    from eisenlat.eisenstein import EisensteinInt

    for a, b in [(3, 0), (0, 2), (0, -1), (1, 2), (-1, -1), (-7, 5), (0, 0)]:
        assert workloads.parse_e(str(EisensteinInt(a, b))) == (a, b)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_factor_of_a_request_uses_the_samples_taken_while_it_ran():
    s = hostspeed.Sampler()
    s.times = [0.0, 0.5, 1.0, 5.0, 5.1, 20.0]
    s.samples = [0.006, 0.006, 0.006, 0.003, 0.003, 0.001]
    ref = hostspeed.REF_KERNEL_S
    assert s.factor() == pytest.approx(ref / (0.025 / 6))
    assert s.factor_over(4.9, 0.1) == pytest.approx(ref / 0.003)  # window widened to 1 s
    assert s.factor_over(0.0, 1.0) == pytest.approx(ref / 0.006)
    assert s.factor_over(10.0, 0.01) == pytest.approx(s.factor())  # no sample near: all of them


def test_sampler_times_the_kernel_while_a_pass_runs():
    with hostspeed.Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.PERIOD_S:
            sum(range(1000))
    assert len(s.samples) == len(s.times) >= 2
    assert all(k > 0 for k in s.samples) and s.cpu_s >= sum(s.samples)
    assert s.factor_over(t0, time.perf_counter() - t0) > 0
