import ast
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from eisenlat import cli
from eisenlat.hermitian import chain, lambda_


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def stock_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def int_rows():
    """Lists of int rows of one width, each a list or a tuple."""
    return st.integers(0, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(), min_size=m, max_size=m).flatmap(lambda r: st.sampled_from([r, tuple(r)])),
            max_size=6,
        )
    )


scalars = st.one_of(
    st.integers(), st.booleans(), st.none(), st.floats(), st.text(), st.text(alphabet="\"\\/\b\f\n\r\t\x00\x1féλ€😀")
)
int_lists = st.lists(st.one_of(st.integers(), st.booleans()))  # True must stay true among ints
payloads = st.recursive(
    st.one_of(scalars, int_lists, int_rows(), st.lists(st.lists(st.integers(), max_size=3))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        # json writes these keys as strings; one key type per dict, as keys of mixed types do not sort
        *(st.dictionaries(k, inner, max_size=3) for k in (st.integers(), st.booleans(), st.floats(allow_nan=False), st.none())),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(payloads)
def test_json_writer_matches_the_stock_encoder(obj):
    assert cli._dumps(obj) == stock_dumps(obj)


def plain(obj):
    """obj with every numpy array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


digit_arrays = arrays(np.int8, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=st.integers(0, 9))
# arrays off the digit path: entries just outside 0..9, other dtypes and ranks
near_digit_arrays = arrays(
    st.sampled_from([np.int8, np.int64]), array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4), elements=st.integers(-2, 11)
)
other_arrays = arrays(
    st.sampled_from([np.int8, np.int64, np.uint8, np.bool_]), array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
)
array_payloads = st.recursive(
    st.one_of(digit_arrays, near_digit_arrays, other_arrays, scalars),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(array_payloads)
def test_json_writer_matches_the_stock_encoder_on_arrays(obj):
    assert cli._dumps(obj) == stock_dumps(plain(obj))


@pytest.mark.parametrize(
    "a",
    [
        np.array([[9, 10]]),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[1, 2], [3, 4]], dtype=np.uint64)[:, ::-1],
        np.array([[True, False]]),
        np.zeros((2, 0), np.int8),
        np.zeros((0, 3), np.int8),
    ],
)
def test_json_writer_keeps_the_digit_path_to_digits(a):
    assert cli._dumps({"a": [a]}) == stock_dumps({"a": [a.tolist()]})


@pytest.mark.parametrize("k", range(1, 10))
def test_f3_norm_enum_writes_what_the_stock_encoder_and_str_write(k, capsys):
    form = [1 if i % 3 else -1 for i in range(k)]
    for c in range(3):
        # every vector of norm c by brute force, coordinate 0 varying fastest
        expected = [
            v[::-1] for v in itertools.product(range(3), repeat=k) if sum(f * x * x for f, x in zip(form, v[::-1])) % 3 == c
        ]
        argv = ["f3", "norm-enum", "--form=" + ",".join(map(str, form)), "--norm", str(c)]
        code, out, _ = run_main(argv + ["--json"], capsys)
        assert code == 0
        assert out == stock_dumps({"count": len(expected), "vectors": [list(v) for v in expected]}) + "\n"
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out == "\n".join([f"count: {len(expected)}"] + [str(v) for v in expected]) + "\n"


@pytest.mark.parametrize("rows", [1, 4, 5, 12])
def test_f3_norm_enum_text_is_the_same_in_any_block_size(rows, capsys, monkeypatch):
    # 12 rows of norm 1 on (1, -1, 1): blocks that divide them exactly, and ones that leave a tail
    argv = ["f3", "norm-enum", "--form", "1,-1,1", "--norm", "1"]
    _, expected, _ = run_main(argv, capsys)
    monkeypatch.setattr(cli, "_TEXT_ROWS", rows)
    assert run_main(argv, capsys) == (0, expected, "")
    assert expected.count("\n") == 13


def test_importing_the_cli_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys\nimport eisenlat.cli\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "make", "--name", "lambda"],
        ["lattice", "invariants", "--name", "lambda10"],
        ["lattice", "z-realization", "--name", "chain:3"],
        ["monodromy", "word-order", "--lattice", "chain:4", "--word", "a1 a2 a3^2 a4"],
        ["monodromy", "closure", "--lattice", "chain:2", "--report", "reflections,free-action"],
        ["f3", "disc-group", "--lattice", "lambda10"],
        ["f3", "norm-enum", "--form", "1,-1,1,1", "--norm", "0"],
        ["f3", "orbit", "--lattice", "lambda10"],
        ["disc", "a11-coeff", "--monomial", "u12^9 u11^2 u2"],
        ["hodge", "report", "--weights", "3,3,3,2,1", "--degree", "6", "--char", "1,1,1,w,1"],
        ["verify", "--filter", "hodge"],
    ],
)
def test_json_output_is_what_the_stock_encoder_writes(argv, capsys):
    code, out, _ = run_main(argv + ["--json"], capsys)
    assert code == 0
    assert stock_dumps(json.loads(out)) + "\n" == out


def test_no_source_call_passes_indent_to_json_dumps():
    """Indented output goes through ``cli._dumps``; ``json.dumps(..., indent=...)`` is the slow encoder."""
    src = Path(__file__).resolve().parents[1] / "src" / "eisenlat"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_parse_word_expansion():
    letters = cli.parse_word("a1..a10 a11^2 a10..a1", 11)
    assert len(letters) == 22
    assert letters[:3] == [1, 2, 3]
    assert letters[9:12] == [10, 11, 11]
    assert letters[-1] == 1
    assert cli.parse_word("a3..a1", 3) == [3, 2, 1]
    with pytest.raises(cli.InputError):
        cli.parse_word("b2", 3)
    assert cli.parse_word("a1..a10 a11^2 a10..a1") == letters  # no rank, no index check


def test_parse_lattice_names(tmp_path):
    assert cli.parse_lattice("lambda") == lambda_()
    assert cli.parse_lattice("chain:5") == chain(5)
    # JSON file roundtrip
    p = tmp_path / "lat.json"
    p.write_text(json.dumps(chain(3).to_json()))
    assert cli.parse_lattice(str(p)) == chain(3)


def test_parse_lattice_asymmetric_gram(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "g": [[[3, 0], [1, 2]], [[1, 2], [3, 0]]]}))
    with pytest.raises(cli.InputError) as exc:
        cli.parse_lattice(str(p))
    assert "(1,0)" in str(exc.value) or "conjugate" in str(exc.value)


def test_parse_lattice_missing_file():
    with pytest.raises(cli.InputError):
        cli.parse_lattice("/nonexistent/file.json")


def test_lattice_make_json(capsys):
    code, out, _ = run_main(["lattice", "make", "--name", "lambda", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 11
    assert data["g"][0][0] == [3, 0]
    assert data["g"][1][2] == [1, 2]  # theta


def test_lattice_invariants(capsys):
    code, out, _ = run_main(
        ["lattice", "invariants", "--name", "lambda10", "--json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["det"] == "-243"
    assert data["signature"] == [9, 0, 1]
    assert data["theta_self_dual"] is True


def test_successive_main_calls_share_the_parser_but_not_their_flags(capsys):
    argv = ["lattice", "invariants", "--name", "lambda10"]
    code, out, _ = run_main(argv + ["--json"], capsys)
    assert code == 0 and json.loads(out)["signature"] == [9, 0, 1]
    parser = cli.build_parser()
    code, out, _ = run_main(argv, capsys)
    assert code == 0 and cli.build_parser() is parser
    assert out.splitlines() == [
        "rank: 10",
        "det: -243",
        "signature: [9, 0, 1]",
        "in_theta_dual: True",
        "theta_self_dual: True",
    ]


def test_monodromy_word_order(capsys):
    code, out, _ = run_main(
        [
            "monodromy",
            "word-order",
            "--lattice",
            "chain:11",
            "--word",
            "a1..a10 a11^2 a10..a1",
            "--projective",
            "--mod-radical",
            "--json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["order"] == "6"


@pytest.mark.parametrize("flags", [[], ["--projective"], ["--projective", "--mod-radical"]])
def test_monodromy_empty_word_is_the_identity(flags, capsys):
    argv = ["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1^0", "--json"]
    code, out, err = run_main(argv + flags, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == "1"


def test_longest_word_is_accepted():
    assert cli.parse_word(f"a1^{cli.MAX_WORD_LETTERS - 2} a2 a3", 3) == [1] * (cli.MAX_WORD_LETTERS - 2) + [2, 3]
    assert cli.parse_word("a3..a1 a2^0", 3) == [3, 2, 1]


def test_monodromy_closure(capsys):
    code, out, _ = run_main(
        [
            "monodromy",
            "closure",
            "--lattice",
            "chain:2",
            "--report",
            "order,reflections,free-action",
            "--json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24
    assert data["reflections"] == 8
    assert data["free_action"] is True


def test_f3_norm_enum(capsys):
    code, out, _ = run_main(
        ["f3", "norm-enum", "--form", "1,-1,1", "--norm", "1", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == 12


def test_f3_disc_group(capsys):
    code, out, _ = run_main(
        ["f3", "disc-group", "--lattice", "e8e", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_disc_a11_coeff(capsys):
    code, out, _ = run_main(
        ["disc", "a11-coeff", "--monomial", "u12^11", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == str(12**12)


def test_hodge_report(capsys):
    code, out, _ = run_main(
        [
            "hodge",
            "report",
            "--weights",
            "1,1,1,1,1,1",
            "--degree",
            "3",
            "--mode",
            "monomial",
            "--char",
            "1,1,1,1,1,w",
            "--json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["hodge_numbers"] == [0, 1, 20, 1, 0]


def test_registry_size():
    from eisenlat.verify import registered_checks

    checks = registered_checks()
    assert len(checks) >= 25
    names = [c.name for c in checks]
    assert len(names) == len(set(names))  # names are unique
    assert all(c.anchor for c in checks)


def test_verify_filtered(capsys):
    code, out, _ = run_main(["verify", "--filter", "lambda-det", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"] == {"total": 1, "passed": 1, "failed": 0}


def test_verify_nonexistent_filter(capsys):
    code, out, _ = run_main(["verify", "--filter", "nonexistent"], capsys)
    assert code == 0
    assert "0/0" in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run_main(["verify", "--filter", "hodge", "--json"], capsys)
    code2, out2, _ = run_main(["verify", "--filter", "hodge", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_matches_golden_report(capsys):
    golden = (Path(__file__).resolve().parents[1] / "perfbench" / "golden_verify.json").read_text()
    code, out, _ = run_main(["verify", "--json"], capsys)
    assert out == golden
    assert stock_dumps(json.loads(out)) + "\n" == out
    assert code == (0 if json.loads(golden)["summary"]["failed"] == 0 else 1)


def test_verify_timings_go_to_stderr_only(capsys):
    argv = ["verify", "--filter", "hodge", "--json"]
    code, out, err = run_main(argv, capsys)
    timed_code, timed_out, timed_err = run_main(argv + ["--timings"], capsys)
    assert (timed_code, timed_out, err) == (code, out, "")
    names = [row["name"] for row in json.loads(out)["checks"]]
    lines = timed_err.splitlines()
    assert [line.split(" s  ")[1] for line in lines] == names + ["total"]
    assert all(float(line.split(" s  ")[0]) >= 0 for line in lines)


def test_verify_reports_failure_exit_code(capsys):
    # the one stated value the computation contradicts: exit code 1
    code, out, _ = run_main(["verify", "--filter", "central-scalar-4"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_f3_orbit_expect_mismatch(capsys):
    code, out, err = run_main(
        ["f3", "orbit", "--lattice", "lambda10", "--expect", "29525"], capsys
    )
    assert code == 1
    assert "29524" in out


def test_input_error_exit_code(capsys):
    code, _, err = run_main(["lattice", "make", "--name", "nosuchlattice"], capsys)
    assert code == 3
    assert "error" in err


class JsonFile:
    """A command-line path standing for a file that holds the given JSON text."""

    def __init__(self, text):
        self.text = text

    def write(self, directory):
        path = directory / "input.json"
        path.write_text(self.text)
        return str(path)


GRAM_SHAPE = 'expected {"g": [[[a, b], ...], ...]}'


@pytest.mark.parametrize(
    "argv, env, code, message",
    [
        (["monodromy", "word-order", "--lattice", "hyp", "--word", "a1"], {}, 3, "nonzero norm"),
        (["f3", "disc-group", "--lattice", "chain:11"], {}, 3, "degenerate"),
        (["disc", "a11-coeff", "--monomial", "x3"], {}, 3, "'x3'"),
        (["f3", "norm-enum", "--form", "1,a", "--norm", "1"], {}, 3, "--form"),
        (["lattice", "invariants", "--name", "chain:0"], {}, 3, "n must be >= 1"),
        (
            ["hodge", "report", "--mode", "generic-ci", "--weights", "1,1,1", "--degree", "1"],
            {},
            3,
            "degree must exceed every weight",
        ),
        (["hodge", "report", "--weights", "1,b", "--degree", "3"], {}, 3, "--weights"),
        (["disc", "a11-coeff"], {}, 2, "requires --monomial"),
        (["f3", "norm-enum"], {}, 2, "requires --form"),
        (["f3", "orbit"], {}, 2, "requires --lattice"),
        (["verify", "--filter", "lambda-det"], {"EISENLAT_CLOSURE_CAP": "abc"}, 2, "EISENLAT_CLOSURE_CAP"),
        (["f3", "orbit", "--lattice", "chain:3"], {}, 3, "nondegenerate"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1", "--cap", "0"], {}, 2, "--cap"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1", "--cap", "0", "--projective"], {}, 2, "--cap"),
        (["disc", "a11-coeff", "--monomial", "u12^-1"], {}, 3, "negative exponent"),
        (["monodromy", "closure", "--lattice", "chain:5", "--report", "order"], {"EISENLAT_CLOSURE_CAP": "1000"}, 3, "cap 1000"),
        (["hodge", "report", "--weights", "0,1", "--degree", "3"], {}, 3, "weights must be positive"),
        (["hodge", "report", "--weights", "1,1,1", "--degree", "0"], {}, 3, "degree must be >= 1"),
        (["hodge", "report", "--weights", "1,1,1", "--degree", "-3"], {}, 3, "degree must be >= 1"),
        (["f3", "orbit", "--lattice", JsonFile('{"n": 1}')], {}, 3, GRAM_SHAPE),
        (["f3", "orbit", "--lattice", JsonFile("[[[1, 0]]]")], {}, 3, GRAM_SHAPE),
        (["f3", "orbit", "--lattice", JsonFile('{"g": 5}')], {}, 3, GRAM_SHAPE),
        (["f3", "orbit", "--lattice", JsonFile('{"g": [[[1]]]}')], {}, 3, "pair [a, b] for a + b w, got [1]"),
        (["f3", "orbit", "--lattice", JsonFile('{"g": [[1]]}')], {}, 3, "pair [a, b] for a + b w, got 1"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1^10000000"], {}, 3, "more than 100000 letters"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1..a5000000"], {}, 3, "more than 100000 letters"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1^3000000"], {}, 3, "more than 100000 letters"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1^99999 a2 a3"], {}, 3, "more than 100000 letters"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1^" + "9" * 5000], {}, 3, "bad word token"),
        (["hodge", "report", "--weights", "1,1,1", "--degree", "200000"], {}, 3, "would run to grade 399997"),
        (["hodge", "report", "--weights", ",".join(["1"] * 1000), "--degree", "11"], {}, 3, "1000 weights would run to grade 9989"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a9^0"], {}, 3, "generator a9 out of range for rank 3"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a0^0"], {}, 3, "generator a0 out of range for rank 3"),
        (["monodromy", "word-order", "--lattice", "chain:3", "--word", "a1 a3..a4"], {}, 3, "generator a4 out of range for rank 3"),
        (
            ["monodromy", "closure", "--lattice", "chain:2", "--report", "free_action"],
            {},
            3,
            "unknown report 'free_action'; choose from order, reflections, free-action",
        ),
        (["monodromy", "closure", "--lattice", "chain:2", "--report", "order,reflectons"], {}, 3, "unknown report 'reflectons'"),
        (["monodromy", "word-order", "--lattice", "chain:4", "--word", "a1..a4", "--mod-radical"], {}, 2, "--mod-radical requires --projective"),
    ],
)
def test_bad_input_gets_one_error_line_and_its_exit_code(argv, env, code, message, monkeypatch, capsys, tmp_path):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [arg.write(tmp_path) if isinstance(arg, JsonFile) else arg for arg in argv]
    got, _, err = run_main(argv, capsys)
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def gram_file(tmp_path, rows):
    """A JSON Gram file of [a, b] entries, one for each entry a + b w."""
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"n": len(rows), "g": rows}))
    return str(path)


@pytest.mark.parametrize(
    "action, rows, message",
    [
        (["lattice", "z-realization", "--name"], [[[1, 0]]], "theta*E"),
        (["monodromy", "closure", "--lattice"], [[[3, 0], [1, 0]], [[1, 0], [3, 0]]], "does not preserve the lattice"),
        (["f3", "disc-group", "--lattice"], [], "rank must be >= 1"),
        (["monodromy", "closure", "--lattice"], [], "rank must be >= 1"),
        (["lattice", "make", "--name"], [[[3.9, 0]]], "must be integers"),
        (["lattice", "make", "--name"], [[[True, "0"]]], "must be integers"),
        (["lattice", "invariants", "--name"], [[[1, 0], [2, 0]], [[2, 0], [1.0, 0]]], "must be integers"),
    ],
)
def test_bad_gram_files_get_one_error_line_and_no_output(action, rows, message, tmp_path, capsys):
    code, out, err = run_main(action + [gram_file(tmp_path, rows)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "rows, sig, det",
    [
        ([[[1, 0]]], [1, 0, 0], "1"),
        ([[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], [1, 0, 1], "-1"),
    ],
)
def test_invariants_of_grams_outside_theta_e(rows, sig, det, tmp_path, capsys):
    code, out, err = run_main(["lattice", "invariants", "--json", "--name", gram_file(tmp_path, rows)], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["signature"], payload["det"], payload["in_theta_dual"]) == (sig, det, False)


def test_a11_coeff_with_too_many_unknowns_stops_at_the_cap(capsys):
    # 11 variables admit 2,633,495 exponent tuples; the count stops at the cap + 1
    start = time.perf_counter()
    code, _, err = run_main(
        ["disc", "a11-coeff", "--monomial", "u2 u3 u4 u5 u6 u7 u8 u9 u10 u11^6 u12"], capsys
    )
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "more than 500 unknown coefficients" in err


def test_norm_enum_refuses_a_long_form_before_scanning(capsys):
    # 3^30 vectors could never be scanned; the form length is refused up front
    start = time.perf_counter()
    code, out, err = run_main(["f3", "norm-enum", "--form", ",".join(["1"] * 30), "--json"], capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "30 coordinates" in err and "at most 12" in err


def test_closure_cap_bounds_the_memory_of_an_infinite_group():
    # chain(5)'s triflections generate an infinite group; at the default cap the closure must stop on
    # its orbit sizes, long before millions of elements exist; the child reports its own peak in KiB.
    # On Linux a child's ru_maxrss keeps the high-water mark of the address space it replaced at exec,
    # which after vfork is this test process's; VmHWM counts the child's own address space only.
    code = (
        "import resource, sys\n"
        "from eisenlat.cli import main\n"
        "code = main(['monodromy', 'closure', '--lattice', 'chain:5', '--json'])\n"
        "try:\n"
        "    peak = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "EISENLAT_CLOSURE_CAP"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    error, peak_kib = proc.stderr.splitlines()
    assert proc.returncode == 3
    assert error == "error: no closure of chain:5: closure exceeded cap 2000000"
    assert int(peak_kib) < 200 * 1024


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "eisenlat.cli", "lattice", "badaction", "--name", "x"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eisenlat.cli", "lattice", "invariants", "--name", "hyp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "det: -3" in proc.stdout
