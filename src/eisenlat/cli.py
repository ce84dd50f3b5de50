"""Command-line front end.

Subcommands: lattice, monodromy, f3, disc, hodge, verify.  Every subcommand
accepts --json for machine-readable output, written by the stock
``json.dumps(payload, indent=2, sort_keys=True)``; f3 norm-enum's rows, in
either mode, are written block by block from one ASCII template.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 input-format error; an error of
either kind, argparse's own included, is one stderr line "error: ...".
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import time

from .eisenstein import E, OMEGA
from .hermitian import (
    NAMED_LATTICES,
    HermGram,
    basis_vector,
    det_e,
    in_theta_dual,
    named_lattice,
    signature,
    theta_self_dual,
    z_realization,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

_TEXT_ROWS = 4096  # rows of norm-enum output per printed block, in text and JSON
# a word is expanded into one list entry per letter, and word-order multiplies
# one matrix per letter
MAX_WORD_LETTERS = 100_000
# the comma-separated names that monodromy closure --report takes
CLOSURE_REPORTS = ("order", "reflections", "free-action")


class InputError(Exception):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, so they print one error line like any other."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_lattice(spec: str) -> HermGram:
    """A named lattice ("lambda", "chain:7", ...) or a path to a JSON Gram."""
    if spec in NAMED_LATTICES or spec.startswith("chain:"):
        try:
            return named_lattice(spec)
        except ValueError as exc:
            raise InputError(f"bad lattice {spec!r}: {exc}") from None
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read lattice {spec!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {spec!r}: {exc}") from None
    try:
        G = HermGram.from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad Gram matrix in {spec!r}: {exc}") from None
    if not G.n:
        raise InputError(f"bad Gram matrix in {spec!r}: rank must be >= 1")
    return G


# numbers of at most 9 digits, so int() never meets one of the thousands it refuses
_WORD_TOKEN = re.compile(r"^a(\d{1,9})(?:\^(\d{1,9}))?$")
_WORD_RANGE = re.compile(r"^a(\d{1,9})\.\.a(\d{1,9})$")


def parse_word(text: str, rank=None):
    """Expand "a1..a10 a11^2 a10..a1" into a list of generator indices (1-based).

    Each token's letters are counted, and its generator indices checked
    against ``rank`` when it is given, before they are expanded: a word of
    more than MAX_WORD_LETTERS letters is rejected without being built, and
    a letter raised to the power 0 is checked too.  perfbench's answer check
    expands the words it generated without a rank.
    """
    out = []
    for tok in text.split():
        if m := _WORD_RANGE.match(tok):
            lo, hi = int(m.group(1)), int(m.group(2))
            step = 1 if hi >= lo else -1
            ends, letters, count = (lo, hi), range(lo, hi + step, step), abs(hi - lo) + 1
        elif m := _WORD_TOKEN.match(tok):
            idx, count = int(m.group(1)), int(m.group(2) or 1)
            ends, letters = (idx,), itertools.repeat(idx, count)
        else:
            raise InputError(f"bad word token {tok!r}")
        if len(out) + count > MAX_WORD_LETTERS:
            raise InputError(f"word has more than {MAX_WORD_LETTERS} letters")
        if rank is not None:
            for idx in ends:
                if not 1 <= idx <= rank:
                    raise InputError(f"generator a{idx} out of range for rank {rank}")
        out.extend(letters)
    return out


_CHAR_TOKENS = {
    "1": E(1),
    "-1": E(-1),
    "w": OMEGA,
    "-w": -OMEGA,
    "w2": OMEGA * OMEGA,
    "-w2": -(OMEGA * OMEGA),
    "wbar": OMEGA.conj(),
    "-wbar": -OMEGA.conj(),
}


def parse_char(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in _CHAR_TOKENS:
            raise InputError(f"bad character token {tok!r} (use 1,-1,w,-w,w2,-w2,wbar,-wbar)")
        out.append(_CHAR_TOKENS[tok])
    return out


def _require(args, option):
    if not getattr(args, option):
        raise UsageError(f"{args.action} requires --{option}")


def _digit_blocks(a, unit, first, stride):
    """The rows of the digit array ``a`` as ASCII text, ``_TEXT_ROWS`` rows per string, so that one
    block's buffer and text exist at a time.  Each row is a copy of the template ``unit``, whose '0's
    at first, first + stride, ... are raised by the row's digits.  The template opens with the
    separator between rows, and each string leaves out its first row's."""
    import numpy as np
    unit = np.frombuffer(unit.encode(), np.uint8)
    for start in range(0, len(a), _TEXT_ROWS):
        digits = a[start : start + _TEXT_ROWS]
        rows = np.tile(unit, (len(digits), 1))
        rows[:, first : first + stride * a.shape[1] : stride] += digits.astype(np.uint8, copy=False)
        yield str(rows.reshape(-1)[1:], "ascii")


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_lattice(args):
    if args.action == "make":
        G = parse_lattice(args.name)
        _emit(args, G.to_json(), [str(G)])
        return EXIT_OK
    if args.action == "invariants":
        G = parse_lattice(args.name)
        d = det_e(G)
        payload = {
            "rank": G.n,
            "det": str(d),
            "signature": list(signature(G)),
            "in_theta_dual": in_theta_dual(G),
        }
        if d:
            payload["theta_self_dual"] = theta_self_dual(G)
        lines = [f"{k}: {v}" for k, v in payload.items()]
        _emit(args, payload, lines)
        return EXIT_OK
    if args.action == "z-realization":
        G = parse_lattice(args.name)
        try:
            Z = z_realization(G)
        except ValueError as exc:
            raise InputError(f"no Z-realization of {args.name}: {exc}") from None
        _emit(args, Z.to_json(), [str(Z)])
        return EXIT_OK


def cmd_monodromy(args):
    from . import monodromy as mono

    G = parse_lattice(args.lattice)
    if args.action == "word-order":
        _require(args, "word")
        if args.cap < 1:
            raise UsageError(f"--cap must be >= 1, got {args.cap}")
        if args.mod_radical and not args.projective:
            raise UsageError("--mod-radical requires --projective")
        letters = parse_word(args.word, G.n)
        gens = {}
        factors = []
        for idx in letters:
            if idx not in gens:
                try:
                    gens[idx] = mono.triflection(G, basis_vector(G.n, idx - 1))
                except ValueError as exc:
                    raise InputError(f"no triflection a{idx} on {args.lattice}: {exc}") from None
            factors.append(gens[idx])
        w = mono.word_eval(factors) if factors else mono.identity(G)  # the empty product
        if args.projective:
            val = mono.projective_order(w, modulo_radical=args.mod_radical, cap=args.cap)
        else:
            val = mono.order(w, cap=args.cap)
        payload = {"word": args.word, "order": str(val), "projective": args.projective}
        _emit(args, payload, [f"order: {val}"])
        return EXIT_OK
    if args.action == "closure":
        cap = _closure_cap()
        try:
            gens = [mono.triflection(G, basis_vector(G.n, i)) for i in range(G.n)]
        except ValueError as exc:
            raise InputError(f"no triflections on {args.lattice}: {exc}") from None
        reports = args.report.split(",") if args.report else []
        unknown = [r for r in reports if r not in CLOSURE_REPORTS]
        if unknown:
            raise InputError(f"unknown report {unknown[0]!r}; choose from {', '.join(CLOSURE_REPORTS)}")
        try:
            handle = mono.group_closure(gens, cap=cap)
            refl = mono.reflections_in(handle) if "reflections" in reports else None
            ok = mono.free_action_check(handle) if "free-action" in reports else None
        except (mono.CapExceeded, OverflowError) as exc:
            raise InputError(f"no closure of {args.lattice}: {exc}") from None
        payload = {"order": handle.order}
        lines = [f"order: {handle.order}"]
        if refl is not None:
            payload["reflections"] = len(refl)
            payload["reflection_units"] = sorted({str(u) for _, u in refl})
            lines.append(f"reflections: {len(refl)}")
        if ok is not None:
            payload["free_action"] = ok
            lines.append(f"free action: {ok}")
        _emit(args, payload, lines)
        return EXIT_OK


def cmd_f3(args):
    from . import gluing

    if args.action in ("disc-group", "orbit"):
        _require(args, "lattice")
    if args.action == "disc-group":
        G = parse_lattice(args.lattice)
        try:
            S = gluing.disc_group(G)
        except ValueError as exc:
            raise InputError(f"no F_3 discriminant group for {args.lattice}: {exc}") from None
        payload = {
            "dimension": S.k,
            "form": [list(r) for r in S.form],
            "diagonal": list(S.diagonal()),
        }
        _emit(args, payload, [f"dimension: {S.k}", f"diagonal: {S.diagonal()}"])
        return EXIT_OK
    if args.action == "norm-enum":
        _require(args, "form")
        try:
            diag_entries = [int(x) % 3 for x in args.form.split(",")]
        except ValueError:
            raise InputError(f"bad --form {args.form!r}: expected integers like 1,-1,1") from None
        # refused here too, before _diag_space builds a k x k form
        if len(diag_entries) > gluing.NORM_ENUM_MAX_COORDINATES:
            raise InputError(
                f"--form has {len(diag_entries)} coordinates; norm-enum scans all 3^k vectors "
                f"and takes at most {gluing.NORM_ENUM_MAX_COORDINATES}"
            )
        space = _diag_space(diag_entries)
        vecs = gluing.enumerate_norm(space, int(args.norm))
        k, payload = len(diag_entries), {"count": len(vecs), "vectors": []}
        if not (args.json and len(vecs)):
            zeros = ", ".join("0" * k) + ("," if k == 1 else "")  # str() of a tuple of k digits
            _emit(args, payload, itertools.chain([f"count: {len(vecs)}"], _digit_blocks(vecs, f"\n({zeros})", 2, 3)))
            return EXIT_OK
        # the row blocks are written where the stock encoder writes the payload's empty list
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split("[]")
        row = ",\n    [" + ",".join(["\n      0"] * k) + "\n    ]"
        print(head, end="[")
        for i, block in enumerate(_digit_blocks(vecs, row, 14, 9)):
            print("," if i else "", block, sep="", end="")
        print("\n  ]" + tail)
        return EXIT_OK
    if args.action == "orbit":
        G = parse_lattice(args.lattice)
        try:
            size, ngens = gluing.hyperplane_orbit(gluing.sp_generating_roots(), G)
        except ValueError as exc:
            raise InputError(f"no hyperplane orbit on {args.lattice}: {exc}") from None
        payload = {"orbit": size, "generators": ngens}
        lines = [f"orbit: {size} (generators used: {ngens})"]
        _emit(args, payload, lines)
        if args.expect is not None and size != args.expect:
            print(f"expected {args.expect}, got {size}", file=sys.stderr)
            return EXIT_CHECK_FAILURE
        return EXIT_OK


def _diag_space(entries):
    """A stand-alone diagonal F_3 quadratic space (no ambient lattice)."""
    from .gluing import F3QuadSpace

    k = len(entries)
    form = tuple(
        tuple(entries[i] if i == j else 0 for j in range(k)) for i in range(k)
    )
    return F3QuadSpace(None, k, form, [None] * k, None)


def cmd_disc(args):
    from . import discpoly

    if args.action == "a11-coeff":
        _require(args, "monomial")
        try:
            m = discpoly.WeightedMonomial.parse(args.monomial)
        except ValueError as exc:
            raise InputError(f"bad --monomial {args.monomial!r}: {exc}") from None
        try:
            c = discpoly.a11_coeff(m)
        except ValueError as exc:
            raise InputError(f"no coefficient of {m}: {exc}") from None
        payload = {"monomial": str(m), "weight": m.weight, "coefficient": str(c)}
        _emit(args, payload, [f"{m} (weight {m.weight}): {c}"])
        return EXIT_OK
    if args.action == "check-rigidity-hypothesis":
        rows = []
        ok = True
        for m in discpoly.rigidity_monomials():
            c = discpoly.a11_coeff(m)
            rows.append({"monomial": str(m), "coefficient": str(c), "nonzero": c != 0})
            ok = ok and c != 0
        payload = {"monomials": rows, "all_nonzero": ok}
        lines = [f"{r['monomial']:>22}: {r['coefficient']}" for r in rows]
        lines.append(f"all nonzero: {ok}")
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_CHECK_FAILURE


def cmd_hodge(args):
    from . import residues

    try:
        weights = [int(x) for x in args.weights.split(",")]
    except ValueError:
        raise InputError(f"bad --weights {args.weights!r}: expected integers like 3,3,3,2,1") from None
    char = parse_char(args.char) if args.char else None
    try:
        if args.mode == "monomial":
            H = residues.WeightedHypersurface.diagonal(weights, args.degree, char=char)
        else:
            H = residues.WeightedHypersurface(weights, args.degree, residues.GENERIC_CI, char=char)
    except ValueError as exc:
        raise InputError(f"bad hypersurface: {exc}") from None
    try:
        rows = residues.full_report(H)
    except ValueError as exc:  # a series past residues.HODGE_MAX_SERIES_STEPS, refused before it is built
        raise InputError(str(exc)) from None
    hodge = [0] * (H.dim + 1)  # h^(dim - q, q) sums the report's dims over the eigenvalues
    for _, q, _, dim in rows:
        hodge[q] += dim
    payload = {
        "weights": weights,
        "degree": args.degree,
        "rows": [
            {
                "p": p,
                "q": q,
                "eigenvalue": str(residues.exp_unit(lam)),
                "dim": dim,
            }
            for p, q, lam, dim in rows
        ],
        "hodge_numbers": hodge,
    }
    lines = [f"h^({p},{q})[{residues.exp_unit(lam)}] = {dim}" for p, q, lam, dim in rows]
    lines.append(f"hodge numbers: {tuple(hodge)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _closure_cap():
    from .monodromy import env_closure_cap

    try:
        return env_closure_cap()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args):
    from .verify import Context, run_verify

    timings = {} if args.timings else None
    start = time.perf_counter()
    report = run_verify(name_filter=args.filter, ctx=Context(_closure_cap()), timings=timings)
    if timings is not None:
        for name, seconds in timings.items():
            print(f"{seconds:9.3f} s  {name}", file=sys.stderr)
        print(f"{time.perf_counter() - start:9.3f} s  total", file=sys.stderr)
    lines = []
    for row in report["checks"]:
        lines.append(f"[{'PASS' if row['pass'] else 'FAIL'}] {row['name']}")
        lines.append(f"       claim:    {row['anchor']}")
        lines.append(f"       expected: {row['expected']}")
        if not row["pass"]:
            lines.append(f"       computed: {row['computed']}")
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} checks passed")
    _emit(args, report, lines)
    return EXIT_OK if report["summary"]["failed"] == 0 else EXIT_CHECK_FAILURE


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    p = _Parser(
        prog="eisenlat",
        description="Exact Eisenstein-lattice, monodromy, discriminant and residue computations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("lattice", help="named lattices and their invariants")
    pl.add_argument("action", choices=["make", "invariants", "z-realization"])
    pl.add_argument("--name", required=True, help="lambda|lambda10|e8e|hyp|chain:N or a JSON file")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(fn=cmd_lattice)

    pm = sub.add_parser("monodromy", help="words in triflections and group closures")
    pm.add_argument("action", choices=["word-order", "closure"])
    pm.add_argument("--lattice", required=True)
    pm.add_argument("--word", help='e.g. "a1..a10 a11^2 a10..a1"')
    pm.add_argument("--projective", action="store_true")
    pm.add_argument("--mod-radical", action="store_true")
    pm.add_argument("--cap", type=int, default=10000)
    pm.add_argument("--report", help="comma list: order,reflections,free-action")
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(fn=cmd_monodromy)

    pf = sub.add_parser("f3", help="discriminant groups, isotropic lines, orbits")
    pf.add_argument("action", choices=["disc-group", "norm-enum", "orbit"])
    pf.add_argument("--lattice")
    pf.add_argument("--form", help="comma list of diagonal entries, e.g. 1,-1,1")
    pf.add_argument("--norm", type=int, default=1)
    pf.add_argument("--expect", type=int)
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(fn=cmd_f3)

    pd = sub.add_parser("disc", help="A_11 discriminant coefficients")
    pd.add_argument("action", choices=["a11-coeff", "check-rigidity-hypothesis"])
    pd.add_argument("--monomial", help='e.g. "u12^9 u11^2 u2"')
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(fn=cmd_disc)

    ph = sub.add_parser("hodge", help="residue Hodge numbers of weighted hypersurfaces")
    ph.add_argument("action", choices=["report"])
    ph.add_argument("--weights", required=True, help="comma list, e.g. 3,3,3,2,1")
    ph.add_argument("--degree", type=int, required=True)
    ph.add_argument("--mode", default="monomial", choices=["monomial", "generic-ci"])
    ph.add_argument("--char", help="comma list, e.g. 1,1,1,w,1")
    ph.add_argument("--json", action="store_true")
    ph.set_defaults(fn=cmd_hodge)

    pv = sub.add_parser("verify", help="run the full verification suite")
    pv.add_argument("--filter", help="substring filter on check names")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--timings", action="store_true", help="write each check's seconds and the total to stderr")
    pv.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
