"""Command-line front end: emit / eval / verify / count.

Every subcommand is a thin wrapper over the library; exit codes are
0 (success), 2 (validation error), 3 (I/O error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DomainError, IoError, NotPositiveDefinite, TraceliftError
from .geomean import census_text, lmi_census_audit
from .instances import FUNCTIONS
from .kernel import RationalExponent, _eigh_pd, hermitize
from .model import check_feasible, realify
from .sdpa import export_sdpa
from .solver import solve


def _parse_weights(text: str) -> list:
    """Comma-separated 'p/q' or integer weights; decimals are rejected, as
    `RationalExponent.parse` rejects them."""
    try:
        return [Fraction(*map(int, w.split("/", 1))) for w in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse weights {text!r} (use p/q)")


_PARSE = {
    "t": RationalExponent.parse,
    "s": RationalExponent.parse,
    "weights": _parse_weights,
}


def load_matrix(path, hermitian: bool = True) -> np.ndarray:
    """The matrix of a JSON file; with ``hermitian``, its Hermitian part,
    which must be positive definite, as every oracle requires: so emit
    rejects the files that eval and verify reject."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read matrix file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise IoError(f"cannot parse matrix file {path}: {exc}")
    if not isinstance(doc, dict) or "re" not in doc:
        raise IoError(f'matrix file {path}: expected a JSON object with an "re" array')
    try:
        real = np.asarray(doc["re"], dtype=float)
        imag = np.asarray(doc.get("im", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise IoError(f"matrix file {path}: {exc}")
    if (real.ndim != 2 or 0 in real.shape or imag.shape != real.shape
            or (hermitian and real.shape[0] != real.shape[1])):
        shape = "square " if hermitian else ""
        raise IoError(f"matrix file {path}: re {real.shape} and im {imag.shape} "
                      f"must be nonempty {shape}matrices of one shape")
    if not (np.isfinite(real).all() and np.isfinite(imag).all()):
        raise IoError(f"matrix file {path}: entries must be finite")
    M = real + 1j * imag
    if not hermitian:
        return M
    M = hermitize(M)
    try:
        _eigh_pd(M)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"matrix file {path}: {exc}")
    return M


def save_matrix(M, path) -> None:
    M = np.asarray(M, dtype=complex)
    doc = {"re": M.real.tolist(), "im": M.imag.tolist()}
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        raise IoError(f"cannot write matrix file {path}: {exc}")


def census_string(model) -> str:
    text = census_text(sorted(model.lmi_census(), reverse=True))
    if model.scalar_count:
        text += f", {model.scalar_count} scalar"
    return text


def _spec(args):
    """The table entry named by ``args``, the parameters given (each one
    parsed, used or not), and the data matrices read from files, checked
    once before any instance is drawn."""
    fn = FUNCTIONS[args.function]
    p = {}
    for name, parse in _PARSE.items():
        text = getattr(args, name)
        if text is not None:
            p[name] = parse(text)
        elif name in fn.params:
            raise TraceliftError(f"{args.function} requires --{name}")
    given = {}
    for slot in fn.slots:
        path = getattr(args, slot)
        if path is not None and slot == "mats":
            given[slot] = [load_matrix(q) for q in path.split(",")]
        elif path is not None:
            given[slot] = load_matrix(path, hermitian=slot in fn.hermitian)
    fn.check(p, given)
    return fn, p, given


def cmd_emit(args) -> int:
    fn, p, given = _spec(args)
    data = fn.draw(p, args.n, np.random.default_rng(args.seed), args.complex, given)
    real_model, _ = realify(fn.build(data, p).model)
    export_sdpa(real_model, args.out)
    print(f"wrote {args.out}")
    print(f"census: {census_string(real_model)}")
    return 0


def cmd_eval(args) -> int:
    fn, p, given = _spec(args)
    data = fn.draw(p, args.n, np.random.default_rng(args.seed), args.complex, given)
    value = fn.oracle(data, p)
    if not np.isfinite(value):
        raise TraceliftError(f"the value {value} is not finite")
    print(f"{value:.12g}")
    return 0


def cmd_verify(args) -> int:
    fn, p, given = _spec(args)
    rng = np.random.default_rng(args.seed)
    header = (f"{'trial':>5} {'witness':>8} {'rel.err':>10} {'status':>17} "
              f"{'census':>7} {'result':>7}")
    print(header)
    all_ok = True
    audit = None  # the census depends on t and the size of A only
    if args.function == "geomean":
        audit = lmi_census_audit(p["t"], given["A"].shape[0] if "A" in given else args.n).ok
    census_txt = {None: "-", True: "ok", False: "FAIL"}[audit]
    for trial in range(args.trials):
        data = fn.draw(p, args.n, rng, args.complex, given)
        con = fn.build(data, p)
        wit = con.make_witness()
        feas = check_feasible(con.model, wit, tol=1e-9).ok
        res = solve(con.model)
        oracle = fn.oracle(data, p)
        if res.objective is None:
            rel = np.inf
        else:
            rel = abs(res.objective / con.report_divisor - oracle) / (1 + abs(oracle))
        ok = feas and audit is not False and rel <= 1e-6
        all_ok = all_ok and ok
        print(
            f"{trial:>5} {'ok' if feas else 'FAIL':>8} {rel:>10.2e} {res.status:>17} "
            f"{census_txt:>7} {'PASS' if ok else 'FAIL':>7}"
        )
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def cmd_count(args) -> int:
    all_ok = True
    print(f"{'t':>8} {'mode':>5}  census")
    for q in range(1, args.qmax + 1):
        for p in range(-q, 2 * q + 1):  # every reduced p/q in [-1, 2]
            if gcd(p, q) != 1:
                continue
            rep = lmi_census_audit(RationalExponent(p, q), n=2)
            all_ok = all_ok and rep.ok
            flag = "" if rep.ok else "  EXCEEDS BOUND"
            print(f"{str(rep.t):>8} {rep.mode:>5}  {census_text(rep.census)}{flag}")
    print("all within bounds" if all_ok else "BOUND VIOLATIONS FOUND")
    return 0 if all_ok else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelift",
        description="Compile matrix geometric means and trace functionals to SDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # let values like "-1/2" pass as option arguments
    rational = re.compile(r"^-\d+(/\d+)?$")
    parser._negative_number_matcher = rational

    def add_spec(p):
        p._negative_number_matcher = rational
        p.add_argument("--function", choices=FUNCTIONS, required=True)
        p.add_argument("--t", help="rational exponent p/q")
        p.add_argument("--s", help="second exponent for kron_power")
        p.add_argument("--weights", help="comma-separated weights for multivariate")
        p.add_argument("--n", type=positive_int, default=2, help="dimension for random data")
        p.add_argument("--A", help="JSON matrix file")
        p.add_argument("--B", help="JSON matrix file")
        p.add_argument("--K", help="JSON matrix file (not Hermitian)")
        p.add_argument("--mats", help="comma-separated JSON files for multivariate")
        p.add_argument("--complex", action="store_true", help="random data is complex")
        p.add_argument("--seed", type=int, default=0)

    p_emit = sub.add_parser("emit", help="build a model and write SDPA sparse output")
    add_spec(p_emit)
    p_emit.add_argument("--out", required=True)
    p_emit.set_defaults(fn=cmd_emit)

    p_eval = sub.add_parser("eval", help="print the oracle value")
    add_spec(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_verify = sub.add_parser("verify", help="witness/solver/census checks on random instances")
    add_spec(p_verify)
    p_verify.add_argument("--trials", type=positive_int, default=10)
    p_verify.set_defaults(fn=cmd_verify)

    p_count = sub.add_parser("count", help="tabulate LMI census against the size bounds")
    p_count.add_argument("--qmax", type=positive_int, default=64)
    p_count.set_defaults(fn=cmd_count)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TraceliftError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
