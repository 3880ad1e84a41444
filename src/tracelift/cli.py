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

import numpy as np

from .errors import IoError, TraceliftError
from .geomean import GeoMeanTask, build_geomean, lmi_census_audit
from .instances import random_matrix, random_pd
from .kernel import (
    RationalExponent,
    fidelity_value,
    geometric_mean,
    herm_power,
    hermitize,
    kron,
    lieb_value,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_value,
)
from .lieb import (
    build_fidelity,
    build_kron_power,
    build_lieb,
    build_multivariate,
    build_tsallis_entropy,
    build_tsallis_rel_entropy,
    build_upsilon,
    fidelity_witness,
    upsilon_equality_witness,
)
from .model import check_feasible, realify
from .sdpa import export_sdpa
from .solver import solve

FUNCTIONS = (
    "geomean", "lieb", "kron_power", "multivariate",
    "tsallis", "tsallis_rel", "upsilon", "fidelity",
)


def load_matrix(path, hermitian: bool = True) -> np.ndarray:
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
    if real.ndim != 2 or imag.shape != real.shape or (hermitian and real.shape[0] != real.shape[1]):
        shape = "square " if hermitian else ""
        raise IoError(f"matrix file {path}: re {real.shape} and im {imag.shape} "
                      f"must be {shape}matrices of one shape")
    M = real + 1j * imag
    return hermitize(M) if hermitian else M


def save_matrix(M, path) -> None:
    M = np.asarray(M, dtype=complex)
    doc = {"re": M.real.tolist(), "im": M.imag.tolist()}
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        raise IoError(f"cannot write matrix file {path}: {exc}")


def census_string(model) -> str:
    parts = [
        f"{count} x (size {size})"
        for size, count in sorted(model.lmi_census(), reverse=True)
    ]
    if model.scalar_count:
        parts.append(f"{model.scalar_count} scalar")
    return ", ".join(parts)


class _Instance:
    """Resolved inputs for one function: data matrices plus exponents."""

    def __init__(self, args, rng=None):
        self.fn = args.function
        self.t = RationalExponent.parse(args.t) if args.t is not None else None
        self.s = RationalExponent.parse(args.s) if getattr(args, "s", None) else None
        if self.t is None and self.fn not in ("fidelity", "multivariate"):
            raise TraceliftError(f"{self.fn} requires --t")
        if self.fn == "kron_power" and self.s is None:
            raise TraceliftError("kron_power requires --s")
        self.weights = None
        if getattr(args, "weights", None):
            self.weights = [Fraction(w) for w in args.weights.split(",")]
        n = args.n
        cx = args.complex

        def mat(path, herm=True, rand=lambda: random_pd(n, rng, cx)):
            if path is not None:
                return load_matrix(path, hermitian=herm)
            return rand()

        self.A = self.B = self.K = self.mats = None
        if self.fn in ("geomean", "kron_power", "tsallis_rel", "fidelity"):
            self.A = mat(args.A)
            self.B = mat(args.B)
        elif self.fn == "tsallis":
            self.A = mat(args.A)
        elif self.fn == "lieb":
            self.A = mat(args.A)
            self.B = mat(args.B)
            m = self.B.shape[0]
            self.K = mat(args.K, herm=False,
                         rand=lambda: random_matrix(self.A.shape[0], m, rng, cx))
        elif self.fn == "upsilon":
            self.A = mat(args.A)
            self.K = mat(args.K, herm=False,
                         rand=lambda: random_matrix(self.A.shape[0], n, rng, cx))
        elif self.fn == "multivariate":
            if self.weights is None:
                raise TraceliftError("multivariate requires --weights")
            if args.mats:
                self.mats = [load_matrix(p) for p in args.mats.split(",")]
            else:
                if rng is None:
                    raise TraceliftError("--mats: matrix files required")
                self.mats = [random_pd(n, rng, cx) for _ in self.weights]

    def oracle(self) -> float:
        if self.fn == "geomean":
            return np.trace(geometric_mean(self.A, self.B, float(self.t))).real
        if self.fn == "lieb":
            return lieb_value(self.K, self.A, self.B, float(self.t))
        if self.fn == "kron_power":
            return np.trace(
                kron(herm_power(self.A, float(self.s)), herm_power(self.B, float(self.t)))
            ).real
        if self.fn == "multivariate":
            M = herm_power(self.mats[0], float(self.weights[0]))
            for Ai, wi in zip(self.mats[1:], self.weights[1:]):
                M = kron(M, herm_power(Ai, float(wi)))
            return np.trace(M).real
        if self.fn == "tsallis":
            return tsallis_entropy(self.A, float(self.t))
        if self.fn == "tsallis_rel":
            return tsallis_rel_entropy(self.A, self.B, float(self.t))
        if self.fn == "upsilon":
            return upsilon_value(self.K, self.A, float(self.t))
        return fidelity_value(self.A, self.B)

    def build(self):
        if self.fn == "geomean":
            return build_geomean(
                GeoMeanTask(t=self.t, n=self.A.shape[0], A=self.A, B=self.B)
            )
        if self.fn == "lieb":
            return build_lieb(self.K, self.A, self.B, self.t)
        if self.fn == "kron_power":
            return build_kron_power(self.A, self.B, self.s, self.t)
        if self.fn == "multivariate":
            return build_multivariate(self.mats, self.weights)
        if self.fn == "tsallis":
            return build_tsallis_entropy(self.A, self.t)
        if self.fn == "tsallis_rel":
            return build_tsallis_rel_entropy(self.A, self.B, self.t)
        if self.fn == "upsilon":
            return build_upsilon(self.K, self.A, self.t)
        return build_fidelity(self.A, self.B)

    def witness(self, con):
        if self.fn == "fidelity":
            return fidelity_witness(self.A, self.B, con)
        if self.fn == "upsilon":
            return upsilon_equality_witness(self.K, self.A, self.t, con)
        return con.make_witness()


def cmd_emit(args) -> int:
    rng = np.random.default_rng(args.seed)
    inst = _Instance(args, rng)
    con = inst.build()
    real_model, _ = realify(con.model)
    export_sdpa(real_model, args.out)
    print(f"wrote {args.out}")
    print(f"census: {census_string(real_model)}")
    return 0


def cmd_eval(args) -> int:
    rng = np.random.default_rng(args.seed)
    inst = _Instance(args, rng)
    print(f"{inst.oracle():.12g}")
    return 0


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    header = f"{'trial':>5} {'witness':>8} {'rel.err':>10} {'census':>7} {'result':>7}"
    print(header)
    all_ok = True
    for trial in range(args.trials):
        inst = _Instance(args, rng)
        con = inst.build()
        wit = inst.witness(con)
        feas = check_feasible(con.model, wit, tol=1e-9).ok
        res = solve(con.model)
        oracle = inst.oracle()
        if res.objective is None:
            rel = np.inf
        else:
            rel = abs(res.objective / con.report_divisor - oracle) / (1 + abs(oracle))
        if inst.fn == "geomean":
            census_ok = lmi_census_audit(inst.t, inst.A.shape[0]).ok
            census_txt = "ok" if census_ok else "FAIL"
        else:
            census_ok, census_txt = True, "-"
        ok = feas and census_ok and rel <= 1e-6
        all_ok = all_ok and ok
        print(
            f"{trial:>5} {'ok' if feas else 'FAIL':>8} {rel:>10.2e} "
            f"{census_txt:>7} {'PASS' if ok else 'FAIL':>7}"
        )
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def cmd_count(args) -> int:
    all_ok = True
    print(f"{'t':>8} {'mode':>5}  census")
    for q in range(1, args.qmax + 1):
        for p in range(0, q + 1):
            if Fraction(p, q).denominator != q:
                continue
            t = RationalExponent(p, q)
            for mode in ("hyp", "epi"):
                texp = t if mode == "hyp" else RationalExponent(-p, q)
                rep = lmi_census_audit(texp, n=2)
                all_ok = all_ok and rep.ok
                census = ", ".join(f"{c} x (size {s})" for s, c in rep.census)
                flag = "" if rep.ok else "  EXCEEDS BOUND"
                print(f"{str(texp):>8} {mode:>5}  {census}{flag}")
    print("all within bounds" if all_ok else "BOUND VIOLATIONS FOUND")
    return 0 if all_ok else 1


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
        p.add_argument("--n", type=int, default=2, help="dimension for random data")
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
    p_verify.add_argument("--trials", type=int, default=10)
    p_verify.set_defaults(fn=cmd_verify)

    p_count = sub.add_parser("count", help="tabulate LMI census against the size bounds")
    p_count.add_argument("--qmax", type=int, default=64)
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
