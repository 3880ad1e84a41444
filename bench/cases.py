"""The benchmark's workloads: inputs drawn from a seed, and the pipelines
that run them through tracelift's public functions.

A case is one model. ``verify`` cases run what ``tracelift verify`` runs
for one trial, in its order: build, witness, check_feasible, solve,
kernel oracle and (geomean only) the census audit. ``emit`` cases run
what ``tracelift emit`` runs, followed by the round trip: build, realify,
export_sdpa, import_sdpa, export_sdpa. Every public call goes through
``call(layer, fn, *args)``, which the traced run times and the plain run
does not.

The checks compare each case's outputs with ``reference``, which does
not use tracelift.
"""

from __future__ import annotations

import filecmp
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import reference as ref
from tracelift import (
    GeoMeanTask,
    RationalExponent,
    SolveOptions,
    build_fidelity,
    build_geomean,
    build_kron_power,
    build_lieb,
    build_tsallis_entropy,
    build_tsallis_rel_entropy,
    build_upsilon,
    check_feasible,
    export_sdpa,
    fidelity_value,
    fidelity_witness,
    geometric_mean,
    herm_power,
    import_sdpa,
    kron,
    lieb_value,
    lmi_census_audit,
    random_matrix,
    random_pd,
    realify,
    solve,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_equality_witness,
    upsilon_value,
)

SOLVE_TOL = 1e-6  # solver objective against the reference, relative to 1 + |ref|
EXACT_TOL = 1e-9  # witness feasibility, witness objective, kernel oracle, SDPA point


@dataclass
class Family:
    """How one function draws its data and calls the library.

    ``draw(n, rng)`` returns the data matrices in the order the CLI draws
    them; the other callables take (data, t, s) as the CLI passes them.
    """

    draw: object
    build: object
    oracle: object
    reference: object
    witness: object = None  # None: Construction.make_witness


def _pd_pair(n, rng):
    A = random_pd(n, rng)
    return {"A": A, "B": random_pd(n, rng)}


def _lieb_data(n, rng):
    d = _pd_pair(n, rng)
    d["K"] = random_matrix(n, n, rng)
    return d


def _upsilon_data(n, rng):
    A = random_pd(n, rng)
    return {"A": A, "K": random_matrix(n, n, rng)}


FAMILIES = {
    "geomean": Family(
        _pd_pair,
        lambda d, t, s: build_geomean(GeoMeanTask(t=t, n=d["A"].shape[0], A=d["A"], B=d["B"])),
        lambda d, t, s: np.trace(geometric_mean(d["A"], d["B"], float(t))).real,
        lambda d, t, s: ref.geomean_trace(d["A"], d["B"], float(t)),
    ),
    "lieb": Family(
        _lieb_data,
        lambda d, t, s: build_lieb(d["K"], d["A"], d["B"], t),
        lambda d, t, s: lieb_value(d["K"], d["A"], d["B"], float(t)),
        lambda d, t, s: ref.lieb_trace(d["K"], d["A"], d["B"], float(t)),
    ),
    "kron_power": Family(
        _pd_pair,
        lambda d, t, s: build_kron_power(d["A"], d["B"], s, t),
        lambda d, t, s: np.trace(
            kron(herm_power(d["A"], float(s)), herm_power(d["B"], float(t)))).real,
        lambda d, t, s: ref.kron_power_trace(d["A"], d["B"], float(s), float(t)),
    ),
    "tsallis": Family(
        lambda n, rng: {"A": random_pd(n, rng)},
        lambda d, t, s: build_tsallis_entropy(d["A"], t),
        lambda d, t, s: tsallis_entropy(d["A"], float(t)),
        lambda d, t, s: ref.tsallis(d["A"], float(t)),
    ),
    "tsallis_rel": Family(
        _pd_pair,
        lambda d, t, s: build_tsallis_rel_entropy(d["A"], d["B"], t),
        lambda d, t, s: tsallis_rel_entropy(d["A"], d["B"], float(t)),
        lambda d, t, s: ref.tsallis_rel(d["A"], d["B"], float(t)),
    ),
    "upsilon": Family(
        _upsilon_data,
        lambda d, t, s: build_upsilon(d["K"], d["A"], t),
        lambda d, t, s: upsilon_value(d["K"], d["A"], float(t)),
        lambda d, t, s: ref.upsilon(d["K"], d["A"], float(t)),
        lambda d, t, s, con: upsilon_equality_witness(d["K"], d["A"], t, con),
    ),
    "fidelity": Family(
        _pd_pair,
        lambda d, t, s: build_fidelity(d["A"], d["B"]),
        lambda d, t, s: fidelity_value(d["A"], d["B"]),
        lambda d, t, s: ref.fidelity(d["A"], d["B"]),
        lambda d, t, s, con: fidelity_witness(d["A"], d["B"], con),
    ),
}


@dataclass
class Case:
    kind: str  # "verify" | "emit"
    family: str
    t: RationalExponent | None
    s: RationalExponent | None
    n: int
    data: dict
    reference: float

    @property
    def structure(self):
        """What fixes the model's LMI structure; the data only fill it in."""
        return (self.kind, self.family, str(self.t), str(self.s), self.n)

    @property
    def label(self):
        exps = ",".join(f"{k}={v}" for k, v in (("s", self.s), ("t", self.t)) if v is not None)
        return f"{self.family}({exps}) n={self.n}"


def _exp(text):
    return None if text is None else RationalExponent.parse(text)


def _draw(kind, family, t, s, n, rng):
    fam = FAMILIES[family]
    t, s = _exp(t), _exp(s)
    data = fam.draw(n, rng)
    return Case(kind, family, t, s, n, data, fam.reference(data, t, s))


# (family, t, s) swept at n = 2 by the verify_small workload. lieb
# (1/3, -1/2, 1/2), tsallis_rel 1/4 and upsilon (-1/2, 3/2) are left out:
# each fails on some seeds, and upsilon 1/2 fails at n = 3 (README.md,
# "Left out")
SMALL_SWEEP = [
    ("geomean", "1/2", None), ("geomean", "1/3", None), ("geomean", "-1/2", None),
    ("geomean", "3/2", None), ("tsallis", "1/4", None), ("fidelity", None, None),
    ("kron_power", "1/2", "1/3"),  # the largest model, listed last
]
SMALL_TRIALS = 5

# (family, t, s, n) of verify_lifted: large models, each structure once.
# lieb 1/2, upsilon 1/2 and tsallis_rel 1/4 at n = 3 are left out because
# they fail on some seeds, tsallis_rel 1/8 at n = 3 because its iteration
# count swings from 22 to 166 with the seed (README.md, "Left out")
LIFTED = (
    [("geomean", t, None, 6) for t in ("1/4", "1/3", "-1/2", "3/2", "2/3", "5/8", "8/13")]
    + [("geomean", t, None, 8)
       for t in ("1/4", "1/3", "3/7", "-1/2", "3/2", "2/3", "5/8", "8/13", "-1/4", "5/4")]
    + [("geomean", t, None, 9)
       for t in ("1/4", "1/3", "-1/2", "3/2", "2/3", "5/8", "8/13", "-1/4")]
    + [("geomean", t, None, 10)
       for t in ("1/4", "1/3", "-1/2", "3/2", "2/3", "5/8", "8/13")]
    + [("geomean", t, None, 12) for t in ("1/2", "1/3", "-1/2")]
    + [("fidelity", None, None, n) for n in (8, 9, 10, 12)]
    + [("tsallis", t, None, n)
       for t, n in (("1/4", 8), ("1/8", 8), ("1/4", 9), ("1/4", 10), ("1/4", 12))]
    + [("kron_power", t, s, 3)
       for s, t in (("1/2", "1/2"), ("1/4", "1/4"), ("1/3", "1/3"), ("1/2", "1/4"))]
    + [("kron_power", "1/2", "1/3", 3)]  # the largest model (m = 810), listed last
)

# emit_roundtrip: the geomean census at n = 4 for every reduced p/q with
# q <= EMIT_QMAX on both sides (t = p/q and t = -p/q), then lifted models.
# tsallis is left out: export_sdpa drops the objective's constant term, so
# the file's optimum is not the function's value (README.md, "Left out")
EMIT_QMAX = 5
EMIT_LIFTED = [
    ("lieb", "1/3", None, 3), ("lieb", "1/2", None, 3), ("lieb", "2/3", None, 3),
    ("lieb", "-1/2", None, 3), ("lieb", "3/2", None, 3),
    ("tsallis_rel", "1/4", None, 3), ("tsallis_rel", "1/8", None, 3),
    ("upsilon", "1/2", None, 3),
    ("kron_power", "1/4", "1/2", 3),
    ("kron_power", "1/2", "1/3", 3),  # the largest model (m = 810), listed last
]


def _census_exponents(qmax):
    seen = []
    for q in range(1, qmax + 1):
        for p in range(q + 1):
            if Fraction(p, q).denominator != q:
                continue
            for t in (Fraction(p, q), Fraction(-p, q)):
                if t not in seen:
                    seen.append(t)
    return [str(t) for t in seen]


def make_round(workload, seed):
    """The cases of one round of ``workload``, drawn from ``seed``.

    As ``tracelift verify`` does, each (family, exponent) sweep of
    verify_small draws its trials in turn from its own ``default_rng(seed)``.
    The other workloads draw their cases in turn from one generator, so no
    two cases share data.
    """
    if workload == "verify_small":
        cases = []
        for family, t, s in SMALL_SWEEP:
            rng = np.random.default_rng(seed)
            cases += [_draw("verify", family, t, s, 2, rng) for _ in range(SMALL_TRIALS)]
        return cases
    if workload == "verify_lifted":
        rng = np.random.default_rng(seed)
        return [_draw("verify", f, t, s, n, rng) for f, t, s, n in LIFTED]
    if workload == "emit_roundtrip":
        rng = np.random.default_rng(seed)
        cases = [_draw("emit", "geomean", t, None, 4, rng) for t in _census_exponents(EMIT_QMAX)]
        return cases + [_draw("emit", f, t, s, n, rng) for f, t, s, n in EMIT_LIFTED]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_small", "verify_lifted", "emit_roundtrip")


# ---------------------------------------------------------------------------
# pipelines


class CaseFailed(Exception):
    """The program reported that it could not complete the case."""


def untimed(layer, fn, *args):
    """``call`` of the plain run: no timer around the library."""
    return fn(*args)


def _witness(case, con, call):
    fam = FAMILIES[case.family]
    if fam.witness is None:
        return call("witness", con.make_witness)
    return call("witness", fam.witness, case.data, case.t, case.s, con)


def run_verify(case, call, solve_options=None):
    """One trial of ``tracelift verify``; returns what the checks need."""
    fam = FAMILIES[case.family]
    con = call("build", fam.build, case.data, case.t, case.s)
    wit = _witness(case, con, call)
    feas = call("check", check_feasible, con.model, wit, EXACT_TOL)
    res = call("solve", solve, con.model, solve_options)
    oracle = call("oracle", fam.oracle, case.data, case.t, case.s)
    if case.family == "geomean":
        call("build", lmi_census_audit, case.t, case.n)
    return con, wit, feas, res, oracle


def run_emit(case, call, path1, path2):
    """``tracelift emit`` plus the SDPA round trip."""
    fam = FAMILIES[case.family]
    con = call("build", fam.build, case.data, case.t, case.s)
    rm, var_map = call("realify", realify, con.model)
    call("export", export_sdpa, rm, path1)
    back = call("import", import_sdpa, path1)
    call("export", export_sdpa, back, path2)
    return con, rm, var_map


def _close(value, want, tol):
    return value is not None and abs(value - want) <= tol * (1 + abs(want))


def check_verify(case, out):
    """Failed checks of one verify case, as strings; raises CaseFailed when
    the solver did not reach optimal."""
    con, wit, feas, res, oracle = out
    if not res.ok:
        raise CaseFailed(f"{case.label}: solver status {res.status}")
    bad = []
    want = case.reference
    div = con.report_divisor
    if not _close(res.objective / div, want, SOLVE_TOL):
        bad.append(f"solver objective {res.objective / div!r} vs reference {want!r}")
    if not feas.ok:
        bad.append("witness infeasible at 1e-9")
    wval = con.model.objective.functional.evaluate(wit) / div
    if not _close(wval, want, EXACT_TOL):
        bad.append(f"witness objective {wval!r} vs reference {want!r}")
    if not _close(oracle, want, EXACT_TOL):
        bad.append(f"kernel oracle {oracle!r} vs reference {want!r}")
    if case.family == "geomean" and not ref.census_within_bound(
            con.model.lmi_census(), case.t.q, case.n, float(case.t) < 0 or float(case.t) > 1):
        bad.append(f"census {con.model.lmi_census()} exceeds the bound")
    return [f"{case.label}: {b}" for b in bad]


def check_emit(case, out, path1, path2):
    """Failed checks of one emit case: byte-identical re-export, and the
    file evaluated by ``reference.evaluate_sdpa`` at the embedded witness."""
    con, rm, var_map = out
    bad = []
    if not filecmp.cmp(path1, path2, shallow=False):
        bad.append("re-export is not byte-identical")
    wit = _witness(case, con, untimed)
    x = ref.real_coordinates(
        [(var_map[v].kind, var_map[v].dim) for v in con.model.vars],
        [wit[v] for v in con.model.vars])
    cx, margin = ref.evaluate_sdpa(path1, x, EXACT_TOL)
    if margin < -1:
        bad.append(f"file not PSD at the witness (margin {margin:.3g})")
    # SDPA minimizes c'x; a maximizing model was exported with c = -b
    value = (-cx if con.model.objective.sense == "maximize" else cx) / con.report_divisor
    if not _close(value, case.reference, EXACT_TOL):
        bad.append(f"file objective {value!r} vs reference {case.reference!r}")
    return [f"{case.label}: {b}" for b in bad]


def model_size(case, out):
    """(scalar coordinates, sum of LMI sizes) of the case's realified model."""
    rm = out[1] if case.kind == "emit" else realify(out[0].model)[0]
    coords = sum((v.dim // 2) ** 2 if v.kind == "phi" else v.dim * (v.dim + 1) // 2
                 for v in rm.vars)
    return coords, sum(lmi.size for lmi in rm.lmis)


def warm_up(cases, path1, path2):
    """First-call costs, paid in set-up: the allocator and BLAS meet the
    round's largest model once (each round lists it last); a verify case
    is solved for two iterations only."""
    big = cases[-1]
    if big.kind == "emit":
        run_emit(big, untimed, path1, path2)
    else:
        run_verify(big, untimed, SolveOptions(max_iters=2))
