"""Acceptance gate: end-to-end structural, numerical, and format checks.

Each criterion prints a single PASS/FAIL line (visible even under output
capture) and enforces a pinned tolerance and runtime budget.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from tracelift.geomean import GeoMeanTask, build_geomean, lmi_census_audit
from tracelift.instances import random_density, random_matrix, random_pd
from tracelift.kernel import (
    RationalExponent,
    fidelity_value,
    geometric_mean,
    herm_power,
    kron,
    lieb_value,
    quantum_rel_entropy,
    tsallis_rel_entropy,
    upsilon_value,
    vec_rows,
)
from tracelift.lieb import (
    build_fidelity,
    build_lieb,
    build_tsallis_rel_entropy,
    build_upsilon,
    upsilon_equality_witness,
)
from tracelift.model import check_feasible, realify
from tracelift.sdpa import export_sdpa, import_sdpa
from tracelift.solver import solve

GEO_T = ["1/4", "1/3", "3/7", "1/2", "5/8", "2/3", "8/13", "-1/2", "-1", "3/2", "2"]
LIEB_T = ["1/3", "1/2", "2/3", "-1/2", "3/2"]
UPS_T = ["1/2", "-1/2", "3/2"]


def announce(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def not_optimal(res):
    """Failure entry for a solve that did not reach ``optimal``."""
    return f"status={res.status} iters={res.iterations} gap={res.duality_gap:.1e}"


def reduced_fractions(qmax):
    for q in range(1, qmax + 1):
        for p in range(0, q + 1):
            if Fraction(p, q).denominator == q or (p in (0, 1) and q == 1):
                yield p, q


def census_constructions():
    """Criterion 1: t = 5/8 and 8/13 at n = 2, 3 (no data)."""
    for n in (2, 3):
        yield (n, build_geomean(GeoMeanTask(RationalExponent(5, 8), n)),
               build_geomean(GeoMeanTask(RationalExponent(8, 13), n)))


def lieb_instances():
    """Criterion 5: 3 complex 2x2 draws per exponent, seed 7."""
    rng = np.random.default_rng(7)
    n = m = 2
    for t in LIEB_T:
        texp = RationalExponent.parse(t)
        for _ in range(3):
            K = random_matrix(n, m, rng, complex_=True)
            A = random_pd(n, rng, complex_=True)
            B = random_pd(m, rng, complex_=True)
            yield t, texp, K, A, B, build_lieb(K, A, B, texp)


def upsilon_instances():
    """Criterion 6: 3 complex 2x2 draws per exponent, seed 11."""
    rng = np.random.default_rng(11)
    for t in UPS_T:
        texp = RationalExponent.parse(t)
        for _ in range(3):
            K = random_matrix(2, 2, rng, complex_=True)
            A = random_pd(2, rng, complex_=True)
            yield t, texp, K, A, build_upsilon(K, A, texp)


def tsallis_densities():
    """Criterion 7: one pair of complex 3x3 density matrices, seed 23."""
    rng = np.random.default_rng(23)
    return random_density(3, rng, complex_=True), random_density(3, rng, complex_=True)


def tsallis_constructions(A, B):
    """Criterion 7: S_t(A||B) models at t = 2^-k, k = 2..8."""
    for k in range(2, 9):
        yield 2.0 ** (-k), build_tsallis_rel_entropy(A, B, RationalExponent(1, 2 ** k))


def fidelity_instances():
    """Criterion 8: 5 complex 2x2 pairs, seed 31."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        A = random_pd(2, rng, complex_=True)
        B = random_pd(2, rng, complex_=True)
        yield A, B, build_fidelity(A, B)


@pytest.fixture(scope="module")
def geo_instances():
    """Constructions shared by criteria 3 and 4: 10 pairs per (t, n)."""
    rng = np.random.default_rng(20240817)
    out = []
    for t in GEO_T:
        texp = RationalExponent.parse(t)
        for n in (2, 3):
            for _ in range(10):
                A, B = random_pd(n, rng), random_pd(n, rng)
                con = build_geomean(GeoMeanTask(texp, n, A=A, B=B))
                out.append((texp, A, B, con))
    return out


def test_criterion_1_census_exactness(capsys):
    start = time.perf_counter()
    msgs = []
    for n, c58, c813 in census_constructions():
        if c58.model.lmi_census() != [(2 * n, 3)]:
            msgs.append(f"5/8 n={n}: {c58.model.lmi_census()}")
        if c813.model.lmi_census() != [(n, 1), (2 * n, 4)]:
            msgs.append(f"8/13 n={n}: {c813.model.lmi_census()}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        msgs.append(f"too slow: {elapsed:.2f}s")
    announce(capsys, 1, not msgs,
             msgs or f"5/8 -> 3 x size 2n, 8/13 -> 4 x size 2n + 1 x size n "
                     f"({elapsed:.2f}s)")


def test_criterion_2_census_bounds(capsys):
    start = time.perf_counter()
    bad = []
    checked = 0
    for p, q in reduced_fractions(64):
        if not 0 <= Fraction(p, q) <= 1:
            continue
        rep = lmi_census_audit(RationalExponent(p, q), n=2)
        if not rep.ok:
            bad.append(f"{p}/{q}")
        if p:
            rep_epi = lmi_census_audit(RationalExponent(-p, q), n=2)
            if not rep_epi.ok:
                bad.append(f"-{p}/{q}")
        checked += 1
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    announce(capsys, 2, ok,
             bad[:5] or f"{checked} reduced exponents within "
                        f"2*floor(log2 q)+1 / +1 bounds ({elapsed:.2f}s)")


def test_criterion_3_geomean_exactness(capsys, geo_instances):
    start = time.perf_counter()
    worst = 0.0
    fails = []
    for texp, A, B, con in geo_instances:
        res = solve(con.model)
        tag = f"t={texp} n={A.shape[0]}"
        if not res.ok:
            fails.append(f"{tag} {not_optimal(res)}")
            continue
        want = np.trace(geometric_mean(A, B, texp)).real
        rel = abs(res.objective - want) / (1 + abs(want))
        worst = max(worst, rel)
        if rel > 1e-6:
            fails.append(f"{tag} rel={rel:.2e}")
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed < 120.0
    announce(capsys, 3, ok,
             fails[:5] or f"{len(geo_instances)} solves, worst rel err "
                          f"{worst:.2e} <= 1e-6 ({elapsed:.1f}s)")


def test_criterion_4_witness_feasibility(capsys, geo_instances):
    fails = []
    for texp, A, B, con in geo_instances:
        wit = con.make_witness()
        if not check_feasible(con.model, wit, tol=1e-9).ok:
            fails.append(f"t={texp} n={A.shape[0]}")
    announce(capsys, 4, not fails,
             fails[:5] or f"proof witnesses feasible at 1e-9 on all "
                          f"{len(geo_instances)} instances")


def test_criterion_5_lieb_exactness(capsys):
    start = time.perf_counter()
    fails = []
    worst = 0.0
    n = m = 2
    for t, texp, K, A, B, con in lieb_instances():
        sizes_ok = (
            all(s in (2 * n * m, n * m) for s, _ in con.model.lmi_census())
            and con.model.scalar_count == 1
        )
        res = solve(con.model)
        if not res.ok:
            fails.append(f"t={t} {not_optimal(res)} sizes_ok={sizes_ok}")
            continue
        want = lieb_value(K, A, B, texp)
        rel = abs(res.objective / con.report_divisor - want) / (1 + abs(want))
        worst = max(worst, rel)
        if not (rel <= 1e-6 and sizes_ok):
            fails.append(f"t={t} rel={rel:.2e} sizes_ok={sizes_ok}")
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed < 120.0
    announce(capsys, 5, ok,
             fails[:5] or f"tau* matches lieb_value, worst rel {worst:.2e}, "
                          f"2nm-block sizes audited ({elapsed:.1f}s)")


def test_criterion_6_carlen_lieb(capsys):
    fails = []
    for t, texp, K, A, con in upsilon_instances():
        want = upsilon_value(K, A, texp)
        res = solve(con.model)
        wit = upsilon_equality_witness(K, A, texp, con)
        feas = check_feasible(con.model, wit, tol=1e-8).ok
        witval = con.model.objective.functional.evaluate(wit) / con.report_divisor
        tight = abs(witval - want) / (1 + abs(want)) <= 1e-8
        if not res.ok:
            fails.append(f"t={t} {not_optimal(res)} feas={feas} tight={tight}")
            continue
        rel = abs(res.objective / con.report_divisor - want) / (1 + abs(want))
        if not (rel <= 1e-6 and feas and tight):
            fails.append(f"t={t} rel={rel:.2e} feas={feas} tight={tight}")
    announce(capsys, 6, not fails,
             fails[:5] or "tau*/t matches upsilon_value at 1e-6; equality "
                          "witness X=(K*A^tK)^{1/t} feasible and tight at 1e-8")


def test_criterion_7_tsallis_limit(capsys):
    A, B = tsallis_densities()
    target = quantum_rel_entropy(A, B)
    errs = []
    for t, _ in tsallis_constructions(A, B):
        errs.append((t, abs(tsallis_rel_entropy(A, B, t) - target)))
    decreasing = all(e2 < e1 for (_, e1), (_, e2) in zip(errs, errs[1:]))
    ratios = [e / t for t, e in errs]
    bounded = max(ratios) < 10 * (1 + ratios[0])
    ok = decreasing and bounded
    announce(capsys, 7, ok,
             f"|S_t - S| decreasing={decreasing}, error/t bounded "
             f"(max ratio {max(ratios):.3g})")


def test_criterion_8_fidelity(capsys):
    fails = []
    worst = 0.0
    for A, B, con in fidelity_instances():
        res = solve(con.model)
        if not res.ok:
            fails.append(not_optimal(res))
            continue
        want = fidelity_value(A, B)
        rel = abs(res.objective - want) / (1 + abs(want))
        worst = max(worst, rel)
        if rel > 1e-6:
            fails.append(f"rel={rel:.2e}")
    announce(capsys, 8, not fails,
             fails or f"5 random complex 2x2 pairs, worst rel {worst:.2e}")


def test_criterion_9_identity_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    tol = 1e-9
    fails = []
    for i in range(100):
        n = 2 + (i % 2)
        A, B = random_pd(n, rng, complex_=True), random_pd(n, rng, complex_=True)
        s = rng.uniform(-1, 2)
        t = rng.uniform(-1, 2)

        def close(X, Y):
            return np.abs(X - Y).max() <= tol * (1 + np.abs(Y).max())

        # Eq. (21): A #_t B = B #_{1-t} A
        if not close(geometric_mean(A, B, t), geometric_mean(B, A, 1 - t)):
            fails.append(f"[{i}] symmetry")
        # Eq. (22): A #_s (A #_t B) = A #_{st} B
        if not close(geometric_mean(A, geometric_mean(A, B, t), s),
                     geometric_mean(A, B, s * t)):
            fails.append(f"[{i}] composition")
        # Eq. (23): (A #_t B) #_s B = A #_{s+t-st} B
        if not close(geometric_mean(geometric_mean(A, B, t), B, s),
                     geometric_mean(A, B, s + t - s * t)):
            fails.append(f"[{i}] reverse composition")
        # Eq. (8): vec(K)* (A^{1-t} kron conj(B)^t) vec(K) = tr[K* A^{1-t} K B^t]
        u = rng.uniform(0, 1)
        K = random_matrix(n, n, rng, complex_=True)
        v = vec_rows(K).ravel()
        lhs = (v.conj() @ kron(herm_power(A, 1 - u), herm_power(B, u).conj()) @ v).real
        if abs(lhs - lieb_value(K, A, B, u)) > tol * (1 + abs(lhs)):
            fails.append(f"[{i}] vec lift")
        # Eq. (9): A^{1-t} kron conj(B)^t = (A kron I) #_t (I kron conj(B))
        In = np.eye(n)
        left = kron(herm_power(A, 1 - u), herm_power(B, u).conj())
        right = geometric_mean(kron(A, In), kron(In, B.conj()), u)
        if not close(left, right):
            fails.append(f"[{i}] kron geodesic")
        # midpoint concavity on (0,1), convexity on [-1,0) and (1,2]
        C, D = random_pd(n, rng, complex_=True), random_pd(n, rng, complex_=True)
        mid = geometric_mean((A + C) / 2, (B + D) / 2, u)
        avg = (geometric_mean(A, B, u) + geometric_mean(C, D, u)) / 2
        if np.linalg.eigvalsh(mid - avg).min() < -tol:
            fails.append(f"[{i}] concavity")
        w = rng.choice([rng.uniform(-1, 0), rng.uniform(1, 2)])
        midc = geometric_mean((A + C) / 2, (B + D) / 2, w)
        avgc = (geometric_mean(A, B, w) + geometric_mean(C, D, w)) / 2
        if np.linalg.eigvalsh(avgc - midc).min() < -tol:
            fails.append(f"[{i}] convexity")
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed < 30.0
    announce(capsys, 9, ok,
             fails[:5] or f"symmetry/composition/vec-lift/kron-geodesic/"
                          f"mid-concavity over 100 instances at 1e-9 "
                          f"({elapsed:.1f}s)")


def test_criterion_10_sdpa_round_trip(capsys, tmp_path, geo_instances):
    fails = 0
    p1, p2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
    # every model that criteria 1, 3 and 5-8 build, rebuilt from the same
    # seeds so the count does not depend on which other tests ran
    models = [con.model for _, c58, c813 in census_constructions() for con in (c58, c813)]
    models += [con.model for *_, con in geo_instances]
    models += [con.model for *_, con in lieb_instances()]
    models += [con.model for *_, con in upsilon_instances()]
    models += [con.model for _, con in tsallis_constructions(*tsallis_densities())]
    models += [con.model for *_, con in fidelity_instances()]
    for model in models:
        rm, _ = realify(model)
        export_sdpa(rm, p1)
        export_sdpa(import_sdpa(p1), p2)
        if p1.read_bytes() != p2.read_bytes():
            fails += 1
    announce(capsys, 10, fails == 0,
             f"{len(models)} models export->import->export byte-identical"
             if fails == 0 else f"{fails} round-trip mismatches")
