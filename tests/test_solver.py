"""Interior-point solver on hand-built and compiled problems."""

import numpy as np
import pytest

from tracelift.geomean import GeoMeanTask, build_geomean
from tracelift.instances import random_matrix, random_pd
from tracelift.kernel import (
    RationalExponent, fidelity_value, geometric_mean, lieb_value, upsilon_value,
)
from tracelift.lieb import build_fidelity, build_lieb, build_upsilon
from tracelift.model import AffineBlock, LinearFunctional, ModelBuilder
from tracelift.solver import SolveOptions, solve


def scalar_var(b):
    return b.fresh_var("x", 1, kind="real")


class TestHandProblems:
    def test_scalar_lower_bound(self):
        # minimize x subject to x >= 1
        b = ModelBuilder()
        x = scalar_var(b)
        b.add_scalar(LinearFunctional(-1.0, [(x, np.eye(1))]))
        b.set_objective("minimize", LinearFunctional(0.0, [(x, np.eye(1))]))
        res = solve(b.freeze())
        assert res.ok
        assert abs(res.objective - 1.0) < 1e-6
        assert abs(res.var_values[x][0, 0] - 1.0) < 1e-6

    def test_two_sided_interval(self):
        # maximize x subject to 1 <= x <= 3
        b = ModelBuilder()
        x = scalar_var(b)
        b.add_scalar(LinearFunctional(-1.0, [(x, np.eye(1))]))
        b.add_scalar(LinearFunctional(3.0, [(x, -np.eye(1))]))
        b.set_objective("maximize", LinearFunctional(0.0, [(x, np.eye(1))]))
        res = solve(b.freeze())
        assert res.ok
        assert abs(res.objective - 3.0) < 1e-6

    def test_max_eigenvalue_cap(self, rng):
        # maximize tr X subject to [[A, X], [X, A]] >= 0 with X Hermitian:
        # optimum X = A, objective tr A
        A = random_pd(2, rng)
        b = ModelBuilder()
        X = b.fresh_var("T", 2)
        b.add_lmi2(AffineBlock.constant(A), AffineBlock.of_var(X), AffineBlock.constant(A))
        b.set_objective("maximize", LinearFunctional(0.0, [(X, np.eye(2))]))
        res = solve(b.freeze())
        assert res.ok
        assert abs(res.objective - np.trace(A).real) < 1e-6

    def test_infeasible_reported(self):
        # x >= 1 and x <= 0 cannot hold together
        b = ModelBuilder()
        x = scalar_var(b)
        b.add_scalar(LinearFunctional(-1.0, [(x, np.eye(1))]))
        b.add_scalar(LinearFunctional(0.0, [(x, -np.eye(1))]))
        b.set_objective("maximize", LinearFunctional(0.0, [(x, np.eye(1))]))
        res = solve(b.freeze())
        assert not res.ok


class TestInteriorIterates:
    def test_near_singular_primal_iterate(self):
        # Carlen-Lieb at t = -1/2 on the fifth (K, A) draw of seed 11 (the
        # second t = -1/2 instance of acceptance criterion 6).  The dual
        # slack grows to ~3e5, so the primal iterate's smallest eigenvalue
        # falls below rounding and ratio-test steps land on matrices that
        # no longer factor; the solver must backtrack and still converge.
        rng = np.random.default_rng(11)
        for _ in range(5):
            K = random_matrix(2, 2, rng, complex_=True)
            A = random_pd(2, rng, complex_=True)
        t = RationalExponent.parse("-1/2")
        con = build_upsilon(K, A, t)
        res = solve(con.model)
        assert res.ok, (res.status, res.iterations, res.duality_gap)
        want = upsilon_value(K, A, t.fraction)
        assert abs(res.objective / con.report_divisor - want) / (1 + abs(want)) <= 1e-6


class TestDivergence:
    def test_nan_direction_reaches_the_ladder(self):
        # lieb t = 2/3 on the first draw of seed 0: an attempt meets a NaN
        # search direction, whose ratio test cannot compute eigenvalues; the
        # attempt must count as diverged so the others are tried
        rng = np.random.default_rng(0)
        K = random_matrix(2, 3, rng)
        A, B = random_pd(2, rng), random_pd(3, rng)
        t = RationalExponent.parse("2/3")
        res = solve(build_lieb(K, A, B, t).model)
        assert res.ok, (res.status, res.iterations, res.duality_gap)
        want = lieb_value(K, A, B, t.fraction)
        assert abs(res.objective - want) / (1 + abs(want)) <= 1e-6


class TestDeterminism:
    def test_repeat_runs_identical(self, rng):
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_geomean(GeoMeanTask(RationalExponent(5, 8), 2, A=A, B=B))
        r1 = solve(con.model)
        r2 = solve(con.model)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations


class TestResultContents:
    def test_var_recovery(self, rng):
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_geomean(GeoMeanTask(RationalExponent(1, 2), 2, A=A, B=B))
        res = solve(con.model)
        assert res.ok
        T = res.var_values[con.target]
        G = geometric_mean(A, B, 0.5)
        # optimal slack pushes T up to the matrix geometric mean itself
        assert np.abs(T - G).max() < 1e-4
        assert res.duality_gap < 1e-7

    def test_complex_recovery(self, rng):
        A = random_pd(2, rng, complex_=True)
        B = random_pd(2, rng, complex_=True)
        con = build_fidelity(A, B)
        res = solve(con.model)
        assert res.ok
        assert abs(res.objective - fidelity_value(A, B)) < 1e-6

    def test_options_respected(self, rng):
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_geomean(GeoMeanTask(RationalExponent(1, 2), 2, A=A, B=B))
        res = solve(con.model, SolveOptions(max_iters=2))
        assert res.iterations <= 2
        assert not res.ok
