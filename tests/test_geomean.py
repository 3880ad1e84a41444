"""Geometric-mean compilation: census, witnesses, solver agreement."""

from fractions import Fraction

import numpy as np
import pytest

from tracelift.errors import WrongExponent
from tracelift.geomean import GeoMeanTask, _emit_epi, _emit_hyp, build_geomean, emit, lmi_census_audit
from tracelift.instances import random_pd
from tracelift.kernel import RationalExponent, geometric_mean, hermitize
from tracelift.model import AffineBlock, ModelBuilder, WitnessAssignment, check_feasible
from tracelift.solver import solve


def census_of(t, n=2):
    con = build_geomean(GeoMeanTask(RationalExponent.parse(t), n))
    return con.model.lmi_census()


class TestCensus:
    def test_five_eighths(self):
        # dyadic: exactly three blocks of size 2n, no size-n block
        assert census_of("5/8", n=2) == [(4, 3)]
        assert census_of("5/8", n=3) == [(6, 3)]

    def test_eight_thirteenths(self):
        # pow2-numerator route: four size-2n blocks plus one size-n cap
        assert census_of("8/13", n=2) == [(2, 1), (4, 4)]

    def test_half(self):
        assert census_of("1/2", n=3) == [(6, 1)]

    def test_endpoints(self):
        assert census_of("0", n=3) == [(3, 1)]
        assert census_of("1", n=3) == [(3, 1)]

    def test_epi_adds_one(self):
        hyp = sum(c for _, c in census_of("1/2", n=2))
        epi = sum(c for _, c in census_of("-1/2", n=2))
        assert epi == hyp + 1

    @pytest.mark.parametrize("t, names", [("1/3", "T W Z1 U"), ("2/3", "T W Z1"),
                                          ("-1/5", "T S W Z1 Z2 U Z3")])
    def test_only_the_target_is_named_T(self, t, names):
        model = build_geomean(GeoMeanTask(RationalExponent.parse(t), 2, A=np.eye(2), B=np.eye(2))).model
        assert " ".join(v.name for v in model.vars) == names

    def test_audit_sweep(self):
        for q in range(1, 33):
            for p in range(1, q):
                if Fraction(p, q).denominator != q:
                    continue
                rep = lmi_census_audit(RationalExponent(p, q), n=2)
                assert rep.ok, f"{p}/{q}: {rep}"
                rep = lmi_census_audit(RationalExponent(-p, q), n=2)
                assert rep.ok, f"-{p}/{q}: {rep}"


class TestModeValidation:
    # the emitters themselves check their range; emit picks the one whose
    # range holds t
    def test_hyp_rejects_negative(self):
        eye = AffineBlock.constant(np.eye(2))
        with pytest.raises(WrongExponent):
            _emit_hyp(ModelBuilder(), eye, eye, eye, Fraction(-1, 2))

    def test_epi_rejects_interior(self):
        eye = AffineBlock.constant(np.eye(2))
        with pytest.raises(WrongExponent):
            _emit_epi(ModelBuilder(), eye, eye, eye, Fraction(1, 3))

    def test_out_of_range(self):
        from tracelift.errors import DomainError

        with pytest.raises(DomainError):
            RationalExponent(7, 3)


class TestWitness:
    @pytest.mark.parametrize(
        "t", ["1/4", "1/3", "3/7", "1/2", "5/8", "2/3", "8/13", "-1/2", "-1", "3/2", "2"]
    )
    def test_feasible_and_tight(self, t, rng):
        texp = RationalExponent.parse(t)
        A, B = random_pd(3, rng), random_pd(3, rng)
        con = build_geomean(GeoMeanTask(texp, 3, A=A, B=B))
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        got = con.model.objective.functional.evaluate(wit)
        want = np.trace(geometric_mean(A, B, texp)).real
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


class TestSolver:
    @pytest.mark.parametrize("t", ["1/3", "5/8", "-1/2", "3/2"])
    def test_objective_matches_oracle(self, t, rng):
        texp = RationalExponent.parse(t)
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_geomean(GeoMeanTask(texp, 2, A=A, B=B))
        res = solve(con.model)
        assert res.ok
        want = np.trace(geometric_mean(A, B, texp)).real
        assert abs(res.objective - want) <= 1e-6 * (1 + abs(want))


class TestDatumTarget:
    def test_fixed_target_feasibility(self, rng):
        # With T pinned to the true mean the constraints hold at the
        # recipes' witness; shifting T up in the hypograph direction breaks
        # them.
        A, B = random_pd(2, rng), random_pd(2, rng)
        G = geometric_mean(A, B, 1 / 3)

        def feasible(T):
            b = ModelBuilder()
            emit(b, *(AffineBlock.constant(hermitize(M)) for M in (A, B, T)), Fraction(1, 3))
            wit = WitnessAssignment()
            for var, recipe in b.recipes:
                wit[var] = recipe(wit)
            return check_feasible(b.freeze(), wit, tol=1e-9).ok

        assert feasible(G)
        assert not feasible(G + 0.1 * np.eye(2))
