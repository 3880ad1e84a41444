"""Symbolic model layer: blocks, constraints, feasibility, realification."""

import re

import numpy as np
import pytest

from tracelift.errors import DimensionMismatch, MissingAssignment, NoObjective, TraceliftError
from tracelift.geomean import GeoMeanTask, build_geomean
from tracelift.instances import random_pd
from tracelift.kernel import RationalExponent
from tracelift.sdpa import export_sdpa
from tracelift.solver import solve
from tracelift.model import (
    AffineBlock,
    LinearFunctional,
    LmiConstraint,
    ModelBuilder,
    SdpModel,
    Slices,
    VarId,
    VarTerm,
    WitnessAssignment,
    as_matrix,
    canonical,
    check_feasible,
    embed_witness,
    model_is_real,
    phi,
    realify,
    var_basis,
    var_coords,
)


def two_block_model(A, B):
    """[[A, Z], [Z*, B]] >= 0, maximize tr Z-slot diagonal stand-in."""
    b = ModelBuilder()
    Z = b.fresh_var("T", A.shape[0])
    b.add_lmi2(AffineBlock.constant(A), AffineBlock.of_var(Z), AffineBlock.constant(B))
    b.set_objective("maximize", LinearFunctional(0.0, [(Z, np.eye(A.shape[0]))]))
    return b.freeze(), Z


class TestBuilder:
    def test_naming(self):
        b = ModelBuilder()
        assert b.fresh_var("Z", 2).name == "Z1"
        assert b.fresh_var("Z", 2).name == "Z2"
        assert b.fresh_var("W", 2).name == "W"
        assert b.fresh_var("W", 2).name == "W2"
        assert b.fresh_var("T", 2).name == "T"

    def test_constant_difference(self, pd_pair):
        A, B = pd_pair
        assert np.array_equal((AffineBlock.constant(A) - AffineBlock.constant(B)).evaluate({}), A - B)

    def test_census(self, pd_pair):
        A, B = pd_pair
        model, _ = two_block_model(A, B)
        assert model.lmi_census() == [(6, 1)]
        assert model.scalar_count == 0

    def test_require_objective(self):
        b = ModelBuilder()
        b.add_lmi([[AffineBlock.constant(np.eye(2))]])
        with pytest.raises(NoObjective):
            b.freeze().require_objective()


class TestPhi:
    def test_phi_structure(self, rng):
        M = random_pd(3, rng)
        P = phi(M)
        assert P.shape == (6, 6)
        assert np.abs(P - P.T).max() < 1e-14
        # spectrum doubles
        got = np.sort(np.linalg.eigvalsh(P))
        want = np.sort(np.repeat(np.linalg.eigvalsh(M), 2))
        assert np.abs(got - want).max() < 1e-10

    def test_phi_multiplicative(self, rng):
        M, N = random_pd(2, rng), random_pd(2, rng)
        assert np.abs(phi(M @ N) - phi(M) @ phi(N)).max() < 1e-12

    def test_var_coords_round_trip(self, rng):
        from tracelift.model import VarId

        X = random_pd(3, rng)
        for v, value in [(VarId(0, 3, "T", "complex"), X), (VarId(0, 3, "T", "real"), X.real),
                         (VarId(0, 6, "T", "phi"), phi(X))]:
            c = var_coords(v, value)
            assert c.shape == (len(var_basis(v)),)
            back = sum(ck * E for ck, E in zip(c, var_basis(v)))
            assert np.abs(back - value).max() < 1e-12


_X, _C = VarId(0, 2, "X"), AffineBlock.constant(np.eye(2))


class TestRejectedInput:
    # each malformed input raises its own class: DimensionMismatch for a
    # size that does not fit, the base TraceliftError for the rest
    @pytest.mark.parametrize("make, error, message", [
        (lambda: VarTerm(_X, kl=np.eye(2), kr=np.eye(2)), TraceliftError, "one Kronecker factor"),
        (lambda: VarTerm(_X, op="T"), TraceliftError, "unknown op"),
        (lambda: AffineBlock(3, [VarTerm(_X)]), DimensionMismatch, "term of dim 2 in block of dim 3"),
        (lambda: LmiConstraint([[_C, _C]]), DimensionMismatch, "1x1 or 2x2"),
        (lambda: LmiConstraint([[_C, _C], [_C, AffineBlock.constant(np.eye(3))]]),
         DimensionMismatch, "share one dimension"),
        (lambda: SdpModel([_X, VarId(0, 3, "Y")], []), TraceliftError, "indices must be unique"),
        (lambda: var_basis(VarId(0, 2, "Y", "quaternion")), TraceliftError, "unknown variable kind"),
        (lambda: var_basis(VarId(0, 3, "Y", "phi")), DimensionMismatch, "even dimension"),
        (lambda: as_matrix(np.eye(3), 2), DimensionMismatch, "shape (3, 3), expected (2, 2)"),
    ], ids=["two-factors", "unknown-op", "term-size", "grid-1x2", "grid-sizes", "one-index",
            "unknown-kind", "odd-phi", "value-shape"])
    def test_raises(self, make, error, message):
        with pytest.raises(TraceliftError, match=re.escape(message)) as exc:
            make()
        assert type(exc.value) is error

    def test_non_hermitian_grid(self):
        skew = AffineBlock.constant(np.array([[1.0, 2.0], [0.0, 1.0]]))
        model = SdpModel([_X], [LmiConstraint([[skew]], label="skew")])
        with pytest.raises(TraceliftError, match="LMI skew evaluates to a non-Hermitian matrix") as exc:
            check_feasible(model, WitnessAssignment({_X: np.eye(2)}))
        assert type(exc.value) is TraceliftError


class TestCheckFeasible:
    def test_pass_and_fail(self, pd_pair):
        A, B = pd_pair
        model, Z = two_block_model(A, B)
        from tracelift.kernel import geometric_mean

        good = WitnessAssignment({Z: geometric_mean(A, B, 0.5)})
        assert check_feasible(model, good, tol=1e-9).ok
        bad = WitnessAssignment({Z: geometric_mean(A, B, 0.5) + np.eye(3)})
        assert not check_feasible(model, bad, tol=1e-9).ok

    def test_reads_the_held_slices(self, rng):
        # the proof witness is checked against the slices that solve and
        # export_sdpa read: halving the one on Z1's first diagonal entry in
        # the step LMI [[A, Z2], [Z2, Z1]] of t = 1/4 makes it infeasible
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_geomean(GeoMeanTask(RationalExponent(1, 4), 2, A=A, B=B))
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        sl = con.model.lmis[-1].slices()
        i, j = np.divmod(sl.p, len(sl.G0))
        sl.v[np.flatnonzero(i == j)[0]] *= 0.5
        report = check_feasible(con.model, wit, tol=1e-9)
        assert [c.ok for c in report.checks] == [True, False]

    def test_missing_assignment(self, pd_pair):
        A, B = pd_pair
        model, _ = two_block_model(A, B)
        with pytest.raises(MissingAssignment):
            check_feasible(model, WitnessAssignment())


class TestRealify:
    def test_real_model_keeps_sizes(self, pd_pair_real):
        A, B = pd_pair_real
        model, _ = two_block_model(A, B)
        assert model_is_real(model)
        rm, _ = realify(model)
        assert rm.realified
        assert rm.lmi_census() == [(6, 1)]

    def test_solve_recovers_real_model_values(self, pd_pair_real):
        # the realified real model keeps only the coordinates with a real
        # basis matrix, and solve maps its solution back over those: the
        # optimal Z is the geometric mean A # B
        from tracelift.kernel import geometric_mean

        A, B = pd_pair_real
        model, Z = two_block_model(A, B)
        res = solve(model)
        assert res.ok
        assert np.abs(res.var_values[Z] - geometric_mean(A, B, 0.5)).max() < 1e-4

    def test_complex_model_embeds(self, pd_pair):
        A, B = pd_pair
        model, _ = two_block_model(A, B)
        assert not model_is_real(model)
        rm, _ = realify(model)
        assert rm.lmi_census() == [(12, 1)]

    def test_objective_value_preserved(self, pd_pair):
        from tracelift.kernel import geometric_mean

        A, B = pd_pair
        model, Z = two_block_model(A, B)
        rm, var_map = realify(model)
        wit = WitnessAssignment({Z: geometric_mean(A, B, 0.5)})
        embedded = embed_witness(var_map, wit)
        assert check_feasible(rm, embedded, tol=1e-9).ok
        v1 = model.objective.functional.evaluate(wit)
        v2 = rm.objective.functional.evaluate(embedded)
        assert abs(v1 - v2) < 1e-10

    def test_real_variable_in_complex_model(self, rng):
        # a real symmetric T of dimension 2 next to complex data stays a
        # real variable with 3 coordinates, and a complex objective
        # coefficient acts on it through its real part
        A, B = random_pd(2, rng), random_pd(2, rng)
        b = ModelBuilder()
        T = b.fresh_var("T", 2, kind="real")
        b.add_lmi2(AffineBlock.constant(A), AffineBlock.of_var(T), AffineBlock.constant(B))
        C = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        b.set_objective("maximize", LinearFunctional(0.0, [(T, C)]))
        model = b.freeze()
        rm, var_map = realify(model)
        assert (var_map[T].dim, var_map[T].kind) == (2, "real")
        canonical(rm)
        res = solve(model)
        assert res.ok
        wit = WitnessAssignment({T: res.var_values[T].real})
        embedded = embed_witness(var_map, wit)
        assert check_feasible(rm, embedded, tol=1e-9).ok
        # the realified LMI is phi of the original one up to a permutation
        want = np.repeat(np.linalg.eigvalsh(model.lmis[0].assemble(wit)), 2)
        assert np.allclose(np.linalg.eigvalsh(rm.lmis[0].assemble(embedded)), want)
        v1 = model.objective.functional.evaluate(wit)
        assert abs(rm.objective.functional.evaluate(embedded) - v1) < 1e-12
        assert abs(res.objective - v1) < 1e-12

    def test_imaginary_coefficient_on_real_data(self, pd_pair_real, rng):
        # [[A, iZ], [-iZ, B]] with real A and B: the slices of Z's real basis
        # matrices are imaginary, so the model is not real and embeds, and
        # phi of each grid slot doubles the spectrum
        A, B = pd_pair_real
        b = ModelBuilder()
        Z = b.fresh_var("T", 3)
        b.add_lmi2(AffineBlock.constant(A), AffineBlock.of_var(Z, coeff=1j), AffineBlock.constant(B))
        b.set_objective("maximize", LinearFunctional(0.0, [(Z, np.eye(3))]))
        model = b.freeze()
        assert not model_is_real(model)
        rm, var_map = realify(model)
        assert rm.lmi_census() == [(12, 1)] and var_map[Z].kind == "phi"
        wit = WitnessAssignment({Z: 0.2 * random_pd(3, rng)})
        want = np.repeat(np.linalg.eigvalsh(model.lmis[0].assemble(wit)), 2)
        got = np.linalg.eigvalsh(rm.lmis[0].assemble(embed_witness(var_map, wit)))
        assert np.abs(got - want).max() < 1e-12

    def test_realify_idempotent(self, pd_pair):
        A, B = pd_pair
        model, _ = two_block_model(A, B)
        rm, _ = realify(model)
        rm2, _ = realify(rm)
        assert rm2 is rm


class TestHeldSlices:
    def test_compiled_once(self, pd_pair, tmp_path, monkeypatch):
        # counting LMIs compiles nothing; realify compiles each LMI once, and
        # a solve and then an export of the realified model read the slices
        # it holds
        calls = []
        compile_ = LmiConstraint._compile
        monkeypatch.setattr(LmiConstraint, "_compile", lambda lmi: calls.append(lmi) or compile_(lmi))
        model, _ = two_block_model(*pd_pair)
        assert model.lmi_census() == [(6, 1)] and calls == []
        rm, _ = realify(model)
        held = [lmi.slices() for lmi in rm.lmis]
        assert solve(model).ok and solve(rm).ok
        export_sdpa(rm, tmp_path / "m.dat-s")
        assert calls == list(model.lmis)
        assert all(lmi.slices() is sl for lmi, sl in zip(rm.lmis, held))

    def test_gather_sums_in_the_order_given(self):
        # on a 2x2 G0, key 5 is slice 1 at position 1, and key 7 slice 1 at 3:
        # 1e16 + 1 rounds to 1e16, so the order of one key's entries decides
        # whether the 1 survives, and a zero sum is dropped
        keys = np.array([7, 5, 7, 0, 5, 2, 5, 7])
        vals = np.array([1e16, 1e16, -1e16, 2.0, 1.0, 3.0, -1e16, 1.0])
        s, p, v = Slices.gather(np.zeros((2, 2)), [], keys, vals)[2:]
        assert (s.tolist(), p.tolist(), v.tolist()) == ([0, 0, 1], [0, 2, 3], [2.0, 3.0, 1.0])

    def test_gather_sorts_by_slice_then_position(self, rng):
        keys = rng.permutation(40)[:25]
        sl = Slices.gather(np.zeros((3, 3)), [], keys, rng.standard_normal(25))
        assert sorted(zip(sl.s, sl.p)) == list(zip(sl.s, sl.p))
        assert (sl.s * 9 + sl.p).tolist() == sorted(keys)

    def test_gather_sums_complex_parts(self):
        # a key whose real parts cancel keeps its imaginary sum, and one
        # whose parts both cancel is dropped
        keys = np.array([4, 1, 4, 1, 3, 3])
        vals = np.array([1 + 1j, 2 - 1j, -1 + 1j, 3 + 1j, 1 + 2j, -1 - 2j])
        sl = Slices.gather(np.zeros((2, 2)), [], keys, vals)
        assert sl.v.dtype == complex
        assert (sl.s.tolist(), sl.p.tolist(), sl.v.tolist()) == ([0, 1], [1, 0], [5 + 0j, 2j])

    def test_functional_made_from_slices(self, rng):
        # a functional made from slices evaluates from them: it has no terms
        x = VarId(0, 2, "X", "real")
        sl = Slices.gather(np.array([[1.5]]), [x], np.array([0, 2]), np.array([2.0, -1.0]))
        f = LinearFunctional(1.5, slices=sl)
        assert f.terms == () and f.slices() is sl
        X = random_pd(2, rng, complex_=False)
        c = var_coords(x, X)
        assert f.evaluate({x: X}) == 1.5 + (np.array([2.0, -1.0]) * c[[0, 2]]).sum()


class TestUnconstrained:
    """Models that SDPA cannot hold, and a solve with no constraint: each
    raises before it writes or solves anything."""

    def test_export_without_variable(self, tmp_path):
        b = ModelBuilder()
        b.add_lmi([[AffineBlock.constant(np.eye(2))]])
        b.set_objective("maximize", LinearFunctional(1.0, []))
        with pytest.raises(TraceliftError, match="no variable"):
            export_sdpa(realify(b.freeze())[0], tmp_path / "m.dat-s")
        assert not (tmp_path / "m.dat-s").exists()

    def test_export_without_constraint(self, tmp_path):
        b = ModelBuilder()
        x = b.fresh_var("x", 1, kind="real")
        b.set_objective("maximize", LinearFunctional(0.0, [(x, np.eye(1))]))
        with pytest.raises(TraceliftError, match="no constraint"):
            export_sdpa(realify(b.freeze())[0], tmp_path / "m.dat-s")
        assert not (tmp_path / "m.dat-s").exists()

    def test_solve_without_constraint(self):
        b = ModelBuilder()
        x = b.fresh_var("x", 1, kind="real")
        b.set_objective("minimize", LinearFunctional(0.0, [(x, np.eye(1))]))
        with pytest.raises(TraceliftError, match="no constraint"):
            solve(b.freeze())


class TestSchurEquivalence:
    def test_both_directions(self, rng):
        # [[T, A], [A, S]] PSD iff A S^{-1} A <= T (A Hermitian, S PD)
        for _ in range(5):
            A = random_pd(2, rng)
            S = random_pd(2, rng)
            base = A @ np.linalg.inv(S) @ A
            up = base + 0.1 * np.eye(2)
            down = base - 0.1 * np.eye(2)
            block_up = np.block([[up, A], [A, S]])
            block_down = np.block([[down, A], [A, S]])
            assert np.linalg.eigvalsh(block_up)[0] > -1e-10
            assert np.linalg.eigvalsh(block_down)[0] < 0
