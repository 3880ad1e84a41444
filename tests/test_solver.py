"""Interior-point solver on hand-built and compiled problems."""

from fractions import Fraction

import numpy as np
import pytest

from tracelift.geomean import GeoMeanTask, build_geomean
from tracelift.instances import random_matrix, random_pd
from tracelift.kernel import (
    RationalExponent, fidelity_value, geometric_mean, lieb_value, upsilon_value,
)
from tracelift.lieb import build_fidelity, build_kron_power, build_lieb, build_multivariate, build_upsilon
from tracelift.model import AffineBlock, LinearFunctional, ModelBuilder, canonical, realify, var_basis
from tracelift import solver
from tracelift.solver import SolveOptions, _Blocks, _chol, _nt_scaling, _second_order, solve


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
        # with no certificate of infeasibility, the status says what happened
        assert res.status == "diverged"
        # every rung of the ladder ran and diverged, and says how far it got
        assert [(a.tau_mul, a.frac, a.outcome) for a in res.attempts] == [
            (10.0, 0.98, "diverged"), (1.0, 0.95, "diverged"), (100.0, 0.9, "diverged")]
        assert all(a.iterations > 0 for a in res.attempts)


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
        want = upsilon_value(K, A, t)
        assert abs(res.objective / con.report_divisor - want) / (1 + abs(want)) <= 1e-6


def lieb_two_thirds():
    # lieb t = 2/3 on the first draw of seed 0.  With two BLAS threads its
    # primal iterate becomes singular to rounding: it still factors, but
    # eigh finds an eigenvalue <= 0 in it, where the eigenvalue formula for
    # the NT scaling W reaches ~1e141 and the Schur solve gives a NaN
    # direction (TestNtScaling)
    rng = np.random.default_rng(0)
    K = random_matrix(2, 3, rng)
    A, B = random_pd(2, rng), random_pd(3, rng)
    t = RationalExponent.parse("2/3")
    return build_lieb(K, A, B, t).model, lieb_value(K, A, B, t)


class TestDivergence:
    def test_nan_direction_reaches_the_ladder(self):
        model, want = lieb_two_thirds()
        res = solve(model)
        assert res.ok, (res.status, res.iterations, res.duality_gap)
        assert abs(res.objective - want) / (1 + abs(want)) <= 1e-6

    def test_attempts_log_the_ladder(self):
        # exact counts depend on the BLAS thread count, so none is asserted
        model, _ = lieb_two_thirds()
        res = solve(model)
        *before, last = res.attempts
        assert all(a.outcome == "diverged" for a in before)
        assert last.outcome == "optimal"
        assert last.iterations == res.iterations


def nt_scaling(X, S):
    """_nt_scaling of one pair, as a stack of one."""
    (Lx, _), (Ls, _) = _chol([X[None], S[None]])
    W, _, _ = _nt_scaling(X[None], S[None], Lx, Ls)
    return W[0]


def singular_to_rounding(rng):
    """A 4x4 X that factors but in which eigh finds an eigenvalue <= 0,
    or None for a draw where it does not."""
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    X = (Q * [8.0, 3.0, 1.0, 1e-17]) @ Q.T
    X = (X + X.T) / 2
    if _chol([X[None]]) is None or np.linalg.eigvalsh(X).min() > 0:
        return None
    return X


class TestNtScaling:
    def test_w_s_w_is_x(self, rng):
        R = rng.standard_normal((2, 4, 4))
        X, S = (Rb @ Rb.T + np.eye(4) for Rb in R)
        W = nt_scaling(X, S)
        assert np.abs(W @ S @ W - X).max() <= 1e-12 * np.abs(X).max()

    def test_singular_to_rounding(self):
        # X factors, but eigh finds an eigenvalue <= 0 in it: W must come
        # out bounded and still satisfy W S W = X.  X is only known to
        # rounding in its near-null direction, and W S W carries that
        # uncertainty amplified, hence the loose tolerance
        found = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = singular_to_rounding(rng)
            if X is None:
                continue
            found += 1
            R = rng.standard_normal((4, 4))
            S = R @ R.T + np.eye(4)
            W = nt_scaling(X, S)
            assert np.abs(W).max() < 1e3
            assert np.abs(W @ S @ W - X).max() <= 1e-6 * np.abs(X).max()
        assert found

    def test_mixed_stack_matches_single_calls(self):
        # one block of the stack takes the Cholesky/SVD fallback, the
        # others the eigenvalue formula; each must come out bit for bit as
        # when it is scaled alone
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = singular_to_rounding(rng)
            if X is not None:
                break
        R = rng.standard_normal((4, 4, 4))
        Xs = np.stack([R[0] @ R[0].T + np.eye(4), X, R[1] @ R[1].T + np.eye(4)])
        Ss = np.stack([R[2] @ R[2].T + np.eye(4)] * 2 + [R[3] @ R[3].T + np.eye(4)])
        (Lx, _), (Ls, _) = _chol([Xs, Ss])
        W, _, _ = _nt_scaling(Xs, Ss, Lx, Ls)
        for k in range(3):
            assert np.array_equal(W[k], nt_scaling(Xs[k], Ss[k]))
            assert np.abs(W[k] @ Ss[k] @ W[k] - Xs[k]).max() <= 1e-6 * np.abs(Xs[k]).max()
        assert np.abs(W[1]).max() < 1e3


def assert_factor(X, S, W, G, V):
    """G G' = W and G' S G = diag(V) for every block, at 1e-12 of its scale."""
    for Xk, Sk, Wk, Gk, Vk in zip(X, S, W, G, V):
        assert np.abs(Gk @ Gk.T - Wk).max() <= 1e-12 * np.abs(Wk).max()
        assert np.abs(Gk.T @ Sk @ Gk - np.diag(Vk)).max() <= 1e-12 * Vk.max()


class TestScalingFactor:
    def test_eigenvalue_formula(self, rng):
        X, S = sym_stack(rng, 3, 5, shift=1.0), sym_stack(rng, 3, 5, shift=1.0)
        (Lx, _), (Ls, _) = _chol([X, S])
        assert_factor(X, S, *_nt_scaling(X, S, Lx, Ls))

    def test_singular_to_rounding(self):
        # the Cholesky/SVD fallback: only draws in which _nt_scaling's eigh
        # does find an eigenvalue <= 0 take it
        found = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = singular_to_rounding(rng)
            if X is None or np.linalg.eigh(X)[0][0] > 0:
                continue
            found += 1
            X, S = X[None], sym_stack(rng, 1, 4, shift=1.0)
            (Lx, _), (Ls, _) = _chol([X, S])
            assert_factor(X, S, *_nt_scaling(X, S, Lx, Ls))
        assert found

    def test_mixed_stack(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = singular_to_rounding(rng)
            if X is not None and np.linalg.eigh(X)[0][0] <= 0:
                break
        Xs = sym_stack(rng, 3, 4, shift=1.0)
        Xs[1] = X
        Ss = sym_stack(rng, 3, 4, shift=1.0)
        (Lx, _), (Ls, _) = _chol([Xs, Ss])
        assert_factor(Xs, Ss, *_nt_scaling(Xs, Ss, Lx, Ls))


class TestSecondOrder:
    def test_scaled_affine_primal_step(self, rng):
        # dX~ = G^-1 dX G^-T with dX = -X - W dS W, from an explicit inverse
        # of G on a well-conditioned stack, is -diag(V) - G' dS G
        X, S = sym_stack(rng, 3, 4, shift=1.0), sym_stack(rng, 3, 4, shift=1.0)
        dS = sym_stack(rng, 3, 4)
        (Lx, _), (Ls, _) = _chol([X, S])
        W, G, V = _nt_scaling(X, S, Lx, Ls)
        for Xk, Wk, Gk, Vk, dSk in zip(X, W, G, V, dS):
            Gi = np.linalg.inv(Gk)
            got = Gi @ (-Xk - Wk @ dSk @ Wk) @ Gi.T
            want = -np.diag(Vk) - Gk.T @ dSk @ Gk
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_lyapunov_term(self, rng):
        # G Z G' with Z from the Kronecker sum (diag(V) (+) diag(V)) vec Z =
        # -vec(dX~ dS~ + dS~ dX~), dS~ = G' dS G and dX~ from an explicit
        # inverse of G
        X, S = sym_stack(rng, 3, 4, shift=1.0), sym_stack(rng, 3, 4, shift=1.0)
        dS = sym_stack(rng, 3, 4)
        (Lx, _), (Ls, _) = _chol([X, S])
        W, G, V = _nt_scaling(X, S, Lx, Ls)
        got = _second_order(G, V, dS)
        for Xk, Wk, Gk, Vk, dSk, term in zip(X, W, G, V, dS, got):
            Gi = np.linalg.inv(Gk)
            dXt = Gi @ (-Xk - Wk @ dSk @ Wk) @ Gi.T
            dSt = Gk.T @ dSk @ Gk
            L = np.diag(Vk)
            kron_sum = np.kron(L, np.eye(4)) + np.kron(np.eye(4), L)
            Z = np.linalg.solve(kron_sum, -(dXt @ dSt + dSt @ dXt).ravel()).reshape(4, 4)
            want = Gk @ Z @ Gk.T
            assert np.abs(term - want).max() <= 1e-12 * np.abs(want).max()


def scripted_ladder(monkeypatch, outcomes):
    """Make each rung of solve's ladder end as the next (status, gap,
    iterations) of outcomes, whatever the model."""
    script = iter(outcomes)

    def scripted(b, blocks, plan, opts, tau_mul, frac):
        status, gap, iters = next(script)
        return status, np.zeros(len(b)), gap, 0.0, 0.0, iters

    monkeypatch.setattr(solver, "_solve_canonical", scripted)


class TestLadder:
    def test_optimal_attempt_wins(self, monkeypatch):
        # a non-optimal first rung with a smaller gap must not hide an
        # optimal later one
        scripted_ladder(monkeypatch, [("numerical_failure", 1e-12, 179), ("optimal", 1e-9, 22)])
        res = solve(lieb_two_thirds()[0])
        assert (res.status, res.iterations, res.duality_gap) == ("optimal", 22, 1e-9)
        assert [(a.outcome, a.iterations) for a in res.attempts] == [
            ("numerical_failure", 179), ("optimal", 22)]

    def test_least_gap_wins_without_optimal(self, monkeypatch):
        scripted_ladder(monkeypatch, [("iteration_limit", 1e-6, 200), ("numerical_failure", 1e-7, 50),
                                      ("iteration_limit", 1e-5, 200)])
        res = solve(lieb_two_thirds()[0])
        assert (res.status, res.iterations, res.duality_gap) == ("numerical_failure", 50, 1e-7)
        assert res.objective is None

    def test_diverged_rung_is_logged(self, monkeypatch):
        scripted_ladder(monkeypatch, [("diverged", None, 7), ("optimal", 1e-9, 22)])
        res = solve(lieb_two_thirds()[0])
        assert (res.status, res.iterations) == ("optimal", 22)
        assert res.attempts == [(10.0, 0.98, "diverged", 7), (1.0, 0.95, "optimal", 22)]

    def test_every_rung_diverged_reports_diverged(self, monkeypatch):
        scripted_ladder(monkeypatch, [("diverged", None, 3), ("diverged", None, 1), ("diverged", None, 9)])
        res = solve(lieb_two_thirds()[0])
        assert (res.status, res.iterations, res.objective) == ("diverged", 0, None)
        assert [(a.outcome, a.iterations) for a in res.attempts] == [
            ("diverged", 3), ("diverged", 1), ("diverged", 9)]


def geomean_half():
    # the t = 1/2 hypograph on the first real draw of seed 3
    rng = np.random.default_rng(3)
    A, B = random_pd(2, rng, complex_=False), random_pd(2, rng, complex_=False)
    return build_geomean(GeoMeanTask(RationalExponent(1, 2), 2, A=A, B=B)).model


def geomean_third(n):
    # the t = 1/3 hypograph on the first complex draw of seed 0
    rng = np.random.default_rng(0)
    A, B = random_pd(n, rng), random_pd(n, rng)
    return build_geomean(GeoMeanTask(RationalExponent(1, 3), n, A=A, B=B)).model


def rungs(outcome, iterations):
    """Every rung of the ladder, each ending as ``outcome`` after ``iterations``."""
    return [(tau_mul, frac, outcome, iterations) for tau_mul, frac in solver._LADDER]


class TestAttemptExits:
    # each way _solve_canonical ends an attempt early, reached by patching
    # one of its internals, and the Attempt that solve logs for it
    def test_one_side_stuck_stalls(self, monkeypatch):
        # X never moves while (y, S) does: the attempt stalls once X has
        # been stuck for more than _STALL_ITERS iterations in a row
        calls, step = iter(range(10 ** 6)), solver._interior_step
        # each iteration steps X once (the first candidate, refused) and then S
        monkeypatch.setattr(solver, "_interior_step",
                            lambda X, D, alpha: None if next(calls) % 2 == 0 else step(X, D, alpha))
        res = solve(geomean_half())
        assert res.attempts == rungs("numerical_failure", solver._STALL_ITERS + 1)
        assert (res.status, res.iterations, res.objective) == (
            "numerical_failure", solver._STALL_ITERS + 1, None)

    def test_step_that_never_factors_gives_up(self, monkeypatch):
        # no trial point of a step factors, so backtracking gives up below
        # _MIN_STEP on both sides and neither moves
        given, step, chol = [], solver._interior_step, solver._chol

        def never_factors(X, D, alpha):
            monkeypatch.setattr(solver, "_chol", lambda mats: None)
            given.append(step(X, D, alpha))
            monkeypatch.setattr(solver, "_chol", chol)
            return given[-1]

        monkeypatch.setattr(solver, "_interior_step", never_factors)
        res = solve(geomean_half())
        assert res.attempts == rungs("numerical_failure", 1)
        assert given == [None] * 2 * len(solver._LADDER)

    def test_interior_step_gives_up(self):
        X, D = [1e-12 * np.eye(2)[None]], [-np.eye(2)[None]]
        assert solver._interior_step(X, D, 1.0) is None
        alpha, new, _ = solver._interior_step(X, [-D[0]], 1.0)
        assert alpha == 1.0 and np.array_equal(new[0], X[0] + np.eye(2))

    def test_nan_direction_diverges(self, monkeypatch):
        # a NaN Newton right-hand side gives a NaN direction, whose ratio
        # test cannot compute eigenvalues
        newton = solver._Blocks.newton

        def nan_rhs(self, *args):
            M, rhs = newton(self, *args)
            return M, np.full_like(rhs, np.nan)

        monkeypatch.setattr(solver._Blocks, "newton", nan_rhs)
        assert solve(geomean_half()).attempts == rungs("diverged", 1)
        # eigvalsh raises on a NaN block of 3 rows or more, and returns NaN
        # on a smaller one, such as a scalar constraint's 1x1 block
        for d in (1, 2, 4):
            (_, Linv), = _chol([np.eye(d)[None]])
            with pytest.raises(solver._Diverged):
                solver._max_step(Linv, np.full((1, d, d), np.nan), 0.98)

    def test_singular_schur_complement_diverges(self, monkeypatch):
        newton = solver._Blocks.newton

        def zero_m(self, *args):
            M, rhs = newton(self, *args)
            return np.zeros_like(M), rhs

        monkeypatch.setattr(solver._Blocks, "newton", zero_m)
        # geomean 1/3 at n = 8 has pivots: none factors, and the root is all of M
        for model in (geomean_half(), geomean_third(8)):
            res = solve(model)
            assert res.attempts == rungs("diverged", 1)
            assert res.status == "diverged"

    def test_vanishing_mu_diverges(self, monkeypatch):
        # a start of 1e-10 times the data scale has mu = tau^2 below
        # 1e-16 * scale while the primal residual is still of order 1
        monkeypatch.setattr(solver, "_LADDER", ((1e-10, 0.98),))
        res = solve(geomean_half())
        assert res.attempts == [(1e-10, 0.98, "diverged", 1)]
        assert res.status == "diverged"


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


def dense_slices(model):
    """The blocks of the model's canonical form, made dense as (G0, idx, A)
    from the held slices of each LMI and each scalar constraint, in model
    order: one per LMI, then a 1x1 block per scalar constraint."""
    offsets, m = model.coord_offsets()
    for held in [*model.lmis, *model.scalars]:
        sl = held.slices()
        idx = np.array([offsets[v] + k for v in sl.vars for k in range(len(var_basis(v)))], dtype=int)
        n = len(sl.G0)
        A = np.zeros((len(idx), n * n))
        A[sl.s, sl.p] = sl.v
        yield sl.G0, idx, A.reshape(-1, n, n)


def held(dense):
    """Dense (G0, idx, A) blocks as the held columns _Blocks reads."""
    for G0, idx, A in dense:
        k, p = np.nonzero(A.reshape(len(A), -1))
        yield G0, idx, k, p, A.reshape(len(A), -1)[k, p]


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=1.0)


def sym_stack(rng, nb, d, shift=0.0):
    R = rng.standard_normal((nb, d, d))
    return R @ R.transpose(0, 2, 1) + shift * np.eye(d) if shift else R + R.transpose(0, 2, 1)


def check_stacks(blocks, dense, rng):
    """The stacked kernels against tensordot on each block's dense slices."""
    assert sorted(o for s in blocks.stacks for o in s.order) == list(range(len(dense)))
    for s in blocks.stacks:
        nb, d = len(s.order), s.dim
        X, W = sym_stack(rng, nb, d), sym_stack(rng, nb, d, shift=d)
        w = rng.standard_normal(s.idx.shape)
        traces, combined = s.traces(X), s.combine(w)
        for k, o in enumerate(s.order):
            G0, idx, A = dense[o]
            keep = A.any(axis=(1, 2))
            assert np.array_equal(s.G0[k], G0)
            assert s.idx[k].tolist() == np.asarray(idx)[keep].tolist()
            A = A[keep]
            assert_close(traces[k], np.tensordot(A, X[k], axes=([1, 2], [0, 1])))
            assert_close(combined[k], np.tensordot(w[k], A, axes=(0, 0)))
            T = W[k][None] @ A @ W[k][None]
            assert_close(s.schur(W[k], k), np.tensordot(A, T, axes=([1, 2], [1, 2])))


class TestSparseBlock:
    @pytest.mark.parametrize("make", ["geomean", "kron_power", "lieb"])
    def test_assembled_blocks_match_dense_oracle(self, rng, make):
        if make == "geomean":
            A, B = random_pd(2, rng, complex_=True), random_pd(2, rng, complex_=True)
            model = build_geomean(GeoMeanTask(RationalExponent(8, 13), 2, A=A, B=B)).model
        elif make == "kron_power":
            A, B = random_pd(2, rng), random_pd(2, rng)
            model = build_kron_power(A, B, RationalExponent(1, 2), RationalExponent(1, 3)).model
        else:
            K = random_matrix(2, 3, rng)
            model = build_lieb(K, random_pd(2, rng), random_pd(3, rng), RationalExponent(1, 3)).model
        model, _ = realify(model)
        blocks = _Blocks(canonical(model)[2])
        assert any(len(s.order) > 1 for s in blocks.stacks)
        if make == "lieb":
            assert any(s.dim == 1 for s in blocks.stacks)
        check_stacks(blocks, list(dense_slices(model)), rng)

    def test_padded_slices(self, rng):
        # one, four and nine nonzeros, and an all-zero slice that is dropped;
        # a block of the same size and slice count whose slices are
        # narrower is a stack of its own
        A = np.zeros((4, 3, 3))
        A[0, 1, 1] = 2.0
        A[1, 0, 2] = A[1, 2, 0] = -1.5
        A[1, 1, 2] = A[1, 2, 1] = 0.25
        R = rng.standard_normal((3, 3))
        A[3] = R + R.T
        narrow = np.eye(3)[[0, 1, 2, 0]][:, None] * np.eye(3)
        dense = [(np.eye(3), np.array([5, 2, 7, 0]), A), (2 * np.eye(3), np.arange(4), narrow)]
        blocks = _Blocks(held(dense))
        assert [s.order.tolist() for s in blocks.stacks] == [[0], [1]]
        s = blocks.stacks[0]
        assert s.idx.tolist() == [[5, 2, 0]]
        assert (s.val[0] != 0).sum(axis=1).tolist() == [1, 4, 9]
        check_stacks(blocks, dense, rng)

    def test_all_zero_slices(self, rng):
        dense = [(np.eye(3), np.array([0, 1]), np.zeros((2, 3, 3)))]
        blocks = _Blocks(held(dense))
        assert blocks.stacks[0].idx.shape == (1, 0)
        check_stacks(blocks, dense, rng)
        assert np.array_equal(blocks.stacks[0].combine(np.zeros((1, 0))), np.zeros((1, 3, 3)))


class TestNewtonSystem:
    def test_shared_coordinates_add_up(self, rng):
        # T and Z occur in two LMIs of one shape, so the two blocks share a
        # stack and every coordinate: M, rhs and rp must add both blocks'
        # terms, which a fancy-index += over the stacked coordinates drops
        self.check_sums(rng, interleaved=False)

    def test_interleaved_stacks_add_up(self, rng):
        # an LMI I - T >= 0 between the two puts stack order out of model
        # order, so each block's traces must reach its own coordinates
        self.check_sums(rng, interleaved=True)

    def check_sums(self, rng, interleaved):
        """residual, newton and add_traces against dense per-block sums."""
        A, B = random_pd(2, rng), random_pd(2, rng)
        mb = ModelBuilder()
        T, Z = mb.fresh_var("T", 2), mb.fresh_var("Z", 2)
        mb.add_lmi2(AffineBlock.constant(A), AffineBlock.of_var(T), AffineBlock.of_var(Z))
        if interleaved:
            mb.add_lmi([[AffineBlock.constant(np.eye(2)) - AffineBlock.of_var(T)]])
        mb.add_lmi2(AffineBlock.constant(B), AffineBlock.of_var(T), AffineBlock.of_var(Z))
        mb.add_scalar(LinearFunctional(1.0, [(T, -np.eye(2))]))
        mb.set_objective("maximize", LinearFunctional(0.0, [(T, np.eye(2))]))
        model, _ = realify(mb.freeze())
        b, _, held, _ = canonical(model)
        blocks = _Blocks(held)
        dense = list(dense_slices(model))
        orders = [[0, 2], [1], [3]] if interleaved else [[0, 1], [2]]
        assert [s.order.tolist() for s in blocks.stacks] == orders
        assert set(blocks.stacks[0].idx[0]) & set(blocks.stacks[0].idx[1])

        # per-block X, W (PD), R and C, in model order and as stacks
        per = {name: [sym_stack(rng, 1, len(G0), shift=shift)[0] for G0, _, _ in dense]
               for name, shift in (("X", 0), ("W", 4.0), ("R", 0), ("C", 0))}
        stacked = {name: [np.stack([v[o] for o in s.order]) for s in blocks.stacks]
                   for name, v in per.items()}
        rp, ax = blocks.residual(b, stacked["X"])
        M, rhs = blocks.newton(stacked["W"], stacked["R"], stacked["C"], rp)

        m = len(b)
        want_rp, want_M, want_rhs = -b, np.zeros((m, m)), np.zeros((m, 2))
        for (G0, idx, Ab), X, W, R, C in zip(dense, *per.values()):
            want_rp[idx] -= np.tensordot(Ab, X, axes=([1, 2], [0, 1]))
            want_M[np.ix_(idx, idx)] += np.tensordot(Ab, W[None] @ Ab @ W[None], axes=([1, 2], [1, 2]))
            want_rhs[idx, 0] += np.tensordot(Ab, R, axes=([1, 2], [0, 1]))
            want_rhs[idx, 1] += np.tensordot(Ab, C, axes=([1, 2], [0, 1]))
        assert_close(blocks.add_traces(np.zeros(m), stacked["C"]), want_rhs[:, 1])
        want_rhs[:, 0] -= want_rp
        assert_close(rp, want_rp)
        assert_close(M, (want_M + want_M.T) / 2 + 1e-14 * np.eye(m))
        assert_close(rhs, want_rhs)


def canonical_of(model):
    """(m, held, offsets) of a model's canonical form, realified."""
    b, _, held, offsets = canonical(realify(model)[0])
    return len(b), held, offsets


def kron_power_third_half(n):
    rng = np.random.default_rng(0)
    A, B = random_pd(n, rng), random_pd(n, rng)
    return build_kron_power(A, B, RationalExponent(1, 2), RationalExponent(1, 3)).model


def multivariate_two():
    rng = np.random.default_rng(0)
    mats = [random_pd(2, rng) for _ in range(3)]
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    return build_multivariate(mats, weights).model


def coords(c):
    return np.arange(c.start, c.stop) if isinstance(c, slice) else np.asarray(c)


def spd_with_pattern(m, held, rng):
    """A random SPD matrix with the Schur complement's pattern: one PSD
    term per block on the block's coordinates, plus the identity."""
    M = np.eye(m)
    for _, idx, *_ in held:
        R = rng.standard_normal((len(idx), len(idx)))
        M[np.ix_(idx, idx)] += R @ R.T
    return M


class TestElimination:
    def test_chain_plan(self):
        # variables a-b-c-d-e in a chain, each block shared by two
        # neighbours; e has fewer than _MIN_PIVOT coordinates
        size = [40, 40, 40, 40, 8]
        start = np.cumsum([0] + size)
        offsets = dict(zip("abcde", start[:-1]))
        held = [(None, np.arange(start[v], start[v + 2])) for v in range(4)]
        plan = solver._plan(offsets, start[-1], held)
        # a, then b, then c has the fewest neighbouring coordinates of the
        # pivots left; d and e are then a clique
        assert plan.pivots == [(slice(0, 40), slice(40, 80)), (slice(40, 80), slice(80, 120)),
                               (slice(80, 120), slice(120, 160))]
        assert plan.root == slice(120, 168)

    def test_fill_makes_a_clique(self):
        # a cycle a-b-c-d-a: eliminating a joins b and d, and b, c and d
        # are then a clique
        offsets = dict(zip("abcd", np.arange(4) * 40))
        held = [(None, np.r_[40 * v:40 * v + 40, 40 * w:40 * w + 40]) for v, w in ((0, 1), (1, 2), (2, 3), (0, 3))]
        plan = solver._plan(offsets, 160, held)
        assert [(J, coords(N).tolist()) for J, N in plan.pivots] == [
            (slice(0, 40), list(range(40, 80)) + list(range(120, 160)))]
        assert plan.root == slice(40, 160)

    @pytest.mark.parametrize("make, pivots", [
        (lambda: kron_power_third_half(3), 7), (multivariate_two, 2), (lambda: geomean_third(8), 2),
        (lambda: kron_power_third_half(2), 0), (lambda: geomean_third(6), 0), (geomean_half, 0)])
    def test_pivots_cover_coordinates(self, make, pivots):
        # every coordinate is a pivot's or the root's, once; no pivot has
        # fewer than _MIN_PIVOT coordinates, so the 36 of geomean at n = 6
        # are none
        m, held, offsets = canonical_of(make())
        plan = solver._plan(offsets, m, held)
        assert len(plan.pivots) == pivots
        assert all(J.stop - J.start >= solver._MIN_PIVOT for J, _ in plan.pivots)
        cover = np.concatenate([coords(J) for J, _ in plan.pivots] + [coords(plan.root)])
        assert sorted(cover.tolist()) == list(range(m))

    @pytest.mark.parametrize("make", [lambda: kron_power_third_half(3), multivariate_two])
    def test_matches_dense_solve(self, rng, make):
        m, held, offsets = canonical_of(make())
        plan = solver._plan(offsets, m, held)
        M = spd_with_pattern(m, held, rng)
        r, r1 = rng.standard_normal((m, 2)), rng.standard_normal(m)
        solve_m = solver._eliminate(M.copy(), plan)
        for rhs in (r, r1):
            want = np.linalg.solve(M, rhs)
            assert np.linalg.norm(solve_m(rhs) - want) <= 1e-10 * np.linalg.norm(want)

    def test_no_pivot_is_the_dense_solve(self, rng):
        m, held, offsets = canonical_of(kron_power_third_half(2))
        plan = solver._plan(offsets, m, held)
        M, r = spd_with_pattern(m, held, rng), rng.standard_normal((m, 2))
        assert np.array_equal(solver._eliminate(M.copy(), plan)(r), np.linalg.solve(M, r))

    def test_first_pivot_not_pd_is_the_dense_solve(self, rng):
        # no pivot factors, so M is left as it was and the root is all of it
        m, held, offsets = canonical_of(kron_power_third_half(3))
        plan = solver._plan(offsets, m, held)
        M = spd_with_pattern(m, held, rng)
        J, _ = plan.pivots[0]
        M[J, J] = -np.eye(J.stop - J.start)
        work, r = M.copy(), rng.standard_normal((m, 2))
        got = solver._eliminate(work, plan)(r)
        assert np.array_equal(work, M)
        assert np.array_equal(got, np.linalg.solve(M, r))

    def test_pivot_not_pd_joins_the_root(self, rng):
        # the second pivot's block is negative definite, so only the first
        # is eliminated, and the indefinite rest is solved as one root
        m, held, offsets = canonical_of(kron_power_third_half(3))
        plan = solver._plan(offsets, m, held)
        M = spd_with_pattern(m, held, rng)
        (J1, N1), (J2, _) = plan.pivots[:2]
        M[J2, J2] = -np.eye(J2.stop - J2.start)
        work, r = M.copy(), rng.standard_normal(m)
        got = solver._eliminate(work, plan)(r)
        once = M.copy()  # M with the first pivot eliminated
        B = np.linalg.solve(np.linalg.cholesky(M[J1, J1]), M[J1, N1]).T
        once[solver._square(N1)] -= B @ B.T
        assert np.array_equal(work, once)
        want = np.linalg.solve(M, r)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
