"""Oracle-level checks: powers, means, lifts, entropies, fidelity."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelift.cli import load_matrix, save_matrix
from tracelift.errors import DomainError, NotPositiveDefinite
from tracelift.instances import random_density, random_matrix, random_pd
from tracelift.kernel import (
    RationalExponent,
    binary_expansion,
    fidelity_value,
    floor_log2,
    geometric_mean,
    herm_power,
    is_power_of_two,
    kron,
    lieb_value,
    quantum_rel_entropy,
    real_trace,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_value,
    vec_rows,
    von_neumann_entropy,
)


class TestRationalExponent:
    def test_reduction(self):
        t = RationalExponent(4, 8)
        assert (t.p, t.q) == (1, 2)

    def test_parse(self):
        assert RationalExponent.parse("5/8") == 0.625
        assert RationalExponent.parse("2") == 2
        assert RationalExponent.parse("-1/2").p == -1

    @pytest.mark.parametrize("bad", ["0.5", "1/2/3", "a/b", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            RationalExponent.parse(bad)

    def test_range(self):
        with pytest.raises(DomainError):
            RationalExponent(7, 3)
        with pytest.raises(DomainError):
            RationalExponent(-3, 2)

    def test_is_a_fraction(self):
        t = RationalExponent(1, 2)
        assert t == Fraction(1, 2)
        assert isinstance(t, Fraction)
        assert [str(RationalExponent(p, q)) for p, q in ((-1, 2), (4, 2), (0, 5))] == ["-1/2", "2", "0"]
        assert float(RationalExponent(1, 3)) == 1 / 3
        with pytest.raises(AttributeError):
            t.q = 3


class TestBits:
    def test_floor_log2(self):
        assert [floor_log2(q) for q in (1, 2, 3, 8, 13, 64)] == [0, 1, 1, 3, 3, 6]

    def test_is_power_of_two(self):
        assert [is_power_of_two(q) for q in (1, 2, 3, 4, 6, 8)] == [
            True, True, False, True, False, True,
        ]

    def test_binary_expansion(self):
        # 5/8: m = (1, 0, 1), least significant first
        assert binary_expansion(5, 3) == [1, 0, 1]
        assert binary_expansion(3, 3) == [1, 1, 0]
        assert sum(m * 2**i for i, m in enumerate(binary_expansion(5, 3))) == 5


class TestDomainErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: floor_log2(0), "positive integer expected, got 0"),
        (lambda: binary_expansion(2, 3), "need odd p with p < 2^ell, got p=2, ell=3"),
        (lambda: real_trace(1.0 + 1e-3j), "trace has non-negligible imaginary part"),
    ], ids=["floor-log2-zero", "even-numerator", "imaginary-trace"])
    def test_raises(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


class TestHermPower:
    def test_cube_root(self, rng):
        A = random_pd(3, rng)
        X = herm_power(A, 1 / 3)
        assert np.abs(X @ X @ X - A).max() < 1e-10

    def test_negative_power(self, rng):
        A = random_pd(3, rng)
        assert np.abs(herm_power(A, -1.0) - np.linalg.inv(A)).max() < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            herm_power(np.diag([1.0, -1.0]), 0.5)


class TestGeometricMean:
    def test_half_is_classic(self, pd_pair):
        A, B = pd_pair
        G = geometric_mean(A, B, 0.5)
        # G A^{-1} G = B characterizes the midpoint
        assert np.abs(G @ np.linalg.inv(A) @ G - B).max() < 1e-9

    def test_endpoints(self, pd_pair):
        A, B = pd_pair
        assert np.abs(geometric_mean(A, B, 0.0) - A).max() < 1e-12
        assert np.abs(geometric_mean(A, B, 1.0) - B).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), tnum=st.sampled_from([0, 1, 2, 4, 5, 8]))
    def test_symmetry(self, seed, tnum):
        # G_t(A,B) = G_{1-t}(B,A)
        r = np.random.default_rng(seed)
        A, B = random_pd(3, r), random_pd(3, r)
        t = tnum / 8
        assert np.abs(
            geometric_mean(A, B, t) - geometric_mean(B, A, 1 - t)
        ).max() < 1e-9

    def test_inner_composition(self, pd_pair):
        # A #_s (A #_t B) = A #_{st} B
        A, B = pd_pair
        inner = geometric_mean(A, B, 2 / 3)
        assert np.abs(
            geometric_mean(A, inner, 1 / 2) - geometric_mean(A, B, 1 / 3)
        ).max() < 1e-9

    def test_outer_composition(self, pd_pair):
        # (A #_t B) #_s B = A #_{s+t-st} B; with s=1/2, t=1/4 gives 5/8
        A, B = pd_pair
        lhs = geometric_mean(geometric_mean(A, B, 1 / 4), B, 1 / 2)
        assert np.abs(lhs - geometric_mean(A, B, 5 / 8)).max() < 1e-9

    def test_geodesic_interpolation(self, pd_pair):
        # (A #_s B) #_w (A #_u B) = A #_{(1-w)s + wu} B
        A, B = pd_pair
        lhs = geometric_mean(
            geometric_mean(A, B, 1 / 4), geometric_mean(A, B, 3 / 4), 1 / 3
        )
        assert np.abs(lhs - geometric_mean(A, B, 5 / 12)).max() < 1e-9

    def test_commuting_case(self):
        A = np.diag([1.0, 4.0])
        B = np.diag([9.0, 16.0])
        G = geometric_mean(A, B, 0.5)
        assert np.abs(G - np.diag([3.0, 8.0])).max() < 1e-12
        assert abs(np.trace(G) - 11) < 1e-12


class TestKron:
    def test_eigenvalue_multiset(self, rng):
        A, B = random_pd(2, rng), random_pd(3, rng)
        got = np.sort(np.linalg.eigvalsh(kron(A, B)))
        want = np.sort(np.outer(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)).ravel())
        assert np.abs(got - want).max() < 1e-10

    def test_lift_is_geodesic(self, rng):
        # A^{1-t} (x) conj(B)^t = (A (x) I) #_t (I (x) conj(B))
        A, B = random_pd(2, rng), random_pd(2, rng)
        t = 1 / 3
        lhs = kron(herm_power(A, 1 - t), herm_power(B.conj(), t))
        rhs = geometric_mean(kron(A, np.eye(2)), kron(np.eye(2), B.conj()), t)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_vec_rows_identity(self, rng):
        # vec(K)* (A^{1-t} (x) conj(B)^t) vec(K) = tr[K* A^{1-t} K B^t]
        A, B = random_pd(2, rng), random_pd(3, rng)
        K = random_matrix(2, 3, rng)
        t = 2 / 5
        v = vec_rows(K)
        M = kron(herm_power(A, 1 - t), herm_power(B.conj(), t))
        lhs = (v.conj().T @ M @ v)[0, 0].real
        rhs = np.trace(
            K.conj().T @ herm_power(A, 1 - t) @ K @ herm_power(B, t)
        ).real
        assert abs(lhs - rhs) < 1e-9
        assert abs(lhs - lieb_value(K, A, B, t)) < 1e-9

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (3, 2)),      # matrix (x) matrix
        ((3, 2), (4, 2, 3)),   # matrix (x) stack
        ((4, 2, 3), (3, 2)),   # stack (x) matrix
        ((1, 1, 1), (3, 3)),   # 1x1 stack (x) matrix
        ((5, 5), (1, 1, 1)),   # matrix (x) 1x1 stack, as for an imported SDPA term
    ], ids=["mat-mat", "mat-stack", "stack-mat", "unit-stack-mat", "mat-unit-stack"])
    @pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
    def test_bits_equal_numpy(self, rng, shapes, complex_):
        def draw(shape):
            M = rng.standard_normal(shape)
            if complex_:
                M = M + 1j * rng.standard_normal(shape)
            # signed zeros: -0.0 and +0.0 products must come out as numpy's do
            M.flat[::4] = -0.0
            M.flat[1::5] = 0.0
            return M

        P, Q = draw(shapes[0]), draw(shapes[1])
        want = np.kron(P.astype(complex), Q.astype(complex))
        got = kron(P, Q)
        assert got.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestEntropies:
    def test_tsallis_limit(self, rng):
        A = random_density(3, rng)
        B = random_density(3, rng)
        S = von_neumann_entropy(A)
        Srel = quantum_rel_entropy(A, B)
        prev = np.inf
        for k in range(2, 11):
            t = 2.0**-k
            err = abs(tsallis_entropy(A, t) - S)
            err_rel = abs(tsallis_rel_entropy(A, B, t) - Srel)
            assert err < prev + 1e-12
            assert err / t < 10.0
            assert err_rel / t < 10.0
            prev = err

    def test_tsallis_t1(self, rng):
        A = random_pd(3, rng)
        assert abs(tsallis_entropy(A, 1.0) - (3 - np.trace(A).real)) < 1e-12


class TestUpsilon:
    def test_identity_base(self, rng):
        # A = I, t = 1/2: tr[(K*K)^{1/t}] = tr[(K*K)^2]
        K = random_matrix(3, 2, rng)
        M = K.conj().T @ K
        assert abs(upsilon_value(K, np.eye(3), 0.5) - np.trace(M @ M).real) < 1e-9

    def test_t_one(self, rng):
        K = random_matrix(2, 2, rng)
        A = random_pd(2, rng)
        assert abs(
            upsilon_value(K, A, 1.0) - np.trace(K.conj().T @ A @ K).real
        ) < 1e-10


class TestFidelity:
    def test_self_fidelity(self, rng):
        A = random_pd(3, rng)
        assert abs(fidelity_value(A, A) - np.trace(A).real) < 1e-10

    def test_symmetry(self, pd_pair):
        A, B = pd_pair
        assert abs(fidelity_value(A, B) - fidelity_value(B, A)) < 1e-9


class TestHermitianMatrix:
    def test_json_round_trip(self, rng, tmp_path):
        A = random_pd(3, rng)
        save_matrix(A, tmp_path / "H.json")
        assert np.abs(load_matrix(tmp_path / "H.json") - A).max() < 1e-15
