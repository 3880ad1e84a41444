"""Trace-functional models: Lieb, Kronecker powers, entropies, fidelity."""

from fractions import Fraction

import numpy as np
import pytest

from tracelift.errors import WrongExponent
from tracelift.instances import FUNCTIONS, _kron_trace, random_density, random_matrix, random_pd
from tracelift.kernel import (
    RationalExponent,
    fidelity_value,
    herm_power,
    kron,
    lieb_value,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_value,
)
from tracelift.lieb import (
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
from tracelift.model import check_feasible, realify
from tracelift.solver import solve


def _rel(got, want):
    return abs(got - want) / (1 + abs(want))


def _report(con, wit):
    return con.model.objective.functional.evaluate(wit) / con.report_divisor


class TestLieb:
    @pytest.mark.parametrize("t", ["1/3", "1/2", "2/3", "-1/2", "3/2"])
    def test_witness_tight(self, t, kab):
        K, A, B = kab
        texp = RationalExponent.parse(t)
        con = build_lieb(K, A, B, texp)
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        want = lieb_value(K, A, B, texp)
        assert _rel(_report(con, wit), want) < 1e-10

    def test_block_sizes(self, kab):
        # every LMI acts on the lifted nm-dimensional space: blocks are
        # size 2nm (two-by-two block LMIs) or nm (the cap), plus one
        # scalar pinching constraint
        K, A, B = kab
        n, m = A.shape[0], B.shape[0]
        con = build_lieb(K, A, B, RationalExponent(1, 3))
        assert all(size in (2 * n * m, n * m) for size, _ in con.model.lmi_census())
        assert con.model.scalar_count == 1

    def test_float_exponent_rejected(self, kab):
        # a builder takes t as a rational; 0.5 is not read as 1/2
        K, A, B = kab
        with pytest.raises(WrongExponent):
            build_lieb(K, A, B, 0.5)

    def test_imaginary_k_takes_the_real_path(self, rng):
        # K = iR is complex, but with real A and B the slices and the pinch's
        # v v* = R R' are real, so the model is real and is not embedded
        R = random_matrix(2, 3, rng, complex_=False)
        A, B = random_pd(2, rng, complex_=False), random_pd(3, rng, complex_=False)
        K = 1j * R
        texp = RationalExponent(1, 3)
        con = build_lieb(K, A, B, texp)
        _, var_map = realify(con.model)
        assert var_map[con.target].kind == "real"
        res = solve(con.model)
        assert res.ok
        assert _rel(res.objective, lieb_value(K, A, B, texp)) <= 1e-6

    def test_function_oracle_takes_the_exponent_as_given(self):
        # the table's oracle is the library's: 1 - t is formed from the
        # rational 1/3, not from the float nearest to it
        t = RationalExponent(1, 3)
        p, fn = {"t": t}, FUNCTIONS["lieb"]
        data = fn.draw(p, 2, np.random.default_rng(0))
        assert fn.oracle(data, p) == lieb_value(data["K"], data["A"], data["B"], t)

    def test_joint_concavity_midpoint(self, rng):
        # tr[K* A^{1-t} K B^t] is jointly concave for t in (0, 1)
        K = random_matrix(2, 2, rng)
        for _ in range(10):
            A1, A2 = random_pd(2, rng), random_pd(2, rng)
            B1, B2 = random_pd(2, rng), random_pd(2, rng)
            mid = lieb_value(K, (A1 + A2) / 2, (B1 + B2) / 2, 0.5)
            avg = (lieb_value(K, A1, B1, 0.5) + lieb_value(K, A2, B2, 0.5)) / 2
            assert mid >= avg - 1e-10


class TestKronPower:
    @pytest.mark.parametrize(("s", "t"), [("1/2", "1/2"), ("1/3", "1/3"), ("1/4", "1/2")])
    def test_witness_tight(self, s, t, rng):
        A = random_pd(2, rng)
        B = random_pd(2, rng)
        se, te = RationalExponent.parse(s), RationalExponent.parse(t)
        con = build_kron_power(A, B, se, te)
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        want = np.trace(
            kron(herm_power(A, se), herm_power(B, te))
        ).real
        assert _rel(_report(con, wit), want) < 1e-9


class TestMultivariate:
    def test_three_factor(self, rng):
        mats = [random_pd(2, rng) for _ in range(3)]
        ts = [RationalExponent(1, 4), RationalExponent(1, 4), RationalExponent(1, 2)]
        con = build_multivariate(mats, ts)
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        want = np.trace(
            kron(kron(herm_power(mats[0], 0.25), herm_power(mats[1], 0.25)),
                 herm_power(mats[2], 0.5))
        ).real
        assert _rel(_report(con, wit), want) < 1e-9

    @pytest.mark.parametrize(("weights", "dims"), [
        ((0, 0, 1), (2, 2, 2)), ((0, 0, Fraction(1, 2), Fraction(1, 2)), (2, 2, 1, 2))])
    def test_leading_zero_weights(self, weights, dims, rng):
        # the chain makes no variable before its first weight: one variable
        # and one LMI for each matrix from the first weighted one on; a 1 x 1
        # third matrix keeps the four-factor model small enough to solve fast
        mats = [random_pd(d, rng) for d in dims]
        weights = [Fraction(w) for w in weights]
        con = build_multivariate(mats, weights)
        first = next(i for i, w in enumerate(weights) if w)
        assert len(con.model.vars) == len(con.model.lmis) == len(weights) - first
        assert check_feasible(con.model, con.make_witness(), tol=1e-9).ok
        res = solve(con.model)
        assert res.ok, res.status
        assert _rel(res.objective, _kron_trace(mats, weights)) < 1e-6


class TestTsallis:
    def test_entropy_witness(self, rng):
        A = random_density(3, rng)
        con = build_tsallis_entropy(A, RationalExponent(1, 4))
        wit = con.make_witness()
        assert check_feasible(con.model, wit, tol=1e-9).ok
        assert _rel(_report(con, wit), tsallis_entropy(A, 0.25)) < 1e-9

    def test_rel_entropy_solver(self, rng):
        A = random_density(2, rng)
        B = random_density(2, rng)
        con = build_tsallis_rel_entropy(A, B, RationalExponent(1, 4))
        res = solve(con.model)
        assert res.ok
        want = tsallis_rel_entropy(A, B, 0.25)
        assert abs(res.objective / con.report_divisor - want) < 1e-5


class TestUpsilon:
    @pytest.mark.parametrize("t", ["1/2", "-1/2", "3/2"])
    def test_equality_witness(self, t, kab):
        K, A, _ = kab
        texp = RationalExponent.parse(t)
        con = build_upsilon(K, A, texp)
        wit = upsilon_equality_witness(K, A, texp, con)
        assert check_feasible(con.model, wit, tol=1e-8).ok
        want = upsilon_value(K, A, texp)
        assert _rel(_report(con, wit), want) < 1e-8

    def test_variational_inequality(self, rng):
        # tr[(K* A^t K)^{1/t}] = inf_X { t tr[K* A^t K X^{1-t}] - (t-1) tr X }
        # for t > 1; any positive definite X gives an upper bound.
        K = random_matrix(2, 2, rng)
        A = random_pd(2, rng)
        t = 1.5
        want = upsilon_value(K, A, t)
        inner = K.conj().T @ herm_power(A, t) @ K
        for _ in range(5):
            X = random_pd(2, rng)
            upper = (t * np.trace(inner @ herm_power(X, 1 - t)).real
                     - (t - 1) * np.trace(X).real)
            assert upper >= want - 1e-9
        Xstar = herm_power(inner, 1 / t)
        tight = (t * np.trace(inner @ herm_power(Xstar, 1 - t)).real
                 - (t - 1) * np.trace(Xstar).real)
        assert abs(tight - want) < 1e-9


class TestFidelity:
    def test_witness_and_solver(self, rng):
        A = random_pd(2, rng, complex_=True)
        B = random_pd(2, rng, complex_=True)
        con = build_fidelity(A, B)
        wit = fidelity_witness(A, B, con)
        assert check_feasible(con.model, wit, tol=1e-9).ok
        want = fidelity_value(A, B)
        got = con.model.objective.functional.evaluate(wit)
        assert _rel(got, want) < 1e-9
        res = solve(con.model)
        assert res.ok
        assert _rel(res.objective, want) < 1e-6


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_every_witness_from_its_recipes(name, complex_):
    # the builder's recipes alone give a feasible witness that attains the
    # closed form; upsilon is checked at criterion 6's 1e-8
    fn = FUNCTIONS[name]
    p = {"t": RationalExponent(1, 2), "s": RationalExponent(1, 3),
         "weights": [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]}
    data = fn.draw(p, 2, np.random.default_rng(0), complex_)
    con = fn.build(data, p)
    wit = con.make_witness()
    assert check_feasible(con.model, wit, tol=1e-8 if name == "upsilon" else 1e-9).ok
    assert abs(_report(con, wit) - fn.oracle(data, p)) < 1e-8
