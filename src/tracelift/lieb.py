"""Trace functionals compiled through the lifted geometric mean.

The key identity: for K of shape n x m,

    tr[K* A^{1-t} K B^t] = v* (A^{1-t} (x) conj(B)^t) v,   v = vec_rows(K),

and the Kronecker power factors through one geodesic,

    A^{1-t} (x) conj(B)^t = (A (x) I) #_t (I (x) conj(B)).

So Lieb's function, the Carlen-Lieb trace function and Tsallis entropies
reduce to a single lifted hypograph/epigraph plus one scalar constraint;
Kronecker products of fractional powers, of two matrices or more, to one
chain of lifted geodesics (`_kron_chain`); and fidelity is its own
one-block LMI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

from .errors import DimensionMismatch, DomainError, WrongExponent
from .geomean import Construction, _geodesic
from .kernel import RationalExponent, herm_power, hermitize, kron, vec_rows
from .model import AffineBlock, LinearFunctional, ModelBuilder, VarId, WitnessAssignment


def _lift_left(M: np.ndarray, m: int) -> AffineBlock:
    """A |-> A (x) I_m as a constant block."""
    return AffineBlock.constant(kron(M, np.eye(m)))


def _lift_right(M: np.ndarray, n: int, conjugate: bool = True) -> AffineBlock:
    """B |-> I_n (x) conj(B) (or I_n (x) B) as a constant block."""
    R = M.conj() if conjugate else M
    return AffineBlock.constant(kron(np.eye(n), R))


def _rank_one_bound(b: ModelBuilder, T: VarId, t: Fraction, P, Q, name: str, weight: float,
                    constant: float, terms, concave: bool):
    """Put the caller's T on the geodesic P #_t Q (its witness recipe and
    the LMIs of `emit`), then bound ``weight`` * tau, tau a fresh scalar
    named ``name``, by ``constant`` + the functional of ``terms``: f = that
    bound - weight * tau >= 0 with tau maximized in the concave range, else
    -f >= 0 with tau minimized.  tau's recipe makes the bound tight:
    tau = f / weight at tau = 0."""
    _geodesic(b, T, t, P, Q)
    tau = b.fresh_var(name, 1, kind="real")
    terms = [*terms, (tau, -weight * np.eye(1))]
    if not concave:  # 0.0 - c rather than -c keeps a zero constant +0.0
        constant, terms = 0.0 - constant, [(v, -M) for v, M in terms]
    f = LinearFunctional(constant, terms, label="pinch")
    b.add_scalar(f)
    coeff = -weight if concave else weight  # tau's coefficient in the scalar
    b.add_recipe(tau, lambda asgn: np.array([[-f.evaluate({**asgn, tau: 0.0}) / coeff]]))
    sense = "maximize" if concave else "minimize"
    b.set_objective(sense, LinearFunctional(0.0, [(tau, np.eye(1))]))


# ---------------------------------------------------------------------------
# Lieb / Ando trace function


def build_lieb(K, A, B, t: RationalExponent) -> Construction:
    """Model whose optimum is tr[K* A^{1-t} K B^t].

    Concave range t in [0,1] maximizes, convex range t in [-1,0] u
    [1,2] minimizes; both use the lifted pair (A (x) I, I (x) conj(B)).
    """
    K = np.asarray(K, dtype=complex)
    A, B = hermitize(A), hermitize(B)
    n, m = A.shape[0], B.shape[0]
    if K.shape != (n, m):
        raise DimensionMismatch(f"K must be {n} x {m}, got {K.shape}")
    b = ModelBuilder()
    Tvar = b.fresh_var("T", n * m)
    v = vec_rows(K)
    _rank_one_bound(b, Tvar, t, _lift_left(A, m), _lift_right(B, n), "tau", 1.0, 0.0,
                    [(Tvar, v @ v.conj().T)], 0 <= t <= 1)
    return Construction.of(b, Tvar)


# ---------------------------------------------------------------------------
# Kronecker products of fractional powers (no conjugation)


def build_kron_power(A, B, s, t) -> Construction:
    """Model whose optimum is tr[A^s (x) B^t], s,t >= 0, 0 < s+t <= 1:
    the lifted Kronecker chain on (A, B) with weights (s, t)."""
    _check_exponents(s, t)
    return _kron_chain([A, B], [s, t])


def _check_exponents(s, t):
    """Raise unless s, t >= 0 and 0 < s + t <= 1."""
    if s < 0 or t < 0 or not 0 < s + t <= 1:
        raise WrongExponent(f"need s,t >= 0 and 0 < s+t <= 1, got s={s}, t={t}")


def build_multivariate(mats, weights) -> Construction:
    """Model whose optimum is tr[A_1^{t_1} (x) ... (x) A_k^{t_k}], ``weights``
    nonnegative rationals summing to 1: the lifted Kronecker chain."""
    _check_weights(weights, len(mats))
    return _kron_chain(mats, weights)


def _kron_chain(mats, weights) -> Construction:
    """Model whose optimum is tr[A_1^{w_1} (x) ... (x) A_k^{w_k}], weights
    w_i >= 0 with sum u in (0, 1]: one lifted geodesic per matrix after the
    first, at exponent w_i / (w_1 + ... + w_i), none while that sum is 0;
    then, when u < 1, one more, I #_u S."""
    mats = [hermitize(M) for M in mats]
    u, acc, d = sum(weights), Fraction(weights[0]), len(mats[0])
    b, Tvar, first = ModelBuilder(), None, mats[0]
    for i in range(1, len(mats)):
        m = len(mats[i])
        d, acc = d * m, acc + weights[i]
        if not acc:  # the first weighted step has exponent 1: I only sets its size
            first = np.eye(d)
            continue
        # the first matrix (or I), then the last geodesic, lifted by (x) I
        LA = _lift_left(first, m) if Tvar is None else AffineBlock.of_var(Tvar, kr=np.eye(m))
        LB = _lift_right(mats[i], d // m, conjugate=False)
        Tvar = b.fresh_var("T" if i == len(mats) - 1 and u == 1 else "S", d)
        _geodesic(b, Tvar, weights[i] / acc, LA, LB)
    if u < 1:
        S, Tvar = AffineBlock.of_var(Tvar), b.fresh_var("T", d)
        _geodesic(b, Tvar, u, AffineBlock.constant(np.eye(d)), S)
    b.set_objective("maximize", LinearFunctional(0.0, [(Tvar, np.eye(d))]))
    return Construction.of(b, Tvar)


def _check_weights(weights, k: int):
    """Raise unless there are k >= 2 weights, nonnegative and summing to 1."""
    if len(weights) != k or k < 2:
        raise DomainError("need k >= 2 matrices with matching weights")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise WrongExponent(f"weights must be nonnegative and sum to 1, got {weights}")


# ---------------------------------------------------------------------------
# Tsallis entropies


def build_tsallis_entropy(A, t: RationalExponent) -> Construction:
    """Model whose optimum is S_t(A) = (tr A^{1-t} - tr A)/t, t in (0,1]."""
    if not 0 < t <= 1:
        raise WrongExponent(f"Tsallis entropy requires t in (0,1], got {t}")
    A = hermitize(A)
    n = A.shape[0]
    b = ModelBuilder()
    Tvar = b.fresh_var("T", n)
    _geodesic(b, Tvar, t, AffineBlock.constant(A), AffineBlock.constant(np.eye(n)))
    ct = float(t)
    b.set_objective(
        "maximize",
        LinearFunctional(-np.trace(A).real / ct, [(Tvar, np.eye(n) / ct)]),
    )
    return Construction.of(b, Tvar)


def build_tsallis_rel_entropy(A, B, t: RationalExponent) -> Construction:
    """Model whose optimum is S_t(A||B) = (tr A - tr[A^{1-t} B^t])/t."""
    if not 0 < t <= 1:
        raise WrongExponent(f"Tsallis relative entropy requires t in (0,1], got {t}")
    A, B = hermitize(A), hermitize(B)
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatch("A and B must have equal dimensions")
    b = ModelBuilder()
    Tvar = b.fresh_var("T", n * n)
    v = vec_rows(np.eye(n))
    _rank_one_bound(b, Tvar, t, _lift_left(A, n), _lift_right(B, n), "sigma", float(t),
                    np.trace(A).real, [(Tvar, -(v @ v.conj().T))], concave=False)
    return Construction.of(b, Tvar)


# ---------------------------------------------------------------------------
# Carlen-Lieb Upsilon


def build_upsilon(K, A, t: RationalExponent) -> Construction:
    """Model whose optimum is t * Upsilon_t(K, A) = t * tr[(K* A^t K)^{1/t}].

    The free matrix X enters through the second geodesic slot as
    I (x) conj(X); the construction uses exponent 1 - t, maximizing
    for t in (0,1] and minimizing for t in [-1,0) u (1,2].  Divide the
    reported optimum by t (``report_divisor``) to get Upsilon itself.
    X's witness recipe is the optimal X = (K* A^t K)^{1/t}.
    """
    K = np.asarray(K, dtype=complex)
    if t == 0:
        raise WrongExponent("Upsilon is undefined at t = 0")
    s = 1 - t
    A = hermitize(A)
    n, m = K.shape
    if A.shape[0] != n:
        raise DimensionMismatch(f"A must be {n} x {n}, got {A.shape}")
    LA = _lift_left(A, m)
    v = vec_rows(K)
    b = ModelBuilder()
    Tvar = b.fresh_var("T", n * m)
    terms = [(Tvar, v @ v.conj().T)]
    LX = LA  # at t = 1, s = 0 and A #_0 X = A needs no X
    if t != 1:
        Xvar = b.fresh_var("X", m)
        b.add_recipe(Xvar, lambda asgn: herm_power(
            hermitize(K.conj().T @ herm_power(A, float(t)) @ K), 1.0 / float(t)))
        LX = AffineBlock.of_var(Xvar, op="conj", kl=np.eye(n))
        terms.append((Xvar, -float(s) * np.eye(m)))
    _rank_one_bound(b, Tvar, s, LA, LX, "tau", 1.0, 0.0, terms, 0 <= s <= 1)
    return Construction.of(b, Tvar, report_divisor=float(t))


def upsilon_equality_witness(K, A, t, construction: Construction) -> WitnessAssignment:
    """Witness attaining the optimum: the construction's recipes."""
    return construction.make_witness()


# ---------------------------------------------------------------------------
# fidelity


def build_fidelity(A, B) -> Construction:
    """Model whose optimum is F(A,B) = tr[(A^{1/2} B A^{1/2})^{1/2}].

    The off-diagonal slot Z = H + iG runs over all of C^{n x n} via two
    Hermitian variables; the objective is Re tr Z = tr H.  The recipes take
    Z = A^{1/2} U* B^{1/2}, U the polar part of B^{1/2} A^{1/2}: the optimum.
    """
    A, B = hermitize(A), hermitize(B)
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatch("A and B must have equal dimensions")
    b = ModelBuilder()
    H = b.fresh_var("H", n)
    G = b.fresh_var("G", n)
    Z = AffineBlock.of_var(H) + AffineBlock.of_var(G, coeff=1j)
    b.add_lmi(
        [[AffineBlock.constant(A), Z], [Z.adjoint(), AffineBlock.constant(B)]],
        label="fidelity",
    )
    b.set_objective("maximize", LinearFunctional(0.0, [(H, np.eye(n))]))

    @cache
    def optimal_z():
        Ah, Bh = herm_power(A, 0.5), herm_power(B, 0.5)
        U_, _, Vh_ = np.linalg.svd(Bh @ Ah)
        return Ah @ (U_ @ Vh_).conj().T @ Bh  # U_ @ Vh_: the polar part

    b.add_recipe(H, lambda asgn: hermitize((optimal_z() + optimal_z().conj().T) / 2))
    b.add_recipe(G, lambda asgn: hermitize((optimal_z() - optimal_z().conj().T) / 2j))
    return Construction.of(b, H)


def fidelity_witness(A, B, construction: Construction) -> WitnessAssignment:
    """Witness attaining F(A,B): the construction's recipes."""
    return construction.make_witness()
