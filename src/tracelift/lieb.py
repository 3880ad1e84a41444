"""Trace functionals compiled through the lifted geometric mean.

The key identity: for K of shape n x m,

    tr[K* A^{1-t} K B^t] = v* (A^{1-t} (x) conj(B)^t) v,   v = vec_rows(K),

and the Kronecker power factors through one geodesic,

    A^{1-t} (x) conj(B)^t = (A (x) I) #_t (I (x) conj(B)).

So Lieb's function, the Carlen-Lieb trace function, Tsallis entropies
and Kronecker products of fractional powers all reduce to a single
lifted hypograph/epigraph plus one scalar constraint, and fidelity is
its own one-block LMI.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, DomainError, WrongExponent
from .geomean import Construction, _as_fraction, _emit_epi, _emit_hyp
from .kernel import (
    RationalExponent,
    herm_power,
    hermitize,
    kron,
    vec_rows,
)
from .model import AffineBlock, LinearFunctional, ModelBuilder, WitnessAssignment


def _pd_data(b: ModelBuilder, name: str, M) -> np.ndarray:
    M = hermitize(M)
    b.add_data(name, M)
    return M


def _lift_left(M: np.ndarray, m: int) -> AffineBlock:
    """A |-> A (x) I_m as a constant block."""
    return AffineBlock.constant(kron(M, np.eye(m)))


def _lift_right(M: np.ndarray, n: int, conjugate: bool = True) -> AffineBlock:
    """B |-> I_n (x) conj(B) (or I_n (x) B) as a constant block."""
    R = M.conj() if conjugate else M
    return AffineBlock.constant(kron(np.eye(n), R))


def _mode_for(t: Fraction) -> str:
    if 0 <= t <= 1:
        return "hyp"
    if -1 <= t <= 0 or 1 <= t <= 2:
        return "epi"
    raise WrongExponent(f"exponent {t} outside [-1, 2]")


def _emit(b: ModelBuilder, mode: str, A, B, T, t: Fraction):
    if mode == "hyp":
        return _emit_hyp(b, A, B, T, t)
    return _emit_epi(b, A, B, T, t)


# ---------------------------------------------------------------------------
# Lieb / Ando trace function


def build_lieb(K, A, B, t: RationalExponent) -> Construction:
    """Model whose optimum is tr[K* A^{1-t} K B^t].

    Concave range t in [0,1] maximizes, convex range t in [-1,0] u
    [1,2] minimizes; both use the lifted pair (A (x) I, I (x) conj(B)).
    """
    K = np.asarray(K, dtype=complex)
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    B = _pd_data(b, "B", B)
    n, m = A.shape[0], B.shape[0]
    if K.shape != (n, m):
        raise DimensionMismatch(f"K must be {n} x {m}, got {K.shape}")
    b.add_data("K", K)
    t = _as_fraction(t)
    mode = _mode_for(t)
    LA = _lift_left(A, m)
    LB = _lift_right(B, n)
    Tvar = b.fresh_var("T", n * m)
    b.add_recipe(Tvar, "geomean", (t, LA, LB))
    _emit(b, mode, LA, LB, AffineBlock.of_var(Tvar), t)
    v = vec_rows(K)
    vv = v @ v.conj().T
    tau = b.fresh_var("tau", 1, kind="real")
    if mode == "hyp":
        f = LinearFunctional(0.0, [(Tvar, vv), (tau, -np.eye(1))])
        b.set_objective("maximize", LinearFunctional(0.0, [(tau, np.eye(1))]))
    else:
        f = LinearFunctional(0.0, [(tau, np.eye(1)), (Tvar, -vv)])
        b.set_objective("minimize", LinearFunctional(0.0, [(tau, np.eye(1))]))
    b.add_scalar(f, label="pinch")
    b.add_recipe(tau, "scalar_tight", f)
    return Construction(
        model=b.freeze(), target=Tvar, recipes=list(b.recipes), aux={"tau": tau},
    )


# ---------------------------------------------------------------------------
# Kronecker products of fractional powers (no conjugation)


def build_kron_power(A, B, s, t) -> Construction:
    """Model whose optimum is tr[A^s (x) B^t], s,t >= 0, 0 < s+t <= 1.

    When s + t < 1 the deficit is absorbed by one extra geodesic
    against the identity.
    """
    s, t = _as_fraction(s), _as_fraction(t)
    if s < 0 or t < 0 or not 0 < s + t <= 1:
        raise WrongExponent(f"need s,t >= 0 and 0 < s+t <= 1, got s={s}, t={t}")
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    B = _pd_data(b, "B", B)
    n, m = A.shape[0], B.shape[0]
    LA = _lift_left(A, m)
    LB = _lift_right(B, n, conjugate=False)
    d = n * m
    u = s + t
    if u == 1:
        Tvar = b.fresh_var("T", d)
        b.add_recipe(Tvar, "geomean", (t, LA, LB))
        _emit_hyp(b, LA, LB, AffineBlock.of_var(Tvar), t)
    else:
        w = t / u
        Svar = b.fresh_var("S", d)
        b.add_recipe(Svar, "geomean", (w, LA, LB))
        Sblk = AffineBlock.of_var(Svar)
        _emit_hyp(b, LA, LB, Sblk, w)
        eye = AffineBlock.constant(np.eye(d))
        Tvar = b.fresh_var("T", d)
        b.add_recipe(Tvar, "geomean", (u, eye, Sblk))
        _emit_hyp(b, eye, Sblk, AffineBlock.of_var(Tvar), u)
    b.set_objective("maximize", LinearFunctional(0.0, [(Tvar, np.eye(d))]))
    return Construction(model=b.freeze(), target=Tvar, recipes=list(b.recipes))


def build_multivariate(mats, weights) -> Construction:
    """Model whose optimum is tr[A_1^{t_1} (x) ... (x) A_k^{t_k}].

    ``weights`` are nonnegative rationals summing to 1; matrices are
    eliminated left to right, one lifted geodesic per step.
    """
    weights = [_as_fraction(w) for w in weights]
    _check_weights(weights, len(mats))
    b = ModelBuilder()
    mats = [_pd_data(b, f"A{i + 1}", M) for i, M in enumerate(mats)]
    dims = [M.shape[0] for M in mats]
    cur = AffineBlock.constant(mats[0])
    acc = weights[0]
    Tvar = None
    for i in range(1, len(mats)):
        d_left, d_right = int(np.prod(dims[: i + 1])), dims[i]
        acc += weights[i]
        w = weights[i] / acc
        LA = _lift_block_left(cur, d_right)
        LB = _lift_right(mats[i], d_left // d_right, conjugate=False)
        Tvar = b.fresh_var("S" if i < len(mats) - 1 else "T", d_left)
        b.add_recipe(Tvar, "geomean", (w, LA, LB))
        _emit_hyp(b, LA, LB, AffineBlock.of_var(Tvar), w)
        cur = AffineBlock.of_var(Tvar)
    d = int(np.prod(dims))
    b.set_objective("maximize", LinearFunctional(0.0, [(Tvar, np.eye(d))]))
    return Construction(model=b.freeze(), target=Tvar, recipes=list(b.recipes))


def _check_weights(weights, k: int):
    """Raise unless there are k >= 2 weights, nonnegative and summing to 1."""
    if len(weights) != k or k < 2:
        raise DomainError("need k >= 2 matrices with matching weights")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise WrongExponent(f"weights must be nonnegative and sum to 1, got {weights}")


def _lift_block_left(blk: AffineBlock, m: int) -> AffineBlock:
    """X |-> X (x) I_m for a constant block or a plain variable block."""
    from .model import ConstTerm, VarTerm

    terms = []
    for term in blk.terms:
        if isinstance(term, ConstTerm):
            terms.append(ConstTerm(kron(term.matrix, np.eye(m))))
        elif isinstance(term, VarTerm) and term.kl is None and term.kr is None:
            terms.append(VarTerm(term.var, term.coeff, term.op, kr=np.eye(m)))
        else:  # pragma: no cover
            raise DomainError("cannot lift a compound block")
    return AffineBlock(blk.dim * m, terms)


# ---------------------------------------------------------------------------
# Tsallis entropies


def build_tsallis_entropy(A, t: RationalExponent) -> Construction:
    """Model whose optimum is S_t(A) = (tr A^{1-t} - tr A)/t, t in (0,1]."""
    t = _as_fraction(t)
    if not 0 < t <= 1:
        raise WrongExponent(f"Tsallis entropy requires t in (0,1], got {t}")
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    n = A.shape[0]
    LA = AffineBlock.constant(A)
    eye = AffineBlock.constant(np.eye(n))
    Tvar = b.fresh_var("T", n)
    b.add_recipe(Tvar, "geomean", (t, LA, eye))
    _emit_hyp(b, LA, eye, AffineBlock.of_var(Tvar), t)
    ct = float(t)
    b.set_objective(
        "maximize",
        LinearFunctional(-np.trace(A).real / ct, [(Tvar, np.eye(n) / ct)]),
    )
    return Construction(model=b.freeze(), target=Tvar, recipes=list(b.recipes))


def build_tsallis_rel_entropy(A, B, t: RationalExponent) -> Construction:
    """Model whose optimum is S_t(A||B) = (tr A - tr[A^{1-t} B^t])/t."""
    t = _as_fraction(t)
    if not 0 < t <= 1:
        raise WrongExponent(f"Tsallis relative entropy requires t in (0,1], got {t}")
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    B = _pd_data(b, "B", B)
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatch("A and B must have equal dimensions")
    LA = _lift_left(A, n)
    LB = _lift_right(B, n)
    Tvar = b.fresh_var("T", n * n)
    b.add_recipe(Tvar, "geomean", (t, LA, LB))
    _emit_hyp(b, LA, LB, AffineBlock.of_var(Tvar), t)
    v = vec_rows(np.eye(n))
    vv = v @ v.conj().T
    ct = float(t)
    sigma = b.fresh_var("sigma", 1, kind="real")
    f = LinearFunctional(
        -np.trace(A).real, [(Tvar, vv), (sigma, ct * np.eye(1))]
    )
    b.add_scalar(f, label="pinch")
    b.add_recipe(sigma, "scalar_tight", f)
    b.set_objective("minimize", LinearFunctional(0.0, [(sigma, np.eye(1))]))
    return Construction(
        model=b.freeze(), target=Tvar, recipes=list(b.recipes), aux={"sigma": sigma},
    )


# ---------------------------------------------------------------------------
# Carlen-Lieb Upsilon


def build_upsilon(K, A, t: RationalExponent) -> Construction:
    """Model whose optimum is t * Upsilon_t(K, A) = t * tr[(K* A^t K)^{1/t}].

    The free matrix X enters through the second geodesic slot as
    I (x) conj(X); the construction uses exponent 1 - t, maximizing
    for t in (0,1] and minimizing for t in [-1,0) u (1,2].  Divide the
    reported optimum by t (``report_divisor``) to get Upsilon itself.
    """
    K = np.asarray(K, dtype=complex)
    t = _as_fraction(t)
    if t == 0:
        raise WrongExponent("Upsilon is undefined at t = 0")
    s = 1 - t
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    n, m = K.shape
    if A.shape[0] != n:
        raise DimensionMismatch(f"A must be {n} x {n}, got {A.shape}")
    b.add_data("K", K)
    mode = _mode_for(s)
    LA = _lift_left(A, m)
    v = vec_rows(K)
    vv = v @ v.conj().T
    Tvar = b.fresh_var("T", n * m)
    tau = b.fresh_var("tau", 1, kind="real")
    terms = [(Tvar, vv), (tau, -np.eye(1))]
    if t == 1:
        b.add_recipe(Tvar, "geomean", (Fraction(0), LA, LA))
        _emit_hyp(b, LA, LA, AffineBlock.of_var(Tvar), Fraction(0))
        aux = {"tau": tau}
    else:
        Xvar = b.fresh_var("X", m)
        LX = AffineBlock.of_var(Xvar, op="conj", kl=np.eye(n))
        b.add_recipe(Tvar, "geomean", (s, LA, LX))
        _emit(b, mode, LA, LX, AffineBlock.of_var(Tvar), s)
        terms.append((Xvar, -float(s) * np.eye(m)))
        aux = {"tau": tau, "X": Xvar}
    if mode == "hyp":
        f = LinearFunctional(0.0, terms)
        b.set_objective("maximize", LinearFunctional(0.0, [(tau, np.eye(1))]))
    else:
        f = LinearFunctional(0.0, [(vr, -Mr) for vr, Mr in terms])
        b.set_objective("minimize", LinearFunctional(0.0, [(tau, np.eye(1))]))
    b.add_scalar(f, label="pinch")
    b.add_recipe(tau, "scalar_tight", f)
    return Construction(
        model=b.freeze(), target=Tvar, recipes=list(b.recipes), aux=aux,
        report_divisor=float(t),
    )


def upsilon_equality_witness(K, A, t, construction: Construction) -> WitnessAssignment:
    """Witness attaining the optimum: X = (K* A^t K)^{1/t}."""
    K = np.asarray(K, dtype=complex)
    t = float(_as_fraction(t))
    base = {}
    if "X" in construction.aux:
        M = hermitize(K.conj().T @ herm_power(A, t) @ K)
        base[construction.aux["X"]] = herm_power(M, 1.0 / t)
    return construction.make_witness(base)


# ---------------------------------------------------------------------------
# fidelity


def build_fidelity(A, B) -> Construction:
    """Model whose optimum is F(A,B) = tr[(A^{1/2} B A^{1/2})^{1/2}].

    The off-diagonal slot Z = H + iG runs over all of C^{n x n} via two
    Hermitian variables; the objective is Re tr Z = tr H.
    """
    b = ModelBuilder()
    A = _pd_data(b, "A", A)
    B = _pd_data(b, "B", B)
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatch("A and B must have equal dimensions")
    H = b.fresh_var("H", n)
    G = b.fresh_var("G", n)
    Z = AffineBlock.of_var(H) + AffineBlock.of_var(G, coeff=1j)
    b.add_lmi(
        [[AffineBlock.constant(A), Z], [Z.adjoint(), AffineBlock.constant(B)]],
        label="fidelity",
    )
    b.set_objective("maximize", LinearFunctional(0.0, [(H, np.eye(n))]))
    return Construction(model=b.freeze(), target=H, recipes=[], aux={"H": H, "G": G})


def fidelity_witness(A, B, construction: Construction) -> WitnessAssignment:
    """Optimal off-diagonal Z = A^{1/2} U* B^{1/2} from the polar part
    U of B^{1/2} A^{1/2}; attains Re tr Z = F(A,B)."""
    A, B = hermitize(A), hermitize(B)
    Ah, Bh = herm_power(A, 0.5), herm_power(B, 0.5)
    M = Bh @ Ah
    U_, s_, Vh_ = np.linalg.svd(M)
    U = U_ @ Vh_  # polar part: M = U P
    Z = Ah @ U.conj().T @ Bh
    return WitnessAssignment({
        construction.aux["H"]: hermitize((Z + Z.conj().T) / 2),
        construction.aux["G"]: hermitize((Z - Z.conj().T) / 2j),
    })
