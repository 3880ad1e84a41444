"""A small dense primal-dual interior-point solver for block SDPs.

Models are solved in the LMI (dual) form

    maximize  b' y   subject to   S_b(y) = G0_b + sum_k y_k A_bk >= 0

for every block b, with the matching primal

    minimize  sum_b tr(G0_b X_b)   s.t.  sum_b tr(A_bk X_b) = -b_k.

The method is infeasible-start path following with Nesterov-Todd
scaling and an optional Mehrotra predictor-corrector.  Complex models
are realified first; solutions are mapped back to the original
variables.  Everything is dense -- intended for the small block sizes
these constructions produce, not for large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    SdpModel,
    WitnessAssignment,
    as_matrix,
    realify,
    var_basis,
)


@dataclass
class SolveOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iters: int = 200
    step_frac: float = 0.98
    mehrotra: bool = True
    min_sigma: float = 1e-6
    max_sigma: float = 0.999


@dataclass
class SolveResult:
    """Outcome of `solve`; the numbers describe the attempt with the least gap.

    ``status`` is one of

    - ``"optimal"``: relative duality gap, primal and dual infeasibility
      all within ``gap_tol``/``feas_tol``; only then is ``objective`` set.
    - ``"iteration_limit"``: ``max_iters`` ran out before that.
    - ``"numerical_failure"``: the iterates stalled -- X or (y, S) found
      no strictly interior step for several iterations in a row, or the
      dual slack lost definiteness.
    - ``"infeasible"``: every attempt diverged (iterates blew up, the
      search direction became NaN, or mu vanished with residuals still
      above 1e-4).  This is inferred from
      divergence, not backed by a certificate.
    """

    status: str
    objective: float | None
    var_values: WitnessAssignment
    y: np.ndarray
    iterations: int
    duality_gap: float
    primal_infeas: float
    dual_infeas: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _Block:
    """One PSD block: constant part and stacked coefficient slices."""

    def __init__(self, dim, G0, idx, A):
        self.dim = dim
        self.G0 = G0  # (d, d)
        self.idx = np.asarray(idx, dtype=int)  # (na,)
        self.A = A  # (na, d, d)

    def s_of(self, y):
        return self.G0 + np.tensordot(y[self.idx], self.A, axes=(0, 0))


def _assemble(model: SdpModel):
    """Flatten a realified model into (b, blocks); each scalar is a 1x1 block."""
    obj = model.require_objective()
    offsets, m = model.coord_offsets()
    flip = -1.0 if obj.sense == "minimize" else 1.0
    b = flip * obj.functional.coeffs(offsets, m)

    blocks = []

    def add_block(G0, idx, A):
        keep = A.any(axis=(1, 2))  # drop zero slices
        if keep.any():
            idx, A = idx[keep], A[keep]
        else:
            idx, A = [0], np.zeros((1,) + G0.shape)
        blocks.append(_Block(G0.shape[0], G0, idx, A))

    for lmi in model.lmis:
        G0, idx, A = lmi.slices(offsets)
        add_block(np.ascontiguousarray(G0.real), idx, A.real)
    for sc in model.scalars:
        f = sc.functional
        add_block(np.array([[f.constant]]), np.arange(m), f.coeffs(offsets, m)[:, None, None])
    return b, blocks


def _sym(M):
    return (M + M.T) / 2


def _psd_sqrt_pair(M):
    w, Q = np.linalg.eigh(_sym(M))
    w = np.maximum(w, 1e-300)
    r = np.sqrt(w)
    return (Q * r) @ Q.T, (Q / r) @ Q.T


def _nt_scaling(X, S):
    """W with W S W = X (both arguments symmetric PD)."""
    Xh, _ = _psd_sqrt_pair(X)
    M = _sym(Xh @ S @ Xh)
    _, Mih = _psd_sqrt_pair(M)
    return _sym(Xh @ Mih @ Xh)


def _chol(mats):
    """Cholesky factors of every matrix, or None if one is not numerically PD."""
    try:
        return [np.linalg.cholesky(M) for M in mats]
    except np.linalg.LinAlgError:
        return None


def _max_step(L, D, frac):
    """Ratio-test step length along D from the PD point X = L L'.

    Returns 1 if X + D stays PSD, otherwise frac times the distance to the
    cone boundary, -frac / lambda_min(L^-1 D L^-T), capped at 1.  The
    result is positive for any finite D, but in floating point X + alpha*D
    can still fail to factor when X is nearly singular; _interior_step
    backtracks from there.  A D whose eigenvalues cannot be computed (a NaN
    direction) raises _Diverged.
    """
    try:
        Y = np.linalg.solve(L, np.linalg.solve(L, D).T)
        lam = np.linalg.eigvalsh(_sym(Y)).min()
    except np.linalg.LinAlgError:  # a NaN direction
        raise _Diverged
    if lam >= -1e-300:
        return 1.0
    return min(1.0, -frac / lam)


# a step shorter than this leaves the iterate where it is
_MIN_STEP = 1e-10
# an attempt in which X or (y, S) is stuck for longer than this has stalled
_STALL_ITERS = 2


def _interior_step(X, D, alpha):
    """Take the step X + alpha*D, halving alpha until every block factors.

    Returns (alpha, new blocks, their Cholesky factors), or None once alpha
    has to drop below _MIN_STEP, so an accepted iterate is always strictly
    PD.  The ratio-test step itself is always tried, however short.
    """
    while True:
        new = [_sym(Xb + alpha * Db) for Xb, Db in zip(X, D)]
        L = _chol(new)
        if L is not None:
            return alpha, new, L
        alpha /= 2
        if alpha < _MIN_STEP:
            return None


class _Diverged(Exception):
    pass


def _solve_canonical(b, blocks, opts: SolveOptions, tau_mul: float, frac: float):
    """Run the path follower; returns (status, y, X, gap, pinf, dinf, iters)."""
    m = len(b)
    nu = sum(blk.dim for blk in blocks)
    scale = 1.0 + max(
        [np.abs(b).max(initial=0.0)]
        + [np.abs(blk.G0).max(initial=0.0) for blk in blocks]
        + [np.abs(blk.A).max(initial=0.0) for blk in blocks]
    )
    # a generous interior start keeps early iterates away from the cone
    # boundary, which matters more here than a warm scale estimate
    tau = tau_mul * scale
    y = np.zeros(m)
    X = [tau * np.eye(blk.dim) for blk in blocks]
    S = [tau * np.eye(blk.dim) for blk in blocks]
    LX, LS = _chol(X), _chol(S)
    stuck = 0  # consecutive iterations in which X or (y, S) could not move

    bnorm = 1.0 + np.linalg.norm(b)

    def residuals():
        rp = -b.copy()
        ax = 0.0
        for blk, Xb in zip(blocks, X):
            v = np.tensordot(blk.A, Xb, axes=([1, 2], [0, 1]))
            rp[blk.idx] -= v
            ax = max(ax, np.linalg.norm(v))
        Rd = [blk.s_of(y) - Sb for blk, Sb in zip(blocks, S)]
        return rp, Rd, ax

    status = "iteration_limit"
    it = 0
    gap = pinf = dinf = np.inf
    for it in range(1, opts.max_iters + 1):
        rp, Rd, ax = residuals()
        trxs = sum(np.tensordot(Xb, Sb) for Xb, Sb in zip(X, S))
        mu = trxs / nu
        pobj = sum(np.tensordot(blk.G0, Xb) for blk, Xb in zip(blocks, X))
        dobj = b @ y
        gap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        pinf = np.linalg.norm(rp) / max(bnorm, 1.0 + ax)
        dinf = max(
            np.linalg.norm(R) / (1 + max(np.linalg.norm(blk.G0), np.linalg.norm(Sb)))
            for blk, R, Sb in zip(blocks, Rd, S)
        )
        if gap <= opts.gap_tol and pinf <= opts.feas_tol and dinf <= opts.feas_tol:
            status = "optimal"
            break
        iterate_norm = max(
            np.abs(y).max(initial=0.0),
            max(np.abs(Xb).max() for Xb in X),
            max(np.abs(Sb).max() for Sb in S),
        )
        if not np.isfinite(mu) or iterate_norm > 1e12 * scale:
            raise _Diverged
        if mu < 1e-16 * scale and (pinf > 1e-4 or dinf > 1e-4):
            raise _Diverged

        W = [_nt_scaling(Xb, Sb) for Xb, Sb in zip(X, S)]
        Sinv = []
        for Sb in S:
            w, Q = np.linalg.eigh(Sb)
            if w.min() <= 0:
                return "numerical_failure", y, X, gap, pinf, dinf, it
            Sinv.append((Q / w) @ Q.T)

        # Schur complement M_kl = sum_b tr(A_k W A_l W)
        M = np.zeros((m, m))
        for blk, Wb in zip(blocks, W):
            T = Wb[None] @ blk.A @ Wb[None]
            Mb = np.tensordot(blk.A, T, axes=([1, 2], [1, 2]))
            M[np.ix_(blk.idx, blk.idx)] += Mb
        M = _sym(M) + 1e-14 * np.eye(m)

        def direction(Rc):
            rhs = -rp.copy()
            for blk, Wb, Rdb, Rcb, Xb in zip(blocks, W, Rd, Rc, X):
                V = Rcb - Wb @ Rdb @ Wb
                rhs[blk.idx] += np.tensordot(blk.A, V, axes=([1, 2], [0, 1]))
            try:
                dy = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                raise _Diverged
            dS, dX = [], []
            for blk, Wb, Rdb, Rcb in zip(blocks, W, Rd, Rc):
                dSb = Rdb + np.tensordot(dy[blk.idx], blk.A, axes=(0, 0))
                dS.append(_sym(dSb))
                dX.append(_sym(Rcb - Wb @ dSb @ Wb))
            return dy, dX, dS

        # predictor (affine direction)
        Rc = [-Xb for Xb in X]
        dy_a, dX_a, dS_a = direction(Rc)
        ap = min(_max_step(Lb, D, frac) for Lb, D in zip(LX, dX_a))
        ad = min(_max_step(Lb, D, frac) for Lb, D in zip(LS, dS_a))
        if opts.mehrotra:
            # use the affine decrease to pick the centering weight, then
            # recenter (no second-order term; more robust on small blocks)
            trxs_a = sum(
                np.tensordot(Xb + ap * dXb, Sb + ad * dSb)
                for Xb, dXb, Sb, dSb in zip(X, dX_a, S, dS_a)
            )
            sigma = np.clip((max(trxs_a, 0.0) / trxs) ** 3, opts.min_sigma, opts.max_sigma)
        else:
            sigma = 0.5 if min(ap, ad) < 0.5 else 0.05
        Rc = [_sym(sigma * mu * Si - Xb) for Si, Xb in zip(Sinv, X)]
        dy, dX, dS = direction(Rc)
        primal = _interior_step(X, dX, min(_max_step(Lb, D, frac) for Lb, D in zip(LX, dX)))
        dual = _interior_step(S, dS, min(_max_step(Lb, D, frac) for Lb, D in zip(LS, dS)))
        # a side that cannot move stays put for this iteration: the other
        # side's step changes the scaling, which often frees it again
        stuck = stuck + 1 if primal is None or dual is None else 0
        if (primal is None and dual is None) or stuck > _STALL_ITERS:
            return "numerical_failure", y, X, gap, pinf, dinf, it
        if primal is not None:
            _, X, LX = primal
        if dual is not None:
            ad, S, LS = dual
            y = y + ad * dy
    return status, y, X, gap, pinf, dinf, it


def solve(model: SdpModel, options: SolveOptions | None = None) -> SolveResult:
    """Solve a model; complex models are realified transparently."""
    opts = options or SolveOptions()
    original_vars = model.vars
    work, var_map = realify(model, force_embed=False) if not model.realified else (model, None)
    b, blocks = _assemble(work)

    # a short ladder of starting points and step fractions: the default
    # is fastest, the alternates rescue instances that stall near the
    # central path's end
    attempts = [(10.0, opts.step_frac), (1.0, 0.95), (100.0, 0.9)]
    best = None
    for tau_mul, frac in attempts:
        try:
            out = _solve_canonical(b, blocks, opts, tau_mul, frac)
        except _Diverged:
            continue
        if best is None or out[3] < best[3]:
            best = out
        if out[0] == "optimal":
            break
    if best is None:
        return SolveResult(
            status="infeasible", objective=None,
            var_values=WitnessAssignment(), y=np.zeros(len(b)),
            iterations=0, duality_gap=np.inf, primal_infeas=np.inf,
            dual_infeas=np.inf,
        )
    status, y, X, gap, pinf, dinf, iters = best

    # recover realified variable values from y
    values_real = WitnessAssignment()
    j = 0
    for v in work.vars:
        basis = var_basis(v)
        val = np.zeros((v.dim, v.dim), dtype=complex)
        for k in range(len(basis)):
            val = val + y[j + k] * basis[k]
        j += len(basis)
        values_real[v] = val.real.astype(float)

    if var_map is None:
        values = values_real
    else:
        values = WitnessAssignment()
        for v in original_vars:
            nv = var_map[v]
            Y = values_real[nv]
            if nv.kind == "phi":
                d = v.dim
                values[v] = (
                    (Y[:d, :d] + Y[d:, d:]) / 2 + 1j * (Y[d:, :d] - Y[:d, d:]) / 2
                )
            else:
                values[v] = as_matrix(Y, v.dim).astype(complex)

    objective = None
    if status == "optimal":
        objective = model.require_objective().functional.evaluate(values)
    return SolveResult(
        status=status, objective=objective, var_values=values, y=y,
        iterations=iters, duality_gap=gap, primal_infeas=pinf, dual_infeas=dinf,
    )
