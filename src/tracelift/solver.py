"""A small dense primal-dual interior-point solver for block SDPs.

Models are solved in the LMI (dual) form

    maximize  b' y   subject to   S_b(y) = G0_b + sum_k y_k A_bk >= 0

for every block b, with the matching primal

    minimize  sum_b tr(G0_b X_b)   s.t.  sum_b tr(A_bk X_b) = -b_k.

The method is infeasible-start path following with Nesterov-Todd
scaling.  Each iteration takes an affine (predictor) direction, uses it
to pick the centring weight, and then takes a re-centred (corrector)
direction; the corrector has no second-order term.  Complex models are
realified first; solutions are mapped back to the original variables.

The coefficient slices A_k are kept sparse: every one is a single basis
element in one grid slot, a handful of nonzeros in a block of a few
dozen rows, so traces, linear combinations and the Schur complement
are computed from those nonzeros.  The iterates X, S and the Schur
complement M itself are dense -- intended for the small block sizes
these constructions produce, not for large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Attempt(NamedTuple):
    """One rung of `solve`'s ladder: its start scale and step fraction, how
    it ended (``"diverged"`` or its status) and the iterations it ran."""

    tau_mul: float
    frac: float
    outcome: str
    iterations: int


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

    ``iterations`` counts the chosen attempt only; ``attempts`` lists every
    attempt of the ladder in order, so the cost of the failed ones shows.
    """

    status: str
    objective: float | None
    var_values: WitnessAssignment
    y: np.ndarray
    iterations: int
    duality_gap: float
    primal_infeas: float
    dual_infeas: float
    attempts: list[Attempt]

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pack(F):
    """The nonzeros of each row of F, left-aligned: (flat positions, values),
    padded with position 0 and value 0 to the widest row."""
    nz = F != 0
    counts = nz.sum(axis=1)
    k, p = np.nonzero(nz)  # grouped by row
    slot = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.zeros((len(F), counts.max(initial=0)), dtype=int)
    val = np.zeros(pos.shape)
    pos[k, slot] = p
    val[k, slot] = F[k, p]
    return pos, val


class _Block:
    """One PSD block: the constant G0 and the nonzeros of each coefficient slice.

    Slice k belongs to coordinate ``idx[k]``.  Its nonzeros sit at the
    flat positions ``pos[k]`` of a d x d matrix (row ``rows[k]``, column
    ``cols[k]``) with values ``val[k]``; ``upos[k]`` and ``uval[k]`` hold
    its upper triangle, off-diagonal values doubled, so that
    tr(A_k X) = sum(uval[k] * X.flat[upos[k]]) for symmetric X.  Rows are
    padded with value 0 at position 0, and all-zero slices are dropped.
    """

    def __init__(self, G0, idx, A):
        self.G0 = G0  # (d, d)
        self.dim = d = G0.shape[0]
        flat = A.reshape(len(A), d * d)
        keep = np.flatnonzero(flat.any(axis=1))
        self.idx = np.asarray(idx, dtype=int)[keep]  # (na,)
        flat = flat[keep]
        self.pos, self.val = _pack(flat)  # (na, P)
        self.rows, self.cols = np.divmod(self.pos, d)
        i, j = np.divmod(np.arange(d * d), d)
        self.upos, self.uval = _pack(flat * np.select([i < j, i == j], [2.0, 1.0]))

    def traces(self, X):
        """tr(A_k X) for every slice k (X symmetric)."""
        return (X.ravel()[self.upos] * self.uval).sum(axis=1)

    def combine(self, w):
        """sum_k w_k A_k as a dense matrix."""
        d = self.dim
        return np.bincount(self.pos.ravel(), (w[:, None] * self.val).ravel(), d * d).reshape(d, d)

    def schur(self, W):
        """tr(A_k W A_l W) for every pair of slices (W symmetric).

        W A_l W is the sum of one rank-one term a W[:, i] W[j, :] per
        nonzero a = (A_l)_ij, and it is read only at the upper-triangle
        nonzeros of each A_k.
        """
        T = (W[self.rows] * self.val[:, :, None]).transpose(0, 2, 1) @ W[self.cols]
        T = T.reshape(len(T), self.dim ** 2)  # row l: W A_l W, flattened
        M = np.zeros((len(T), len(T)))
        for q in range(self.upos.shape[1]):
            M += np.take(T, self.upos[:, q], axis=1) * self.uval[:, q]
        return M.T


def _assemble(model: SdpModel):
    """Flatten a realified model into (b, blocks); each scalar is a 1x1 block."""
    obj = model.require_objective()
    offsets, m = model.coord_offsets()
    flip = -1.0 if obj.sense == "minimize" else 1.0
    b = flip * obj.functional.coeffs(offsets, m)

    blocks = []
    for lmi in model.lmis:
        G0, idx, A = lmi.slices(offsets)
        blocks.append(_Block(np.ascontiguousarray(G0.real), idx, A.real))
    for sc in model.scalars:
        f = sc.functional
        blocks.append(_Block(np.array([[f.constant]]), np.arange(m),
                             f.coeffs(offsets, m)[:, None, None]))
    return b, blocks


def _sym(M):
    return (M + M.T) / 2


def _nt_scaling(X, S, Lx, Ls):
    """W with W S W = X, for symmetric PD X = Lx Lx' and S = Ls Ls'.

    W = X^1/2 (X^1/2 S X^1/2)^-1/2 X^1/2 from eigendecompositions.  When X
    factors but eigh finds an eigenvalue <= 0 in it (X is singular to
    rounding), X^1/2 is useless and W would blow up; W is then taken from
    the Cholesky factors, W = G G' with G = Lx V diag(sv)^-1/2 and
    Ls' Lx = U diag(sv) V', which needs no eigenvalue of X.
    """
    w, Q = np.linalg.eigh(_sym(X))
    if w.min() <= 0:
        _, sv, Vt = np.linalg.svd(Ls.T @ Lx)
        G = Lx @ (Vt.T / np.sqrt(sv))
        return _sym(G @ G.T)
    Xh = (Q * np.sqrt(w)) @ Q.T
    v, P = np.linalg.eigh(_sym(Xh @ S @ Xh))
    Mih = (P / np.sqrt(np.maximum(v, 1e-300))) @ P.T
    return _sym(Xh @ Mih @ Xh)


def _chol(mats):
    """Cholesky factors (L, L^-1), X = L L', of every matrix, or None if one
    is not numerically PD.  An accepted iterate keeps them: L^-1 for the
    ratio tests of the next iteration, L for the NT scaling's fallback."""
    try:
        L = [np.linalg.cholesky(M) for M in mats]
    except np.linalg.LinAlgError:
        return None
    return [(Lb, np.linalg.inv(Lb)) for Lb in L]


def _max_step(Linv, D, frac):
    """Ratio-test step length along D from the PD point X = L L'.

    Takes the cached inverse factor L^-1 of X, so the test costs two
    matrix products and one eigvalsh.  Returns 1 if X + D stays PSD,
    otherwise frac times the distance to the cone boundary,
    -frac / lambda_min(L^-1 D L^-T), capped at 1.  The result is positive
    for any finite D, but in floating point X + alpha*D can still fail to
    factor when X is nearly singular; _interior_step backtracks from
    there.  A D whose eigenvalues cannot be computed (a NaN direction)
    raises _Diverged.
    """
    try:
        lam = np.linalg.eigvalsh(_sym(Linv @ D @ Linv.T)).min()
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

    Returns (alpha, new blocks, their _chol factors), or None once alpha
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
    """An attempt blew up; ``iterations`` is how many it ran."""

    iterations = 0


def _solve_canonical(b, blocks, opts: SolveOptions, tau_mul: float, frac: float):
    """Run the path follower; returns (status, y, X, gap, pinf, dinf, iters).

    Raises _Diverged, with the iterations run, when the iterates blow up.
    """
    m = len(b)
    nu = sum(blk.dim for blk in blocks)
    scale = 1.0 + max(
        [np.abs(b).max(initial=0.0)]
        + [np.abs(blk.G0).max(initial=0.0) for blk in blocks]
        + [np.abs(blk.val).max(initial=0.0) for blk in blocks]
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
            v = blk.traces(Xb)
            rp[blk.idx] -= v
            ax = max(ax, np.linalg.norm(v))
        Rd = [blk.G0 + blk.combine(y[blk.idx]) - Sb for blk, Sb in zip(blocks, S)]
        return rp, Rd, ax

    def ratio_test(F, D):  # the step along D that every block allows
        return min(_max_step(Linv, Db, frac) for (_, Linv), Db in zip(F, D))

    def direction(dy, Rc):
        dS, dX = [], []
        for blk, Wb, Rdb, Rcb in zip(blocks, W, Rd, Rc):
            dSb = Rdb + blk.combine(dy[blk.idx])
            dS.append(_sym(dSb))
            dX.append(_sym(Rcb - Wb @ dSb @ Wb))
        return dX, dS

    status = "iteration_limit"
    it = 0
    gap = pinf = dinf = np.inf
    try:
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

            W = [_nt_scaling(Xb, Sb, Lx, Ls) for Xb, Sb, (Lx, _), (Ls, _) in zip(X, S, LX, LS)]
            Sinv = []
            for Sb in S:
                w, Q = np.linalg.eigh(Sb)
                if w.min() <= 0:
                    return "numerical_failure", y, X, gap, pinf, dinf, it
                Sinv.append(_sym((Q / w) @ Q.T))

            # Schur complement M_kl = sum_b tr(A_k W A_l W).  A direction's
            # right-hand side -rp + sum_b tr(A_k (Rc - W Rd W)) is affine in
            # the centring term Rc, so one solve with two columns gives the
            # affine part (Rc = -X) and the centring part (Rc = S^-1) of dy
            M = np.zeros((m, m))
            rhs = np.zeros((m, 2))
            rhs[:, 0] = -rp
            for blk, Wb, Rdb, Xb, Si in zip(blocks, W, Rd, X, Sinv):
                M[np.ix_(blk.idx, blk.idx)] += blk.schur(Wb)
                rhs[blk.idx, 0] += blk.traces(-Xb - Wb @ Rdb @ Wb)
                rhs[blk.idx, 1] += blk.traces(Si)
            M = _sym(M) + 1e-14 * np.eye(m)
            try:
                dy_aff, dy_cen = np.linalg.solve(M, rhs).T
            except np.linalg.LinAlgError:
                raise _Diverged

            # predictor (affine direction)
            dX_a, dS_a = direction(dy_aff, [-Xb for Xb in X])
            ap, ad = ratio_test(LX, dX_a), ratio_test(LS, dS_a)
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
            dy = dy_aff + sigma * mu * dy_cen
            dX, dS = direction(dy, [_sym(sigma * mu * Si - Xb) for Si, Xb in zip(Sinv, X)])
            primal = _interior_step(X, dX, ratio_test(LX, dX))
            dual = _interior_step(S, dS, ratio_test(LS, dS))
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
    except _Diverged as exc:
        exc.iterations = it
        raise
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
    ladder = [(10.0, opts.step_frac), (1.0, 0.95), (100.0, 0.9)]
    attempts = []
    best = None
    for tau_mul, frac in ladder:
        try:
            out = _solve_canonical(b, blocks, opts, tau_mul, frac)
        except _Diverged as exc:
            attempts.append(Attempt(tau_mul, frac, "diverged", exc.iterations))
            continue
        attempts.append(Attempt(tau_mul, frac, out[0], out[6]))
        if best is None or out[3] < best[3]:
            best = out
        if out[0] == "optimal":
            break
    if best is None:
        return SolveResult(
            status="infeasible", objective=None,
            var_values=WitnessAssignment(), y=np.zeros(len(b)),
            iterations=0, duality_gap=np.inf, primal_infeas=np.inf,
            dual_infeas=np.inf, attempts=attempts,
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
        attempts=attempts,
    )
