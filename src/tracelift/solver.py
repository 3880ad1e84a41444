"""A small dense primal-dual interior-point solver for block SDPs.

Models are solved in the LMI (dual) form that `model.canonical` gives,
the one form that `sdpa.export_sdpa` writes too:

    maximize  b' y   subject to   S_b(y) = G0_b + sum_k y_k A_bk >= 0

for every block b, a scalar constraint being a 1x1 block, with the
matching primal

    minimize  sum_b tr(G0_b X_b)   s.t.  sum_b tr(A_bk X_b) = -b_k.

The method is infeasible-start path following with Nesterov-Todd
scaling and Mehrotra's predictor-corrector: each iteration takes an
affine (predictor) direction, uses it to pick the centring weight, and
then takes a corrector direction that adds the predictor's second-order
term, in the NT-scaled form of Todd, Toh and Tutuncu (1998).  A corrector
step that raises the primal infeasibility, which only rounding can do, is
replaced by a centring step.  Complex models are realified first; each
original variable's value is then the combination of the basis matrices
its realified variable keeps.

The coefficient slices A_k are read from each LMI's held sparse form
(`model.Slices`): every one is a single basis element in one grid slot,
a handful of nonzeros in a block of a few dozen rows, so traces, linear
combinations and the Schur complement are computed from those nonzeros.
Blocks of one shape are stacked and each numpy call covers a stack;
sums over blocks and scatters into coordinates run in stack order.  The
iterates X, S and the Schur complement M itself are dense -- intended for
the small block sizes these constructions produce, not for large-scale
work.

M is factored once per iteration, by variable blocks: a lifted variable
meets only its neighbours in the construction's chain, so M is
block-sparse by variable.  `_plan` orders the variables for elimination
once per model, and `_eliminate` eliminates them in place on M by
Cholesky factors, leaving a dense root for `np.linalg.solve`; the two
solves of an iteration reuse those factors.  In a model with no pivot --
every one whose variables are all small -- the root is all of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    SdpModel,
    WitnessAssignment,
    canonical,
    realify,
    var_basis,
)


@dataclass
class SolveOptions:
    """The iteration limit of each attempt of `solve`'s ladder."""

    max_iters: int = 200


# an attempt is optimal once the relative duality gap and the relative primal
# and dual infeasibilities are within these
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-8
# bounds of Mehrotra's centring weight; the upper one is the centring step's
_MIN_SIGMA = 1e-6
_MAX_SIGMA = 0.999
# solve's ladder of (start scale, step fraction) attempts: the first is
# fastest, the others rescue instances that stall near the central path's
# end.  The third rescues 2 of the 1200 solves of tools/sweep.py's hard
# set (complex and real data) and 5 of the 80 of its lieb-2/3 panel (one
# and two BLAS threads)
_LADDER = ((10.0, 0.98), (1.0, 0.95), (100.0, 0.9))


class Attempt(NamedTuple):
    """One rung of `solve`'s ladder: its start scale and step fraction, how
    it ended (``"diverged"`` or its status) and the iterations it ran."""

    tau_mul: float
    frac: float
    outcome: str
    iterations: int


@dataclass
class SolveResult:
    """Outcome of `solve`; the numbers describe the first optimal attempt,
    or else the attempt with the least gap.

    ``status`` is one of

    - ``"optimal"``: relative duality gap, primal and dual infeasibility
      all within 1e-8; only then is ``objective`` set.
    - ``"iteration_limit"``: ``max_iters`` ran out before that.
    - ``"numerical_failure"``: the iterates stalled -- X or (y, S) found
      no strictly interior step for several iterations in a row.
    - ``"diverged"``: every attempt diverged (iterates blew up, the
      search direction became NaN, or mu vanished with residuals still
      above 1e-4).  No certificate backs it: the model may be infeasible,
      unbounded, or feasible with data too large for the start.

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


def _pack(k, p, v, rows):
    """Entries (row k, flat position p, value v), grouped by row, left-aligned
    into (positions, values) arrays of ``rows`` rows, padded with position 0
    and value 0 to the widest row."""
    counts = np.bincount(k, minlength=rows)
    slot = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.zeros((rows, counts.max(initial=0)), dtype=int)
    val = np.zeros(pos.shape)
    pos[k, slot] = p
    val[k, slot] = v
    return pos, val


class _Stack:
    """The PSD blocks of one shape -- size d, na nonzero slices and the
    widths _pack gives them (padding a slice further would change how
    numpy sums it) -- as (nb, ...) arrays.

    Block k is block ``order[k]`` of the model.  Its slice p belongs to
    coordinate ``idx[k, p]`` and has the nonzeros ``val[k, p]`` at rows
    ``rows[k, p]`` and columns ``cols[k, p]``; ``upos[k, p]`` (flat
    positions in a d x d matrix) and ``uval[k, p]`` hold its upper
    triangle, off-diagonal values doubled, so that
    tr(A X) = sum(uval * X.flat[upos]) for symmetric X.
    """

    def __init__(self, blocks):  # (order, G0, idx, pos, val, upos, uval) per block
        self.order, self.G0, self.idx, pos, self.val, self.upos, self.uval = map(np.array, zip(*blocks))
        nb, self.dim = self.G0.shape[:2]
        self.rows, self.cols = np.divmod(pos, self.dim)
        self.G0_norms = _norms(self.G0)
        base = (np.arange(nb) * self.dim ** 2)[:, None, None]  # flat positions in the stack
        self._pos, self._upos = pos + base, self.upos + base

    def traces(self, X):
        """tr(A X_k) for every slice A of every block k (X symmetric)."""
        return (X.ravel()[self._upos] * self.uval).sum(axis=-1)

    def combine(self, w):
        """sum_p w[k, p] A_p for every block k, as a stack."""
        out = np.bincount(self._pos.ravel(), (w[..., None] * self.val).ravel(), self.G0.size)
        return out.reshape(self.G0.shape)

    def schur(self, W, k):
        """tr(A_p W A_q W) for every pair of slices of block k (W symmetric).

        W A_q W is the sum of one rank-one term a W[:, i] W[j, :] per
        nonzero a = (A_q)_ij, and it is read only at the upper-triangle
        nonzeros of each A_p.  One block at a time, as a whole stack's
        terms would hold na d^2 floats per block at once.
        """
        T = (W[self.rows[k]] * self.val[k, :, :, None]).transpose(0, 2, 1) @ W[self.cols[k]]
        T = T.reshape(len(T), self.dim ** 2)  # row q: W A_q W, flattened
        M = np.zeros((len(T), len(T)))
        for q in range(self.upos.shape[2]):
            M += np.take(T, self.upos[k, :, q], axis=1) * self.uval[k, :, q]
        return M.T


class _Blocks:
    """A realified model's PSD blocks, packed and stacked by shape.

    Built from the held slices of each block in model order: G0, the
    coordinate idx[k] of each slice k, and the nonzeros (A_k)_p = v as
    columns (k, p, v) sorted by k and then p, as `model.Slices` holds
    them.  Every sum over blocks and every scatter into coordinates runs
    in stack order: the stacks in turn, and the blocks of each in turn.
    """

    def __init__(self, held):
        shapes = {}
        for n, (G0, idx, k, p, v) in enumerate(held):
            d = len(G0)
            has = np.bincount(k, minlength=len(idx)) > 0  # all-zero slices are dropped
            k = (np.cumsum(has) - 1)[k]
            na = int(has.sum())
            pos, val = _pack(k, p, v, na)
            i, j = np.divmod(p, d)
            up = i <= j  # the upper triangle, off-diagonal values doubled
            upos, uval = _pack(k[up], p[up], np.where(i < j, 2.0, 1.0)[up] * v[up], na)
            shapes.setdefault((d,) + pos.shape + upos.shape, []).append(
                (n, G0, np.asarray(idx)[has], pos, val, upos, uval))
        self.stacks = [_Stack(group) for group in shapes.values()]
        self.coords = np.concatenate([s.idx.ravel() for s in self.stacks])
        self.runs = [[_runs(idx) for idx in s.idx] for s in self.stacks]

    def total(self, vals):
        """The sum over blocks of per-stack values (nb,)."""
        return np.cumsum(np.concatenate(vals))[-1]

    def residual(self, b, X):
        """-b - sum_b tr(A_bk X_b), and the largest norm of a block's traces."""
        v = [s.traces(Xs) for s, Xs in zip(self.stacks, X)]
        rp = -b
        np.subtract.at(rp, self.coords, np.concatenate([t.ravel() for t in v]))  # adds up repeated coords
        return rp, max([0.0] + [_norms(t).max(initial=0.0) for t in v])

    def add_traces(self, out, T):
        """Add sum_b tr(A_bk T_b) to out[k] for every coordinate k; returns out."""
        v = [s.traces(Ts).ravel() for s, Ts in zip(self.stacks, T)]
        np.add.at(out, self.coords, np.concatenate(v))
        return out

    def newton(self, W, R, C, rp):
        """The Schur complement M_kl = sum_b tr(A_bk W_b A_bl W_b),
        symmetrised and its diagonal shifted by 1e-14, and the right-hand
        sides -rp + sum_b tr(A_bk R_b) and sum_b tr(A_bk C_b).

        Each block's term is symmetrised on its own na x na rows, which is
        cheaper than symmetrising M, and added one pair of coordinate runs
        at a time."""
        m = len(rp)
        M = np.zeros((m, m))
        for s, Ws, runs in zip(self.stacks, W, self.runs):
            for k, run in enumerate(runs):
                T = _sym(s.schur(Ws[k], k))
                for a0, a1, i in run:
                    for b0, b1, j in run:
                        M[i:i + a1 - a0, j:j + b1 - b0] += T[a0:a1, b0:b1]
        M.flat[:: m + 1] += 1e-14
        rhs = np.zeros((m, 2))
        rhs[:, 0] = -rp
        for j, T in enumerate((R, C)):
            self.add_traces(rhs[:, j], T)
        return M, rhs


def _runs(idx):
    """(a0, a1, idx[a0]) for each run a0:a1 of idx that counts up by one."""
    cut = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1).tolist(), len(idx)]
    return [(a0, a1, int(idx[a0])) for a0, a1 in zip(cut, cut[1:]) if a1 > a0]


def _sym(M):
    S = M + M.swapaxes(-1, -2)
    return np.divide(S, 2, out=S)  # in place: one temporary fewer lowers the peak memory of large solves


def _dot(P, Q):
    """tr(P_k' Q_k) for each k of two stacks, as a row times a column: so
    it adds up as np.tensordot and np.linalg.norm do, unlike einsum or sum."""
    return (P.reshape(len(P), 1, -1) @ Q.reshape(len(Q), -1, 1)).reshape(len(P))


def _norms(A):
    return np.sqrt(_dot(A, A))


def _nt_scaling(X, S, Lx, Ls):
    """(W, G, V) for each k of stacks of symmetric PD X_k = Lx_k Lx_k' and
    S_k = Ls_k Ls_k': the NT scaling W_k, with W_k S_k W_k = X_k, a factor
    G_k with G_k G_k' = W_k, and the vector V_k with G_k' S_k G_k = diag(V_k)
    (so that G_k^-1 X_k G_k^-T = diag(V_k) too).

    W = X^1/2 (X^1/2 S X^1/2)^-1/2 X^1/2, G = X^1/2 P diag(v)^-1/4 and V
    = v^1/2, where X^1/2 S X^1/2 = P diag(v) P', from eigendecompositions.
    When X factors but eigh finds an eigenvalue <= 0 in it (X is singular
    to rounding), X^1/2 is useless and W would blow up; G and V are then
    taken from the Cholesky factors, G = Lx Vs diag(sv)^-1/2 and V = sv,
    where Ls' Lx = U diag(sv) Vs', which needs no eigenvalue of X, and W =
    G G'.  Such blocks are redone one at a time, after the eigenvalue
    formula has run on the whole stack with the absolute values of their
    eigenvalues.
    """
    w, Q = np.linalg.eigh(_sym(X))
    singular = w[:, 0] <= 0  # eigh sorts ascending
    Xh = (Q * np.sqrt(np.abs(w))[:, None, :]) @ Q.transpose(0, 2, 1)
    v, P = np.linalg.eigh(_sym(Xh @ S @ Xh))
    V = np.sqrt(np.maximum(v, 1e-300))
    Mih = (P / V[:, None, :]) @ P.transpose(0, 2, 1)
    W = _sym(Xh @ Mih @ Xh)
    G = Xh @ (P / np.sqrt(V)[:, None, :])
    for k in np.flatnonzero(singular):
        _, V[k], Vt = np.linalg.svd(Ls[k].T @ Lx[k])
        G[k] = Lx[k] @ (Vt.T / np.sqrt(V[k]))
        W[k] = _sym(G[k] @ G[k].T)
    return W, G, V


def _second_order(G, V, dS):
    """Mehrotra's second-order term G Z G' of the corrector, for stacks.

    In the space scaled by G the iterates are X~ = S~ = diag(V), the affine
    dual step is dS~ = G' dS G and, as the affine primal step is dX = -X -
    W dS W, dX~ = G^-1 dX G^-T = -diag(V) - dS~, which needs no inverse of G.
    Z solves the Lyapunov equation diag(V) Z + Z diag(V) = -(dX~ dS~ +
    dS~ dX~), elementwise since diag(V) is diagonal.
    """
    Gt = G.transpose(0, 2, 1)
    dSt = _sym(Gt @ dS @ G)
    P = (-V[:, :, None] * np.eye(V.shape[1]) - dSt) @ dSt  # dX~ dS~
    Z = -(P + P.transpose(0, 2, 1)) / (V[:, :, None] + V[:, None, :])
    return G @ Z @ Gt


def _chol(mats):
    """Cholesky factors (L, L^-1), X = L L', of every stack of matrices, or
    None if one is not numerically PD.  An accepted iterate keeps them: L^-1
    for the ratio tests of the next iteration and, for S, S^-1 = L^-T L^-1;
    L for the NT scaling's fallback."""
    try:
        L = [np.linalg.cholesky(M) for M in mats]
    except np.linalg.LinAlgError:
        return None
    return [(Ls, np.linalg.inv(Ls)) for Ls in L]


def _max_step(Linv, D, frac):
    """Ratio-test step length along a stack D from the PD points X = L L'.

    Takes the cached inverse factors L^-1 of X, so the test costs two
    matrix products and one eigvalsh per stack.  Returns 1 if X + D stays
    PSD, otherwise frac times the distance to the cone boundary,
    -frac / lambda_min(L^-1 D L^-T), capped at 1, with lambda_min taken
    over all blocks.  The result is positive for any finite D, but in floating
    point X + alpha*D can still fail to factor when X is nearly singular;
    _interior_step backtracks from there.  A NaN direction raises _Diverged:
    eigvalsh raises on its blocks of three rows or more and returns NaN on
    smaller ones.
    """
    try:
        lam = np.linalg.eigvalsh(_sym(Linv @ D @ Linv.transpose(0, 2, 1))).min()
    except np.linalg.LinAlgError:
        raise _Diverged
    if np.isnan(lam):
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

    Returns (alpha, new stacks, their _chol factors), or None once alpha
    has to drop below _MIN_STEP, so an accepted iterate is always strictly
    PD.  The ratio-test step itself is always tried, however short.
    """
    while True:
        new = [_sym(Xs + alpha * Ds) for Xs, Ds in zip(X, D)]
        L = _chol(new)
        if L is not None:
            return alpha, new, L
        alpha /= 2
        if alpha < _MIN_STEP:
            return None


class _Diverged(Exception):
    """An attempt blew up."""


# a variable of fewer coordinates than this is never a pivot of the Schur
# complement's elimination: it stays in the dense root.  Measured with one
# BLAS thread on the Schur pattern of geomean 1/3 at n = 4 to 8 (four
# variables of d = n^2 coordinates; M factored, then solved for two columns
# and for one), eliminating takes 2.2x the time of two dense solves at
# d = 16, 1.11x at d = 36, 0.92x at d = 49 and 0.73x at d = 64: below the
# crossover, a pivot's numpy calls cost more than the flops it saves
_MIN_PIVOT = 40


class _Plan(NamedTuple):
    """The block elimination of the Schur complement: per pivot, its
    variable's coordinates (a slice) and its neighbours' coordinates when
    it is eliminated, fill included; then the root, the coordinates of the
    variables left (a slice when they are one run), which `np.linalg.solve`
    takes as one dense matrix."""

    pivots: list
    root: slice | np.ndarray


def _plan(offsets, m, held) -> _Plan:
    """The elimination plan of the Schur complement M of a canonical model,
    from each variable's first coordinate (``offsets``) and the coordinates
    ``idx`` of each block.

    M couples two variables only where they share a block, so its pattern
    by variable is the graph of shared blocks.  Pivots are taken in greedy
    minimum-degree order -- the least coordinates among the neighbours,
    then the first variable -- and each makes its neighbours a clique (the
    fill).  The elimination stops once the variables left form a clique,
    or no variable left has _MIN_PIVOT coordinates."""
    starts = [*sorted(offsets.values()), m]
    size = np.diff(starts)

    def coords(vs):
        return np.concatenate([np.zeros(0, dtype=int)] + [np.arange(starts[v], starts[v + 1]) for v in vs])

    adj = [set() for _ in size]
    for _, idx, *_ in held:
        shared = set(np.searchsorted(starts, idx, side="right") - 1)
        for v in shared:
            adj[v] |= shared - {v}
    left, pivots = set(range(len(size))), []
    while any(len(adj[v]) < len(left) - 1 for v in left):
        free = [v for v in left if size[v] >= _MIN_PIVOT]
        if not free:
            break
        j = min(free, key=lambda v: (sum(size[u] for u in adj[v]), v))
        for u in adj[j]:
            adj[u] |= adj[j]
            adj[u] -= {u, j}
        pivots.append((slice(starts[j], starts[j + 1]), _run(coords(sorted(adj[j])))))
        left.remove(j)
    return _Plan(pivots, _run(coords(sorted(left))))


def _run(c):
    """Sorted coordinates as a slice when they are one run, so that numpy
    indexes a view and not a copy."""
    return slice(int(c[0]), int(c[-1]) + 1) if len(c) and c[-1] - c[0] == len(c) - 1 else c


def _square(c):  # the rows and columns c of a matrix
    return (c, c) if isinstance(c, slice) else np.ix_(c, c)


def _eliminate(M, plan: _Plan):
    """Factor the symmetric M along ``plan``, in place; returns the function
    that solves M x = r for one or more columns r.

    Each pivot J, with neighbours N, is eliminated by a Cholesky factor L of
    M_JJ: with B = (L^-1 M_JN)', M_NN -= B B' leaves in M the Schur
    complement of the pivots so far.  A pivot that does not factor ends the
    elimination, and it and every variable not yet eliminated join the
    root.  The solve substitutes forward through the pivots, solves the
    root and substitutes back.  Only the root solve raises LinAlgError.
    """
    done = []
    for J, N in plan.pivots:
        try:
            L = np.linalg.cholesky(M[J, J])
        except np.linalg.LinAlgError:
            break
        B = np.linalg.solve(L, M[J, N]).T
        M[_square(N)] -= B @ B.T
        done.append((J, N, L, B))
    root = plan.root
    if len(done) < len(plan.pivots):
        root = _run(np.sort(np.concatenate(
            [np.r_[root]] + [np.arange(J.start, J.stop) for J, _ in plan.pivots[len(done):]])))
    R = M[_square(root)]

    def solve(r):
        x = r.copy()
        for J, N, L, B in done:
            x[J] = np.linalg.solve(L, x[J])
            x[N] -= B @ x[J]
        x[root] = np.linalg.solve(R, x[root])
        for J, N, L, B in reversed(done):
            x[J] = np.linalg.solve(L.T, x[J] - B.T @ x[N])
        return x

    return solve


def _solve_canonical(b, blocks: _Blocks, plan: _Plan, opts: SolveOptions, tau_mul: float, frac: float):
    """Run the path follower; returns (status, y, gap, pinf, dinf, iters),
    the status ``"diverged"`` when the iterates blow up.

    X, S and the other per-block terms hold one array per stack of blocks.
    """
    stacks = blocks.stacks
    m = len(b)
    nu = sum(s.G0.shape[0] * s.dim for s in stacks)
    scale = 1.0 + max([np.abs(b).max(initial=0.0)] + [
        np.abs(a).max(initial=0.0) for s in stacks for a in (s.G0, s.val)])
    # a generous interior start keeps early iterates away from the cone
    # boundary, which matters more here than a warm scale estimate
    tau = tau_mul * scale
    y = np.zeros(m)
    X = [tau * np.broadcast_to(np.eye(s.dim), s.G0.shape) for s in stacks]
    S = [Xs.copy() for Xs in X]
    LX, LS = _chol(X), _chol(S)
    stuck = 0  # consecutive iterations in which X or (y, S) could not move

    bnorm = 1.0 + np.linalg.norm(b)

    def ratio_test(F, D):  # the step along D that every block allows
        return min(_max_step(Linv, Ds, frac) for (_, Linv), Ds in zip(F, D))

    def direction(dy, Rc):
        dS, dX = [], []
        for s, Ws, Rds, Rcs in zip(stacks, W, Rd, Rc):
            dSs = Rds + s.combine(dy[s.idx])
            dS.append(_sym(dSs))
            dX.append(_sym(Rcs - Ws @ dSs @ Ws))
        return dX, dS

    def infeasibility(X):  # the relative primal residual, and the residual
        rp, ax = blocks.residual(b, X)
        return np.linalg.norm(rp) / max(bnorm, 1.0 + ax), rp

    def solve_m(rhs):
        try:
            return factored(rhs)
        except np.linalg.LinAlgError:
            raise _Diverged

    def corrector(sigma, dy_c=0.0, C=()):
        # (dy, Rc) of the direction with centring weight sigma and
        # second-order part (dy_c, C): Rc = sigma mu S^-1 - X + C
        Rc = [sigma * mu * Si - Xs for Si, Xs in zip(Sinv, X)]
        for Rcs, Cs in zip(Rc, C):
            Rcs += Cs
        return dy_aff + sigma * mu * dy_cen + dy_c, Rc

    def primal_step(dy, Rc):
        # the direction's dS, X's step along it (None: X cannot move) and
        # the primal infeasibility and residual there
        dX, dS = direction(dy, Rc)
        primal = _interior_step(X, dX, ratio_test(LX, dX))
        return dS, primal, primal and infeasibility(primal[1])

    status = "iteration_limit"
    it = 0
    gap = pinf = dinf = np.inf
    try:
        pinf, rp = infeasibility(X)
        for it in range(1, opts.max_iters + 1):
            Rd = [s.G0 + s.combine(y[s.idx]) - Ss for s, Ss in zip(stacks, S)]
            trxs = blocks.total([_dot(Xs, Ss) for Xs, Ss in zip(X, S)])
            mu = trxs / nu
            pobj = blocks.total([_dot(s.G0, Xs) for s, Xs in zip(stacks, X)])
            dobj = b @ y
            gap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
            dinf = max((_norms(R) / (1 + np.maximum(s.G0_norms, _norms(Ss)))).max()
                       for s, R, Ss in zip(stacks, Rd, S))
            if gap <= _GAP_TOL and pinf <= _FEAS_TOL and dinf <= _FEAS_TOL:
                status = "optimal"
                break
            iterate_norm = max([np.abs(y).max(initial=0.0)] + [np.abs(A).max() for A in X + S])
            if not np.isfinite(mu) or iterate_norm > 1e12 * scale:
                raise _Diverged
            if mu < 1e-16 * scale and (pinf > 1e-4 or dinf > 1e-4):
                raise _Diverged

            W, G, V = zip(*(_nt_scaling(Xs, Ss, Lx, Ls)
                            for Xs, Ss, (Lx, _), (Ls, _) in zip(X, S, LX, LS)))
            Sinv = [Linv.transpose(0, 2, 1) @ Linv for _, Linv in LS]

            # a direction's right-hand side -rp + sum_b tr(A_k (Rc - W Rd W))
            # is affine in the term Rc, so one solve with two columns gives
            # the affine part (Rc = -X) and the centring part (Rc = S^-1) of
            # dy, and a second solve, with the same factors, the part of the
            # second-order term
            M, rhs = blocks.newton(
                W, [-Xs - Ws @ Rds @ Ws for Xs, Ws, Rds in zip(X, W, Rd)], Sinv, rp)
            factored = _eliminate(M, plan)
            del M
            dy_aff, dy_cen = solve_m(rhs).T
            # the predictor (affine direction): its decrease picks the
            # centring weight, and its second-order term corrects the
            # corrector (Mehrotra, in the NT-scaled form of Todd, Toh and
            # Tutuncu, 1998)
            dX_a, dS_a = direction(dy_aff, [-Xs for Xs in X])
            ap, ad = ratio_test(LX, dX_a), ratio_test(LS, dS_a)
            trxs_a = blocks.total(
                [_dot(Xs + ap * dXs, Ss + ad * dSs) for Xs, dXs, Ss, dSs in zip(X, dX_a, S, dS_a)])
            sigma = np.clip((max(trxs_a, 0.0) / trxs) ** 3, _MIN_SIGMA, _MAX_SIGMA)
            C = [_second_order(Gs, Vs, dSs) for Gs, Vs, dSs in zip(G, V, dS_a)]
            dy_c = solve_m(blocks.add_traces(np.zeros(m), C))
            del factored
            # in exact arithmetic a step cuts the primal residual by the
            # factor 1 - alpha, so only rounding can raise the primal
            # infeasibility: a corrector step that raises it above
            # max(pinf, _FEAS_TOL) gives way to the centring direction,
            # which keeps mu and only cuts the residuals
            for dy, Rc in (corrector(sigma, dy_c, C), corrector(_MAX_SIGMA)):
                dS, primal, moved = primal_step(dy, Rc)
                if not moved or moved[0] <= max(pinf, _FEAS_TOL):
                    break
            dual = _interior_step(S, dS, ratio_test(LS, dS))
            # a side that cannot move stays put for this iteration: the other
            # side's step changes the scaling, which often frees it again
            stuck = stuck + 1 if primal is None or dual is None else 0
            if (primal is None and dual is None) or stuck > _STALL_ITERS:
                status = "numerical_failure"
                break
            if primal is not None:
                _, X, LX = primal
                pinf, rp = moved
            if dual is not None:
                ad, S, LS = dual
                y = y + ad * dy
    except _Diverged:
        status = "diverged"
    return status, y, gap, pinf, dinf, it


def solve(model: SdpModel, options: SolveOptions | None = None) -> SolveResult:
    """Solve a model; complex models are realified transparently."""
    opts = options or SolveOptions()
    work, var_map = realify(model)
    b, _, held, offsets = canonical(work)
    blocks, plan = _Blocks(held), _plan(offsets, len(b), held)

    attempts = []
    best = None
    for tau_mul, frac in _LADDER:
        out = _solve_canonical(b, blocks, plan, opts, tau_mul, frac)
        attempts.append(Attempt(tau_mul, frac, out[0], out[-1]))
        # an optimal attempt wins over any earlier one, whatever its gap
        if out[0] != "diverged" and (best is None or out[0] == "optimal" or out[2] < best[2]):
            best = out
        if out[0] == "optimal":
            break
    if best is None:
        return SolveResult(
            status="diverged", objective=None,
            var_values=WitnessAssignment(), y=np.zeros(len(b)),
            iterations=0, duality_gap=np.inf, primal_infeas=np.inf,
            dual_infeas=np.inf, attempts=attempts,
        )
    status, y, gap, pinf, dinf, iters = best

    # each variable's value: sum_k y_k E_k over the basis matrices that its
    # realified variable keeps, all of them when embedded by phi, else its
    # own basis, the real matrices of the variable's
    values = WitnessAssignment()
    for v in model.vars:
        nv = var_map[v]
        val = np.zeros((v.dim, v.dim), dtype=complex)
        for yk, E in zip(y[offsets[nv]:], var_basis(v if nv.kind == "phi" else nv)):
            val = val + yk * E
        values[v] = val.real if model.realified else val

    objective = None
    if status == "optimal":
        objective = model.require_objective().functional.evaluate(values)
    return SolveResult(
        status=status, objective=objective, var_values=values, y=y,
        iterations=iters, duality_gap=gap, primal_infeas=pinf, dual_infeas=dinf,
        attempts=attempts,
    )
