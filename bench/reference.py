"""Independent references for the benchmark's output checks.

Nothing here imports tracelift: the closed forms, the census bound and
the SDPA reader are written from their definitions with plain numpy, so
a fault in the package cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import numpy as np


def _eig(M):
    return np.linalg.eigh((M + M.conj().T) / 2)


def _power(M, p):
    w, U = _eig(M)
    return (U * w**p) @ U.conj().T


def _trace_power(M, p):
    return float(np.sum(_eig(M)[0] ** p))


def geomean_trace(A, B, t):
    """tr A #_t B, through the Cholesky congruence A = L L*.

    A #_t B = L (L^-1 B L^-*)^t L* because the mean commutes with
    congruences, so tr A #_t B = tr[(L^-1 B L^-*)^t L* L].
    """
    L = np.linalg.cholesky(A)
    Li = np.linalg.inv(L)
    C = Li @ B @ Li.conj().T
    return float(np.trace(_power(C, t) @ (L.conj().T @ L)).real)


def lieb_trace(K, A, B, t):
    """tr[K* A^(1-t) K B^t]."""
    return float(np.trace(K.conj().T @ _power(A, 1 - t) @ K @ _power(B, t)).real)


def kron_power_trace(A, B, s, t):
    """tr[A^s (x) B^t] = tr A^s * tr B^t."""
    return _trace_power(A, s) * _trace_power(B, t)


def tsallis(A, t):
    """S_t(A) = (tr A^(1-t) - tr A) / t."""
    return (_trace_power(A, 1 - t) - float(np.trace(A).real)) / t


def tsallis_rel(A, B, t):
    """S_t(A||B) = (tr A - tr[A^(1-t) B^t]) / t."""
    cross = np.trace(_power(A, 1 - t) @ _power(B, t)).real
    return (float(np.trace(A).real) - float(cross)) / t


def upsilon(K, A, t):
    """tr[(K* A^t K)^(1/t)]."""
    return _trace_power(K.conj().T @ _power(A, t) @ K, 1 / t)


def fidelity(A, B):
    """tr[(A^1/2 B A^1/2)^1/2], the nuclear norm of A^1/2 B^1/2."""
    return float(np.sum(np.linalg.svd(_power(A, 0.5) @ _power(B, 0.5), compute_uv=False)))


def census_within_bound(census, q, n, epigraph):
    """The geometric-mean size theorem, recomputed from the denominator q.

    A hypograph needs at most 2 floor(log2 q) + 1 LMIs of size 2n plus at
    most one of size n; an epigraph with t < 0 adds one Schur-complement
    LMI of size 2n (t in [1, 2] reduces to it). ``census`` is a list of
    (size, count) pairs.
    """
    big = 2 * (q.bit_length() - 1) + 1 + (1 if epigraph else 0)
    counts = dict(census)
    other = sum(c for s, c in census if s not in (n, 2 * n))
    return counts.get(2 * n, 0) <= big and counts.get(n, 0) <= 1 and other == 0


# ---------------------------------------------------------------------------
# SDPA sparse format, read from its definition:
#   min c'x  s.t.  F(x) = sum_i x_i F_i - F_0 >= 0,
# entry lines "matno block i j value" for the upper triangle, negative
# block sizes for diagonal blocks.


def read_sdpa(path):
    """Return (c, sizes, entries) with entries an (N, 5) float array."""
    with open(path) as fh:
        rows = [ln for ln in fh.read().splitlines()
                if ln.strip() and ln.lstrip()[0] not in '*"']
    clean = [ln.translate(str.maketrans(",{}()", "     ")).split() for ln in rows[:4]]
    m, nblocks = int(clean[0][0]), int(clean[1][0])
    sizes = [int(s) for s in clean[2]]
    c = np.array([float(x) for x in clean[3]])
    if len(sizes) != nblocks or c.shape != (m,):
        raise ValueError(f"{path}: header does not match m={m}, nblocks={nblocks}")
    entries = np.array([ln.split() for ln in rows[4:]], dtype=float).reshape(-1, 5)
    return c, sizes, entries


def evaluate_sdpa(path, x, tol):
    """Evaluate an SDPA file at the point x.

    Returns (objective c'x, worst block margin) where the margin of a block
    is its least eigenvalue over tol * (1 + max |entry|); every block is
    PSD within tolerance exactly when the worst margin is >= -1.
    """
    c, sizes, ent = read_sdpa(path)
    x = np.asarray(x, dtype=float)
    if x.shape != c.shape:
        raise ValueError(f"point has {x.size} coordinates, file has {c.size}")
    mat = ent[:, 0].astype(int)
    coef = np.where(mat == 0, -1.0, x[np.maximum(mat, 1) - 1]) * ent[:, 4]
    worst = np.inf
    for b, size in enumerate(sizes, start=1):
        d = abs(size)
        sel = ent[:, 1] == b
        M = np.zeros((d, d))
        np.add.at(M, (ent[sel, 2].astype(int) - 1, ent[sel, 3].astype(int) - 1), coef[sel])
        M = M + M.T - np.diag(np.diag(M))
        low = np.diag(M).min() if size < 0 else np.linalg.eigvalsh(M)[0]
        worst = min(worst, low / (tol * (1 + np.abs(M).max())))
    return float(c @ x), float(worst)


def real_coordinates(kinds_dims, values):
    """SDPA coordinates of a point given per variable of a realified model.

    ``kinds_dims`` lists (kind, dim) of each realified variable in model
    order and ``values`` the matching Hermitian values of the original
    (unrealified) variables. A real variable's coordinates are its
    diagonal, then X_ij for i < j; an embedded complex one ("phi", twice
    the original dimension) has Re X_ii, then Re X_ij, Im X_ij for i < j.
    """
    out = []
    for (kind, dim), X in zip(kinds_dims, values):
        d = dim // 2 if kind == "phi" else dim
        X = np.asarray(X, dtype=complex).reshape(d, d)
        out.extend(X.diagonal().real)
        for i in range(d):
            for j in range(i + 1, d):
                out.append(X[i, j].real)
                if kind == "phi":
                    out.append(X[i, j].imag)
    return np.array(out)
