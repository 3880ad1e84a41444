"""Dense Hermitian linear algebra and the numerical reference oracles.

Everything here works on plain complex numpy arrays.

All fractional powers go through an eigendecomposition; ``PD_TOL`` is
relative to the largest eigenvalue magnitude.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

PD_TOL = 1e-10
IMAG_TOL = 1e-9


def hermitize(M) -> np.ndarray:
    """Return the Hermitian part M/2 + M*/2 as a complex array: halving
    first keeps it finite for every finite M."""
    M = np.asarray(M, dtype=complex)
    return M / 2 + M.conj().T / 2


def real_trace(value: complex) -> float:
    """Discard the imaginary part of a trace that must be real."""
    if abs(value.imag) >= IMAG_TOL * (1 + abs(value.real)):
        raise DomainError(f"trace has non-negligible imaginary part {value.imag}")
    return float(value.real)


class RationalExponent(Fraction):
    """A reduced fraction p/q in [-1, 2] driving every construction; its
    arithmetic gives plain Fractions, which may leave that range."""

    def __new__(cls, p: int, q: int = 1):
        if q == 0:
            raise DomainError("zero denominator")
        self = super().__new__(cls, p, q)
        if not -1 <= self <= 2:
            raise DomainError(f"exponent {self} outside the representable range [-1, 2]")
        return self

    p = Fraction.numerator  # read-only aliases
    q = Fraction.denominator

    @classmethod
    def parse(cls, text: str) -> "RationalExponent":
        """Parse a 'p/q' or integer string; decimals are rejected."""
        parts = text.strip().split("/")
        try:
            if len(parts) <= 2:
                return cls(*map(int, parts))
        except ValueError:
            pass
        raise DomainError(f"cannot parse rational exponent {text!r} (use p/q)")


def _eigh_pd(A: np.ndarray):
    w, U = np.linalg.eigh(A)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] <= PD_TOL * scale:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (min eig {w[0]:.3e}, max {scale:.3e})"
        )
    return w, U


def herm_power(A, t: float) -> np.ndarray:
    """Fractional power A^t of a Hermitian positive definite matrix."""
    A = hermitize(A)
    w, U = _eigh_pd(A)
    return hermitize(U @ np.diag(w ** float(t)) @ U.conj().T)


def herm_log(A) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive definite matrix."""
    A = hermitize(A)
    w, U = _eigh_pd(A)
    return hermitize(U @ np.diag(np.log(w)) @ U.conj().T)


def geometric_mean(A, B, t: float) -> np.ndarray:
    """t-weighted geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}."""
    A = hermitize(A)
    B = hermitize(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    w, U = _eigh_pd(A)
    Ah = U @ np.diag(np.sqrt(w)) @ U.conj().T
    Aih = U @ np.diag(1 / np.sqrt(w)) @ U.conj().T
    mid = herm_power(Aih @ B @ Aih, t)
    return hermitize(Ah @ mid @ Ah)


def kron(P, Q) -> np.ndarray:
    """Kronecker product with [P (x) Q]_{(i,k)(j,l)} = P_ij Q_kl, as complex.

    Either side may be a matrix or a (k, d, d) stack; stacks pair up
    matrix by matrix.  Each entry is the one product numpy's kron forms,
    so the result is the same bit for bit, without that function's
    per-call overhead.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    Y = P[..., :, None, :, None] * Q[..., None, :, None, :]
    return Y.reshape(Y.shape[:-4] + (P.shape[-2] * Q.shape[-2], P.shape[-1] * Q.shape[-1]))


def vec_rows(K) -> np.ndarray:
    """Concatenate the rows of K into one column vector."""
    return np.asarray(K, dtype=complex).reshape(-1, 1)


def lieb_value(K, A, B, t: float) -> float:
    """tr[K* A^{1-t} K B^t] for PD A (n x n), PD B (m x m), K n x m."""
    K = np.asarray(K, dtype=complex)
    A = hermitize(A)
    B = hermitize(B)
    if K.shape != (A.shape[0], B.shape[0]):
        raise DimensionMismatch(
            f"K has shape {K.shape}, expected {(A.shape[0], B.shape[0])}"
        )
    Ap = herm_power(A, 1 - t)
    Bp = herm_power(B, t)
    return real_trace(np.trace(K.conj().T @ Ap @ K @ Bp))


def tsallis_entropy(A, t: float) -> float:
    """Tsallis entropy (1/t) tr[A^{1-t} - A] for t in (0, 1]."""
    if not 0 < t <= 1:
        raise DomainError(f"Tsallis parameter t={t} outside (0, 1]")
    A = hermitize(A)
    return real_trace(np.trace(herm_power(A, 1 - t) - A)) / t


def tsallis_rel_entropy(A, B, t: float) -> float:
    """Tsallis relative entropy (1/t) tr[A - A^{1-t} B^t] for t in (0, 1]."""
    if not 0 < t <= 1:
        raise DomainError(f"Tsallis parameter t={t} outside (0, 1]")
    A = hermitize(A)
    B = hermitize(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    n = A.shape[0]
    return (real_trace(np.trace(A)) - lieb_value(np.eye(n), A, B, t)) / t


def von_neumann_entropy(A) -> float:
    """-tr[A log A] via eigendecomposition."""
    return -real_trace(np.trace(hermitize(A) @ herm_log(A)))


def quantum_rel_entropy(A, B) -> float:
    """tr[A (log A - log B)] via eigendecomposition."""
    A = hermitize(A)
    return real_trace(np.trace(A @ (herm_log(A) - herm_log(B))))


def upsilon_value(K, A, t: float) -> float:
    """tr[(K* A^t K)^{1/t}] for PD A and t != 0.

    K* A^t K must be positive definite (K full column rank); a singular
    product raises NotPositiveDefinite rather than falling back to a
    pseudo-inverse.
    """
    if t == 0:
        raise DomainError("t = 0 is not in the domain")
    K = np.asarray(K, dtype=complex)
    A = hermitize(A)
    if K.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"K has {K.shape[0]} rows, A is {A.shape[0]} x {A.shape[0]}")
    M = hermitize(K.conj().T @ herm_power(A, t) @ K)
    return real_trace(np.trace(herm_power(M, 1 / t)))


def fidelity_value(A, B) -> float:
    """tr[(A^{1/2} B A^{1/2})^{1/2}] for PD A, B of equal dimension."""
    A = hermitize(A)
    B = hermitize(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    Ah = herm_power(A, 0.5)
    return real_trace(np.trace(herm_power(Ah @ B @ Ah, 0.5)))


def floor_log2(q: int) -> int:
    """Largest l with 2^l <= q."""
    if q < 1:
        raise DomainError(f"positive integer expected, got {q}")
    return q.bit_length() - 1


def is_power_of_two(q: int) -> bool:
    return q >= 1 and q & (q - 1) == 0


def binary_expansion(p: int, ell: int) -> list:
    """Bits m_1..m_ell of p/2^ell with m_1 the least significant bit.

    Requires p odd and p < 2^ell, so m_1 = 1 always holds.
    """
    if p <= 0 or p % 2 == 0 or p >= 2**ell:
        raise DomainError(f"need odd p with p < 2^ell, got p={p}, ell={ell}")
    return [(p >> (i - 1)) & 1 for i in range(1, ell + 1)]
