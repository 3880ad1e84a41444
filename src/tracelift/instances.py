"""Reproducible random instances, and the table of compiled functions.

Positive definite matrices are Q diag(exp(u)) Q* with u uniform in
[-2, 2] and Q Haar-random unitary (orthogonal in the real case), so
condition numbers stay below e^4 and solver tests remain well posed.

``FUNCTIONS`` maps each function name to its ``Function`` entry: the
data slots it draws, the parameters it needs, and its builder and
oracle; every construction's witness is ``con.make_witness()``.  The
command line and the hard-set sweep both iterate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geomean import GeoMeanTask, build_geomean
from .kernel import (
    fidelity_value,
    geometric_mean,
    herm_power,
    kron,
    lieb_value,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_value,
)
from .lieb import (
    _check_exponents,
    _check_weights,
    build_fidelity,
    build_kron_power,
    build_lieb,
    build_multivariate,
    build_tsallis_entropy,
    build_tsallis_rel_entropy,
    build_upsilon,
)


def haar_unitary(n: int, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Haar-distributed unitary (or orthogonal) matrix via QR."""
    Z = rng.normal(size=(n, n))
    if complex_:
        Z = Z + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_pd(n: int, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Random well-conditioned positive definite matrix."""
    Q = haar_unitary(n, rng, complex_)
    u = rng.uniform(-2.0, 2.0, size=n)
    M = (Q * np.exp(u)) @ Q.conj().T
    return (M + M.conj().T) / 2


def random_matrix(n: int, m: int, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Random dense n x m matrix with standard normal entries."""
    K = rng.normal(size=(n, m))
    if complex_:
        K = K + 1j * rng.normal(size=(n, m))
    return K


def random_density(n: int, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Random density matrix (PD, unit trace)."""
    M = random_pd(n, rng, complex_)
    return M / np.trace(M).real


def _kron_trace(mats, exps) -> float:
    """tr[A_1^{e_1} (x) ... (x) A_k^{e_k}]."""
    M = herm_power(mats[0], float(exps[0]))
    for A, e in zip(mats[1:], exps[1:]):
        M = kron(M, herm_power(A, float(e)))
    return np.trace(M).real


@dataclass(frozen=True)
class Function:
    """One compiled function: its data, parameters, builder and oracle.

    ``data`` maps each slot to its matrix (``mats`` to a list of them) and
    ``p`` each parameter to its value: ``t`` and ``s`` as RationalExponent,
    ``weights`` as a list of Fractions.  ``builder`` and ``closed_form``
    take the values named by ``args`` in that order.
    ``check(p, given)`` rejects parameters that do not fit each other or
    the matrices given.
    """

    slots: tuple  # data matrices, in draw order
    args: tuple  # slots and parameters, in call order
    builder: Callable
    closed_form: Callable
    check: Callable = lambda p, given: None

    @property
    def params(self) -> tuple:
        """The parameters this function needs, among t, s and weights."""
        return tuple(name for name in ("t", "s", "weights") if name in self.args)

    @property
    def hermitian(self) -> tuple:
        """The slots that hold Hermitian matrices: all but K."""
        return tuple(slot for slot in self.slots if slot != "K")

    def draw(self, p, n, rng, complex_=True, given=None) -> dict:
        """The data: the matrices in ``given``, and the other slots drawn in
        order from ``rng`` as n x n matrices; K is drawn rows(A) x rows(B),
        or rows(A) x n without B."""
        data = dict(given or {})
        for slot in self.slots:
            if slot in data:
                continue
            if slot == "mats":
                data[slot] = [random_pd(n, rng, complex_) for _ in p["weights"]]
            elif slot in self.hermitian:
                data[slot] = random_pd(n, rng, complex_)
            else:
                m = data["B"].shape[0] if "B" in data else n
                data[slot] = random_matrix(data["A"].shape[0], m, rng, complex_)
        return data

    def _values(self, data, p) -> list:
        return [data[name] if name in data else p[name] for name in self.args]

    def build(self, data, p):
        return self.builder(*self._values(data, p))

    def oracle(self, data, p) -> float:
        return self.closed_form(*self._values(data, p))


FUNCTIONS = {
    "geomean": Function(
        ("A", "B"), ("A", "B", "t"),
        lambda A, B, t: build_geomean(GeoMeanTask(t=t, n=A.shape[0], A=A, B=B)),
        lambda A, B, t: np.trace(geometric_mean(A, B, t)).real,
    ),
    "lieb": Function(("A", "B", "K"), ("K", "A", "B", "t"), build_lieb, lieb_value),
    "kron_power": Function(
        ("A", "B"), ("A", "B", "s", "t"), build_kron_power,
        lambda A, B, s, t: _kron_trace([A, B], [s, t]),
        check=lambda p, given: _check_exponents(p["s"], p["t"]),
    ),
    "multivariate": Function(
        ("mats",), ("mats", "weights"), build_multivariate, _kron_trace,
        check=lambda p, given: _check_weights(p["weights"], len(given.get("mats", p["weights"]))),
    ),
    "tsallis": Function(("A",), ("A", "t"), build_tsallis_entropy, tsallis_entropy),
    "tsallis_rel": Function(("A", "B"), ("A", "B", "t"), build_tsallis_rel_entropy, tsallis_rel_entropy),
    "upsilon": Function(("A", "K"), ("K", "A", "t"), build_upsilon, upsilon_value),
    "fidelity": Function(("A", "B"), ("A", "B"), build_fidelity, fidelity_value),
}
