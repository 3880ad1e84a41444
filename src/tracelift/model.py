"""Symbolic block-LMI semidefinite programs.

A model is a list of Hermitian matrix variables, block LMI constraints
whose entries are affine expressions in those variables, scalar linear
constraints (normalized to ``f(x) >= 0``), and an optional linear
objective.  Feasibility of an explicit assignment can be checked
directly; ``realify`` turns a complex model into an equivalent real
symmetric one suitable for the solver and for SDPA export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingAssignment,
    NoObjective,
    TraceliftError,
)
from .kernel import hermitize, kron

# ---------------------------------------------------------------------------
# variables and coordinate bases


@dataclass(frozen=True)
class VarId:
    """A matrix decision variable.

    ``kind`` selects the real coordinate basis:

    - ``complex``: Hermitian, d^2 real coordinates,
    - ``real``: real symmetric, d(d+1)/2 coordinates,
    - ``phi``: realified image of a complex Hermitian variable of
      dimension d, living in 2d x 2d real symmetric matrices with d^2
      structured coordinates.
    """

    index: int
    dim: int
    name: str
    kind: str = "complex"

    def __hash__(self):
        return hash((self.index, self.name))


def phi(M) -> np.ndarray:
    """Real symmetric embedding [[Re M, -Im M], [Im M, Re M]] of M, or of
    each matrix of a stack M."""
    M = np.asarray(M, dtype=complex)
    R, I = M.real, M.imag
    return np.concatenate([np.concatenate([R, -I], -1), np.concatenate([I, R], -1)], -2)


def _herm_basis(d: int) -> list:
    basis = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1
        basis.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = E[j, i] = 1
            basis.append(E)
            F = np.zeros((d, d), dtype=complex)
            F[i, j] = 1j
            F[j, i] = -1j
            basis.append(F)
    return basis


def _sym_basis(d: int) -> list:
    basis = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1
        basis.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = E[j, i] = 1
            basis.append(E)
    return basis


_BASIS_CACHE: dict = {}


def var_basis(var: VarId) -> np.ndarray:
    """Coordinate basis matrices of a variable as one (k, dim, dim) stack
    (cached per dim/kind)."""
    key = (var.dim, var.kind)
    if key not in _BASIS_CACHE:
        if var.kind == "complex":
            _BASIS_CACHE[key] = np.array(_herm_basis(var.dim))
        elif var.kind == "real":
            _BASIS_CACHE[key] = np.array(_sym_basis(var.dim))
        elif var.kind == "phi":
            if var.dim % 2:
                raise DimensionMismatch("phi variables have even dimension")
            _BASIS_CACHE[key] = phi(_herm_basis(var.dim // 2))
        else:
            raise TraceliftError(f"unknown variable kind {var.kind!r}")
    return _BASIS_CACHE[key]


def var_coords(var: VarId, value: np.ndarray) -> np.ndarray:
    """Real coordinates of ``value`` in the variable's basis."""
    basis = var_basis(var)
    out = np.empty(len(basis))
    for k, E in enumerate(basis):
        norm = np.trace(E @ E).real
        out[k] = np.trace(E.conj().T @ value).real / norm
    return out


def as_matrix(value, dim: int) -> np.ndarray:
    """Coerce a scalar or array witness value to a dim x dim array."""
    if np.isscalar(value):
        return np.array([[value]], dtype=complex) * np.eye(dim)
    M = np.asarray(value, dtype=complex)
    if M.shape != (dim, dim):
        raise DimensionMismatch(f"value has shape {M.shape}, expected {(dim, dim)}")
    return M


# ---------------------------------------------------------------------------
# affine terms


class ConstTerm:
    """A constant matrix contribution."""

    var = None

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=complex)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, assignment) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "ConstTerm":
        return ConstTerm(self.matrix.conj().T)

    def scaled(self, c) -> "ConstTerm":
        return ConstTerm(c * self.matrix)


class VarTerm:
    """coeff * [kl (x)] f(X) [(x) kr] for a variable X.

    ``op`` is ``id`` or ``conj`` (entrywise conjugate); at most one of
    ``kl`` / ``kr`` may be given and is a constant Kronecker factor.
    """

    def __init__(self, var: VarId, coeff=1.0, op: str = "id", kl=None, kr=None):
        if kl is not None and kr is not None:
            raise TraceliftError("at most one Kronecker factor per term")
        if op not in ("id", "conj"):
            raise TraceliftError(f"unknown op {op!r}")
        self.var = var
        self.coeff = complex(coeff)
        self.op = op
        self.kl = None if kl is None else np.asarray(kl, dtype=complex)
        self.kr = None if kr is None else np.asarray(kr, dtype=complex)

    @property
    def dim(self) -> int:
        d = self.var.dim
        if self.kl is not None:
            d *= self.kl.shape[0]
        if self.kr is not None:
            d *= self.kr.shape[0]
        return d

    def _map(self, X: np.ndarray) -> np.ndarray:
        """The term's image of X, or of each matrix of a stack X."""
        Y = np.conj(X) if self.op == "conj" else X
        if self.kl is not None:
            Y = kron(self.kl, Y)
        elif self.kr is not None:
            Y = kron(Y, self.kr)
        return self.coeff * Y

    def evaluate(self, assignment) -> np.ndarray:
        return self._map(as_matrix(assignment[self.var], self.var.dim))

    def images(self) -> np.ndarray:
        """The images of the variable's basis matrices, as (k, dim, dim)."""
        return self._map(var_basis(self.var))

    def adjoint(self) -> "VarTerm":
        return VarTerm(
            self.var,
            np.conj(self.coeff),
            self.op,
            None if self.kl is None else self.kl.conj().T,
            None if self.kr is None else self.kr.conj().T,
        )

    def scaled(self, c) -> "VarTerm":
        return VarTerm(self.var, c * self.coeff, self.op, self.kl, self.kr)


class RealifiedTerm:
    """Realified image of a complex-model variable term."""

    def __init__(self, inner: VarTerm, var: VarId):
        self.inner = inner
        self.var = var

    @property
    def dim(self) -> int:
        return 2 * self.inner.dim

    def images(self) -> np.ndarray:
        """The images of the realified variable's basis matrices, as
        (k, dim, dim)."""
        return phi(self.inner.images())

    def evaluate(self, assignment) -> np.ndarray:
        Y = as_matrix(assignment[self.var], self.var.dim)
        c = var_coords(self.var, Y)
        out = np.zeros((self.dim, self.dim))
        for ck, E in zip(c, self.images()):
            if ck != 0.0:
                out += ck * E
        return out

    def adjoint(self) -> "RealifiedTerm":
        return RealifiedTerm(self.inner.adjoint(), self.var)

    def scaled(self, c) -> "RealifiedTerm":
        return RealifiedTerm(self.inner.scaled(c), self.var)


class AffineBlock:
    """A real-linear combination of constants and variable terms."""

    def __init__(self, dim: int, terms=()):
        self.dim = dim
        self.terms = tuple(terms)
        for t in self.terms:
            if t.dim != dim:
                raise DimensionMismatch(
                    f"term of dim {t.dim} in block of dim {dim}"
                )

    @classmethod
    def constant(cls, M) -> "AffineBlock":
        M = np.asarray(M, dtype=complex)
        return cls(M.shape[0], [ConstTerm(M)])

    @classmethod
    def of_var(cls, var: VarId, coeff=1.0, **kw) -> "AffineBlock":
        t = VarTerm(var, coeff, **kw)
        return cls(t.dim, [t])

    def evaluate(self, assignment) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.terms:
            out = out + t.evaluate(assignment)
        return out

    def adjoint(self) -> "AffineBlock":
        return AffineBlock(self.dim, [t.adjoint() for t in self.terms])

    def vars(self) -> set:
        return {t.var for t in self.terms if t.var is not None}

    def __add__(self, other: "AffineBlock") -> "AffineBlock":
        return AffineBlock(self.dim, self.terms + other.terms)

    def __sub__(self, other: "AffineBlock") -> "AffineBlock":
        return AffineBlock(
            self.dim, self.terms + tuple(t.scaled(-1.0) for t in other.terms)
        )


class LmiConstraint:
    """A 1x1 or 2x2 block grid constrained to be PSD as a block matrix."""

    def __init__(self, grid, label: str = ""):
        self.grid = tuple(tuple(row) for row in grid)
        self.rows = len(self.grid)
        if self.rows not in (1, 2) or any(len(r) != self.rows for r in self.grid):
            raise DimensionMismatch("grid must be 1x1 or 2x2")
        self.dim = self.grid[0][0].dim
        for row in self.grid:
            for blk in row:
                if blk.dim != self.dim:
                    raise DimensionMismatch("grid blocks must share one dimension")
        self.label = label

    @property
    def size(self) -> int:
        return self.rows * self.dim

    def vars(self) -> set:
        out = set()
        for row in self.grid:
            for blk in row:
                out |= blk.vars()
        return out

    def assemble(self, assignment) -> np.ndarray:
        return np.block(
            [[blk.evaluate(assignment) for blk in row] for row in self.grid]
        )

    def slices(self, offsets) -> tuple:
        """This LMI's constant part and coefficient slices.

        ``offsets`` maps each variable to its first real coordinate, as
        ``SdpModel.coord_offsets`` gives it.  Returns ``(G0, idx, A)``: the
        constant part, the coordinates of this LMI's variables in ascending
        order, and the stack with ``A[p]`` the coefficient matrix of
        coordinate ``idx[p]``.  Each variable term adds its ``images``, one
        per basis matrix of its variable, into its grid slot of the rows of
        that variable's coordinates with one ``+=``; each grid slot sums
        its terms in order, starting from zero.
        """
        pos, idx = {}, []
        for v in sorted(self.vars(), key=offsets.__getitem__):
            pos[v] = len(idx)
            idx.extend(range(offsets[v], offsets[v] + len(var_basis(v))))
        d = self.dim
        G0 = np.zeros((self.size, self.size), dtype=complex)
        A = np.zeros((len(idx), self.size, self.size), dtype=complex)
        for r, row in enumerate(self.grid):
            for c, blk in enumerate(row):
                slot = (slice(r * d, (r + 1) * d), slice(c * d, (c + 1) * d))
                for t in blk.terms:
                    if t.var is None:
                        G0[slot] += t.matrix
                        continue
                    p = pos[t.var]
                    A[(slice(p, p + len(var_basis(t.var))),) + slot] += t.images()
        return G0, np.array(idx, dtype=int), A


class SlicedLmi:
    """A PSD constraint G0 + sum_k x_k A[k] >= 0 held as its slices, over
    scalar variables ``vars`` given in coordinate order: the form
    ``import_sdpa`` reads a block into, so that ``slices`` forms nothing."""

    def __init__(self, G0, vars, A, label: str = ""):
        self.G0, self._vars, self.A, self.label = G0, tuple(vars), A, label

    @property
    def size(self) -> int:
        return len(self.G0)

    def vars(self) -> set:
        return set(self._vars)

    def assemble(self, assignment) -> np.ndarray:
        out = self.G0.astype(complex)
        for v, Ak in zip(self._vars, self.A):
            out += as_matrix(assignment[v], 1)[0, 0] * Ak
        return out

    def slices(self, offsets) -> tuple:
        """``(G0, idx, A)`` as ``LmiConstraint.slices`` gives them; the
        arrays held, not copies."""
        return self.G0, np.array([offsets[v] for v in self._vars], dtype=int), self.A


class LinearFunctional:
    """constant + sum_v Re tr(M_v X_v)."""

    def __init__(self, constant: float = 0.0, terms=()):
        self.constant = float(constant)
        self.terms = tuple((v, np.asarray(M, dtype=complex)) for v, M in terms)

    def evaluate(self, assignment) -> float:
        val = self.constant
        for v, M in self.terms:
            X = as_matrix(assignment[v], v.dim)
            val += np.trace(M @ X).real
        return val

    def coeffs(self, offsets, m: int) -> np.ndarray:
        """Coefficients of all ``m`` real coordinates, with ``offsets`` as for
        ``LmiConstraint.slices``."""
        out = np.zeros(m)
        for v, M in self.terms:
            for k, E in enumerate(var_basis(v)):
                out[offsets[v] + k] += np.trace(M @ E).real
        return out

    def vars(self) -> set:
        return {v for v, _ in self.terms}


class ScalarConstraint:
    """Scalar linear constraint, normalized internally to f(x) >= 0."""

    def __init__(self, functional: LinearFunctional, label: str = ""):
        self.functional = functional
        self.label = label

    def slack(self, assignment) -> float:
        return self.functional.evaluate(assignment)

    def vars(self) -> set:
        return self.functional.vars()


@dataclass
class Objective:
    sense: str  # "maximize" | "minimize"
    functional: LinearFunctional


class WitnessAssignment(dict):
    """Map from VarId to Hermitian values certifying feasibility."""

    def matrix(self, var: VarId) -> np.ndarray:
        return as_matrix(self[var], var.dim)


# ---------------------------------------------------------------------------
# the model


class SdpModel:
    """An immutable collection of variables, LMIs, scalars and objective."""

    def __init__(
        self,
        vars,
        lmis,
        scalars=(),
        objective=None,
        data=None,
        realified: bool = False,
    ):
        self.vars = tuple(vars)
        self.lmis = tuple(lmis)
        self.scalars = tuple(scalars)
        self.objective = objective
        self.data = dict(data or {})
        self.realified = realified
        idx = [v.index for v in self.vars]
        if len(set(idx)) != len(idx):
            raise TraceliftError("variable indices must be unique")

    def coord_offsets(self):
        """First real coordinate of each variable, and the coordinate count."""
        offsets, m = {}, 0
        for v in self.vars:
            offsets[v] = m
            m += len(var_basis(v))
        return offsets, m

    def lmi_census(self):
        """Sorted list of (size, count) pairs over all LMIs."""
        counts: dict = {}
        for lmi in self.lmis:
            counts[lmi.size] = counts.get(lmi.size, 0) + 1
        return sorted(counts.items())

    @property
    def scalar_count(self) -> int:
        return len(self.scalars)

    def require_objective(self) -> Objective:
        if self.objective is None:
            raise NoObjective("model has no objective")
        return self.objective


class ModelBuilder:
    """Mutable builder; ``freeze`` produces the immutable SdpModel."""

    def __init__(self):
        self._vars = []
        self._lmis = []
        self._scalars = []
        self._objective = None
        self._data = {}
        self._counters = {}
        self.recipes = []  # (VarId, kind, payload) in dependency order

    def fresh_var(self, letter: str, dim: int, kind: str = "complex") -> VarId:
        n = self._counters.get(letter, 0) + 1
        self._counters[letter] = n
        if letter == "Z" or n > 1:
            name = f"{letter}{n}"
        else:
            name = letter
        var = VarId(len(self._vars), dim, name, kind)
        self._vars.append(var)
        return var

    def add_lmi(self, grid, label: str = ""):
        self._lmis.append(LmiConstraint(grid, label))

    def add_lmi2(self, p: AffineBlock, z: AffineBlock, q: AffineBlock, label: str = ""):
        """[[p, z], [z*, q]] >= 0."""
        self.add_lmi([[p, z], [z.adjoint(), q]], label)

    def add_scalar(self, functional: LinearFunctional, label: str = ""):
        self._scalars.append(ScalarConstraint(functional, label))

    def set_objective(self, sense: str, functional: LinearFunctional):
        self._objective = Objective(sense, functional)

    def add_data(self, name: str, M):
        self._data[name] = np.asarray(M, dtype=complex)

    def add_recipe(self, var: VarId, kind: str, payload):
        self.recipes.append((var, kind, payload))

    def freeze(self) -> SdpModel:
        return SdpModel(
            self._vars,
            self._lmis,
            self._scalars,
            self._objective,
            self._data,
            realified=False,
        )


# ---------------------------------------------------------------------------
# feasibility checking


@dataclass
class ConstraintCheck:
    label: str
    kind: str  # "lmi" | "scalar"
    value: float  # min eigenvalue or slack
    threshold: float
    ok: bool


@dataclass
class FeasibilityReport:
    ok: bool
    checks: list = field(default_factory=list)


def check_feasible(model: SdpModel, witness, tol: float = 1e-9) -> FeasibilityReport:
    """Evaluate every constraint of ``model`` at ``witness``.

    LMIs pass when the min eigenvalue is >= -tol * (1 + max |entry|);
    scalar constraints when the slack meets the analogous bound.
    """
    assignment = WitnessAssignment(witness)
    for v in model.vars:
        if v not in assignment:
            raise MissingAssignment(f"no value for variable {v.name}")
        assignment[v] = as_matrix(assignment[v], v.dim)
    checks = []
    for i, lmi in enumerate(model.lmis):
        M = lmi.assemble(assignment)
        skew = np.abs(M - M.conj().T).max()
        scale = 1 + np.abs(M).max()
        if skew > tol * scale:
            raise TraceliftError(
                f"LMI {lmi.label or i} evaluates to a non-Hermitian matrix"
            )
        mineig = float(np.linalg.eigvalsh(hermitize(M))[0])
        thr = tol * scale
        checks.append(
            ConstraintCheck(lmi.label or f"lmi{i}", "lmi", mineig, thr, mineig >= -thr)
        )
    for i, sc in enumerate(model.scalars):
        slack = sc.slack(assignment)
        scale = 1 + abs(sc.functional.constant)
        for v, M in sc.functional.terms:
            scale += abs(np.trace(M @ assignment[v]).real)
        thr = tol * scale
        checks.append(
            ConstraintCheck(
                sc.label or f"scalar{i}", "scalar", slack, thr, slack >= -thr
            )
        )
    return FeasibilityReport(all(c.ok for c in checks), checks)


# ---------------------------------------------------------------------------
# realification


def _matrix_is_real(M, tol: float = 0.0) -> bool:
    return np.abs(np.asarray(M, dtype=complex).imag).max(initial=0.0) <= tol


def model_is_real(model: SdpModel) -> bool:
    """True when every constant, coefficient and functional is real."""

    def term_real(t) -> bool:
        if isinstance(t, ConstTerm):
            return _matrix_is_real(t.matrix)
        if isinstance(t, VarTerm):
            return (
                t.coeff.imag == 0
                and (t.kl is None or _matrix_is_real(t.kl))
                and (t.kr is None or _matrix_is_real(t.kr))
            )
        return False  # RealifiedTerm only occurs in realified models

    for lmi in model.lmis:
        if isinstance(lmi, SlicedLmi):
            if not (_matrix_is_real(lmi.G0) and _matrix_is_real(lmi.A)):
                return False
            continue
        for row in lmi.grid:
            for blk in row:
                if not all(term_real(t) for t in blk.terms):
                    return False
    funcs = [sc.functional for sc in model.scalars]
    if model.objective is not None:
        funcs.append(model.objective.functional)
    for f in funcs:
        if not all(_matrix_is_real(M) for _, M in f.terms):
            return False
    return all(_matrix_is_real(M) for M in model.data.values())


def realify(model: SdpModel, force_embed: bool = False):
    """Return an equivalent real model and the variable correspondence.

    For a purely real model the transformation keeps dimensions and just
    re-tags variables as real symmetric.  Otherwise every complex
    Hermitian object of dimension d is embedded as the real symmetric
    2d x 2d matrix [[Re, -Im], [Im, Re]]; trace functionals pick up a
    factor 1/2 so optimal values are unchanged.  Variables of dimension 1
    or of kind ``real`` stay real symmetric of their own dimension; their
    terms still map into the embedded blocks.

    Returns ``(realified_model, var_map)`` with ``var_map`` mapping each
    original variable to its realified counterpart.
    """
    if model.realified:
        return model, {v: v for v in model.vars}

    embed = force_embed or not model_is_real(model)
    var_map = {}
    for v in model.vars:
        if embed and v.dim > 1 and v.kind != "real":
            var_map[v] = VarId(v.index, 2 * v.dim, v.name, "phi")
        else:
            var_map[v] = VarId(v.index, v.dim, v.name, "real")

    def map_term(t):
        if isinstance(t, ConstTerm):
            if embed:
                return ConstTerm(phi(t.matrix))
            return ConstTerm(t.matrix.real.astype(complex))
        assert isinstance(t, VarTerm)
        nv = var_map[t.var]
        if not embed:
            return VarTerm(nv, t.coeff.real, t.op, t.kl, t.kr)
        if t.var.dim == 1:
            # scalar variable times a constant matrix: fold everything
            # into one real Kronecker factor
            eff = t._map(np.eye(1, dtype=complex))
            return VarTerm(nv, 1.0, "id", kl=phi(eff))
        return RealifiedTerm(t, nv)

    def map_block(blk: AffineBlock) -> AffineBlock:
        d = 2 * blk.dim if embed else blk.dim
        return AffineBlock(d, [map_term(t) for t in blk.terms])

    lmis = [
        LmiConstraint(
            [[map_block(blk) for blk in row] for row in lmi.grid], lmi.label
        )
        for lmi in model.lmis
    ]

    def map_functional(f: LinearFunctional) -> LinearFunctional:
        terms = []
        for v, M in f.terms:
            nv = var_map[v]
            if nv.kind == "real":
                terms.append((nv, M.real.astype(complex)))
            else:
                terms.append((nv, 0.5 * phi(M)))
        return LinearFunctional(f.constant, terms)

    scalars = [
        ScalarConstraint(map_functional(sc.functional), sc.label)
        for sc in model.scalars
    ]
    objective = None
    if model.objective is not None:
        objective = Objective(
            model.objective.sense, map_functional(model.objective.functional)
        )
    data = {
        name: (phi(M) if embed else M.real.astype(complex))
        for name, M in model.data.items()
    }
    out = SdpModel(
        [var_map[v] for v in model.vars],
        lmis,
        scalars,
        objective,
        data,
        realified=True,
    )
    return out, var_map


def embed_witness(var_map, witness) -> WitnessAssignment:
    """Carry a witness of the original model to the realified one."""
    out = WitnessAssignment()
    for v, nv in var_map.items():
        X = as_matrix(witness[v], v.dim)
        out[nv] = phi(X) if nv.kind == "phi" else X.real.astype(float)
    return out
