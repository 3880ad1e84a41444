"""Symbolic block-LMI semidefinite programs.

A model is a list of Hermitian matrix variables, block LMI constraints
whose entries are affine expressions in those variables, scalar linear
constraints (linear functionals, normalized to ``f(x) >= 0``), and an
optional linear objective.  Each LMI and each functional is held in one
sparse form, its `Slices` (a functional's are 1x1): a built one compiles
them from its terms once, on first use, and ``import_sdpa`` and
``realify`` make them directly.  Every producer makes them through
`Slices.gather`, the one place that sorts, sums and drops the keyed
entries.  Feasibility of an explicit assignment
is checked on that form, the one the solver and SDPA export read;
``realify`` maps the slices of a complex model onto those of an
equivalent real symmetric one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

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


def _herm_basis(d: int) -> np.ndarray:
    """E_ii for each i, then E_ij + E_ji and i(E_ij - E_ji) for each i < j."""
    basis = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1
        basis.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = E[j, i] = 1
            F = np.zeros((d, d), dtype=complex)
            F[i, j], F[j, i] = 1j, -1j
            basis += [E, F]
    return np.array(basis)


_BASIS_CACHE: dict = {}


def var_basis(var: VarId) -> np.ndarray:
    """Coordinate basis matrices of a variable as one (k, dim, dim) stack
    (cached per dim/kind): a real variable's are the real ones of the
    Hermitian basis, and a phi variable's their images under phi."""
    key = (var.dim, var.kind)
    if key not in _BASIS_CACHE:
        if var.kind not in ("complex", "real", "phi"):
            raise TraceliftError(f"unknown variable kind {var.kind!r}")
        if var.kind == "phi" and var.dim % 2:
            raise DimensionMismatch("phi variables have even dimension")
        herm = _herm_basis(var.dim // 2 if var.kind == "phi" else var.dim)
        _BASIS_CACHE[key] = {"complex": herm, "real": herm[~herm.imag.any(axis=(1, 2))],
                             "phi": phi(herm)}[var.kind]
    return _BASIS_CACHE[key]


def var_coords(var: VarId, value: np.ndarray) -> np.ndarray:
    """Real coordinates of ``value`` in the variable's basis."""
    basis = var_basis(var)
    norms = (np.abs(basis) ** 2).sum(axis=(1, 2))  # tr(E E) of Hermitian E
    return np.tensordot(basis.conj(), value, axes=([1, 2], [0, 1])).real / norms


def as_matrix(value, dim: int) -> np.ndarray:
    """Coerce a scalar or array witness value to a dim x dim array."""
    if np.isscalar(value):
        return np.array([[value]], dtype=complex) * np.eye(dim)
    M = np.asarray(value, dtype=complex)
    if M.shape != (dim, dim):
        raise DimensionMismatch(f"value has shape {M.shape}, expected {(dim, dim)}")
    return M


def _coords(vars, assignment) -> np.ndarray:
    """The real coordinates of ``vars`` at ``assignment``, taken in turn."""
    return np.concatenate([np.zeros(0)] + [
        var_coords(u, as_matrix(assignment[u], u.dim)) for u in vars])


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


class Slices(NamedTuple):
    """An LMI G0 + sum_s x_s A_s >= 0, or a functional G0 + sum_s x_s A_s
    with 1x1 G0 and A_s, held sparse.

    ``vars`` are its variables in coordinate order, and slice s belongs to
    coordinate s of their bases taken in turn.  The nonzeros (A_s)_p = v,
    with p a flat row-major position in G0, are the columns ``s``, ``p``
    and ``v``, sorted by s and then by p.
    """

    G0: np.ndarray
    vars: tuple
    s: np.ndarray
    p: np.ndarray
    v: np.ndarray

    @classmethod
    def gather(cls, G0, vars, keys, vals) -> "Slices":
        """The slices of entries ``vals`` keyed s * n * n + p, n = len(G0):
        sorted by key, the entries of one key summed in the order given,
        starting from zero (a complex entry's real and imaginary parts
        apart), and the zero sums dropped."""
        order = np.argsort(keys, kind="stable")  # keeps the order given within a key
        keys, vals = keys[order], vals[order]
        new = np.ones(len(keys), dtype=bool)  # the first entry of each key
        new[1:] = keys[1:] != keys[:-1]
        at, keys = np.cumsum(new) - 1, keys[new]
        v = np.empty(len(keys), dtype=vals.dtype)
        v.real = np.bincount(at, vals.real, len(keys))  # adds in the order given
        if np.iscomplexobj(v):
            v.imag = np.bincount(at, vals.imag, len(keys))
        nz = v != 0
        s, p = np.divmod(keys[nz], len(G0) ** 2)
        return cls(G0, tuple(vars), s, p, v[nz])


class LmiConstraint:
    """A PSD constraint on the real coordinates of its variables, held as
    its `Slices`.

    A built LMI is a 1x1 or 2x2 grid of affine blocks of one dimension.
    It compiles its slices from the grid on first use and keeps them, so
    that models built only to count their LMIs compile nothing.  An
    imported or realified LMI is made from its slices; it has no grid and
    counts as a single block.
    """

    def __init__(self, grid=None, label: str = "", slices: Slices | None = None):
        self.label = label
        self.grid, self._slices = None, slices
        if grid is None:
            self.rows, self.dim = 1, len(slices.G0)
            return
        self.grid = tuple(tuple(row) for row in grid)
        self.rows = len(self.grid)
        if self.rows not in (1, 2) or any(len(r) != self.rows for r in self.grid):
            raise DimensionMismatch("grid must be 1x1 or 2x2")
        self.dim = self.grid[0][0].dim
        for row in self.grid:
            for blk in row:
                if blk.dim != self.dim:
                    raise DimensionMismatch("grid blocks must share one dimension")

    @property
    def size(self) -> int:
        return self.rows * self.dim

    def vars(self) -> set:
        return set().union(*(blk.vars() for row in self.grid for blk in row))

    def assemble(self, assignment) -> np.ndarray:
        """The LMI's matrix at ``assignment``, from its slices."""
        G0, vars, s, p, v = self.slices()
        out = G0.astype(complex)
        np.add.at(out.reshape(-1), p, _coords(vars, assignment)[s] * v)
        return out

    def slices(self) -> Slices:
        """The held slices; a built LMI compiles them on the first call."""
        if self._slices is None:
            self._slices = self._compile()
        return self._slices

    def _compile(self) -> Slices:
        """Slices of the grid: each grid slot sums its constants into G0 and
        its terms' images of their variables' basis matrices into the
        slices, in term order and starting from zero."""
        vars = sorted(self.vars(), key=lambda v: v.index)  # the model's coordinate order
        first = dict(zip(vars, accumulate([len(var_basis(v)) for v in vars], initial=0)))
        d, n = self.dim, self.size
        G0 = np.zeros((n, n), dtype=complex)
        # entry (i, j) of image matrix q goes to slice s, position p, that is
        # key s * n * n + p = start[q] + i * n + j
        images, start = [np.zeros((0, d, d), dtype=complex)], []
        for r, row in enumerate(self.grid):
            for c, blk in enumerate(row):
                for t in blk.terms:
                    if t.var is None:
                        G0[r * d:(r + 1) * d, c * d:(c + 1) * d] += t.matrix
                        continue
                    images.append(t.images())
                    key0 = (first[t.var] * n + r * d) * n + c * d
                    start += range(key0, key0 + len(images[-1]) * n * n, n * n)
        images = np.concatenate(images)
        q, i, j = np.nonzero(images)  # in term order
        return Slices.gather(G0, vars, np.array(start, dtype=int)[q] + i * n + j, images[q, i, j])


class LinearFunctional:
    """constant + sum_v Re tr(M_v X_v), held as 1x1 `Slices` that a built
    functional compiles from its ``(var, M)`` terms on first use, and a
    realified one is made from; ``label`` names it where it is a scalar
    constraint."""

    def __init__(self, constant: float = 0.0, terms=(), label: str = "", slices: Slices | None = None):
        self.constant = float(constant)
        self.terms = tuple((v, np.asarray(M, dtype=complex)) for v, M in terms)
        self.label = label
        self._slices = slices

    def slices(self) -> Slices:
        """The held slices: coordinate k of variable v has the coefficient
        Re tr(M E_k), summed over v's terms in term order from zero."""
        if self._slices is None:
            vars = sorted({v for v, _ in self.terms}, key=lambda v: v.index)
            first = dict(zip(vars, accumulate([len(var_basis(v)) for v in vars], initial=0)))
            keys = [np.zeros(0, dtype=int)] + [first[v] + np.arange(len(var_basis(v))) for v, _ in self.terms]
            vals = [np.zeros(0)] + [np.trace(M @ var_basis(v), axis1=1, axis2=2).real for v, M in self.terms]
            self._slices = Slices.gather(np.array([[self.constant]]), vars, np.concatenate(keys),
                                         np.concatenate(vals))
        return self._slices

    def evaluate(self, assignment) -> float:
        _, vars, s, _, v = self.slices()
        return self.constant + (v * _coords(vars, assignment)[s]).sum()


@dataclass
class Objective:
    sense: str  # "maximize" | "minimize"
    functional: LinearFunctional


class WitnessAssignment(dict):
    """Map from VarId to Hermitian values certifying feasibility."""


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
        realified: bool = False,
    ):
        self.vars = tuple(vars)
        self.lmis = tuple(lmis)
        self.scalars = tuple(scalars)
        self.objective = objective
        self.realified = realified
        idx = [v.index for v in self.vars]
        if len(set(idx)) != len(idx):
            raise TraceliftError("variable indices must be unique")

    def coord_offsets(self):
        """First real coordinate of each variable, and the coordinate count."""
        n = [len(var_basis(v)) for v in self.vars]
        return dict(zip(self.vars, accumulate(n, initial=0))), sum(n)

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
        self._counters = {}
        self.recipes = []  # (VarId, recipe) in dependency order

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

    def add_scalar(self, functional: LinearFunctional):
        """The constraint ``functional`` >= 0."""
        self._scalars.append(functional)

    def set_objective(self, sense: str, functional: LinearFunctional):
        self._objective = Objective(sense, functional)

    def add_recipe(self, var: VarId, recipe):
        """``recipe(assignment)`` gives var's witness value from earlier ones."""
        self.recipes.append((var, recipe))

    def freeze(self) -> SdpModel:
        return SdpModel(self._vars, self._lmis, self._scalars, self._objective)


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

    Each LMI and scalar constraint is evaluated from its held slices, the
    form that the solver and SDPA export read.  LMIs pass when the min
    eigenvalue is >= -tol * (1 + max |entry|); scalar constraints when the
    slack is >= -tol * (1 + |constant| + sum_v |Re tr(M_v X_v)|).
    """
    for v in model.vars:
        if v not in witness:
            raise MissingAssignment(f"no value for variable {v.name}")
    checks = []
    for i, lmi in enumerate(model.lmis):
        M = lmi.assemble(witness)
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
        _, vars, s, _, v = sc.slices()
        var_of = np.repeat(np.arange(len(vars)), [len(var_basis(u)) for u in vars])
        per_var = np.bincount(var_of[s], v * _coords(vars, witness)[s], len(vars))
        slack = sc.constant + per_var.sum()
        thr = tol * (1 + abs(sc.constant) + np.abs(per_var).sum())
        checks.append(
            ConstraintCheck(
                sc.label or f"scalar{i}", "scalar", slack, thr, slack >= -thr
            )
        )
    return FeasibilityReport(all(c.ok for c in checks), checks)


# ---------------------------------------------------------------------------
# realification


def _real_basis(var: VarId) -> np.ndarray:
    """Which basis matrices of ``var`` are real; the others are imaginary."""
    return ~var_basis(var).imag.any(axis=(1, 2))


def _held(model: SdpModel) -> list:
    """The LMIs, scalar constraints and objective functional of ``model``."""
    objective = () if model.objective is None else (model.objective.functional,)
    return [*model.lmis, *model.scalars, *objective]


def model_is_real(model: SdpModel) -> bool:
    """True when the coordinates with an imaginary basis matrix can be
    dropped: every G0 is real, and every slice of an LMI or a functional
    is real where its basis matrix is real and purely imaginary (for a
    functional's real coefficient, zero) where it is imaginary.  The LMIs'
    matrices then have real parts that do not depend on those
    coordinates, and a Hermitian matrix is PSD only if its real part is."""
    real_basis = {v: _real_basis(v) for v in model.vars}
    for held in _held(model):
        G0, vars, s, p, v = held.slices()
        real = np.concatenate([np.zeros(0, dtype=bool)] + [real_basis[u] for u in vars])
        if np.imag(G0).any() or np.where(real[s], np.imag(v), np.real(v)).any():
            return False
    return True


def _realify_slices(sl: Slices, var_map, embed: bool, d: int | None = None) -> Slices:
    """The slices of a realified LMI, with grid slots of dimension ``d``, or
    of a realified functional (``d`` None).  Embedded, each d x d grid slot
    of an LMI's G0 and of every slice maps to its 2d x 2d image under phi,
    and a functional keeps its coefficients: Re tr(M E) is the coefficient
    of the coordinate that phi(E) spans.  Otherwise only the coordinates
    with a real basis matrix remain, with the real parts of their slices."""
    G0, vars, s, p, v = sl
    new_vars = tuple(var_map[u] for u in vars)
    if not embed:
        # the slices of imaginary basis matrices are imaginary (model_is_real)
        real = np.concatenate([np.zeros(0, dtype=bool)] + [_real_basis(u) for u in vars])
        keep = real[s]
        return Slices.gather(G0.real.copy(), new_vars, ((np.cumsum(real) - 1)[s] * len(G0) ** 2 + p)[keep],
                             v.real[keep])
    if d is None:
        return sl._replace(vars=new_vars)
    size = len(G0)
    rows, n = size // d, 2 * size
    G0 = phi(G0.reshape(rows, d, rows, d).swapaxes(1, 2)).swapaxes(1, 2).reshape(n, n)
    # entry (R, C), in slot (R // d, C // d), lands at (R + R // d * d, C + C // d * d)
    # of the doubled grid; its image under phi adds d to the row, the column or both
    R, C = np.divmod(p, size)
    first = (s * n + R + R // d * d) * n + C + C // d * d
    keys = np.concatenate([first, first + d, first + d * n, first + d * n + d])
    return Slices.gather(G0, new_vars, keys, np.concatenate([v.real, -v.imag, v.imag, v.real]))


def realify(model: SdpModel):
    """Return an equivalent real model and the variable correspondence.

    For a real model (see `model_is_real`) dimensions stay and variables
    are re-tagged real symmetric, keeping only the coordinates with a real
    basis matrix.  Otherwise every complex Hermitian object of dimension d
    is embedded as the real symmetric 2d x 2d matrix [[Re, -Im], [Im, Re]],
    one grid slot at a time, and a functional keeps its coefficients, so
    optimal values are unchanged.  Variables of dimension 1 or of kind
    ``real`` stay real symmetric of their own dimension.  LMIs and
    functionals are mapped from their slices; no term is formed.

    Returns ``(realified_model, var_map)`` with ``var_map`` mapping each
    original variable to its realified counterpart.
    """
    if model.realified:
        return model, {v: v for v in model.vars}

    embed = not model_is_real(model)
    var_map = {}
    for v in model.vars:
        if embed and v.dim > 1 and v.kind != "real":
            var_map[v] = VarId(v.index, 2 * v.dim, v.name, "phi")
        else:
            var_map[v] = VarId(v.index, v.dim, v.name, "real")

    lmis = [LmiConstraint(label=lmi.label, slices=_realify_slices(lmi.slices(), var_map, embed, lmi.dim))
            for lmi in model.lmis]

    def map_functional(f: LinearFunctional) -> LinearFunctional:
        return LinearFunctional(f.constant, label=f.label, slices=_realify_slices(f.slices(), var_map, embed))

    scalars = [map_functional(sc) for sc in model.scalars]
    objective = None
    if model.objective is not None:
        objective = Objective(
            model.objective.sense, map_functional(model.objective.functional)
        )
    out = SdpModel([var_map[v] for v in model.vars], lmis, scalars, objective, realified=True)
    return out, var_map


def embed_witness(var_map, witness) -> WitnessAssignment:
    """Carry a witness of the original model to the realified one."""
    out = WitnessAssignment()
    for v, nv in var_map.items():
        X = as_matrix(witness[v], v.dim)
        out[nv] = phi(X) if nv.kind == "phi" else X.real.astype(float)
    return out


# ---------------------------------------------------------------------------
# the canonical form


def canonical(model: SdpModel):
    """The one form of a realified model that the solver and `export_sdpa`
    read: ``(b, constant, blocks, offsets)`` for

        maximize  b'y + constant   s.t.   G0 + sum_k y_k A_k >= 0

    on every block, a minimising model's objective negated.  ``blocks``
    holds (G0, idx, s, p, v) per block: each LMI's `Slices` in model order,
    with ``idx`` the model coordinate of each slice, then the 1x1 slices of
    each scalar constraint.  ``offsets`` maps each variable to its first
    coordinate.  A model with no LMI and no scalar constraint raises."""
    obj = model.require_objective()
    if not model.lmis and not model.scalars:
        raise TraceliftError("the model has no constraint")
    offsets, m = model.coord_offsets()
    # each variable's coordinate count and first coordinate, by VarId.index
    at = np.array([v.index for v in model.vars], dtype=int)
    count, start = np.zeros((2, at.max(initial=-1) + 1), dtype=int)
    start[at] = first = list(offsets.values())
    count[at] = np.diff(first + [m])
    sign = -1.0 if obj.sense == "minimize" else 1.0
    blocks = []
    for held in _held(model):
        G0, vars, s, p, v = held.slices()
        # the first coordinate of u, plus k, for each coordinate k of each u in turn
        at = np.array([u.index for u in vars], dtype=int)
        n = count[at]
        idx = np.repeat(start[at] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        blocks.append((G0, idx, s, p, v))
    G0, idx, s, _, v = blocks.pop()  # the objective
    b = np.zeros(m)
    b[idx[s]] = v
    return sign * b, sign * float(G0[0, 0]), blocks, offsets
