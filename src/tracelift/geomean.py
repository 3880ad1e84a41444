"""Block-LMI compilation of the weighted matrix geometric mean.

For rational t = p/q the hypograph { (A,B,T) : A #_t B >= T } (t in
[0,1]) and epigraph { A #_t B <= T } (t in [-1,0) u (1,2]) are compiled
into small systems of 2n x 2n and n x n LMIs.  The recursion:

- base case t = 1/2: the Schur-complement LMI [[A, T], [T, B]] >= 0;
- dyadic t = p/2^l (p odd): a chain of l LMIs indexed by the binary
  expansion of p;
- t = 2^l/q in [1/2, 1]: reduce to the dyadic exponent (2^{l+1}-q)/2^l
  on the pair (A, W), plus [[Z, W], [W, B]] and W >= T;
- general t in (0, 1/2): split t = (p/2^l) * (2^l/q) with
  l = floor(log2 q) and chain the two constructions through U <= W;
- general t in (1/2, 1): swap the pair and use 1 - t;
- epigraphs: t in [-1, 0) uses the hypograph at -t plus one extra
  Schur-complement LMI; t in (1, 2] swaps the pair onto 1 - t.  The
  endpoints t = 0 and 1 are compiled as hypographs.

Only the target is named T; each auxiliary variable is named for its role
(W a power-of-two bound, Z a dyadic point, U the split's point, S an
epigraph's point) and carries a witness recipe, a function of the
assignment that returns its value along the geodesic between the
construction's slot values (`on_geodesic`), so proof-derived witnesses
come out of the same recursion that emits the LMIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import DimensionMismatch, WrongExponent
from .kernel import (
    RationalExponent,
    binary_expansion,
    floor_log2,
    geometric_mean,
    hermitize,
    is_power_of_two,
)
from .model import (
    AffineBlock,
    LinearFunctional,
    ModelBuilder,
    SdpModel,
    VarId,
    WitnessAssignment,
)


# ---------------------------------------------------------------------------
# construction result


@dataclass
class Construction:
    """A compiled model together with its witness recipes."""

    model: SdpModel
    target: VarId
    recipes: list  # (VarId, recipe) pairs, as ModelBuilder.add_recipe takes them
    report_divisor: float = 1.0  # objective is divided by this on report

    @classmethod
    def of(cls, b: ModelBuilder, target: VarId, **kw) -> "Construction":
        """The builder's frozen model and its recipes."""
        return cls(model=b.freeze(), target=target, recipes=list(b.recipes), **kw)

    def make_witness(self) -> WitnessAssignment:
        """Resolve the recorded recipes, in order, into an explicit
        assignment: the proof's witness."""
        asgn = WitnessAssignment()
        for var, recipe in self.recipes:
            asgn[var] = recipe(asgn)
        return asgn


# ---------------------------------------------------------------------------
# recursive emitters; slots are AffineBlocks (constants or variables)


def on_geodesic(t: Fraction, A: AffineBlock, B: AffineBlock):
    """The witness recipe of a variable on the geodesic A #_t B: the
    geometric mean of the slots' values in the assignment."""
    return lambda asgn: geometric_mean(
        hermitize(A.evaluate(asgn)), hermitize(B.evaluate(asgn)), float(t))


def _fresh_target(b: ModelBuilder, letter: str, dim: int, t: Fraction, A, B) -> AffineBlock:
    var = b.fresh_var(letter, dim)
    b.add_recipe(var, on_geodesic(t, A, B))
    return AffineBlock.of_var(var)


def _geodesic(b: ModelBuilder, T: VarId, t: Fraction, A: AffineBlock, B: AffineBlock):
    """Put the caller's variable T on the geodesic A #_t B: its witness
    recipe, then the LMIs of `emit` that bound it."""
    b.add_recipe(T, on_geodesic(t, A, B))
    emit(b, A, B, AffineBlock.of_var(T), t)


def emit(b: ModelBuilder, A: AffineBlock, B: AffineBlock, T: AffineBlock, t: Fraction):
    """Emit LMIs forcing (A, B, T) into the hypograph of the geodesic for t
    in [0, 1], else into its epigraph.  A t that is not rational raises
    WrongExponent."""
    if not isinstance(t, Rational):
        raise WrongExponent(f"exponent must be rational, got {t!r}")
    (_emit_hyp if 0 <= t <= 1 else _emit_epi)(b, A, B, T, t)


def _emit_hyp(b: ModelBuilder, A: AffineBlock, B: AffineBlock, T: AffineBlock, t: Fraction):
    """Emit LMIs forcing (A, B, T) into hyp_t."""
    if not 0 <= t <= 1:
        raise WrongExponent(f"hypograph requires t in [0,1], got {t}")
    if t == 0 or t == 1:
        b.add_lmi([[(A if t == 0 else B) - T]], label=f"hyp endpoint t={t}")
        return
    p, q = t.numerator, t.denominator
    if is_power_of_two(q):
        _emit_dyadic(b, A, B, T, t)
    elif t >= Fraction(1, 2) and is_power_of_two(p):
        b.add_lmi([[_pow2_bound(b, A, B, t) - T]], label=f"pow2 cap {t}")
    elif t < Fraction(1, 2):
        ell = floor_log2(q)
        s_in = Fraction(2**ell, q)
        W = _pow2_bound(b, A, B, s_in)
        U = _fresh_target(b, "U", A.dim, s_in, A, B)
        b.add_lmi([[W - U]], label=f"pow2 cap {s_in}")
        _emit_hyp(b, A, U, T, Fraction(p, 2**ell))
    else:
        _emit_hyp(b, B, A, T, 1 - t)


def _emit_dyadic(b: ModelBuilder, A: AffineBlock, B: AffineBlock, T: AffineBlock, t: Fraction):
    p, q = t.numerator, t.denominator
    ell = floor_log2(q)
    bits = binary_expansion(p, ell)
    chain = []
    for i in range(1, ell):
        ti = Fraction(p % (1 << i), 1 << i)
        chain.append(_fresh_target(b, "Z", A.dim, ti, A, B))
    chain.append(T)
    b.add_lmi2(A, chain[0], B, label=f"dyadic base {t}")
    for i in range(2, ell + 1):
        corner = B if bits[i - 1] else A
        b.add_lmi2(corner, chain[i - 1], chain[i - 2], label=f"dyadic step {i} of {t}")


def _pow2_bound(b: ModelBuilder, A: AffineBlock, B: AffineBlock, t: Fraction) -> AffineBlock:
    """A fresh W in hyp_t of (A, B), t = 2^l/q in (1/2, 1): its recipe and
    its LMIs, the dyadic hypograph of (A, W) at (2^{l+1}-q)/2^l plus
    [[Z, W], [W, B]] >= 0; returns W, which the caller caps."""
    n = A.dim
    p, q = t.numerator, t.denominator
    ell = floor_log2(p)
    s = Fraction(2 ** (ell + 1) - q, 2**ell)
    W = _fresh_target(b, "W", n, t, A, B)
    Z = _fresh_target(b, "Z", n, s, A, W)
    _emit_dyadic(b, A, W, Z, s)
    b.add_lmi2(Z, W, B, label=f"pow2 glue {t}")
    return W


def _emit_epi(b: ModelBuilder, A: AffineBlock, B: AffineBlock, T: AffineBlock, t: Fraction):
    """Emit LMIs forcing (A, B, T) into epi_t for t in [-1,0) u (1,2].
    `emit` compiles the endpoints t = 0 and 1 as hypographs."""
    if not (-1 <= t < 0 or 1 < t <= 2):
        raise WrongExponent(f"epigraph requires t in [-1,0) u (1,2], got {t}")
    if t < 0:
        S = _fresh_target(b, "S", A.dim, -t, A, B)
        _emit_hyp(b, A, B, S, -t)
        b.add_lmi([[T, A], [A.adjoint(), S]], label=f"epi flip {t}")
    else:
        _emit_epi(b, B, A, T, 1 - t)


# ---------------------------------------------------------------------------
# task-level API


@dataclass
class GeoMeanTask:
    """What to compile: exponent, dimension and slot roles.

    ``A``/``B`` are matrices (data) or None (free variables).
    """

    t: RationalExponent
    n: int
    A: np.ndarray | None = None
    B: np.ndarray | None = None


def build_geomean(task: GeoMeanTask) -> Construction:
    """The hypograph for t in [0, 1], maximizing tr T, or the epigraph for t
    otherwise, minimizing it."""
    b = ModelBuilder()

    def slot(role, name):
        if role is None:
            return AffineBlock.of_var(b.fresh_var(name, task.n))
        return AffineBlock.constant(hermitize(role))

    A, B = slot(task.A, "A"), slot(task.B, "B")
    if A.dim != B.dim:
        raise DimensionMismatch("A and B must have equal dimensions")
    t = task.t
    T = b.fresh_var("T", task.n)
    _geodesic(b, T, t, A, B)
    sense = "maximize" if 0 <= t <= 1 else "minimize"
    b.set_objective(sense, LinearFunctional(0.0, [(T, np.eye(task.n))]))
    return Construction.of(b, T)


# ---------------------------------------------------------------------------
# census auditing


@dataclass
class CensusReport:
    t: Fraction
    mode: str
    census: list  # (size, count)
    ok: bool


def census_text(census) -> str:
    """(size, count) pairs as "count x (size s), ..." in the order given."""
    return ", ".join(f"{c} x (size {s})" for s, c in census)


def lmi_census_audit(t: RationalExponent, n: int = 2) -> CensusReport:
    """Compare the construction's LMI census with the size theorem."""
    mode = "hyp" if 0 <= t <= 1 else "epi"
    census = build_geomean(GeoMeanTask(t, n, A=np.eye(n), B=np.eye(n))).model.lmi_census()
    ell = floor_log2(t.denominator)
    bound_big = 2 * ell + 1 + (1 if mode == "epi" else 0)
    big = sum(c for s, c in census if s == 2 * n)
    small = sum(c for s, c in census if s == n)
    other = sum(c for s, c in census if s not in (n, 2 * n))
    ok = big <= bound_big and small <= 1 and other == 0
    return CensusReport(t, mode, census, ok)
