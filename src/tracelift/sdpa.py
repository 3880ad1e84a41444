"""SDPA sparse format (.dat-s) export and import.

A realified model

    maximize b'y   s.t.   G0_b + sum_k y_k G_bk >= 0,  scalars f_j(y) >= 0

maps onto the SDPA problem  min c'x, sum_i x_i F_i - F0 >= 0  via
c = -b, F_k = G_k, F0 = -G0.  Scalar constraints become one diagonal
block (negative size in the header, as SDPA prescribes).  Floats are
written with ``repr`` so that export -> import -> export is
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ComplexDataError, IoError, NotRealified, SdpaParseError
from .model import (
    AffineBlock,
    ConstTerm,
    LinearFunctional,
    LmiConstraint,
    Objective,
    ScalarConstraint,
    SdpModel,
    VarId,
    VarTerm,
)


def _real_or_raise(M, where: str) -> np.ndarray:
    if np.iscomplexobj(M) and M.imag.any():
        raise ComplexDataError(f"complex entries in {where}; realify the model first")
    return M.real


def _fmt(x: float) -> str:
    return repr(float(x))


def _entries(matnos, blk, vals, rows, cols):
    """(matno, blk, i, j, val) columns of the nonzeros of ``vals``, whose row
    p belongs to matrix ``matnos[p]`` and whose column q to entry
    (rows[q], cols[q]), in row-major order."""
    p, q = np.nonzero(vals)
    return matnos[p], np.full(len(p), blk), rows[q] + 1, cols[q] + 1, vals[p, q]


def export_sdpa(model: SdpModel, path) -> None:
    """Write a realified model in SDPA sparse format.

    The file carries no objective constant term, as SDPA has none: its
    objective is the model's minus ``objective.functional.constant``,
    negated for a maximising model.  For a tsallis entropy model the two
    differ by tr A / t.
    """
    if not model.realified:
        raise NotRealified("export requires a realified model")
    obj = model.require_objective()
    offsets, m = model.coord_offsets()

    flip = -1.0 if obj.sense == "minimize" else 1.0
    # SDPA minimizes c'x; our canonical form maximizes b'y
    c = -flip * obj.functional.coeffs(offsets, m) + 0.0

    sizes = [lmi.size for lmi in model.lmis]
    parts = []
    for bno, lmi in enumerate(model.lmis, start=1):
        G0, idx, A = lmi.slices(offsets)
        rows, cols = np.triu_indices(lmi.size)
        F0 = _real_or_raise(-G0, f"matrix 0, block {bno}")
        parts.append(_entries(np.zeros(1, dtype=int), bno, F0[None, rows, cols], rows, cols))
        A = _real_or_raise(A, f"block {bno}")
        parts.append(_entries(idx + 1, bno, A[:, rows, cols], rows, cols))
    if model.scalars:
        sizes.append(-len(model.scalars))
        bno, diag = len(sizes), np.arange(len(model.scalars))
        F0 = np.array([[-sc.functional.constant for sc in model.scalars]])
        parts.append(_entries(np.zeros(1, dtype=int), bno, F0, diag, diag))
        F = np.array([sc.functional.coeffs(offsets, m) for sc in model.scalars]).T
        parts.append(_entries(np.arange(1, m + 1), bno, F, diag, diag))
    # group by matrix number, keeping block order and row-major order within
    ents = [np.concatenate(col) for col in zip(*parts)] if parts else [np.zeros(0)] * 5
    order = np.argsort(ents[0], kind="stable")

    lines = [str(m), str(len(sizes)), " ".join(str(s) for s in sizes),
             " ".join(_fmt(x) for x in c)]
    lines += [f"{matno} {blk} {i} {j} {val!r}"
              for matno, blk, i, j, val in zip(*(col[order].tolist() for col in ents))]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc))


def import_sdpa(path) -> SdpModel:
    """Read an SDPA sparse file as a realified model over scalar variables.

    The result is a flat model: one real scalar variable per SDPA
    variable, one LMI per PSD block and one scalar constraint per row
    of each diagonal block.  Re-exporting reproduces the file.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(str(exc))

    rows = []
    for lno, line in enumerate(raw, start=1):
        text = line.split("*")[0].split('"')[0].strip()
        if text:
            rows.append((lno, text))
    if len(rows) < 4:
        raise SdpaParseError("file ends before the objective row", line_no=len(raw))

    def ints(idx, count=None):
        lno, text = rows[idx]
        toks = text.replace(",", " ").replace("(", " ").replace(")", " ").replace("{", " ").replace("}", " ").split()
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise SdpaParseError(f"expected integers, got {text!r}", line_no=lno)
        if count is not None and len(vals) != count:
            raise SdpaParseError(
                f"expected {count} integers, got {len(vals)}", line_no=lno
            )
        return lno, vals

    _, (m,) = ints(0, 1)
    lno_nb, (nblocks,) = ints(1, 1)
    lno_sz, sizes = ints(2)
    if len(sizes) != nblocks:
        raise SdpaParseError(
            f"{nblocks} blocks declared but {len(sizes)} sizes given", line_no=lno_sz
        )
    if 0 in sizes:
        raise SdpaParseError("block sizes must be nonzero", line_no=lno_sz)
    lno_c, ctext = rows[3]
    ctoks = ctext.replace(",", " ").replace("{", " ").replace("}", " ").split()
    if len(ctoks) != m:
        raise SdpaParseError(
            f"objective needs {m} entries, got {len(ctoks)}", line_no=lno_c
        )
    try:
        c = [float(t) for t in ctoks]
    except ValueError:
        raise SdpaParseError(f"bad objective entry in {ctext!r}", line_no=lno_c)
    if not all(map(math.isfinite, c)):
        raise SdpaParseError(f"non-finite objective entry in {ctext!r}", line_no=lno_c)

    # F[matno, blk] dense, only for the pairs that have entries; diagonal
    # blocks are stored dense too (small)
    dims = [abs(s) for s in sizes]
    F = {}
    for lno, text in rows[4:]:
        toks = text.split()
        if len(toks) != 5:
            raise SdpaParseError(f"entry line needs 5 fields, got {text!r}", line_no=lno)
        try:
            matno, blk, i, j = (int(t) for t in toks[:4])
            val = float(toks[4])
        except ValueError:
            raise SdpaParseError(f"bad entry line {text!r}", line_no=lno)
        if not math.isfinite(val):
            raise SdpaParseError(f"non-finite value in {text!r}", line_no=lno)
        if not 0 <= matno <= m:
            raise SdpaParseError(f"matrix index {matno} out of range", line_no=lno)
        if not 1 <= blk <= nblocks:
            raise SdpaParseError(f"block index {blk} out of range", line_no=lno)
        d = dims[blk - 1]
        if not (1 <= i <= j <= d):
            raise SdpaParseError(
                f"entry ({i},{j}) outside upper triangle of size {d}", line_no=lno
            )
        if sizes[blk - 1] < 0 and i != j:
            raise SdpaParseError("off-diagonal entry in a diagonal block", line_no=lno)
        Fb = F.get((matno, blk - 1))
        if Fb is None:
            Fb = F[matno, blk - 1] = np.zeros((d, d))
        Fb[i - 1, j - 1] = val
        Fb[j - 1, i - 1] = val

    xs = [VarId(k, 1, f"x{k + 1}", "real") for k in range(m)]
    lmis = []
    scalars = []
    for bi, (size, d) in enumerate(zip(sizes, dims)):
        F0 = F.get((0, bi), np.zeros((d, d)))
        Fk = [(k, F[k + 1, bi]) for k in range(m) if (k + 1, bi) in F]
        if size > 0:
            terms = [ConstTerm(-F0.astype(complex))]
            for k, Fb in Fk:
                if np.abs(Fb).max(initial=0.0) != 0.0:
                    terms.append(VarTerm(xs[k], 1.0, kl=Fb.astype(complex)))
            lmis.append(
                LmiConstraint([[AffineBlock(size, terms)]], label=f"block {bi + 1}")
            )
        else:
            for j in range(-size):
                fterms = []
                for k, Fb in Fk:
                    coef = Fb[j, j]
                    if coef != 0.0:
                        fterms.append((xs[k], np.array([[coef]])))
                scalars.append(
                    ScalarConstraint(
                        LinearFunctional(-F0[j, j], fterms),
                        label=f"block {bi + 1} row {j + 1}",
                    )
                )
    objective = Objective(
        "maximize",
        LinearFunctional(
            0.0,
            [(xs[k], np.array([[-c[k]]])) for k in range(m) if c[k] != 0.0],
        ),
    )
    return SdpModel(xs, lmis, scalars, objective, {}, realified=True)
