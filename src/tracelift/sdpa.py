"""SDPA sparse format (.dat-s) export and import.

A realified model, in the canonical form that `model.canonical` gives it
and that the solver reads too,

    maximize b'y + constant   s.t.   G0_b + sum_k y_k G_bk >= 0,

maps onto the SDPA problem  min c'x, sum_i x_i F_i - F0 >= 0  via
c = -b, F_k = G_k, F0 = -G0.  The 1x1 blocks of the scalar constraints
become the rows of one diagonal block (negative size in the header, as
SDPA prescribes).  Floats are
written with ``repr`` so that export -> import -> export is
byte-identical.  SDPA has no objective constant; a nonzero one is
written on a leading comment line, which SDPA readers skip.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ComplexDataError, IoError, NotRealified, SdpaParseError, TraceliftError
from .model import (
    LinearFunctional,
    LmiConstraint,
    Objective,
    SdpModel,
    Slices,
    VarId,
    canonical,
)


def _real_or_raise(M, where: str) -> np.ndarray:
    if np.iscomplexobj(M) and M.imag.any():
        raise ComplexDataError(f"complex entries in {where}; realify the model first")
    return M.real


# the comment line that carries K, the constant added to the SDPA objective c'x
_CONSTANT = "* objective constant "


def _fmt(x: float) -> str:
    return repr(float(x))


def export_sdpa(model: SdpModel, path) -> None:
    """Write a realified model in SDPA sparse format, from its
    `model.canonical` form.

    SDPA has no objective constant, so a nonzero
    ``objective.functional.constant`` goes on a leading comment line
    ``* objective constant K``: c'x + K is the model's objective, negated
    for a maximising model.  `import_sdpa` reads the line back; other SDPA
    readers skip it, and their optimum is then off by K (tr A / t for a
    tsallis entropy model).
    """
    if not model.realified:
        raise NotRealified("export requires a realified model")
    b, constant, blocks, _ = canonical(model)
    if not len(b):
        raise TraceliftError("the model has no variable, which SDPA cannot hold")
    if not all(np.isfinite(a).all() for a in [b, constant] + [a for G0, *_, v in blocks for a in (G0, v)]):
        raise TraceliftError("the model holds a non-finite number, which SDPA cannot hold")
    nl = len(model.lmis)
    sizes = [lmi.size for lmi in model.lmis]
    if model.scalars:
        sizes.append(-len(model.scalars))
    parts = []
    for k, (G0, idx, s, p, v) in enumerate(blocks):
        # an LMI is block k + 1; a scalar's 1x1 block is row r of the diagonal block
        bno, r, d = min(k, nl) + 1, max(k - nl, 0), len(G0)
        F0 = np.triu(_real_or_raise(-G0, f"matrix 0, block {bno}"))
        i, j = np.nonzero(F0)
        parts.append((np.zeros(len(i), dtype=int), np.full(len(i), bno), i + r + 1, j + r + 1, F0[i, j]))
        # the held nonzeros in the upper triangle, already in slice and row-major order
        i, j = np.divmod(p, d)
        up = i <= j
        parts.append((idx[s[up]] + 1, np.full(up.sum(), bno), i[up] + r + 1, j[up] + r + 1,
                      _real_or_raise(v[up], f"block {bno}")))
    # group by matrix number, keeping block order and row-major order within
    ents = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(ents[0], kind="stable")

    # SDPA minimizes c'x + K with c = -b and K = -constant
    lines = [_CONSTANT + _fmt(-constant)] if constant != 0.0 else []
    lines += [str(len(b)), str(len(sizes)), " ".join(str(s) for s in sizes),
             " ".join(_fmt(x) for x in -b + 0.0)]
    lines += [f"{matno} {blk} {i} {j} {val!r}"
              for matno, blk, i, j, val in zip(*(col[order].tolist() for col in ents))]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc))


def _read_entries(rows, m, sizes):
    """The checked (matno, block, i, j, val) columns of the entry lines,
    block, i and j counted from 0.

    One ``np.loadtxt`` call converts all the lines into columns.  Where it
    refuses or warns, or a line is not ASCII, the per-line loop below reads
    them instead, and stops at the first line that does not split into 5
    fields or does not convert by ``int`` and ``float``: so the grammar is
    theirs, with ``1_0``, non-ASCII digits and integers beyond int64,
    which loadtxt refuses.  The checks by value then run on whole columns
    of the lines before it, yet the first line that fails any check
    raises, with the first check it fails in the order below, as checking
    line by line would; a second entry at one position is a fault.
    """
    cols, fault = None, None  # fault: the first line's fault after the lines in cols
    texts = [text for _, text in rows]
    # loadtxt warns on no lines, and reads some non-ASCII letters in an integer as digits
    if texts and "".join(texts).isascii():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cols = np.loadtxt(texts, dtype="i8,i8,i8,i8,f8", comments=None, ndmin=1, unpack=True)
        except (ValueError, OverflowError, Warning):
            pass
    if cols is None:
        ents = []  # the fields of the good leading lines, five a line
        for _, text in rows:
            try:
                matno, blk, i, j, val = text.split()
            except ValueError:
                fault = "entry line needs 5 fields, got {text!r}"
                break
            try:
                ents.extend((int(matno), int(blk), int(i), int(j), float(val)))
            except ValueError:
                fault = "bad entry line {text!r}"
                break
        cols = ([np.array(ents[k::5]) for k in range(5)] if ents
                else [np.zeros(0, dtype=int)] * 4 + [np.zeros(0)])
    matno, blk, i, j, val = cols
    n = len(val)
    nb = len(sizes)
    b = np.where((1 <= blk) & (blk <= nb), blk - 1, nb).astype(int)  # a bad block reads size 0
    size = np.array(sizes + [0])[b]
    d = np.abs(size)
    checks = [
        (~np.isfinite(val), "non-finite value in {text!r}"),
        ((matno < 0) | (matno > m), "matrix index {matno} out of range"),
        (b == nb, "block index {blk} out of range"),
        (~((1 <= i) & (i <= j) & (j <= d)), "entry ({i},{j}) outside upper triangle of size {d}"),
        ((size < 0) & (i != j), "off-diagonal entry in a diagonal block"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    # each bad line gets a key of its own, so that only good lines can repeat
    width = max(map(abs, sizes), default=0) + 1
    key = np.where(bad, -1 - np.arange(n), ((matno * nb + b) * width + i) * width + j)
    again = np.ones(n, dtype=bool)
    again[np.unique(key, return_index=True)[1]] = False
    checks.append((again, "entry ({i},{j}) of matrix {matno} in block {blk} given twice"))
    bad |= again
    if bad.any():
        n = int(bad.argmax())
        fault = next(msg for mask, msg in checks if mask[n])
    if fault is not None:
        lno, text = rows[n]
        fields = {"text": text}
        if n < len(matno):
            fields.update(matno=matno[n], blk=blk[n], i=i[n], j=j[n], d=d[n])
        raise SdpaParseError(fault.format(**fields), line_no=lno)
    return matno, b, i - 1, j - 1, val


def import_sdpa(path) -> SdpModel:
    """Read an SDPA sparse file as a realified model over scalar variables.

    The result is a flat model: one real scalar variable per SDPA
    variable, one LMI per PSD block, made from its slices: G0 = -F0 and the
    nonzeros of the matrices that occur in the block, taken from the
    entry columns with no dense stack formed; and one scalar constraint
    per row of each diagonal block.  The scalar constraints and the
    objective are made from 1x1 slices too, one per nonzero coefficient,
    so no functional of the model holds terms.  An objective constant
    line, as `export_sdpa` writes it, is read back.  Re-exporting
    reproduces the file.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(str(exc))

    texts = [line.split("*")[0].split('"')[0].strip() if "*" in line or '"' in line else line.strip()
             for line in raw]
    rows = [(lno, text) for lno, text in enumerate(texts, start=1) if text]
    if len(rows) < 4:
        raise SdpaParseError("file ends before the objective row", line_no=len(raw))
    constant = 0.0  # the model's objective constant, from a comment line before the data
    for lno, line in enumerate(raw[:rows[0][0] - 1], start=1):
        if line.startswith(_CONSTANT):
            try:
                constant = -float(line[len(_CONSTANT):])
            except ValueError:
                constant = math.nan
            if not math.isfinite(constant):
                raise SdpaParseError(f"bad objective constant in {line.strip()!r}", line_no=lno)

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

    cols = _read_entries(rows[4:], m, sizes)
    nz = cols[-1] != 0.0  # a zero entry adds nothing, so only a matrix with nonzeros gets a slice
    matno, blk, i, j, val = (col[nz] for col in cols)
    xs = [VarId(k, 1, f"x{k + 1}", "real") for k in range(m)]

    def functional(constant, ks, vals, label=""):
        """constant + sum_n vals[n] x_ks[n], for increasing ks counted from 0."""
        return LinearFunctional(constant, label=label, slices=Slices.gather(
            np.array([[constant]]), [xs[k] for k in ks.tolist()], np.arange(len(ks)), vals))

    lmis, scalars = [], []
    order = np.argsort(blk, kind="stable")
    starts = np.searchsorted(blk[order], np.arange(nblocks + 1))
    for bi, size in enumerate(sizes):
        e = order[starts[bi]:starts[bi + 1]]
        mats = np.union1d(0, matno[e])  # F0, then the matrices occurring in the block
        s, ie, je, ve = np.searchsorted(mats, matno[e]), i[e], j[e], val[e]
        label = f"block {bi + 1}"
        f0 = s == 0
        if size < 0:  # a diagonal block: one scalar constraint per row
            F0 = np.zeros(-size)
            F0[ie[f0]] = ve[f0]
            ks, rs, vs = matno[e][~f0] - 1, ie[~f0], ve[~f0]
            o = np.lexsort((ks, rs))  # by row, then by variable
            ends = np.searchsorted(rs[o], np.arange(1 - size))
            for r in range(-size):
                at = o[ends[r]:ends[r + 1]]
                scalars.append(functional(-F0[r], ks[at], vs[at], f"{label} row {r + 1}"))
            continue
        G0 = np.zeros((size, size))
        G0[ie[f0], je[f0]] = G0[je[f0], ie[f0]] = -ve[f0]
        # the coefficient nonzeros: each entry at (i, j), and off the diagonal at (j, i) too
        keep = np.concatenate([~f0, ~f0 & (ie != je)])
        keys = np.concatenate([((s - 1) * size + ie) * size + je,
                               ((s - 1) * size + je) * size + ie])
        lmis.append(LmiConstraint(label=label, slices=Slices.gather(
            G0, [xs[k - 1] for k in mats[1:].tolist()], keys[keep], np.concatenate([ve, ve])[keep])))
    ks = np.flatnonzero(c)
    objective = Objective("maximize", functional(constant, ks, -np.array(c)[ks]))
    return SdpModel(xs, lmis, scalars, objective, realified=True)
