"""SDPA sparse-format export and import."""

import re

import numpy as np
import pytest

from tracelift.errors import ComplexDataError, IoError, NotRealified, SdpaParseError
from tracelift.geomean import GeoMeanTask, build_geomean
from tracelift.instances import random_matrix, random_pd
from tracelift.kernel import RationalExponent, tsallis_entropy
from tracelift.lieb import (
    build_kron_power, build_lieb, build_multivariate, build_tsallis_entropy, build_upsilon,
)
from tracelift.model import (
    AffineBlock, LinearFunctional, ModelBuilder, canonical, model_is_real, phi, realify, var_basis,
)
from tracelift.sdpa import export_sdpa, import_sdpa
from tracelift.solver import solve


def geo_model(rng, t="5/8", n=2, complex_=False):
    A = random_pd(n, rng, complex_=complex_)
    B = random_pd(n, rng, complex_=complex_)
    con = build_geomean(GeoMeanTask(RationalExponent.parse(t), n, A=A, B=B))
    return con.model


class TestRoundTrip:
    def test_byte_identical_real(self, rng, tmp_path):
        model, _ = realify(geo_model(rng))
        p1, p2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
        export_sdpa(model, p1)
        export_sdpa(import_sdpa(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_identical_complex(self, rng, tmp_path):
        K = random_matrix(2, 2, rng)
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_lieb(K, A, B, RationalExponent(1, 2))
        model, _ = realify(con.model)
        p1, p2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
        export_sdpa(model, p1)
        export_sdpa(import_sdpa(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_solve_equivalence(self, rng, tmp_path):
        model = geo_model(rng, t="1/3")
        rm, _ = realify(model)
        path = tmp_path / "m.dat-s"
        export_sdpa(rm, path)
        imported = import_sdpa(path)
        r1, r2 = solve(rm), solve(imported)
        assert r1.ok and r2.ok
        assert abs(r1.objective - r2.objective) < 1e-6

    @pytest.mark.parametrize("make", ["lieb 1/2", "lieb 3/2", "tsallis"],
                             ids=["maximize-scalar", "minimize", "constant"])
    def test_canonical_form_survives(self, rng, tmp_path, make):
        # a maximising model with a scalar, a minimising one, and one with an
        # objective constant: the form the solver reads is the same after
        # SDPA, objective and sense included.  Values are compared exactly;
        # a zero's sign is not kept, as SDPA's c = -b + 0.0 drops it
        if make == "tsallis":
            model = build_tsallis_entropy(random_pd(3, rng), RationalExponent(1, 4)).model
        else:
            K, A, B = random_matrix(2, 2, rng), random_pd(2, rng), random_pd(2, rng)
            model = build_lieb(K, A, B, RationalExponent.parse(make.split()[1])).model
        rm, _ = realify(model)
        assert (rm.objective.sense, len(rm.scalars)) == {
            "lieb 1/2": ("maximize", 1), "lieb 3/2": ("minimize", 1), "tsallis": ("maximize", 0)}[make]
        export_sdpa(rm, tmp_path / "m.dat-s")
        b, constant, blocks, _ = canonical(import_sdpa(tmp_path / "m.dat-s"))
        want_b, want_constant, want_blocks, _ = canonical(rm)
        assert np.array_equal(b, want_b) and constant == want_constant
        assert (constant != 0.0) is (make == "tsallis")
        assert len(blocks) == len(want_blocks) == len(rm.lmis) + len(rm.scalars)
        for (G0, idx, s, p, v), (want_G0, *want) in zip(blocks, want_blocks):
            assert np.array_equal(G0, want_G0)
            assert np.array_equal(dense_by_coord(G0, idx, s, p, v, len(b)),
                                  dense_by_coord(want_G0, *want, len(b)))


def dense_by_coord(G0, idx, s, p, v, m):
    """The slices of a canonical block as an (m, d, d) stack, one matrix
    for each model coordinate."""
    A = np.zeros((m, G0.size), dtype=v.dtype)
    A[idx[s], p] = v
    return A.reshape(m, *G0.shape)


class TestExportErrors:
    def test_not_realified(self, rng, tmp_path):
        with pytest.raises(NotRealified):
            export_sdpa(geo_model(rng), tmp_path / "x.dat-s")

    def test_complex_data(self, rng, tmp_path):
        # complex model forced through without embedding is rejected
        model = geo_model(rng, complex_=True)
        object.__setattr__(model, "realified", True)
        with pytest.raises(ComplexDataError):
            export_sdpa(model, tmp_path / "x.dat-s")


class TestParseErrors:
    def check(self, tmp_path, text, line_no, message=None):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        with pytest.raises(SdpaParseError) as exc:
            import_sdpa(path)
        assert exc.value.line_no == line_no
        if message is not None:
            assert str(exc.value).startswith(f"line {line_no}: {message}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="No such file"):
            import_sdpa(tmp_path / "nope.dat-s")

    def test_bad_m(self, tmp_path):
        self.check(tmp_path, "x\n1\n2\n1.0\n", 1)

    def test_block_count_mismatch(self, tmp_path):
        self.check(tmp_path, "1\n2\n2\n1.0\n", 3)

    def test_bad_objective_length(self, tmp_path):
        self.check(tmp_path, "2\n1\n2\n1.0\n", 4)

    def test_ends_before_objective(self, tmp_path):
        self.check(tmp_path, "1\n1\n", 2, "file ends before the objective row")

    def test_two_integers_for_one(self, tmp_path):
        self.check(tmp_path, "1\n1 2\n2\n1.0\n", 2, "expected 1 integers, got 2")

    def test_non_numeric_objective(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\nx\n", 4, "bad objective entry in 'x'")

    def test_bad_entry_arity(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\n1.0\n0 1 1 1\n", 5)

    def test_entry_out_of_range(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\n1.0\n0 1 3 3 1.0\n", 5)

    def test_zero_block_size(self, tmp_path):
        self.check(tmp_path, "1\n2\n2 0\n1.0\n0 1 1 1 1.0\n", 3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1e400"])
    def test_non_finite_objective(self, tmp_path, bad):
        self.check(tmp_path, f"2\n1\n2\n1.0 {bad}\n", 4)

    @pytest.mark.parametrize("bad", ["nan", "1e400", "-inf"])
    def test_non_finite_entry(self, tmp_path, bad):
        self.check(tmp_path, f"1\n1\n2\n1.0\n0 1 1 1 -1.0\n1 1 1 1 {bad}\n", 6)

    def test_duplicate_entry(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\n1.0\n1 1 1 1 1.0\n0 1 1 2 1.0\n1 1 1 1 2.0\n", 7,
                   "entry (1,1) of matrix 1 in block 1 given twice")

    def test_bad_token_before_short_line(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\n1.0\n1 1 x 1 1.0\n1 1 1 1\n", 5,
                   "bad entry line '1 1 x 1 1.0'")

    def test_bad_block_before_nan(self, tmp_path):
        self.check(tmp_path, "1\n1\n2\n1.0\n1 2 1 1 1.0\n1 1 1 1 nan\n", 5,
                   "block index 2 out of range")

    @pytest.mark.parametrize("index", ["99999999999999999999", "-9223372036854775809"])
    def test_matrix_index_beyond_int64(self, tmp_path, index):
        self.check(tmp_path, f"1\n1\n2\n1.0\n0 1 1 1 -1.0\n{index} 1 1 1 1.0\n", 6,
                   f"matrix index {index} out of range")

    def test_non_ascii_letter_in_an_integer(self, tmp_path):
        # not a digit to int(), whatever np.loadtxt makes of it
        self.check(tmp_path, "1\n1\n2\n1.0\n0 1 1 1 -1.0\n\u01fe1 1 1 1 1.0\n", 6,
                   "bad entry line '\u01fe1 1 1 1 1.0'")

    @pytest.mark.parametrize("bad", ["x", "nan", ""])
    def test_bad_objective_constant(self, tmp_path, bad):
        self.check(tmp_path, f"* objective constant {bad}\n1\n1\n2\n1.0\n", 1)

    def test_first_fault_as_line_by_line(self, tmp_path):
        # random faulty files: the error is the one a per-line loop raises
        rng = np.random.default_rng(5)
        good = ["0 1 1 1 -1.0", "1 1 1 2 0.5", "2 1 2 2 1.5", "1 2 1 1 2.0", "2 2 2 2 1.0"]
        bad = ["1 1 1 1", "1 1 1 1 1.0 2", "1 x 1 1 1.0", "1 1 1 1 y", "1 1 1 1 inf",
               "3 1 1 1 1.0", "-1 1 1 1 1.0", "1 3 1 1 1.0", "1 0 1 1 1.0", "1 1 2 1 1.0",
               "1 1 1 3 1.0", "1 2 1 2 1.0", "1 1 1 2 9.0", "1 99999999999999999999 1 1 1.0",
               # lines with two faults, of which the first check's must be reported
               "3 1 1 1 nan", "3 3 1 1 1.0", "1 3 3 1 1.0", "1 2 2 1 1.0", "1 2 1 2 nan"]
        for _ in range(200):
            body = list(rng.permutation(good))
            for _ in range(rng.integers(1, 3)):
                body.insert(rng.integers(0, len(body) + 1), rng.choice(bad))
            text = "2\n2\n2 -2\n1.0 2.0\n" + "\n".join(body) + "\n"
            lno, message = line_by_line_fault(text)
            self.check(tmp_path, text, lno, message)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "ok.dat-s"
        path.write_text(
            '* leading comment\n"quoted comment\n1\n1\n2\n1.0\n'
            "0 1 1 1 -1.0\n1 1 1 1 1.0\n"
        )
        model = import_sdpa(path)
        assert len(model.vars) == 1
        res = solve(model)
        assert res.ok
        # maximize x with x*I - I >= 0 flipped: F0=-G0 convention makes
        # the constraint x >= 1, objective -x, optimum at x = 1
        assert abs(abs(res.objective) - 1.0) < 1e-6


def line_by_line_fault(text):
    """(line, message) of the first fault in the entry lines of ``text``,
    a file of SDPA entries after a four-line header, found by checking one
    line at a time: the fault that import_sdpa must report."""
    lines = text.splitlines()
    m, sizes = int(lines[0]), [int(s) for s in lines[2].split()]
    seen = set()
    for lno, line in enumerate(lines[4:], start=5):
        toks = line.split()
        if len(toks) != 5:
            return lno, "entry line needs 5 fields"
        try:
            matno, blk, i, j = map(int, toks[:4])
            val = float(toks[4])
        except ValueError:
            return lno, "bad entry line"
        if not np.isfinite(val):
            return lno, "non-finite value"
        if not 0 <= matno <= m:
            return lno, f"matrix index {matno} out of range"
        if not 1 <= blk <= len(sizes):
            return lno, f"block index {blk} out of range"
        if not 1 <= i <= j <= abs(sizes[blk - 1]):
            return lno, f"entry ({i},{j}) outside upper triangle"
        if sizes[blk - 1] < 0 and i != j:
            return lno, "off-diagonal entry in a diagonal block"
        if (matno, blk, i, j) in seen:
            return lno, f"entry ({i},{j}) of matrix {matno} in block {blk} given twice"
        seen.add((matno, blk, i, j))
    raise AssertionError("no fault")


class TestImported:
    def test_assemble_equals_source(self, rng, tmp_path):
        # G0 + sum_k y_k A_k of each imported block, against the block it
        # was exported from
        model, source = imported_lieb(rng, tmp_path)
        y = rng.standard_normal(len(model.vars))
        point = dict(zip(model.vars, y))
        offsets = source.coord_offsets()[0]
        for lmi, src in zip(model.lmis, source.lmis):
            G0, idx, A = dense(src.slices(), offsets)
            want = G0 + sum(y[k] * Ak for k, Ak in zip(idx, A))
            assert np.allclose(lmi.assemble(point), want, rtol=0, atol=1e-13)

    def test_model_is_real(self, rng, tmp_path):
        model, _ = imported_lieb(rng, tmp_path)
        assert model_is_real(model)

    @pytest.mark.filterwarnings("error")
    def test_no_entries(self, tmp_path):
        path = tmp_path / "m.dat-s"
        path.write_text("1\n2\n2 -1\n1.0\n")
        model = import_sdpa(path)
        G0, idx, A = dense(model.lmis[0].slices(), model.coord_offsets()[0])
        assert not G0.any() and idx.size == 0 and A.shape == (0, 2, 2)
        assert model.scalars[0].constant == 0.0

    @pytest.mark.parametrize("form", ["underscores", "non-ASCII digits"])
    def test_refused_forms_read_as_plain_twin(self, rng, tmp_path, form):
        # entry lines in forms that int() and float() read and np.loadtxt
        # refuses, on every other line: the model of the plain-form twin
        imported_lieb(rng, tmp_path)  # writes m.dat-s
        plain = tmp_path / "m.dat-s"
        lines = plain.read_text().splitlines()
        assert not lines[0].startswith("*")  # so the entry lines start at line 5
        if form == "underscores":
            def spell(tok):
                return re.sub(r"(\d)(?=\d)", r"\1_", tok, count=1)
        else:
            def spell(tok):
                return tok.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                                 "\u0665\u0666\u0667\u0668\u0669"))
        lines[4::2] = [" ".join(map(spell, line.split())) for line in lines[4::2]]
        twin, back = tmp_path / "twin.dat-s", tmp_path / "back.dat-s"
        twin.write_text("\n".join(lines) + "\n")
        assert twin.read_text() != plain.read_text()
        export_sdpa(import_sdpa(twin), back)
        assert back.read_bytes() == plain.read_bytes()

    def test_objective_constant_round_trip(self, rng, tmp_path):
        A = random_pd(3, rng)
        t = RationalExponent(1, 4)
        model, _ = realify(build_tsallis_entropy(A, t).model)
        p1, p2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
        export_sdpa(model, p1)
        assert p1.read_text().startswith(f"* objective constant {float(np.trace(A).real) / 0.25!r}\n")
        back = import_sdpa(p1)
        export_sdpa(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        res = solve(back)
        assert res.ok
        assert abs(res.objective - tsallis_entropy(A, 0.25)) < 1e-6


class TestScalarBlocks:
    def test_negative_size_block(self, rng, tmp_path):
        K = random_matrix(2, 2, rng)
        A, B = random_pd(2, rng), random_pd(2, rng)
        con = build_lieb(K, A, B, RationalExponent(1, 2))
        model, _ = realify(con.model)
        path = tmp_path / "m.dat-s"
        export_sdpa(model, path)
        lines = path.read_text().splitlines()
        sizes = lines[2].split()
        assert any(int(s) < 0 for s in sizes)
        back = import_sdpa(path)
        assert back.scalar_count == model.scalar_count


def coord_image(t, k):
    """Term t's image of basis matrix k of its variable, formed here with
    numpy's own kron rather than through the term's methods."""
    E = var_basis(t.var)[k]
    E = E.conj() if t.op == "conj" else E
    if t.kl is not None:
        E = np.kron(t.kl, E)
    if t.kr is not None:
        E = np.kron(E, t.kr)
    return t.coeff * E


def dense(sl, offsets):
    """Held slices made dense: G0, the coordinate of each slice, and the
    stack of slices; the held columns must be sorted and hold nonzeros."""
    n = len(sl.G0)
    assert np.all(np.diff(sl.s * n * n + sl.p) > 0) and np.all(sl.v != 0)
    idx = np.array([offsets[v] + k for v in sl.vars for k in range(len(var_basis(v)))], dtype=int)
    A = np.zeros((len(idx), n * n), dtype=sl.v.dtype)
    A[sl.s, sl.p] = sl.v
    return sl.G0, idx, A.reshape(len(idx), n, n)


def oracle_slices(lmi, offsets, realified=None):
    """Per-coordinate reference for the slices of a built LMI: an np.block
    of each grid slot's summed constant terms, and one of its summed
    coord_image(t, k) per coordinate.

    With ``realified`` = (var_map, offsets, embed), the reference for the
    LMI that realify makes of it: each slot's sum goes through phi when
    embedded and keeps its real part when not, and only the coordinates of
    the realified variables remain: all of an embedded model's, and those
    with a real basis matrix of a real model's."""
    var_map, new_offsets, embed = realified or ({v: v for v in offsets}, offsets, None)
    part = {None: lambda M: M, True: phi, False: lambda M: M.real}[embed]
    zero = np.zeros((lmi.dim, lmi.dim), dtype=complex)

    def block(image):
        return np.block([[part(sum((image(t) for t in blk.terms), zero)) for blk in row]
                         for row in lmi.grid])

    G0 = block(lambda t: t.matrix if t.var is None else zero)
    idx, A = [], []
    for v in sorted(lmi.vars(), key=lambda u: offsets[u]):
        kept = [k for k, E in enumerate(var_basis(v)) if embed is not False or not E.imag.any()]
        for pos, k in enumerate(kept):
            idx.append(new_offsets[var_map[v]] + pos)
            A.append(block(lambda t: coord_image(t, k) if t.var == v else zero))
    return G0, idx, A


def oracle_coeffs(f, offsets, realified=None):
    """Per-coordinate reference for the slices of a built functional, made
    dense: Re tr(M E) summed over the terms of each coordinate's variable.

    With ``realified`` = (var_map, offsets, embed), the reference for the
    functional that realify makes of it: only the coordinates of the
    realified variables remain, as in oracle_slices, with the same
    coefficients."""
    var_map, new_offsets, embed = realified or ({v: v for v in offsets}, offsets, None)
    out = np.zeros(sum(len(var_basis(v)) for v in new_offsets))
    for v in offsets:
        kept = [E for E in var_basis(v) if embed is not False or not E.imag.any()]
        for pos, E in enumerate(kept):
            out[new_offsets[var_map[v]] + pos] = sum(
                (np.trace(M @ E).real for u, M in f.terms if u == v), 0.0)
    return out


def complex_geomean(rng, tmp_path):
    return geo_model(rng, t="8/13", complex_=True)


def complex_geomean_unrealified(rng, tmp_path):
    return geo_model(rng, t="-1/2", complex_=True)


def real_geomean(rng, tmp_path):
    return geo_model(rng, t="8/13")


def lieb_scalar(rng, tmp_path):
    K = random_matrix(2, 3, rng)
    return build_lieb(K, random_pd(2, rng), random_pd(3, rng), RationalExponent(1, 3)).model


def kron_power(rng, tmp_path):
    A, B = random_pd(2, rng), random_pd(2, rng)
    return build_kron_power(A, B, RationalExponent(1, 2), RationalExponent(1, 3)).model


def upsilon_conj_left(rng, tmp_path):
    # the term I (x) conj(X): a left Kronecker factor on a conjugated variable
    K = random_matrix(2, 3, rng)
    return build_upsilon(K, random_pd(2, rng), RationalExponent(1, 2)).model


def multivariate_right(rng, tmp_path):
    # the terms S (x) I: a right Kronecker factor
    mats = [random_pd(2, rng) for _ in range(3)]
    return build_multivariate(mats, [RationalExponent(1, 2), RationalExponent(1, 4),
                                     RationalExponent(1, 4)]).model


def repeated_terms(rng, tmp_path):
    # grid slots holding two constants and two terms of one variable
    A, B = random_pd(2, rng), random_pd(2, rng)
    b = ModelBuilder()
    X = b.fresh_var("T", 2)
    p = AffineBlock.constant(A) + AffineBlock.constant(B)
    z = AffineBlock.of_var(X) + AffineBlock.of_var(X, coeff=0.5j, op="conj")
    b.add_lmi2(p, z, AffineBlock.constant(A) - AffineBlock.of_var(X))
    b.set_objective("maximize", LinearFunctional(0.0, [(X, np.eye(2))]))
    return b.freeze()


def imported_lieb(rng, tmp_path):
    # an imported model, and the realified model it was exported from
    source = realify(lieb_scalar(rng, tmp_path))[0]
    export_sdpa(source, tmp_path / "m.dat-s")
    return import_sdpa(tmp_path / "m.dat-s"), source


def source_slices(source, k):
    """Reference for the slices of block k of an imported model: those of
    the LMI it was exported from, all-zero slices dropped."""
    G0, idx, A = dense(source.lmis[k].slices(), source.coord_offsets()[0])
    keep = A.reshape(len(A), -1).any(axis=1)
    return G0, idx[keep].tolist(), A[keep]


def source_coeffs(source, f):
    """Reference for the coefficients of a functional of an imported model:
    those of functional f of the maximising model it was exported from,
    made dense by coordinate."""
    assert source.objective.sense == "maximize"
    offsets, m = source.coord_offsets()
    _, idx, A = dense(f.slices(), offsets)
    out = np.zeros(m)
    out[idx] = A[:, 0, 0]
    return out


# the makers whose built model is compared after realify
REALIFIED = (complex_geomean, real_geomean, lieb_scalar, kron_power, repeated_terms,
             upsilon_conj_left)


class TestSlices:
    @pytest.mark.parametrize("make", [
        complex_geomean, complex_geomean_unrealified, lieb_scalar, kron_power, repeated_terms,
        imported_lieb, upsilon_conj_left, multivariate_right, real_geomean,
    ])
    def test_equal_to_per_coordinate_oracle(self, rng, tmp_path, make):
        # the held slices, made dense here, against a reference formed one
        # coordinate at a time: from the LMI's own grid, from the grid of
        # the LMI it was realified from, or for an imported model from the
        # LMI or functional it was exported from
        model = make(rng, tmp_path)
        source, var_map = None, None
        if make is imported_lieb:
            model, source = model
        elif make in REALIFIED:
            source, (model, var_map) = model, realify(model)
        offsets, m = model.coord_offsets()
        embed = any(lmi.size > src.size for lmi, src in zip(model.lmis, source.lmis)) if var_map else None
        for k, lmi in enumerate(model.lmis):
            G0, idx, A = dense(lmi.slices(), offsets)
            if make is imported_lieb:
                want_G0, want_idx, want_A = source_slices(source, k)
            elif var_map is None:
                want_G0, want_idx, want_A = oracle_slices(lmi, offsets)
            else:
                want_G0, want_idx, want_A = oracle_slices(
                    source.lmis[k], source.coord_offsets()[0], (var_map, offsets, embed))
            assert np.array_equal(G0, want_G0)
            assert idx.tolist() == want_idx
            assert np.array_equal(A, np.array(want_A).reshape(A.shape))
        funcs = [*model.scalars, model.objective.functional]
        for k, f in enumerate(funcs):
            G0, idx, A = dense(f.slices(), offsets)
            got = np.zeros(m)
            got[idx] = A[:, 0, 0]
            src = f if source is None else [*source.scalars, source.objective.functional][k]
            if make is imported_lieb:
                want = source_coeffs(source, src)
            elif var_map is None:
                want = oracle_coeffs(f, offsets)
            else:
                want = oracle_coeffs(src, source.coord_offsets()[0], (var_map, offsets, embed))
            assert src.constant == f.constant
            assert np.array_equal(G0, [[f.constant]])
            assert np.array_equal(got, want)
        if make in (lieb_scalar, imported_lieb):
            assert model.scalars
        if make in REALIFIED:
            assert embed is (make is not real_geomean)
