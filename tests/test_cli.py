"""Command-line interface, exercised in-process through main()."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tracelift import cli
from tracelift.cli import main, save_matrix
from tracelift.errors import IoError
from tracelift.instances import FUNCTIONS, random_pd
from tracelift.sdpa import import_sdpa

# the parameters each function needs, as command-line arguments
PARAMS = {
    "geomean": ["--t", "1/2"],
    "lieb": ["--t", "1/2"],
    "kron_power": ["--s", "1/3", "--t", "1/2"],
    "multivariate": ["--weights", "1/2,1/4,1/4"],
    "tsallis": ["--t", "1/2"],
    "tsallis_rel": ["--t", "1/4"],
    "upsilon": ["--t", "1/2"],
    "fidelity": [],
}


@pytest.fixture
def diag_files(tmp_path):
    # commuting pair: G_t = diag(2^{1-t} 8^t, 3) so tr G_{1/2} = 4 + 3
    A = np.diag([2.0, 3.0])
    B = np.diag([8.0, 3.0])
    pa, pb = tmp_path / "A.json", tmp_path / "B.json"
    save_matrix(A, pa)
    save_matrix(B, pb)
    return str(pa), str(pb)


class TestEmit:
    def test_census_line(self, tmp_path, capsys):
        out = tmp_path / "m.dat-s"
        rc = main(["emit", "--function", "geomean", "--t", "8/13", "--n", "2",
                   "--out", str(out)])
        assert rc == 0
        assert "4 x (size 4), 1 x (size 2)" in capsys.readouterr().out
        assert out.exists()

    def test_negative_exponent_parses(self, tmp_path):
        out = tmp_path / "m.dat-s"
        rc = main(["emit", "--function", "geomean", "--t", "-1/2", "--n", "2",
                   "--out", str(out)])
        assert rc == 0

    def test_out_of_range_exit_2(self, tmp_path):
        rc = main(["emit", "--function", "geomean", "--t", "7/3", "--n", "2",
                   "--out", str(tmp_path / "m.dat-s")])
        assert rc == 2

    @pytest.mark.parametrize("function, slot", [
        ("lieb", "A"), ("geomean", "A"), ("tsallis", "A"), ("fidelity", "B"), ("multivariate", "mats"),
    ])
    def test_not_positive_definite_exit_2(self, tmp_path, capsys, function, slot):
        # as eval and verify do, emit rejects a Hermitian input that is not PD
        bad, out = tmp_path / "bad.json", tmp_path / "m.dat-s"
        save_matrix(np.diag([-1.0, 1.0]), bad)
        files = ",".join([str(bad)] * 3) if slot == "mats" else str(bad)
        params = ["--t", "1/3"] if function in ("lieb", "geomean") else PARAMS[function]
        rc = main(["emit", "--function", function, *params, f"--{slot}", files, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(bad) in err and "not positive definite" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exit_3(self, tmp_path):
        rc = main(["emit", "--function", "geomean", "--t", "1/2",
                   "--A", str(tmp_path / "nope.json"),
                   "--B", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "m.dat-s")])
        assert rc == 3

    def test_out_in_missing_directory_exit_3(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.dat-s"
        assert main(["emit", "--function", "geomean", "--t", "1/2", "--out", str(out)]) == 3
        assert "No such file or directory" in capsys.readouterr().err


class TestEval:
    def test_commuting_pair(self, diag_files, capsys):
        pa, pb = diag_files
        rc = main(["eval", "--function", "geomean", "--t", "1/2",
                   "--A", pa, "--B", pb])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_missing_t_exit_2(self, diag_files):
        pa, pb = diag_files
        rc = main(["eval", "--function", "geomean", "--A", pa, "--B", pb])
        assert rc == 2

    def test_fidelity_no_t(self, diag_files, capsys):
        pa, pb = diag_files
        rc = main(["eval", "--function", "fidelity", "--A", pa, "--B", pb])
        assert rc == 0
        want = 2.0 * 2.0 + 3.0  # sqrt(A^{1/2} B A^{1/2}) of commuting diag
        assert abs(float(capsys.readouterr().out) - want) < 1e-9


class TestVerify:
    def test_geomean_table(self, capsys):
        rc = main(["verify", "--function", "geomean", "--t", "5/8", "--n", "2",
                   "--trials", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 2

    def test_fidelity(self, capsys):
        rc = main(["verify", "--function", "fidelity", "--n", "2",
                   "--complex", "--trials", "2", "--seed", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_leading_zero_weights(self, capsys):
        rc = main(["verify", "--function", "multivariate", "--weights", "0,0,1", "--trials", "1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_status_of_a_failed_trial(self, capsys, monkeypatch):
        # a trial that fails for want of an optimal solve says how it ended
        solve = cli.solve
        monkeypatch.setattr(cli, "solve", lambda model: replace(
            solve(model), status="iteration_limit", objective=None))
        rc = main(["verify", "--function", "geomean", "--t", "1/2", "--trials", "1"])
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert rc == 1
        assert header.split() == ["trial", "witness", "rel.err", "status", "census", "result"]
        assert row.split() == ["0", "ok", "inf", "iteration_limit", "ok", "FAIL"]


class TestCount:
    def test_small_qmax(self, capsys):
        rc = main(["count", "--qmax", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "within bounds" in out

    def test_rows_cover_minus_one_to_two_by_mode(self, capsys):
        # each reduced p/q in [-1, 2] once, labelled by the construction
        # that ran: t = 0 is a hypograph, and 3/2 and 2 are epigraphs
        assert main(["count", "--qmax", "2"]) == 0
        rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert rows == [["-1", "epi"], ["0", "hyp"], ["1", "hyp"], ["2", "epi"],
                        ["-1/2", "epi"], ["1/2", "hyp"], ["3/2", "epi"]]


    @pytest.mark.parametrize("qmax", ["0", "-3"])
    def test_qmax_below_one_exit_2(self, qmax, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--qmax", qmax])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestMatrixIo:
    def test_round_trip(self, tmp_path, rng):
        M = random_pd(3, rng, complex_=True)
        path = tmp_path / "m.json"
        save_matrix(M, path)
        data = json.loads(path.read_text())
        assert len(data["re"]) == 3
        from tracelift.cli import load_matrix

        back = load_matrix(path)
        assert np.abs(back - M).max() < 1e-15

    def test_save_into_missing_directory(self, tmp_path):
        with pytest.raises(IoError, match="cannot write matrix file"):
            save_matrix(np.eye(2), tmp_path / "nodir" / "m.json")


class TestMalformedMatrixFile:
    @pytest.mark.parametrize("doc", [
        {"im": [[0.0, 0.0], [0.0, 0.0]]},
        [[1.0, 0.0], [0.0, 1.0]],
        {"re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]},
    ], ids=["missing-re", "not-an-object", "non-square", "mismatched-im"])
    def test_exit_3_with_message(self, tmp_path, capsys, diag_files, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["eval", "--function", "fidelity", "--A", str(bad),
                   "--B", diag_files[1]])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"re": [[1.0, 0.0], [0.0', "cannot parse matrix file"),
        ('{"re": [[1.0, "x"], [0.0, 1.0]]}', "could not convert"),
    ], ids=["not-json", "non-numeric"])
    def test_unreadable_exit_3(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["eval", "--function", "geomean", "--t", "1/2", "--A", str(bad)])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(bad) in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"re": [[float("nan"), 0.0], [0.0, 1.0]]},
        {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, float("inf")], [0.0, 0.0]]},
    ], ids=["nan-re", "inf-im"])
    @pytest.mark.parametrize("argv", [
        ["emit", "--function", "lieb", "--t", "1/2", "--K", "{bad}", "--out", "{out}"],
        ["eval", "--function", "geomean", "--t", "1/2", "--A", "{bad}"],
        ["verify", "--function", "geomean", "--t", "1/2", "--A", "{bad}", "--trials", "1"],
    ], ids=["emit", "eval", "verify"])
    def test_non_finite_exit_3(self, tmp_path, capsys, doc, argv):
        bad, out = tmp_path / "bad.json", tmp_path / "m.dat-s"
        bad.write_text(json.dumps(doc))
        rc = main([a.format(bad=bad, out=out) for a in argv])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(bad) in err and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["emit", "--function", "upsilon", "--t", "1/2", "--K", "{bad}", "--out", "{out}"],
        ["eval", "--function", "upsilon", "--t", "1/2", "--K", "{bad}"],
        ["verify", "--function", "upsilon", "--t", "1/2", "--K", "{bad}", "--trials", "1"],
    ], ids=["emit", "eval", "verify"])
    def test_no_columns_exit_3(self, tmp_path, capsys, argv):
        bad, out = tmp_path / "bad.json", tmp_path / "m.dat-s"
        bad.write_text(json.dumps({"re": [[], []]}))
        rc = main([a.format(bad=bad, out=out) for a in argv])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(bad) in err and "nonempty" in err and "Traceback" not in err
        assert not out.exists()

    def test_rectangular_k_accepted(self, tmp_path, diag_files):
        # K need not be square or Hermitian
        K = tmp_path / "K.json"
        save_matrix(np.ones((2, 3)), K)
        B = tmp_path / "B3.json"
        save_matrix(np.eye(3), B)
        rc = main(["eval", "--function", "lieb", "--t", "1/2", "--A", diag_files[0],
                   "--B", str(B), "--K", str(K)])
        assert rc == 0


class TestNearOverflow:
    # finite entries near the largest double: no command may exit 0 after
    # printing a value that is not finite or writing a file that
    # import_sdpa rejects
    def write(self, tmp_path, name, diagonal):
        path = tmp_path / name
        path.write_text(json.dumps({"re": np.diag(diagonal).tolist()}))
        return str(path)

    def test_geomean_hermitian_part_stays_finite(self, tmp_path, capsys):
        # A/2 + A*/2 is finite where (A + A*)/2 overflows to nan
        argv = ["--function", "geomean", "--t", "1/2", "--A", self.write(tmp_path, "A.json", [1e308, 1e308]),
                "--B", self.write(tmp_path, "B.json", [2.0, 1.0])]
        assert main(["eval", *argv]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2 ** 0.5 * 1e154 + 1e154, rel=1e-11)
        out = tmp_path / "m.dat-s"
        assert main(["emit", *argv, "--out", str(out)]) == 0
        assert import_sdpa(out).lmis

    def test_tsallis_value_overflows(self, tmp_path, capsys):
        # the objective constant -tr A / t and the value overflow to -inf
        argv = ["--function", "tsallis", "--t", "1/2", "--A", self.write(tmp_path, "A.json", [5e307, 5e307])]
        assert main(["eval", *argv]) == 2
        assert "not finite" in capsys.readouterr().err
        out = tmp_path / "m.dat-s"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["emit", *argv, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestDomainChecks:
    # data or exponents outside a function's domain: eval exits 2 with the
    # oracle's message and emit with the builder's, and emit writes nothing
    CASES = [
        ("eval", "lieb", "--t 1/2 --K K32 --A A2 --B A2", "K has shape (3, 2), expected (2, 2)"),
        ("emit", "lieb", "--t 1/2 --K K32 --A A2 --B A2", "K must be 2 x 2, got (3, 2)"),
        ("eval", "geomean", "--t 1/2 --A A2 --B B3", "shapes (2, 2) and (3, 3) differ"),
        ("eval", "fidelity", "--A A2 --B B3", "shapes (2, 2) and (3, 3) differ"),
        ("emit", "fidelity", "--A A2 --B B3", "A and B must have equal dimensions"),
        ("eval", "tsallis_rel", "--t 1/2 --A A2 --B B3", "shapes (2, 2) and (3, 3) differ"),
        ("emit", "tsallis_rel", "--t 1/2 --A A2 --B B3", "A and B must have equal dimensions"),
        ("eval", "upsilon", "--t 1/2 --K K32 --A A2", "K has 3 rows, A is 2 x 2"),
        ("emit", "upsilon", "--t 1/2 --K K32 --A A2", "A must be 3 x 3, got (2, 2)"),
        ("eval", "upsilon", "--t 0 --K K32 --A A2", "t = 0 is not in the domain"),
        ("emit", "upsilon", "--t 0 --K K32 --A A2", "Upsilon is undefined at t = 0"),
        ("eval", "tsallis", "--t -1/2", "Tsallis parameter t=-1/2 outside (0, 1]"),
        ("emit", "tsallis", "--t -1/2", "Tsallis entropy requires t in (0,1], got -1/2"),
        ("eval", "tsallis_rel", "--t -1/2", "Tsallis parameter t=-1/2 outside (0, 1]"),
        ("emit", "tsallis_rel", "--t -1/2", "Tsallis relative entropy requires t in (0,1], got -1/2"),
    ]

    @pytest.mark.parametrize("command, function, args, message", CASES,
                             ids=[f"{c}-{f}-{'t=0' if '--t 0' in a else 't<0' if '-1/2' in a else 'shape'}"
                                  for c, f, a, _ in CASES])
    def test_exit_2(self, command, function, args, message, tmp_path, capsys):
        files = {}
        for name, M in (("A2", np.eye(2)), ("B3", np.eye(3)), ("K32", np.ones((3, 2)))):
            files[name] = str(tmp_path / f"{name}.json")
            save_matrix(M, files[name])
        out = tmp_path / "m.dat-s"
        extra = ["--out", str(out)] if command == "emit" else []
        argv = [command, "--function", function, *(files.get(a, a) for a in args.split()), *extra]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestFunctionTable:
    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_entry_is_wired(self, name, tmp_path, capsys):
        params = PARAMS[name]
        assert set(params[::2]) == {f"--{p}" for p in FUNCTIONS[name].params}
        assert main(["eval", "--function", name, "--n", "2", *params]) == 0
        assert np.isfinite(float(capsys.readouterr().out))
        out = tmp_path / "m.dat-s"
        assert main(["emit", "--function", name, "--n", "2", "--out", str(out), *params]) == 0
        assert out.exists()
        for i in range(0, len(params), 2):
            left_out = params[:i] + params[i + 2:]
            assert main(["eval", "--function", name, "--n", "2", *left_out]) == 2


class TestArgumentChecks:
    @pytest.mark.parametrize("extra", [
        ["eval", "--n", "0"], ["eval", "--n", "-1"],
        ["verify", "--trials", "0"], ["verify", "--trials", "-1"],
    ], ids=["n=0", "n=-1", "trials=0", "trials=-1"])
    def test_counts_below_one_exit_2(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main([extra[0], "--function", "geomean", "--t", "1/2", *extra[1:]])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_zero_denominator_exit_2(self, capsys):
        assert main(["eval", "--function", "geomean", "--t", "1/0"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["emit", "verify"])
    def test_geomean_sizes_differ_exit_2(self, command, tmp_path, capsys):
        A, B = tmp_path / "A.json", tmp_path / "B.json"
        save_matrix(np.eye(1), A)
        save_matrix(np.eye(2), B)
        extra = {"emit": ["--out", str(tmp_path / "m.dat-s")], "verify": ["--trials", "1"]}[command]
        assert main([command, "--function", "geomean", "--t", "1/2", "--A", str(A), "--B", str(B), *extra]) == 2
        assert "A and B must have equal dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "emit", "verify"])
    def test_kron_power_exponents_exit_2(self, command, tmp_path, capsys):
        # checked before any subcommand runs, so verify prints no table
        out = tmp_path / "m.dat-s"
        extra = {"eval": [], "emit": ["--out", str(out)], "verify": ["--trials", "1"]}[command]
        assert main([command, "--function", "kron_power", "--s", "1", "--t", "1/2", *extra]) == 2
        stdout, err = capsys.readouterr()
        assert "need s,t >= 0 and 0 < s+t <= 1" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "emit", "verify"])
    @pytest.mark.parametrize("weights, files", [
        ("1/2,1/4,1/4", True), ("1/2,1/2,1/2", True), ("1/2,1/2,1/2", False), ("3/2,-1/2", False),
        ("0.5,0.5", False),
    ], ids=["count", "count-and-sum", "sum", "negative", "decimal"])
    def test_multivariate_weights_exit_2(self, command, weights, files, diag_files, tmp_path, capsys):
        extra = {"eval": [], "emit": ["--out", str(tmp_path / "m.dat-s")],
                 "verify": ["--trials", "1"]}[command]
        argv = [command, "--function", "multivariate", "--weights", weights, *extra]
        if files:
            argv += ["--mats", ",".join(diag_files)]
        assert main(argv) == 2
        assert "weights" in capsys.readouterr().err
