"""One hash over tracelift's SDPA output and solves, to show whether a
change leaves both bit-identical, and which solves it alters if not.

    python3 tools/fingerprint.py [--src DIR]

Hashes, with SHA-256:

- the SDPA bytes of the first export and of the re-export (export, import,
  export) of each of the 260 models of acceptance criterion 10, rebuilt
  here from the same seeds as ``tests/test_acceptance.py`` draws them;
- the status, iterations, ``y`` bytes and objective ``repr`` of the solve
  of every ``FUNCTIONS`` entry on its first n = 2 draw from
  ``default_rng(0)``, with real and with complex data.

Prints one line with the number of SDPA files and the hash of their bytes
alone, so that a change that alters solves can still show its SDPA output
unchanged; then one line per solve -- function, data, status, iterations
and the hash of that solve's part -- so that the solves two versions
differ in show; then one line: the number of files and solves hashed, and
the hash of both.
BLAS runs on one thread, because the thread count changes iteration counts.
``--src`` imports tracelift from another checkout's src/ directory, so
that the lines of two versions can be compared.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

GEO_T = ["1/4", "1/3", "3/7", "1/2", "5/8", "2/3", "8/13", "-1/2", "-1", "3/2", "2"]
LIEB_T = ["1/3", "1/2", "2/3", "-1/2", "3/2"]
UPS_T = ["1/2", "-1/2", "3/2"]


def criterion_10_models(tl):
    """The models of criterion 10, in its order: the census constructions,
    then the instances of criteria 3 and 5-8."""
    R, rng = tl.RationalExponent, np.random.default_rng
    for n in (2, 3):
        for t in (R(5, 8), R(8, 13)):
            yield tl.build_geomean(tl.GeoMeanTask(t, n)).model
    g = rng(20240817)
    for t in GEO_T:
        for n in (2, 3):
            for _ in range(10):
                A, B = tl.random_pd(n, g), tl.random_pd(n, g)
                yield tl.build_geomean(tl.GeoMeanTask(R.parse(t), n, A=A, B=B)).model
    g = rng(7)
    for t in LIEB_T:
        for _ in range(3):
            K, A, B = tl.random_matrix(2, 2, g), tl.random_pd(2, g), tl.random_pd(2, g)
            yield tl.build_lieb(K, A, B, R.parse(t)).model
    g = rng(11)
    for t in UPS_T:
        for _ in range(3):
            K, A = tl.random_matrix(2, 2, g), tl.random_pd(2, g)
            yield tl.build_upsilon(K, A, R.parse(t)).model
    g = rng(23)
    A, B = tl.random_density(3, g), tl.random_density(3, g)
    for k in range(2, 9):
        yield tl.build_tsallis_rel_entropy(A, B, R(1, 2 ** k)).model
    g = rng(31)
    for _ in range(5):
        A, B = tl.random_pd(2, g), tl.random_pd(2, g)
        yield tl.build_fidelity(A, B).model


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the tracelift package (default: this checkout's src/)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import tracelift as tl

    digest, sdpa, files, solves = hashlib.sha256(), hashlib.sha256(), 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.dat-s", Path(tmp) / "b.dat-s"
        for model in criterion_10_models(tl):
            tl.export_sdpa(tl.realify(model)[0], p1)
            tl.export_sdpa(tl.import_sdpa(p1), p2)
            for path in (p1, p2):
                digest.update(path.read_bytes())
                sdpa.update(path.read_bytes())
            files += 2
    print(f"files {files} sha256 {sdpa.hexdigest()}")
    p = {"t": tl.RationalExponent(1, 2), "s": tl.RationalExponent(1, 3),
         "weights": [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]}
    for name, entry in tl.FUNCTIONS.items():
        for complex_ in (False, True):
            data = entry.draw(p, 2, np.random.default_rng(0), complex_)
            res = tl.solve(entry.build(data, p).model)
            part = f"{name} {complex_} {res.status} {res.iterations} {res.objective!r}".encode() + res.y.tobytes()
            digest.update(part)
            solves += 1
            kind = "complex" if complex_ else "real"
            print(f"{name} {kind} {res.status} {res.iterations} {hashlib.sha256(part).hexdigest()[:16]}")
    print(f"files {files} solves {solves} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
