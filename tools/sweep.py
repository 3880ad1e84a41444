"""Solve or export panels of tracelift models, one line per solve or model,
so that two versions' outputs can be compared with diff.

    python3 tools/sweep.py [--src DIR] [--panel P] [--real] [--n N] [--seeds A-B]
                           [--trials N] [--threads N] [--each]

The default panel, ``hard``, solves upsilon t = -1/2, 3/2, 1/2, lieb t = 1/3
and tsallis_rel t = 1/4 at n = 2 (``--n``) with complex data (real with
``--real``), 40 trials (``--trials``) for each of seeds 0, 5 and 7
(``--seeds``, a range A-B or one seed; 600 solves).  Each (function, t,
data, seed) draws its trials in turn from ``default_rng(seed)``, as
``tracelift verify --trials 40`` does.  ``--n 3 --seeds 0-9 --trials 1``
is the n = 3 panel of ROADMAP item 3.  The other panels draw once per seed:

- ``lieb-2/3``: lieb t = 2/3 on K = random_matrix(2, 3, rng), A =
  random_pd(2, rng), B = random_pd(3, rng), seeds 0-39 (seed 0 is
  tests/test_solver.py's ``lieb_two_thirds``); it takes no ``--n``;
- ``lieb-convex``: lieb t = -1/2 and 3/2 at n = 3, seeds 0-29 (item 8);
- ``functions``: every ``FUNCTIONS`` entry at t = 1/2, s = 1/3 and weights
  (1/2, 1/4, 1/4), seed 0, n = 2, real and complex data (``--real``: real);
- ``sdpa``: no solve; the 260 models of acceptance criterion 10, drawn as
  ``tests/test_acceptance.py`` draws them, each realified, exported as
  SDPA, imported and exported again; it takes none of ``--real``, ``--n``,
  ``--seeds`` and ``--trials``.

BLAS runs on one thread (``--threads``, set before numpy is imported),
because the thread count changes iteration counts.  Prints a header with
the panel, the Python and numpy versions and the thread count; each
non-optimal solve, or under ``--each`` every solve and model: a solve's
status, each attempt's outcome and iterations and the first 16 hex digits
of the SHA-256 of its ``y`` bytes, or a model's hashes of its export and
re-export; then the number of solves, the non-optimal ones and the
iterations of every attempt, or the number of SDPA files and the SHA-256
of their bytes.  The wall time goes to standard error, so standard output
is reproducible.  ``--src`` imports tracelift from another checkout's src/.

``tools/ledger.txt`` is the ``--each`` output of the five hard panels, the
functions panel and the SDPA models, at one BLAS thread:

    for a in "" --real "--n 3 --seeds 0-9 --trials 1" "--panel lieb-convex" \\
             "--panel lieb-2/3" "--panel functions" "--panel sdpa"; do
        python3 tools/sweep.py --each $a
    done > tools/ledger.txt

A change that alters a solve or a model regenerates it; ``git diff`` shows
each flip.
"""

import argparse
import hashlib
import os
import platform
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HARD_SET = [("upsilon", "-1/2"), ("upsilon", "3/2"), ("upsilon", "1/2"),
            ("lieb", "1/3"), ("tsallis_rel", "1/4")]
SEEDS = (0, 5, 7)
TRIALS = 40
GEO_T = ["1/4", "1/3", "3/7", "1/2", "5/8", "2/3", "8/13", "-1/2", "-1", "3/2", "2"]
LIEB_T = ["1/3", "1/2", "2/3", "-1/2", "3/2"]
UPS_T = ["1/2", "-1/2", "3/2"]


class Panel(NamedTuple):
    """(function, t) pairs, or None for every ``FUNCTIONS`` entry at
    t = 1/2, and their default seeds, trials, n and data; an n of None
    draws lieb's rectangular K of ``lieb-2/3``."""

    pairs: list | None
    seeds: range | tuple
    trials: int
    n: int | None
    kinds: tuple = ("complex",)


PANELS = {
    "hard": Panel(HARD_SET, SEEDS, TRIALS, 2),
    "lieb-2/3": Panel([("lieb", "2/3")], range(40), 1, None),
    "lieb-convex": Panel([("lieb", "-1/2"), ("lieb", "3/2")], range(30), 1, 3),
    "functions": Panel(None, (0,), 1, 2, ("real", "complex")),
    "sdpa": None,
}


def seed_range(text):
    """``A-B`` as the seeds A to B, or ``A`` as one seed."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range A-B: {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def positive(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive count: {text!r}")
    return int(text)


def short_hash(data):
    return hashlib.sha256(data).hexdigest()[:16]


def draws(tl, np, panel, args):
    """The panel's (label, model) pairs, in the order they are drawn."""
    R, n = tl.RationalExponent, args.n or panel.n
    for fn, t in panel.pairs or [(name, "1/2") for name in tl.FUNCTIONS]:
        entry = tl.FUNCTIONS[fn]
        p = {"t": R.parse(t), "s": R(1, 3), "weights": [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]}
        for kind in ("real",) if args.real else panel.kinds:
            cplx = kind == "complex"
            for seed in args.seeds or panel.seeds:
                rng = np.random.default_rng(seed)
                for trial in range(args.trials or panel.trials):
                    if n is None:
                        K = tl.random_matrix(2, 3, rng, cplx)
                        A, B = tl.random_pd(2, rng, cplx), tl.random_pd(3, rng, cplx)
                        model = tl.build_lieb(K, A, B, p["t"]).model
                    else:
                        model = entry.build(entry.draw(p, n, rng, cplx), p).model
                    yield f"{fn} t={t} n={n or '2x3'} {kind} seed={seed} trial={trial}", model


def criterion_10_models(tl, np):
    """The (label, model) pairs of criterion 10, in its order: the census
    constructions, then the instances of criteria 3 and 5-8."""
    R, rng = tl.RationalExponent, np.random.default_rng
    for n in (2, 3):
        for t in ("5/8", "8/13"):
            yield f"geomean t={t} n={n} census", tl.build_geomean(tl.GeoMeanTask(R.parse(t), n)).model
    g = rng(20240817)
    for t in GEO_T:
        for n in (2, 3):
            for k in range(10):
                task = tl.GeoMeanTask(R.parse(t), n, A=tl.random_pd(n, g), B=tl.random_pd(n, g))
                yield f"geomean t={t} n={n} draw={k}", tl.build_geomean(task).model
    g = rng(7)
    for t in LIEB_T:
        for k in range(3):
            K, A, B = tl.random_matrix(2, 2, g), tl.random_pd(2, g), tl.random_pd(2, g)
            yield f"lieb t={t} draw={k}", tl.build_lieb(K, A, B, R.parse(t)).model
    g = rng(11)
    for t in UPS_T:
        for k in range(3):
            K, A = tl.random_matrix(2, 2, g), tl.random_pd(2, g)
            yield f"upsilon t={t} draw={k}", tl.build_upsilon(K, A, R.parse(t)).model
    g = rng(23)
    A, B = tl.random_density(3, g), tl.random_density(3, g)
    for k in range(2, 9):
        yield f"tsallis_rel t=1/{2 ** k}", tl.build_tsallis_rel_entropy(A, B, R(1, 2 ** k)).model
    g = rng(31)
    for k in range(5):
        A, B = tl.random_pd(2, g), tl.random_pd(2, g)
        yield f"fidelity draw={k}", tl.build_fidelity(A, B).model


class Solves:
    """Solves each model; a line is flagged when the solve is not optimal."""

    def __init__(self, tl):
        self.tl, self.count, self.failed, self.iterations = tl, 0, 0, 0

    def line(self, model):
        res = self.tl.solve(model)
        self.count += 1
        self.failed += not res.ok
        self.iterations += sum(a.iterations for a in res.attempts)
        per = " ".join(f"{a.outcome}:{a.iterations}" for a in res.attempts)
        return f"{res.status} {per} y={short_hash(res.y.tobytes())}", not res.ok

    def summary(self):
        return f"solves {self.count} non-optimal {self.failed} iterations {self.iterations}"


class Exports:
    """Exports each realified model as SDPA to one file, imports it and
    exports it again to a second; no line is flagged."""

    def __init__(self, tl, tmp):
        self.tl, self.count, self.digest = tl, 0, hashlib.sha256()
        self.first, self.again = Path(tmp) / "a.dat-s", Path(tmp) / "b.dat-s"

    def line(self, model):
        self.tl.export_sdpa(self.tl.realify(model)[0], self.first)
        self.tl.export_sdpa(self.tl.import_sdpa(self.first), self.again)
        files = [self.first.read_bytes(), self.again.read_bytes()]
        for data in files:
            self.digest.update(data)
        self.count += len(files)
        return "sdpa " + " ".join(short_hash(data) for data in files), False

    def summary(self):
        return f"files {self.count} sha256 {self.digest.hexdigest()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the tracelift package (default: this checkout's src/)")
    ap.add_argument("--panel", choices=PANELS, default="hard", help="the models to solve or export (default: hard)")
    ap.add_argument("--real", action="store_true",
                    help="draw real data only (default: complex; real and complex for functions)")
    ap.add_argument("--n", type=positive, help="matrix size (default: 2, or 3 for lieb-convex)")
    ap.add_argument("--seeds", type=seed_range,
                    help="seeds A-B, or one seed (default: 0, 5 and 7; 0-39 for lieb-2/3; "
                         "0-29 for lieb-convex; 0 for functions)")
    ap.add_argument("--trials", type=positive,
                    help=f"draws per (function, t, data, seed) (default: {TRIALS}; 1 for the other panels)")
    ap.add_argument("--threads", type=positive, default=1, help="BLAS threads (default: 1)")
    ap.add_argument("--each", action="store_true", help="print every solve or model")
    args = ap.parse_args(argv)
    panel = PANELS[args.panel]
    if panel is None and (args.real or args.n or args.seeds or args.trials):
        ap.error(f"--panel {args.panel} takes none of --real, --n, --seeds and --trials")
    if panel is not None and panel.n is None and args.n is not None:
        ap.error(f"--panel {args.panel} takes no --n")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, args.src)
    import numpy as np
    import tracelift as tl

    print(f"# panel {args.panel}: python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {args.threads}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        if panel is None:
            items, tally = criterion_10_models(tl, np), Exports(tl, tmp)
        else:
            items, tally = draws(tl, np, panel, args), Solves(tl)
        for label, model in items:
            text, flagged = tally.line(model)
            if args.each or flagged:
                print(f"{label}: {text}")
    print(tally.summary())
    print(f"wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
