"""Solve or export panels of tracelift models, one line per solve or model,
so that two versions' outputs can be compared with diff.

    python3 tools/sweep.py [--src DIR] [--panel P] [--threads N]

runs every panel of ``PANELS`` in turn, or only panel P:

- ``hard``: upsilon t = -1/2, 3/2, 1/2, lieb t = 1/3 and tsallis_rel t = 1/4
  at n = 2 on complex data, 40 trials for each of seeds 0, 5 and 7 (600
  solves), drawn in turn from ``default_rng(seed)`` as ``tracelift verify
  --trials 40`` draws them; ``hard-real`` draws real data;
- ``hard-n3``: the same functions at n = 3, one draw for each of seeds 0-9;
- ``lieb-convex``: lieb t = -1/2 and 3/2 at n = 3, seeds 0-29;
- ``lieb-2/3``: lieb t = 2/3 on K = random_matrix(2, 3, rng), A =
  random_pd(2, rng), B = random_pd(3, rng), seeds 0-39 (seed 0 is
  tests/test_solver.py's ``lieb_two_thirds``);
- ``functions``: every ``FUNCTIONS`` entry at t = 1/2, s = 1/3 and weights
  (1/2, 1/4, 1/4), seed 0, n = 2, real and complex data;
- ``sdpa``: no solve; the 260 models of acceptance criterion 10, drawn as
  ``tests/test_acceptance.py`` draws them, each realified, exported as
  SDPA, imported and exported again.

BLAS runs on one thread (``--threads``, set before numpy is imported),
because the thread count changes iteration counts.  Each panel prints a
header with its name, the Python and numpy versions and the thread count;
a line per solve (its status, each attempt's outcome and iterations, and
the first 16 hex digits of the SHA-256 of its ``y`` bytes) or per model
(the hashes of its export and re-export); then the number of solves, the
non-optimal ones and the iterations of every attempt, or the number of
SDPA files and the SHA-256 of their bytes.  Wall times go to standard
error, so standard output is reproducible.  ``--src`` imports tracelift
from another checkout's src/.  ``tools/ledger.txt`` is the output at one
BLAS thread, ``python3 tools/sweep.py > tools/ledger.txt``; a change that
alters a solve or a model regenerates it, and ``git diff`` shows each flip.
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
GEO_T = ["1/4", "1/3", "3/7", "1/2", "5/8", "2/3", "8/13", "-1/2", "-1", "3/2", "2"]
LIEB_T = ["1/3", "1/2", "2/3", "-1/2", "3/2"]
UPS_T = ["1/2", "-1/2", "3/2"]


class Panel(NamedTuple):
    """(function, t) pairs, or None for every ``FUNCTIONS`` entry at t = 1/2,
    then their seeds, trials, n (None draws lieb-2/3's 2 x 3 K) and data."""

    pairs: list | None
    seeds: range | tuple
    trials: int
    n: int | None
    kinds: tuple = ("complex",)


PANELS = {
    "hard": Panel(HARD_SET, (0, 5, 7), 40, 2),
    "hard-real": Panel(HARD_SET, (0, 5, 7), 40, 2, ("real",)),
    "hard-n3": Panel(HARD_SET, range(10), 1, 3),
    "lieb-convex": Panel([("lieb", "-1/2"), ("lieb", "3/2")], range(30), 1, 3),
    "lieb-2/3": Panel([("lieb", "2/3")], range(40), 1, None),
    "functions": Panel(None, (0,), 1, 2, ("real", "complex")),
    "sdpa": None,
}


def positive(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive count: {text!r}")
    return int(text)


def short_hash(data):
    return hashlib.sha256(data).hexdigest()[:16]


def draws(tl, np, panel):
    """The panel's (label, model) pairs, in the order they are drawn."""
    R, n = tl.RationalExponent, panel.n
    for fn, t in panel.pairs or [(name, "1/2") for name in tl.FUNCTIONS]:
        entry = tl.FUNCTIONS[fn]
        p = {"t": R.parse(t), "s": R(1, 3), "weights": [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]}
        for kind in panel.kinds:
            cplx = kind == "complex"
            for seed in panel.seeds:
                rng = np.random.default_rng(seed)
                for trial in range(panel.trials):
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
    """Solves each model and tallies the solves."""

    def __init__(self, tl):
        self.tl, self.count, self.failed, self.iterations = tl, 0, 0, 0

    def line(self, model):
        res = self.tl.solve(model)
        self.count += 1
        self.failed += not res.ok
        self.iterations += sum(a.iterations for a in res.attempts)
        per = " ".join(f"{a.outcome}:{a.iterations}" for a in res.attempts)
        return f"{res.status} {per} y={short_hash(res.y.tobytes())}"

    def summary(self):
        return f"solves {self.count} non-optimal {self.failed} iterations {self.iterations}"


class Exports:
    """Exports each realified model as SDPA to one file, imports it and
    exports it again to a second."""

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
        return "sdpa " + " ".join(short_hash(data) for data in files)

    def summary(self):
        return f"files {self.count} sha256 {self.digest.hexdigest()}"


def run(tl, np, name, threads, tmp):
    """Prints the panel's header, one line per solve or model and its summary."""
    panel = PANELS[name]
    print(f"# panel {name}: python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {threads}")
    start = time.perf_counter()
    if panel is None:
        items, tally = criterion_10_models(tl, np), Exports(tl, tmp)
    else:
        items, tally = draws(tl, np, panel), Solves(tl)
    for label, model in items:
        print(f"{label}: {tally.line(model)}")
    print(tally.summary())
    print(f"{name}: wall {time.perf_counter() - start:.1f} s", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the tracelift package (default: this checkout's src/)")
    ap.add_argument("--panel", choices=PANELS, help="the one panel to run (default: every panel, in turn)")
    ap.add_argument("--threads", type=positive, default=1, help="BLAS threads (default: 1)")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, args.src)
    import numpy as np
    import tracelift as tl

    with tempfile.TemporaryDirectory() as tmp:
        for name in [args.panel] if args.panel else PANELS:
            run(tl, np, name, args.threads, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
