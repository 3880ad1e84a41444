"""The hard-set sweep of ROADMAP item 1: how often the solver misses
`optimal` on the instances that fail most.

    python3 tools/sweep.py [--src DIR] [--panel P] [--real] [--n N] [--seeds A-B]
                           [--trials N] [--threads N] [--each]

The default panel, ``hard``, solves upsilon t = -1/2, 3/2, 1/2, lieb t = 1/3
and tsallis_rel t = 1/4 at n = 2 (``--n``) with complex data (real with
``--real``), 40 trials (``--trials``) for each of seeds 0, 5 and 7
(``--seeds``, a range A-B or one seed; 600 solves).  Each (function, t,
seed) draws its trials in turn from ``default_rng(seed)``, as ``tracelift
verify --trials 40`` does.  ``--n 3 --seeds 0-9 --trials 1`` solves the
first draw of seeds 0-9 at n = 3, the panel of ROADMAP item 3.  Two other
panels, one draw per seed by default:

- ``lieb-2/3``: lieb t = 2/3 on K = random_matrix(2, 3, rng), A =
  random_pd(2, rng), B = random_pd(3, rng), for seeds 0-39; the draw of
  seed 0 is tests/test_solver.py's ``lieb_two_thirds``.  It takes no
  ``--n``.
- ``lieb-convex``: lieb t = -1/2 and 3/2 at n = 3, for seeds 0-29; the
  panel of ROADMAP item 8.

BLAS runs on one thread (``--threads``, applied before numpy is imported),
because the thread count changes iteration counts.  Prints each
non-optimal solve (each solve, with the outcome and iterations of every
attempt, under ``--each``, so that the outputs of two versions can be
compared with diff), then one line: the number of solves, how many were
not optimal, the solver iterations summed over every attempt of the retry
ladder (``SolveResult.attempts``) and the wall time.
``--src`` imports tracelift from another checkout's src/ directory, which
must export the ``FUNCTIONS`` table; for a version without ``attempts`` the
iteration sum reads n/a.
"""

import argparse
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

HARD_SET = [("upsilon", "-1/2"), ("upsilon", "3/2"), ("upsilon", "1/2"),
            ("lieb", "1/3"), ("tsallis_rel", "1/4")]
SEEDS = (0, 5, 7)
TRIALS = 40


class Panel(NamedTuple):
    """(function, t) pairs and their default seeds, trials and n; an n of
    None draws lieb's rectangular K of ``lieb-2/3``."""

    pairs: list
    seeds: range | tuple
    trials: int
    n: int | None


PANELS = {
    "hard": Panel(HARD_SET, SEEDS, TRIALS, 2),
    "lieb-2/3": Panel([("lieb", "2/3")], range(40), 1, None),
    "lieb-convex": Panel([("lieb", "-1/2"), ("lieb", "3/2")], range(30), 1, 3),
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the tracelift package (default: this checkout's src/)")
    ap.add_argument("--panel", choices=PANELS, default="hard", help="the draws to solve (default: hard)")
    ap.add_argument("--real", action="store_true", help="draw real data instead of complex")
    ap.add_argument("--n", type=int, help="matrix size (default: 2, or 3 for lieb-convex)")
    ap.add_argument("--seeds", type=seed_range,
                    help="seeds A-B, or one seed (default: 0, 5 and 7; 0-39 for lieb-2/3; 0-29 for lieb-convex)")
    ap.add_argument("--trials", type=positive,
                    help=f"draws per (function, t, seed) (default: {TRIALS}; 1 for the other panels)")
    ap.add_argument("--threads", type=positive, default=1, help="BLAS threads (default: 1)")
    ap.add_argument("--each", action="store_true",
                    help="print every solve with the outcome and iterations of each attempt")
    args = ap.parse_args(argv)
    panel = PANELS[args.panel]
    if panel.n is None and args.n is not None:
        ap.error(f"--panel {args.panel} takes no --n")
    n = args.n or panel.n
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, args.src)
    import numpy as np
    import tracelift as tl

    def draw(fn, p, rng):
        cplx = not args.real
        if n is None:
            K = tl.random_matrix(2, 3, rng, cplx)
            A, B = tl.random_pd(2, rng, cplx), tl.random_pd(3, rng, cplx)
            return tl.build_lieb(K, A, B, p["t"]).model
        entry = tl.FUNCTIONS[fn]
        return entry.build(entry.draw(p, n, rng, cplx), p).model

    solves = failed = 0
    iters = 0  # None once a result has no attempts log
    start = time.perf_counter()
    for fn, t in panel.pairs:
        p = {"t": tl.RationalExponent.parse(t)}
        for seed in args.seeds or panel.seeds:
            rng = np.random.default_rng(seed)
            for trial in range(args.trials or panel.trials):
                res = tl.solve(draw(fn, p, rng))
                solves += 1
                failed += not res.ok
                attempts = getattr(res, "attempts", None)
                if args.each:
                    per = "n/a" if attempts is None else " ".join(
                        f"{a.outcome}:{a.iterations}" for a in attempts)
                    print(f"{fn} t={t} seed={seed} trial={trial}: {res.status} {per}")
                elif not res.ok:
                    print(f"{fn} t={t} seed={seed} trial={trial}: {res.status}")
                if attempts is None or iters is None:
                    iters = None
                else:
                    iters += sum(a.iterations for a in attempts)
    wall = time.perf_counter() - start
    print(f"solves {solves} non-optimal {failed} "
          f"iterations {'n/a' if iters is None else iters} wall {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
