"""The hard-set sweep of ROADMAP item 1: how often the solver misses
`optimal` on the n=2 instances that fail most.

    python3 tools/sweep.py [--src DIR] [--real] [--n N] [--seeds A-B] [--trials N] [--each]

Solves upsilon t = -1/2, 3/2, 1/2, lieb t = 1/3 and tsallis_rel t = 1/4 at
n = 2 (``--n``) with complex data (real with ``--real``), 40 trials
(``--trials``) for each of seeds 0, 5 and 7 (``--seeds``, a range A-B or
one seed; 600 solves).  Each (function, t, seed) draws its trials in turn
from ``default_rng(seed)``, as ``tracelift verify --trials 40`` does, and
BLAS runs on one thread, because the thread count changes iteration
counts.  ``--n 3 --seeds 0-9 --trials 1`` solves the first draw of seeds
0-9 at n = 3, the panel of ROADMAP item 3.  Prints each non-optimal solve (each solve, with the
outcome and iterations of every attempt, under ``--each``, so that the
outputs of two versions can be compared with diff), then one line: the
number of solves, how many were not optimal, the solver iterations summed
over every attempt of the retry ladder (``SolveResult.attempts``) and the
wall time.
``--src`` imports tracelift from another checkout's src/ directory, which
must export the ``FUNCTIONS`` table; for a version without ``attempts`` the
iteration sum reads n/a.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HARD_SET = [("upsilon", "-1/2"), ("upsilon", "3/2"), ("upsilon", "1/2"),
            ("lieb", "1/3"), ("tsallis_rel", "1/4")]
SEEDS = (0, 5, 7)
TRIALS = 40


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
    ap.add_argument("--real", action="store_true", help="draw real data instead of complex")
    ap.add_argument("--n", type=int, default=2, help="matrix size (default: 2)")
    ap.add_argument("--seeds", type=seed_range, default=SEEDS,
                    help="seeds A-B, or one seed (default: 0, 5 and 7)")
    ap.add_argument("--trials", type=positive, default=TRIALS,
                    help=f"draws per (function, t, seed) (default: {TRIALS})")
    ap.add_argument("--each", action="store_true",
                    help="print every solve with the outcome and iterations of each attempt")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    from tracelift import FUNCTIONS, RationalExponent, solve

    solves = failed = 0
    iters = 0  # None once a result has no attempts log
    start = time.perf_counter()
    for fn, t in HARD_SET:
        entry, p = FUNCTIONS[fn], {"t": RationalExponent.parse(t)}
        for seed in args.seeds:
            rng = np.random.default_rng(seed)
            for trial in range(args.trials):
                res = solve(entry.build(entry.draw(p, args.n, rng, not args.real), p).model)
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
