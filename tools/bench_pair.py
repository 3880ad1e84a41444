"""Paired benchmark runs of a base revision and HEAD, written as a
before/after pair of BENCH_*.json files at the repository root.

    python3 tools/bench_pair.py --base REV --workload W --pairs N --seconds S \\
        --seed K --label L [--trace 0|1]

Extracts REV and HEAD with ``git archive`` into the sibling directories
``parent/`` and ``change/`` of one temporary directory, so that the two
checkouts' paths have one length (the heap's layout, and with it
``peak_rss_mb``, moves with the path), and runs ``bench/run.py`` in each,
N times. Uncommitted changes are not measured: commit first. The side
that goes first alternates from pair to pair, so a drift in the machine's
load falls on both sides alike. From each run it reads the last JSON line
of standard output (the metrics) and ``bench/results/<W>-seed<K>-trace<T>.json``
(the per-case records).

Writes BENCH_<L>_parent.json (REV) and BENCH_<L>_change.json (HEAD). Each
holds every run's metrics and their medians; each case's solver status and
iterations (verify workloads) or SDPA bytes (emit), as seen in every round
of every run; the Python and numpy versions and the CPU count; the seed;
and the commit. The change's file also holds, under ``pairs``, for each
end-to-end metric of BENCHMARK.json: each pair's change/parent ratio, the
ratios' median and quartiles, the pairs the change won (by the metric's
``better``) and the parent's quartile spread (Q3 - Q1 of its runs). Both
sides drift with the machine's load, so the ratios within pairs resolve
more than the two sides' medians; they are printed on standard error too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, args) -> dict:
    """One bench/run.py run in ``tree``: its metrics and its case records."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = json.loads((tree / "bench" / "results" / name).read_text())
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "rounds": result["rounds"],
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
        "records": result["records"],
    }


def case_outcomes(runs) -> list:
    """Per case of a round, each field's distinct values over every round of
    every run: one value when the runs agree, a sorted list when not."""
    per_round = len(runs[0]["records"]) // runs[0]["rounds"]
    out = []
    for i in range(per_round):
        recs = [r for run in runs for r in run["records"][i::per_round]]
        entry = {"case": recs[0]["case"]}
        for key in ("status", "iters", "bytes", "error"):
            seen = sorted({r[key] for r in recs if key in r}, key=str)
            if seen:
                entry[key] = seen[0] if len(seen) == 1 else seen
        out.append(entry)
    return out


def pair_stats(runs) -> dict:
    """Per end-to-end metric of BENCHMARK.json: the ratios change/parent of
    each pair, their median and quartiles, the pairs the change won and the
    parent's quartile spread."""
    out = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        ratios = [c / p for c, p in zip(change, parent)]
        q1, median, q3 = np.percentile(ratios, [25, 50, 75])
        p1, p3 = np.percentile(parent, [25, 75])
        lower = metric["better"] == "lower"
        out[name] = {
            "ratios": ratios,
            "ratio_median": median,
            "ratio_quartiles": [q1, q3],
            "won": sum(c < p if lower else c > p for c, p in zip(change, parent)),
            "pairs": len(ratios),
            "parent_spread": p3 - p1,
        }
    return out


def side_doc(side, commit, runs, args) -> dict:
    metrics = list(runs[0]["metrics"])
    return {
        "label": args.label,
        "side": side,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "median": {k: statistics.median(r["metrics"][k] for r in runs) for k in metrics},
        "runs": [{k: r[k] for k in ("first", "correct", "attempted", "failed", "rounds",
                                    "metrics")} for r in runs],
        "cases": case_outcomes(runs),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--label", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    commits = {"parent": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
               "change": git("rev-parse", "HEAD")}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            tree.mkdir()
            archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commits[side]],
                                       stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
            if archive.wait() != 0:
                sys.exit(f"git archive {commits[side]} failed")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args)
                run["first"] = side == order[0]
                runs[side].append(run)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr)

    pairs = pair_stats(runs)
    for name, st in pairs.items():
        spread = st["parent_spread"] / statistics.median(r["metrics"][name] for r in runs["parent"])
        print(f"{name}: ratio median {st['ratio_median']:.3f} "
              f"[{st['ratio_quartiles'][0]:.3f}, {st['ratio_quartiles'][1]:.3f}], "
              f"won {st['won']}/{st['pairs']}, parent spread {st['parent_spread']:.4g} "
              f"({100 * spread:.1f} % of its median)", file=sys.stderr)
    for side, commit in commits.items():
        doc = side_doc(side, commit, runs[side], args)
        if side == "change":
            doc["pairs"] = pairs
        path = ROOT / f"BENCH_{args.label}_{side}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
