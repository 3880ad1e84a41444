"""Benchmark of the tracelift verify and emit pipelines.

    python3 bench/run.py --workload verify_small --seed 0 --seconds 20 --trace 0

Runs whole rounds of one workload (see cases.py and README.md) for at
least ``--seconds`` seconds, checks every output against the independent
references in reference.py, and prints the metrics: the end-to-end ones
with ``--trace 0``, the per-layer ones with ``--trace 1``. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A fuller record of the run, spans included, goes to
bench/results/.

The package is imported from the checkout's src/ directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

import os

# one BLAS thread: the thread count changes solver iteration counts
# (README.md, run conditions)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

END_TO_END = {  # name: unit
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms.p50": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("build", "witness", "check", "solve", "oracle", "realify", "export", "import")
PER_LAYER = {f"{layer}.ms": "ms" for layer in LAYERS}
PER_LAYER.update({
    "solve.ms_per_iter": "ms",
    "solve.iters": "count",
    "solve.optimal": "count",
    "export.bytes": "B",
    "model.coords": "count",
    "model.psd_rows": "count",
    "traced.case_ms.p50": "ms",
})


def load_package():
    """Import tracelift from the checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    try:
        import tracelift
    except ImportError as exc:
        print(f"error: cannot import tracelift from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(tracelift.__file__).resolve().parent.parent != SRC:
        print(f"error: tracelift was imported from {tracelift.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import cases
    return cases


class Tracer:
    """Times each public call; spans stay in memory until the run ends."""

    def __init__(self):
        self.case = None
        self.spans = []  # (case number, layer, start s, end s)

    def call(self, layer, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.case, layer, start, time.perf_counter()))


def set_up(cases_mod, workload, seed, path1, path2):
    """Draw the round's inputs and pay the first-call costs."""
    cases = cases_mod.make_round(workload, seed)
    cases_mod.warm_up(cases, path1, path2)
    return cases


def time_set_up(workload, seed):
    """Wall time of one set-up in a fresh interpreter, imports included:
    what every ``tracelift`` invocation pays before its first case."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--setup-only"], check=True)
    return time.perf_counter() - start


def run(cases_mod, workload, seed, seconds, trace, path1, path2):
    def pipeline(case, call):
        if case.kind == "verify":
            return cases_mod.run_verify(case, call)
        return cases_mod.run_emit(case, call, path1, path2)

    setup = [time_set_up(workload, seed) for _ in range(SETUP_REPEATS)]
    cases = set_up(cases_mod, workload, seed, path1, path2)

    tracer = Tracer() if trace else None
    call = tracer.call if trace else cases_mod.untimed
    records, problems, seen = [], [], set()
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for case in cases:
            rec = {"case": case.label, "repeat": case.structure in seen}
            seen.add(case.structure)
            if tracer:
                tracer.case = len(records)
            t0 = time.perf_counter()
            try:
                out = pipeline(case, call)
            except Exception as exc:  # the program failed this case; keep going
                out, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            rec["ms"] = 1e3 * (time.perf_counter() - t0)
            if out is not None and case.kind == "verify":
                res = out[3]
                rec.update(status=res.status, iters=res.iterations)
                try:
                    problems += cases_mod.check_verify(case, out)
                except cases_mod.CaseFailed as exc:
                    rec["error"] = str(exc)
            elif out is not None:
                rec["bytes"] = path1.stat().st_size
                problems += cases_mod.check_emit(case, out, path1, path2)
            if tracer and out is not None:
                rec["coords"], rec["psd_rows"] = cases_mod.model_size(case, out)
            records.append(rec)
        rounds += 1

    metrics = {"setup_s": statistics.median(setup)}
    times = case_times(records, len(cases))
    metrics["cases_per_s"] = 1e3 * len(times) / sum(times)
    metrics["case_ms.p50"] = statistics.median(times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        metrics = layer_metrics(tracer.spans, records, rounds)
        metrics["traced.case_ms.p50"] = statistics.median(times)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "setup_s_each": setup,
        "repeat_share": sum(r["repeat"] for r in records) / len(records),
        "metrics": metrics, "problems": problems, "records": records,
        "spans": tracer.spans if tracer else [],
    }


def case_times(records, per_round):
    """Each case's median time (ms) over the run's rounds: a round repeats
    the same cases, and the median drops the slow outliers of a shared
    machine."""
    return [statistics.median(r["ms"] for r in records[i::per_round])
            for i in range(per_round)]


def layer_metrics(spans, records, rounds):
    n = len(records)
    busy = dict.fromkeys(LAYERS, 0.0)
    for _, layer, start, end in spans:
        busy[layer] += 1e3 * (end - start)
    out = {f"{layer}.ms": busy[layer] / n for layer in LAYERS}
    solved = [r for r in records if "iters" in r]
    iters = sum(r["iters"] for r in solved)
    out["solve.ms_per_iter"] = busy["solve"] / iters if iters else 0.0
    out["solve.iters"] = iters / len(solved) if solved else 0.0
    out["solve.optimal"] = sum(r["status"] == "optimal" for r in solved) / rounds
    emitted = [r["bytes"] for r in records if "bytes" in r]
    out["export.bytes"] = statistics.mean(emitted) if emitted else 0.0
    sized = [r for r in records if "coords" in r]
    out["model.coords"] = statistics.mean(r["coords"] for r in sized)
    out["model.psd_rows"] = statistics.mean(r["psd_rows"] for r in sized)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up (the run times this in child processes)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cases_mod = load_package()
    if args.workload not in cases_mod.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cases_mod.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix="sdpa-", dir=HERE) as scratch:
        paths = Path(scratch) / "a.dat-s", Path(scratch) / "b.dat-s"
        if args.setup_only:
            set_up(cases_mod, args.workload, args.seed, *paths)
            return 0
        result = run(cases_mod, args.workload, args.seed, args.seconds, args.trace, *paths)

    failed = [r for r in result["records"] if "error" in r]
    outdir = HERE / "results"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(result, indent=1))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds, "
          f"{len(result['records'])} cases attempted, {len(failed)} failed, "
          f"{result['repeat_share']:.0%} with a structure seen earlier in the run")
    for k, m in metrics.items():
        print(f"  {k:<20} {m['value']:12.4f} {m['unit']}")
    for r in failed[:5]:
        print(f"  failed: {r['case']}: {r['error']}", file=sys.stderr)
    for p in result["problems"][:5]:
        print(f"  check: {p}", file=sys.stderr)
    print(f"output checks: {'all passed' if not result['problems'] else 'FAILED'}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(result["records"]),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
