"""Benchmark of the bimoment pipeline: CLI fit, Monte-Carlo replications
and the wide-shape solver.

Run from the repository root:

    python3 bench/run.py --workload cli_fit_ratings --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Progress and
check failures go to standard error.  See ``bench/README.md``.
"""

import os
import sys
from time import perf_counter

START = perf_counter()

# One BLAS/OpenMP thread in every workload process.  This must happen
# before numpy is imported: OpenBLAS reads it when the library loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads BIMOMENT_* overrides; measure its defaults only.
for _var in [v for v in os.environ if v.startswith("BIMOMENT_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, unit_of  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"
WORKLOAD_NAMES = ("cli_fit_ratings", "simulate_100x100", "fit_wide_100x1500")
SETUP_REPEATS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced and untraced rounds and report "
                             "per-layer metrics")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name}: exited with code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def timed_phase(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.  With a tracer, each
    untraced round is followed by a traced one.  Returns the untraced and
    traced times of the successful operations, the counts, and the wall
    time of the phase."""
    times = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            workload.tracer = tracer if traced else None
            for op, check in workload.round():
                attempted += 1
                if traced:
                    tracer.op = len(times[True])
                    tracer.install()
                try:
                    t0 = perf_counter()
                    result = op()
                    elapsed = perf_counter() - t0
                except Exception:
                    log(f"operation {attempted} raised:\n{traceback.format_exc()}")
                    failed += 1
                    continue
                finally:
                    if traced:
                        tracer.uninstall()
                if check(result):
                    times[traced].append(elapsed)
                else:
                    log(f"operation {attempted} failed its check")
                    failed += 1
        workload.tracer = None
        if perf_counter() - start >= seconds:
            return times[False], times[True], attempted, failed, perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bimoment" / "__init__.py").is_file():
        log(f"error: no bimoment sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import bimoment
    if Path(bimoment.__file__).resolve().parent != SRC / "bimoment":
        log(f"error: imported bimoment from {bimoment.__file__}, not from {SRC}")
        return 2
    from workloads import WORKLOADS
    import_s = perf_counter() - START

    work_dir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result = run_workload(WORKLOADS[args.workload](ROOT, args.seed, work_dir),
                                  args, import_s, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()     # only when no other run is using it
    if result is None:
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_workload(workload, args, import_s, tracer):
    try:
        gen_s = []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.generate(k)
            gen_s.append(perf_counter() - t0)
        t0 = perf_counter()
        workload.warm_up()
        warm_s = perf_counter() - t0
    except Exception:
        log(f"error: set-up failed:\n{traceback.format_exc()}")
        return None
    setup_s = import_s + warm_s + statistics.median(gen_s)
    log(f"{workload.name}: set-up {setup_s:.3f} s (imports {import_s:.3f}, warm-up "
        f"{warm_s:.3f}, inputs {statistics.median(gen_s):.3f}); {_threads()} threads")

    untraced, traced, attempted, failed, wall = timed_phase(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        failures = workload.verify()
    except Exception:
        failures = [f"checks raised:\n{traceback.format_exc()}"]
    for msg in failures:
        log(f"CHECK FAILED: {msg}")
    ok = attempted - failed
    log(f"{workload.name}: {ok} of {attempted} operations ok in {wall:.2f} s, "
        f"median {statistics.median(untraced) if untraced else float('nan'):.4f} s; "
        f"checks {'passed' if not failures else 'FAILED'}")
    if not untraced or (tracer and not traced):
        return None

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_median_s": (statistics.median(untraced), "s"),
            "ops_per_s": (ok / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{workload.name}-seed{args.seed}.tsv.gz", START)
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _threads():
    """Thread count of this process (Linux), to show the BLAS pinning held."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(line.split()[1] for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return "?"


if __name__ == "__main__":
    sys.exit(main())
