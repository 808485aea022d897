"""perturblab benchmark: four workloads through the public API, one process.

Run from the repository root:

    python3 benchmarks/run.py --workload cond-tail-n100 --seed 1 --seconds 20 --trace 0

The process pins itself to one core.  ``--trace 0`` measures the
end-to-end metrics with no tracing: the median set-up time of five fresh
interpreters (``setup_s``), then batches of the workload for ``--seconds``
seconds (``ops_per_s``: each kind of batch at the lower quartile of its
calibrated times, see ``ops_per_s``), then the peak resident set size.
Both times are scaled to a reference speed by ``calibrate``.
``--trace 1`` runs a fixed number of batches untraced, the same batches
again under the tracer of ``spans.py``, and reports the per-layer metrics,
with the traced over untraced wall time as ``trace.overhead_ratio``.

Every output is checked by the workload's oracle after the timed part; an
operation that raised or failed its check counts in ``failed``.  The last
line of standard output is the result object; the lines before it carry
the run's metadata and context numbers.  Spans and a copy of the result
go under ``.bench_out/``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads: each workload owns its threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from statistics import median, quantiles

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# seconds one calibrate() pass takes on an idle core of a 2.1 GHz Xeon; the
# reference speed that ops_per_s and setup_s are scaled to
CAL_REF_S = 0.0018


def import_program():
    """Import perturblab from ``src/`` of the current checkout, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "perturblab", "__init__.py")):
        sys.exit("benchmark: no src/perturblab here; run from the root of a perturblab checkout")
    sys.path.insert(0, SRC)
    import perturblab

    if not os.path.abspath(perturblab.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported perturblab from {perturblab.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (which would
    walk up into enclosing repositories)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, workload) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": workload.threads,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def setup_seconds(args) -> float:
    """Median wall time, at the reference speed, of fresh interpreters that
    import perturblab, build the workload's laws and generate its first
    inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        times.append(elapsed * CAL_REF_S / ((before + after) / 2))
        before = after
    return median(times)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-test")
    return p.parse_args(argv)


def stem(args) -> str:
    """File stem of a run's outputs under .bench_out/."""
    return f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"


def calibrate(duration: float = 0.0) -> float:
    """Mean seconds per pass of a fixed kernel that does not touch perturblab,
    over at least ``duration`` seconds: an integer loop in the interpreter and
    small-matrix numpy column work, the two kinds of work the workloads do."""
    passes = 0
    t0 = time.perf_counter()
    while True:
        acc = 0
        for i in range(15000):
            acc += (i * i) % 7
        x = np.linspace(-1.0, 1.0, 2500).reshape(50, 50)
        ps, qs = np.arange(0, 50, 2), np.arange(1, 50, 2)
        for _ in range(20):
            np.einsum("ij,ij->j", x[:, ps], x[:, qs])
            x[:, ps] = 0.999 * x[:, ps] + 0.001 * x[:, qs]
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= duration:
            return elapsed / passes


def measure(workload, seconds: float) -> tuple[list, list]:
    """Batches for ``seconds``, and at least one of each kind in the workload
    mix, with calibration before the first batch and after each one, for a
    twentieth of the batch's time."""
    from workloads import run_batch

    kinds = {kind for kind, _ in workload.round}
    batches, cals = [], [calibrate()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or {b.kind for b in batches} != kinds:
        batches.append(run_batch(workload, len(batches)))
        cals.append(calibrate(batches[-1].seconds / 20))
    return batches, cals


def ops_per_s(workload, batches, cals) -> float:
    """Operations per second over one round of the workload mix.

    Neighbours on the host slow it by up to 2x, for seconds at a time.  Each
    batch time is therefore scaled to the reference speed by CAL_REF_S over
    the mean of the calibrations on either side of it, and each kind of
    batch is timed at the lower quartile of its scaled times: the quick
    quarter tracks the program, the slow rest tracks the neighbours.
    """
    ops = seconds = 0.0
    for kind, count in workload.round:
        same = [b for b in batches if b.kind == kind]
        times = sorted(b.seconds * CAL_REF_S * 2 / (cals[b.index] + cals[b.index + 1]) for b in same)
        low = quantiles(times, n=4, method="inclusive")[0] if len(times) > 1 else times[0]
        ops += count * same[0].ops
        seconds += count * low
    return ops / seconds


def traced_pass(workload):
    """Untraced then traced runs of the same fixed batches."""
    from spans import Tracer
    from workloads import run_batch

    plain = [run_batch(workload, i) for i in range(workload.trace_batches)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_batch(workload, i, tracer.span) for i in range(workload.trace_batches)]
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def run(args) -> dict:
    """One benchmark run; returns the result object and prints context lines."""
    import workloads
    from spans import layer_metrics

    workload = workloads.make(args.workload, tiny=args.tiny)
    if workload.threads > nproc():
        sys.exit(f"benchmark: {args.workload} needs {workload.threads} threads, nproc is {nproc()}")
    meta = metadata(args, workload)
    # one core, so the single-threaded calibration sees what the pool's threads see
    meta["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["pinned_cpu"]})
    metrics: dict[str, dict] = {}
    calibrate()  # numpy's first-call set-up stays out of the calibrations
    setup_s = None if args.trace else setup_seconds(args)

    workload.setup(args.seed)
    warm = workloads.make(args.workload, tiny=True)
    warm.setup(args.seed)
    workloads.run_batch(warm, 0)

    check = workloads.Check()
    if args.trace:
        plain, traced, tracer = traced_pass(workload)
        workload.check(plain + traced, check)
        batches = traced
        ratio = sum(b.seconds for b in traced) / sum(b.seconds for b in plain) - 1.0
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{stem(args)}.trace.jsonl"))
        for name, (value, unit) in layer_metrics(tracer).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        batches, cals = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check(batches, check)
        metrics["ops_per_s"] = {"value": ops_per_s(workload, batches, cals), "unit": "1/s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    context = {
        "batches": len(batches),
        "ops": sum(b.ops for b in batches),
        "error_rate": check.failed / check.attempted if check.attempted else None,
        "failures": check.notes,
        "science": workload.science(batches),
    }
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{stem(args)}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "context": context, **result}, fh, indent=1, sort_keys=True)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# context " + json.dumps(context, sort_keys=True, default=str))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    if args.setup_only:
        workloads.make(args.workload, tiny=args.tiny).setup(args.seed)
        return 0
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
