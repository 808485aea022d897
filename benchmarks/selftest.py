"""Self-test of the benchmark at tiny sizes.  Run from the repository root:

    python3 benchmarks/selftest.py

It checks that every metric named in BENCHMARK.json is emitted, that the
trace holds exactly one trial span per trial with the trial's spans
nested under it, that a record with one sigma nudged by 1e-6 relative is
counted as a failure, that the same seed gives the same call counts on two
runs, that a workload needing more threads than ``nproc`` is refused, and
that the benchmark fails without printing a result where there is no
program to run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
SEED = 11


def bench(workload: str, trace: int, cwd: str = ROOT, affinity=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    preexec = (lambda: os.sched_setaffinity(0, affinity)) if affinity else None
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, preexec_fn=preexec)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    counts = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            res = result_of(bench(name, trace))
            expect(sorted(res["metrics"]) == sorted(want[trace]),
                   f"{name} --trace {trace}: emits exactly the BENCHMARK.json metrics")
            expect(res["failed"] == 0 and res["correct"], f"{name} --trace {trace}: outputs pass the oracle")
        counts[name] = {k: v["value"] for k, v in res["metrics"].items() if k.endswith((".calls", ".count"))}

        tiny = workloads.make(name, tiny=True)
        if isinstance(tiny, workloads.MonteCarlo):
            with open(os.path.join(OUT_DIR, f"{name}-tiny-seed{SEED}.trace.jsonl"), encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            trials = [s for s in spans if s["name"] == "experiments.trial"]
            by_id = {s["id"]: s for s in spans}
            expected = tiny.trace_batches * tiny.trials
            expect(len(trials) == expected == len({s["trial"] for s in trials})
                   == res["metrics"]["experiments.trial.count"]["value"],
                   f"{name}: {expected} trials give {len(trials)} trial spans with distinct ids")
            nested = all(by_id[s["parent"]]["name"] == "records.run_trials" for s in trials)
            trial_ids = {s["trial"] for s in trials}
            svd = [s for s in spans if s["name"] == "linalg.svd"]
            expect(nested and len(svd) == expected and all(s["trial"] in trial_ids for s in svd),
                   f"{name}: trial spans sit under run_trials and each svd span carries its trial's id")

    for name in workloads.NAMES:
        again = {k: v["value"] for k, v in result_of(bench(name, 1))["metrics"].items()
                 if k.endswith((".calls", ".count"))}
        expect(again == counts[name], f"{name}: same seed, same call counts on two runs")

    cond = workloads.make("cond-tail-n100", tiny=True)
    cond.setup(SEED)
    batch = workloads.run_batch(cond, 0)
    clean = workloads.Check()
    cond.check([batch], clean)
    records = list(batch.output.records)
    r = records[0]
    nudged_max = r.sigma_max * (1.0 + 1e-6)
    records[0] = dataclasses.replace(r, sigma_max=nudged_max, kappa=nudged_max / r.sigma_min)
    corrupt = workloads.Check()
    cond.check([dataclasses.replace(batch, output=dataclasses.replace(batch.output, records=records))],
               corrupt)
    expect(clean.failed == 0 and corrupt.failed == 1 and corrupt.attempted == clean.attempted,
           "a sigma nudged by 1e-6 relative counts as exactly one failure")

    refused = bench("tail-gaussian-n50", 0, affinity={min(os.sched_getaffinity(0))})
    expect(refused.returncode != 0 and not refused.stdout.strip(),
           "a 2-thread workload is refused when nproc is 1")

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    lone = bench("ge-check-n20", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(lone.returncode != 0 and not lone.stdout.strip(),
           "with no program beside it the benchmark fails without a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
