"""Byte identity of the Monte Carlo experiments' outputs.

Each case pins the sha256 of one small config's records CSV followed by
its summary JSON, or of the `ValidationError` a refused config raises
(ge-check under gaussian noise, frozen without a mask).  The grid is every
experiment kind x bernoulli and gaussian noise x masks none and random:2 x
threads 1 and 3, with the gaussian baseline on for cond-tail and frozen.
The digests were recorded on commit 27ec4af, before the condition-tail
experiments were folded onto one trial pass; a change that promises the
same outputs must leave every case passing.  Two digests, tail-bernoulli-none
and tail-gaussian-none, were re-pinned once, when the tail curve's log-log
slope went from np.polyfit to a closed form.  These configs (n = 3, 4) are
under `svd_stack`'s preconditioner size floor, so their matrices are swept
as x, with no BLAS call: the digests do not depend on which OpenBLAS kernel
runs.  The route test below runs them through the preconditioner anyway,
with the floor lowered, and bounds what it moves.
"""

import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from perturblab import (
    ExperimentConfig,
    IntegerMatrix,
    RealMatrix,
    ValidationError,
    bernoulli,
    condition_tail,
    experiments,
    format_records_csv,
    format_summary_json,
    frozen_entries_experiment,
    ge_error_experiment,
    linalg,
    matrix_from_spec,
    minors_experiment,
    perturb,
    sample_iid_matrix,
    tail_curve,
)

RUNNERS = {
    "tail": tail_curve,
    "cond-tail": condition_tail,
    "ge-check": ge_error_experiment,
    "minors": minors_experiment,
    "frozen": frozen_entries_experiment,
}

# digest by kind-noise-mask; threads 1 and 3 must both give it
GOLDEN = {
    "tail-bernoulli-none": "42ab2e611e9d6261a8ac45a832505677773703850b18fc3b0e0d263fef82ffd1",
    "tail-bernoulli-random:2": "91369f3d2123f7e4dec1703eb37229ee213c871d01f4cbd5e6f8830a80d087d5",
    "tail-gaussian-none": "72cc313350bccc65d71d79d2c5791cad5918489cd6267c1db2f9c4cf8327ef98",
    "tail-gaussian-random:2": "91369f3d2123f7e4dec1703eb37229ee213c871d01f4cbd5e6f8830a80d087d5",
    "cond-tail-bernoulli-none": "0e07646de196509fabfce1ad25e07fd1676b48216bff8daac439eb6a24590362",
    "cond-tail-bernoulli-random:2": "64e0b8f23a6c2fec4517eba3f9a2d512ebeec2cc0e3867aad2694079fb3599c6",
    "cond-tail-gaussian-none": "b84a729f5665150a51128099c947b0500ae91ae1c52f0e9c21fc84fff5d9b25b",
    "cond-tail-gaussian-random:2": "aa3415fd242375e72ad7b656b865a05a70e50257a013056db59744d42796bd0d",
    "ge-check-bernoulli-none": "d481944a2d16818a37545d4ec93fec3e0f014b69ad9fa5e3cb0e610da0d6c28b",
    "ge-check-bernoulli-random:2": "2ccd1179ff1bdbd9bb178a9ea8199021734aef9948b1783cc4343351d0eb5786",
    "ge-check-gaussian-none": "70529b0d3d683fde48259771172ca0dc65d79a57fbf991add53ef2a926f332d9",
    "ge-check-gaussian-random:2": "70529b0d3d683fde48259771172ca0dc65d79a57fbf991add53ef2a926f332d9",
    "minors-bernoulli-none": "3a076042949da83c1751dfde442cb7d35dbd29d59d9922558c47c5a8bf4b7c3b",
    "minors-bernoulli-random:2": "b7bad98844879bd5c17ac15836f387d51303161552abd31429f2ec2ed1ac0dfc",
    "minors-gaussian-none": "0494818aab1aaa0c46c346a7288766abce5f2c0afc068f02278bd45fc132e046",
    "minors-gaussian-random:2": "fc38ae3118ec450ab805c7433bd1df643af0d9d3099ce2595c5a20a45cb0a85a",
    "frozen-bernoulli-none": "ce62a6c588c7ca2df67d1e0d248ac32dbb963b6f7d7f3f37f0285793184eee9b",
    "frozen-bernoulli-random:2": "9416bc8653c927926a8de48ab2d1cca9e1ca61f8262fcd4f1174a292fb14a38b",
    "frozen-gaussian-none": "ce62a6c588c7ca2df67d1e0d248ac32dbb963b6f7d7f3f37f0285793184eee9b",
    "frozen-gaussian-random:2": "03c1dc74da1fd4ad5ec9d858cebcb52a0f38ad83e03687f89106d3b42af36032",
}

CASES = [
    f"{kind}-{noise}-{mask}-t{threads}"
    for kind, noise, mask, threads in itertools.product(
        RUNNERS, ("bernoulli", "gaussian"), ("none", "random:2"), (1, 3)
    )
]


def _outputs(case: str):
    """The case's (records, summary JSON), or the ValidationError's message."""
    kind, noise, mask, threads = case.rsplit("-", 3)
    cfg = ExperimentConfig(
        kind=kind, sizes=(3,) if kind == "tail" else (3, 4),
        trials=100 if kind == "tail" else 10, seed=5,
        noise=noise, mask=mask, threads=int(threads[1:]), b_grid=(1.0, 2.0),
        grid_points=4, compare_gaussian=kind in ("cond-tail", "frozen"),
    )
    try:
        out = RUNNERS[kind](cfg)
    except ValidationError as exc:
        return f"ValidationError: {exc}\n"
    return out.records, format_summary_json(out.summary())


def _digest(case: str) -> str:
    out = _outputs(case)
    text = out if isinstance(out, str) else format_records_csv(out[0]) + out[1]
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_digest(case):
    assert _digest(case) == GOLDEN[case.rsplit("-", 1)[0]]


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


@pytest.mark.parametrize("case", CASES)
def test_preconditioned_route_keeps_every_flag_count_and_inf_entry(case, monkeypatch):
    # the same config through the plain Jacobi kernel: sigma may move by the
    # preconditioner's roundoff, and nothing else may.  These sizes are under
    # the preconditioner's size floor, so the floor is lowered to reach them;
    # raised past n, it sends every matrix down the plain kernel
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", 1)
    ours = _outputs(case)
    monkeypatch.setattr(linalg, "PRECONDITION_MIN_N", math.inf)
    kernel = _outputs(case)
    if isinstance(kernel, str):
        assert ours == kernel
        return
    assert len(ours[0]) == len(kernel[0])
    eps = np.finfo(float).eps
    for r, k in zip(*(sorted(out[0], key=lambda r: (r.n, r.trial)) for out in (ours, kernel))):
        assert (r.trial, r.seed, r.n, r.singular, r.tail_hit) == (k.trial, k.seed, k.n, k.singular, k.tail_hit)
        bound = 4 * r.n * eps * k.sigma_max
        assert abs(r.sigma_max - k.sigma_max) <= bound and abs(r.sigma_min - k.sigma_min) <= bound
        assert math.isinf(r.kappa) == math.isinf(k.kappa)
    ours, kernel = (list(_leaves(json.loads(out[1]))) for out in (ours, kernel))
    assert [path for path, _ in ours] == [path for path, _ in kernel]
    for (path, x), (_, y) in zip(ours, kernel):
        if isinstance(x, float) and isinstance(y, float):
            assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12), path
        else:  # counts, flags, nulls and the "inf" entries
            assert x == y, path


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return {f for line in fh if line.startswith("flags") for f in line.split(":", 1)[1].split()}
    except OSError:
        return set()


def _large_draws(n: int, count: int) -> list:
    """Gaussian draws and bernoulli draws on the graded diagonal, at a size the
    preconditioner takes."""
    graded = matrix_from_spec("graded_diagonal", n)
    return ([RealMatrix(experiments.gaussian_matrix(n, seed)) for seed in range(count)]
            + [perturb(graded, IntegerMatrix(sample_iid_matrix(bernoulli(), n, seed)))
               for seed in range(count)])


LARGE = {50: 40, 100: 8}  # draws of each kind per size
# ge-check past the golden sizes: its elimination and error norms run over
# vectors long enough for a BLAS kernel to sum them in its own order
GE_CHECK = ExperimentConfig(kind="ge-check", sizes=(20,), trials=300, seed=3, precision="single")


def _ge_check_digest() -> str:
    out = ge_error_experiment(GE_CHECK)
    text = format_records_csv(out.records) + format_summary_json(out.summary())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def kernel_outputs() -> dict:
    """Per OpenBLAS kernel, the threads-1 golden digests, the svd_stack
    spectra of the LARGE draws and the GE_CHECK digest, each kernel in a
    fresh interpreter, since OpenBLAS reads OPENBLAS_CORETYPE when it loads;
    Haswell only where the CPU has its AVX2 and FMA, and no AVX-512 kernel
    is forced, since the CPU may lack it."""
    import perturblab

    src = os.path.dirname(os.path.dirname(os.path.abspath(perturblab.__file__)))
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import test_golden_outputs as g\n"
        "digests = {c: g._digest(c) for c in g.CASES if c.endswith('-t1')}\n"
        "spectra = {n: [s.sigma for s in g.linalg.svd_stack(g._large_draws(n, k))]\n"
        "           for n, k in g.LARGE.items()}\n"
        "print(json.dumps([digests, spectra, g._ge_check_digest()]))\n"
    )
    kernels = [None, "Prescott"] + (["Haswell"] if {"avx2", "fma"} <= _cpu_flags() else [])
    runs = {}
    for kernel in kernels:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        runs[kernel] = json.loads(proc.stdout.strip().splitlines()[-1])
    return runs


@pytest.fixture(scope="module")
def kernel_runs(kernel_outputs) -> dict:
    """Per OpenBLAS kernel, the threads-1 golden digests and the LARGE spectra."""
    return {kernel: out[:2] for kernel, out in kernel_outputs.items()}


x86_64 = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                            reason="OpenBLAS kernel names are x86-64 ones")


@x86_64
def test_digests_do_not_depend_on_the_blas_kernel(kernel_runs):
    want = {case: GOLDEN[case.rsplit("-", 1)[0]] for case in CASES if case.endswith("-t1")}
    for kernel, (got, _) in kernel_runs.items():
        assert {c: d for c, d in got.items() if d != want[c]} == {}, kernel


@x86_64
def test_preconditioned_spectra_move_with_the_blas_kernel_by_roundoff_at_most(kernel_runs):
    # x V is kernel-independent only while no eigenbasis entry sits within
    # roundoff of a grid midpoint, so at n = 50 and 100 a rare spectrum may
    # move with the kernel; it may not move by more than the route's bound
    eps = np.finfo(float).eps
    base = kernel_runs[None][1]
    for kernel, (_, spectra) in kernel_runs.items():
        for n, rows in spectra.items():
            assert len(rows) == len(base[n]) == 2 * LARGE[int(n)]
            for got, ref in zip(rows, base[n]):
                bound = 4 * int(n) * eps * ref[0]
                assert max(abs(s - t) for s, t in zip(got, ref)) <= bound, (kernel, n)


@x86_64
def test_ge_check_does_not_depend_on_the_blas_kernel(kernel_outputs):
    digests = {kernel: ge for kernel, (_, _, ge) in kernel_outputs.items()}
    assert len(set(digests.values())) == 1, digests
