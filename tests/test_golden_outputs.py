"""Byte identity of the Monte Carlo experiments' outputs.

Each case pins the sha256 of one small config's records CSV followed by
its summary JSON, or of the `ValidationError` a refused config raises
(ge-check under gaussian noise, frozen without a mask).  The grid is every
experiment kind x bernoulli and gaussian noise x masks none and random:2 x
threads 1 and 3, with the gaussian baseline on for cond-tail and frozen.
The digests were recorded on commit 27ec4af, before the condition-tail
experiments were folded onto one trial pass; a change that promises the
same outputs must leave every case passing.
"""

import hashlib
import itertools

import pytest

from perturblab import (
    ExperimentConfig,
    ValidationError,
    condition_tail,
    format_records_csv,
    format_summary_json,
    frozen_entries_experiment,
    ge_error_experiment,
    minors_experiment,
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
    "tail-bernoulli-none": "701ad51dfc3d16f1b73314b61aa28d1d1f5ebb91fc7963ffc05e4b753da33b8a",
    "tail-bernoulli-random:2": "91369f3d2123f7e4dec1703eb37229ee213c871d01f4cbd5e6f8830a80d087d5",
    "tail-gaussian-none": "1f8f1ca6999bf716802456e0ab0ea6c77a0cec37131b9494067a0bc7395cbb6a",
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


def _digest(case: str) -> str:
    kind, noise, mask, threads = case.rsplit("-", 3)
    cfg = ExperimentConfig(
        kind=kind, sizes=(3,) if kind == "tail" else (3, 4),
        trials=100 if kind == "tail" else 10, seed=5,
        noise=noise, mask=mask, threads=int(threads[1:]), b_grid=(1.0, 2.0),
        grid_points=4, compare_gaussian=kind in ("cond-tail", "frozen"),
    )
    try:
        out = RUNNERS[kind](cfg)
        text = format_records_csv(out.records) + format_summary_json(out.summary())
    except ValidationError as exc:
        text = f"ValidationError: {exc}\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_digest(case):
    assert _digest(case) == GOLDEN[case.rsplit("-", 1)[0]]
