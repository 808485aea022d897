"""What importing perturblab costs in resident memory and start-up time,
and the pieces kept small to hold it down: no OpenSSL, executor machinery,
logging or mpmath until a caller needs it, no per-instance __dict__ on the
frozen records, and a Jacobi stack that holds about two copies of itself and
lets them go before its exact verdict."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import perturblab
from perturblab import (IntegerMatrix, RealMatrix, bernoulli, experiments, rational, sample_iid_matrix,
                        svd_stack)
from perturblab.gaps import NO_EXCLUSIONS
from perturblab.util import derive_seed

SRC = os.path.dirname(os.path.dirname(os.path.abspath(perturblab.__file__)))


def test_inverse_search_loads_neither_openssl_nor_executors():
    # hashlib loads OpenSSL (_hashlib, about 3.5 MB resident); derive_seed
    # and the threaded trial runner import what they need when called
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "import perturblab\n"
        "perturblab.inverse_lo_search((3, 5, 8, -2), Fraction(1, 4), a_exponent=4.0)\n"
        "print(json.dumps([m for m in ('_hashlib', 'concurrent.futures') if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_import_leaves_configparser_out():
    # config files go through the shared line reader of perturblab.util
    script = "import sys\nimport perturblab\nprint('configparser' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_import_leaves_logging_out():
    # only inverse_lo_search's counterexample warning loads logging (about 0.4 MB)
    script = "import sys\nimport perturblab\nprint('logging' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_bernoulli_condition_tail_never_imports_mpmath():
    # mpmath (about 35 ms to import) serves only the discretized Gaussian
    script = (
        "import sys\n"
        "import perturblab\n"
        "perturblab.condition_tail(perturblab.ExperimentConfig(\n"
        "    kind='cond-tail', sizes=(8,), trials=5, noise='bernoulli'))\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("args, seed", [
    ((0,), 9523843951405948789),
    ((20260818, "cond-tail", 100, 7), 1015074345390643081),
    ((1, "tail-gaussian", 50, 0), 12867843340617309194),
    ((-5, "x", 2.5, None), 8644428285217308067),
    ((2**70, "", "ü"), 17271396516800703850),
])
def test_derive_seed_is_pinned(args, seed):
    assert derive_seed(*args) == seed


def _frozen_dataclasses():
    for info in pkgutil.iter_modules(perturblab.__path__):
        module = importlib.import_module(f"perturblab.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen):
                yield obj


def test_every_frozen_dataclass_has_slots():
    classes = list(_frozen_dataclasses())
    assert len(classes) > 20
    assert [c.__qualname__ for c in classes if "__slots__" not in vars(c)] == []


def test_covers_that_exclude_nothing_share_one_empty_set():
    for v in ((5, 5, 5), (3, 5, 8, -2), (0, 0)):
        assert perturblab.inverse_lo_search(v, Fraction(1, 4), a_exponent=4.0).found.excluded is NO_EXCLUSIONS


@pytest.mark.parametrize("n", [20, 50, 100])
def test_svd_stack_holds_about_two_copies_of_its_stack(n):
    # the stack and one idle buffer of its size, of which every large
    # temporary of a sweep, the Gram test's included, is a view; at the
    # chunks of ge-check (n = 20, 163 matrices), tail (n = 50, 26 matrices)
    # and cond-tail (n = 100, 6 matrices)
    count = experiments.STACK_ENTRIES // (n * n)
    matrices = [RealMatrix(experiments.gaussian_matrix(n, seed)) for seed in range(count)]
    tracemalloc.start()
    try:
        svd_stack(matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * count * n * n * 8


@pytest.mark.parametrize("n, integer", [(20, True), (50, False), (100, False)])
def test_svd_stack_releases_its_stack_before_the_exact_verdict(n, integer, monkeypatch):
    # the exact elimination of the integer draws SINGULAR_RTOL does not clear
    # runs after the sweeps, on the chunks of ge-check (163 integer 20 x 20
    # matrices), tail (26 gaussian 50 x 50) and cond-tail (6 gaussian 100 x 100)
    count = experiments.STACK_ENTRIES // (n * n)
    if integer:
        matrices = [IntegerMatrix(sample_iid_matrix(bernoulli(), n, seed)) for seed in range(count)]
    else:
        matrices = [RealMatrix(experiments.gaussian_matrix(n, seed)) for seed in range(count)]
    flags, held = rational.singular_flags, []
    monkeypatch.setattr(rational, "singular_flags",
                        lambda entries: held.append(tracemalloc.get_traced_memory()[0]) or flags(entries))
    tracemalloc.start()
    try:
        svd_stack(matrices)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 0.5 * count * n * n * 8
