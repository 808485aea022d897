"""Acceptance gate: twelve pre-registered desk-scale checks.

Each test prints one PASS/FAIL line through the capture so the gate is
readable straight off the pytest output.  Budgets and tolerances are
fixed here on purpose; loosening them is not an option.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from perturblab import (
    ExperimentConfig,
    Gap,
    IntegerMatrix,
    RealMatrix,
    bernoulli,
    certificate_from_symmetric,
    check_dominance,
    condition_tail,
    discretize_rank1,
    discretized_gaussian,
    exact_inverse_norm,
    fourier_bound,
    frobenius_norm,
    ge_error_experiment,
    greedy_net,
    inverse_lo_search,
    lazy_coin,
    operator_norm,
    singularity_probability,
    solve_exact,
    sumset,
    svd,
    symmetric_chain_margins,
    tail_curve,
    verify_certificate,
    verify_discretization,
)
from perturblab.concentration import ConcentrationQuery
from perturblab.rational import determinant
from perturblab.records import write_records_csv

from oracles import quad_cosine_product, singularity_by_enumeration


@contextmanager
def criterion(capsys, num, text):
    t0 = time.time()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} FAIL  {text}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} PASS  {text}  [{time.time() - t0:.1f}s]")


BUILTINS = (
    bernoulli(),
    lazy_coin(0.1),
    lazy_coin(0.5),
    lazy_coin(1.0),
    discretized_gaussian(),
)


def test_criterion_01_dominance_suite(capsys):
    with criterion(capsys, 1, "exact concentration <= cosine bound on 260 instances"):
        t0 = time.time()
        rng = np.random.Generator(np.random.PCG64(101))
        checked = 0
        while checked < 260:
            n = int(rng.integers(1, 13))
            v = tuple(int(x) for x in rng.integers(-20, 21, size=n))
            if not any(v):
                continue
            dist = BUILTINS[int(rng.integers(len(BUILTINS)))]
            certs = [certificate_from_symmetric(dist)] * n
            report = check_dominance(ConcentrationQuery(dists=(dist,) * n), v, certs)
            assert float(report.exact) <= report.bound + 1e-12, (v, dist.name, report)
            checked += 1
        assert checked >= 200
        assert time.time() - t0 <= 60.0


def test_criterion_02_fourier_equals_quadrature(capsys):
    with criterion(capsys, 2, "equispaced average == adaptive quadrature on 50 instances"):
        rng = np.random.Generator(np.random.PCG64(202))
        for _ in range(50):
            n = int(rng.integers(1, 9))
            v = tuple(int(x) for x in rng.integers(-20, 21, size=n))
            dist = BUILTINS[int(rng.integers(len(BUILTINS)))]
            cert = certificate_from_symmetric(dist)
            q = ConcentrationQuery(dists=(dist,) * n, multipliers=(cert.k,) * n)
            got = fourier_bound(q, v, cert.mu)
            freqs = [abs(cert.k * w) for w in v if w != 0]
            want = quad_cosine_product(freqs, Fraction(cert.mu))
            assert abs(got - want) <= 1e-10, (v, dist.name, got, want)


def test_criterion_03_certificates_and_chain(capsys):
    with criterion(capsys, 3, "(1/4, 2) certificate and two-step cosine chain"):
        cert = certificate_from_symmetric(bernoulli())
        assert cert.mu == Fraction(1, 4) and cert.k == 2
        check = verify_certificate(bernoulli(), cert, grid_size=4096)
        assert check.ok and check.grid_size == 4096
        assert check.worst_margin >= 0.0
        for dist in (lazy_coin(0.1), lazy_coin(0.5), lazy_coin(1.0), discretized_gaussian()):
            c = certificate_from_symmetric(dist)
            step1, step2 = symmetric_chain_margins(dist, c.k // 2, 4096)
            assert step1 >= -1e-12, (dist.name, step1)
            assert step2 >= -1e-12, (dist.name, step2)


def test_criterion_04_svd_against_exact_inverse(capsys):
    with criterion(capsys, 4, "sigma_min * ||M^-1|| = 1 and Frobenius sandwich, 100 matrices"):
        rng = np.random.Generator(np.random.PCG64(404))
        done = 0
        while done < 100:
            n = int(rng.integers(2, 9))
            entries = rng.integers(-9, 10, size=(n, n))
            if determinant(entries.tolist()) == 0:
                continue
            m = IntegerMatrix(entries.astype(np.int64))
            sigma = svd(m).sigma
            inv_norm = exact_inverse_norm(m)
            assert abs(sigma[-1] * inv_norm - 1.0) <= 1e-8, (n, sigma[-1], inv_norm)
            fro = frobenius_norm(m)
            assert sigma[0] <= fro + 1e-9
            assert fro <= np.sqrt(n) * sigma[0] + 1e-9
            done += 1


def test_criterion_05_gaussian_tail_slope(capsys):
    with criterion(capsys, 5, "gaussian inverse-norm tail slope in [-1.3, -0.7]"):
        t0 = time.time()
        cfg = ExperimentConfig(
            kind="tail", sizes=(50,), trials=2000, seed=505, noise="gaussian", threads=1
        )
        slope = tail_curve(cfg).curves[50].slope
        assert slope is not None
        assert -1.3 <= slope <= -0.7, slope
        assert time.time() - t0 <= 300.0


@pytest.mark.slow
def test_criterion_06_discrete_condition_tail(capsys):
    with criterion(capsys, 6, "graded diagonal + signs: P(kappa >= n^5) <= 0.01"):
        t0 = time.time()
        cfg = ExperimentConfig(
            kind="cond-tail",
            sizes=(100,),
            trials=1000,
            seed=606,
            noise="bernoulli",
            matrix="graded_diagonal",
            c_exponent=1.0,
            b_grid=(5.0,),
            threads=1,
        )
        row = condition_tail(cfg).tables[100][0]
        assert row.b == 5.0
        assert row.fraction <= 0.01, row
        assert time.time() - t0 <= 600.0


def test_criterion_07_exact_singularity(capsys):
    with criterion(capsys, 7, "P(det = 0) exact at n = 2, 3 under both orders"):
        assert singularity_probability(2, bernoulli()) == Fraction(1, 2)
        by_rows = singularity_probability(3, bernoulli(), order="rows")
        by_cols = singularity_probability(3, bernoulli(), order="cols")
        assert isinstance(by_rows, Fraction) and by_rows == by_cols
        assert by_rows == singularity_by_enumeration(3, (-1, 1))


def test_criterion_08_discretization_clauses(capsys):
    with criterion(capsys, 8, "rank-1 discretization verifies on 100 random instances"):
        rng = np.random.Generator(np.random.PCG64(808))
        for _ in range(100):
            g = int(rng.integers(1, 51))
            n = int(rng.integers(1, 501))
            r0 = int(rng.integers(1, 101))
            s = int(rng.integers(1, 11))
            p = Gap(generators=(Fraction(g),), dims=(n,))
            out = discretize_rank1(p, r0=r0, s=s)
            rep = verify_discretization(p, out)
            assert rep.scale and rep.smallness and rep.sparseness and rep.covering, (
                g, n, r0, s, rep,
            )
            cover = set(sumset(out.p_small, out.p_sparse).elements())
            for x in p.elements():
                assert x in cover, (g, n, r0, s, x)


def test_criterion_09_epsilon_net(capsys):
    with criterion(capsys, 9, "l = 3 net: <= 125 points, separated, covers 1e5 samples"):
        net = greedy_net(3, 0.5, seed=909)
        points = net.points
        assert len(points) <= 125
        # pairwise separation strictly above 1/2, decided in exact arithmetic
        exact = [tuple(Fraction(x) for x in p) for p in points]
        quarter = Fraction(1, 4)
        for i in range(len(exact)):
            for j in range(i + 1, len(exact)):
                d2 = sum((a - b) ** 2 for a, b in zip(exact[i], exact[j]))
                assert d2 > quarter, (i, j, float(d2))
        rng = np.random.Generator(np.random.PCG64(910))
        samples = rng.standard_normal((100_000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        grid = np.asarray(points, dtype=float)
        # unit vectors: ||x - p||^2 = 2 - 2 x.p, so max dot <-> min distance
        best = (samples @ grid.T).max(axis=1)
        worst_dist = float(np.sqrt(np.maximum(2.0 - 2.0 * best.min(), 0.0)))
        assert worst_dist <= 0.5, worst_dist


def test_criterion_10_inverse_search_smoke(capsys, caplog):
    with criterion(capsys, 10, "20 concentrated vectors -> small cover, nothing excluded"):
        mu = Fraction(1, 4)
        vectors = [(c,) * n for c, n in zip((1, 2, 3, 4, 5, 1, 2, 3, 4, 5),
                                            (8, 8, 8, 8, 8, 16, 16, 12, 12, 16))]
        vectors += [
            tuple(a + d * k for k in range(n))
            for a, d, n in (
                (1, 1, 8), (1, 1, 12), (1, 1, 16), (2, 3, 8), (2, 3, 12),
                (5, 5, 12), (7, 2, 10), (1, 4, 14), (3, 1, 16), (10, 10, 8),
            )
        ]
        assert len(vectors) == 20
        with caplog.at_level("WARNING", logger="perturblab.gaps"):
            for v in vectors:
                out = inverse_lo_search(v, mu, a_exponent=4.0)
                assert out.hypothesis_holds, ("trigger must fire", v)
                assert not out.counterexample_candidate, v
                assert out.found is not None, v
                assert out.found.gap.rank <= 2, v
                assert out.found.gap.volume <= 2001, v
                assert out.found.excluded == frozenset(), v
        assert not caplog.records


def test_criterion_11_thread_count_invariance(tmp_path, capsys):
    with criterion(capsys, 11, "1-thread and 8-thread runs emit byte-identical CSV"):
        outputs = []
        for threads in (1, 8):
            cfg = ExperimentConfig(
                kind="tail", sizes=(20,), trials=150, seed=1111, threads=threads
            )
            path = tmp_path / f"tail-{threads}.csv"
            write_records_csv(str(path), tail_curve(cfg).records)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_12_elimination_error_model(capsys):
    with criterion(capsys, 12, "single-precision error within 100 eps kappa; exact path exact"):
        cfg = ExperimentConfig(
            kind="ge-check", sizes=(20,), trials=700, seed=1212, precision="single"
        )
        out = ge_error_experiment(cfg)
        assert out.eps_machine == 2.0**-24
        well = [
            t for t in out.trials
            if not t.singular and np.isfinite(t.kappa) and t.kappa <= 1e3
        ]
        assert len(well) >= 500, len(well)
        sample = well[:500]
        good = sum(1 for t in sample if t.ratio <= 100.0)
        assert good >= 0.95 * len(sample), good
        rng = np.random.Generator(np.random.PCG64(1213))
        solved = 0
        while solved < 20:
            n = int(rng.integers(2, 9))
            a = rng.integers(-9, 10, size=(n, n)).tolist()
            b = [int(x) for x in rng.integers(-9, 10, size=n)]
            x = solve_exact(a, b)
            if x is None:
                continue
            for i in range(n):
                assert sum(Fraction(a[i][j]) * x[j] for j in range(n)) == b[i]
            solved += 1
