import math
from dataclasses import replace

import numpy as np
import pytest

from perturblab import (
    ConcentrationQuery,
    EpsilonNet,
    ValidationError,
    WitnessClass,
    WitnessVector,
    bernoulli,
    classify_rich,
    classify_witness,
    greedy_net,
)
from perturblab.witness import label_witness

BERN = bernoulli()


# ---------------------------------------------------------------------------
# classification


def test_classify_poor_witness():
    n = 14
    w = WitnessVector(values=tuple(2**i for i in range(n)), norm=1.0, b_exponent=1.0)
    q = ConcentrationQuery(dists=(BERN,) * n)
    # A = -0.5 puts the 2^-14 concentration under the threshold 14^-3.5
    out = classify_witness(w, q, a_exponent=-0.5)
    assert out.label == WitnessClass.POOR


def test_classify_rich_nonsingular():
    n = 8
    w = WitnessVector(values=(10,) * n, norm=1.0, b_exponent=2.0)
    q = ConcentrationQuery(dists=(BERN,) * n)
    out = classify_witness(w, q, a_exponent=1.0)
    # all 8 coordinates reach ceil(8^1) = 8: spread mass profile
    assert out.label == WitnessClass.RICH_NONSINGULAR


def test_classify_rich_singular():
    n = 8
    # one huge coordinate, the rest tiny: fewer than ceil(8^0.2) = 2
    # coordinates reach the large cut
    w = WitnessVector(values=(100, 1, 1, 1, 1, 1, 1, 1), norm=1.0, b_exponent=2.0)
    q = ConcentrationQuery(dists=(BERN,) * n)
    out = classify_witness(w, q, a_exponent=1.0)
    assert out.label == WitnessClass.RICH_SINGULAR


def test_classify_ceiling_semantics():
    # boundary: count of large coordinates exactly equal to the ceiling
    # cut is nonsingular (strict less-than for the singular profile)
    n = 8
    count_cut = math.ceil(float(n) ** 0.2)  # = 2
    values = [1] * n
    values[0] = values[1] = 100
    w = WitnessVector(values=tuple(values), norm=1.0, b_exponent=2.0)
    q = ConcentrationQuery(dists=(BERN,) * n)
    out = classify_witness(w, q, a_exponent=1.0)
    assert sum(1 for x in w.values if abs(x) >= 8) == count_cut
    assert out.label == WitnessClass.RICH_NONSINGULAR


def test_classify_large_coord_exponent_override():
    n = 8
    w = WitnessVector(values=(3,) * n, norm=1.0, b_exponent=6.0)
    q = ConcentrationQuery(dists=(BERN,) * n)
    # B = 6: cut ceil(8^3) = 512, no coordinate is large -> singular
    assert classify_witness(w, q, a_exponent=1.0).label == WitnessClass.RICH_SINGULAR
    # B = 1: cut ceil(8^0.5) = 3, all coordinates large
    out = classify_witness(replace(w, b_exponent=1.0), q, a_exponent=1.0)
    assert out.label == WitnessClass.RICH_NONSINGULAR
    # a non-finite B has no cut
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"^b_exponent = {bad} is not finite$"):
            replace(w, b_exponent=bad)
    # nor has a finite B whose cut n^(B/2) overflows a float
    with pytest.raises(ValidationError, match=r"^b_exponent / 2 = 5e\+299 overflows"):
        classify_witness(replace(w, b_exponent=1e300), q, a_exponent=1.0)


def test_witness_vector_rejects_empty():
    with pytest.raises(ValidationError, match="^empty witness$"):
        WitnessVector(values=(), norm=0.0, b_exponent=1.0)


def test_classify_changes_only_the_label():
    n = 8
    w = WitnessVector(values=(10,) * n, norm=3.5, b_exponent=2.0)
    out = classify_witness(w, ConcentrationQuery(dists=(BERN,) * n), a_exponent=1.0)
    assert out.label == WitnessClass.RICH_NONSINGULAR
    assert (out.values, out.norm, out.b_exponent) == (w.values, w.norm, w.b_exponent)
    assert w.label == WitnessClass.UNCLASSIFIED


@pytest.mark.parametrize("a_exponent", [-0.5, 1.0])
def test_label_witness_from_a_report_matches_classify(a_exponent):
    # the classify command computes the richness report once and labels
    # from it; that must agree with classify_witness
    n = 8
    q = ConcentrationQuery(dists=(BERN,) * n)
    for values in ((10,) * n, (100, 1, 1, 1, 1, 1, 1, 1), tuple(2**i for i in range(n))):
        w = WitnessVector(values=values, norm=0.0, b_exponent=2.0)
        report = classify_rich(q, w.values, a_exponent)
        assert label_witness(w, report) == classify_witness(w, q, a_exponent)


# ---------------------------------------------------------------------------
# epsilon nets


def test_net_dimension_one_is_sign_pair():
    net = greedy_net(1, 0.5, seed=3)
    pts = sorted(float(p[0]) for p in net.points)
    assert pts == [-1.0, 1.0]


def test_net_separation_exact():
    net = greedy_net(3, 0.5, seed=11)
    pts = np.asarray(net.points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert float(np.sum((pts[i] - pts[j]) ** 2)) > 0.25


def test_net_packing_bound():
    net = greedy_net(3, 0.5, seed=11)
    assert len(net.points) <= (1 + 2 / 0.5) ** 3  # 125


def test_net_unit_norms():
    net = greedy_net(2, 0.3, seed=5)
    for p in net.points:
        assert float(np.linalg.norm(p)) == pytest.approx(1.0, abs=1e-9)


def test_net_covers_sampled_sphere():
    net = greedy_net(3, 0.5, seed=11)
    rng = np.random.Generator(np.random.PCG64(123))
    x = rng.normal(size=(20000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    pts = np.asarray(net.points)
    d2 = np.min(
        np.sum((x[:, None, :] - pts[None, :, :]) ** 2, axis=2), axis=1
    )
    assert float(np.max(d2)) <= 0.25 + 1e-12


def test_net_deterministic_given_seed():
    a = greedy_net(2, 0.4, seed=9)
    b = greedy_net(2, 0.4, seed=9)
    assert np.array_equal(np.asarray(a.points), np.asarray(b.points))


def test_net_validation():
    with pytest.raises(ValidationError):
        greedy_net(0, 0.5, seed=1)
    with pytest.raises(ValidationError):
        greedy_net(2, 0.0, seed=1)
    with pytest.raises(ValidationError):
        greedy_net(2, 2.5, seed=1)


def test_epsilon_net_container_checks_separation():
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        EpsilonNet(
            dimension=2, epsilon=0.5, points=tuple(map(tuple, p)),
            rejection_streak=10, uncovered_mass_bound=0.5,
        )
