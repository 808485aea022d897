import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from perturblab import (
    ConcentrationQuery,
    EpsilonNet,
    ValidationError,
    WitnessClass,
    WitnessVector,
    bernoulli,
    classify_witness,
    embed_zero_padded,
    greedy_net,
    round_witness,
    sample_iid_matrix,
    small_image_event,
)

BERN = bernoulli()


# ---------------------------------------------------------------------------
# rounding


def test_round_witness_diagonal_direction():
    n = 4
    v = np.zeros(n)
    v[0] = 1.0
    w = round_witness(v, n, b_exponent=2.0)
    scale = float(n) ** 4.0
    assert w.values[0] == round(scale)
    assert w.values[1:] == (0, 0, 0)
    assert 0.9 * scale <= w.norm <= 1.1 * scale


def test_round_witness_uniform_direction():
    n = 4
    w = round_witness(np.ones(n) / 2.0, n, b_exponent=2.0)
    # frozen: 4^4 / 2 = 128 per coordinate
    assert w.values == (128, 128, 128, 128)


def test_round_witness_rejects_non_unit():
    with pytest.raises(ValidationError):
        round_witness(np.ones(4), 4, b_exponent=2.0)


def test_round_witness_rejects_overflow_scale():
    with pytest.raises(ValidationError):
        round_witness(np.ones(16) / 4.0, 16, b_exponent=12.0)  # 16^14 > 2^53
    with pytest.raises(ValidationError, match=r"^b_exponent \+ 2 = 1e\+300 overflows"):
        round_witness([0.6, 0.8], 2, b_exponent=1e300)  # 2^(B+2) is past the float range


def test_round_witness_length_mismatch():
    with pytest.raises(ValidationError):
        round_witness(np.ones(3) / math.sqrt(3), 4, b_exponent=1.0)


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


def test_embed_zero_padded():
    net = greedy_net(2, 0.8, seed=2)
    out = embed_zero_padded(net, 5)
    assert out.shape == (len(net.points), 5)
    assert not out[:, 2:].any()
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)
    with pytest.raises(ValidationError):
        embed_zero_padded(net, 1)


def test_min_distance_to():
    net = greedy_net(2, 0.5, seed=4)
    x = np.asarray(net.points[0])
    assert net.min_distance_to(x) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# small image event


def test_small_image_rare_for_random_sign_matrix():
    n = 10
    y = np.ones(n) / math.sqrt(n)

    def draw(t):
        return sample_iid_matrix(BERN, n, seed=1000 + t)

    rep = small_image_event(draw, y, trials=300, mu=Fraction(1, 4))
    assert rep.estimate <= rep.product_bound + 0.05
    assert rep.product_bound == pytest.approx((1 - 0.125) ** n, rel=1e-12)


def test_small_image_certain_for_zero_matrix():
    n = 5
    y = np.ones(n) / math.sqrt(n)

    def draw(t):
        return np.zeros((n, n), dtype=np.int64)

    rep = small_image_event(draw, y, trials=50, mu=Fraction(1, 4))
    assert rep.estimate == 1.0
