import itertools
import logging
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    DiscretizationResult,
    Gap,
    ResourceError,
    ValidationError,
    discretize_rank1,
    format_discretization,
    format_gap,
    inverse_lo_search,
    parse_discretization,
    parse_gap,
    sumset,
    verify_discretization,
)
from perturblab import gaps
from perturblab.gaps import ENUMERATION_CAP, _box_radius_pairs
from perturblab.noise import bernoulli, certificate_from_symmetric, discretized_gaussian, lazy_coin

import oracles


# ---------------------------------------------------------------------------
# progression basics


def test_volume_counts_coefficient_boxes():
    g = Gap(generators=(Fraction(3),), dims=(10,))
    assert g.volume == 21
    g2 = Gap(generators=(Fraction(1), Fraction(2)), dims=(1, 2))
    assert g2.volume == 15  # 3 * 5, collisions included by convention


def test_elements_rank1():
    g = Gap(generators=(Fraction(3),), dims=(2,))
    assert g.elements() == [Fraction(x) for x in (-6, -3, 0, 3, 6)]


def test_elements_rank2_distinct_sorted():
    g = Gap(generators=(Fraction(1), Fraction(10)), dims=(2, 1))
    want = sorted({a + 10 * b for a in range(-2, 3) for b in range(-1, 2)})
    assert g.elements() == [Fraction(x) for x in want]


def test_elements_collisions_deduplicated():
    g = Gap(generators=(Fraction(1), Fraction(1)), dims=(1, 1))
    assert g.elements() == [Fraction(x) for x in (-2, -1, 0, 1, 2)]
    assert g.volume == 9  # but the box volume still counts multiplicity


def test_elements_cap(monkeypatch):
    g = Gap(generators=(Fraction(1),), dims=(10**7,))
    monkeypatch.setattr(gaps, "ENUMERATION_CAP", 100)
    with pytest.raises(ResourceError, match=r"^volume 20000001 exceeds enumeration cap 100$"):
        g.elements()


def test_dilate_scales_generators():
    g = Gap(generators=(Fraction(3), Fraction(5)), dims=(1, 2))
    d = g.dilate(4)
    assert d.generators == (Fraction(12), Fraction(20))
    assert d.dims == g.dims
    assert d.elements() == [4 * x for x in g.elements()]


def test_rank_zero_dims_allowed():
    g = Gap(generators=(Fraction(7),), dims=(0,))
    assert g.elements() == [Fraction(0)]
    assert g.volume == 1


def test_contains_rank1():
    g = Gap(generators=(Fraction(3),), dims=(4,))
    assert g.contains(9)
    assert g.contains(-12)
    assert not g.contains(10)
    assert not g.contains(15)  # coefficient 5 > 4


def test_contains_rank2_matches_enumeration():
    # negative generators, denominators that differ, the larger box first,
    # and zero generators, probed on fractions as well as integers
    for generators, dims in [
        ((Fraction(2), Fraction(7)), (3, 2)),
        ((Fraction(-3, 4), Fraction(5, 6)), (3, 2)),
        ((Fraction(-2, 3), Fraction(-7, 5)), (2, 4)),
        ((Fraction(1, 2), Fraction(-1, 3)), (0, 5)),
        ((Fraction(-5, 2), Fraction(3, 7)), (4, 1)),
        ((Fraction(0), Fraction(-4, 9)), (3, 2)),
        ((Fraction(-6), Fraction(0)), (2, 5)),
    ]:
        g = Gap(generators=generators, dims=dims)
        elems = set(g.elements())
        for x in {Fraction(p, q) for q in range(1, 13) for p in range(-80, 81)} | elems:
            assert g.contains(x) == (x in elems), (g, x)


def test_contains_fractional_generators():
    g = Gap(generators=(Fraction(1, 2),), dims=(3,))
    assert g.contains(Fraction(3, 2))
    assert not g.contains(Fraction(1, 3))


def test_sumset_concatenates():
    p = Gap(generators=(Fraction(1),), dims=(1,))
    q = Gap(generators=(Fraction(10),), dims=(1,))
    s = sumset(p, q)
    assert s.rank == 2
    want = sorted({a + b for a in (-1, 0, 1) for b in (-10, 0, 10)})
    assert s.elements() == [Fraction(x) for x in want]


def test_gap_validation():
    with pytest.raises(ValidationError):
        Gap(generators=(Fraction(1),), dims=(1, 2))
    with pytest.raises(ValidationError):
        Gap(generators=(Fraction(1),), dims=(-1,))


@given(
    g=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_dilate_elements_property(g, n, k):
    gap = Gap(generators=(Fraction(g),), dims=(n,))
    assert gap.dilate(k).elements() == [k * x for x in gap.elements()]


# ---------------------------------------------------------------------------
# discretization verifier


def _trivial_result(p, r0):
    return DiscretizationResult(
        p_small=p,
        p_sparse=Gap(generators=p.generators, dims=(0,) * p.rank),
        scale_R=Fraction(r0),
        S=1,
        R0=r0,
        d_exponent=0,
    )


def test_verify_trivial_split():
    p = Gap(generators=(Fraction(2),), dims=(3,))  # elements within [-6, 6]
    rep = verify_discretization(p, _trivial_result(p, 10))
    assert rep.ok


def test_verify_smallness_violation_detected():
    p = Gap(generators=(Fraction(2),), dims=(30,))  # elements reach 60 > R/S = 10
    rep = verify_discretization(p, _trivial_result(p, 10))
    assert not rep.smallness
    assert (rep.scale, rep.smallness) == (True, False)


def test_verify_covering_violation_detected():
    p = Gap(generators=(Fraction(1),), dims=(5,))
    bad = DiscretizationResult(
        p_small=Gap(generators=(Fraction(1),), dims=(1,)),
        p_sparse=Gap(generators=(Fraction(10),), dims=(1,)),
        scale_R=Fraction(100),
        S=1,
        R0=100,
        d_exponent=0,
    )
    rep = verify_discretization(p, bad)
    assert not rep.covering


def test_verify_sparseness_violation_detected():
    p = Gap(generators=(Fraction(1),), dims=(5,))
    bad = DiscretizationResult(
        p_small=Gap(generators=(Fraction(1),), dims=(5,)),
        p_sparse=Gap(generators=(Fraction(2),), dims=(2,)),  # spacing 2 < R*S
        scale_R=Fraction(5),
        S=1,
        R0=5,
        d_exponent=0,
    )
    rep = verify_discretization(p, bad)
    assert not rep.sparseness


def test_verify_scale_violation_detected():
    p = Gap(generators=(Fraction(1),), dims=(2,))
    bad = DiscretizationResult(
        p_small=p,
        p_sparse=Gap(generators=(Fraction(1),), dims=(0,)),
        scale_R=Fraction(10**6),
        S=1,
        R0=1,
        d_exponent=1,  # (S V)^1 R0 = 5 < 10^6
    )
    rep = verify_discretization(p, bad)
    assert not rep.scale


@pytest.mark.parametrize("small, sparse, covers", [
    (((1,), (2,)), ((5,), (2,)), True),  # [-2, 2] + 5 * [-2, 2] = [-12, 12]
    (((1,), (1,)), ((7,), (4,)), False),  # [-1, 1] + 7 * [-4, 4] misses 2
])
def test_verify_covering_without_enumerating_the_sumset(small, sparse, covers, monkeypatch):
    # at cap 21 the sumset (volume 25 or 27) is past the cap, so covering is
    # checked per element of p by membership; the report must not change
    p = Gap((1,), (10,))
    split = DiscretizationResult(
        p_small=Gap(*small), p_sparse=Gap(*sparse), scale_R=Fraction(3), S=1, R0=3, d_exponent=0
    )
    assert sumset(split.p_small, split.p_sparse).volume > 21 >= p.volume
    rep = verify_discretization(p, split)
    monkeypatch.setattr(gaps, "ENUMERATION_CAP", 21)
    assert rep == verify_discretization(p, split)
    assert rep.covering is covers


# ---------------------------------------------------------------------------
# rank-1 constructor


def test_discretize_trivial_case():
    # N g S = 3 * 2 * 1 <= R0: the whole progression is already small
    p = Gap(generators=(Fraction(2),), dims=(3,))
    out = discretize_rank1(p, r0=10, s=1)
    assert out.p_small.generators == p.generators
    assert out.p_small.dims == p.dims
    assert out.p_sparse.elements() == [Fraction(0)]
    assert verify_discretization(p, out).ok


def test_discretize_nontrivial_splits():
    p = Gap(generators=(Fraction(1),), dims=(500,))
    out = discretize_rank1(p, r0=100, s=10)
    rep = verify_discretization(p, out)
    assert rep.ok, rep
    # the small part must genuinely be at a finer scale than the spread
    assert max(abs(x) for x in out.p_small.elements()) <= out.scale_R / out.S


def test_discretize_requires_rank1_integer_generator():
    with pytest.raises(ValidationError):
        discretize_rank1(Gap(generators=(Fraction(1), Fraction(2)), dims=(1, 1)), 10, 1)
    with pytest.raises(ValidationError):
        discretize_rank1(Gap(generators=(Fraction(1, 2),), dims=(3,)), 10, 1)


def test_discretize_random_instances_all_verify():
    rng = np.random.Generator(np.random.PCG64(1234))
    for _ in range(40):
        g = int(rng.integers(1, 51))
        n = int(rng.integers(1, 501))
        r0 = int(rng.integers(1, 101))
        s = int(rng.integers(1, 11))
        p = Gap(generators=(Fraction(g),), dims=(n,))
        out = discretize_rank1(p, r0=r0, s=s)
        rep = verify_discretization(p, out)
        assert rep.ok, (g, n, r0, s, rep)
        # covering re-check by direct enumeration
        cover = set(sumset(out.p_small, out.p_sparse).elements())
        for x in p.elements():
            assert x in cover, (g, n, r0, s, x)


def _random_instances(seed, count):
    """(g, n, r0, s) drawn as criterion 8 and the test above draw them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        (int(rng.integers(1, 51)), int(rng.integers(1, 501)), int(rng.integers(1, 101)),
         int(rng.integers(1, 11)))
        for _ in range(count)
    ]


def _edge_instances():
    """n = 0 and tiny n, g = 1, and r0 on both sides of g and of n g S."""
    return [
        (g, n, r0, s)
        for n, g, s in itertools.product((0, 1, 2, 500), (1, 3, 50), (1, 2, 10))
        for r0 in sorted({1, g - 1, g, n * g * s, n * g * s + 1})
        if r0 >= 1
    ]


@pytest.mark.parametrize("instances", [
    _random_instances(808, 100),
    _random_instances(1234, 40),
    _edge_instances(),
], ids=["criterion-8", "random-instances", "edge-grid"])
def test_discretize_equals_the_former_search(instances):
    for g, n, r0, s in instances:
        p = Gap(generators=(Fraction(g),), dims=(n,))
        assert discretize_rank1(p, r0=r0, s=s) == oracles.discretize_rank1_search(p, r0, s), (g, n, r0, s)


def test_discretize_past_the_enumeration_cap_enumerates_nothing(monkeypatch):
    # N g S = 7 * 10^8 * 3 > R0, so p is the sparse part at R = min(R0, g) = 7:
    # S p is 21-separated and R S = 21, {0} is small, {0} + p = p, and R <= R0
    # gives d = 0.  verify_discretization refuses this volume, so the fields are
    # checked by hand
    p = Gap(generators=(Fraction(7),), dims=(10**8,))
    assert p.volume > ENUMERATION_CAP

    def refuse(self):
        raise AssertionError("the constructor enumerated a progression")

    monkeypatch.setattr(Gap, "elements", refuse)
    out = discretize_rank1(p, r0=100, s=3)
    assert out.p_small == Gap(generators=(Fraction(7),), dims=(0,))
    assert out.p_sparse == p
    assert (out.scale_R, out.S, out.R0, out.d_exponent) == (7, 3, 100, 0)


# ---------------------------------------------------------------------------
# inverse search


def test_search_constant_vector():
    out = inverse_lo_search((5, 5, 5, 5), Fraction(1, 4))
    assert out.hypothesis_holds
    assert out.found is not None
    gap = out.found.gap
    assert gap.rank == 1
    assert gap.contains(5)
    assert out.found.excluded == frozenset()
    assert not out.counterexample_candidate


def test_search_ap_vector():
    v = tuple(range(1, 9))
    out = inverse_lo_search(v, Fraction(1, 4), a_exponent=4.0)
    assert out.hypothesis_holds
    assert out.found is not None
    assert out.found.gap.rank <= 2
    assert out.found.gap.volume <= 2001
    for x in v:
        assert out.found.gap.contains(x)
    assert out.found.excluded == frozenset()


def test_search_not_triggered_low_concentration():
    # spread weights: concentration falls below n^-1, the search is moot
    v = tuple(2**i for i in range(10))
    out = inverse_lo_search(v, Fraction(1, 4), a_exponent=0.5)
    assert not out.hypothesis_holds
    assert out.found is None
    assert not out.counterexample_candidate
    # an exponent that is not finite, or whose threshold n^-A overflows, is refused
    for bad in (float("nan"), -1e300):
        with pytest.raises(ValidationError, match=r"^-a_exponent = (nan is not finite|1e\+300 overflows)"):
            inverse_lo_search((3, 5, 8, -2), Fraction(1, 4), a_exponent=bad)


def test_search_zero_vector():
    out = inverse_lo_search((0, 0, 0), Fraction(1, 4))
    assert out.found is not None
    assert out.found.gap.contains(0)


def test_search_counterexample_candidate_logged(caplog):
    # volume cap 1 cannot cover any nonzero weight: the trigger fires
    # and the miss must be logged, never silently dropped
    with caplog.at_level(logging.WARNING, logger="perturblab.gaps"):
        out = inverse_lo_search((1, 1, 1), Fraction(1, 4), volume_cap=1, a_exponent=6.0)
    assert out.hypothesis_holds
    assert out.found is None
    assert out.counterexample_candidate
    assert any("counterexample candidate" in r.message for r in caplog.records)


def test_search_respects_size_cap():
    with pytest.raises(ValidationError):
        inverse_lo_search((1,) * 17, Fraction(1, 4))


def test_search_exclusion_budget():
    # one outlier weight, allowed to be excluded
    v = (3, 3, 3, 3, 3, 3, 3, 10007)
    out = inverse_lo_search(v, Fraction(1, 4), except_cap=1, a_exponent=6.0)
    assert out.found is not None
    assert len(out.found.excluded) <= 1
    covered = [x for i, x in enumerate(v) if i not in out.found.excluded]
    for x in covered:
        assert out.found.gap.contains(x)


def test_search_without_a_cover_refuses_at_the_work_budget():
    # weights three orders of magnitude apart leave no cover of volume <= 2001;
    # the search must run out of budget, not hang
    with pytest.raises(ResourceError, match=r"^search work exceeded budget 20000000$"):
        inverse_lo_search((1, 1000, 10**6), Fraction(1, 4), a_exponent=20.0)


def _search(fn, *args, **kwargs):
    """The outcome of a search, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ResourceError, ValidationError) as exc:
        return type(exc), str(exc)


def _battery_vector(rng, n, rank):
    """A weight vector in the exact-small-ball benchmark's style: multiples
    of one step, or small combinations of two steps with both steps present."""
    if rank == 1 or n == 1:
        step = rng.randint(1, 3)
        ks = [rng.randint(-3, 3) for _ in range(n)]
        ks[rng.randrange(n)] = rng.choice((-1, 1))
        return tuple(step * k for k in ks)
    g1, g2 = rng.choice(((3, 5), (4, 7), (5, 8)))
    v = [g1 * rng.randint(-1, 1) + g2 * rng.randint(-1, 1) for _ in range(n)]
    a, b = rng.sample(range(n), 2)
    v[a], v[b] = g1, g2
    return tuple(v)


def test_box_radius_pairs_equal_the_filter():
    for cap in [*range(1, 401), 2001, 10_001]:
        assert list(_box_radius_pairs(cap)) == oracles.filtered_box_radius_pairs(cap), cap


def test_search_equals_reference_on_a_seeded_battery():
    rng = random.Random(20090611)
    mus = [certificate_from_symmetric(d).mu
           for d in (bernoulli(), lazy_coin(Fraction(1, 2)), discretized_gaussian())]
    outcomes = []
    for n in range(1, 17):
        for rank in (1, 2):
            v = _battery_vector(rng, n, rank)
            mu = rng.choice(mus)
            a_exponent = rng.choice((0.5, 1.0, 4.0))
            for except_cap, rank_cap, volume_cap in itertools.product((0, 1), (1, 2), (1, 3, 9, 25, 2001)):
                kwargs = dict(rank_cap=rank_cap, volume_cap=volume_cap, except_cap=except_cap,
                              a_exponent=a_exponent)
                got = _search(inverse_lo_search, v, mu, **kwargs)
                want = _search(oracles.inverse_lo_search_reference, v, mu, **kwargs)
                assert got == want, (v, mu, kwargs)
                outcomes.append(got)
    # the battery reaches covers of both ranks, with and without exclusions,
    # untriggered searches and counterexample candidates
    found = [o.found for o in outcomes if o.found is not None]
    assert {c.gap.rank for c in found} == {1, 2}
    assert any(c.excluded for c in found) and any(not c.excluded for c in found)
    assert any(not o.hypothesis_holds for o in outcomes)
    assert any(o.counterexample_candidate for o in outcomes)


def _search_within(monkeypatch, budget, v, mu, **kwargs):
    """The library search's outcome under SEARCH_WORK_BUDGET = budget."""
    monkeypatch.setattr(gaps, "SEARCH_WORK_BUDGET", budget)
    return _search(inverse_lo_search, v, mu, **kwargs)


def _least_budget(monkeypatch, v, mu, **kwargs):
    """The smallest work budget under which the search returns."""
    lo, hi = 0, 1
    while isinstance(_search_within(monkeypatch, hi, v, mu, **kwargs), tuple):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_search_within(monkeypatch, mid, v, mu, **kwargs), tuple):
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("v, kwargs", [
    ((3, 5, 8, -2, 3, 5, -8, 0), dict(a_exponent=4.0)),  # rank-2 cover at s = 1
    ((3, 5, 7, 11), dict(rank_cap=1, a_exponent=6.0)),  # rank-1 cover at s = 3
    ((1, 2, 4, 8, 16, 32), dict(volume_cap=25, except_cap=1, a_exponent=8.0)),  # no cover
    # rank-2 cover at s = 2 on generators 5/2 and 6, reduced denominators 2 and 1
    ((12, 5, 7, 11), dict(volume_cap=25, a_exponent=8.0)),
])
def test_search_work_budget_equals_reference(v, kwargs, monkeypatch):
    # the reference raises ResourceError one unit of work below the least
    # budget at which the library returns, and returns at it: both count the
    # same work in the same order
    mu = Fraction(1, 4)
    least = _least_budget(monkeypatch, v, mu, **kwargs)
    assert least > 1
    below = _search(oracles.inverse_lo_search_reference, v, mu, work_budget=least - 1, **kwargs)
    assert below == (ResourceError, f"search work exceeded budget {least - 1}")
    assert below == _search_within(monkeypatch, least - 1, v, mu, **kwargs)
    at = _search(oracles.inverse_lo_search_reference, v, mu, work_budget=least, **kwargs)
    assert at == _search_within(monkeypatch, least, v, mu, **kwargs)


# ---------------------------------------------------------------------------
# file formats


def test_gap_format_round_trip():
    g = Gap(generators=(Fraction(3, 2), Fraction(4)), dims=(10, 1))
    assert parse_gap(format_gap(g)) == g


def test_gap_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_gap("rank 2\n1 2\n")  # missing second generator line


def test_discretization_format_round_trip():
    p = Gap(generators=(Fraction(1),), dims=(500,))
    out = discretize_rank1(p, r0=100, s=10)
    back = parse_discretization(format_discretization(out))
    assert back == out


def test_load_helpers(tmp_path):
    g = Gap(generators=(Fraction(7),), dims=(3,))
    gp = tmp_path / "g.txt"
    gp.write_text(format_gap(g))
    from perturblab import read_text

    assert parse_gap(read_text(str(gp))) == g
