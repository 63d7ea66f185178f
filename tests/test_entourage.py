import math
import random

import pytest

from topodyn.entourage import (
    Box,
    CompactWitness,
    GaugeComputationError,
    SampledGauge,
    compose,
    compose_n,
    contains_diagonal,
    core_wide,
    finite_relation,
    gauge_entourage,
    is_wide,
    metric_ball,
    predicate_entourage,
    proper_restrict,
    relation_from_text,
    relation_to_text,
    smooth_gauge,
    symmetrize,
    transpose,
)
from topodyn.systems import catalog, harmonic_points, torus_automorphism

CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
ABS = lambda a, b: abs(a - b)


def test_metric_ball_is_strict():
    ball = metric_ball(CAT, 0.25)
    assert ball.accepts((0.0, 0.0), (0.2, 0.0))
    assert not ball.accepts((0.0, 0.0), (0.25, 0.0))  # boundary excluded
    assert ball.accepts((0.9, 0.0), (0.05, 0.0))      # wraps around
    assert ball.transpose() is ball


def test_metric_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        metric_ball(CAT, 0.0)


def test_gauge_ball_reads_departure_and_arrival():
    gauge = gauge_entourage(CAT, lambda x: 0.3 if x[0] < 0.2 else 0.05)
    a, b = (0.1, 0.0), (0.3, 0.1)
    d = CAT.metric(a, b)
    assert 0.05 < d < 0.3
    assert gauge.accepts(a, b)          # radius read at a
    assert not gauge.accepts(b, a)      # radius read at b
    flipped = transpose(gauge)
    assert flipped.accepts(b, a) and not flipped.accepts(a, b)
    assert transpose(flipped).accepts(a, b)


def test_radius_bounds_every_accepted_pair():
    assert metric_ball(CAT, 0.25).radius == 0.25
    bounded = gauge_entourage(CAT, lambda x: 0.1 + 0.1 * x[0], sup_bound=0.2)
    for U in (bounded, transpose(bounded)):
        assert U.radius == 0.2
    assert gauge_entourage(CAT, lambda x: 0.1).radius is None
    assert finite_relation({("a", "a")}).radius is None
    assert predicate_entourage(lambda x, y: True).radius is None


def test_finite_relation_sections_and_symmetrize():
    U = finite_relation({("a", "b"), ("b", "a"), ("b", "c"), ("a", "a")})
    assert U.accepts("a", "b") and not U.accepts("c", "b")
    assert U.cross_section("b").points == ("a", "c")
    S = symmetrize(U)
    assert S.accepts("a", "b") and S.accepts("b", "a")
    assert not S.accepts("b", "c")  # the unmatched pair is dropped
    assert S.accepts("a", "a")


def test_predicate_entourage_transpose():
    U = predicate_entourage(lambda x, y: y >= x)
    assert U.accepts(1, 2) and not U.accepts(2, 1)
    assert transpose(U).accepts(2, 1)


def test_composition_through_witnesses():
    U = finite_relation({("a", "b"), ("b", "c")})
    UU = compose(U, U, samples=("a", "b", "c"))
    assert UU.accepts("a", "c")       # a -> b -> c
    assert not UU.accepts("a", "b")   # no length-2 chain lands on b
    assert not UU.accepts("b", "a")


def test_compose_n_metric_balls_stay_in_summed_ball():
    ball = metric_ball(CAT, 0.1)
    rng = random.Random(2)
    samples = [(rng.random(), rng.random()) for _ in range(150)]
    U2 = compose_n(ball, 2, samples)
    for _ in range(200):
        x = (rng.random(), rng.random())
        y = (rng.random(), rng.random())
        if U2.accepts(x, y):
            assert CAT.metric(x, y) < 0.2


def test_compose_n_rejects_bad_power():
    with pytest.raises(ValueError):
        compose_n(metric_ball(CAT, 0.1), 0)


def test_contains_diagonal():
    ball = metric_ball(CAT, 0.01)
    pts = [(0.1 * k, 0.2 * k % 1.0) for k in range(10)]
    assert contains_diagonal(ball, pts)
    off = predicate_entourage(lambda x, y: x != y)
    assert not contains_diagonal(off, pts)


def test_core_wide_and_is_wide():
    core = Box((0.0,), (1.0,))
    U = core_wide(core, space_id="line")
    assert U.accepts((5.0,), (-3.0,))    # outside the core: total
    assert U.accepts((0.5,), (0.7,))     # inside core to inside core
    assert not U.accepts((0.5,), (2.0,))  # inside core cannot leave
    assert is_wide(U, Box((-1.0,), (2.0,))) is True
    assert is_wide(U, Box((0.2,), (0.4,))) is False
    # plane ball never wide, torus ball wide once radius beats the diameter
    plane = catalog()["diag-saddle"].build()
    assert is_wide(metric_ball(plane, 100.0), None) is False
    assert is_wide(metric_ball(CAT, 2.0), None) is True


def test_proper_restrict_bounds_sections():
    plane = catalog()["diag-saddle"].build()
    U = metric_ball(plane, 10.0)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    witness = CompactWitness(points=((0.0, 0.0),), boxes=(box,))
    V = proper_restrict(U, witness)
    assert V.accepts((0.0, 0.0), (0.5, 0.5))
    assert not V.accepts((0.0, 0.0), (3.0, 0.0))  # outside every box square
    assert V.space_diameter <= 2.0
    with pytest.raises(TypeError):
        proper_restrict(U, box)


def test_witness_must_cover_points():
    with pytest.raises(ValueError):
        CompactWitness(points=((5.0, 5.0),),
                       boxes=(Box((0.0, 0.0), (1.0, 1.0)),))


# ---------------------------------------------------------------------------
# smooth_gauge


def line_relation():
    """Hand-built relation on the samples 0, 1, 3, 6 of the real line."""
    pairs = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
             (3.0, 1.0), (3.0, 3.0), (6.0, 6.0)}
    return finite_relation(pairs, space_id="line")


def test_smooth_gauge_hand_values():
    # h = d(x, complement of U[x]) over the samples: 3, 2, 3, 3; the gauge
    # is half the inf-convolution of h with the metric
    samples = (0.0, 1.0, 3.0, 6.0)
    gauge = smooth_gauge(line_relation(), samples, metric=ABS)
    assert gauge(0.0) == 1.5
    assert gauge(1.0) == 1.0
    assert gauge(3.0) == 1.5
    assert gauge(6.0) == 1.5
    assert gauge(2.0) == 1.5  # evaluable off the sample set too
    assert gauge.values[1.0] == 1.0


def test_smooth_gauge_stays_below_section_floor():
    samples = (0.0, 1.0, 3.0, 6.0)
    U = line_relation()
    gauge = smooth_gauge(U, samples, metric=ABS)
    for x in samples:
        section = U.cross_section(x)
        floor = min(ABS(x, y) for y in samples if not section.contains(y))
        assert 0.0 < gauge(x) < floor


def test_smooth_gauge_is_one_lipschitz():
    samples = (0.0, 1.0, 3.0, 6.0)
    gauge = smooth_gauge(line_relation(), samples, metric=ABS)
    rng = random.Random(7)
    pts = [rng.uniform(-2.0, 8.0) for _ in range(60)]
    for x in pts:
        for y in pts:
            assert abs(gauge(x) - gauge(y)) <= ABS(x, y) + 1e-12


def test_smooth_gauge_closed_form_radius():
    h = harmonic_points()
    samples = h.points(6)
    gauge = smooth_gauge(metric_ball(h, 0.05), samples)
    for x in samples:
        assert abs(gauge(x) - 0.025) < 1e-15


def test_smooth_gauge_looks_up_its_samples():
    # a sample's value is read from gauge.values with no metric call, and
    # equals the value the formula computes, bit for bit
    samples = (0.0, 1.0, 3.0, 6.0)
    calls = []

    def metric(a, b):
        calls.append((a, b))
        return ABS(a, b)

    gauge = smooth_gauge(line_relation(), samples, metric=metric)
    computed = SampledGauge(metric=ABS, h_values=gauge.h_values)
    calls.clear()
    for x in samples:
        assert gauge(x).hex() == computed(x).hex()
    assert calls == []
    assert gauge(2.0) == 1.5 and len(calls) == len(samples)


def test_smooth_gauge_names_culprits():
    pairs = {(x, y) for x in (0.0, 1.0) for y in (0.0, 1.0)}
    U = finite_relation(pairs, space_id="line")
    with pytest.raises(GaugeComputationError) as err:
        smooth_gauge(U, (0.0, 1.0), metric=ABS)
    assert set(err.value.culprits) == {0.0, 1.0}


def test_smooth_gauge_whole_torus_ball_fails():
    with pytest.raises(GaugeComputationError):
        smooth_gauge(metric_ball(CAT, 2.0), ((0.0, 0.0), (0.5, 0.5)))


def test_smooth_gauge_needs_metric():
    with pytest.raises(ValueError):
        smooth_gauge(line_relation(), (0.0, 1.0))


# ---------------------------------------------------------------------------
# serialization


def test_relation_text_roundtrip():
    U = finite_relation({("a", "b"), ("b", "c"), ("a", "a")})
    text = relation_to_text(U)
    assert text.splitlines() == ["a a", "a b", "b c"]  # sorted
    V = relation_from_text(text)
    assert V.pairs == U.pairs
