import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn.entourage import gauge_entourage, metric_ball, predicate_entourage
from topodyn.shadowing import (
    ORBIT_TAIL,
    PERIODIC,
    PseudoOrbit,
    compute_defects,
    exact_orbit,
    harmonic_stall_walk,
    noisy_window,
    perturbed_pseudo_orbit,
    pseudo_orbit_from_text,
    pseudo_orbit_to_text,
    strip_climb_pseudo_orbit,
    trace_finite_bruteforce,
    trace_linear_hyperbolic,
    trace_sft,
    trace_strips,
    tracing_tools,
    unique_tracing_check,
    verify_defect_bound,
)
from topodyn.systems import (
    LinearSaddle,
    finite_system,
    harmonic_points,
    linear_hyperbolic,
    permutation_from_cycles,
    sft_shift,
    shrinking_intervals,
    torus_automorphism,
)

DIAG = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle")
CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
GOLDEN = sft_shift(("11", "10"), name="golden-mean")


def test_pseudo_orbit_validation():
    with pytest.raises(ValueError):
        PseudoOrbit((), ORBIT_TAIL, 0.1)
    with pytest.raises(ValueError):
        PseudoOrbit(((0, 0),), "sideways", 0.1)
    with pytest.raises(ValueError):
        # window is not 2-periodic
        PseudoOrbit(((0, 0), (1, 1), (2, 2), (3, 3)), PERIODIC, 0.1, period=2)


def test_point_at_wraps_periodic():
    po = PseudoOrbit(("a", "b"), PERIODIC, 0.0, start_index=-1)
    assert po.point_at(-1) == "a"
    assert po.point_at(4) == "b"
    assert po.point_at(-7) == "a"
    tail = PseudoOrbit(("a", "b"), ORBIT_TAIL, 0.0)
    with pytest.raises(IndexError):
        tail.point_at(2)


def test_compute_defects_and_bound():
    w = ((0.0, 0.0), (0.25, 0.0), (0.5, 0.1))
    po = PseudoOrbit(w, ORBIT_TAIL, 0.26)
    gaps = compute_defects(DIAG, po)
    assert gaps == [0.25, 0.1]  # d(f(0,0),(0.25,0)) then d((0.5,0),(0.5,0.1))
    assert verify_defect_bound(DIAG, po)
    assert not verify_defect_bound(DIAG, PseudoOrbit(w, ORBIT_TAIL, 0.2))


def test_periodic_defect_includes_wrap():
    w = ((0.1, 0.0), (0.3, 0.0))
    po = PseudoOrbit(w, PERIODIC, 1.0)
    gaps = compute_defects(CAT, po)
    assert len(gaps) == 2  # the wrap step f(w1) -> w0 counts


# ---------------------------------------------------------------------------
# linear tracing against hand-derived answers


def test_single_future_defect_closed_form():
    """Window ((0,0), (d,e)) with the only defect at the seam. Boundedness
    forward forces the traced unstable coordinate to d/2; no past defects
    leave the stable coordinate at zero. All values dyadic, so exact."""
    d, e = 0.25, 0.0625
    po = PseudoOrbit(((0.0, 0.0), (d, e)), ORBIT_TAIL, 0.3)
    result = trace_linear_hyperbolic(DIAG, po)
    assert result.traced_orbit[0] == (d / 2, 0.0)
    assert result.traced_orbit[1] == (d, 0.0)
    assert result.error_bound == max(d / 2, e)
    assert result.gaps[0] == d / 2 and result.gaps[1] == e
    assert result.error_bound <= result.guaranteed_bound


def test_single_past_defect_closed_form():
    # same window shifted so the defect lies in the past of index 0: now the
    # stable coordinate must absorb e and the unstable one keeps d
    d, e = 0.25, 0.0625
    po = PseudoOrbit(((0.0, 0.0), (d, e)), ORBIT_TAIL, 0.3, start_index=-1)
    result = trace_linear_hyperbolic(DIAG, po)
    assert result.traced_orbit[1] == (d, 0.0)
    assert result.gaps == (d / 2, e)


def test_traced_orbit_is_a_true_orbit():
    rng = random.Random(31)
    for system in (DIAG, CAT):
        for _ in range(10):
            po = perturbed_pseudo_orbit(
                system, (rng.random() * 0.5, rng.random() * 0.5),
                length=12, noise=1e-3, seed=rng.randrange(10 ** 6))
            result = trace_linear_hyperbolic(system, po)
            orbit = result.traced_orbit
            for k in range(len(orbit) - 1):
                gap = system.metric(system.forward(orbit[k]), orbit[k + 1])
                assert gap < 1e-10  # defect relation holds to rounding
            assert result.error_bound <= result.guaranteed_bound + 1e-15


def test_exact_periodic_tracing_fractions():
    w = ((Fraction(1, 10), Fraction(1, 7)),
         (Fraction(1, 3), Fraction(2, 7)),
         (Fraction(9, 10), Fraction(5, 7)))
    po = PseudoOrbit(w, PERIODIC, 1.0)
    result = trace_linear_hyperbolic(CAT, po, exact=True)
    assert result.periodic and result.period == 3
    orbit = result.traced_orbit
    assert all(isinstance(c, Fraction) for p in orbit for c in p)
    z = orbit[0]
    for k in range(3):
        z = CAT.forward(z)
    assert z == orbit[0]  # exactly periodic, no rounding anywhere


def test_float_iteration_would_have_drifted():
    """A 100-step periodic window solved exactly.  Forward float iteration
    amplifies initial error by rate_u**100 ~ 1e41, so the small residual here
    certifies the solve never iterated floats."""
    exact = []
    x = (Fraction(1, 5), Fraction(2, 5))
    for _ in range(100):
        exact.append(x)
        x = CAT.forward(x)
    assert x == exact[0]  # rational point, orbit closes up

    rng = random.Random(8)
    w = tuple(
        ((float(px) + rng.uniform(-5e-4, 5e-4)) % 1.0,
         (float(py) + rng.uniform(-5e-4, 5e-4)) % 1.0)
        for px, py in exact)
    gaps = [CAT.metric(CAT.forward(w[k]), w[(k + 1) % 100]) for k in range(100)]
    po = PseudoOrbit(w, PERIODIC, max(gaps) + 1e-15)

    result = trace_linear_hyperbolic(CAT, po, exact=True)
    assert result.periodic
    assert result.error_bound <= result.guaranteed_bound + 1e-15
    # lam_u^100 is astronomically larger than the error bound achieved
    assert CAT.rate_u ** 100 * 1e-16 > 1e20


# ---------------------------------------------------------------------------
# the tracer bound on random saddles


def _torus_or_none(m):
    try:
        return torus_automorphism(m)
    except ValueError:  # |det| != 1, or no hyperbolic splitting
        return None


# every hyperbolic torus automorphism with entries in -3..3 and |det| = 1
_TORI = [t for t in (_torus_or_none(((a, b), (c, d)))
                     for a, b, c, d in itertools.product(range(-3, 4), repeat=4))
         if t is not None]


@st.composite
def _plane_saddles(draw):
    """A = V diag(lam_u, lam_s) V^-1 for unit eigenvectors at any angle,
    orthogonal or not, and eigenvalues of either sign."""
    lam_u = draw(st.sampled_from([-1, 1])) * draw(st.floats(1.25, 3.0))
    lam_s = draw(st.sampled_from([-1, 1])) * draw(st.floats(0.2, 0.8))
    tu = draw(st.floats(0.0, math.pi))
    ts = tu + draw(st.one_of(st.just(math.pi / 2), st.floats(0.3, math.pi - 0.3)))
    v = np.array([[math.cos(tu), math.cos(ts)], [math.sin(tu), math.sin(ts)]])
    return LinearSaddle((v @ np.diag([lam_u, lam_s]) @ np.linalg.inv(v)).tolist())


_SADDLES = st.one_of(_plane_saddles(), st.sampled_from(_TORI))
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(_SADDLES, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 0.01), st.integers(1, 12),
       st.sampled_from([ORBIT_TAIL, PERIODIC]), st.integers(0, 10 ** 6))
def test_tracer_meets_its_bound_on_random_saddles(
        system, u, v, noise, length, extension, seed):
    po = perturbed_pseudo_orbit(system, (u, v), length, noise, seed, extension)
    result = trace_linear_hyperbolic(system, po)
    scale = 1.0 + max(abs(c) for x in po.window for c in x)
    assert result.error_bound <= result.guaranteed_bound + 1e-12 * scale
    orbit = result.traced_orbit
    assert result.gaps == tuple(system.metric(y, x)
                                for y, x in zip(orbit, po.window))
    steps = list(zip(orbit, orbit[1:]))
    if extension == PERIODIC:
        steps.append((orbit[-1], orbit[0]))
    for y, z in steps:
        assert system.metric(system.forward(y), z) < 1e-9 * scale


@PROPERTY
@given(_SADDLES, st.integers(1, 8), st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16]),
       st.data())
def test_float_tracer_agrees_with_exact_on_rational_loops(
        system, period, denominator, data):
    """Coordinates k/q with q odd or a power of two: a torus defect is then
    exactly half a unit (both routes lift it to -1/2) or at least 1/(2q)
    away from it, never within rounding of the tie, where no float route
    can tell which lift is nearest."""
    torus = not isinstance(system, LinearSaddle)
    lo, hi = (0, denominator - 1) if torus else (-denominator, denominator)
    coords = st.integers(lo, hi).map(lambda k: k / denominator)
    window = tuple(data.draw(st.tuples(coords, coords))
                   for _ in range(period))
    po = PseudoOrbit(window, PERIODIC, 1.0)
    fast = trace_linear_hyperbolic(system, po)
    exact = trace_linear_hyperbolic(system, po, exact=True)
    for y, z in zip(fast.traced_orbit, exact.traced_orbit):
        assert system.metric(y, (float(z[0]), float(z[1]))) <= 1e-12


# ---------------------------------------------------------------------------
# symbolic tracing


def test_trace_sft_reads_diagonal_word():
    word = (0, 1, 0, 0, 1, 0, 0, 0, 1, 0)
    window = tuple(
        GOLDEN.window_point(word[j:j + 5], offset=-2) for j in range(6)
    )
    po = PseudoOrbit(window, ORBIT_TAIL, 0.25)
    assert verify_defect_bound(GOLDEN, po)
    result = trace_sft(GOLDEN, po)
    y = result.point
    for j in range(6):
        assert y.symbol_at(j) == word[j + 2]
    assert result.error_bound <= 2.0 * po.defect_bound


def test_trace_sft_periodic_window():
    u = (0, 0, 1, 0, 1, 0, 0, 1)
    v = (0, 0, 1, 0, 0, 0, 0, 1)
    pu, pv = GOLDEN.periodic_point(u), GOLDEN.periodic_point(v)
    window = tuple(pu.shifted(k) for k in range(8)) \
        + tuple(pv.shifted(k) for k in range(8))
    po = PseudoOrbit(window, PERIODIC, 1.0 / 16.0)
    assert verify_defect_bound(GOLDEN, po)
    result = trace_sft(GOLDEN, po)
    assert result.periodic
    z = result.point
    for _ in range(16):
        z = GOLDEN.forward(z)
    assert GOLDEN.metric(z, result.point) == 0.0
    assert result.error_bound <= 2.0 / 16.0


def test_trace_sft_rejects_coarse_defect():
    a = GOLDEN.periodic_point((0,))
    b = GOLDEN.periodic_point((1, 0))
    po = PseudoOrbit((a, b), ORBIT_TAIL, 1.0)
    with pytest.raises(ValueError):
        trace_sft(GOLDEN, po)


# ---------------------------------------------------------------------------
# strips and harmonic counter-systems


def test_trace_strips_bound():
    system = shrinking_intervals().system_a
    rng = random.Random(77)
    for _ in range(25):
        n0 = rng.randint(-5, 1)
        window = [(n0, rng.uniform(0, system.fiber_height(n0)))]
        for _ in range(10):
            n, y = system.forward(window[-1])
            y = min(max(y + rng.uniform(-0.03, 0.03), 0.0),
                    system.fiber_height(n))
            window.append((n, y))
        po = PseudoOrbit(tuple(window), ORBIT_TAIL, 0.03 + 1e-12)
        result = trace_strips(system, po)
        assert result.error_bound <= result.guaranteed_bound + 1e-12


def test_strip_climb_floor():
    """Unit strips translate rigidly, so against the climbing pseudo-orbit
    every true orbit keeps a sup error of at least half the climbed span."""
    system = shrinking_intervals().system_b
    po = strip_climb_pseudo_orbit(system, steps=14, rise=0.07)
    heights = [y for (_, y) in po.window]
    span = max(heights) - min(heights)
    assert span > 0.8
    for y0 in (0.0, 0.25, 0.5, 0.9):
        sup = max(abs(y - y0) for y in heights)
        assert sup >= span / 2.0 - 1e-12


def test_harmonic_stall_walk_defect():
    h = harmonic_points()
    po = harmonic_stall_walk(h, start_n=11, stall=3, walk=200)
    assert po.defect_bound == h.gap_after(11)
    gaps = compute_defects(h, po)
    assert max(gaps) <= po.defect_bound + 1e-15
    xs = [h.index_of(x) for x in po.window]
    assert xs[0] == 11 and xs[-1] > 11  # it drifts outward
    assert min(xs) == 11


# ---------------------------------------------------------------------------
# uniqueness


def test_unique_tracing_yes_on_hyperbolic():
    for system in (DIAG, CAT):
        po = perturbed_pseudo_orbit(system, (0.2, 0.3), length=10,
                                    noise=1e-3, seed=5)
        E = metric_ball(system, 0.02)
        result = unique_tracing_check(system, po, E, horizon=80)
        assert result.verdict == "yes"


def test_unique_tracing_no_on_identity_with_witness():
    ident = finite_system(("p", "q"), {"p": "p", "q": "q"}, name="identity")
    po = PseudoOrbit(("p", "p", "p"), PERIODIC, 0.5)
    E = metric_ball(ident, 1.5)  # covers both points of the discrete space
    result = unique_tracing_check(ident, po, E, horizon=20)
    assert result.verdict == "no"
    assert result.witness is not None
    a, b = result.witness
    assert {a, b} == {"p", "q"}


def test_trace_finite_bruteforce():
    perm = permutation_from_cycles([("a", "b", "c")])
    po = PseudoOrbit(("a", "b", "c"), PERIODIC, 0.5)
    E = metric_ball(perm, 0.5)  # only the point itself is this close
    hits = trace_finite_bruteforce(perm, po, E)
    assert hits == ("a",)


# ---------------------------------------------------------------------------
# serialization


def test_pseudo_orbit_text_roundtrip():
    po = perturbed_pseudo_orbit(CAT, (0.1, 0.9), length=6, noise=1e-2,
                                seed=12)
    text = pseudo_orbit_to_text(CAT, po, seed=12)
    back, header = pseudo_orbit_from_text(text, CAT)
    assert header["seed"] == "12"
    assert back.extension == po.extension
    assert len(back.window) == len(po.window)
    for a, b in zip(po.window, back.window):
        assert CAT.metric(a, b) < 1e-12


def test_exact_orbit_has_zero_defect():
    po = exact_orbit(CAT, (0.3, 0.4), length=8)
    assert max(compute_defects(CAT, po)) < 1e-9


def test_measured_pseudo_orbit_takes_its_largest_gap():
    w = ((0.1, 0.2), (0.2, 0.1), (0.45, 0.05))
    po = PseudoOrbit.measured(DIAG, w, start_index=-1)
    assert po.defect_bound == max(compute_defects(DIAG, po))
    assert (po.window, po.extension, po.start_index) == (w, ORBIT_TAIL, -1)
    loop = PseudoOrbit.measured(CAT, [(0.0, 0.0), (0.5, 0.5)], PERIODIC)
    assert loop.period == 2
    assert loop.defect_bound == max(compute_defects(CAT, loop))
    assert PseudoOrbit.measured(DIAG, [(1.0, 1.0)]).defect_bound == 0.0


def test_noisy_window_dispatches_on_the_system():
    strips = shrinking_intervals().system_a
    for system, delta in ((CAT, 1e-3), (DIAG, 1e-3), (GOLDEN, 0.05),
                          (strips, 0.05)):
        window = noisy_window(system, delta, 30, random.Random(4))
        assert window == noisy_window(system, delta, 30, random.Random(4))
        assert len(window) == 31
        assert max(compute_defects(system, PseudoOrbit(window, ORBIT_TAIL,
                                                       1.0))) <= delta
    with pytest.raises(TypeError):
        noisy_window(harmonic_points(), 0.1, 5, random.Random(0))


def test_tracing_tools_pair_each_generator_with_its_tracer():
    pair = shrinking_intervals()
    unit = pair.system_b
    assert tracing_tools(CAT)[1] is trace_linear_hyperbolic
    assert tracing_tools(DIAG)[1] is trace_linear_hyperbolic
    assert tracing_tools(GOLDEN)[1] is trace_sft
    assert tracing_tools(pair.system_a)[1] is trace_strips
    # the unit strips have pseudo-orbits but no tracer
    assert tracing_tools(unit)[1] is None
    assert len(tracing_tools(unit)[0](unit, 0.05, 8, random.Random(1))) == 9


def test_unique_tracing_needs_a_radius():
    po = exact_orbit(DIAG, (0.1, 0.2), 4)
    for E in (gauge_entourage(DIAG, lambda x: 0.5),
              predicate_entourage(lambda x, y: True)):
        with pytest.raises(TypeError):
            unique_tracing_check(DIAG, po, E, horizon=10)
    bounded = gauge_entourage(DIAG, lambda x: 0.5, sup_bound=0.5)
    assert unique_tracing_check(DIAG, po, bounded, horizon=80).verdict == "yes"
