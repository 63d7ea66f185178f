"""Scripted demonstrations of the toolkit on the catalog systems.

Each demo runs one complete phenomenon end to end and returns a Report
whose verdict says whether the expected behavior was observed:

  ex22 (alias two-metrics)     one plane map, two metrics: the expansivity
                               verdict flips when the metric changes
  ex23 (alias strips)          conjugate strip systems: shrinking fibers
                               trace every coarse pseudo-orbit, unit fibers
                               refute tracing outright
  sec5 (alias harmonic)        identity on a divergent discrete set: a
                               positive gauge entourage freezes all
                               pseudo-orbits while every metric scale lets
                               them escape to infinity
  decomposition                recurrent sets split into certified basic
                               sets, exactly for symbol and finite systems
                               and on a grid ladder for the torus

The short names are the stable command line tokens; the aliases describe
the content.
"""

from __future__ import annotations

import math
import random

from .entourage import gauge_entourage, metric_ball
from .hyperbolic import CONSISTENT, REFUTED, expansive_check
from .report import FAIL, PASS, Report
from .shadowing import (
    PseudoOrbit,
    ORBIT_TAIL,
    compute_defects,
    harmonic_stall_walk,
    noisy_window,
    strip_climb_pseudo_orbit,
    trace_strips,
)
from .spectral import spectral_decompose
from .systems import catalog, shrinking_intervals


def demo_two_metrics(seed=0, horizon=60):
    """The same homeomorphism is expansivity-consistent in the plane metric
    and refuted in the sphere-pulled-back metric.

    The Euclidean check closes in closed form: every off-diagonal pair has
    an eigen-coordinate gap that doubling drives past any ball radius. The
    sphere metric shrinks distances near infinity, so the far pair
    (R, 0), (R+1, 0) stays within the ball at every probed time.
    """
    plane = catalog()["plane-two-metrics"].build()
    rng = random.Random(seed)
    R = 2.0 ** 20
    pairs = [((R, 0.0), (R + 1.0, 0.0))]
    for _ in range(24):
        x = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        pairs.append((x, (x[0] + rng.uniform(-0.05, 0.05),
                          x[1] + rng.uniform(-0.05, 0.05))))

    ball_euclid = metric_ball(plane, 0.1)
    ball_sphere = metric_ball(plane, 0.1, metric=plane.metrics["sphere"])
    euclid = expansive_check(plane, ball_euclid, pairs, horizon=horizon)
    sphere = expansive_check(plane, ball_sphere, pairs, horizon=horizon)

    expected = (euclid.verdict == CONSISTENT
                and euclid.proof_level == "closed-form"
                and sphere.verdict == REFUTED)
    rep = Report(
        demo="ex22",
        alias="two-metrics",
        system=plane.name,
        ball_radius=0.1,
        horizon=horizon,
        euclid_outcome=euclid.verdict,
        euclid_proof=euclid.proof_level,
        sphere_outcome=sphere.verdict,
        sphere_proof=sphere.proof_level,
        verdict=PASS if expected else FAIL,
        note="expansivity is a property of the metric pair, not of the map: "
             "one verdict per metric",
    )
    far = pairs[0]
    rows = []
    for n in range(-horizon, horizon + 1, 20):
        fx, fy = plane.iterate(far[0], n), plane.iterate(far[1], n)
        rows.append([n, plane.metric(fx, fy),
                     plane.metrics["sphere"](fx, fy)])
    rep.add_table("far-pair-distances",
                  ["iterate", "euclid_distance", "sphere_distance"], rows)
    rep.add_table(
        "sphere-refutation",
        ["x", "y", "kind"],
        [[plane.point_to_text(sphere.refutation.x),
          plane.point_to_text(sphere.refutation.y),
          sphere.refutation_kind]] if sphere.refutation else [],
    )
    return rep


def demo_strips(seed=0, delta=0.05, trials=40):
    """Conjugate strip translations with opposite tracing behavior.

    On shrinking fibers every delta-pseudo-orbit is traced within 2*delta
    by a true orbit. The fiber-rescaling conjugacy carries the system to
    unit fibers, where the second coordinate is invariant along orbits yet
    a pseudo-orbit with defect `rise` climbs the whole fiber; any orbit
    misses it by at least half the climb, so tracing at 0.4 fails for
    every positive defect bound.
    """
    pair = shrinking_intervals()
    sys_a, sys_b = pair.system_a, pair.system_b
    rng = random.Random(seed)

    rows_a, worst = [], 0.0
    for _ in range(trials):
        window = noisy_window(sys_a, delta, 12, rng)
        n0, y0 = window[0]
        pseudo = PseudoOrbit(window, ORBIT_TAIL, delta)
        result = trace_strips(sys_a, pseudo)
        worst = max(worst, result.error_bound)
        rows_a.append([n0, round(y0, 6), max(compute_defects(sys_a, pseudo)),
                       result.error_bound, result.guaranteed_bound])

    epsilon = 0.4
    rows_b, refuted_all = [], True
    for rise in (0.09, 0.02):
        steps = math.ceil(1.0 / rise) + 2
        climb = strip_climb_pseudo_orbit(sys_b, steps=steps, rise=rise)
        ys = [z[1] for z in climb.window]
        span = max(ys) - min(ys)
        # orbits of the unit family keep y constant, so the best possible
        # sup error over the window is half the climbed span
        floor = span / 2.0
        refuted_all = refuted_all and floor > epsilon
        rows_b.append([rise, steps, span, floor, epsilon])

    ok = worst <= 2.0 * delta + 1e-12 and refuted_all
    rep = Report(
        demo="ex23",
        alias="strips",
        systems=f"{sys_a.name} {sys_b.name}",
        delta=delta,
        trials=trials,
        worst_traced_error=worst,
        traced_error_bound=2.0 * delta,
        refutation_epsilon=epsilon,
        conjugate="fiber rescaling maps one system onto the other",
        verdict=PASS if ok else FAIL,
        note="tracing is metric geometry, not topology: a conjugacy moves "
             "the property on or off a system",
    )
    rep.add_table("shrinking-traced",
                  ["start_strip", "start_y", "defect", "error", "bound"],
                  rows_a)
    rep.add_table("unit-refuted",
                  ["rise", "steps", "span", "best_possible_error", "epsilon"],
                  rows_b)
    return rep


def demo_harmonic(count=200, walk=10000):
    """Identity on the harmonic partial sums: entourage shadowing holds,
    metric shadowing fails at every scale.

    The gauge assigns each point half its gap to the next point. Inside
    that entourage the only admissible step is standing still, so every
    gauge pseudo-orbit is a true orbit and traces itself exactly. Fixed
    metric defects instead allow hops between consecutive points, and the
    partial sums diverge, so a stalled walk escapes any epsilon window
    around every candidate fixed point.
    """
    system = catalog()["harmonic"].build()
    points = system.points(count)

    def gauge(x):
        n = system.index_of(x)
        return 0.5 * system.gap_after(n)

    D = gauge_entourage(system, gauge)
    rows_gauge, frozen = [], True
    for n in (1, 2, 5, 20, 100, count):
        x = system.point(n)
        neighbors = [y for y in points if D.accepts(x, y)]
        frozen = frozen and neighbors == [x]
        rows_gauge.append([n, gauge(x), len(neighbors)])

    epsilon = 1.0
    rows_walk, escaped_all = [], True
    for start_n in (11, 101, 1001):
        pseudo = harmonic_stall_walk(system, start_n=start_n, stall=3,
                                     walk=walk)
        xs = pseudo.window
        span = xs[-1] - xs[0]
        floor = span / 2.0  # identity orbits are constant
        escaped_all = escaped_all and floor > epsilon
        rows_walk.append([start_n, pseudo.defect_bound, walk, span, floor,
                          epsilon])

    ok = frozen and escaped_all
    rep = Report(
        demo="sec5",
        alias="harmonic",
        system=system.name,
        points=count,
        walk_steps=walk,
        gauge="half the forward gap",
        verdict=PASS if ok else FAIL,
        note="with a positive continuous gauge the pseudo-orbits freeze and "
             "shadowing is trivial; with any constant defect they escape",
    )
    rep.add_table("gauge-neighborhoods",
                  ["n", "gauge", "points_within_gauge"], rows_gauge)
    rep.add_table("metric-escapes",
                  ["start_n", "defect", "steps", "span",
                   "best_possible_error", "epsilon"], rows_walk)
    return rep


def demo_decomposition(seed=0, resolution=32):
    """Spectral decomposition on three families, with certificate checks."""
    cases = [
        ("two-block-sft", 2),
        ("three-cycle", 1),
        ("cat-map", 1),
    ]
    rows, ok = [], True
    for name, expected in cases:
        system = catalog()[name].build()
        dec = spectral_decompose(system, resolution=resolution, seed=seed)
        failures = dec.validate(system)
        good = len(dec.basic_sets) == expected and not failures
        ok = ok and good
        rows.append([name, dec.family, len(dec.basic_sets), expected,
                     len(dec.recurrent_nodes), len(failures)])
    rep = Report(
        demo="decomposition",
        alias="decomposition",
        resolution=resolution,
        seed=seed,
        verdict=PASS if ok else FAIL,
        note="each basic set carries transitivity and periodic-density "
             "certificates that re-verify from their own stored evidence",
    )
    rep.add_table(
        "decompositions",
        ["system", "family", "basic_sets", "expected", "recurrent_nodes",
         "certificate_failures"],
        rows,
    )
    return rep


DEMOS = {
    "ex22": demo_two_metrics,
    "two-metrics": demo_two_metrics,
    "ex23": demo_strips,
    "strips": demo_strips,
    "sec5": demo_harmonic,
    "harmonic": demo_harmonic,
    "decomposition": demo_decomposition,
}

DEMO_NAMES = ("ex22", "ex23", "sec5", "decomposition")


def run_demo(name, seed=0):
    """Run one named demo and return its Report."""
    try:
        fn = DEMOS[name]
    except KeyError:
        raise ValueError(
            f"Unknown demo {name!r}; available: {', '.join(sorted(DEMOS))}."
        ) from None
    if fn is demo_harmonic:
        return fn()
    return fn(seed=seed)
