"""Expansivity checks, local sets, the bracket map, and stability."""

import hashlib
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import (
    CONSISTENT,
    REFUTED,
    LiftAmbiguityError,
    NotHyperbolicError,
    ProductDomainError,
    PseudoOrbit,
    compute_defects,
    expansive_check,
    finite_system,
    glued_pseudo_orbit,
    image_entourage,
    linear_hyperbolic,
    local_stable_set,
    local_unstable_set,
    metric_ball,
    permutation_from_cycles,
    plane_two_metrics,
    predicate_entourage,
    product_map_t,
    sft_flip_perturbation,
    sft_shift,
    splice_symbolic,
    stability_conjugacy_h,
    torus_automorphism,
    trace_linear_hyperbolic,
    trace_sft,
    trig_perturbation,
    v_n_box_halfwidths,
    v_n_entourage,
)
from topodyn import hyperbolic
from topodyn.hyperbolic import (ExpansivityReport, PairSeparation,
                                 ProductStructure, _chunk_samples)
from topodyn.systems import (TorusAutomorphism, _north_south, _respell, catalog,
                             sft_metric, sphere_metric, symbolic_point)

DIAG = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle")
CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
GOLDEN = sft_shift(("11", "10"), name="golden-mean")
FULL2 = sft_shift(("11", "11"), name="full-2")


# ---------------------------------------------------------------------------
# expansivity


def test_expansive_closed_form_linear():
    pairs = [((0.0, 0.0), (0.3, 0.0)), ((1.0, 1.0), (1.0, 1.2)),
             ((0.5, 0.5), (0.5, 0.5))]
    report = expansive_check(DIAG, metric_ball(DIAG, 5.0), pairs, horizon=40)
    assert report.verdict == CONSISTENT
    assert report.proof_level == "closed-form"
    assert report.skipped_equal == 1
    assert len(report.separations) == 2
    rep = report.to_report(DIAG)
    assert rep.exit_code == 0


def test_expansive_closed_form_sft_and_separation_indices():
    x = GOLDEN.periodic_point((0,))
    y = GOLDEN.periodic_point((0, 0, 1))
    report = expansive_check(GOLDEN, metric_ball(GOLDEN, 0.25), [(x, y)],
                             horizon=40)
    assert report.verdict == CONSISTENT
    assert report.proof_level == "closed-form"
    (sep,) = report.separations
    # the first disagreement reaches index 0 after finitely many shifts
    assert GOLDEN.metric(sep.x, sep.y) < 0.25 or sep.index == 0


def test_expansive_refuted_by_ball_wider_than_shift_space():
    x = FULL2.periodic_point((0,))
    y = FULL2.periodic_point((1,))
    report = expansive_check(FULL2, metric_ball(FULL2, 1.5), [(x, y)],
                             horizon=12)
    assert report.verdict == REFUTED
    # both joint orbits are fixed, so the trap is proved by an exact cycle
    assert report.refutation_kind == "cycle"
    assert report.to_report(FULL2).exit_code == 1


def test_expansive_cycle_refutation_on_identity():
    ident = finite_system(("p", "q"), {"p": "p", "q": "q"}, name="identity")
    report = expansive_check(ident, metric_ball(ident, 1.5), [("p", "q")],
                             horizon=20)
    assert report.verdict == REFUTED
    assert report.proof_level == "cycle"
    assert report.refutation.x == "p" and report.refutation.y == "q"
    assert "proof" in report.note


def test_expansive_horizon_refutation_north_south():
    ns = _north_south()
    report = expansive_check(ns, metric_ball(ns, 0.5), [(0.2, 0.3)],
                             horizon=50)
    assert report.verdict == REFUTED
    assert report.proof_level == "horizon"
    assert "not a proof" in report.note


def test_expansive_two_metrics_contrast():
    plane = plane_two_metrics()
    pair = ((0.0, 3.0), (0.0, 4.0))
    euclid = expansive_check(plane, metric_ball(plane, 0.5), [pair],
                             horizon=60)
    assert euclid.verdict == CONSISTENT
    assert euclid.proof_level == "closed-form"

    sphere = metric_ball(plane, 0.5, metric=plane.metrics["sphere"])
    spherical = expansive_check(plane, sphere, [pair], horizon=60)
    assert spherical.verdict == REFUTED
    assert spherical.refutation_kind == "horizon"


_LINEAR_PROOF = (
    "closed form: writing y - x = u*v_u + s*v_s, a nonzero u grows as "
    "rate_u^n = 2^n forward and a nonzero s grows as rate_s^-n = 0.5^-n "
    "backward, so every distinct pair leaves any finite-radius ball; every "
    "metric ball is an expansivity neighborhood")
_ORIGIN, _RIGHT, _UP = (0.0, 0.0), (0.1, 0.0), (0.0, 0.1)


def _expansivity_outcomes():
    """(name, system, N, pairs, horizon, the whole expected report), one
    case per way expansive_check can end."""
    ns = _north_south()
    cycle3 = permutation_from_cycles([("a", "b", "c")], name="three-cycle")
    plane = plane_two_metrics()
    return [
        ("closed-form", DIAG, metric_ball(DIAG, 0.5),
         [(_ORIGIN, _RIGHT), (_ORIGIN, _UP), ((1.0, 1.0), (1.0, 1.0))], 60,
         ExpansivityReport(
             CONSISTENT, "closed-form", _LINEAR_PROOF,
             (PairSeparation(_ORIGIN, _RIGHT, 3),
              PairSeparation(_ORIGIN, _UP, -3)),
             (), None, None, 60, 1)),
        ("closed-form-unresolved", DIAG, metric_ball(DIAG, 0.5),
         [(_ORIGIN, _RIGHT), (_ORIGIN, (1e-9, 0.0))], 3,
         ExpansivityReport(
             CONSISTENT, "closed-form",
             _LINEAR_PROOF + "; 1 sampled pair(s) separate beyond the "
             "horizon 3 and are listed as unresolved",
             (PairSeparation(_ORIGIN, _RIGHT, 3),),
             ((_ORIGIN, (1e-9, 0.0)),), None, None, 3, 0)),
        ("cycle", cycle3, metric_ball(cycle3, 2.0), [("a", "b"), ("a", "a")],
         10,
         ExpansivityReport(
             REFUTED, "cycle",
             "the witness pair's joint orbit revisits an exact state in both "
             "directions while staying inside N, so it never separates; this "
             "is a proof",
             (), (), PairSeparation("a", "b", 3), "cycle", 10, 1)),
        ("horizon", ns, metric_ball(ns, 0.3), [(-0.5, 0.5), (0.9, 0.91)], 10,
         ExpansivityReport(
             REFUTED, "horizon",
             "the witness pair stayed inside N for every |n| <= 10; evidence "
             "is horizon-bounded, not a proof",
             (PairSeparation(-0.5, 0.5, 0),), (),
             PairSeparation(0.9, 0.91, 10), "horizon", 10, 0)),
        ("sampled-consistent", plane,
         metric_ball(plane, 0.5, metric=sphere_metric),
         [(_ORIGIN, _RIGHT), (_ORIGIN, _UP), ((0.2, 0.2), (0.2, 0.2))], 20,
         ExpansivityReport(
             CONSISTENT, "horizon",
             "every sampled pair separated within the horizon; evidence is "
             "sample-bounded, not a proof",
             (PairSeparation(_ORIGIN, _RIGHT, 2),
              PairSeparation(_ORIGIN, _UP, -2)),
             (), None, None, 20, 1)),
    ]


@pytest.mark.parametrize("case", _expansivity_outcomes(),
                         ids=lambda case: case[0])
def test_expansivity_report_pins_every_field(case):
    # dataclass equality compares all nine fields, the note included
    _, system, N, pairs, horizon, expected = case
    assert expansive_check(system, N, pairs, horizon=horizon) == expected


def test_expansive_check_horizon_validation():
    with pytest.raises(ValueError):
        expansive_check(DIAG, metric_ball(DIAG, 1.0), [], horizon=0)


# ---------------------------------------------------------------------------
# iterate-constrained entourages


def test_v_n_entourage_depth_semantics():
    base = metric_ball(DIAG, 1.0)
    x, y = (0.0, 0.0), (0.2, 0.2)
    # |2^n * 0.2| stays under 1.0 up to n = 2 and breaks at n = 3
    assert v_n_entourage(DIAG, base, 2).accepts(x, y)
    assert not v_n_entourage(DIAG, base, 3).accepts(x, y)
    assert v_n_entourage(DIAG, base, 0) is base
    with pytest.raises(ValueError):
        v_n_entourage(DIAG, base, -1)


def test_v_n_box_halfwidths_match_membership_on_axes():
    base = metric_ball(DIAG, 1.0)
    hu, hs = v_n_box_halfwidths(DIAG, base, 3)
    assert hu == pytest.approx(2.0 ** -3)
    assert hs == pytest.approx(0.5 ** 3)
    v3 = v_n_entourage(DIAG, base, 3)
    origin = (0.0, 0.0)
    assert v3.accepts(origin, (hu * 0.999, 0.0))
    assert not v3.accepts(origin, (hu * 1.001, 0.0))
    assert v3.accepts(origin, (0.0, hs * 0.999))
    assert not v3.accepts(origin, (0.0, hs * 1.001))
    with pytest.raises(TypeError):
        v_n_box_halfwidths(DIAG, predicate_entourage(lambda a, b: True), 1)


# ---------------------------------------------------------------------------
# local stable and unstable sets


def test_local_sets_linear_segments():
    x = (0.3, 0.4)
    B = metric_ball(DIAG, 0.25)
    ws = local_stable_set(DIAG, x, B)
    wu = local_unstable_set(DIAG, x, B)
    assert ws.kind == "segment" and wu.kind == "segment"
    assert ws.contains((0.3, 0.6)) and not ws.contains((0.3, 0.7))
    assert not ws.contains((0.35, 0.4))
    assert wu.contains((0.5, 0.4)) and not wu.contains((0.5, 0.45))
    assert ws.contains(x) and wu.contains(x)


def test_local_set_torus_segment_wraps():
    x = (0.02, 0.03)
    B = metric_ball(CAT, 0.25)
    ws = local_stable_set(CAT, x, B)
    step = CAT.combine(0.0, -0.1)  # 0.1 backward along the stable line
    y = ((x[0] + step[0]) % 1.0, (x[1] + step[1]) % 1.0)
    assert ws.contains(y)
    off = CAT.combine(0.1, 0.0)
    z = ((x[0] + off[0]) % 1.0, (x[1] + off[1]) % 1.0)
    assert not ws.contains(z)
    assert local_unstable_set(CAT, x, B).contains(z)


def test_local_sets_sft_cylinders():
    x = FULL2.periodic_point((0, 1))
    zeros = FULL2.periodic_point((0,))
    B = metric_ball(FULL2, 0.5)
    ws = local_stable_set(FULL2, x, B)
    wu = local_unstable_set(FULL2, x, B)
    assert ws.kind == "cylinder" and wu.kind == "cylinder"

    y = FULL2.validate_point(splice_symbolic(zeros, x, seam=-1))
    assert ws.contains(y)  # agrees with x on [-1, inf)
    y2 = FULL2.validate_point(splice_symbolic(zeros, x, seam=0))
    assert not ws.contains(y2)  # disagrees already at -1

    y3 = FULL2.validate_point(splice_symbolic(x, zeros, seam=2))
    assert wu.contains(y3)  # agrees with x on (-inf, 1]
    y4 = FULL2.validate_point(splice_symbolic(x, zeros, seam=1))
    assert not wu.contains(y4)


@pytest.mark.parametrize("name, kind", [("diag-saddle", "segment"),
                                        ("golden-mean", "cylinder")])
def test_a_ball_on_a_twin_instance_is_in_the_own_metric(name, kind):
    """A second, equal instance of a system has the same metric, as the
    class's metric reads no instance data: a ball built on the twin keeps
    the closed-form expansivity proof and the closed-form local sets."""
    entry = catalog()[name]
    system, twin = entry.build(), entry.build()
    assert system.metric != twin.metric and system.is_own_metric(twin.metric)
    if kind == "segment":
        x, y = (0.1, 0.2), (0.3, 0.2)
    else:
        x, y = system.periodic_point((0,)), system.periodic_point((0, 0, 1))
    for B in (metric_ball(system, 0.5), metric_ball(twin, 0.5)):
        report = expansive_check(system, B, [(x, y)], horizon=20)
        assert report.proof_level == "closed-form"
        assert local_stable_set(system, x, B).kind == kind
        assert local_unstable_set(system, x, B).kind == kind


def test_a_generic_system_owns_only_its_own_metric():
    """A GenericSystem's metric is instance data, so the metric of another
    instance built the same way is not its own, and its local sets are
    sampled either way."""
    ns, twin = _north_south(), _north_south()
    assert ns.is_own_metric(ns.metric) and not ns.is_own_metric(twin.metric)
    assert local_stable_set(ns, 0.5, metric_ball(twin, 0.3)).kind == "sampled"


def test_local_set_sampled_fallback():
    ns = _north_south()
    B = metric_ball(ns, 0.3)
    ws = local_stable_set(ns, 0.5, B, horizon=40)
    assert ws.kind == "sampled"
    assert "over-approximation" in ws.description
    assert ws.contains(0.6)
    assert not ws.contains(-0.5)


# ---------------------------------------------------------------------------
# product structure


def test_product_map_t_diag_closed_form():
    ps = product_map_t(DIAG, r_A=0.9)
    rng = random.Random(11)
    for _ in range(200):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = (x[0] + rng.uniform(-0.2, 0.2), x[1] + rng.uniform(-0.2, 0.2))
        if not ps.D.accepts(x, y):
            continue
        tx = ps.t(x, y)
        assert abs(tx[0] - x[0]) < 1e-15
        assert abs(tx[1] - y[1]) < 1e-15
        assert ps.t(x, x) == x


def test_product_bracket_lands_in_both_local_sets():
    ps = product_map_t(DIAG, r_A=0.9)
    rng = random.Random(7)
    for _ in range(50):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = (x[0] + rng.uniform(-0.2, 0.2), x[1] + rng.uniform(-0.2, 0.2))
        if not ps.D.accepts(x, y):
            continue
        tx = ps.t(x, y)
        assert local_stable_set(DIAG, x, ps.B).contains(tx)
        assert local_unstable_set(DIAG, y, ps.B).contains(tx)


def test_product_t_traced_matches_closed_form():
    rng = random.Random(23)
    for system in (DIAG, CAT):
        ps = product_map_t(system, r_A=0.9, half_window=25)
        checked = 0
        while checked < 25:
            x = (rng.random(), rng.random())
            y = ((x[0] + rng.uniform(-0.05, 0.05)) % 1.0,
                 (x[1] + rng.uniform(-0.05, 0.05)) % 1.0)
            try:
                closed = ps.t(x, y)
            except ProductDomainError:
                continue
            traced = ps.t_traced(x, y)
            assert system.metric(closed, traced) < 1e-9
            checked += 1


def test_product_fixed_point_characterizations():
    ps = product_map_t(DIAG, r_A=0.9)
    x = (0.4, -0.2)
    along_u = (0.55, -0.2)   # same stable coordinate
    along_s = (0.4, -0.05)   # same unstable coordinate
    assert DIAG.metric(ps.t(x, along_u), x) < 1e-14
    assert DIAG.metric(ps.t(x, along_s), along_s) < 1e-14
    generic = (0.45, -0.15)
    assert DIAG.metric(ps.t(x, generic), x) > 1e-3
    assert DIAG.metric(ps.t(x, generic), generic) > 1e-3


def test_product_sft_splice_semantics():
    ps = product_map_t(GOLDEN)
    x = GOLDEN.periodic_point((0, 0, 1))
    zeros = GOLDEN.periodic_point((0,))
    # same symbols as x on [-1, inf), all zeros in the far past
    y = GOLDEN.validate_point(splice_symbolic(zeros, x, seam=-1))
    assert GOLDEN.metric(x, y) == 0.0625  # first disagreement at -4
    assert ps.D.accepts(x, y)
    t = ps.t(x, y)
    for i in range(0, 8):
        assert t.symbol_at(i) == x.symbol_at(i)
    for i in range(-8, 0):
        assert t.symbol_at(i) == y.symbol_at(i)
    assert ps.t(x, x) == x
    assert local_stable_set(GOLDEN, x, ps.B).contains(t)
    assert local_unstable_set(GOLDEN, y, ps.B).contains(t)


def test_product_sft_traced_agrees_with_splice():
    ps = product_map_t(FULL2, half_window=20)
    x = FULL2.periodic_point((1, 0, 0))
    y = FULL2.validate_point(splice_symbolic(FULL2.periodic_point((0,)), x,
                                             seam=-3))
    assert ps.D.accepts(x, y)
    assert ps.t(x, y) == ps.t_traced(x, y)


def test_product_sft_inadmissible_seam_raises():
    p = GOLDEN.periodic_point((1, 0))
    loose = ProductStructure(
        GOLDEN,
        A=metric_ball(GOLDEN, 1.5),
        B=metric_ball(GOLDEN, 1.5),
        D=metric_ball(GOLDEN, 1.5),
        method="symbolic-splice",
    )
    with pytest.raises(ProductDomainError):
        loose.t(p, p.shifted(1))  # seam transition would read 1 -> 1


def test_lift_ambiguity_guard():
    ps = product_map_t(CAT)
    with pytest.raises(LiftAmbiguityError):
        ps.t((0.1, 0.1), (0.45, 0.6))
    assert issubclass(LiftAmbiguityError, ProductDomainError)


def test_product_domain_guard():
    ps = product_map_t(DIAG)
    with pytest.raises(ProductDomainError):
        ps.t((0.0, 0.0), (2.0, 2.0))


def test_product_map_t_rejects_nonhyperbolic():
    with pytest.raises(NotHyperbolicError):
        product_map_t(_north_south())


def test_glued_pseudo_orbit_shape():
    x, y = (0.30, 0.40), (0.32, 0.41)
    po = glued_pseudo_orbit(DIAG, x, y, half_window=6)
    assert len(po.window) == 13
    assert po.start_index == -6
    assert po.window[6] == x
    assert po.defect_bound == DIAG.metric(y, x)
    gaps = compute_defects(DIAG, po)
    assert max(gaps) == pytest.approx(po.defect_bound)
    assert gaps[5] == max(gaps)  # the only defect sits at the seam
    assert max(gaps[:5] + gaps[6:]) < 1e-12


# ---------------------------------------------------------------------------
# perturbation builders


def test_trig_perturbation_certificate_and_inverse():
    g = trig_perturbation(CAT, 0.01)
    cert = g.payload["certificate"]
    assert cert["margin"] > 0
    assert g.payload["sup_defect"] == pytest.approx(0.01 * math.sqrt(2.0))
    rng = random.Random(4)
    for _ in range(30):
        x = (rng.random(), rng.random())
        y = g.forward(x)
        back = g.backward(y)
        assert CAT.metric(back, x) < 1e-10
        assert CAT.metric(y, CAT.forward(x)) <= 0.01 * math.sqrt(2.0) + 1e-12


def test_trig_perturbation_batch_matches_pointwise():
    g = trig_perturbation(CAT, 0.005)
    rng = random.Random(9)
    pts = [(rng.random(), rng.random()) for _ in range(20)]
    batch = g.forward_batch(np.array(pts))
    back = g.backward_batch(batch)
    for p, row, prev in zip(pts, batch, back):
        q = g.forward(p)
        assert CAT.metric(q, tuple(row)) < 1e-12
        assert CAT.metric(g.backward(q), tuple(prev)) < 1e-12
    assert g.backward_batch(np.empty((0, 2))).shape == (0, 2)


def test_trig_perturbation_guards():
    with pytest.raises(ValueError):
        trig_perturbation(CAT, 0.1)  # 2 pi m exceeds sigma_min
    with pytest.raises(ValueError):
        trig_perturbation(CAT, -0.001)
    with pytest.raises(TypeError):
        trig_perturbation(DIAG, 0.01)


def _torus_or_none(entries):
    try:
        return torus_automorphism((entries[:2], entries[2:]))
    except ValueError:  # |det| != 1, or no hyperbolic splitting
        return None


# every hyperbolic torus automorphism with entries in -3..3 and |det| = 1
TORI = [t for t in map(_torus_or_none, itertools.product(range(-3, 4), repeat=4))
        if t is not None]


@settings(max_examples=100)
@given(st.sampled_from(TORI), st.floats(0.0, 0.99), st.integers(0, 2 ** 32 - 1))
def test_trig_inverse_meets_its_residual_row_by_row(system, share, seed):
    # m from 0 up to 0.99 of the certificate's limit sigma_min / (2 pi)
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    g = trig_perturbation(system, share * sigma_min / (2.0 * math.pi))
    q = np.random.default_rng(seed).random((24, 2))
    back = g.backward_batch(q)
    lifted = g.forward_batch(back) - q
    lifted -= np.round(lifted)
    # g's own float evaluation of A x rounds at about eps |A|; the matrices
    # with row sums up to 3 (cat-map's) meet 1e-15
    norm = max(abs(a) + abs(b) for a, b in system.matrix)
    tol = 1e-15 if norm <= 3 else 4 * np.finfo(float).eps * norm
    assert np.max(np.hypot(lifted[:, 0], lifted[:, 1])) <= tol
    for i, row in enumerate(back.tolist()):
        assert g.backward_batch(q[i:i + 1]).tolist() == [row]


def test_trig_inverse_halves_a_step_that_does_not_shrink_the_residual():
    # near the certificate's limit, full Newton steps from A^-1 q wander on
    # this row past the step cap; halving them lets it stop
    system = torus_automorphism(((1, -1), (-2, 1)))
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    g = trig_perturbation(system, 0.99 * sigma_min / (2.0 * math.pi))
    q = np.array([[0.9824650929766877, 0.98523575531838]])
    lifted = g.forward_batch(g.backward_batch(q)) - q
    assert np.max(np.abs(lifted - np.round(lifted))) <= 1e-15


def test_trig_inverse_rows_equal_the_scalar_inverse():
    # a stop on a batch-wide test made 783 of these rows differ
    g = trig_perturbation(CAT, 0.01)
    rng = random.Random(3)
    pts = [(rng.random(), rng.random()) for _ in range(4096)]
    rows = g.backward_batch(np.array(pts)).tolist()
    assert [tuple(row) for row in rows] == [g.backward(p) for p in pts]


def test_trig_inverse_raises_on_a_row_that_has_not_stopped(monkeypatch):
    q = np.array([[0.3, 0.7], [0.9, 0.1]])
    monkeypatch.setattr(hyperbolic, "_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="2 rows"):
        trig_perturbation(CAT, 0.01).backward_batch(q)
    # at m = 0 the one step is exact: the automorphism's own inverse
    assert (trig_perturbation(CAT, 0.0).backward_batch(q).tolist()
            == CAT.backward_batch(q).tolist())


# reference: the trig inverse's Newton loop as it was, which filtered every
# array by a boolean mask whenever rows stopped, also once every row had,
# and wrapped with np.remainder


def ref_trig_backward(system, m, q, halved=None):
    """The loop; `halved`, when given, receives the count of rows whose
    step is halved at each step."""
    if m == 0:
        return system.cover.backward_batch(q) % 1.0
    (a, b), (c, d) = ((float(v) for v in row) for row in system.matrix)
    sigma_min = hyperbolic._singular_values(system.matrix)[1]
    lipschitz = 2.0 * math.pi * m
    quad = m * (2.0 * math.pi) ** 2 / (2.0 * (sigma_min - lipschitz))

    def newton(x1, x2, q1, q2):
        u1, u2 = 2.0 * np.pi * x1, 2.0 * np.pi * x2
        f1 = a * x1 + b * x2 + m * np.sin(u2) - q1
        f2 = c * x1 + d * x2 + m * np.sin(u1) - q2
        j12, j21 = b + lipschitz * np.cos(u2), c + lipschitz * np.cos(u1)
        det = a * d - j12 * j21
        return (f1 * f1 + f2 * f2, (d * f1 - j12 * f2) / det,
                (a * f2 - j21 * f1) / det)

    out, rows = np.empty_like(q), np.arange(len(q))
    q1, q2 = q.T.copy()
    x1, x2 = system.cover.backward_batch(q).T.copy()
    r, d1, d2 = newton(x1, x2, q1, q2)
    t = np.ones_like(r)
    for _ in range(hyperbolic._NEWTON_STEPS):
        y1, y2 = x1 - t * d1, x2 - t * d2
        done = (t == 1.0) & (quad * (d1 * d1 + d2 * d2) < 2.0 ** -60)
        if done.any():
            out[rows[done]] = np.stack([y1[done], y2[done]], axis=1)
            rows, q1, q2, x1, x2, y1, y2, r, d1, d2, t = (
                v[~done] for v in (rows, q1, q2, x1, x2, y1, y2, r, d1, d2, t))
        if not rows.size:
            return out % 1.0
        ry, e1, e2 = newton(y1, y2, q1, q2)
        ok = ry <= (1.0 - 1e-4 * t) * r
        if halved is not None:
            halved.append(int((~ok).sum()))
        if not ok.all():
            y1, y2, ry, e1, e2 = (np.where(ok, v, w) for v, w in (
                (y1, x1), (y2, x2), (ry, r), (e1, d1), (e2, d2)))
        x1, x2, r, d1, d2, t = y1, y2, ry, e1, e2, np.where(ok, 1.0, 0.5 * t)
    raise ArithmeticError(f"{len(rows)} rows of the trig inverse did not "
                          f"stop within {hyperbolic._NEWTON_STEPS} Newton steps.")


def _outcome(inverse, *args):
    """The bytes an inverse returns, or the ArithmeticError it raises."""
    try:
        return inverse(*args).tobytes()
    except ArithmeticError as err:
        return str(err)


@settings(max_examples=100)
@given(st.sampled_from(TORI), st.floats(0.0, 0.99), st.integers(0, 300),
       st.integers(0, 2 ** 32 - 1))
def test_trig_inverse_equals_the_masking_loop_byte_for_byte(system, share, n,
                                                             seed):
    # m from 0 up to 0.99 of the certificate's limit sigma_min / (2 pi)
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    m = share * sigma_min / (2.0 * math.pi)
    g = trig_perturbation(system, m)
    q = np.random.default_rng(seed).random((n, 2))
    want = ref_trig_backward(system, m, q)
    assert g.backward_batch(q).tobytes() == want.tobytes()
    # a cap of one step stops no row, unless m = 0 or there are none
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolic, "_NEWTON_STEPS", 1)
        assert (_outcome(g.backward_batch, q)
                == _outcome(ref_trig_backward, system, m, q))


def test_trig_inverse_equals_the_masking_loop_on_the_halving_row():
    system = torus_automorphism(((1, -1), (-2, 1)))
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    m = 0.99 * sigma_min / (2.0 * math.pi)
    q = np.array([[0.9824650929766877, 0.98523575531838]])
    assert (trig_perturbation(system, m).backward_batch(q).tobytes()
            == ref_trig_backward(system, m, q).tobytes())


def _steps_to_stop(g, row):
    """The least Newton step cap under which the inverse of one row stops."""
    for cap in range(1, hyperbolic._NEWTON_STEPS + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyperbolic, "_NEWTON_STEPS", cap)
            try:
                g.backward_batch(np.array([row]))
                return cap
            except ArithmeticError:
                pass
    return None


# cat-map rows at m = 0.01 whose inverses stop after 1, 2 and 3 full steps
# (found by `_steps_to_stop` on random rows); the first is near (1/2, 1/2),
# where the perturbation is nearly flat
TRIG_STOPS = [(0.5017273800912887, 0.4993512769116685),
              (0.12857020276919962, 0.49927786244011496),
              (0.14792608457745593, 0.9282110229603695)]


def test_trig_inverse_equals_the_loop_on_rows_that_stop_apart():
    # rows stop at three different evaluations: the first two batches of
    # stopped rows are written out before the moving ones are compacted
    g = trig_perturbation(CAT, 0.01)
    assert [_steps_to_stop(g, row) for row in TRIG_STOPS] == [2, 3, 4]
    q = np.array(TRIG_STOPS[::-1] + TRIG_STOPS + TRIG_STOPS[1:2])
    assert g.backward_batch(q).tobytes() == ref_trig_backward(CAT, 0.01, q).tobytes()


def test_trig_inverse_equals_the_loop_on_a_batch_with_a_halving():
    # the halving row moves on a halved step among rows that stop on full
    # steps, and the step lengths are compacted with them
    system = torus_automorphism(((1, -1), (-2, 1)))
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    m = 0.99 * sigma_min / (2.0 * math.pi)
    g = trig_perturbation(system, m)
    halving = (0.9824650929766877, 0.98523575531838)
    rows = np.random.default_rng(4).random((40, 2)).tolist()
    q = np.array(rows[:20] + [halving] + rows[20:])
    halved = []
    want = ref_trig_backward(system, m, q, halved)
    assert any(halved) and not all(halved)  # halvings, and full steps after
    assert g.backward_batch(q).tobytes() == want.tobytes()


def test_trig_inverse_equals_the_loop_on_one_row():
    # one row takes only full steps and stops with the whole batch
    g = trig_perturbation(CAT, 0.01)
    for row in TRIG_STOPS:
        q = np.array([row])
        assert g.backward_batch(q).tobytes() == ref_trig_backward(CAT, 0.01, q).tobytes()


def test_floor_wrap_equals_remainder_byte_for_byte():
    # y - floor(y) is exact for y >= 0; for y < 0 it rounds fmod(y, 1) + 1
    # once, as np.remainder does, and both give nan for inf and nan
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1.0,
             -1.0, 3.0, -3.0, 1.0 - 2.0 ** -53, 2.0 ** -53 - 1.0,
             2.0 ** 52 + 0.5, -2.0 ** 52 - 0.5, 2.0 ** 60, -2.0 ** 60,
             1e300, -1e300, math.inf, -math.inf, math.nan, -math.nan]
    rng = np.random.default_rng(0)
    # every binary exponent from the subnormals up, and both signs
    spread = np.ldexp(rng.random(200_000) * 2.0 - 1.0,
                      rng.integers(-1074, 1024, 200_000))
    y = np.concatenate([edges, spread, rng.normal(0.0, 5.0, 200_000)])
    with np.errstate(invalid="ignore"):
        wrapped = y - np.floor(y)
        assert wrapped.tobytes() == (y % 1.0).tobytes()
    # and so does the scalar maps' Python float %
    assert (np.array([v % 1.0 for v in y[:50_000].tolist()]).tobytes()
            == wrapped[:50_000].tobytes())


def test_sft_flip_perturbation_displacement():
    g = sft_flip_perturbation(FULL2)
    x = FULL2.window_point((1, 1, 0, 1, 0, 0), offset=0)
    fx = FULL2.forward(x)
    gx = g.forward(x)
    assert sft_metric(gx, fx) == 0.25  # the flipped slot lands at index 2
    passive = FULL2.window_point((0, 1, 0, 1), offset=0)
    assert g.forward(passive) == FULL2.forward(passive)


def test_sft_flip_backward_inverts_forward():
    g = sft_flip_perturbation(FULL2)
    pts = [
        FULL2.periodic_point((1, 1, 0)),
        FULL2.window_point((1, 1, 1, 1, 0, 0, 1), offset=-2),
        FULL2.periodic_point((0,)),
    ]
    for x in pts:
        assert g.backward(g.forward(x)) == x
        assert g.forward(g.backward(x)) == x


def _flip_reference(x):
    """psi by respelling the whole window around the span and indices 0..4,
    symbol by symbol."""
    if x.symbol_at(0) != 1 or x.symbol_at(1) != 1:
        return x
    lo, hi = min(x.span_start, 0) - 1, max(x.span_end, 4) + 1
    return _respell(x, x, lo, [1 - x.symbol_at(i) if i == 3 else x.symbol_at(i)
                               for i in range(lo, hi + 1)])


_BITS = st.lists(st.integers(0, 1), min_size=1, max_size=4)


@settings(max_examples=300)
@given(_BITS, st.lists(st.integers(0, 1), max_size=9), _BITS,
       st.integers(-10, 8))
def test_sft_flip_matches_the_whole_span_respell(left, word, right, offset):
    """g = shift after psi and its inverse give the very records that
    psi by a full respell gives, on points whose span holds index 3, ends
    short of it, starts past it, or is empty."""
    g = sft_flip_perturbation(FULL2)
    x = symbolic_point(left, word, right, offset)
    assert g.forward(x) == FULL2.forward(_flip_reference(x))
    assert g.backward(x) == _flip_reference(FULL2.backward(x))


def test_sft_flip_guards():
    with pytest.raises(ValueError):
        sft_flip_perturbation(GOLDEN)
    with pytest.raises(TypeError):
        sft_flip_perturbation(DIAG)


# ---------------------------------------------------------------------------
# topological stability


def test_stability_trig_perturbation_linear_path():
    g = trig_perturbation(CAT, 0.002)
    rng = random.Random(17)
    samples = [(rng.random(), rng.random()) for _ in range(100)]
    D = metric_ball(CAT, 0.05)
    stab = stability_conjugacy_h(CAT, g, D, samples, window=40)
    assert stab.method == "eigen-series"
    assert stab.semiconjugacy_residual <= 1e-9
    assert stab.defect_sup <= 0.002 * math.sqrt(2.0) + 1e-12
    assert stab.guaranteed_closeness == pytest.approx(
        CAT.tracing_coefficient() * stab.defect_sup)
    assert stab.closeness <= stab.guaranteed_closeness + 1e-12
    assert stab.injective_flag
    rep = stab.to_report(CAT, max_rows=5)
    assert rep.exit_code == 0
    hx = stab.h(samples[0])
    assert CAT.metric(hx, stab.images[0]) < 1e-12


def test_stability_flags_collisions_across_the_torus_seam():
    # the two images are 2e-9 apart across x = 0; a hash that does not wrap
    # puts them in cells at opposite ends of the square and misses them
    g = trig_perturbation(CAT, 0.0)
    for samples in ([(1e-9, 0.5), (1 - 1e-9, 0.5)],
                    [(0.4 + 1e-9, 0.5), (0.4 - 1e-9, 0.5)]):
        stab = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.03), samples)
        assert stab.injective_flag is False
        assert stab.collisions == ((0, 1),)


def test_stability_sft_flip_closeness_stays_bounded():
    g = sft_flip_perturbation(FULL2)
    samples = [
        FULL2.periodic_point((1, 1, 0)),
        FULL2.periodic_point((1, 1, 0, 0)),
        FULL2.window_point((1, 1, 0, 1, 1, 0, 0, 1), offset=-3),
        FULL2.periodic_point((0,)),
    ]
    D = metric_ball(FULL2, 0.5)
    stab = stability_conjugacy_h(FULL2, g, D, samples, window=30)
    assert stab.method == "symbol-diagonal"
    assert stab.defect_sup <= 0.25
    assert stab.guaranteed_closeness <= 0.5
    # closeness measured at the sample index, not at the window start
    assert stab.closeness <= stab.guaranteed_closeness + 1e-12
    assert stab.semiconjugacy_residual <= 1e-8
    assert stab.to_report(FULL2).exit_code == 0


def test_stability_sft_report_is_pinned():
    # sha256 of the report over samples of g-period none, none, none, 1 and
    # 2, so both the open windows and the closed loops through x and g(x)
    # are pinned
    g = sft_flip_perturbation(FULL2)
    samples = [
        FULL2.periodic_point((1, 1, 0)),
        FULL2.periodic_point((1, 1, 0, 0)),
        FULL2.window_point((1, 1, 0, 1, 1, 0, 0, 1), offset=-3),
        FULL2.periodic_point((0,)),
        FULL2.periodic_point((0, 1)),
    ]
    stab = stability_conjugacy_h(FULL2, g, metric_ball(FULL2, 0.5), samples,
                                 window=30)
    text = stab.to_report(FULL2).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "fef052bc9cd3426c0830878fff716762bf1b8c110acd18d4d395af8cdd87cfac"


def test_stability_sft_h_is_the_tracer_at_the_sample_index():
    # the shift twin of the eigen-series check below: h(x) is the f-tracing
    # point of the g-orbit window through x, read at the sample's index
    W = 12
    g = sft_flip_perturbation(FULL2)
    rng = random.Random(31)
    samples = [FULL2.random_point(rng, 5) for _ in range(8)]
    stab = stability_conjugacy_h(FULL2, g, metric_ball(FULL2, 0.5), samples,
                                 window=W)
    for x in samples:
        rows = {0: x}
        for step, sign in ((g.forward, 1), (g.backward, -1)):
            for k in range(1, W + 1):
                rows[sign * k] = step(rows[sign * (k - 1)])
        assert x not in (rows[k] for k in range(1, W + 1))  # not g-periodic
        window = [rows[k] for k in range(-W, W + 1)]
        po = PseudoOrbit.measured(FULL2, window, start_index=-W)
        assert stab.h(x) == trace_sft(FULL2, po).traced_orbit[W]


def test_stability_nan_orbit_fails_without_warnings():
    # the diagonal saddle's float orbit overflows within 1,100 steps; the
    # NaN defect must reach defect_sup and the verdict, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stab = stability_conjugacy_h(DIAG, DIAG, metric_ball(DIAG, 1.0),
                                     [(0.3, 0.2)], window=1100)
        report = stab.to_report(DIAG)
    assert math.isnan(stab.defect_sup)
    assert report.exit_code != 0


def test_stability_semiconjugacy_property_spot_check():
    g = trig_perturbation(CAT, 0.001)
    samples = [(0.2, 0.7), (0.35, 0.15)]
    stab = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.05), samples,
                                 window=40)
    for x in samples:
        lhs = CAT.forward(stab.h(x))
        rhs = stab.h(g.forward(x))
        assert CAT.metric(lhs, rhs) < 1e-9


def test_stability_h_is_the_tracer_at_the_sample_index():
    # h(x) is the f-tracing point of the g-orbit window through x; the
    # window here is built from the same batch rows that h steps through
    W = 25
    g = trig_perturbation(CAT, 0.003)
    rng = random.Random(23)
    samples = [(rng.random(), rng.random()) for _ in range(12)]
    stab = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.05), samples,
                                 window=W)
    for x in samples:
        rows = {0: np.array([x])}
        for step, sign in ((g.forward_batch, 1), (g.backward_batch, -1)):
            for k in range(1, W + 1):
                rows[sign * k] = step(rows[sign * (k - 1)])
        window = tuple(tuple(rows[k][0].tolist()) for k in range(-W, W + 1))
        po = PseudoOrbit(window, "orbit-tail", 0.0, start_index=-W)
        assert stab.h(x) == trace_linear_hyperbolic(CAT, po).traced_orbit[W]


def test_stability_chunks_match_one_sample_at_a_time(monkeypatch):
    W = 10
    chunk = _chunk_samples(W)  # the route's own samples per chunk
    g = trig_perturbation(CAT, 0.002)
    rng = random.Random(5)
    samples = [(rng.random(), rng.random()) for _ in range(chunk + 12)]
    sizes, images = [], hyperbolic._linear_images

    def counted(f, g, pts, w, *gate):
        sizes.append(len(pts))
        return images(f, g, pts, w, *gate)

    monkeypatch.setattr(hyperbolic, "_linear_images", counted)
    stab = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.05), samples,
                                 window=W)
    assert sizes == [chunk, 12]  # the samples span two chunks
    for i in list(range(12)) + list(range(chunk - 12, chunk + 12)):
        assert stab.images[i] == stab.h(samples[i])


# reference: the block route the streamed linear stability route replaced


def ref_eigen_series(cover, windows, wrap):
    """The eigen-series kernel as it was, on orbit-tail windows: the defects
    of the whole (n, N, 2) block, then both recursions over every index."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = len(windows)
        nxt = windows[1:]
        d = nxt - np.stack(cover.forward((windows[:-1, :, 0],
                                          windows[:-1, :, 1])), axis=-1)
        if wrap:
            d -= np.round(d)
            d[d == 0.5] = -0.5
        du, ds = cover.split((d[..., 0], d[..., 1]))
        es, eu = np.zeros((2, n, windows.shape[1]))
        for k in range(n - 1):
            es[k + 1] = cover.lam_s * es[k] - ds[k]
        for k in range(n - 2, -1, -1):
            eu[k] = (eu[k + 1] + du[k]) / cover.lam_u
        traced = windows + np.stack(cover.combine(eu, es), axis=-1)
        if wrap:
            traced %= 1.0
    return traced, d


def ref_orbit_block(g, pts, window):
    """The g-orbit of every row of pts at k = -W .. W+1, shape (2W+2, N, 2)."""
    block = np.empty((2 * window + 2, pts.shape[0], 2))
    block[window] = pts
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(window + 1, 2 * window + 2):
            block[k] = g.forward_batch(block[k - 1])
        for k in range(window - 1, -1, -1):
            block[k] = g.backward_batch(block[k + 1])
    return block


def ref_linear_images(f, g, pts, window, radius=None):
    """h(x), h(g(x)) and the defect sup, read off one stored g-orbit block:
    block[:-1] is the window through x and block[1:] the one through g(x).
    The D-perturbation gate's radius is not read: callers pass a D that
    holds at every sample."""
    block = ref_orbit_block(g, pts, window)
    images, sup = [], 0.0
    for windows in (block[:-1], block[1:]):
        traced, defects = ref_eigen_series(
            f.cover, windows, isinstance(f, TorusAutomorphism))
        images.append(traced[window])
        sup = float(np.maximum(sup, np.max(np.hypot(defects[..., 0],
                                                    defects[..., 1]))))
    return images[0], images[1], sup


@settings(max_examples=60)
@given(st.sampled_from(TORI), st.floats(0.0, 0.99, exclude_max=True),
       st.integers(1, 8), st.integers(1, 4), st.integers(1, 12),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_streamed_stability_equals_the_block_route(system, share, W, chunk,
                                                   count, repeats, seed):
    # m from 0 up to 0.99 of the certificate's limit sigma_min / (2 pi);
    # repeated samples give collisions
    sigma_min = trig_perturbation(system, 0.0).payload["certificate"]["sigma_min"]
    g = trig_perturbation(system, share * sigma_min / (2.0 * math.pi))
    samples = list(map(tuple, np.random.default_rng(seed).random((count, 2))
                       .tolist()))
    samples += samples[:repeats]
    D = metric_ball(system, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        # `chunk` samples per chunk, so most runs cross a chunk boundary
        mp.setattr(hyperbolic, "_CHUNK_FLOATS", chunk * 2 * (W + 1))
        assert hyperbolic._chunk_samples(W) == chunk
        got = stability_conjugacy_h(system, g, D, samples, window=W)
        mp.setattr(hyperbolic, "_linear_images", ref_linear_images)
        want = stability_conjugacy_h(system, g, D, samples, window=W)
    for name in ("images", "residuals", "closenesses", "defect_sup"):
        assert (np.array(getattr(got, name)).tobytes()
                == np.array(getattr(want, name)).tobytes()), name
    assert got.collisions == want.collisions
    if repeats:
        assert got.collisions


def test_largest_norm_is_the_hypot_sup():
    """The filtered defect sup equals the sup of hypot over every row, on
    ties, one row, rows with nan or inf, and norms small enough for their
    squares to underflow."""
    rng = np.random.default_rng(0)
    cases = [rng.normal(size=(n, 2)) * scale for n in (1, 2, 300, 5000)
             for scale in (1.0, 1e-160, 1e-300, 1e150)]
    tie = np.array([[3.0, 4.0], [4.0, 3.0], [-5.0, 0.0], [0.0, 1.0]])
    cases += [tie, np.zeros((3, 2)), np.array([[1.0, np.nan], [2.0, 2.0]]),
              np.array([[np.inf, 1.0], [2.0, 2.0]]),
              np.array([[5e-324, 0.0], [0.0, -5e-324]]),
              # squares that underflow put the smaller row on top
              np.array([[-1.268559616590313e-162, -1.533280477749828e-162],
                        [-6.806517146139357e-163, 1.5795438221690692e-162]])]
    for d in cases:
        want = np.max(np.hypot(d[:, 0], d[:, 1]))
        got = hyperbolic._largest_norm(d)
        assert got == want or (np.isnan(got) and np.isnan(want)), (d, got, want)


def test_stability_defect_sup_does_not_depend_on_the_batch():
    # the CLI's 200-sample case; a batch-wide stop in the inverse gave
    # 0.014141304645206531 for the batch, 0.014141820540369875 one by one
    g = trig_perturbation(CAT, 0.01)
    rng = random.Random(0)
    samples = [(rng.random(), rng.random()) for _ in range(200)]
    D = metric_ball(CAT, 0.03)
    batch = stability_conjugacy_h(CAT, g, D, samples, window=60)
    assert batch.defect_sup == max(
        stability_conjugacy_h(CAT, g, D, [x], window=60).defect_sup
        for x in samples)


def test_stability_allocation_peak_stays_below_the_block_route():
    # tracemalloc peak at 5,000 samples and W = 60: 17.0 MB when each chunk
    # of 1,083 samples stored its (2W+2)-point g-orbit block and traced two
    # whole windows, 5.7 MB with the streamed half-series (4,297-sample
    # chunks); the bound sits between the two
    g = trig_perturbation(CAT, 0.01)
    rng = random.Random(0)
    samples = [(rng.random(), rng.random()) for _ in range(5000)]
    tracemalloc.start()
    try:
        stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.03), samples,
                              window=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


class _Unstepped:
    """A map that fails if anything steps it."""

    name = "unstepped"

    def forward(self, x):
        raise AssertionError("the orbit was stepped")

    forward_batch = backward = backward_batch = forward


@pytest.mark.parametrize("window", [0, -1, 2.5, True, "3"])
def test_stability_rejects_a_window_that_is_not_a_positive_int(window):
    # at window 0 the shift route gave a vacuous report (defect_sup 0.0,
    # h(x) = x) and the torus route a numpy reduction error; -1 and 2.5
    # raised IndexError, "Empty pseudo-orbit window" or TypeError
    for f, x in ((CAT, (0.2, 0.3)), (FULL2, FULL2.periodic_point((1, 0)))):
        with pytest.raises(ValueError, match="window must be an integer"):
            stability_conjugacy_h(f, _Unstepped(), metric_ball(f, 0.5), [x],
                                  window=window)


def test_stability_rejects_non_d_perturbation():
    g = trig_perturbation(CAT, 0.002)
    with pytest.raises(ValueError, match="not a D-perturbation"):
        stability_conjugacy_h(CAT, g, metric_ball(CAT, 1e-6), [(0.2, 0.3)])


def _scalar_gate(f, g, D, samples):
    """The message of the per-sample D-perturbation loop, or None."""
    for x in samples:
        if not D.accepts(f.forward(x), g.forward(x)):
            return (f"g is not a D-perturbation of f: the gap at sample "
                    f"{f.point_to_text(x)} leaves D.")
    return None


def _no_scalar_calls(*pair):
    raise AssertionError("the batched gate called D.accepts")


# d(f(x), g(x)) = m |(sin 2 pi x_2, sin 2 pi x_1)| reaches m sqrt(2) =
# 0.0141421 at m = 0.01; at these radii the first of 3,000 samples to fail
# sits in the first, second or third chunk of 200
@pytest.mark.parametrize("radius, first", [
    (0.0141, 500), (0.014, 208), (0.0139, 29), (0.01, 4)])
def test_batched_gate_raises_the_scalar_loops_message(radius, first):
    g = trig_perturbation(CAT, 0.01)
    rng = random.Random(11)
    samples = [(rng.random(), rng.random()) for _ in range(3000)]
    D = metric_ball(CAT, radius)
    want = _scalar_gate(CAT, g, D, samples)
    assert want == _scalar_gate(CAT, g, D, [samples[first]])
    assert _scalar_gate(CAT, g, D, samples[:first]) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolic, "_CHUNK_FLOATS", 200 * 2 * (10 + 1))
        mp.setattr(D, "accepts", _no_scalar_calls)
        with pytest.raises(ValueError) as err:
            stability_conjugacy_h(CAT, g, D, samples, window=10)
    assert str(err.value) == want


def test_batched_gate_accepts_and_a_predicate_takes_the_scalar_gate():
    g = trig_perturbation(CAT, 0.01)
    rng = random.Random(11)
    samples = [(rng.random(), rng.random()) for _ in range(3000)]
    D = metric_ball(CAT, 0.01415)
    assert _scalar_gate(CAT, g, D, samples) is None
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return CAT.metric(x, y) < 0.01415

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolic, "_CHUNK_FLOATS", 200 * 2 * (10 + 1))
        mp.setattr(D, "accepts", _no_scalar_calls)
        batched = stability_conjugacy_h(CAT, g, D, samples, window=10)
        scalar = stability_conjugacy_h(CAT, g, predicate_entourage(counted),
                                       samples, window=10)
    assert calls == [(CAT.forward(x), g.forward(x)) for x in samples]
    assert batched.images == scalar.images
    assert batched.residuals == scalar.residuals
    # a predicate that rejects a sample names it, as the loop does
    late = predicate_entourage(lambda x, y: x != CAT.forward(samples[2500]))
    with pytest.raises(ValueError) as err:
        stability_conjugacy_h(CAT, g, late, samples, window=10)
    assert str(err.value) == _scalar_gate(CAT, g, late, samples)


def test_stability_needs_model_f():
    ns = _north_south()
    with pytest.raises(TypeError):
        stability_conjugacy_h(ns, ns, metric_ball(ns, 1.0), [0.1])
    with pytest.raises(ValueError):
        stability_conjugacy_h(CAT, CAT, metric_ball(CAT, 0.1), [])


def test_image_entourage_transports_membership():
    U = metric_ball(DIAG, 0.5)
    half = image_entourage(U, lambda p: (p[0] / 2.0, p[1] / 2.0))
    # preimages under h(x) = 2x land in U iff the original gap is under 1.0
    assert half.accepts((0.0, 0.0), (0.9, 0.0))
    assert not half.accepts((0.0, 0.0), (1.1, 0.0))
    assert half.symmetric_flag == U.symmetric_flag
