"""Expansivity checks, local sets, the bracket map, and stability."""

import math
import random

import pytest

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
    plane_two_metrics,
    predicate_entourage,
    product_map_t,
    sft_flip_perturbation,
    sft_shift,
    splice_symbolic,
    stability_conjugacy_h,
    torus_automorphism,
    trace_linear_hyperbolic,
    trig_perturbation,
    v_n_box_halfwidths,
    v_n_entourage,
)
from topodyn.hyperbolic import _BLOCK_POINTS, ProductStructure
from topodyn.systems import _north_south, sft_metric

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
    import numpy as np

    g = trig_perturbation(CAT, 0.005)
    rng = random.Random(9)
    pts = [(rng.random(), rng.random()) for _ in range(20)]
    batch = g.forward_batch(np.array(pts))
    back = g.backward_batch(batch)
    for p, row, prev in zip(pts, batch, back):
        q = g.forward(p)
        assert CAT.metric(q, tuple(row)) < 1e-12
        assert CAT.metric(g.backward(q), tuple(prev)) < 1e-12


def test_trig_perturbation_guards():
    with pytest.raises(ValueError):
        trig_perturbation(CAT, 0.1)  # 2 pi m exceeds sigma_min
    with pytest.raises(ValueError):
        trig_perturbation(CAT, -0.001)
    with pytest.raises(TypeError):
        trig_perturbation(DIAG, 0.01)


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
    import numpy as np

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


def test_stability_chunks_match_one_sample_at_a_time():
    W = 10
    chunk = _BLOCK_POINTS // (2 * (2 * W + 1))  # samples per chunk
    g = trig_perturbation(CAT, 0.002)
    rng = random.Random(5)
    samples = [(rng.random(), rng.random()) for _ in range(chunk + 12)]
    stab = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.05), samples,
                                 window=W)
    for i in list(range(12)) + list(range(chunk - 12, chunk + 12)):
        assert CAT.metric(stab.images[i], stab.h(samples[i])) <= 1e-15


def test_stability_rejects_non_d_perturbation():
    g = trig_perturbation(CAT, 0.002)
    with pytest.raises(ValueError, match="not a D-perturbation"):
        stability_conjugacy_h(CAT, g, metric_ball(CAT, 1e-6), [(0.2, 0.3)])


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
