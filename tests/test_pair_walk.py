"""Pair questions under f x f, checked against the loops they replaced.

expansive_check, V_N(A), the sampled local sets and unique_tracing_check
all step one pair (x, y) under f x f and test it against an entourage. The
reference functions below are those questions' own loops as they were
before they shared one pair walk; every verdict, proof level, index,
witness and separation must come out the same.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import (
    CONSISTENT,
    REFUTED,
    Box,
    CompactWitness,
    core_wide,
    expansive_check,
    gauge_entourage,
    harmonic_points,
    linear_hyperbolic,
    local_stable_set,
    local_unstable_set,
    metric_ball,
    permutation_from_cycles,
    predicate_entourage,
    proper_restrict,
    sft_shift,
    symmetrize,
    torus_automorphism,
    unique_tracing_check,
    v_n_entourage,
)
from topodyn import hyperbolic
from topodyn.hyperbolic import PairSeparation
from topodyn.systems import GenericSystem, _north_south

DIAG = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle")
CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
NS = _north_south()
GOLDEN = sft_shift(("11", "10"), name="golden-mean")
FULL2 = sft_shift(("11", "11"), name="full-2")
PERM = permutation_from_cycles([(0, 1, 2), (3,), (4,)], name="perm-fixed")
HARM = harmonic_points()
# forward sends every point to 0 and backward walks down to 0: a pair's
# first repeat is not the pair itself, which no injective map allows, so
# the starting pair's own test is not implied by the later ones, and the
# two directions first repeat at different steps
COLLAPSE = GenericSystem("collapse", "integers", forward=lambda k: 0,
                         backward=lambda k: max(k - 1, 0),
                         metric=lambda a, b: abs(a - b))


# ---------------------------------------------------------------------------
# reference loops


def ref_scan_direction(system, x, y, N, horizon, step):
    move = system.forward if step > 0 else system.backward
    state = (x, y)
    seen = {state: 0}
    for n in range(1, horizon + 1):
        state = (move(state[0]), move(state[1]))
        if not N.accepts(state[0], state[1]):
            return ("separated", step * n)
        if state in seen:
            return ("cycle", n)
        seen[state] = n
    return ("horizon", horizon)


def ref_scan_pair(system, x, y, N, horizon):
    if not N.accepts(x, y):
        return ("separated", 0)
    fwd = ref_scan_direction(system, x, y, N, horizon, +1)
    bwd = ref_scan_direction(system, x, y, N, horizon, -1)
    hits = [r[1] for r in (fwd, bwd) if r[0] == "separated"]
    if hits:
        return ("separated", min(hits, key=abs))
    if fwd[0] == "cycle" and bwd[0] == "cycle":
        return ("cycle", max(fwd[1], bwd[1]))
    return ("horizon", horizon)


def ref_v_n_accepts(system, base, depth, x, y):
    if not base.accepts(x, y):
        return False
    fx, fy = x, y
    for _ in range(depth):
        fx, fy = system.forward(fx), system.forward(fy)
        if not base.accepts(fx, fy):
            return False
    bx, by = x, y
    for _ in range(depth):
        bx, by = system.backward(bx), system.backward(by)
        if not base.accepts(bx, by):
            return False
    return True


def ref_sampled_member(system, x, B, side, horizon, y):
    move = system.forward if side == "stable" else system.backward
    a, b = x, y
    if not B.accepts(a, b):
        return False
    for _ in range(horizon):
        a, b = move(a), move(b)
        if not B.accepts(a, b):
            return False
    return True


def ref_pair_outcome(system, a, b, E, radius, horizon):
    def scan(step):
        x, y = a, b
        states = {(x, y)}
        inside = E.accepts(x, y) and E.accepts(y, x)
        for n in range(1, horizon + 1):
            x, y = step(x), step(y)
            if system.metric(x, y) >= 2.0 * radius:
                return "separated", n, inside
            inside = inside and E.accepts(x, y) and E.accepts(y, x)
            if (x, y) in states:
                return "cycle", n, inside
            states.add((x, y))
        return "exhausted", horizon, inside

    fwd, n_fwd, in_fwd = scan(system.forward)
    if fwd == "separated":
        return "separated", n_fwd
    bwd, n_bwd, in_bwd = scan(system.backward)
    if bwd == "separated":
        return "separated", -n_bwd
    if fwd == "cycle" and bwd == "cycle" and in_fwd and in_bwd:
        return "trapped", 0
    return "undetermined", None


def ref_expansive(system, N, x, y, horizon):
    """(verdict, proof_level, separations, refutation, kind, unresolved)
    that expansive_check gives for the single pair (x, y)."""
    proof = hyperbolic._closed_form_note(system, N) is not None
    if system.metric(x, y) == 0:
        return (CONSISTENT, "closed-form" if proof else "horizon", (), None,
                None, ())
    outcome, index = ref_scan_pair(system, x, y, N, horizon)
    pair = PairSeparation(x, y, index)
    if outcome == "separated":
        return (CONSISTENT, "closed-form" if proof else "horizon", (pair,),
                None, None, ())
    if proof:
        assert outcome == "horizon"
        return (CONSISTENT, "closed-form", (), None, None, ((x, y),))
    return (REFUTED, outcome, (), pair, outcome, ())


def ref_unique(system, E, horizon, candidates):
    candidates = list(dict.fromkeys(candidates))
    if len(candidates) < 2:
        return ("yes", None, ())
    separations, verdict, witness = [], "yes", None
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            outcome, steps = ref_pair_outcome(system, a, b, E, E.radius, horizon)
            separations.append(((a, b), outcome, steps))
            if outcome == "trapped":
                return ("no", (a, b), tuple(separations))
            if outcome == "undetermined":
                verdict, witness = "undetermined", (a, b)
    return (verdict, witness, tuple(separations))


# ---------------------------------------------------------------------------
# systems and their sample points


def _sft_points(system):
    periodic = st.sampled_from([(0,), (1,), (0, 1), (0, 0, 1), (1, 0, 1, 0, 0)])
    admissible = periodic.filter(
        lambda b: all(system.allowed(p, q) for p, q in zip(b, b[1:] + b[:1])))
    return st.one_of(
        admissible.map(system.periodic_point),
        st.integers(0, 10 ** 6).map(
            lambda s: system.random_point(random.Random(s), 3)),
    )


_dyadic = st.integers(-16, 16).map(lambda k: k / 8)
POINTS = {
    "diag-saddle": (DIAG, st.tuples(_dyadic, _dyadic)),
    "cat-map": (CAT, st.tuples(st.integers(0, 15), st.integers(0, 15),
                               st.sampled_from([5, 16])).map(
        lambda t: (t[0] % t[2] / t[2], t[1] % t[2] / t[2]))),
    "north-south": (NS, st.integers(-20, 20).map(lambda k: k / 20)),
    "golden-mean": (GOLDEN, _sft_points(GOLDEN)),
    "full-2": (FULL2, _sft_points(FULL2)),
    "perm-fixed": (PERM, st.sampled_from(PERM.points)),
    "harmonic": (HARM, st.integers(1, 30).map(HARM.point)),
    "collapse": (COLLAPSE, st.integers(0, 4)),
}


def _entourage(system, kind, r, anchor):
    if kind == "ball":
        return metric_ball(system, r)
    # a gauge that is wider near the anchor: not symmetric, and no
    # closed form applies, so every question takes the pair walk
    return gauge_entourage(
        system, lambda p: 1.5 * r if system.metric(p, anchor) < r else r,
        sup_bound=1.5 * r)


@settings(max_examples=300)
@given(data=st.data(),
       name=st.sampled_from(sorted(POINTS)),
       kind=st.sampled_from(["ball", "gauge"]),
       r=st.floats(0.05, 3.0),
       horizon=st.integers(1, 60),
       partner=st.sampled_from(["same", "image", "other"]))
def test_pair_questions_match_their_reference_loops(data, name, kind, r,
                                                    horizon, partner):
    system, points = POINTS[name]
    x = data.draw(points)
    if partner == "other":
        y = data.draw(points)
    else:
        y = x if partner == "same" else system.forward(x)
    z = data.draw(points)
    N = _entourage(system, kind, r, x)

    rep = expansive_check(system, N, [(x, y)], horizon=horizon)
    got = (rep.verdict, rep.proof_level, rep.separations, rep.refutation,
           rep.refutation_kind, rep.unresolved)
    assert got == ref_expansive(system, N, x, y, horizon)

    V = v_n_entourage(system, N, horizon)
    VT = V.transpose()
    for p, q in ((x, y), (y, x), (x, z)):
        assert V.accepts(p, q) == ref_v_n_accepts(system, N, horizon, p, q)
        assert VT.accepts(p, q) == ref_v_n_accepts(system, N.transpose(),
                                                   horizon, p, q)

    for side, local in (("stable", local_stable_set),
                        ("unstable", local_unstable_set)):
        ls = local(system, x, N, horizon=horizon)
        if ls.kind == "sampled":
            for q in (y, z):
                assert ls.contains(q) == ref_sampled_member(
                    system, x, N, side, horizon, q)

    candidates = (x, y, z)
    res = unique_tracing_check(system, None, N, horizon, candidates=candidates)
    assert (res.verdict, res.witness, res.separations) == ref_unique(
        system, N, horizon, candidates)


# ---------------------------------------------------------------------------
# derived entourages


def test_derived_entourages_are_their_predicates():
    coords = (-1.5, -0.5, 0.0, 0.4, 1.2)
    pts = [(a, b) for a in coords for b in coords]
    witness = CompactWitness(points=((0.0, 0.0),),
                             boxes=(Box((-1.0, -1.0), (0.5, 0.5)),
                                    Box((0.0, 0.0), (1.5, 1.5))))
    bases = [
        metric_ball(DIAG, 0.7),
        gauge_entourage(DIAG, lambda p: 0.5 + 0.25 * abs(p[0]), sup_bound=1.0),
        core_wide(Box((-1.0, -1.0), (1.0, 1.0)), space_id=DIAG.space_id),
        predicate_entourage(lambda p, q: q[0] - p[0] < 0.6,
                            space_id=DIAG.space_id),
    ]
    for U in bases:
        flags = (U.space_id, U.symmetric_flag, U.space_diameter)
        T = U.transpose()
        S = symmetrize(U)
        P = proper_restrict(U, witness)
        V = v_n_entourage(DIAG, U, 2)
        assert (T.space_id, T.symmetric_flag, T.space_diameter) == flags
        assert (V.space_id, V.symmetric_flag, V.space_diameter) == flags
        assert S.space_id == U.space_id and S.symmetric_flag
        assert S.space_diameter == U.space_diameter
        assert (P.space_id, P.symmetric_flag) == (U.space_id, U.symmetric_flag)
        assert P.space_diameter == min(U.space_diameter, 1.5)
        for x in pts:
            for y in pts:
                assert T.accepts(x, y) == U.accepts(y, x)
                assert T.transpose().accepts(x, y) == U.accepts(x, y)
                assert S.accepts(x, y) == (U.accepts(x, y) and U.accepts(y, x))
                assert P.accepts(x, y) == (U.accepts(x, y) and any(
                    b.contains(x) and b.contains(y) for b in witness.boxes))
