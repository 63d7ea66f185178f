import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn.systems import (
    FiniteSystem,
    GenericSystem,
    ShiftOfFiniteType,
    catalog,
    harmonic_points,
    linear_hyperbolic,
    periodic_symbolic_point,
    permutation_from_cycles,
    plane_two_metrics,
    rotate_cycle,
    sequences_agree_on,
    sft_metric,
    sft_shift,
    shrinking_intervals,
    splice_symbolic,
    symbolic_point,
    torus_automorphism,
    torus_grid,
)

GOLDEN = sft_shift(("11", "10"), name="golden-mean")
TWO_BLOCK = sft_shift(
    ("110001", "110000", "000100", "000010", "001000", "001000"),
    name="two-block-sft",
)


# ---------------------------------------------------------------------------
# symbolic points


def test_rotate_cycle_semantics():
    # new[k] = cycle[(k + shift) % n]
    assert rotate_cycle((10, 20, 30), 1) == (20, 30, 10)
    assert rotate_cycle((10, 20, 30), -1) == (30, 10, 20)
    assert rotate_cycle((10, 20, 30), 3) == (10, 20, 30)


def test_symbol_at_piecewise_rule():
    """Tails repeat their cycles outward from the word ends: right[0] sits at
    the first index after the word, left[-1] at the last index before it."""
    p = symbolic_point((0, 1), (1, 0, 0, 1), (0, 0, 1), offset=-1)
    expected = {
        -1: 1, 0: 0, 1: 0, 2: 1,       # the word, at offset -1
        3: 0, 4: 0, 5: 1, 6: 0,        # right cycle repeating
        -2: 1, -3: 0, -4: 1, -5: 0,    # left cycle repeating
    }
    for i, v in expected.items():
        assert p.symbol_at(i) == v, f"index {i}"


def test_presentation_independence():
    # the same bi-infinite sequence written two ways compares equal
    a = symbolic_point((0,), (0, 1, 0), (0,), offset=0)
    b = symbolic_point((0, 0), (0, 1), (0, 0, 0), offset=0)
    assert a == b
    assert sft_metric(a, b) == 0.0


def test_shift_relabels_indices():
    p = symbolic_point((0, 1), (1, 0, 0, 1), (0, 0, 1), offset=-1)
    q = p.shifted(3)
    for i in range(-12, 12):
        assert q.symbol_at(i) == p.symbol_at(i + 3)
    assert p.shifted(0) == p
    assert p.shifted(2).shifted(-2) == p


def test_periodic_point_repeats_block():
    p = periodic_symbolic_point((0, 0, 1))
    for i in range(-9, 9):
        assert p.symbol_at(i) == (0, 0, 1)[i % 3]


def test_sft_metric_values():
    a = periodic_symbolic_point((0,))
    b = GOLDEN.point((0, 0, 0, 1, 0), offset=-2, left=(0,), right=(0,))
    # first disagreement at index +1
    assert sft_metric(a, b) == 0.5
    assert sft_metric(a, a) == 0.0
    c = GOLDEN.point((0, 0, 0, 0, 1), offset=-2, left=(0,), right=(0,))
    d = GOLDEN.point((1, 0, 0, 0, 0), offset=-2, left=(0,), right=(0,))
    # c and d first disagree at indices +2 and -2
    assert sft_metric(c, d) == 0.25


_CYCLES = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
_RECORDS = st.builds(symbolic_point, _CYCLES,
                     st.lists(st.integers(0, 2), max_size=6), _CYCLES,
                     st.integers(-5, 5))


def _spelled_out(p, pad_left, pad_right, repeats):
    """The sequence of p presented afresh: a word widened past p's span on
    both sides, tail cycles re-phased to the new word ends and repeated."""
    lo, hi = p.span_start - pad_left, p.span_end + pad_right
    return symbolic_point(rotate_cycle(p.left, lo - p.span_start) * repeats,
                          p.window(lo, hi),
                          rotate_cycle(p.right, hi - p.span_end) * repeats, lo)


def _agree(p, q):
    # a window covering both words and one common period of each tail
    lo = min(p.span_start, q.span_start) - math.lcm(len(p.left), len(q.left))
    hi = max(p.span_end, q.span_end) + math.lcm(len(p.right), len(q.right))
    return sequences_agree_on(p, q, lo, hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_RECORDS, _RECORDS, st.integers(0, 4), st.integers(0, 4),
       st.integers(1, 3))
def test_symbolic_records_are_equal_exactly_when_sequences_are(
        p, q, pad_left, pad_right, repeats):
    again = _spelled_out(p, pad_left, pad_right, repeats)
    assert sequences_agree_on(p, again, p.span_start - 12, p.span_end + 12)
    assert again == p
    for a, b in ((p, q), (q, p), (p.shifted(len(p.right)), p), (p, again)):
        assert (a == b) == _agree(a, b)
        assert (sft_metric(a, b) == 0.0) == (a == b)


def _reads(z, p, q, seam):
    """z agrees with p below the seam and with q from the seam on, checked
    on a window that reaches one common period into every tail."""
    lo = min(z.span_start, p.span_start, seam) - math.lcm(len(z.left), len(p.left))
    hi = max(z.span_end, q.span_end, seam) + math.lcm(len(z.right), len(q.right))
    return all(z.symbol_at(i) == (p if i < seam else q).symbol_at(i)
               for i in range(lo, hi + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_RECORDS, _RECORDS, st.integers(-8, 8), st.integers(-8, 8),
       st.integers(-8, 8))
def test_shift_and_splice_identities(p, q, n, m, seam):
    assert p.shifted(n).shifted(m) == p.shifted(n + m)
    spliced = splice_symbolic(p, q, seam)
    assert _reads(spliced, p, q, seam)
    assert splice_symbolic(p, p, seam) == p
    assert spliced.shifted(n) == splice_symbolic(p.shifted(n), q.shifted(n),
                                                 seam - n)


def test_splice_matches_symbolwise_reference():
    """splice(left, right, seam) must read left's symbols strictly below the
    seam and right's at and above it, including deep into both tails."""
    rng = random.Random(11)
    for trial in range(120):
        x = GOLDEN.random_point(rng, 6)
        y = GOLDEN.random_point(rng, 6)
        seam = rng.randrange(-3, 4)
        if not GOLDEN.allowed(x.symbol_at(seam - 1), y.symbol_at(seam)):
            continue
        z = GOLDEN.validate_point(splice_symbolic(x, y, seam=seam))
        for i in range(seam - 40, seam + 40):
            want = x.symbol_at(i) if i < seam else y.symbol_at(i)
            assert z.symbol_at(i) == want, (trial, seam, i)


def test_splice_inadmissible_seam_raises():
    p = periodic_symbolic_point((1, 0))
    # p has 1 at even indices; p shifted once has 1 at index -1, so the
    # spliced sequence reads ...1|1... across the seam
    with pytest.raises(ValueError):
        GOLDEN.validate_point(splice_symbolic(p.shifted(1), p, seam=0))


# ---------------------------------------------------------------------------
# shifts of finite type


def test_two_block_transitions():
    expect = {0: (0, 1, 5), 1: (0, 1), 2: (3,), 3: (4,), 4: (2,), 5: (2,)}
    for a, succ in expect.items():
        assert TWO_BLOCK.successors(a) == succ


def test_representative_points_admissible_everywhere():
    # greedy tails must stay admissible even when the walk re-enters its
    # cycle away from the last node
    for system in (GOLDEN, TWO_BLOCK, sft_shift(("11", "11"))):
        for a in range(system.size):
            p = system.representative_point(a)
            assert p.symbol_at(0) == a
            system.validate_point(p)


def test_window_point_spells_word():
    w = (0, 0, 1, 0, 1, 0)
    p = GOLDEN.window_point(w, offset=-2)
    for j, s in enumerate(w):
        assert p.symbol_at(-2 + j) == s
    GOLDEN.validate_point(p)


def test_periodic_point_validates_block():
    with pytest.raises(ValueError):
        GOLDEN.periodic_point((1, 1, 0))
    p = GOLDEN.periodic_point((1, 0))
    assert p.symbol_at(0) == 1 and p.symbol_at(1) == 0


def test_shift_forward_backward_inverse():
    rng = random.Random(5)
    for _ in range(40):
        p = TWO_BLOCK.random_point(rng, 5)
        assert TWO_BLOCK.backward(TWO_BLOCK.forward(p)) == p


def test_point_to_text_roundtrip_sft():
    rng = random.Random(9)
    for _ in range(20):
        p = GOLDEN.random_point(rng, 4)
        q = GOLDEN.point_from_text(GOLDEN.point_to_text(p))
        assert sft_metric(p, q) == 0.0


# ---------------------------------------------------------------------------
# linear and torus systems


def test_diag_saddle_split_combine():
    diag = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag")
    u, s = diag.split((3.0, -4.0))
    assert abs(u - 3.0) < 1e-12 and abs(s + 4.0) < 1e-12
    v = diag.combine(u, s)
    assert max(abs(v[0] - 3.0), abs(v[1] + 4.0)) < 1e-12


def test_diag_tracing_coefficient_value():
    # stable series sums to 2, unstable to 1; orthogonal axes combine in
    # quadrature: sqrt(5)
    diag = linear_hyperbolic(((2, 0), (0, 0.5)))
    assert abs(diag.tracing_coefficient() - math.sqrt(5)) < 1e-12


def test_cat_tracing_coefficient_value():
    # lam_u = (3+sqrt5)/2: series give (sqrt5-1)/2 and (sqrt5+1)/2, whose
    # squares sum to exactly 3
    cat = torus_automorphism(((2, 1), (1, 1)))
    assert abs(cat.tracing_coefficient() - math.sqrt(3)) < 1e-12


def test_torus_forward_exact_on_fractions():
    cat = torus_automorphism(((2, 1), (1, 1)))
    x = (Fraction(1, 3), Fraction(5, 7))
    y = cat.forward(x)
    assert y == (Fraction(2, 3) + Fraction(5, 7) - 1, Fraction(1, 3) + Fraction(5, 7) - 1)
    assert cat.backward(y) == x
    assert all(isinstance(c, Fraction) for c in y)


def test_torus_metric_wraps():
    cat = torus_automorphism(((2, 1), (1, 1)))
    assert abs(cat.metric((0.95, 0.0), (0.05, 0.0)) - 0.1) < 1e-12


def test_nearest_lift():
    from topodyn.systems import TorusAutomorphism
    lift = TorusAutomorphism.nearest_lift((0.95, 0.1), (0.05, 0.0))
    assert abs(lift[0] + 0.05) < 1e-12 and abs(lift[1] - 0.1) < 1e-12


def test_hyperbolicity_required():
    from topodyn.systems import NotHyperbolicError
    with pytest.raises(NotHyperbolicError):
        linear_hyperbolic(((0, -1), (1, 0)))  # rotation: |eigenvalues| = 1


def test_torus_grid_size_and_range():
    pts = torus_grid(8)
    assert len(pts) == 64
    assert all(0.0 <= x < 1.0 and 0.0 <= y < 1.0 for x, y in pts)
    assert type(pts) is tuple and torus_grid(8) is pts


def test_batch_evaluation_equals_the_scalar_maps_bit_for_bit():
    cat = torus_automorphism(((2, 1), (1, 1)))
    systems = [
        cat,
        torus_automorphism(((3, 2), (7, 5))),
        linear_hyperbolic(((2, 0), (0, 0.5))),
        linear_hyperbolic(((2.0, 1.0), (1.0, 1.0))),
        linear_hyperbolic(((0.3, 1.7), (1.1, 2.9))),
        # the base class maps point by point
        GenericSystem("cat-loop", "torus", cat.forward, cat.backward,
                      cat.metric),
    ]
    rng = random.Random(2)
    pts = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(200)]
    pts += [(0.0, 0.0), (1e-300, -1e-300), (1e12 + 0.5, -7.25)]
    arr = np.array(pts)
    for system in systems:
        for batch, step in ((system.forward_batch, system.forward),
                            (system.backward_batch, system.backward)):
            out = batch(arr)
            assert out.shape == arr.shape
            assert [tuple(row) for row in out.tolist()] == [step(p) for p in pts]


# ---------------------------------------------------------------------------
# finite, strips, harmonic


def test_three_cycle_orbit_period():
    perm = permutation_from_cycles([("a", "b", "c")])
    assert perm.orbit_period("a") == 3
    assert perm.forward("c") == "a"
    assert perm.backward("a") == "c"


def test_finite_system_guard():
    with pytest.raises(ValueError):
        FiniteSystem(("a", "b"), {"a": "b", "b": "b"}, name="collapse")


def test_strips_conjugacy_roundtrip():
    pair = shrinking_intervals()
    a, b = pair.system_a, pair.system_b
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(-6, 6)
        y = rng.uniform(0.0, a.fiber_height(n))
        x = (n, y)
        hx = pair.h(x)
        assert 0.0 <= hx[1] <= b.fiber_height(n) + 1e-12
        back = pair.h_inv(hx)
        assert back[0] == n and abs(back[1] - y) < 1e-12
        # h intertwines the two translations
        lhs = pair.h(a.forward(x))
        rhs = b.forward(pair.h(x))
        assert lhs[0] == rhs[0] and abs(lhs[1] - rhs[1]) < 1e-9


def test_strip_points_stay_in_fibers():
    a = shrinking_intervals().system_a
    with pytest.raises(ValueError):
        a.forward((0, 2.0))  # above the fiber height at n=0


def test_harmonic_gap_and_index():
    h = harmonic_points()
    assert h.gap_after(3) == 0.25
    xs = h.points(5)
    assert h.index_of(xs[0]) == 1
    assert abs(xs[1] - xs[0] - 0.5) < 1e-12
    assert h.forward(xs[2]) == xs[2]  # identity map


def test_plane_two_metrics_exposes_both():
    plane = plane_two_metrics()
    ms = plane.metrics
    assert set(ms) == {"euclidean", "sphere"}
    far = ms["sphere"]((2.0 ** 20, 0.0), (2.0 ** 20 + 1, 0.0))
    near = ms["euclidean"]((2.0 ** 20, 0.0), (2.0 ** 20 + 1, 0.0))
    assert near == 1.0
    assert far < 1e-10  # huge points collapse together on the sphere


# ---------------------------------------------------------------------------
# catalog


def test_catalog_builds_everything():
    entries = catalog()
    assert len(entries) == 11
    for name, entry in entries.items():
        system = entry.build()
        assert system.name == name
        assert entry.provenance


def test_catalog_systems_invert():
    probes = {
        "diag-saddle": (0.3, -0.7),
        "cat-map": (0.21, 0.64),
        "north-south": 0.4,
        "strips-shrinking": (2, 0.1),
        "strips-unit": (-3, 0.9),
    }
    entries = catalog()
    for name, x in probes.items():
        system = entries[name].build()
        y = system.backward(system.forward(x))
        if isinstance(x, tuple):
            assert max(abs(a - b) for a, b in zip(x, y)) < 1e-9, name
        else:
            assert abs(x - y) < 1e-9, name
