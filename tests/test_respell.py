"""Symbolic respelling, checked against the loops it replaced.

splice_symbolic, the diagonal point that trace_sft traces a shift
pseudo-orbit by, and the flip perturbation's psi all spell a new sequence
between two borrowed tails. The reference functions below are those three
loops as they were before they shared one construction; every record must
come out the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import (
    PseudoOrbit,
    sft_flip_perturbation,
    sft_shift,
    splice_symbolic,
    trace_sft,
)
from topodyn.systems import periodic_symbolic_point, rotate_cycle, symbolic_point

SYSTEMS = {
    "golden-mean": sft_shift(("11", "10"), name="golden-mean"),
    "full-2": sft_shift(("11", "11"), name="full-2"),
    "two-block-sft": sft_shift(("110001", "110000", "000100", "000010",
                                "001000", "001000"), name="two-block-sft"),
}
FULL2 = SYSTEMS["full-2"]


# ---------------------------------------------------------------------------
# reference loops


def ref_splice(left_point, right_point, seam):
    lo = min(left_point.span_start, seam) - 1
    hi = max(right_point.span_end, seam) + 1
    word = tuple(
        left_point.symbol_at(i) if i < seam else right_point.symbol_at(i)
        for i in range(lo, hi + 1)
    )
    left = rotate_cycle(left_point.left, lo - left_point.span_start)
    right = rotate_cycle(right_point.right, hi - right_point.span_end)
    return symbolic_point(left, word, right, lo)


def ref_diagonal_point(system, pseudo):
    m = pseudo.start_index
    window = pseudo.window
    if pseudo.extension == "periodic":
        y = periodic_symbolic_point(
            x.symbol_at(0) for x in window[:pseudo.period])
    else:
        big_m = m + len(window) - 1
        first = window[0].shifted(-m)
        last = window[-1].shifted(-big_m)
        lo = min(first.span_start, m)
        hi = max(last.span_end, big_m)
        word = []
        for i in range(lo, hi + 1):
            if i <= m:
                word.append(first.symbol_at(i))
            elif i >= big_m:
                word.append(last.symbol_at(i))
            else:
                word.append(window[i - m].symbol_at(0))
        left = rotate_cycle(first.left, lo - first.span_start)
        right = rotate_cycle(last.right, hi - last.span_end)
        y = symbolic_point(left, tuple(word), right, lo)
    system.validate_point(y)
    return y.shifted(-m) if pseudo.extension == "periodic" else y


def ref_psi(x):
    if x.symbol_at(0) != 1 or x.symbol_at(1) != 1:
        return x
    lo = min(x.span_start, 0) - 1
    hi = max(x.span_end, 4) + 1
    word = [x.symbol_at(i) for i in range(lo, hi + 1)]
    word[3 - lo] = 1 - word[3 - lo]
    left = rotate_cycle(x.left, lo - x.span_start)
    right = rotate_cycle(x.right, hi - x.span_end)
    return symbolic_point(left, tuple(word), right, lo)


# ---------------------------------------------------------------------------
# random admissible points and windows


def _word(system, rng, length):
    word = [rng.randrange(system.size)]
    while len(word) < length:
        word.append(rng.choice(system.successors(word[-1])))
    return word


def _point(system, rng):
    """A greedy-tailed window point, or a periodic point, at a phase in
    -6..6."""
    word = _word(system, rng, rng.randint(1, 8))
    if rng.random() < 0.3 and system.allowed(word[-1], word[0]):
        return system.periodic_point(word).shifted(rng.randint(-6, 6))
    return system.window_point(word, rng.randint(-6, 6))


def _window(system, rng):
    """An orbit-tail window of defect at most 1/4: a true orbit segment, or
    overlapping greedy windows of one random word."""
    length = rng.randint(1, 8)
    if rng.random() < 0.5:
        x = _point(system, rng)
        return [x.shifted(k) for k in range(length)]
    half = rng.randint(2, 4)
    word = _word(system, rng, length + 2 * half)
    return [system.window_point(word[j:j + 2 * half + 1], -half)
            for j in range(length)]


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(SYSTEMS)),
       rng=st.randoms(use_true_random=False),
       seam=st.integers(-6, 6), start=st.integers(-6, 6))
def test_respelling_matches_the_reference_loops(name, rng, seam, start):
    system = SYSTEMS[name]
    p, q = _point(system, rng), _point(system, rng)
    assert splice_symbolic(p, q, seam) == ref_splice(p, q, seam)
    assert splice_symbolic(q, p, seam) == ref_splice(q, p, seam)

    pseudo = PseudoOrbit.measured(system, _window(system, rng),
                                  start_index=start)
    assert pseudo.defect_bound < 0.5
    want = ref_diagonal_point(system, pseudo).shifted(start)
    assert trace_sft(system, pseudo).point == want

    if system is FULL2:
        g = sft_flip_perturbation(FULL2)
        for x in (p, q, want):
            assert g.forward(x) == FULL2.forward(ref_psi(x))
            assert g.backward(x) == ref_psi(FULL2.backward(x))
