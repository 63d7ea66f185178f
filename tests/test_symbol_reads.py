"""Slice-based symbol reads, checked against the symbol_at loops they replaced.

`SymbolicPoint.window` reads a run of symbols as slices of the left cycle,
the word and the right cycle, and every routine that reads a run goes
through it: `validate_point`, `_respell` and the three spellings built on it
(`splice_symbolic`, the diagonal point and the flip perturbation's psi),
`sequences_agree_on`, and `symbolic_point`'s tail absorption. The reference
functions below read one `symbol_at` per index, as the routines did before;
on random shifts of finite type and random records, including periodic
points, pure seams and empty words, every record and every outcome must come
out the same.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import PseudoOrbit, sft_flip_perturbation, sft_metric, sft_shift
from topodyn.shadowing import PERIODIC, _diagonal_point
from topodyn.systems import (
    SymbolicPoint,
    _primitive,
    _respell,
    rotate_cycle,
    sequences_agree_on,
    splice_symbolic,
    symbolic_point,
)

FULL2 = sft_shift(("11", "11"), name="full-2")
READS = settings(max_examples=300, derandomize=True, deadline=None)


# ---------------------------------------------------------------------------
# reference loops, one symbol_at per index


def ref_window(p, lo, hi):
    return tuple(p.symbol_at(i) for i in range(lo, hi + 1))


def ref_validate(system, p):
    """None, or the message validate_point raises, read pair by pair."""
    for i in range(p.span_start - len(p.left) - 1, p.span_end + len(p.right) + 2):
        a, b = p.symbol_at(i), p.symbol_at(i + 1)
        if not system.allowed(a, b):
            return f"Word contains forbidden transition {a}->{b}."
    return None


def ref_rotate(cycle, shift):
    n = len(cycle)
    return tuple(cycle[(k + shift) % n] for k in range(n))


def ref_symbolic_point(left, word, right, offset=0):
    """symbolic_point with its tail absorption one symbol at a time."""
    left, right, word = _primitive(tuple(left)), _primitive(tuple(right)), tuple(word)
    while word and word[-1] == right[-1]:
        right = (word[-1],) + right[:-1]
        word = word[:-1]
    while word and word[0] == left[0]:
        left = left[1:] + (left[0],)
        word = word[1:]
        offset += 1
    if word:
        return SymbolicPoint(left, word, right, offset)
    return symbolic_point(left, (), right, offset)  # the seam rules


def ref_respell(left_point, right_point, lo, hi, symbol):
    word = [symbol(i) for i in range(lo, hi + 1)]
    left = ref_rotate(left_point.left, lo - left_point.span_start)
    right = ref_rotate(right_point.right, hi - right_point.span_end)
    return ref_symbolic_point(left, word, right, lo)


def ref_sft_metric(p, q):
    if p == q:
        return 0.0
    for k in range(0, 10_000):
        if p.symbol_at(k) != q.symbol_at(k) or p.symbol_at(-k) != q.symbol_at(-k):
            return 2.0 ** (-k)
        if k > max(abs(p.span_start), abs(p.span_end), abs(q.span_start),
                   abs(q.span_end)) + math.lcm(len(p.left), len(q.left),
                                               len(p.right), len(q.right)):
            return 0.0
    raise AssertionError("no answer within 10,000 symbols")


def ref_psi(x):
    if x.symbol_at(0) != 1 or x.symbol_at(1) != 1:
        return x
    return ref_respell(x, x, min(x.span_start, 3), max(x.span_end, 3),
                       lambda i: 1 - x.symbol_at(i) if i == 3 else x.symbol_at(i))


def ref_diagonal_point(pseudo):
    m, window = pseudo.start_index, pseudo.window
    if pseudo.extension == PERIODIC:
        block = [x.symbol_at(0) for x in window[:pseudo.period]]
        return ref_symbolic_point(block, (), block, 0).shifted(-m)
    big_m = m + len(window) - 1
    first, last = window[0].shifted(-m), window[-1].shifted(-big_m)
    return ref_respell(
        first, last, min(first.span_start, m), max(last.span_end, big_m),
        lambda i: first.symbol_at(i) if i <= m else last.symbol_at(i)
        if i >= big_m else window[i - m].symbol_at(0))


# ---------------------------------------------------------------------------
# random shifts, records and windows


@st.composite
def shifts(draw):
    """A shift of finite type on 1 to 4 symbols in which every symbol has a
    successor and a predecessor."""
    size = draw(st.integers(1, 4))
    rows = [[draw(st.booleans()) for _ in range(size)] for _ in range(size)]
    turn = draw(st.integers(0, size - 1))
    for a in range(size):  # a permutation's steps, one in and one out each
        rows[a][(a + turn) % size] = True
    return sft_shift([[int(v) for v in row] for row in rows])


def cycles(size):
    return st.lists(st.integers(0, size - 1), min_size=1, max_size=4)


@st.composite
def records(draw, size):
    """A normalized record over `size` symbols: a word between two tail
    cycles, an empty word at a seam, or a periodic point."""
    left = draw(cycles(size))
    kind = draw(st.sampled_from(["word", "seam", "periodic"]))
    right = left if kind == "periodic" else draw(cycles(size))
    word = (draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=9))
            if kind == "word" else [])
    return symbolic_point(left, word, right, draw(st.integers(-12, 12)))


@st.composite
def admissible_points(draw, system):
    """A window point or a periodic point of `system`, at a random phase."""
    word = [draw(st.integers(0, system.size - 1))]
    for _ in range(draw(st.integers(0, 7))):
        word.append(draw(st.sampled_from(system.successors(word[-1]))))
    if draw(st.booleans()) and system.allowed(word[-1], word[0]):
        point = system.periodic_point(word)
    else:
        point = system.window_point(word)
    return point.shifted(draw(st.integers(-6, 6)))


# ---------------------------------------------------------------------------
# the pins


@READS
@given(st.data())
def test_window_and_absorption_match_the_symbol_loop(data):
    size = data.draw(st.integers(1, 4))
    p = data.draw(records(size))
    lo = data.draw(st.integers(-25, 25))
    hi = lo + data.draw(st.integers(-2, 30))
    assert p.window(lo, hi) == ref_window(p, lo, hi)
    left, right = data.draw(cycles(size)), data.draw(cycles(size))
    word = data.draw(st.lists(st.integers(0, size - 1), max_size=9))
    offset = data.draw(st.integers(-12, 12))
    assert (symbolic_point(left, word, right, offset)
            == ref_symbolic_point(left, word, right, offset))
    shift = data.draw(st.integers(-9, 9))
    assert rotate_cycle(tuple(left), shift) == ref_rotate(left, shift)


@READS
@given(shifts(), st.data())
def test_validate_point_matches_the_pair_loop(system, data):
    p = data.draw(records(system.size))
    try:
        assert system.validate_point(p) is p
        outcome = None
    except ValueError as err:
        outcome = str(err)
    assert outcome == ref_validate(system, p)


@READS
@given(shifts(), st.data())
def test_metric_splice_and_agreement_match_the_symbol_loop(system, data):
    p, q = data.draw(records(system.size)), data.draw(records(system.size))
    assert sft_metric(p, q) == ref_sft_metric(p, q)
    lo = data.draw(st.integers(-15, 15))
    hi = lo + data.draw(st.integers(0, 20))
    assert sequences_agree_on(p, q, lo, hi) == (ref_window(p, lo, hi)
                                                == ref_window(q, lo, hi))
    seam = data.draw(st.integers(-8, 8))
    lo, hi = min(p.span_start, seam) - 1, max(q.span_end, seam) + 1
    assert splice_symbolic(p, q, seam) == ref_respell(
        p, q, lo, hi, lambda i: p.symbol_at(i) if i < seam else q.symbol_at(i))
    word = ref_window(p, lo, hi)
    assert _respell(p, q, lo, word) == ref_respell(
        p, q, lo, hi, lambda i: word[i - lo])


@READS
@given(shifts(), st.data())
def test_diagonal_point_matches_the_symbol_loop(system, data):
    """Orbit segments and overlapping window points, as orbit tails and,
    on a periodic point, as a closed loop; with the diagonal symbols read
    by the caller too."""
    x = data.draw(admissible_points(system))
    length = data.draw(st.integers(1, 8))
    start = data.draw(st.integers(-6, 6))
    if data.draw(st.booleans()):
        window = [x.shifted(k) for k in range(length)]
    else:
        word = list(x.window(0, length + 5))
        window = [system.window_point(word[j:j + 5], -2) for j in range(length)]
    pseudo = PseudoOrbit.measured(system, window, start_index=start)
    if pseudo.defect_bound < 0.5:
        want = ref_diagonal_point(pseudo)
        assert _diagonal_point(system, pseudo) == want
        diagonal = [w.symbol_at(0) for w in window]
        assert _diagonal_point(system, pseudo, diagonal) == want
    if not x.word and x.left == x.right:  # a periodic point closes a loop
        period = len(x.left)
        loop = PseudoOrbit.measured(system, [x.shifted(k) for k in range(period)],
                                    PERIODIC, start_index=start)
        assert _diagonal_point(system, loop) == ref_diagonal_point(loop)


@READS
@given(st.data())
def test_flip_matches_the_symbol_loop(data):
    x = data.draw(records(2))
    g = sft_flip_perturbation(FULL2)
    assert g.forward(x) == ref_psi(x).shifted(1)
    assert g.backward(x) == ref_psi(x.shifted(-1))
