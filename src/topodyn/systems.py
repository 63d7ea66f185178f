"""Catalog of invertible dynamical systems on desk-scale spaces.

Every system bundles a state space (a hashable point representation plus one
or more metrics), an invertible map with its inverse, and the structure the
other modules lean on: coordinate embeddings for spatial indexing, text
codecs for the pseudo-orbit file format, and exact arithmetic wherever the
underlying space allows it (integer matrices, dyadic fibers, symbol tails).

Points are plain immutable values: planar and torus points are float pairs,
strip-family points are (fiber, height) pairs, finite points are labels, and
shift-space points are SymbolicPoint records that represent a bi-infinite
sequence exactly as left cycle + central word + right cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class NotHyperbolicError(ValueError):
    """Raised when a matrix lacks the required saddle splitting."""


# ---------------------------------------------------------------------------
# metrics and small geometry helpers


# The two metrics below square by multiplication, which rounds once, rather
# than with `** 2` (libm pow, which can miss by an ulp); the array torus
# metric in `chains` repeats these exact operations and so returns the same
# floats.


def euclidean(p, q):
    total = 0
    for a, b in zip(p, q):
        d = a - b
        total += d * d
    return math.sqrt(total)


def _wrap_unit(t):
    # distance between two circle coordinates, shortest way around
    t = abs(t) % 1.0
    return min(t, 1.0 - t)


def torus_metric(p, q):
    """Quotient metric on the unit 2-torus (min over integer lifts)."""
    s = _wrap_unit(p[0] - q[0])
    t = _wrap_unit(p[1] - q[1])
    return math.sqrt(s * s + t * t)


def stereographic_preimage(p):
    """Send a planar point to the unit sphere, inverting (x,y,z) -> (x,y)/(1-z)."""
    r2 = p[0] * p[0] + p[1] * p[1]
    return (2.0 * p[0] / (r2 + 1.0), 2.0 * p[1] / (r2 + 1.0), (r2 - 1.0) / (r2 + 1.0))


def sphere_metric(p, q):
    """Distance between planar points measured through the sphere (chordal)."""
    a = stereographic_preimage(p)
    b = stereographic_preimage(q)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def discrete_metric(p, q):
    return 0.0 if p == q else 1.0


# ---------------------------------------------------------------------------
# symbolic points: exact bi-infinite sequences


@dataclass(frozen=True)
class SymbolicPoint:
    """A bi-infinite symbol sequence stored exactly.

    The sequence equals `word` on indices [offset, offset+len(word)),
    tiles of `left` repeating to the left of the word, and tiles of
    `right` repeating to the right. Constant tails are length-1 cycles and
    globally periodic points have an empty word. Instances are normalized
    (primitive cycles, minimal word, anchored phase), so dataclass equality
    coincides with equality of the represented sequences.
    """

    left: tuple
    word: tuple
    right: tuple
    offset: int

    def symbol_at(self, i):
        if i < self.offset:
            return self.left[(i - self.offset) % len(self.left)]
        j = i - self.offset
        if j < len(self.word):
            return self.word[j]
        return self.right[(j - len(self.word)) % len(self.right)]

    def shifted(self, n=1):
        """The image under the n-th shift power: new sequence i -> old i+n.
        A record with a word or a seam only moves its offset; a periodic
        one re-phases its block."""
        if self.word or self.left != self.right:
            return SymbolicPoint(self.left, self.word, self.right, self.offset - n)
        return symbolic_point(self.left, self.word, self.right, self.offset - n)

    def window(self, lo, hi):
        return tuple(self.symbol_at(i) for i in range(lo, hi + 1))

    @property
    def span_start(self):
        return self.offset

    @property
    def span_end(self):
        return self.offset + len(self.word) - 1

    def __str__(self):
        w = "".join(str(s) for s in self.word) or "."
        l = "".join(str(s) for s in self.left)
        r = "".join(str(s) for s in self.right)
        return f"({l})^inf {w} ({r})^inf @{self.offset}"


def _primitive(cycle):
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def rotate_cycle(cycle, shift):
    """The cycle re-phased so new[k] = cycle[(k + shift) mod len]."""
    n = len(cycle)
    return tuple(cycle[(k + shift) % n] for k in range(n))


def symbolic_point(left, word, right, offset=0):
    """Build a normalized SymbolicPoint. Cycles must be nonempty."""
    left = _primitive(tuple(left))
    right = _primitive(tuple(right))
    word = tuple(word)
    if not left or not right:
        raise ValueError("Tail cycles must be nonempty.")

    # absorb word symbols that already match the adjacent tail pattern
    while word and word[-1] == right[-1]:
        right = (word[-1],) + right[:-1]
        word = word[:-1]
    while word and word[0] == left[0]:
        left = left[1:] + (left[0],)
        word = word[1:]
        offset += 1

    if word:
        return SymbolicPoint(left, word, right, offset)

    # empty word: either a genuinely periodic sequence or a pure seam
    L, R = len(left), len(right)
    lcm = math.lcm(L, R)
    seam_invisible = all(
        left[(-1 - j) % L] == right[(-1 - j) % R] for j in range(lcm)
    )
    if seam_invisible:
        block = _primitive(tuple(right[(i - offset) % R] for i in range(R)))
        return SymbolicPoint(block, (), block, 0)
    # slide the seam left to a canonical stop; terminates within lcm steps
    for _ in range(lcm + 1):
        if left[-1] != right[-1]:
            break
        left = (left[-1],) + left[:-1]
        right = (right[-1],) + right[:-1]
        offset -= 1
    return SymbolicPoint(left, (), right, offset)


def periodic_symbolic_point(block):
    block = tuple(block)
    if not block:
        raise ValueError("Periodic block must be nonempty.")
    return symbolic_point(block, (), block, 0)


def splice_symbolic(left_point, right_point, seam=0):
    """The sequence taking left_point's symbols below `seam` and
    right_point's symbols at `seam` and above."""
    lo = min(left_point.span_start, seam) - 1
    hi = max(right_point.span_end, seam) + 1
    word = tuple(
        left_point.symbol_at(i) if i < seam else right_point.symbol_at(i)
        for i in range(lo, hi + 1)
    )
    # tail cycles anchor at the new word ends, so re-phase them there
    left = rotate_cycle(left_point.left, lo - left_point.span_start)
    right = rotate_cycle(right_point.right, hi - right_point.span_end)
    return symbolic_point(left, word, right, lo)


def sft_metric(p, q):
    """2^(-k) where k = min |i| with p_i != q_i, and 0 for equal sequences."""
    if p == q:  # equal records denote equal sequences
        return 0.0
    bound_r = max(p.span_end, q.span_end, 0) + math.lcm(len(p.right), len(q.right)) + 1
    bound_l = -min(p.span_start, q.span_start, 0) + math.lcm(len(p.left), len(q.left)) + 1
    for k in range(0, max(bound_r, bound_l) + 1):
        if k <= bound_r and p.symbol_at(k) != q.symbol_at(k):
            return 2.0 ** (-k)
        if 0 < k <= bound_l and p.symbol_at(-k) != q.symbol_at(-k):
            return 2.0 ** (-k)
    return 0.0


def sequences_agree_on(p, q, lo, hi):
    return all(p.symbol_at(i) == q.symbol_at(i) for i in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# system base class


class DynamicalSystem:
    """An invertible map on a metric space, queried one point at a time.

    Subclasses fill in forward/backward/metric and the indexing hooks.
    forward_batch/backward_batch map every row of an (N, 2) float array at
    once; the base class loops over forward/backward, and systems with
    array arithmetic override them with the same float operations, so a
    batch row equals the scalar map's value bit for bit. Systems are
    immutable once built; all methods are pure, so callers may fan work
    out over points freely.
    """

    name = "system"
    space_id = "space"
    kind = "generic"
    space_diameter = math.inf
    embedding_metric = None  # "euclidean" | "torus" | None

    def forward(self, x):
        raise NotImplementedError

    def backward(self, x):
        raise NotImplementedError

    def metric(self, x, y):
        raise NotImplementedError

    def forward_batch(self, pts):
        return _map_rows(self.forward, pts)

    def backward_batch(self, pts):
        return _map_rows(self.backward, pts)

    @property
    def metrics(self):
        return {"default": self.metric}

    def embed(self, x):
        """Coordinates for spatial indexing, or None when not meaningful."""
        return None

    def iterate(self, x, n):
        step = self.forward if n >= 0 else self.backward
        for _ in range(abs(n)):
            x = step(x)
        return x

    def pair_exit(self, x, y, stay, horizon, step=1):
        """Step the pair (x, y) under f x f, or under its inverse when step
        is -1, for at most `horizon` steps. Returns ("left", step * n) at
        the first pair that stay(., .) rejects, ("cycle", n) at the first
        pair that exactly repeats an earlier one (every later pair repeats
        one that stay accepted), and ("horizon", horizon) otherwise. The
        starting pair itself is not tested."""
        move = self.forward if step > 0 else self.backward
        seen = {(x, y)}
        for n in range(1, horizon + 1):
            x, y = move(x), move(y)
            if not stay(x, y):
                return "left", step * n
            if (x, y) in seen:
                return "cycle", n
            seen.add((x, y))
        return "horizon", horizon

    def point_to_text(self, x):
        if isinstance(x, tuple):
            return " ".join(repr(c) for c in x)
        return repr(x)

    def point_from_text(self, text):
        parts = text.split()
        if len(parts) == 1:
            return float(parts[0])
        return tuple(float(p) for p in parts)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _map_rows(step, pts):
    """step at every row of an (N, 2) float array, one point at a time."""
    rows = [step(p) for p in map(tuple, pts.tolist())]
    return np.array(rows, dtype=float).reshape(pts.shape)


def _apply_rows(m, pts):
    """apply_matrix at every row of pts: a*x + b*y per coordinate, the
    float operations of the scalar product."""
    (a, b), (c, d) = m
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([float(a) * x + float(b) * y,
                     float(c) * x + float(d) * y], axis=1)


# ---------------------------------------------------------------------------
# linear saddles on the plane


def _as_exact(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return Fraction(value)  # exact binary expansion of the float


def _matrix_inverse_exact(m):
    a, b = m[0]
    c, d = m[1]
    det = _as_exact(a) * _as_exact(d) - _as_exact(b) * _as_exact(c)
    if det == 0:
        raise NotHyperbolicError("Matrix is singular.")
    inv = ((_as_exact(d) / det, -_as_exact(b) / det),
           (-_as_exact(c) / det, _as_exact(a) / det))
    out = []
    for row in inv:
        cells = []
        for v in row:
            cells.append(int(v) if v.denominator == 1 else float(v))
        out.append(tuple(cells))
    return tuple(out)


class LinearSaddle(DynamicalSystem):
    """x -> A x on the plane for a 2x2 saddle matrix A.

    The constructor computes the spectral splitting: signed eigenvalues
    lam_u (|lam_u| > 1) and lam_s (|lam_s| < 1), unit eigenvectors, and the
    change-of-basis data used by the tracer. Matrices with an eigenvalue of
    modulus one, complex spectrum, or with both eigenvalues on the same side
    of the unit circle are rejected: the guaranteed-error tracer needs one
    expanding and one contracting direction.
    """

    kind = "linear-saddle"
    space_id = "plane"
    embedding_metric = "euclidean"

    def __init__(self, matrix, name="linear-saddle", extra_metrics=None, tol=1e-12):
        matrix = (tuple(matrix[0]), tuple(matrix[1]))
        a, b = float(matrix[0][0]), float(matrix[0][1])
        c, d = float(matrix[1][0]), float(matrix[1][1])
        tr, det = a + d, a * d - b * c
        if det == 0:
            raise NotHyperbolicError("Matrix is singular.")
        disc = tr * tr - 4.0 * det
        if disc <= 0:
            modulus = math.sqrt(abs(det))
            if abs(modulus - 1.0) <= tol:
                raise NotHyperbolicError("Matrix has an eigenvalue of modulus one.")
            raise NotHyperbolicError(
                "Matrix has no saddle splitting (complex or repeated spectrum)."
            )
        root = math.sqrt(disc)
        lam1, lam2 = (tr + root) / 2.0, (tr - root) / 2.0
        if abs(abs(lam1) - 1.0) <= tol or abs(abs(lam2) - 1.0) <= tol:
            raise NotHyperbolicError("Matrix has an eigenvalue of modulus one.")
        if (abs(lam1) - 1.0) * (abs(lam2) - 1.0) > 0:
            raise NotHyperbolicError(
                "Matrix has no saddle splitting (both eigenvalues on one side "
                "of the unit circle)."
            )
        self.matrix = matrix
        self.inverse_matrix = _matrix_inverse_exact(matrix)
        self.lam_u, self.lam_s = (lam1, lam2) if abs(lam1) > 1 else (lam2, lam1)
        self.rate_u, self.rate_s = abs(self.lam_u), abs(self.lam_s)
        self.v_u = self._eigenvector(self.lam_u, a, b, c, d, tol)
        self.v_s = self._eigenvector(self.lam_s, a, b, c, d, tol)
        self._det_v = self.v_u[0] * self.v_s[1] - self.v_u[1] * self.v_s[0]
        self.orthogonal_splitting = (
            abs(self.v_u[0] * self.v_s[0] + self.v_u[1] * self.v_s[1]) <= 1e-12
        )
        self.name = name
        self._extra_metrics = dict(extra_metrics or {})

    @staticmethod
    def _eigenvector(lam, a, b, c, d, tol):
        if abs(b) > tol:
            v = (b, lam - a)
        elif abs(c) > tol:
            v = (lam - d, c)
        else:
            v = (1.0, 0.0) if abs(a - lam) <= tol else (0.0, 1.0)
        norm = math.hypot(*v)
        return (v[0] / norm, v[1] / norm)

    def apply_matrix(self, m, x):
        return (m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1])

    def forward(self, x):
        return self.apply_matrix(self.matrix, x)

    def backward(self, x):
        return self.apply_matrix(self.inverse_matrix, x)

    def forward_batch(self, pts):
        return _apply_rows(self.matrix, pts)

    def backward_batch(self, pts):
        return _apply_rows(self.inverse_matrix, pts)

    def metric(self, x, y):
        return euclidean(x, y)

    @property
    def metrics(self):
        out = {"euclidean": self.metric}
        out.update(self._extra_metrics)
        return out

    def embed(self, x):
        return x

    def split(self, vec):
        """Coefficients (cu, cs) with vec = cu*v_u + cs*v_s."""
        cu = (vec[0] * self.v_s[1] - vec[1] * self.v_s[0]) / self._det_v
        cs = (self.v_u[0] * vec[1] - self.v_u[1] * vec[0]) / self._det_v
        return cu, cs

    def combine(self, cu, cs):
        return (cu * self.v_u[0] + cs * self.v_s[0], cu * self.v_u[1] + cs * self.v_s[1])

    def tracing_coefficient(self):
        """Factor C with guaranteed sup tracing error <= C * defect bound.

        Stable series sums to 1/(1-rate_s), unstable to 1/(rate_u-1). The
        two series draw on disjoint time directions (past stable components,
        future unstable ones), so both can saturate at one index and the
        Euclidean error bound is their quadrature sum for an orthogonal
        splitting; otherwise the factors add, weighted by the dual-basis
        row norms.
        """
        cs = 1.0 / (1.0 - self.rate_s)
        cu = 1.0 / (self.rate_u - 1.0)
        if self.orthogonal_splitting:
            return math.hypot(cs, cu)
        ks = math.hypot(self.v_u[1], self.v_u[0]) / abs(self._det_v)
        ku = math.hypot(self.v_s[1], self.v_s[0]) / abs(self._det_v)
        return cs * ks + cu * ku


def linear_hyperbolic(matrix, name="linear-saddle", extra_metrics=None):
    """Build a planar linear saddle system from a 2x2 matrix."""
    return LinearSaddle(matrix, name=name, extra_metrics=extra_metrics)


class TorusAutomorphism(DynamicalSystem):
    """x -> M x mod 1 on the unit 2-torus for an integer matrix M, |det| = 1."""

    kind = "torus-automorphism"
    space_id = "torus"
    space_diameter = math.sqrt(2.0) / 2.0
    embedding_metric = "torus"

    def __init__(self, matrix, name="torus-automorphism"):
        matrix = (tuple(matrix[0]), tuple(matrix[1]))
        for row in matrix:
            for v in row:
                if not isinstance(v, int):
                    raise ValueError("Torus automorphisms need integer entries.")
        det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
        if abs(det) != 1:
            raise ValueError("Torus automorphisms need determinant +1 or -1.")
        self.cover = LinearSaddle(matrix, name=name + "-cover")
        self.matrix = matrix
        self.inverse_matrix = self.cover.inverse_matrix
        self.lam_u, self.lam_s = self.cover.lam_u, self.cover.lam_s
        self.rate_u, self.rate_s = self.cover.rate_u, self.cover.rate_s
        self.v_u, self.v_s = self.cover.v_u, self.cover.v_s
        self.name = name

    def forward(self, x):
        y = self.cover.forward(x)
        return (y[0] % 1, y[1] % 1)

    def backward(self, x):
        y = self.cover.backward(x)
        return (y[0] % 1, y[1] % 1)

    def forward_batch(self, pts):
        return self.cover.forward_batch(pts) % 1.0

    def backward_batch(self, pts):
        return self.cover.backward_batch(pts) % 1.0

    def metric(self, x, y):
        return torus_metric(x, y)

    def embed(self, x):
        return x

    def split(self, vec):
        return self.cover.split(vec)

    def combine(self, cu, cs):
        return self.cover.combine(cu, cs)

    def tracing_coefficient(self):
        return self.cover.tracing_coefficient()

    @staticmethod
    def nearest_lift(point, reference):
        """The integer translate of `point` closest to `reference`."""
        return (
            point[0] + round(reference[0] - point[0]),
            point[1] + round(reference[1] - point[1]),
        )


def torus_automorphism(matrix, name="torus-automorphism"):
    return TorusAutomorphism(matrix, name=name)


# ---------------------------------------------------------------------------
# shifts of finite type


class ShiftOfFiniteType(DynamicalSystem):
    """The shift map on bi-infinite admissible sequences of a 0/1 matrix.

    Transitions may be given as a matrix of 0/1 ints or as text rows like
    ("110", "011", ...). Points are SymbolicPoint values; all arithmetic on
    them (shift, metric, splicing) is exact.
    """

    kind = "shift-of-finite-type"
    space_id = "shift-space"
    space_diameter = 1.0

    def __init__(self, transitions, name="sft"):
        rows = []
        for row in transitions:
            if isinstance(row, str):
                rows.append(tuple(1 if ch == "1" else 0 for ch in row))
            else:
                rows.append(tuple(int(v) for v in row))
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("Transition matrix must be square.")
        self.transitions = tuple(rows)
        self.size = size
        self.name = name
        self.space_id = f"shift-{size}"

    def allowed(self, a, b):
        return bool(self.transitions[a][b])

    def successors(self, a):
        return tuple(b for b in range(self.size) if self.transitions[a][b])

    def predecessors(self, b):
        return tuple(a for a in range(self.size) if self.transitions[a][b])

    def validate_point(self, p):
        lo = p.span_start - len(p.left) - 1
        hi = p.span_end + len(p.right) + 1
        for i in range(lo, hi + 1):
            a, b = p.symbol_at(i), p.symbol_at(i + 1)
            if not self.allowed(a, b):
                raise ValueError(f"Word contains forbidden transition {a}->{b}.")
        return p

    def _coerce(self, symbols):
        if isinstance(symbols, str):
            return tuple(int(ch) for ch in symbols)
        return tuple(int(s) for s in symbols)

    def point(self, word, offset=0, left=None, right=None):
        """An admissible point: central word plus tail cycles.

        Tails default to constant repetition of the word's end symbols.
        """
        word = self._coerce(word)
        if not word:
            raise ValueError("Central word must be nonempty.")
        left = self._coerce(left) if left is not None else (word[0],)
        right = self._coerce(right) if right is not None else (word[-1],)
        return self.validate_point(symbolic_point(left, word, right, offset))

    def periodic_point(self, block):
        """The globally periodic point repeating `block`."""
        return self.validate_point(periodic_symbolic_point(self._coerce(block)))

    def forward(self, x):
        return x.shifted(1)

    def backward(self, x):
        return x.shifted(-1)

    def metric(self, x, y):
        return sft_metric(x, y)

    def _greedy_tail(self, start, forward=True):
        """Follow first successors (first predecessors when not forward)
        from `start` until a symbol repeats. Returns (tail, cycle) in
        sequence order: the sequence reads start, tail, cycle, cycle, ...
        forward and ..., cycle, cycle, tail, start backward."""
        step, what = ((self.successors, "successor") if forward
                      else (self.predecessors, "predecessor"))
        walk = [start]
        seen = {start: 0}
        while True:
            options = step(walk[-1])
            if not options:
                raise ValueError(f"Symbol {walk[-1]} has no admissible {what}.")
            nxt = options[0]
            if nxt in seen:
                tail, cycle = tuple(walk[1:]), tuple(walk[seen[nxt]:])
                return (tail, cycle) if forward else (tail[::-1], cycle[::-1])
            seen[nxt] = len(walk)
            walk.append(nxt)

    def representative_point(self, symbol):
        """A canonical admissible point with `symbol` at index 0."""
        return self.window_point((symbol,))

    def window_point(self, word, offset=0):
        """An admissible point matching `word` on [offset, offset+len), with
        canonical greedy tails grown from the word's end symbols."""
        word = self._coerce(word)
        if not word:
            raise ValueError("Central word must be nonempty.")
        ftail, fcycle = self._greedy_tail(word[-1])
        btail, bcycle = self._greedy_tail(word[0], forward=False)
        return self.validate_point(symbolic_point(
            bcycle, btail + word + ftail, fcycle, offset - len(btail)))

    def random_point(self, rng, half_width):
        """Random admissible central window with greedy tails, for sampling."""
        word = [rng.randrange(self.size)]
        for _ in range(2 * half_width):
            succ = self.successors(word[-1])
            if not succ:
                raise ValueError(f"Symbol {word[-1]} has no admissible successor.")
            word.append(rng.choice(succ))
        return self.window_point(word, -half_width)

    def point_to_text(self, x):
        j = lambda seq: "".join(str(s) for s in seq)
        return f"{j(x.left)}|{j(x.word)}|{j(x.right)}@{x.offset}"

    def point_from_text(self, text):
        body, _, off = text.partition("@")
        left, word, right = body.split("|")
        return self.validate_point(
            symbolic_point(self._coerce(left), self._coerce(word) if word else (),
                           self._coerce(right), int(off))
        )


def sft_shift(transitions, name="sft"):
    return ShiftOfFiniteType(transitions, name=name)


# ---------------------------------------------------------------------------
# finite systems


class FiniteSystem(DynamicalSystem):
    """A bijection of a finite labelled point set, with the discrete metric."""

    kind = "finite"
    space_diameter = 1.0

    def __init__(self, points, mapping, name="finite"):
        points = tuple(points)
        if set(mapping) != set(points) or set(mapping.values()) != set(points):
            raise ValueError("Mapping must be a bijection of the point set.")
        self.points = points
        self.mapping = dict(mapping)
        self.inverse_mapping = {v: k for k, v in mapping.items()}
        self.name = name
        self.space_id = f"finite-{name}"

    def forward(self, x):
        try:
            return self.mapping[x]
        except KeyError:
            raise ValueError(f"Point {x!r} is not in the finite space.") from None

    def backward(self, x):
        try:
            return self.inverse_mapping[x]
        except KeyError:
            raise ValueError(f"Point {x!r} is not in the finite space.") from None

    def metric(self, x, y):
        return discrete_metric(x, y)

    def orbit_period(self, x):
        n, z = 1, self.forward(x)
        while z != x:
            z = self.forward(z)
            n += 1
        return n

    def point_to_text(self, x):
        return str(x)

    def point_from_text(self, text):
        return text


def finite_system(points, mapping, name="finite"):
    return FiniteSystem(points, mapping, name=name)


def permutation_from_cycles(cycles, name="permutation"):
    mapping = {}
    points = []
    for cyc in cycles:
        for i, p in enumerate(cyc):
            mapping[p] = cyc[(i + 1) % len(cyc)]
            points.append(p)
    return FiniteSystem(tuple(points), mapping, name=name)


# ---------------------------------------------------------------------------
# strip families (conjugate pair with different metric behavior)


class StripFamily(DynamicalSystem):
    """Disjoint vertical strips {n} x [0, h(n)] translated one step right.

    variant "shrinking": h(n) = 2^(-|n|), the map doubles heights while n < 0
    and halves them once n >= 0, so every fiber maps onto the next.
    variant "unit": h(n) = 1 and the map is pure translation (n,y) -> (n+1,y).
    Both carry the Euclidean metric of the ambient plane.
    """

    kind = "strip-family"
    embedding_metric = "euclidean"

    def __init__(self, variant):
        if variant not in ("shrinking", "unit"):
            raise ValueError("variant must be 'shrinking' or 'unit'")
        self.variant = variant
        self.name = f"strips-{variant}"
        self.space_id = f"strips-{variant}"

    def fiber_height(self, n):
        return 2.0 ** (-abs(n)) if self.variant == "shrinking" else 1.0

    def _check(self, x):
        n, y = x
        if int(n) != n:
            raise ValueError(f"Point {x!r} has a non-integer fiber.")
        if not (0.0 <= y <= self.fiber_height(int(n))):
            raise ValueError(f"Point {x!r} lies outside its fiber.")
        return int(n), y

    def forward(self, x):
        n, y = self._check(x)
        if self.variant == "unit":
            return (n + 1, y)
        return (n + 1, 2.0 * y) if n < 0 else (n + 1, 0.5 * y)

    def backward(self, x):
        n, y = self._check(x)
        if self.variant == "unit":
            return (n - 1, y)
        return (n - 1, 0.5 * y) if n <= 0 else (n - 1, 2.0 * y)

    def metric(self, x, y):
        return euclidean(x, y)

    def embed(self, x):
        return (float(x[0]), x[1])

    def clamp(self, n, y):
        return (n, min(max(y, 0.0), self.fiber_height(n)))

    def point_to_text(self, x):
        return f"{x[0]} {x[1]!r}"

    def point_from_text(self, text):
        n, y = text.split()
        return (int(n), float(y))


@dataclass(frozen=True)
class StripConjugacy:
    """The shrinking/unit strip pair together with the fiber-rescaling maps."""

    system_a: StripFamily
    system_b: StripFamily

    def h(self, x):
        n, y = x
        return (n, y * 2.0 ** abs(n))

    def h_inv(self, x):
        n, y = x
        return (n, y * 2.0 ** (-abs(n)))


def shrinking_intervals():
    """The conjugate strip pair: shrinking fibers vs unit fibers."""
    return StripConjugacy(StripFamily("shrinking"), StripFamily("unit"))


# ---------------------------------------------------------------------------
# harmonic points (identity on a divergent discrete set)


class HarmonicPoints(DynamicalSystem):
    """The identity map on the partial sums 1 + 1/2 + ... + 1/n.

    The set is discrete (gaps 1/(n+1)) yet unbounded, which separates
    entourage-based recurrence notions from their metric counterparts.
    Points are the float partial sums themselves.
    """

    kind = "harmonic"
    space_id = "harmonic"
    embedding_metric = "euclidean"

    def __init__(self):
        self.name = "harmonic"
        self._sums = [0.0]  # index 0 unused; x_n = _sums[n]

    def point(self, n):
        if n < 1:
            raise ValueError("Harmonic points are indexed from 1.")
        while len(self._sums) <= n:
            self._sums.append(self._sums[-1] + 1.0 / len(self._sums))
        return self._sums[n]

    def points(self, count, start=1):
        return tuple(self.point(n) for n in range(start, start + count))

    def index_of(self, x):
        lo = 1
        while self.point(lo) < x - 1e-12:
            lo += 1
        if abs(self.point(lo) - x) > 1e-12:
            raise ValueError(f"{x!r} is not a harmonic partial sum.")
        return lo

    def gap_after(self, n):
        """Distance from x_n to x_{n+1}, exactly 1/(n+1)."""
        return 1.0 / (n + 1)

    def forward(self, x):
        return x

    def backward(self, x):
        return x

    def metric(self, x, y):
        return abs(x - y)

    def embed(self, x):
        return (x,)


def harmonic_points():
    return HarmonicPoints()


# ---------------------------------------------------------------------------
# generic wrapper: perturbations and ad-hoc test maps


class GenericSystem(DynamicalSystem):
    """A system assembled from callables; used for perturbations and
    ad-hoc maps where no special structure is available. forward_batch and
    backward_batch, when given, replace the point-by-point batch maps."""

    kind = "generic"

    def __init__(self, name, space_id, forward, backward, metric,
                 embed=None, embedding_metric=None, space_diameter=math.inf,
                 payload=None, forward_batch=None, backward_batch=None):
        self.name = name
        self.space_id = space_id
        self._forward = forward
        self._backward = backward
        self._metric = metric
        self._embed = embed
        self.embedding_metric = embedding_metric
        self.space_diameter = space_diameter
        self.payload = dict(payload or {})
        if forward_batch is not None:
            self.forward_batch = forward_batch
        if backward_batch is not None:
            self.backward_batch = backward_batch

    def forward(self, x):
        return self._forward(x)

    def backward(self, x):
        return self._backward(x)

    def metric(self, x, y):
        return self._metric(x, y)

    def embed(self, x):
        return self._embed(x) if self._embed else None


# ---------------------------------------------------------------------------
# ready-made catalog systems


def plane_two_metrics():
    """diag(2, 1/2) on the plane carrying both the Euclidean metric and the
    metric pulled back through the sphere."""
    return LinearSaddle(((2, 0), (0, 0.5)), name="plane-two-metrics",
                        extra_metrics={"sphere": sphere_metric})


def _north_south():
    def f(x):
        return x + 0.1 * x * (1.0 - x * x)

    def f_inv(y):
        lo, hi = -1.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if f(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return GenericSystem(
        name="north-south",
        space_id="interval",
        forward=f,
        backward=f_inv,
        metric=lambda x, y: abs(x - y),
        embed=lambda x: (x,),
        embedding_metric="euclidean",
        space_diameter=2.0,
    )


@functools.lru_cache(maxsize=1)
def torus_grid(n):
    """The n x n lattice (i/n, j/n) on the torus, as one tuple (exact floats
    for n a power of 2). The last lattice is kept, so the graphs of one
    ladder share their nodes."""
    return tuple((i / n, j / n) for i in range(n) for j in range(n))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: object
    parameters: dict
    provenance: str


def catalog():
    """All ready-made systems, keyed by name."""
    entries = [
        CatalogEntry("diag-saddle", lambda: linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle"),
                     {"matrix": ((2, 0), (0, 0.5))},
                     "diagonal linear saddle; closed-form stable/unstable axes"),
        CatalogEntry("cat-map", lambda: torus_automorphism(((2, 1), (1, 1)), name="cat-map"),
                     {"matrix": ((2, 1), (1, 1))},
                     "hyperbolic torus automorphism; dense periodic lattice points"),
        CatalogEntry("plane-two-metrics", plane_two_metrics,
                     {"matrix": ((2, 0), (0, 0.5)), "metrics": ("euclidean", "sphere")},
                     "one homeomorphism, two metrics: expansivity is metric-dependent"),
        CatalogEntry("golden-mean", lambda: sft_shift(("11", "10"), name="golden-mean"),
                     {"rows": ("11", "10")},
                     "shift of finite type forbidding the word 11"),
        CatalogEntry("full-2", lambda: sft_shift(("11", "11"), name="full-2"),
                     {"rows": ("11", "11")},
                     "full shift on two symbols"),
        CatalogEntry("two-block-sft",
                     lambda: sft_shift(("110001", "110000", "000100", "000010",
                                        "001000", "001000"), name="two-block-sft"),
                     {"rows": ("110001", "110000", "000100", "000010", "001000",
                               "001000")},
                     "two irreducible blocks joined by a transient symbol"),
        CatalogEntry("three-cycle",
                     lambda: permutation_from_cycles([("a", "b", "c")], name="three-cycle"),
                     {"cycles": (("a", "b", "c"),)},
                     "three-point cyclic permutation"),
        CatalogEntry("north-south", _north_south,
                     {"map": "x + 0.1*x*(1-x^2) on [-1,1]"},
                     "interval flow step: attractors at the ends, repeller at 0"),
        CatalogEntry("strips-shrinking", lambda: shrinking_intervals().system_a,
                     {"heights": "2^-|n|"},
                     "translation-like map on strips with geometrically shrinking fibers"),
        CatalogEntry("strips-unit", lambda: shrinking_intervals().system_b,
                     {"heights": "1"},
                     "pure translation on unit strips; conjugate partner of strips-shrinking"),
        CatalogEntry("harmonic", harmonic_points,
                     {"points": "partial sums of 1/n"},
                     "identity on a discrete divergent set; separates recurrence notions"),
    ]
    return {e.name: e for e in entries}

