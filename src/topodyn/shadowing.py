"""Pseudo-orbits and the tracers that correct them into true orbits.

A pseudo-orbit is a sequence that a map almost follows: each f(x_k) lands
near x_{k+1}, with the gaps (defects) bounded. Bi-infinite objects are
represented honestly as a finite window plus an extension tag: "orbit-tail"
(the endpoints continue as true orbits, zero defect outside the window) or
"periodic" (the window repeats). Every "for all i" claim is discharged
exactly for these two extensions.

Tracers return the corrected orbit alongside the starting point: for linear
saddles the correction solves e_{k+1} = A e_k - d_k through the bounded
series (stable part summed from the past, unstable from the future), for
shifts the tracing word is read off the pseudo-orbit's diagonal, and for
finite systems an exhaustive search serves as the oracle the other tracers
are checked against. Results store the traced orbit point-by-point; tests
verify gaps per index and one-step map consistency, never by iterating a
hyperbolic map across the whole window (which would amplify float error by
the expansion rate to the window length).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .systems import (
    FiniteSystem,
    HarmonicPoints,
    LinearSaddle,
    ShiftOfFiniteType,
    StripFamily,
    TorusAutomorphism,
    rotate_cycle as _rotate_cycle,
    symbolic_point,
)

ORBIT_TAIL = "orbit-tail"
PERIODIC = "periodic"


# ---------------------------------------------------------------------------
# pseudo-orbits


@dataclass(frozen=True)
class PseudoOrbit:
    """A window x_m ... x_M plus the rule extending it to all of Z."""

    window: tuple
    extension: str
    defect_bound: float
    start_index: int = 0
    period: object = None

    def __post_init__(self):
        if self.extension not in (ORBIT_TAIL, PERIODIC):
            raise ValueError(f"Unknown extension tag {self.extension!r}.")
        if len(self.window) < 1:
            raise ValueError("Empty pseudo-orbit window.")
        if self.extension == PERIODIC:
            p = self.period if self.period is not None else len(self.window)
            if p < 1 or len(self.window) % p:
                raise ValueError("Period must divide the window length.")
            for k in range(len(self.window) - p):
                if self.window[k] != self.window[k + p]:
                    raise ValueError(
                        f"Window is not {p}-periodic at position {k}."
                    )
            object.__setattr__(self, "period", p)

    @classmethod
    def measured(cls, system, window, extension=ORBIT_TAIL, start_index=0,
                 period=None):
        """The pseudo-orbit on `window` whose defect bound is its largest
        measured gap, or 0.0 when it has no gaps."""
        probe = cls(tuple(window), extension, 0.0, start_index, period)
        gaps = compute_defects(system, probe)
        return dataclasses.replace(probe, defect_bound=max(gaps) if gaps else 0.0)

    @property
    def end_index(self):
        return self.start_index + len(self.window) - 1

    def point_at(self, i):
        j = i - self.start_index
        if self.extension == PERIODIC:
            return self.window[j % self.period]
        if 0 <= j < len(self.window):
            return self.window[j]
        raise IndexError(f"Index {i} is outside the orbit-tail window.")


def compute_defects(system, pseudo):
    """Per-step gaps d(f(x_k), x_{k+1}), including the wrap for periodic."""
    window = pseudo.window
    gaps = []
    for a, b in zip(window, window[1:]):
        gaps.append(system.metric(system.forward(a), b))
    if pseudo.extension == PERIODIC:
        gaps.append(system.metric(system.forward(window[-1]), pseudo.point_at(
            pseudo.start_index + len(window))))
    return gaps


def verify_defect_bound(system, pseudo):
    gaps = compute_defects(system, pseudo)
    return max(gaps) <= pseudo.defect_bound + 1e-15 if gaps else True


# ---------------------------------------------------------------------------
# pseudo-orbit generators


def _unit_disk_draw(rng):
    r = math.sqrt(rng.random())
    t = 2.0 * math.pi * rng.random()
    return (r * math.cos(t), r * math.sin(t))


def _perturb(system, z, noise, rng):
    """One noise application of magnitude <= noise, staying inside the space."""
    if noise == 0:
        return z
    if isinstance(z, tuple) and isinstance(system, StripFamily):
        n, y = z
        return system.clamp(n, y + noise * (2.0 * rng.random() - 1.0))
    if isinstance(system, TorusAutomorphism):
        v = _unit_disk_draw(rng)
        return ((z[0] + noise * v[0]) % 1.0, (z[1] + noise * v[1]) % 1.0)
    if isinstance(system, ShiftOfFiniteType):
        if noise >= 1.0:
            return system.random_point(rng, 3)
        depth = max(1, math.ceil(-math.log2(noise)))
        if rng.random() < 0.5:
            return z
        word = z.window(-(depth - 1), depth - 1)
        return system.window_point(word, -(depth - 1))
    if isinstance(system, FiniteSystem):
        if noise >= 1.0 and rng.random() < 0.5:
            return rng.choice(system.points)
        return z
    if isinstance(system, HarmonicPoints):
        n = system.index_of(z)
        options = [z]
        if system.gap_after(n) <= noise:
            options.append(system.point(n + 1))
        if n > 1 and system.gap_after(n - 1) <= noise:
            options.append(system.point(n - 1))
        return rng.choice(options)
    if isinstance(z, tuple) and len(z) == 2:
        v = _unit_disk_draw(rng)
        return (z[0] + noise * v[0], z[1] + noise * v[1])
    return z + noise * (2.0 * rng.random() - 1.0)


def perturbed_pseudo_orbit(system, x0, length, noise, seed, extension=ORBIT_TAIL):
    """Window x_0 ... x_{length}: each step applies f, then a noise draw of
    magnitude <= noise. Deterministic for a fixed seed.

    With extension="periodic" the final point is forced back to x_0 and the
    window tagged with period = length; the seam defect is whatever that
    closure costs, measured and folded into defect_bound exactly.
    """
    if noise < 0:
        raise ValueError("Noise bound must be nonnegative.")
    if length < 1:
        raise ValueError("Window length must be at least 1.")
    rng = random.Random(seed)
    window = [x0]
    for _ in range(length):
        window.append(_perturb(system, system.forward(window[-1]), noise, rng))
    if extension == PERIODIC:
        return PseudoOrbit.measured(system, window[:length], PERIODIC,
                                    period=length)
    return PseudoOrbit.measured(system, window)


def tracing_tools(system):
    """The pair (window generator, tracer) for the system's type, for linear
    saddles, torus automorphisms, shifts and strips. The tracer is None on
    the unit strips, where pseudo-orbits exist but no tracer does."""
    if isinstance(system, (LinearSaddle, TorusAutomorphism)):
        return _linear_window, trace_linear_hyperbolic
    if isinstance(system, ShiftOfFiniteType):
        return _sft_window, trace_sft
    if isinstance(system, StripFamily):
        return _strip_window, (trace_strips if system.variant == "shrinking"
                               else None)
    raise TypeError(f"No pseudo-orbit generator for system {system.name!r}.")


def noisy_window(system, delta, length, rng):
    """The window x_0 ... x_length of a random pseudo-orbit with defects of
    order delta, drawn from rng in a fixed order (see `tracing_tools`)."""
    return tracing_tools(system)[0](system, delta, length, rng)


def _linear_window(system, delta, length, rng):
    if isinstance(system, TorusAutomorphism):
        x = (rng.random(), rng.random())
    else:
        x = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    window = [x]
    for _ in range(length):
        fx = system.forward(window[-1])
        y = (fx[0] + rng.uniform(-delta / 2.0, delta / 2.0),
             fx[1] + rng.uniform(-delta / 2.0, delta / 2.0))
        if isinstance(system, TorusAutomorphism):
            y = (y[0] % 1.0, y[1] % 1.0)
        window.append(y)
    return tuple(window)


def _sft_window(system, delta, length, rng):
    half = max(2, math.ceil(math.log2(1.0 / min(delta, 0.5))))
    word = [rng.randrange(system.size)]
    while len(word) < length + 2 * half + 1:
        succ = system.successors(word[-1])
        if not succ:
            raise ValueError(f"Symbol {word[-1]} has no successor.")
        word.append(rng.choice(succ))
    return tuple(
        system.window_point(word[j:j + 2 * half + 1], offset=-half)
        for j in range(length + 1)
    )


def _strip_window(system, delta, length, rng):
    n0 = rng.randint(-6, 2)
    window = [(n0, rng.uniform(0.0, system.fiber_height(n0)))]
    for _ in range(length):
        nxt = system.forward(window[-1])
        window.append(system.clamp(nxt[0], nxt[1] + rng.uniform(-delta, delta)))
    return tuple(window)


def exact_orbit(system, x0, length, extension=ORBIT_TAIL, start_index=0):
    window = [x0]
    for _ in range(length):
        window.append(system.forward(window[-1]))
    if extension == PERIODIC:
        # the seam defect is zero only if x0 really is length-periodic
        return PseudoOrbit.measured(system, window[:length], PERIODIC,
                                    start_index, period=length)
    return PseudoOrbit(window=tuple(window), extension=extension,
                       defect_bound=0.0, start_index=start_index)


def harmonic_stall_walk(system, start_n, stall, walk):
    """The stall-then-walk pseudo-orbit: sit at x_N, then step x_{N+1},
    x_{N+2}, ... Its defect is the largest gap crossed, 1/(N+1)."""
    window = [system.point(start_n)] * max(stall, 1)
    for k in range(1, walk + 1):
        window.append(system.point(start_n + k))
    return PseudoOrbit(window=tuple(window), extension=ORBIT_TAIL,
                       defect_bound=system.gap_after(start_n))


def strip_climb_pseudo_orbit(system, steps, rise):
    """On unit strips: translate right while raising y by `rise` per step,
    walking the invariant second coordinate from 0 toward steps*rise."""
    window = [(0, 0.0)]
    for k in range(1, steps + 1):
        window.append((k, min(1.0, k * rise)))
    return PseudoOrbit(window=tuple(window), extension=ORBIT_TAIL,
                       defect_bound=rise)


# ---------------------------------------------------------------------------
# tracing results


@dataclass
class TracingResult:
    """A tracing point with its verified per-index record.

    point is y at the window's first index; traced_orbit[k] is y_k for every
    window index, satisfying y_{k+1} = f(y_k) up to float rounding; gaps[k]
    is the measured distance from y_k to x_k, and error_bound their sup.
    guaranteed_bound is the a-priori bound the construction promises, when
    one exists.
    """

    point: object
    error_bound: float
    traced_orbit: tuple = ()
    gaps: tuple = ()
    guaranteed_bound: float = None
    periodic: bool = False
    period: object = None


def _eigen_series(cover, windows, period=None, wrap=False):
    """Trace N pseudo-orbit windows of the linear saddle `cover` at once.

    windows is an (n, N, 2) float array with x_k of every window at
    windows[k]. The defects d_k = x_{k+1} - A x_k (lifted to the plane by
    d - round(d) when wrap is set) split into eigen-coordinates; the stable
    coefficient runs forward, e_{k+1} = lam_s e_k - ds_k, and the unstable
    one backward, e_k = (e_{k+1} + du_k) / lam_u. Orbit tails start both
    from zero; periodic windows (x_n = x_0) start them from the closed
    periodic sums. Returns the traced points (mod 1 when wrap is set) and
    the defects, one row fewer for orbit tails. An orbit that overflows
    yields inf or nan, without warnings; the measured gaps report it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n = len(windows)
        nxt = windows[1:] if period is None else np.roll(windows, -1, axis=0)
        d = nxt - np.stack(cover.forward((windows[:len(nxt), :, 0],
                                          windows[:len(nxt), :, 1])), axis=-1)
        if wrap:
            d -= np.round(d)
            d[d == 0.5] = -0.5  # lifts land in [-1/2, 1/2), as exact ones do
        du, ds = cover.split((d[..., 0], d[..., 1]))
        lam_u, lam_s = cover.lam_u, cover.lam_s
        es, eu = np.zeros((2, n, windows.shape[1]))
        if period is not None:
            p = period
            powers = np.arange(p)
            # e^s_0 = -sum_{i<p} lam_s^i ds_{p-1-i} / (1 - lam_s^p) and
            # e^u_{n-1} = sum_{i<p} lam_u^-(i+1) du_{n-1+i} / (1 - lam_u^-p)
            es[0] = -(lam_s ** powers @ ds[p - 1::-1]) / (1.0 - lam_s ** p)
            eu[-1] = (lam_u ** -(powers + 1.0) @ du[(n - 1 + powers) % p]) \
                / (1.0 - lam_u ** -p)
        for k in range(n - 1):
            es[k + 1] = lam_s * es[k] - ds[k]
        for k in range(n - 2, -1, -1):
            eu[k] = (eu[k + 1] + du[k]) / lam_u
        traced = windows + np.stack(cover.combine(eu, es), axis=-1)
        if wrap:
            traced %= 1.0
    return traced, d


def trace_linear_hyperbolic(system, pseudo, exact=False):
    """Correct a pseudo-orbit of a linear saddle into a true orbit.

    Writing y_k = x_k + e_k, the defect relation forces
    e_{k+1} = A e_k - d_k. The bounded solution splits along the
    eigendirections: the stable coefficient is the series over past defects
    (summed forward from the window start, where orbit-tail extensions have
    zero defect), the unstable coefficient the series over future defects
    (summed backward from the window end). Periodic windows start both
    recursions from the closed periodic-series form, yielding a periodic
    tracing point.

    Torus systems are lifted to the cover for the series and projected back
    at the end. With exact=True (periodic windows) everything runs in
    rational arithmetic via the (I - A^p) solve, exercising the same
    construction through an independent route.
    """
    if isinstance(system, TorusAutomorphism):
        cover = system.cover
    elif isinstance(system, LinearSaddle):
        cover = system
    else:
        raise TypeError("trace_linear_hyperbolic needs a linear saddle system.")
    if not pseudo.window:
        raise ValueError("Empty pseudo-orbit window.")

    if exact:
        if pseudo.extension != PERIODIC:
            raise ValueError("Exact tracing is defined for periodic windows.")
        return _trace_linear_exact(system, cover, pseudo)

    periodic = pseudo.extension == PERIODIC
    windows = np.array(pseudo.window, dtype=float).reshape(-1, 1, 2)
    points, _ = _eigen_series(cover, windows,
                              period=pseudo.period if periodic else None,
                              wrap=isinstance(system, TorusAutomorphism))
    traced = tuple(map(tuple, points[:, 0].tolist()))
    gaps = tuple(system.metric(y, x) for y, x in zip(traced, pseudo.window))

    return TracingResult(
        point=traced[0],
        error_bound=max(gaps),
        traced_orbit=traced,
        gaps=gaps,
        guaranteed_bound=cover.tracing_coefficient() * pseudo.defect_bound,
        periodic=periodic,
        period=pseudo.period,
    )


def _frac_pair(p):
    return (Fraction(p[0]), Fraction(p[1]))


def _wrap_half_frac(v):
    return (v + Fraction(1, 2)) % 1 - Fraction(1, 2)


def _trace_linear_exact(system, cover, pseudo):
    p = pseudo.period
    a = tuple(tuple(Fraction(v) for v in row) for row in cover.matrix)

    def mat_mul(m, q):
        return (
            (m[0][0] * q[0][0] + m[0][1] * q[1][0], m[0][0] * q[0][1] + m[0][1] * q[1][1]),
            (m[1][0] * q[0][0] + m[1][1] * q[1][0], m[1][0] * q[0][1] + m[1][1] * q[1][1]),
        )

    window = [_frac_pair(x) for x in pseudo.window]
    defects = []
    for k in range(p):
        fa = cover.apply_matrix(a, window[k])
        nxt = window[(k + 1) % p]
        d = (nxt[0] - fa[0], nxt[1] - fa[1])
        if isinstance(system, TorusAutomorphism):
            d = (_wrap_half_frac(d[0]), _wrap_half_frac(d[1]))
        defects.append(d)

    a_pow = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    rhs = (Fraction(0), Fraction(0))
    # (I - A^p) e_0 = -(A^{p-1} d_0 + ... + A^0 d_{p-1})
    for k in range(p - 1, -1, -1):
        term = cover.apply_matrix(a_pow, defects[k])
        rhs = (rhs[0] - term[0], rhs[1] - term[1])
        a_pow = mat_mul(a, a_pow)
    m = ((1 - a_pow[0][0], -a_pow[0][1]), (-a_pow[1][0], 1 - a_pow[1][1]))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise ValueError("I - A^p is singular; the matrix is not a saddle.")
    e = ((m[1][1] * rhs[0] - m[0][1] * rhs[1]) / det,
         (m[0][0] * rhs[1] - m[1][0] * rhs[0]) / det)

    traced, gaps = [], []
    for k in range(p):
        y = (window[k][0] + e[0], window[k][1] + e[1])
        if isinstance(system, TorusAutomorphism):
            y = (y[0] % 1, y[1] % 1)
        traced.append(y)
        gaps.append(system.metric((float(y[0]), float(y[1])),
                                  (float(window[k][0]), float(window[k][1]))))
        fe = cover.apply_matrix(a, e)
        e = (fe[0] - defects[k][0], fe[1] - defects[k][1])

    return TracingResult(
        point=traced[0],
        error_bound=max(gaps),
        traced_orbit=tuple(traced),
        gaps=tuple(gaps),
        guaranteed_bound=cover.tracing_coefficient() * pseudo.defect_bound,
        periodic=True,
        period=p,
    )


def trace_sft(system, pseudo):
    """Trace a shift pseudo-orbit by reading its diagonal symbols.

    With defect below 1/2, consecutive sequences agree at the origin after
    one shift, so y_j = (x^(j))_0 is an admissible word; the point spelling
    it (with the first window point's left tail and the last one's right
    tail) traces the window within twice the defect. Periodic windows yield
    the periodic word.
    """
    if not isinstance(system, ShiftOfFiniteType):
        raise TypeError("trace_sft needs a shift of finite type.")
    if pseudo.defect_bound >= 0.5:
        raise ValueError("Tracing by diagonal symbols needs defect below 1/2.")
    m = pseudo.start_index
    window = pseudo.window

    if pseudo.extension == PERIODIC:
        block = tuple(x.symbol_at(0) for x in window[:pseudo.period])
        try:
            y = system.periodic_point(block)
        except ValueError as err:
            raise ValueError(
                f"Diagonal word is inadmissible ({err}); the defect bound "
                "must have been violated."
            ) from None
        y = y.shifted(-m)  # align block position 0 with window index m
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
        left = _rotate_cycle(first.left, lo - first.span_start)
        right = _rotate_cycle(last.right, hi - last.span_end)
        try:
            y = system.validate_point(
                symbolic_point(left, tuple(word), right, lo))
        except ValueError as err:
            raise ValueError(
                f"Diagonal word is inadmissible ({err}); the defect bound "
                "must have been violated."
            ) from None

    traced, gaps = [], []
    z = y.shifted(m)
    for k in range(len(window)):
        traced.append(z)
        gaps.append(system.metric(z, window[k]))
        z = z.shifted(1)

    return TracingResult(
        point=traced[0],
        error_bound=max(gaps),
        traced_orbit=tuple(traced),
        gaps=tuple(gaps),
        guaranteed_bound=2.0 * pseudo.defect_bound,
        periodic=pseudo.extension == PERIODIC,
        period=pseudo.period,
    )


def trace_finite_bruteforce(system, pseudo, E):
    """Every point of a finite system, tested exhaustively as a tracer.

    The pseudo-orbit must be periodic; candidates are checked over
    lcm(window period, orbit period), which covers every integer index, so
    the returned tuple is exactly the set of E-tracing points.
    """
    if not isinstance(system, FiniteSystem):
        raise TypeError("Brute-force tracing needs a finite system.")
    if pseudo.extension != PERIODIC:
        raise ValueError("Brute-force tracing is defined for periodic windows.")
    p = pseudo.period
    tracers = []
    for z in system.points:
        q = system.orbit_period(z)
        span = math.lcm(p, q)
        w = z
        ok = True
        for i in range(span):
            if not E.accepts(w, pseudo.point_at(pseudo.start_index + i)):
                ok = False
                break
            w = system.forward(w)
        if ok:
            tracers.append(z)
    return tuple(tracers)


def trace_strips(system, pseudo):
    """A true shrinking-strip orbit tracing the pseudo-orbit.

    The base coordinate must advance by one per step; a defect below 1
    forces that, since distinct fibers are at least 1 apart. Fiber errors
    double while n < 0 and halve once n >= 0, so the tracer is anchored on
    the pseudo-orbit at the first index with n >= 0 (or the window's end if
    it never crosses): backward from the anchor errors shrink as
    (|e| + defect)/2, forward as |e|/2 + defect, giving sup gap < 2 * defect
    with no clamping. The traced window is a genuine orbit.
    """
    if not isinstance(system, StripFamily) or system.variant != "shrinking":
        raise TypeError("This tracer needs the shrinking strip family; the "
                        "unit strips have an invariant fiber coordinate and "
                        "no contraction to anchor on.")
    if pseudo.extension == PERIODIC:
        raise ValueError("Strip pseudo-orbits advance fibers and cannot close.")
    if pseudo.defect_bound >= 1.0:
        raise ValueError("A defect below 1 is needed to pin the fiber walk.")
    window = pseudo.window
    for a, b in zip(window, window[1:]):
        if b[0] != a[0] + 1:
            raise ValueError("Base coordinates must advance by one per step; "
                             "the defect bound must have been violated.")
    anchor = next((k for k, z in enumerate(window) if z[0] >= 0),
                  len(window) - 1)
    traced = [None] * len(window)
    traced[anchor] = window[anchor]
    for k in range(anchor + 1, len(window)):
        traced[k] = system.forward(traced[k - 1])
    for k in range(anchor - 1, -1, -1):
        traced[k] = system.backward(traced[k + 1])
    gaps = [system.metric(y, x) for y, x in zip(traced, window)]
    m = pseudo.start_index
    return TracingResult(
        point=traced[0],
        error_bound=max(gaps),
        traced_orbit=tuple(traced),
        gaps=tuple(gaps),
        guaranteed_bound=2.0 * pseudo.defect_bound,
    )


# ---------------------------------------------------------------------------
# uniqueness


@dataclass
class UniqueTracingResult:
    verdict: str  # "yes" | "no" | "undetermined"
    witness: object = None
    separations: tuple = ()


def _default_candidates(system, pseudo, E, r):
    if isinstance(system, FiniteSystem):
        return trace_finite_bruteforce(system, pseudo, E)
    if isinstance(system, ShiftOfFiniteType):
        y = trace_sft(system, pseudo).point
        depth = max(1, math.ceil(-math.log2(r)))
        other = system.window_point(y.window(-(depth + 1), depth + 1), -(depth + 1))
        return (y, other) if other != y else (y,)
    result = trace_linear_hyperbolic(system, pseudo)
    y = result.point
    out = [y]
    for v in (system.v_u, system.v_s):
        cand = (y[0] + 0.5 * r * v[0], y[1] + 0.5 * r * v[1])
        if isinstance(system, TorusAutomorphism):
            cand = (cand[0] % 1.0, cand[1] % 1.0)
        out.append(cand)
    return tuple(out)


def unique_tracing_check(system, pseudo, E, horizon, candidates=None):
    """Decide whether two distinct tracing candidates can coexist.

    Soundness of each verdict:
      yes: every distinct candidate pair moved apart by at least twice E's
           radius at some |n| <= horizon. E's composition with itself sits
           inside the double-radius ball, so such a pair can never both
           trace one pseudo-orbit; only one candidate orbit survives.
      no:  some distinct pair returned to an exactly repeated joint state
           while staying within E of a common window point throughout, so it
           remains E-close forever: a proven pair of distinct tracers.
      undetermined: the horizon ran out before either proof appeared.
    """
    r = E.radius
    if r is None:
        raise TypeError("Uniqueness checking needs an entourage with a known radius.")
    if candidates is None:
        candidates = _default_candidates(system, pseudo, E, r)
    candidates = list(dict.fromkeys(candidates))
    if len(candidates) < 2:
        return UniqueTracingResult(verdict="yes", separations=())

    separations = []
    verdict = "yes"
    witness = None
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            a, b = candidates[i], candidates[j]
            outcome, steps = _pair_outcome(system, a, b, E, r, horizon)
            separations.append(((a, b), outcome, steps))
            if outcome == "trapped":
                return UniqueTracingResult(verdict="no", witness=(a, b),
                                           separations=tuple(separations))
            if outcome == "undetermined":
                verdict = "undetermined"
                witness = (a, b)
    return UniqueTracingResult(verdict=verdict, witness=witness,
                               separations=tuple(separations))


def _pair_outcome(system, a, b, E, radius, horizon):
    """Evolve a pair both ways until one of three resolutions.

    separated: distance reached twice the radius, which is outside E's
    self-composition no matter what E looks like inside its ball.
    trapped: both directions hit an exactly repeated joint state while every
    visited state stayed inside E itself; the joint orbit is then periodic
    and remains inside E (hence inside E's composition) for every integer.
    Anything else within the horizon stays undetermined.
    """
    # a NaN distance does not count as separated
    near = lambda x, y: not system.metric(x, y) >= 2.0 * radius
    ends = []
    for step in (1, -1):
        end, n = system.pair_exit(a, b, near, horizon, step)
        if end == "left":
            return "separated", n
        ends.append(end)
    inside = lambda x, y: E.accepts(x, y) and E.accepts(y, x)
    # the same states again, so the same first repeat, now held to E
    if ends == ["cycle", "cycle"] and inside(a, b) and all(
            system.pair_exit(a, b, inside, horizon, step)[0] == "cycle"
            for step in (1, -1)):
        return "trapped", 0
    return "undetermined", None


# ---------------------------------------------------------------------------
# file format and reports


def pseudo_orbit_to_text(system, pseudo, seed):
    """Header `system=... delta=... extension=... seed=...`, then one point
    per line in the system's point syntax."""
    lines = [
        f"system={system.name} delta={pseudo.defect_bound!r} "
        f"extension={pseudo.extension} seed={seed}"
    ]
    lines.extend(system.point_to_text(x) for x in pseudo.window)
    return "\n".join(lines) + "\n"


def pseudo_orbit_from_text(text, system):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("Empty pseudo-orbit file.")
    header = {}
    for part in lines[0].split():
        key, _, value = part.partition("=")
        header[key] = value
    if "system" not in header or "seed" not in header:
        raise ValueError("Pseudo-orbit header needs system= and seed= fields.")
    if header["system"] != system.name:
        raise ValueError(
            f"File is for system {header['system']!r}, not {system.name!r}."
        )
    window = tuple(system.point_from_text(ln) for ln in lines[1:])
    extension = header.get("extension", ORBIT_TAIL)
    pseudo = PseudoOrbit(
        window=window,
        extension=extension,
        defect_bound=float(header.get("delta", "0") or 0.0),
        period=len(window) if extension == PERIODIC else None,
    )
    return pseudo, header

