"""Neighborhoods of the diagonal and the calculus performed on them.

An entourage is a set of ordered point pairs containing every (x, x); it
plays the role a positive radius plays in metric arguments, without fixing
one number for the whole space. This module provides the concrete kinds
(metric balls, variable gauges, finite relations, raw predicates, lazy
compositions), the operations connecting them (cross-section, transpose,
symmetrization, n-fold composition, wideness and properness checks), and the
inf-convolution that turns an entourage into a continuous gauge.

All entourages are immutable; queries are pure and safe to evaluate from any
number of workers. Composition memoizes queried pairs only, and the fills
are idempotent, so concurrent evaluation behaves as if unmemoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# regions (cores and witness boxes)


@dataclass(frozen=True)
class Box:
    """A product of intervals. With half_open=True the upper faces are
    excluded, so translated copies tile a region without overlap."""

    lo: tuple
    hi: tuple
    half_open: bool = False

    def contains(self, p):
        if self.half_open:
            return all(l <= c < h for l, c, h in zip(self.lo, p, self.hi))
        return all(l <= c <= h for l, c, h in zip(self.lo, p, self.hi))

    def contains_box(self, other):
        return all(a <= b for a, b in zip(self.lo, other.lo)) and all(
            a <= b for a, b in zip(other.hi, self.hi)
        )

    @property
    def width(self):
        return max(h - l for l, h in zip(self.lo, self.hi))


def region_contains(region, p):
    if isinstance(region, Box):
        return region.contains(p)
    if isinstance(region, (set, frozenset, tuple, list)):
        return p in region
    return bool(region(p))


def region_subset(inner, outer):
    """Whether inner is contained in outer, when decidable; None otherwise."""
    if isinstance(inner, Box) and isinstance(outer, Box):
        return outer.contains_box(inner)
    if isinstance(inner, (set, frozenset, tuple, list)):
        return all(region_contains(outer, p) for p in inner)
    return None


@dataclass(frozen=True)
class CompactWitness:
    """Finite sample points plus bounded boxes covering them; the boxes'
    squares V x V cut an entourage down to a proper one."""

    points: tuple
    boxes: tuple

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("Witness needs at least one box.")
        for p in self.points:
            if not any(b.contains(p) for b in self.boxes):
                raise ValueError(f"Witness boxes do not cover sample {p!r}.")


# ---------------------------------------------------------------------------
# cross-sections


@dataclass
class CrossSection:
    """The set U[x] = {y : (x,y) in U} for one fixed x.

    Always usable as a membership test. `points` is the explicit set when
    the entourage is a finite relation; `radius` the closed-form ball radius
    about x when one exists; `is_all` reports whether the section is
    the whole space (None when undecidable from the entourage's form).
    """

    predicate: object
    points: tuple = None
    radius: float = None
    is_all: object = None

    def contains(self, y):
        return bool(self.predicate(y))


# ---------------------------------------------------------------------------
# entourage kinds


class Entourage:
    """Base interface: a pair predicate containing the diagonal.

    radius, when not None, bounds d(x, y) over every accepted pair, in the
    metric the entourage measures with."""

    kind = "abstract"
    radius = None

    def __init__(self, space_id, symmetric_flag=None, space_diameter=math.inf):
        self.space_id = space_id
        self.symmetric_flag = symmetric_flag
        self.space_diameter = space_diameter

    def accepts(self, x, y):
        raise NotImplementedError

    def cross_section(self, x):
        return CrossSection(predicate=lambda y: self.accepts(x, y))

    def transpose(self):
        return PredicateEntourage(lambda x, y: self.accepts(y, x), self.space_id,
                                  self.symmetric_flag, self.space_diameter)


def _ball_is_all(r, diameter):
    # a ball of radius r is the whole space when r exceeds the diameter and
    # never is when the space is unbounded; otherwise its form cannot tell
    return True if r > diameter else (False if math.isinf(diameter) else None)


class MetricBall(Entourage):
    """U_delta = {(x,y) : d(x,y) < delta}, the strict metric entourage."""

    kind = "metric-ball"

    def __init__(self, metric, delta, space_id="space", space_diameter=math.inf):
        if delta <= 0:
            raise ValueError("Ball radius must be positive.")
        super().__init__(space_id, symmetric_flag=True, space_diameter=space_diameter)
        self.metric = metric
        self.delta = delta

    def accepts(self, x, y):
        return self.metric(x, y) < self.delta

    @property
    def radius(self):
        return self.delta

    def cross_section(self, x):
        return CrossSection(predicate=lambda y: self.accepts(x, y),
                            radius=self.delta,
                            is_all=_ball_is_all(self.delta, self.space_diameter))

    def transpose(self):
        return self


class GaugeBall(Entourage):
    """B_gauge = {(x,y) : d(x,y) < gauge(x)}: ball radius varying over the
    space. With at_arrival=True the gauge is read at y instead, which is
    exactly the transpose."""

    kind = "gauge"

    def __init__(self, metric, gauge, space_id="space", at_arrival=False,
                 sup_bound=None, inf_bound=None, space_diameter=math.inf):
        super().__init__(space_id, symmetric_flag=None, space_diameter=space_diameter)
        self.metric = metric
        self.gauge = gauge
        self.at_arrival = at_arrival
        self.sup_bound = sup_bound
        self.inf_bound = inf_bound

    def accepts(self, x, y):
        at = y if self.at_arrival else x
        return self.metric(x, y) < self.gauge(at)

    @property
    def radius(self):
        # d(x, y) < gauge(at) <= sup_bound, read at departure or at arrival
        return self.sup_bound

    def cross_section(self, x):
        if self.at_arrival:
            return CrossSection(predicate=lambda y: self.accepts(x, y))
        r = self.gauge(x)
        return CrossSection(predicate=lambda y: self.accepts(x, y),
                            radius=r, is_all=_ball_is_all(r, self.space_diameter))

    def transpose(self):
        return GaugeBall(self.metric, self.gauge, self.space_id,
                         at_arrival=not self.at_arrival, sup_bound=self.sup_bound,
                         inf_bound=self.inf_bound, space_diameter=self.space_diameter)


class FiniteRelation(Entourage):
    """An explicit finite set of ordered pairs."""

    kind = "finite-relation"

    def __init__(self, pairs, space_id="finite", points=None):
        super().__init__(space_id, space_diameter=1.0)
        self.pairs = frozenset(pairs)
        if points is not None:
            self.points = frozenset(points)
        else:
            self.points = frozenset(p for pair in self.pairs for p in pair)
        self.symmetric_flag = all((y, x) in self.pairs for (x, y) in self.pairs)

    def accepts(self, x, y):
        return (x, y) in self.pairs

    def cross_section(self, x):
        if x not in self.points:
            raise ValueError(f"Point {x!r} is outside the relation's space.")
        section = tuple(sorted((y for (a, y) in self.pairs if a == x), key=repr))
        return CrossSection(predicate=lambda y: (x, y) in self.pairs,
                            points=section, is_all=set(section) == self.points)

    def transpose(self):
        return FiniteRelation({(y, x) for (x, y) in self.pairs},
                              space_id=self.space_id, points=self.points)

    def symmetrized(self):
        keep = {(x, y) for (x, y) in self.pairs if (y, x) in self.pairs}
        return FiniteRelation(keep, space_id=self.space_id, points=self.points)


class PredicateEntourage(Entourage):
    """An arbitrary decision rule on pairs."""

    kind = "predicate"

    def __init__(self, fn, space_id="space", symmetric_flag=None,
                 space_diameter=math.inf):
        super().__init__(space_id, symmetric_flag, space_diameter)
        self.fn = fn

    def accepts(self, x, y):
        return bool(self.fn(x, y))

    def transpose(self):
        if self.symmetric_flag:
            return self
        return PredicateEntourage(lambda x, y: self.fn(y, x), self.space_id,
                                  self.symmetric_flag, self.space_diameter)


class CoreWideEntourage(Entourage):
    """(S x S) union ((X minus S) x X): total outside the core S, so the
    entourage is wide however small S's internal structure is."""

    kind = "core-wide"

    def __init__(self, core, space_id="space", space_diameter=math.inf):
        super().__init__(space_id, symmetric_flag=False, space_diameter=space_diameter)
        self.core = core

    def accepts(self, x, y):
        return (not region_contains(self.core, x)) or region_contains(self.core, y)

    def cross_section(self, x):
        inside = region_contains(self.core, x)
        return CrossSection(
            predicate=(lambda y: region_contains(self.core, y)) if inside
            else (lambda y: True), is_all=not inside)


class ComposedEntourage(Entourage):
    """U_1 o ... o U_n evaluated through chains of witness points.

    (x,y) is accepted iff there are z_0 = x, z_1, ..., z_n = y with each
    (z_{i-1}, z_i) accepted by the i-th factor and the intermediate z_i drawn
    from the sample set plus {x, y}. Accepted pairs are genuine chains; pairs
    whose only witnesses fall between samples are missed, which callers
    account for by stating their sample resolution.
    """

    kind = "composed"

    def __init__(self, factors, samples):
        factors = tuple(factors)
        if not factors:
            raise ValueError("Composition needs at least one factor.")
        super().__init__(factors[0].space_id,
                         space_diameter=factors[0].space_diameter)
        self.factors = factors
        self.samples = tuple(samples)
        self._memo = {}

    def accepts(self, x, y):
        key = (x, y)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        candidates = self.samples + tuple(p for p in (x, y) if p not in self.samples)
        frontier = [x]
        for step, factor in enumerate(self.factors):
            last = step == len(self.factors) - 1
            if last:
                result = any(factor.accepts(w, y) for w in frontier)
                break
            reached, seen = [], set()
            for z in candidates:
                if z in seen:
                    continue
                if any(factor.accepts(w, z) for w in frontier):
                    reached.append(z)
                    seen.add(z)
            if not reached:
                result = False
                break
            frontier = reached
        self._memo[key] = result
        return result

    def transpose(self):
        return ComposedEntourage([f.transpose() for f in reversed(self.factors)],
                                 self.samples)


# ---------------------------------------------------------------------------
# constructors bound to a system


def metric_ball(system, delta, metric=None):
    return MetricBall(metric or system.metric, delta, space_id=system.space_id,
                      space_diameter=system.space_diameter)


def gauge_entourage(system, gauge, metric=None, sup_bound=None, inf_bound=None):
    return GaugeBall(metric or system.metric, gauge, space_id=system.space_id,
                     sup_bound=sup_bound, inf_bound=inf_bound,
                     space_diameter=system.space_diameter)


def finite_relation(pairs, space_id="finite", points=None):
    return FiniteRelation(pairs, space_id=space_id, points=points)


def predicate_entourage(fn, space_id="space", symmetric_flag=None):
    return PredicateEntourage(fn, space_id=space_id, symmetric_flag=symmetric_flag)


def core_wide(core, space_id="space"):
    return CoreWideEntourage(core, space_id=space_id)


# ---------------------------------------------------------------------------
# operations


def cross_section(U, x):
    return U.cross_section(x)


def transpose(U):
    return U.transpose()


def symmetrize(U):
    """U intersect transpose(U), the largest symmetric entourage inside U."""
    if isinstance(U, FiniteRelation):
        return U.symmetrized()
    if U.symmetric_flag:
        return U
    T = U.transpose()
    return PredicateEntourage(lambda x, y: U.accepts(x, y) and T.accepts(x, y),
                              U.space_id, True,
                              min(U.space_diameter, T.space_diameter))


def compose_n(U, n, samples=()):
    """The n-fold composition U^n witnessed over the sample set."""
    if n < 1:
        raise ValueError("Composition power must be a positive integer.")
    return ComposedEntourage([U] * n, samples)


def compose(U, V, samples=()):
    return ComposedEntourage([U, V], samples)


def is_wide(U, candidate_core):
    """Whether U[x] covers the whole space for every x outside the core.

    Returns True or False when the entourage's form decides the question
    exactly, and None when it does not; the answer is never guessed.
    """
    if isinstance(U, CoreWideEntourage):
        inside = region_subset(U.core, candidate_core)
        if inside is None:
            return None
        # a point of S outside the candidate core has cross-section S != X
        return bool(inside)
    if isinstance(U, MetricBall):
        return _ball_is_all(U.delta, U.space_diameter)
    if isinstance(U, GaugeBall):
        if U.inf_bound is not None and U.inf_bound > U.space_diameter:
            return True
        return False if U.radius is not None and math.isinf(U.space_diameter) else None
    if isinstance(U, FiniteRelation):
        for x in U.points:
            if region_contains(candidate_core, x):
                continue
            if not U.cross_section(x).is_all:
                return False
        return True
    return None


def proper_restrict(A, witness):
    """Cut A down to the witness boxes' squares, bounding every
    cross-section over the sample region by a box diameter."""
    if not isinstance(witness, CompactWitness):
        raise TypeError("proper_restrict needs a CompactWitness.")
    boxes = witness.boxes
    return PredicateEntourage(
        lambda x, y: A.accepts(x, y) and any(
            b.contains(x) and b.contains(y) for b in boxes),
        A.space_id, A.symmetric_flag,
        min(A.space_diameter, max(b.width for b in boxes)))


def contains_diagonal(U, samples):
    return all(U.accepts(x, x) for x in samples)


# ---------------------------------------------------------------------------
# smoothing an entourage into a continuous gauge


class GaugeComputationError(ValueError):
    """Raised when a sampled cross-section is the whole space, naming it."""

    def __init__(self, culprits):
        self.culprits = tuple(culprits)
        super().__init__(
            "Cross-section equals the whole space at sample(s): "
            + ", ".join(repr(c) for c in self.culprits)
        )


@dataclass
class SampledGauge:
    """delta(x) = (1/2) min over samples y of (h(y) + d(x,y)).

    h(y) is the distance from y to the complement of U[y]. The minimum of
    1-Lipschitz functions is 1-Lipschitz, and the halving keeps the value
    strictly between 0 and h(x) at every sample, so the gauge ball at x
    always sits strictly inside U[x]. A point found in `values` (the
    samples, filled by `smooth_gauge` with this formula) is looked up
    there instead of being computed again.
    """

    metric: object
    h_values: dict
    values: dict = field(default_factory=dict)

    def __call__(self, x):
        value = self.values.get(x)
        if value is None:
            value = 0.5 * min(h + self.metric(x, y) for y, h in self.h_values.items())
        return value


def _section_floor(U, x, samples, metric):
    """h(x) = d(x, complement of U[x]), from closed form or sampled witness."""
    section = U.cross_section(x)
    if section.is_all:
        return None  # whole space: no complement to measure against
    if section.radius is not None:
        return section.radius
    outside = [metric(x, y) for y in samples if not section.contains(y)]
    if not outside:
        return None
    return min(outside)


def smooth_gauge(U, samples, metric=None):
    """Turn an entourage into a continuous positive gauge on the samples.

    Every sampled cross-section must have nonempty complement (closed-form
    radius, or witnessed by another sample); offenders are reported in a
    GaugeComputationError. Returns a SampledGauge callable everywhere, with
    its per-sample values precomputed in .values.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("smooth_gauge needs at least one sample.")
    metric = metric or getattr(U, "metric", None)
    if metric is None:
        raise ValueError("No metric available: pass one explicitly.")
    h_values, culprits = {}, []
    for x in samples:
        h = _section_floor(U, x, samples, metric)
        if h is None:
            culprits.append(x)
        else:
            h_values[x] = h
    if culprits:
        raise GaugeComputationError(culprits)
    gauge = SampledGauge(metric=metric, h_values=h_values)
    for x in samples:
        gauge.values[x] = gauge(x)
    return gauge


# ---------------------------------------------------------------------------
# serialization of finite relations


def relation_to_text(U, point_id=str):
    """One `x_id y_id` pair per line, lexicographically sorted, so relation
    equality is file equality."""
    lines = sorted(f"{point_id(x)} {point_id(y)}" for (x, y) in U.pairs)
    return "\n".join(lines) + "\n"


def relation_from_text(text, parse_point=None, space_id="parsed"):
    parse = parse_point or (lambda s: s)
    pairs = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        a, b = line.split()
        pairs.add((parse(a), parse(b)))
    return FiniteRelation(pairs, space_id=space_id)
