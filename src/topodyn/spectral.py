"""Spectral decomposition of the recurrent set into certified basic sets.

The pipeline partitions chain-recurrent nodes into chain components and
attaches two certificates to each: transitivity (closed chains through
sampled node pairs, traced to periodic points that visit both cross-
sections) and periodic density (every recurrent node receives a verified
periodic point inside its entourage ball). Certificates are self-contained:
they carry the nodes, walks, and parameters needed to re-verify from
scratch, with no reference to cached graph state.

Three system families are supported, and each only supplies a ladder of
chain graphs, its radii and its entourages; one pipeline refines the ladder,
cuts it at stabilization and certifies the cells. Shift spaces give the
transition graph of their symbols, where basic sets are the cycle-containing
strongly connected components and the component count is exact. Finite
systems give the graph of the diagonal entourage, exact as well. Torus
automorphisms give an n x n lattice over a shrinking entourage ladder, and
the reported partition is the stabilized one, with the full ladder history
retained. Decompositions on compact spaces are finite by construction here;
unboundedly many basic sets can only arise on noncompact spaces, which have
no grid discretization at desk scale, and reports say so.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .chains import (ChainGraph, _cell_groups, _concat_ranges, _float_pairs,
                     _lattice_map, _orbit_labels, _pair_array, _refine_ladder,
                     build_chain_graph, torus_grid_graph)
from .entourage import finite_relation, metric_ball
from .report import FAIL, PASS, RESOLUTION_LIMITED, Report
from .shadowing import PERIODIC, PseudoOrbit, trace_linear_hyperbolic
from .systems import FiniteSystem, ShiftOfFiniteType, TorusAutomorphism, sft_metric

NONCOMPACT_NOTE = (
    "decompositions here are finite because every discretized space is "
    "compact; infinitely many basic sets would need a noncompact space, "
    "which has no desk-scale grid"
)


# ---------------------------------------------------------------------------
# certificate evidence records


@dataclass(frozen=True)
class WalkDemo:
    """A closed chain through x that visits y, with the traced periodic
    orbit and the measured tracing gap.

    `traced` holds the full orbit, one point per walk step. Symbolic demos
    store a single periodic sequence instead, since it carries its whole
    orbit. Metric demos keep rational coordinates so periodicity is an exact
    statement; re-checks step through the stored orbit rather than iterating
    the float map around the loop, which would amplify rounding by
    rate_u^period. Lattice density evidence (`LatticeCycles`) avoids float
    orbits the same way: its re-check is in integers.
    """

    x: object
    y: object
    walk: tuple
    y_pos: int
    traced: object
    period: int
    gap: float


@dataclass(frozen=True, slots=True)
class CycleDemo:
    """A periodic point certified inside the entourage ball of one node.
    Shift and finite density certificates hold one per node; a torus
    certificate holds a `LatticeCycles` record, whose entries read back as
    CycleDemos."""

    node: object
    cycle_length: int
    traced: object
    gap: float


@dataclass(frozen=True, eq=False)
class LatticeCycles(Sequence):
    """The lattice-cycle density evidence of a whole torus component, as
    two read-only arrays in component order: `indices` holds the lattice
    index i * n + j of each node (i/n, j/n), n the resolution, and
    `lengths` the size of its orbit under x -> A x mod n. The certified
    periodic point of every node is the node itself, at the one gap `gap`.

    To readers of `Certificate.demos` it is a sequence of CycleDemos: len()
    counts nodes, indexing and iteration build CycleDemo views, a slice is
    a tuple of them, and records with equal values are equal. The arrays
    are copied on construction and cannot be written."""

    resolution: int
    indices: np.ndarray
    lengths: np.ndarray
    gap: float = 0.0

    def __post_init__(self):
        for name in ("indices", "lengths"):
            values = np.array(getattr(self, name))
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if type(self.resolution) is not int or self.resolution < 1:
            raise ValueError("The lattice resolution must be a positive int.")
        if self.indices.ndim != 1 or self.indices.shape != self.lengths.shape:
            raise ValueError("Give one lattice index and one cycle length per node.")

    def _view(self, index, length):
        i, j = divmod(index, self.resolution)
        node = (i / self.resolution, j / self.resolution)
        return CycleDemo(node=node, cycle_length=length, traced=node, gap=self.gap)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._view, self.indices[k].tolist(),
                             self.lengths[k].tolist()))
        k = range(len(self))[operator.index(k)]
        return self._view(self.indices[k].item(), self.lengths[k].item())

    def __iter__(self):
        return map(self._view, self.indices.tolist(), self.lengths.tolist())

    def __eq__(self, other):
        if not isinstance(other, LatticeCycles):
            return NotImplemented
        return (self.resolution == other.resolution and self.gap == other.gap
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.lengths, other.lengths))


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Self-contained evidence for one basic-set property.

    mode picks the re-verification routine:
      symbolic        walks are symbol sequences checked against transitions
      metric-walk     walks are closed D-chains of points, traced to exact
                      periodic orbits
      exact-orbit     the metric-walk routine on a finite system, whose D is
                      the diagonal, so walks are true orbits; density demos
                      must first return after cycle_length steps
      lattice-cycle   density on the torus grid, re-proved in integers on
                      arrays: the demos are a `LatticeCycles` record (or a
                      tuple of CycleDemos, read into the same arrays), whose
                      lattice indices x must be those of the component's
                      nodes (i/n, j/n) and whose cycle length k must be the
                      exact order of x, A^k x = x mod n and A^(k/p) x != x
                      for every prime p dividing k, one power A^e mod n by
                      squaring per distinct k; no float orbit is iterated
    """

    kind: str
    mode: str
    component: tuple
    demos: tuple
    entourage: object = None
    chain_entourage: object = None
    params: dict = field(default_factory=dict)
    note: str = ""

    def revalidate(self, system):
        """Re-check every demo from scratch; returns failure strings."""
        routine = _REVALIDATE.get(self.mode)
        if routine is None:
            return [f"unknown certificate mode {self.mode!r}"]
        # a demo of the wrong type ends the check: the routines read fields
        # that only the right type has, and count with int cycle lengths
        if self.kind == "transitivity":
            if not all(isinstance(d, WalkDemo) for d in self.demos):
                return ["a transitivity demo is not a walk"]
        elif isinstance(self.demos, LatticeCycles):
            if not _int_array(self.demos.lengths):
                return ["a density demo's cycle length is not an int"]
            if not _int_array(self.demos.indices):
                return ["a density demo's node is not a lattice index"]
        elif not all(isinstance(d, CycleDemo) for d in self.demos):
            return ["a density demo is not a cycle demo"]
        elif not all(type(d.cycle_length) is int for d in self.demos):
            return ["a density demo's cycle length is not an int"]
        return self._binding_failures() + routine(self, system)

    def _binding_failures(self):
        """The demos must be evidence about `component`: at least one walk,
        each from and to a member, for transitivity; one density demo per
        member, each member once, for periodic density. The lattice-cycle
        routine binds its density arrays itself, as it reads them anyway."""
        comp, demos = self.component, self.demos
        if self.kind == "transitivity":
            if not demos:
                return ["no walk demo"]
            ends = {d.x for d in demos} | {d.y for d in demos}
            if len(ends.intersection(comp)) != len(ends):
                return ["a walk starts or aims outside the component"]
            return []
        if self.mode == "lattice-cycle":
            return []
        if len(demos) != len(comp) or (
                any(d.node != c for d, c in zip(demos, comp))
                and {d.node for d in demos} != set(comp)):
            return ["density demos do not cover the component once each"]
        return []


def _walk_failure(demo, step, where):
    """Why demo.walk is not a closed walk through demo.x that visits demo.y
    at demo.y_pos, each step (a, b) accepted by step(a, b); None when it
    is one."""
    walk = demo.walk
    if len(walk) < 2 or walk[0] != demo.x or walk[-1] != demo.x:
        return f"walk at {where} is not closed"
    if not (type(demo.y_pos) is int and 0 <= demo.y_pos < len(walk)
            and walk[demo.y_pos] == demo.y):
        return f"walk at {where} misses its target"
    if not all(step(a, b) for a, b in zip(walk, walk[1:])):
        return f"walk at {where} takes a step outside the chain relation"
    return None


def _revalidate_symbolic(cert, system):
    bad = []
    comp = set(cert.component)
    # strong connectivity, recomputed from the transition matrix alone
    if cert.kind == "transitivity" and not _symbols_strongly_connected(system, comp):
        bad.append("component symbols are not mutually reachable")
    for demo in cert.demos:
        if cert.kind == "transitivity":
            failure = _walk_failure(demo, system.allowed, demo.x)
            if failure:
                bad.append(failure)
                continue
            p = demo.traced
            if p != system.periodic_point(demo.walk[:-1]):
                bad.append(f"traced point for {demo.x} does not match its walk")
            if p.symbol_at(0) != demo.x:
                bad.append(f"traced point is outside the cylinder of {demo.x}")
            if p.symbol_at(demo.y_pos) != demo.y:
                bad.append(f"traced orbit misses the cylinder of {demo.y}")
        else:
            p = demo.traced
            block = tuple(p.symbol_at(i) for i in range(demo.cycle_length))
            try:
                rebuilt = system.periodic_point(block)
            except ValueError:
                bad.append(f"cycle word at {demo.node} is not admissible")
                continue
            if p != rebuilt:
                bad.append(f"cycle point at {demo.node} is not periodic")
            if p.symbol_at(0) != demo.node:
                bad.append(f"cycle point is outside the cylinder of {demo.node}")
            rep = system.representative_point(demo.node)
            if sft_metric(p, rep) > demo.gap + 1e-15:
                bad.append(f"gap at {demo.node} is larger than recorded")
    return bad


def _revalidate_metric(cert, system):
    """Closed D-chains traced to exact periodic orbits within their gap.
    A finite system's D is the diagonal, so its walks are orbits, traced to
    themselves; its density demos must first return after cycle_length
    steps, by `FiniteSystem.orbit_period` rather than the graph search."""
    bad = []
    if cert.kind != "transitivity":
        for demo in cert.demos:
            if demo.node not in system.points:
                bad.append(f"{demo.node} is not a point of the system")
            elif system.orbit_period(demo.node) != demo.cycle_length:
                bad.append(f"{demo.node} does not first return in "
                           f"{demo.cycle_length} steps")
            if demo.traced != demo.node:
                bad.append(f"certified point at {demo.node} is not the node itself")
        return bad
    D = cert.chain_entourage
    E = cert.entourage
    # strong connectivity, from a graph built afresh by the float
    # predicate of D and not from the integer offsets that built the ladder
    if not build_chain_graph(system, cert.component, D).is_strongly_connected():
        bad.append("component is not strongly connected under D")
    chained = lambda a, b: D.accepts(system.forward(a), b)
    for demo in cert.demos:
        walk, orbit = demo.walk, demo.traced
        where = system.point_to_text(demo.x)
        failure = _walk_failure(demo, chained, where)
        if failure:
            bad.append(failure)
        elif len(orbit) != demo.period or demo.period != len(walk) - 1:
            bad.append(f"orbit at {where} has the wrong length")
        elif any(system.forward(orbit[k]) != orbit[(k + 1) % demo.period]
                 for k in range(demo.period)):
            bad.append(f"stored loop at {where} is not an orbit")
        # a Fraction minus a float is a float, so these are float distances
        elif any(system.metric(orbit[k], walk[k]) > demo.gap + 1e-12
                 for k in range(demo.period)):
            bad.append(f"traced orbit at {where} strays past its gap")
        elif E is not None and not E.accepts(demo.x, orbit[0]):
            bad.append(f"traced point at {where} leaves E[x]")
        elif E is not None and not E.accepts(demo.y,
                                             orbit[demo.y_pos % demo.period]):
            bad.append(f"orbit visit at {where} leaves E[y]")
    return bad


def _lattice_index(points, n):
    """Lattice indices i * n + j of points stored as the doubles (i/n, j/n),
    as an int64 array with -1 for every point that is not exactly such a
    pair of Python floats with 0 <= i, j < n; a point off the lattice by one
    ulp gets -1. The per-point type mask is built only when the type gate
    `_float_pairs` fails."""
    m = len(points)
    if type(n) is not int or n < 1:
        return np.full(m, -1, dtype=np.int64)
    if _float_pairs(points):
        pts = _pair_array(points)
    else:
        pts = np.array([p if type(p) is tuple and len(p) == 2
                        and type(p[0]) is float and type(p[1]) is float
                        else (math.nan, math.nan) for p in points],
                       dtype=float).reshape(m, 2)
    with np.errstate(invalid="ignore"):
        scaled = np.rint(pts * n)
        on = ((scaled >= 0) & (scaled < n)).all(axis=1)
    idx = np.where(on[:, None], scaled, 0).astype(np.int64)
    on &= (idx / n == pts).all(axis=1)
    return np.where(on, idx[:, 0] * n + idx[:, 1], -1)


def _int_array(values):
    """Whether an array holds integers: an int dtype, and not bool."""
    return values.dtype.kind in "iu"


def _prime_factors(k):
    """The distinct primes dividing the positive int k, by trial division."""
    primes, p = [], 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return primes + [k] if k > 1 else primes


def _first_return_is(system, n, index, k):
    """For each lattice index, whether its orbit under the lattice
    permutation first closes after exactly k >= 1 steps: A^k x = x and
    A^(k/p) x != x for every prime p dividing k. The order of x divides k
    by the first test, and no k/p by the others, so it is k."""
    i, j = np.divmod(index, n)

    def fixed(e):
        fi, fj = _lattice_map(system, n, e)(i, j)
        return (fi == i) & (fj == j)

    ok = fixed(k)
    for p in _prime_factors(k):
        ok &= ~fixed(k // p)
    return ok


def _lattice_arrays(demos, n, radius):
    """The density evidence as arrays: each demo's lattice index (-1 off the
    lattice or out of range), its cycle length (0 outside 1..n * n), and
    masks of the demos whose certified point is not their node and whose
    gap exceeds the radius. A record at resolution n is read as it is; any
    other demos are read node by node."""
    top = n * n
    if isinstance(demos, LatticeCycles) and demos.resolution == n:
        index, length = demos.indices, demos.lengths
        strays = np.zeros(len(demos), dtype=bool)
        wide = np.full(len(demos), not demos.gap <= radius)
    else:
        index = _lattice_index([d.node for d in demos], n)
        length = np.fromiter((d.cycle_length if 1 <= d.cycle_length <= top
                              else 0 for d in demos), dtype=np.int64,
                             count=len(demos))
        strays = np.fromiter((d.traced != d.node for d in demos), dtype=bool,
                             count=len(demos))
        wide = np.fromiter((not d.gap <= radius for d in demos), dtype=bool,
                           count=len(demos))
    # int64 first: an unsigned value past the int64 range turns negative,
    # and so out of range, instead of failing to mix with -1
    index, length = index.astype(np.int64), length.astype(np.int64)
    index = np.where((index >= 0) & (index < top), index, -1)
    length = np.where((length >= 1) & (length <= top), length, 0)
    return index, length, strays, wide


def _revalidate_lattice(cert, system):
    """Density on the torus lattice, checked on arrays: one entry per
    component node with that node's lattice index, each index in
    0..n * n - 1, and each cycle length the exact order of its index. Only
    the entries that fail are read back as demos, for their messages."""
    n = cert.params["resolution"]
    if type(n) is not int or n < 1:
        return [f"grid resolution {n!r} is not a positive integer"]
    demos = cert.demos
    index, length, strays, wide = _lattice_arrays(demos, n, cert.params["radius"])
    bad = []
    members = _lattice_index(cert.component, n)
    if len(index) != len(members) or not (
            np.array_equal(index, members)
            or np.array_equal(np.sort(index), np.sort(members))):
        bad.append("density demos do not cover the component once each")
    # an integer matrix of determinant +-1 permutes the n x n lattice, so no
    # orbit is longer than n * n, and a length outside 1..n * n (read as 0)
    # fails with no arithmetic; the rest take one order test per length
    on = index >= 0
    closes = np.zeros(len(index), dtype=bool)
    for k in (np.flatnonzero(np.bincount(length[on])[1:]) + 1).tolist():
        rows = np.flatnonzero(on & (length == k))
        closes[rows] = _first_return_is(system, n, index[rows], k)
    for r in np.flatnonzero(~closes | strays | wide).tolist():
        demo = demos[r]
        if not on[r]:
            bad.append(f"{demo.node} is not a lattice node (i/{n}, j/{n})")
        elif not closes[r]:
            bad.append(f"lattice orbit of {demo.node} does not close in "
                       f"exactly {demo.cycle_length} steps")
        if strays[r]:
            bad.append(f"certified point at {demo.node} is not the node itself")
        if wide[r]:
            bad.append(f"gap at {demo.node} exceeds the entourage radius")
    return bad


_REVALIDATE = {
    "symbolic": _revalidate_symbolic,
    "metric-walk": _revalidate_metric,
    "exact-orbit": _revalidate_metric,
    "lattice-cycle": _revalidate_lattice,
}


def _symbols_strongly_connected(system, symbols):
    """Whether the symbols are mutually reachable through transitions among
    themselves, from the transition matrix alone."""
    symbols = sorted(set(symbols))
    index = {a: k for k, a in enumerate(symbols)}
    return ChainGraph.from_successors(symbols, (
        [index[w] for w in system.successors(a) if w in index] for a in symbols),
        "symbols").is_strongly_connected()


# ---------------------------------------------------------------------------
# walk search


def _bfs_path(graph, inside, src, dst):
    """Shortest path src -> dst through nodes whose `inside` mask entry is
    set, as an index list; None when unreachable. src == dst asks for a
    shortest closed walk.

    The search runs one level at a time on the CSR arrays. The frontier
    stays in discovery order, and each new node takes as its parent the
    first frontier node whose sorted row holds it, which is the parent a
    first-in first-out queue gives it, so the path is the queue's path.
    That first holder is found without sorting: `np.minimum.at` leaves in
    `first` the least position at which the level reaches each node. The
    level that would reach dst is never expanded: before each expansion,
    dst is settled by the first frontier node among its in-neighbours,
    found once per call from the CSR arrays."""
    if src == dst:
        best = None
        for s in graph.successors(src):
            if s == src:
                return [src, src]
            if not inside[s]:
                continue
            tail = _bfs_path(graph, inside, s, dst)
            if tail is not None and (best is None or len(tail) + 1 < len(best)):
                best = [src] + tail
        return best
    if not inside[dst]:
        return None
    into = np.zeros(graph.node_count, dtype=bool)
    into[np.searchsorted(graph.indptr, np.flatnonzero(graph.indices == dst),
                         "right") - 1] = True
    parent = np.full(graph.node_count, -1, dtype=np.int64)
    parent[src] = src
    unseen = np.iinfo(np.int64).max
    first = np.full(graph.node_count, unseen, dtype=np.int64)
    frontier = np.array([src], dtype=np.int64)
    while frontier.size:
        last = into[frontier]
        if last.any():
            parent[dst] = frontier[np.argmax(last)]
            break
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        reached = graph.indices[_concat_ranges(starts, counts)]
        owner = np.repeat(frontier, counts)
        fresh = inside[reached] & (parent[reached] < 0)
        reached, owner = reached[fresh], owner[fresh]
        at = np.arange(len(reached))
        np.minimum.at(first, reached, at)
        new = first[reached] == at
        first[reached] = unseen
        frontier = reached[new].astype(np.int64)
        parent[frontier] = owner[new]
    if parent[dst] < 0:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def _closed_walk_through(graph, inside, x, y):
    """A closed walk x -> y -> x inside the component, or None."""
    if x == y:
        walk = _bfs_path(graph, inside, x, x)
        return walk, 0 if walk else None
    there = _bfs_path(graph, inside, x, y)
    back = _bfs_path(graph, inside, y, x)
    if there is None or back is None:
        return None, None
    return there + back[1:], len(there) - 1


def _sample_pairs(rng, members, count):
    members = list(members)
    if len(members) == 1:
        return [(members[0], members[0])]
    return [tuple(rng.sample(members, 2)) for _ in range(count)]


# ---------------------------------------------------------------------------
# transitivity certificates


def transitivity_certificate(graph, component, system, E, D=None, seed=0,
                             pairs=8):
    """Evidence that the restriction of f to one chain component is
    topologically transitive: for sampled node pairs (x, y), a closed
    D-chain through x visiting y is traced to a periodic point p with
    p in E[x] and the y-visit landing in E[y].

    `component` is a set of node indices of `graph`. Shift systems run the
    symbol route, where walks are words and traced points are exact.
    """
    component = sorted(component)
    if not component:
        raise ValueError("The component is empty.")
    labels = graph.component_labels()
    inside = labels == labels[component[0]]
    if inside.sum() != len(component) or not inside[component].all():
        raise ValueError("The nodes do not form one strongly connected "
                         "component of the graph.")
    rng = random.Random(seed)
    symbolic = isinstance(system, ShiftOfFiniteType)
    show = str if symbolic else system.point_to_text
    demos = []
    for xi, yi in _sample_pairs(rng, component, pairs):
        x, y = graph.nodes[xi], graph.nodes[yi]
        walk_idx, y_pos = _closed_walk_through(graph, inside, xi, yi)
        if walk_idx is None:
            raise CertificateError(
                f"No closed walk through {show(x)} and {show(y)}.")
        walk = tuple(graph.nodes[i] for i in walk_idx)
        if symbolic:
            traced = system.periodic_point(walk[:-1])
            gap = sft_metric(traced, system.representative_point(x))
        else:
            traced, gap = _trace_periodic_walk(system, walk)
        demos.append(WalkDemo(x=x, y=y, walk=walk, y_pos=y_pos, traced=traced,
                              period=len(walk) - 1, gap=gap))
    return Certificate(
        kind="transitivity",
        mode="symbolic" if symbolic else "exact-orbit"
        if isinstance(system, FiniteSystem) else "metric-walk",
        component=tuple(graph.nodes[i] for i in component), demos=tuple(demos),
        entourage=E, chain_entourage=D,
        note="walks are admissible words; periodic points are exact"
        if symbolic else "")


def _trace_periodic_walk(system, walk):
    """Close the walk into a periodic pseudo-orbit and trace it, returning
    (orbit, gap). A walk with zero defect is a true periodic orbit and
    traces to itself; otherwise the rational tracer runs, so the orbit is
    exactly periodic."""
    pseudo = PseudoOrbit.measured(system, walk[:-1], PERIODIC)
    if pseudo.defect_bound == 0.0:
        return pseudo.window, 0.0
    result = trace_linear_hyperbolic(system, pseudo, exact=True)
    return result.traced_orbit, result.error_bound


# ---------------------------------------------------------------------------
# periodic density certificates


def periodic_density_certificate(system, recurrent_nodes, radii, graph=None,
                                 resolution=None):
    """Evidence that periodic points are dense in the recurrent node set:
    every node receives a verified periodic point inside its entourage ball
    at every ladder radius.

    On the torus grid the periodic point is the node itself, proved by
    integer lattice arithmetic (the lattice is f-invariant and f permutes
    it), so the gap is zero at every radius. Shift and finite systems take
    the shortest cycle through the node in their exact `graph`: an
    admissible word, or on the diagonal graph of a finite map the node's
    own orbit.
    """
    radii = tuple(radii)
    if isinstance(system, TorusAutomorphism):
        if resolution is None:
            raise ValueError("The lattice route needs the grid resolution.")
        nodes = tuple(recurrent_nodes)
        return Certificate(
            kind="periodic-density", mode="lattice-cycle", component=nodes,
            demos=_lattice_cycles(system, nodes, resolution),
            params={"resolution": resolution, "radius": min(radii)},
            note="grid nodes are rational, hence exactly periodic; the "
                 "certified periodic point of each node is the node itself",
        )
    if isinstance(system, (ShiftOfFiniteType, FiniteSystem)):
        # the shortest cycle through a node of an exact graph; on the
        # diagonal graph of a finite map it is the node's orbit
        if graph is None:
            raise ValueError("The exact route needs the chain graph.")
        symbolic = isinstance(system, ShiftOfFiniteType)
        everywhere = np.ones(graph.node_count, dtype=bool)
        pos = {s: i for i, s in enumerate(graph.nodes)}
        demos = []
        for a in recurrent_nodes:
            walk_idx = _bfs_path(graph, everywhere, pos[a], pos[a])
            if walk_idx is None:
                raise CertificateError(f"Recurrent node {a} has no cycle; "
                                       "internal inconsistency.")
            block = tuple(graph.nodes[i] for i in walk_idx[:-1])
            if symbolic:
                p = system.periodic_point(block)
                gap = sft_metric(p, system.representative_point(a))
            else:
                p, gap = a, 0.0
            demos.append(CycleDemo(node=a, cycle_length=len(block), traced=p,
                                   gap=gap))
        return Certificate(
            kind="periodic-density",
            mode="symbolic" if symbolic else "exact-orbit",
            component=tuple(recurrent_nodes), demos=tuple(demos),
            params={"radii": radii},
        )
    raise TypeError(f"No periodic tracing oracle for {system.name!r}.")


def _lattice_cycles(system, nodes, n):
    """The density record of lattice nodes: the lattice index of each node
    and the size of its orbit under the lattice permutation x -> A x mod n."""
    index = _lattice_index(nodes, n)
    if (index < 0).any():
        raise ValueError(f"The lattice route needs nodes (i/{n}, j/{n}).")
    fi, fj = _lattice_map(system, n)(*np.divmod(np.arange(n * n), n))
    labels = _orbit_labels(fi * n + fj)
    return LatticeCycles(n, index, np.bincount(labels)[labels][index])


# ---------------------------------------------------------------------------
# the decomposition


@dataclass(frozen=True)
class BasicSet:
    ident: int
    nodes: tuple
    transitivity: Certificate
    periodic_density: Certificate

    @property
    def size(self):
        return len(self.nodes)


@dataclass(frozen=True)
class SpectralDecomposition:
    system_name: str
    family: str
    resolution: object
    ladder: tuple
    seed: int
    basic_sets: tuple
    recurrent_nodes: tuple
    stabilization_index: object
    history: tuple
    finite_flag: bool
    exact: bool
    note: str = ""

    @property
    def component_count(self):
        return len(self.basic_sets)

    def validate(self, system):
        """Partition, invariance, and certificate checks; failure strings."""
        bad = []
        all_nodes = []
        for bs in self.basic_sets:
            all_nodes.extend(bs.nodes)
        distinct = set(all_nodes)
        if len(distinct) != len(all_nodes):
            bad.append("basic sets overlap")
        if distinct != set(self.recurrent_nodes):
            bad.append("basic sets do not cover the recurrent node set")
        bad.extend(self._invariance_failures(system))
        for bs in self.basic_sets:
            for cert in (bs.transitivity, bs.periodic_density):
                if cert.component != bs.nodes:
                    bad.append(f"basic set {bs.ident} [{cert.kind}]: "
                               "certificate is for another node set")
                for msg in cert.revalidate(system):
                    bad.append(f"basic set {bs.ident} [{cert.kind}]: {msg}")
        return bad

    def _invariance_failures(self, system):
        bad = []
        for bs in self.basic_sets:
            if self.family == "symbolic":
                members = set(bs.nodes)
                for a in bs.nodes:
                    if not any(b in members for b in system.successors(a)):
                        bad.append(f"symbol {a} has no successor inside its "
                                   f"basic set {bs.ident}")
            elif self.family == "finite":
                members = set(bs.nodes)
                for x in bs.nodes:
                    if system.forward(x) not in members:
                        bad.append(f"image of {x} leaves basic set {bs.ident}")
            else:
                bad.extend(self._torus_invariance_failures(system, bs))
        return bad

    def _torus_invariance_failures(self, system, bs):
        """Lattice nodes are mapped by the integer matrix and looked up in a
        mask of the basic set's cells. Lattice cells are one cell apart, so
        for a lattice node this is the float test "f(x) lies within half a
        cell diagonal of a member", made exact. Members off the lattice can
        still be near the float image, so a node that misses the mask is
        measured against them in floats; a node off the lattice is measured
        against every member, as before."""
        n = self.resolution
        tol = (1.0 / n) * math.sqrt(2.0) / 2.0 + 1e-12
        index = _lattice_index(bs.nodes, n)
        on = index >= 0
        hit = np.zeros(len(bs.nodes), dtype=bool)
        if on.any():
            i, j = np.divmod(index[on], n)
            inside = np.zeros((n, n), dtype=bool)
            inside[i, j] = True
            hit[on] = inside[_lattice_map(system, n)(i, j)]
        if hit.all():
            return []
        off = {x for x, flag in zip(bs.nodes, on.tolist()) if not flag}
        every = set(bs.nodes)
        bad = []
        for k in np.flatnonzero(~hit).tolist():
            x = bs.nodes[k]
            pool = every if x in off else off
            fx = system.forward(x)
            if fx in pool:
                continue
            if min((system.metric(fx, y) for y in pool), default=math.inf) > tol:
                bad.append(f"image of {system.point_to_text(x)} is more than "
                           f"one grid cell from basic set {bs.ident}")
        return bad

    def to_report(self):
        limited = (not self.exact) and self.stabilization_index is None
        rep = Report(
            operation="spectral-decomposition",
            system=self.system_name,
            family=self.family,
            resolution=self.resolution if self.resolution else "exact",
            ladder=" ".join(str(r) for r in self.ladder),
            seed=self.seed,
            basic_sets=len(self.basic_sets),
            recurrent_nodes=len(self.recurrent_nodes),
            stabilization_index=(self.stabilization_index
                                 if self.stabilization_index is not None
                                 else "none"),
            finite=self.finite_flag,
            exact=self.exact,
            verdict=RESOLUTION_LIMITED if limited else PASS,
            note=self.note or NONCOMPACT_NOTE,
        )
        rep.add_table(
            "basic-sets",
            ["id", "size", "walk_demos", "density_max_gap"],
            [[bs.ident, bs.size, len(bs.transitivity.demos),
              _max_gap(bs.periodic_density.demos)]
             for bs in self.basic_sets],
        )
        rep.add_table(
            "ladder-history",
            ["step", "entourage", "recurrent", "components"],
            [[k, str(self.ladder[k]), r, c]
             for k, (r, c) in enumerate(self.history)],
        )
        return rep


def _max_gap(demos):
    """The largest density gap; a lattice record has one gap for all."""
    if isinstance(demos, LatticeCycles):
        return demos.gap if len(demos) else 0.0
    return max((d.gap for d in demos), default=0.0)


def spectral_decompose(system, resolution=64, ladder=None, seed=0, pairs=8):
    """Decompose the recurrent set of a supported system into certified
    basic sets. Each family gives a ladder of chain graphs with its radii
    and its entourages E and D: shift and finite systems one exact graph
    (the symbol graph, the diagonal graph), stable at step 0; torus
    automorphisms a grid ladder at the given resolution, with ladder the
    coarsest entourage radius (default 4 grid cells), halved twice. The
    ladder is cut at its stabilization step, and each cell there becomes
    a basic set with certificates of `pairs` walks (four on finite
    systems) and one density demo per node. Exact basic sets come in
    order of their least node; torus ones the largest first.
    """
    if pairs < 1:
        raise ValueError("A transitivity certificate needs pairs >= 1.")
    n, walks, note = None, pairs, ""
    if isinstance(system, ShiftOfFiniteType):
        family, graphs, radii = "symbolic", [symbol_graph_chain(system)], (1.0,)
        entourages = lambda r: (None, None)
        note = ("basic sets are the cycle-containing SCCs of the symbol graph, "
                "computed exactly; the count is the true number of basic sets")
    elif isinstance(system, TorusAutomorphism):
        n = resolution
        r0 = ladder if ladder is not None else 4.0 * (1.0 / n)
        radii = (r0, r0 / 2.0, r0 / 4.0)
        family, graphs = "torus-grid", [torus_grid_graph(system, n, r) for r in radii]
        entourages = lambda r: (
            metric_ball(system, system.tracing_coefficient() * r + 1e-12),
            metric_ball(system, r))
    elif isinstance(system, FiniteSystem):
        points = tuple(system.points)
        D = finite_relation({(x, x) for x in points}, space_id=system.space_id,
                            points=points)
        family, radii, walks = "finite", (0.5,), 4
        graphs = [build_chain_graph(system, points, D, entourage_id="diagonal")]
        entourages = lambda r: (None, D)
    else:
        raise TypeError(
            f"No chain-graph discretization is available for {system.name!r}; "
            "supported families are shift, torus, and finite systems.")
    exact = n is None
    states, history, stab = _refine_ladder(graphs)
    stab = 0 if len(graphs) == 1 else stab
    # the basic sets come from the ladder cut at its stabilization step;
    # the reported history is the whole ladder's
    step = stab if stab is not None else len(graphs) - 1
    graph = graphs[step]
    E, D = entourages(radii[step])
    groups = _cell_groups(states[step])
    if not exact:
        groups.sort(key=len, reverse=True)
    basic = []
    for ident, group in enumerate(groups):
        comp = group.tolist()
        nodes = tuple(graph.nodes[i] for i in comp)
        trans = transitivity_certificate(graph, comp, system, E=E, D=D,
                                         seed=seed + ident, pairs=walks)
        dens = periodic_density_certificate(system, nodes, radii=radii,
                                            graph=graph, resolution=n)
        basic.append(BasicSet(ident=ident, nodes=nodes, transitivity=trans,
                              periodic_density=dens))
    return SpectralDecomposition(
        system_name=system.name,
        family=family,
        resolution=n,
        ladder=tuple(g.entourage_id for g in graphs) if exact else radii,
        seed=seed,
        basic_sets=tuple(basic),
        recurrent_nodes=tuple(sorted(
            itertools.compress(graph.nodes, states[step][0].tolist()))),
        stabilization_index=stab,
        history=tuple(history),
        finite_flag=True,
        exact=exact,
        note=note,
    )


def symbol_graph_chain(system):
    """The transition graph of a shift system packaged as a ChainGraph with
    symbols for nodes."""
    nodes = tuple(range(system.size))
    return ChainGraph.from_successors(
        nodes, (system.successors(a) for a in nodes), "symbol-transitions")
