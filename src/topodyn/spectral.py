"""Spectral decomposition of the recurrent set into certified basic sets.

The pipeline partitions chain-recurrent nodes into chain components and
attaches two certificates to each: transitivity (closed chains through
sampled node pairs, traced to periodic points that visit both cross-
sections) and periodic density (every recurrent node receives a verified
periodic point inside its entourage ball). Certificates are self-contained:
they carry the nodes, walks, and parameters needed to re-verify from
scratch, with no reference to cached graph state.

Three system families are supported. Shift spaces decompose exactly at the
symbol level, where basic sets are the cycle-containing strongly connected
components of the transition graph and the component count is exact. Torus
automorphisms decompose on an n x n lattice over a shrinking entourage
ladder, and the reported partition is the stabilized one, with the full
ladder history retained. Finite systems decompose exactly with a
diagonal-only entourage. Decompositions on compact spaces are finite by
construction here; unboundedly many basic sets can only arise on noncompact
spaces, which have no grid discretization at desk scale, and reports say so.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .chains import (ChainGraph, _component_set, _concat_ranges, _lattice_map,
                     _orbit_labels, _refine_ladder, build_chain_graph, is_chain,
                     torus_grid_graph)
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
    rate_u^period. Lattice density demos (`CycleDemo`) avoid float orbits
    the same way: their re-check is in integers.
    """

    x: object
    y: object
    walk: tuple
    y_pos: int
    traced: object
    period: int
    gap: float


@dataclass(frozen=True)
class CycleDemo:
    """A periodic point certified inside the entourage ball of one node."""

    node: object
    cycle_length: int
    traced: object
    gap: float


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Self-contained evidence for one basic-set property.

    mode picks the re-verification routine:
      symbolic        walks are symbol sequences checked against transitions
      metric-walk     walks are point sequences checked with is_chain + trace
      exact-orbit     walks are true orbits of a finite system
      lattice-cycle   density on the torus grid, re-proved in integers: each
                      node must be exactly the double (i/n, j/n) of a lattice
                      index, and its integer orbit must first close after
                      cycle_length steps; no float orbit is iterated
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
        return self._binding_failures() + routine(self, system)

    def _binding_failures(self):
        """The demos must be evidence about `component`: at least one walk,
        each from and to a member, for transitivity; one density demo per
        member, each member once, for periodic density."""
        comp, demos = self.component, self.demos
        if self.kind == "transitivity":
            if not demos:
                return ["no walk demo"]
            if not all(isinstance(d, WalkDemo) for d in demos):
                return ["a transitivity demo is not a walk"]
            ends = {d.x for d in demos} | {d.y for d in demos}
            if len(ends.intersection(comp)) != len(ends):
                return ["a walk starts or aims outside the component"]
            return []
        if not all(isinstance(d, CycleDemo) for d in demos):
            return ["a density demo is not a cycle demo"]
        if len(demos) != len(comp) or (
                any(d.node != c for d, c in zip(demos, comp))
                and {d.node for d in demos} != set(comp)):
            return ["density demos do not cover the component once each"]
        return []


def _revalidate_symbolic(cert, system):
    bad = []
    comp = set(cert.component)
    # strong connectivity, recomputed from the transition matrix alone
    if cert.kind == "transitivity" and not _symbols_strongly_connected(system, comp):
        bad.append("component symbols are not mutually reachable")
    for demo in cert.demos:
        if isinstance(demo, WalkDemo):
            walk = demo.walk
            if walk[0] != demo.x or walk[-1] != demo.x:
                bad.append(f"walk through {demo.x} is not closed")
                continue
            if walk[demo.y_pos] != demo.y:
                bad.append(f"walk misses {demo.y} at position {demo.y_pos}")
                continue
            if any(not system.allowed(a, b) for a, b in zip(walk, walk[1:])):
                bad.append(f"walk through {demo.x} uses a forbidden transition")
                continue
            p = demo.traced
            if p != system.periodic_point(walk[:-1]):
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


def _float_point(z):
    return (float(z[0]), float(z[1]))


def _revalidate_metric(cert, system):
    bad = []
    D = cert.chain_entourage
    E = cert.entourage
    # strong connectivity, from a graph built afresh by the float
    # predicate of D and not from the integer offsets that built the ladder
    if cert.kind == "transitivity":
        sub = build_chain_graph(system, cert.component, D)
        if not sub.is_strongly_connected():
            bad.append("component is not strongly connected under D")
    for demo in cert.demos:
        walk = demo.walk
        where = system.point_to_text(demo.x)
        if walk[0] != demo.x or walk[-1] != demo.x:
            bad.append(f"walk at {where} is not closed")
            continue
        if walk[demo.y_pos] != demo.y:
            bad.append(f"walk at {where} misses its target")
            continue
        if not is_chain(system, walk, D):
            bad.append(f"walk at {where} is not a D-chain")
            continue
        orbit = demo.traced
        if len(orbit) != demo.period:
            bad.append(f"orbit at {where} has the wrong length")
            continue
        # rational coordinates make this an exact periodicity proof
        if any(system.forward(orbit[k]) != orbit[(k + 1) % demo.period]
               for k in range(demo.period)):
            bad.append(f"stored loop at {where} is not an orbit")
            continue
        shown = [_float_point(z) for z in orbit]
        if any(system.metric(shown[k], walk[k]) > demo.gap + 1e-12
               for k in range(demo.period)):
            bad.append(f"traced orbit at {where} strays past its gap")
        elif E is not None:
            if not E.accepts(demo.x, shown[0]):
                bad.append(f"traced point at {where} leaves E[x]")
            elif not E.accepts(demo.y, shown[demo.y_pos]):
                bad.append(f"orbit visit at {where} leaves E[y]")
    return bad


def _revalidate_exact_orbit(cert, system):
    bad = []
    for demo in cert.demos:
        walk = demo.walk if isinstance(demo, WalkDemo) else None
        if walk is not None:
            z = demo.x
            for w in walk[1:]:
                z = system.forward(z)
                if z != w:
                    bad.append(f"walk at {demo.x} is not the exact orbit")
                    break
            else:
                if walk[demo.y_pos] != demo.y:
                    bad.append(f"walk at {demo.x} misses its target")
        else:
            z = demo.node
            for _ in range(demo.cycle_length):
                z = system.forward(z)
            if z != demo.node:
                bad.append(f"{demo.node} does not return in {demo.cycle_length}")
    return bad


def _lattice_index(points, n):
    """Lattice coordinates of points stored as the doubles (i/n, j/n).

    Returns an (m, 2) int array of (i, j) and a mask of the points that are
    exactly such a pair of Python floats with 0 <= i, j < n; a point off
    the lattice by one ulp is masked out, and its row means nothing.
    """
    m = len(points)
    if type(n) is not int or n < 1:
        return np.zeros((m, 2), dtype=np.int64), np.zeros(m, dtype=bool)
    typed = [type(p) is tuple and len(p) == 2 and type(p[0]) is float
             and type(p[1]) is float for p in points]
    pts = np.array([p if ok else (math.nan, math.nan)
                    for p, ok in zip(points, typed)], dtype=float).reshape(m, 2)
    with np.errstate(invalid="ignore"):
        scaled = np.rint(pts * n)
        on = ((scaled >= 0) & (scaled < n)).all(axis=1)
    idx = np.where(on[:, None], scaled, 0).astype(np.int64)
    on &= (idx / n == pts).all(axis=1)
    return idx, on


def _first_returns(system, n, idx, limit):
    """For each lattice point, the first k in 1..limit with f^k(point) =
    point, or 0 when there is none. All points step together; those back
    home drop out. (An integer matrix of determinant +-1 permutes the n x n
    lattice, so every point returns within n * n steps.)"""
    step = _lattice_map(system, n)
    first = np.zeros(len(idx), dtype=np.int64)
    pending = np.arange(len(idx))
    i0, j0 = idx[:, 0], idx[:, 1]
    i, j = i0, j0
    k = 0
    while len(pending) and k < limit:
        k += 1
        i, j = step(i, j)
        back = (i == i0) & (j == j0)
        if back.any():
            first[pending[back]] = k
            away = ~back
            pending, i0, j0, i, j = (pending[away], i0[away], j0[away],
                                     i[away], j[away])
    return first


def _revalidate_lattice(cert, system):
    bad = []
    n = cert.params["resolution"]
    radius = cert.params["radius"]
    demos = cert.demos
    if type(n) is not int or n < 1:
        return [f"grid resolution {n!r} is not a positive integer"]
    idx, on = _lattice_index([demo.node for demo in demos], n)
    limit = max((d.cycle_length for d in demos if type(d.cycle_length) is int),
                default=0)
    first = np.zeros(len(demos), dtype=np.int64)
    first[on] = _first_returns(system, n, idx[on], min(limit, n * n))
    for demo, lattice, k in zip(demos, on.tolist(), first.tolist()):
        if not lattice:
            bad.append(f"{demo.node} is not a lattice node (i/{n}, j/{n})")
        elif k == 0 or k != demo.cycle_length:
            bad.append(f"lattice orbit of {demo.node} does not close in "
                       f"exactly {demo.cycle_length} steps")
        if demo.traced != demo.node:
            bad.append(f"certified point at {demo.node} is not the node itself")
        if not demo.gap <= radius:
            bad.append(f"gap at {demo.node} exceeds the entourage radius")
    return bad


_REVALIDATE = {
    "symbolic": _revalidate_symbolic,
    "metric-walk": _revalidate_metric,
    "exact-orbit": _revalidate_exact_orbit,
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
    first-in first-out queue gives it, so the path is the queue's path."""
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
    parent = np.full(graph.node_count, -1, dtype=np.int64)
    parent[src] = src
    frontier = np.array([src], dtype=np.int64)
    while frontier.size and parent[dst] < 0:
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        reached = graph.indices[_concat_ranges(starts, counts)]
        owner = np.repeat(frontier, counts)
        fresh = inside[reached] & (parent[reached] < 0)
        reached, owner = reached[fresh], owner[fresh]
        first = np.sort(np.unique(reached, return_index=True)[1])
        frontier = reached[first].astype(np.int64)
        parent[frontier] = owner[first]
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
    component = tuple(graph.nodes[i] for i in component)
    if symbolic:
        return Certificate(
            kind="transitivity", mode="symbolic", component=component,
            demos=tuple(demos),
            note="walks are admissible words; periodic points are exact")
    return Certificate(
        kind="transitivity",
        mode="exact-orbit" if isinstance(system, FiniteSystem) else "metric-walk",
        component=component, demos=tuple(demos), entourage=E,
        chain_entourage=D)


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
    it), so the gap is zero at every radius. Shift systems use shortest
    admissible cycles; finite systems their exact orbits.
    """
    radii = tuple(radii)
    if isinstance(system, TorusAutomorphism):
        if resolution is None:
            raise ValueError("The lattice route needs the grid resolution.")
        demos = _lattice_cycle_demos(system, recurrent_nodes, resolution)
        return Certificate(
            kind="periodic-density", mode="lattice-cycle",
            component=tuple(recurrent_nodes), demos=tuple(demos),
            params={"resolution": resolution, "radius": min(radii)},
            note="grid nodes are rational, hence exactly periodic; the "
                 "certified periodic point of each node is the node itself",
        )
    if isinstance(system, ShiftOfFiniteType):
        demos = []
        everywhere = np.ones(graph.node_count, dtype=bool)
        pos = {s: i for i, s in enumerate(graph.nodes)}
        for a in recurrent_nodes:
            walk_idx = _bfs_path(graph, everywhere, pos[a], pos[a])
            if walk_idx is None:
                raise CertificateError(f"Recurrent symbol {a} has no cycle; "
                                       "internal inconsistency.")
            block = tuple(graph.nodes[i] for i in walk_idx[:-1])
            p = system.periodic_point(block)
            gap = sft_metric(p, system.representative_point(a))
            demos.append(CycleDemo(node=a, cycle_length=len(block), traced=p,
                                   gap=gap))
        return Certificate(
            kind="periodic-density", mode="symbolic",
            component=tuple(recurrent_nodes), demos=tuple(demos),
            params={"radii": radii},
        )
    if isinstance(system, FiniteSystem):
        demos = []
        for x in recurrent_nodes:
            p = system.orbit_period(x)
            demos.append(CycleDemo(node=x, cycle_length=p, traced=x, gap=0.0))
        return Certificate(
            kind="periodic-density", mode="exact-orbit",
            component=tuple(recurrent_nodes), demos=tuple(demos),
            params={"radii": radii},
        )
    raise TypeError(f"No periodic tracing oracle for {system.name!r}.")


def _lattice_cycle_demos(system, nodes, n):
    """One CycleDemo per lattice node, its cycle length the size of its
    orbit under the lattice permutation x -> A x mod n."""
    fi, fj = _lattice_map(system, n)(*np.divmod(np.arange(n * n), n))
    labels = _orbit_labels(fi * n + fj)
    size = np.bincount(labels)[labels]
    idx = np.rint(np.array(nodes, dtype=float).reshape(-1, 2) * n).astype(np.int64)
    return [CycleDemo(node=node, traced=node, gap=0.0, cycle_length=length)
            for node, length in zip(nodes, size[idx[:, 0] * n + idx[:, 1]].tolist())]


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
        if len(set(all_nodes)) != len(all_nodes):
            bad.append("basic sets overlap")
        if set(all_nodes) != set(self.recurrent_nodes):
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
        idx, on = _lattice_index(bs.nodes, n)
        hit = np.zeros(len(bs.nodes), dtype=bool)
        if on.any():
            inside = np.zeros((n, n), dtype=bool)
            inside[idx[on, 0], idx[on, 1]] = True
            hit[on] = inside[_lattice_map(system, n)(idx[on, 0], idx[on, 1])]
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
              max((d.gap for d in bs.periodic_density.demos), default=0.0)]
             for bs in self.basic_sets],
        )
        rep.add_table(
            "ladder-history",
            ["step", "entourage", "recurrent", "components"],
            [[k, str(self.ladder[k]), r, c]
             for k, (r, c) in enumerate(self.history)],
        )
        return rep


def spectral_decompose(system, resolution=64, ladder=None, seed=0, pairs=8):
    """Decompose the recurrent set of a supported system into certified
    basic sets. Shift and finite systems decompose exactly; torus
    automorphisms run a grid ladder at the given resolution, with ladder
    the coarsest entourage radius (default 4 grid cells), halved twice.
    """
    if isinstance(system, ShiftOfFiniteType):
        return _decompose_sft(system, seed=seed, pairs=pairs)
    if isinstance(system, TorusAutomorphism):
        return _decompose_torus(system, n=resolution, r0=ladder, seed=seed,
                                pairs=pairs)
    if isinstance(system, FiniteSystem):
        return _decompose_finite(system, seed=seed)
    raise TypeError(
        f"No chain-graph discretization is available for {system.name!r}; "
        "supported families are shift, torus, and finite systems."
    )


def symbol_graph_chain(system):
    """The transition graph of a shift system packaged as a ChainGraph with
    symbols for nodes."""
    nodes = tuple(range(system.size))
    return ChainGraph.from_successors(
        nodes, (system.successors(a) for a in nodes), "symbol-transitions")


def _decompose_sft(system, seed, pairs):
    return _decompose_exact(
        system, symbol_graph_chain(system), "symbolic", seed,
        lambda comp: pairs, None, 1.0,
        note="basic sets are the cycle-containing SCCs of the symbol graph, "
             "computed exactly; the count is the true number of basic sets")


def _decompose_exact(system, graph, family, seed, pairs, D, radius, note=""):
    """Basic sets that are the cycle-bearing SCCs of an exact graph, each
    with certificates: walks of `pairs(component)` sampled pairs and one
    density demo per node at the given radius."""
    recurrent = graph.recurrent_indices()
    comps = sorted(sorted(c) for c in graph.scc() if c and set(c) <= recurrent)
    basic = []
    for ident, comp in enumerate(comps):
        nodes = tuple(graph.nodes[i] for i in comp)
        trans = transitivity_certificate(graph, comp, system, E=None, D=D,
                                         seed=seed + ident, pairs=pairs(comp))
        dens = periodic_density_certificate(system, nodes, radii=(radius,),
                                            graph=graph)
        basic.append(BasicSet(ident=ident, nodes=nodes, transitivity=trans,
                              periodic_density=dens))
    return SpectralDecomposition(
        system_name=system.name,
        family=family,
        resolution=None,
        ladder=(graph.entourage_id,),
        seed=seed,
        basic_sets=tuple(basic),
        recurrent_nodes=tuple(sorted(graph.nodes[i] for i in recurrent)),
        stabilization_index=0,
        history=((len(recurrent), len(comps)),),
        finite_flag=True,
        exact=True,
        note=note,
    )


def _decompose_torus(system, n, r0, seed, pairs):
    cell = 1.0 / n
    r0 = r0 if r0 is not None else 4.0 * cell
    radii = (r0, r0 / 2.0, r0 / 4.0)
    graphs = [torus_grid_graph(system, n, r) for r in radii]
    states, history, stab = _refine_ladder(graphs)
    step = stab if stab is not None else len(radii) - 1
    # the basic sets come from the ladder cut at its stabilization step;
    # the reported history is the whole ladder's
    chosen = _component_set(graphs[:step + 1], states[step],
                            history[:step + 1], stab)
    graph = graphs[step]
    delta = radii[step]
    pos = {node: i for i, node in enumerate(graph.nodes)}
    E = metric_ball(system, system.tracing_coefficient() * delta + 1e-12)
    D = metric_ball(system, delta)
    basic = []
    for ident, comp_nodes in enumerate(chosen.components):
        nodes = tuple(sorted(comp_nodes))
        trans = transitivity_certificate(graph, [pos[x] for x in nodes], system,
                                         E=E, D=D, seed=seed + ident, pairs=pairs)
        dens = periodic_density_certificate(system, nodes, radii=radii,
                                            resolution=n)
        basic.append(BasicSet(ident=ident, nodes=nodes, transitivity=trans,
                              periodic_density=dens))
    return SpectralDecomposition(
        system_name=system.name,
        family="torus-grid",
        resolution=n,
        ladder=radii,
        seed=seed,
        basic_sets=tuple(basic),
        recurrent_nodes=tuple(sorted(chosen.recurrent_nodes)),
        stabilization_index=stab,
        history=tuple(history),
        finite_flag=True,
        exact=False,
    )


def _decompose_finite(system, seed):
    points = tuple(system.points)
    D = finite_relation({(x, x) for x in points}, space_id=system.space_id,
                        points=points)
    graph = build_chain_graph(system, points, D, entourage_id="diagonal")
    return _decompose_exact(system, graph, "finite", seed,
                            lambda comp: min(4, len(comp) ** 2), D, 0.5)
