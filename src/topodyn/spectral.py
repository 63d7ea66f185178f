"""Spectral decomposition of the recurrent set into certified basic sets.

The pipeline partitions chain-recurrent nodes into chain components and
attaches two certificates to each, transitivity and periodic density.
They carry what re-verifies from scratch, with no cached graph state, and
each claim has one evidence format and one check (`Certificate`). Every
transitivity certificate carries out- and in-trees that prove its
component strongly connected, which on a shift or a finite map is the
whole proof (`_revalidate_exact`); a shift's density gaps are measured on
the cycles that the trees close (`Certificate.tree_cycle`). On the torus,
transitivity also stores closed chains through sampled node pairs, traced
to periodic points that visit both cross-sections, and density is the
lattice, which x -> A x mod n permutes.

Every fact is stored once, and evidence holds only what its check cannot
rebuild. A decomposition derives `recurrent_nodes` (the sorted union of the
basic sets' nodes), its family and resolution (read off the density
certificates' mode and resolution), `exact`, `note` and the basic-set ids
(positions) from its basic sets; `validate()` binds each metric-walk
radius to the ladder's cut rung, the density certificates to one
resolution, and the history row of the cut rung to the counts of nodes and
basic sets. The other history rows are unchecked diagnostics.

Shift spaces give the transition graph of their symbols, whose
cycle-containing strongly connected components are exactly the basic
sets; finite systems the graph of the diagonal entourage, exact as well;
torus automorphisms an n x n lattice over a shrinking entourage ladder, cut
where the partition stabilizes. Every discretized space is compact, so
decompositions are finite here, and reports say so.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .chains import (ChainGraph, _array_ball, _bfs_levels, _bfs_tree,
                     _cell_groups, _float_pairs, _lattice_map, _pair_array,
                     _refine_ladder, _torus_distances, torus_grid_graph)
from .entourage import metric_ball
from .report import PASS, RESOLUTION_LIMITED, Report
from .shadowing import PERIODIC, PseudoOrbit, trace_linear_hyperbolic
from .systems import (FiniteSystem, LinearSaddle, ShiftOfFiniteType,
                      TorusAutomorphism, sft_metric)

# the family that spectral_decompose reports, by the system's density mode
_FAMILIES = {"symbolic": "symbolic", "exact-orbit": "finite",
             "lattice-cycle": "torus-grid"}

SHIFT_NOTE = ("basic sets are the cycle-containing SCCs of the symbol graph, "
              "computed exactly; the count is the true number of basic sets")
NONCOMPACT_NOTE = (
    "decompositions here are finite because every discretized space is "
    "compact; infinitely many basic sets would need a noncompact space, "
    "which has no desk-scale grid"
)


# ---------------------------------------------------------------------------
# certificate evidence records


@dataclass(frozen=True)
class TracedWalk:
    """A closed metric D-chain from x = walk[0] back to x, of period
    len(walk) - 1, through its target y = walk[y_pos], with the periodic
    orbit it was traced to, one point per walk step, in rational
    coordinates, so periodicity is exact and a re-check steps through it
    rather than iterating the float map, which would amplify rounding by
    rate_u^period."""

    walk: tuple
    y_pos: int
    traced: tuple


@dataclass(frozen=True, eq=False)
class ConnectivityWitness:
    """Evidence that a component C is strongly connected under D: an
    out-tree and an in-tree spanning C from its root, position 0, as
    read-only copies of parent and level arrays of positions into C. The
    out-tree edge of k is the D-step C[parent[k]] -> C[k], so the root
    reaches every node, and the in-tree edge is C[k] -> C[parent[k]], so
    every node reaches the root."""

    out_parent: np.ndarray
    out_level: np.ndarray
    in_parent: np.ndarray
    in_level: np.ndarray

    def __post_init__(self):
        for name in ("out_parent", "out_level", "in_parent", "in_level"):
            values = np.array(getattr(self, name))
            values.flags.writeable = False
            object.__setattr__(self, name, values)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Self-contained evidence for one basic-set property.

    mode picks the re-verification routine, and `_mode_for` fixes the one
    mode of each system family and kind:
      symbolic        shifts, proven by the witness trees, whose steps are
                      transitions; no demos are stored (`_revalidate_exact`)
      exact-orbit     the same on finite systems, whose step is f(a) == b
      metric-walk     transitivity demos are `TracedWalk` D-chains of
                      points, traced to exact periodic orbits that start in
                      E[x] and visit E[y]; D and E are built from the stored
                      `radius`, E as the ball of the tracing coefficient
                      times it
      lattice-cycle   density on the torus grid at `resolution` n, with no
                      demos: x -> A x mod n permutes the lattice, so every
                      node is its own periodic point, and the check runs in
                      lattice integers (`_revalidate_lattice`)
    Only metric-walk certificates store demos and a chain `radius`, a
    positive number, only transitivity ones a `witness`, a
    `ConnectivityWitness` whose 2(|C| - 1) tree edges are each re-tested by
    the step relation (`_chain_step`), and only lattice-cycle ones a
    `resolution`: an int n >= 1 with n * n in the int32 range, as
    `torus_grid_graph` builds. Each density check makes every node step
    into the component, so the density certificate proves that the
    component is invariant.
    """

    kind: str
    mode: str
    component: tuple
    demos: tuple
    radius: object = None
    witness: object = None
    resolution: object = None

    def revalidate(self, system):
        """Re-check the evidence from scratch; returns failure strings."""
        mode = _mode_for(system, self.kind)
        if mode is None or self.mode != mode:
            return [f"certificate mode {self.mode!r} does not fit "
                    f"{self.kind} evidence on {system.name}"]
        failure = self._evidence_failure()
        return [failure] if failure else _REVALIDATE[mode](self, system)

    def tree_cycle(self, k):
        """The cycle that the witness trees close through component node k,
        as one period of nodes from node k: up the in-tree to the root, then
        down the out-tree back to k. The root's goes down the out-tree to
        node 1, then up the in-tree, and a one-node component's is the root
        alone. None when the trees do not lead from node k (node 1 for the
        root) to the root in at most |C| parents within the component."""
        comp, w = self.component, self.witness
        m = len(comp)
        if m == 1:
            return comp
        if not isinstance(w, ConnectivityWitness) or any(
                a.shape != (m,) for a in (w.in_parent, w.out_parent)):
            return None
        j = k or 1
        up, down = _path_to_root(w.in_parent, j), _path_to_root(w.out_parent, j)
        if up is None or down is None:
            return None
        up, down = up[:-1], down[:0:-1]  # j .. up to the root; root .. to j
        return tuple(comp[i] for i in (up + down if k else down + up))

    def _evidence_failure(self):
        """Why the fields are not evidence of the form the routine reads,
        or not about `component`, or None. The routines iterate a tuple
        component and tuple demos, read fields that only the right type has,
        step through tuple orbits, build D and E from the radius and size
        lattice arrays by the resolution. Nodes must hash; only metric walks
        are demos, and there must be one, each a node tuple that starts and
        aims at members; the lattice-cycle routine decodes its nodes
        itself."""
        demos = self.demos
        r, n = self.radius, self.resolution
        lattice, metric = self.mode == "lattice-cycle", self.mode == "metric-walk"
        if type(self.component) is not tuple or not self.component:
            return "the component is not a non-empty tuple of nodes"
        try:  # hashes every node
            hash(() if lattice else self.component)
        except TypeError:
            return "a component node cannot be hashed"
        if not metric and r is not None:
            return f"the {self.mode} mode reads no radius, yet {r!r} is stored"
        if metric and not (_is_number(r) and r > 0):
            return f"the chain radius {r!r} is not a positive number"
        if not lattice and n is not None:
            return f"the {self.mode} mode reads no resolution, yet {n!r} is stored"
        if lattice and not (type(n) is int and 1 <= n
                            and n * n <= np.iinfo(np.int32).max):
            return (f"the lattice resolution {n!r} is not an int n >= 1 with "
                    "n * n in the int32 range")
        if self.kind != "transitivity" and self.witness is not None:
            return "density evidence reads no connectivity witness, yet one is stored"
        if not metric:
            if type(demos) is not tuple or demos:
                return (f"the {self.mode} mode reads no demos, yet a "
                        f"{type(demos).__name__} is stored")
            return None
        if type(demos) is not tuple or not all(type(d) is TracedWalk for d in demos):
            return "a transitivity demo is not a TracedWalk"
        if not demos:
            return "no walk demo"
        if not all(type(d.walk) is tuple and len(d.walk) >= 2
                   and type(d.y_pos) is int and 0 <= d.y_pos < len(d.walk)
                   for d in demos):
            return "a walk is not a node tuple with a target position in it"
        try:
            hash(tuple(d.walk for d in demos))  # hashes every node
        except TypeError:
            return "a walk node cannot be hashed"
        ends = {d.walk[k] for d in demos for k in (0, d.y_pos)}
        if len(ends.intersection(self.component)) != len(ends):
            return "a walk starts or aims outside the component"
        if not all(type(d.traced) is tuple for d in demos):
            return "a traced orbit is not a tuple of points"
        return None


def _path_to_root(parent, k):
    """Positions k, parent[k], ... down to the root, position 0, or None
    when a parent is out of range or the root is not reached in len(parent)
    steps, as when the parents form a cycle."""
    path = [k]
    for _ in range(len(parent)):
        if path[-1] == 0:
            return path
        up = int(parent[path[-1]])
        if not 0 <= up < len(parent):
            return None
        path.append(up)
    return None


def _is_number(value):
    """Whether a recorded radius is a number to compare with: an int or a
    float, not a bool and not NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not math.isnan(value))


def _is_point(system):
    """The test that a node is a point the walk modes may step through
    `system.forward`: on a finite system one of its points, otherwise a
    tuple of two real numbers, neither a bool."""
    if isinstance(system, FiniteSystem):
        return set(system.points).__contains__
    return lambda x: type(x) is tuple and len(x) == 2 and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in x)


def _mode_for(system, kind):
    """The one certificate mode for evidence of `kind` on `system`, or None:
    symbolic on shifts, exact-orbit on finite maps, metric-walk transitivity
    on linear saddles and torus automorphisms, lattice-cycle density on the
    torus."""
    if isinstance(system, ShiftOfFiniteType):
        return "symbolic"
    if isinstance(system, FiniteSystem):
        return "exact-orbit"
    if kind == "transitivity":
        walks = isinstance(system, (LinearSaddle, TorusAutomorphism))
        return "metric-walk" if walks else None
    return "lattice-cycle" if isinstance(system, TorusAutomorphism) else None


def _chain_step(cert, system):
    """The step relation of cert's witness trees and walks: a transition of
    the shift on symbols, f(a) == b on a finite system, otherwise (a, b)
    with f(a) in D[b], D the ball of the certificate's radius."""
    if cert.mode == "symbolic":
        return system.allowed
    if cert.mode == "exact-orbit":
        return lambda a, b: system.forward(a) == b
    D = metric_ball(system, cert.radius)
    return lambda a, b: D.accepts(system.forward(a), b)


def _revalidate_exact(cert, system):
    """Shifts and finite maps, proven by their witness trees: a strongly
    connected component of a shift's symbol graph is an irreducible shift,
    transitive and with a closed walk through every admissible word
    (Lind-Marcus), and one of a permutation is one cycle. Transitivity is
    the witness check; density, and invariance with it, needs every node a
    to step into the component under `_chain_step`: some member among a's
    successors on a shift, so a one-node component needs a loop, and f(a)
    on a finite map. Every symbol must first be an int in 0..size - 1, as a
    negative one would index the transition rows from the end, and every
    finite node a point before f steps it."""
    comp = cert.component
    if cert.mode == "symbolic":
        off = [s for s in comp if type(s) is not int or not 0 <= s < system.size]
        if off:
            return [f"{len(off)} symbols read are outside the alphabet "
                    f"0..{system.size - 1}: the first is {off[0]!r}"]
    elif not all(map(_is_point(system), comp)):
        return ["a component node is not a point of the system"]
    if cert.kind == "transitivity":
        return _witness_failures(cert, system)
    members, symbolic = set(comp), cert.mode == "symbolic"
    stuck = [a for a in comp if members.isdisjoint(
        system.successors(a) if symbolic else (system.forward(a),))]
    show = str if symbolic else system.point_to_text
    return [f"{len(stuck)} nodes do not step into the component: the first "
            f"is {show(stuck[0])}"] if stuck else []


def _revalidate_metric(cert, system):
    """Metric walks: the witness, then each walk a closed D-chain traced to
    an exact periodic orbit (`_orbit_failure`)."""
    bad = _witness_failures(cert, system)
    point = _is_point(system)
    if not all(point(x) for demo in cert.demos
               for x in itertools.chain(demo.walk, demo.traced)):
        return bad + ["a walk or traced orbit holds a node that is not a "
                      "point of the system"]
    chained = _chain_step(cert, system)
    in_E = metric_ball(
        system, system.tracing_coefficient() * cert.radius + 1e-12).accepts
    failures = (_orbit_failure(system, demo, chained, in_E) for demo in cert.demos)
    return bad + [failure for failure in failures if failure]


def _orbit_failure(system, demo, chained, in_E):
    """Why a metric walk, whose shape `Certificate._evidence_failure` has
    checked, is not a closed walk of `chained` steps traced to an exact
    periodic orbit of its period that starts in E[walk[0]] and visits
    E[walk[y_pos]] at y_pos, or None."""
    walk, orbit = demo.walk, demo.traced
    where, period = system.point_to_text(walk[0]), len(walk) - 1
    if walk[0] != walk[-1]:
        return f"walk at {where} is not closed"
    if not all(chained(a, b) for a, b in zip(walk, walk[1:])):
        return f"walk at {where} takes a step outside the chain relation"
    if len(orbit) != period:
        return f"orbit at {where} has the wrong length"
    if any(system.forward(orbit[k]) != orbit[(k + 1) % period]
           for k in range(period)):
        return f"stored loop at {where} is not an orbit"
    if not in_E(walk[0], orbit[0]):
        return f"traced point at {where} leaves E[x]"
    if not in_E(walk[demo.y_pos], orbit[demo.y_pos % period]):
        return f"orbit visit at {where} leaves E[y]"
    return None


def _spanning_tree(parent, level):
    """Whether parent and level arrays make a tree rooted at position 0:
    the root is its own parent at level 0, and every other position has a
    parent in range one level above it, so parents lead down the levels to
    the root, even if a level wraps round (a cycle would need as many
    positions as the int64 range holds)."""
    parent, level = parent.astype(np.int64), level.astype(np.int64)
    up = parent[1:]
    return bool(parent[0] == 0 and level[0] == 0
                and ((up >= 0) & (up < len(parent))).all()
                and (level[1:] == level[up] + 1).all())


def _witness_failures(cert, system):
    """Strong connectivity of the component from its witness: each tree
    must span the component, and each tree edge (a, b) must be a step of
    `_chain_step`, not of the integer offsets that built the ladder; on
    arrays when `_array_ball` holds, as `build_chain_graph` measures its
    pairs. Otherwise a node outside the symbolic mode must pass `_is_point`
    before it is stepped. A tree with bad edges is one failure, with the
    count and the first bad edge."""
    witness, comp = cert.witness, cert.component
    if not isinstance(witness, ConnectivityWitness):
        return ["no connectivity witness for the component"]
    trees = (("out-tree", witness.out_parent, witness.out_level),
             ("in-tree", witness.in_parent, witness.in_level))
    arrays = [a for _, parent, level in trees for a in (parent, level)]
    if not all(_int_array(a) for a in arrays):
        return ["a connectivity witness array is not an int array"]
    if not comp or any(a.shape != (len(comp),) for a in arrays):
        return ["the connectivity witness does not have one entry per "
                "component node"]
    bad = [f"the {name} witness is not a tree rooted at the first node"
           for name, parent, level in trees if not _spanning_tree(parent, level)]
    if bad:
        return bad
    if cert.mode == "metric-walk" and _array_ball(
            system, metric_ball(system, cert.radius), comp):
        pts = _pair_array(comp)
        images = system.forward_batch(pts)
        steps = lambda a, b: _torus_distances(
            np.take(images, a, axis=0), np.take(pts, b, axis=0)) < cert.radius
    elif cert.mode != "symbolic" and not all(map(_is_point(system), comp)):
        return ["a component node is not a point of the system"]
    else:
        step = _chain_step(cert, system)
        steps = lambda a, b: np.fromiter(
            (step(comp[i], comp[j]) for i, j in zip(a.tolist(), b.tolist())),
            dtype=bool, count=len(a))
    show = str if cert.mode == "symbolic" else system.point_to_text
    child = np.arange(1, len(comp))
    for name, tail, head in (
            ("out-tree", witness.out_parent[1:].astype(np.int64), child),
            ("in-tree", child, witness.in_parent[1:].astype(np.int64))):
        off = np.flatnonzero(~steps(tail, head))
        if off.size:
            a, b = comp[tail[off[0]]], comp[head[off[0]]]
            bad.append(f"component is not strongly connected under D along its "
                       f"{name}: {off.size} of its edges are not D-steps, the "
                       f"first from {show(a)} to {show(b)}")
    return bad


def _lattice_index(points, n):
    """Lattice indices i * n + j of points stored as the doubles (i/n, j/n),
    as int64, with -1 for every point that is not exactly such a pair of
    Python floats with 0 <= i, j < n, one ulp off included; the per-point
    type mask is built only when the type gate `_float_pairs` fails."""
    m = len(points)
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


def _revalidate_lattice(cert, system):
    """Density on the torus lattice at the certificate's resolution n:
    every component node must be the lattice node (i/n, j/n) of its index,
    or one failure ends the check, and A x mod n must be a member for every
    member x. As det A = +-1, x -> A x mod n permutes the n * n lattice, so
    each node is a periodic point of its own, at gap zero, and its orbit
    stays in the component."""
    n = cert.resolution
    members = _lattice_index(cert.component, n)
    off = np.flatnonzero(members < 0)
    if off.size:
        return [f"{off.size} nodes of the component are off the lattice: "
                f"the first, {system.point_to_text(cert.component[off[0]])}, "
                f"is not a lattice node (i/{n}, j/{n})"]
    fi, fj = _lattice_map(system.matrix, n)(*np.divmod(members, n))
    # np.isin, not an n x n mask: a resolution may pass the gate up to 46340,
    # whose mask would take 2 GB however few nodes the component holds
    return [f"image of {system.point_to_text(cert.component[k])} is more "
            "than one grid cell from the component"
            for k in np.flatnonzero(~np.isin(fi * n + fj, members)).tolist()]


_REVALIDATE = {
    "symbolic": _revalidate_exact,
    "exact-orbit": _revalidate_exact,
    "metric-walk": _revalidate_metric,
    "lattice-cycle": _revalidate_lattice,
}


# ---------------------------------------------------------------------------
# walk search


def _bfs_path(graph, inside, src, dst):
    """Shortest path src -> dst through nodes whose `inside` mask entry is
    set, as an index list, or None; src == dst asks for a shortest closed
    walk, which only a self-loop closes through a node outside the mask.
    It is a first-in first-out queue's path, read from the parents of
    `_bfs_levels`; dst is settled, without expanding its level, by the first
    node of the first frontier that holds one of its in-neighbours."""
    into = np.zeros(graph.node_count, dtype=bool)
    indptr, indices = graph.reversed_csr()
    into[indices[indptr[dst]:indptr[dst + 1]]] = True
    if not inside[dst]:
        return [src, src] if src == dst and into[src] else None
    parent = np.full(graph.node_count, -1, dtype=np.int64)
    for frontier in _bfs_levels(graph.indptr, graph.indices, inside, src,
                                parent):
        last = into[frontier]
        if last.any():
            path = [dst, int(frontier[np.argmax(last)])]
            break
    else:
        return None
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


# ---------------------------------------------------------------------------
# transitivity certificates


def transitivity_certificate(graph, component, system, radius=None, seed=0,
                             pairs=8):
    """Evidence that f restricted to a chain component, a set of node
    indices of `graph`, is topologically transitive: the component's
    connectivity witness on `graph`, which on a shift or a finite map is
    the whole proof, and no demos there. Metric walks also store, for
    `pairs` sampled node pairs (x, y), a closed walk through x visiting y,
    traced to a periodic point p in E[x] whose y-visit is in E[y]; `radius`
    is that of their chain entourage D."""
    component = sorted(component)
    if not component:
        raise ValueError("The component is empty.")
    labels = graph.component_labels()
    inside = labels == labels[component[0]]
    if inside.sum() != len(component) or not inside[component].all():
        raise ValueError("The nodes do not form one strongly connected "
                         "component of the graph.")
    mode, rng, demos = _mode_for(system, "transitivity"), random.Random(seed), []
    if mode != "metric-walk":
        ends = []
    elif len(component) == 1:
        ends = [(component[0],) * 2]
    else:
        ends = [tuple(rng.sample(component, 2)) for _ in range(pairs)]
    for xi, yi in ends:
        walk_idx, y_pos = _closed_walk_through(graph, inside, xi, yi)
        if walk_idx is None:
            x, y = (system.point_to_text(graph.nodes[i]) for i in (xi, yi))
            raise CertificateError(f"No closed walk through {x} and {y}.")
        walk = tuple(graph.nodes[i] for i in walk_idx)
        demos.append(TracedWalk(walk, y_pos, _trace_periodic_walk(system, walk)))
    return Certificate(
        kind="transitivity", mode=mode,
        component=tuple(graph.nodes[i] for i in component), demos=tuple(demos),
        radius=radius, witness=_connectivity_witness(graph, inside, component))


def _connectivity_witness(graph, inside, component):
    """The out-tree and in-tree from the first of the sorted component
    nodes, by `_bfs_tree` on the graph and on its reverse inside the
    component, written as positions into the component."""
    comp = np.asarray(component, dtype=np.int64)
    position = np.full(graph.node_count, -1, dtype=np.int32)
    position[comp] = np.arange(len(comp), dtype=np.int32)
    trees = [_bfs_tree(*csr, inside, comp[0])
             for csr in ((graph.indptr, graph.indices), graph.reversed_csr())]
    (out_parent, out_level), (in_parent, in_level) = trees
    return ConnectivityWitness(
        out_parent=position[out_parent[comp]],
        out_level=out_level[comp].astype(np.int32),
        in_parent=position[in_parent[comp]],
        in_level=in_level[comp].astype(np.int32))


def _trace_periodic_walk(system, walk):
    """The orbit that the walk, closed into a periodic pseudo-orbit, is
    traced to: a walk with zero defect is a true orbit, traced to itself;
    otherwise the rational tracer runs, so the orbit is exactly periodic."""
    pseudo = PseudoOrbit.measured(system, walk[:-1], PERIODIC)
    if pseudo.defect_bound == 0.0:
        return pseudo.window
    return trace_linear_hyperbolic(system, pseudo, exact=True).traced_orbit


# ---------------------------------------------------------------------------
# periodic density certificates


def periodic_density_certificate(graph, component, system):
    """Evidence that periodic points are dense in a chain component, a set
    of node indices of `graph` as for `transitivity_certificate`, and that
    the component is invariant. No mode stores demos. On a shift the
    witness trees of the transitivity certificate close a cycle through
    every node (`Certificate.tree_cycle`), so its check wants each node to
    step into the component. A finite map and the torus lattice each
    permute a finite set, so every node is its own periodic point; a torus
    certificate keeps the resolution of its grid graph, in which its check
    decodes the nodes."""
    mode = _mode_for(system, "periodic-density")
    if mode is None:
        raise TypeError(f"No periodic tracing oracle for {system.name!r}.")
    return Certificate(
        kind="periodic-density", mode=mode,
        component=tuple(graph.nodes[i] for i in sorted(component)), demos=(),
        resolution=graph.n if mode == "lattice-cycle" else None)


# ---------------------------------------------------------------------------
# the decomposition


@dataclass(frozen=True)
class BasicSet:
    """A basic set is its two certificates: its nodes are the transitivity
    component, and its id is its position in the decomposition."""

    transitivity: Certificate
    periodic_density: Certificate

    @property
    def nodes(self):
        return self.transitivity.component

    @property
    def size(self):
        return len(self.nodes)


def _is_basic_set(bs):
    """Whether bs is a BasicSet holding a certificate of each kind."""
    return isinstance(bs, BasicSet) and all(
        isinstance(cert, Certificate) and cert.kind == kind for cert, kind in (
            (bs.transitivity, "transitivity"),
            (bs.periodic_density, "periodic-density")))


@dataclass(frozen=True)
class SpectralDecomposition:
    """The basic sets of a system and the ladder they were cut from;
    `stabilization_index` picks the cut rung, whose `history` row must hold
    the counts of recurrent nodes and basic sets; the other rows are
    diagnostics that no check proves."""

    system_name: str
    ladder: tuple
    seed: int
    basic_sets: tuple
    stabilization_index: object
    history: tuple

    @property
    def component_count(self):
        return len(self.basic_sets)

    @property
    def recurrent_nodes(self):
        """The sorted union of the basic sets' nodes."""
        return tuple(sorted(itertools.chain.from_iterable(
            bs.nodes for bs in self.basic_sets)))

    @property
    def family(self):
        """The family, read off the density certificates' mode."""
        return _FAMILIES.get(self.basic_sets[0].periodic_density.mode)

    @property
    def resolution(self):
        """The lattice resolution of the density certificates; None on an
        exact decomposition."""
        return self.basic_sets[0].periodic_density.resolution

    @property
    def exact(self):
        return self.family in ("symbolic", "finite")

    @property
    def note(self):
        return SHIFT_NOTE if self.family == "symbolic" else ""

    def validate(self, system):
        """Certificate re-checks, which prove invariance, then the partition
        and one resolution over the density certificates, and once all of
        that holds, the history row of the cut rung against the counts of
        nodes and basic sets; failure strings. A metric-walk radius off the
        cut rung is its certificate's one failure, with no re-check. Every
        supported space is compact, so there is a basic set. A basic set is
        compared with the others only once both its certificates check, so
        one tamper is one failure."""
        sets, step = self.basic_sets, self.stabilization_index
        if type(sets) is not tuple or not sets or not all(map(_is_basic_set, sets)):
            return ["the basic sets are not a non-empty tuple of BasicSets, each "
                    "with a transitivity and a periodic-density certificate"]
        if type(self.ladder) is not tuple or not self.ladder or not (
                step is None or type(step) is int and 0 <= step < len(self.ladder)):
            return [f"the stabilization index {step!r} is not a step of the "
                    f"ladder {self.ladder!r}"]
        bad, nodes, resolutions = [], [], set()
        at = len(self.ladder) - 1 if step is None else step
        cut = self.ladder[at]
        for k, bs in enumerate(sets):
            trans, dens = bs.transitivity, bs.periodic_density
            found = [f"basic set {k} [{cert.kind}]: {msg}" for cert in (trans, dens)
                     for msg in ([f"the chain radius {cert.radius!r} is not the "
                                  f"cut rung {cut}"]
                                 if cert.mode == "metric-walk" and cert.radius != cut
                                 else cert.revalidate(system))]
            if found:
                bad.extend(found)
            elif dens.component != trans.component:
                bad.append(f"basic set {k} [{dens.kind}]: certificate is for "
                           "another node set")
            else:  # both certificates hashed or decoded every node
                nodes.extend(bs.nodes)
                resolutions.add(dens.resolution)
        if len(set(nodes)) != len(nodes):
            bad.append("basic sets overlap")
        if len(resolutions) > 1:
            bad.append(f"the density certificates are at resolutions "
                       f"{sorted(resolutions)}, not one")
        rows, counts = self.history, (len(nodes), len(sets))
        if not bad and not (type(rows) is tuple and len(rows) == len(self.ladder)
                            and type(rows[at]) is tuple and rows[at] == counts):
            bad.append(f"the ladder history does not read {counts}, the counts "
                       f"of recurrent nodes and basic sets, at the cut step {at}")
        return bad

    def to_report(self, system):
        """The report; on a shift `density_max_gap` is measured on `system`
        from the cycles that the witness trees close (`_density_gap`)."""
        limited = (not self.exact) and self.stabilization_index is None
        rep = Report(
            operation="spectral-decomposition",
            system=self.system_name,
            family=self.family,
            resolution=self.resolution if self.resolution else "exact",
            ladder=" ".join(str(r) for r in self.ladder),
            seed=self.seed,
            basic_sets=len(self.basic_sets),
            recurrent_nodes=sum(bs.size for bs in self.basic_sets),
            stabilization_index=("none" if self.stabilization_index is None
                                 else self.stabilization_index),
            finite=True,
            exact=self.exact,
            verdict=RESOLUTION_LIMITED if limited else PASS,
            note=self.note or NONCOMPACT_NOTE,
        )
        rep.add_table(
            "basic-sets",
            ["id", "size", "walk_demos", "density_max_gap"],
            [[k, bs.size, len(bs.transitivity.demos),
              _density_gap(bs.transitivity, system)]
             for k, bs in enumerate(self.basic_sets)],
        )
        rep.add_table(
            "ladder-history",
            ["step", "entourage", "recurrent", "components"],
            [[k, str(self.ladder[k]), r, c]
             for k, (r, c) in enumerate(self.history)],
        )
        return rep


def _density_gap(cert, system):
    """The printed density_max_gap of a basic set. On a shift it is the
    largest gap from a node's representative point to the periodic point of
    the cycle that the transitivity certificate's trees close through it
    (`Certificate.tree_cycle`), and NaN when a cycle is not closed or not
    admissible, which validate() fails. Elsewhere every node is its own
    periodic point, at gap 0.0."""
    if cert.mode != "symbolic":
        return 0.0
    gaps = []
    for k, node in enumerate(cert.component):
        word = cert.tree_cycle(k)
        try:
            point = None if word is None else system.periodic_point(word)
        except ValueError:  # a symbol off the alphabet, or a forbidden step
            point = None
        if point is None:
            return math.nan
        gaps.append(sft_metric(point, system.representative_point(node)))
    return max(gaps)


def spectral_decompose(system, resolution=64, ladder=None, seed=0, pairs=8):
    """Decompose the recurrent set of a supported system into certified
    basic sets. Shift and finite systems give one exact graph (of the
    transitions, of f), stable at step 0; torus automorphisms a grid ladder
    at the given resolution, from the coarsest entourage radius `ladder`
    (default 4 grid cells) halved twice. Each cell of the ladder cut at its
    stabilization step is a basic set with two certificates. On shifts and
    finite maps the witness trees of its transitivity certificate are the
    proof, and neither certificate holds a demo; a torus transitivity
    certificate also holds `pairs` traced walks. Exact basic sets come in
    order of their least node, torus ones the largest first."""
    if pairs < 1:
        raise ValueError("A transitivity certificate needs pairs >= 1.")
    n, radii, radius = None, (), None
    if isinstance(system, ShiftOfFiniteType):
        graphs = [symbol_graph_chain(system)]
    elif isinstance(system, TorusAutomorphism):
        n = resolution
        r0 = ladder if ladder is not None else 4.0 * (1.0 / n)
        radii = (r0, r0 / 2.0, r0 / 4.0)
        graphs = [torus_grid_graph(system, n, r) for r in radii]
    elif isinstance(system, FiniteSystem):
        points = tuple(system.points)
        index = {x: k for k, x in enumerate(points)}
        graphs = [ChainGraph.from_successors(points, (
            [index[system.forward(x)]] for x in points), "diagonal")]
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
    groups = _cell_groups(states[step])
    if not exact:
        radius = radii[step]
        groups.sort(key=len, reverse=True)
    basic = []
    for k, group in enumerate(groups):
        trans = transitivity_certificate(graph, group.tolist(), system,
                                         radius=radius, seed=seed + k,
                                         pairs=pairs)
        dens = periodic_density_certificate(graph, group.tolist(), system)
        basic.append(BasicSet(transitivity=trans, periodic_density=dens))
    return SpectralDecomposition(
        system_name=system.name,
        ladder=tuple(g.entourage_id for g in graphs) if exact else radii,
        seed=seed,
        basic_sets=tuple(basic),
        stabilization_index=stab,
        history=tuple(history),
    )


def symbol_graph_chain(system):
    """The transition graph of a shift system packaged as a ChainGraph with
    symbols for nodes."""
    nodes = tuple(range(system.size))
    return ChainGraph.from_successors(
        nodes, (system.successors(a) for a in nodes), "symbol-transitions")
