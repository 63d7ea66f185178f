"""Spectral decomposition of the recurrent set into certified basic sets.

The pipeline partitions chain-recurrent nodes into chain components and
attaches two certificates to each, transitivity and periodic density.
They carry what re-verifies from scratch, with no cached graph state, and
each claim has one evidence format and one check (`Certificate`). Every
transitivity certificate carries out- and in-trees that prove its
component strongly connected, which on a shift or a finite map is the
whole proof (`_revalidate_exact`); a shift's density gaps are measured on
the cycles that the trees close (`Certificate.tree_cycle`). On the torus,
transitivity also stores closed chains through sampled node pairs, as
positions into the component, each with the exact periodic point it was
traced to, whose orbit visits both cross-sections; the tree edges and the
chain steps go through one step test. Density is the lattice, which
x -> A x mod n permutes.

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
from .shadowing import PERIODIC, PseudoOrbit, _exact_periodic_start
from .systems import (FiniteSystem, ShiftOfFiniteType, TorusAutomorphism,
                      sft_metric)

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
    """A closed metric D-chain through x = C[walk[0]] and its target
    y = C[walk[y_pos]], as one period of int positions into the component
    C, whose closing step walk[-1] -> walk[0] is implied, with the start of
    the periodic orbit it was traced to. That point is exact (rational
    coordinates, or the walk's own first node when the walk is an orbit),
    so a re-check rebuilds its orbit with `system.orbit` and wants it closed
    after len(walk) steps, rather than iterating the float map, which would
    amplify rounding by rate_u^period."""

    walk: tuple
    y_pos: int
    start: tuple


@dataclass(frozen=True, eq=False)
class ConnectivityWitness:
    """Evidence that a component C is strongly connected under D: an
    out-tree and an in-tree spanning C from its root, position 0, as
    read-only copies of parent arrays of positions into C, the root its own
    parent. The out-tree edge of k is the D-step C[parent[k]] -> C[k], so
    the root reaches every node, and the in-tree edge is C[k] ->
    C[parent[k]], so every node reaches the root."""

    out_parent: np.ndarray
    in_parent: np.ndarray

    def __post_init__(self):
        for name in ("out_parent", "in_parent"):
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
                      positions into the component, each traced to an exact
                      periodic point whose orbit starts in E[x] and visits
                      E[y]; D and E are built from the stored `radius`, E as
                      the ball of the tracing coefficient times it
      lattice-cycle   density on the torus grid at `resolution` n, with no
                      demos: x -> A x mod n permutes the lattice, so every
                      node is its own periodic point, and the check runs in
                      lattice integers (`_revalidate_lattice`)
    Only metric-walk certificates store demos and a chain `radius`, a
    positive number, only transitivity ones a `witness`, a
    `ConnectivityWitness` whose 2(|C| - 1) tree edges go through one step
    test with every walk step (`_witness_failures`), and only lattice-cycle
    ones a
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
        build D and E from the radius and size lattice arrays by the
        resolution. Nodes must hash; only metric walks are demos, and there
        must be one, each a non-empty tuple of int positions into the
        component with its target position in it; the lattice-cycle routine
        decodes its nodes itself."""
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
        m = len(self.component)
        if not all(type(d.walk) is tuple and type(d.y_pos) is int
                   and 0 <= d.y_pos < len(d.walk)
                   and all(type(k) is int and 0 <= k < m for k in d.walk)
                   for d in demos):
            return ("a walk is not a tuple of positions into the component "
                    "with a target position in it")
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
    symbolic on shifts, exact-orbit on finite maps, and on torus
    automorphisms metric-walk transitivity and lattice-cycle density."""
    if isinstance(system, ShiftOfFiniteType):
        return "symbolic"
    if isinstance(system, FiniteSystem):
        return "exact-orbit"
    if not isinstance(system, TorusAutomorphism):
        return None
    return "metric-walk" if kind == "transitivity" else "lattice-cycle"


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
    """Metric walks: each traced point must be a point of the system before
    its orbit is stepped, then the witness and the walks
    (`_witness_failures`)."""
    if not all(map(_is_point(system), (demo.start for demo in cert.demos))):
        return ["a traced point is not a point of the system"]
    return _witness_failures(cert, system)


def _orbit_failure(system, comp, demo, in_E):
    """Why the orbit of a metric walk's traced point, rebuilt exactly by
    `system.orbit`, does not close after the walk's period, or does not
    start in E[x] and visit E[y] at y_pos, or None. The walk's shape and
    steps are checked before (`_witness_failures`)."""
    x, period = comp[demo.walk[0]], len(demo.walk)
    orbit = system.orbit(demo.start, period)
    where = system.point_to_text(x)
    if orbit[-1] != orbit[0]:
        return f"traced point at {where} does not return after {period} steps"
    if not in_E(x, orbit[0]):
        return f"traced point at {where} leaves E[x]"
    if not in_E(comp[demo.walk[demo.y_pos]], orbit[demo.y_pos]):
        return f"orbit visit at {where} leaves E[y]"
    return None


def _spanning_tree(parent):
    """Whether a parent array makes a tree rooted at position 0: every
    parent is in range, and every position reaches the root, by pointer
    doubling. After k squarings anc = anc[anc] each entry is its 2^k-th
    ancestor, so m.bit_length() of them take every path of at most m - 1
    parents to the root, and a cycle away from the root never gets there.
    All entries 0 at once also makes the root its own parent: with f the
    parent map and j = f(0), j = f(f^(2^k)(0)) = f^(2^k)(j) = 0."""
    m = len(parent)
    anc = parent.astype(np.int64)
    if not ((anc >= 0) & (anc < m)).all():
        return False
    for _ in range(m.bit_length()):
        if not anc.any():
            return True
        anc = anc[anc]
    return not anc.any()


def _witness_failures(cert, system):
    """Strong connectivity of the component from its witness, and each
    metric walk. Each tree must span the component, and every tree edge
    and walk step (a, b), with the step that closes each walk, must be a
    step of `_chain_step`, not of the integer offsets that built the
    ladder; all go through one test, on arrays when `_array_ball` holds, as
    `build_chain_graph` measures its pairs. Otherwise a node outside the
    symbolic mode must pass `_is_point` before it is stepped. A tree with
    bad edges is one failure, with the count and the first bad edge, and so
    is a walk with a bad step; a walk whose steps hold is then checked by
    `_orbit_failure`."""
    witness, comp = cert.witness, cert.component
    if not isinstance(witness, ConnectivityWitness):
        return ["no connectivity witness for the component"]
    trees = (("out-tree", witness.out_parent), ("in-tree", witness.in_parent))
    if not all(_int_array(parent) for _, parent in trees):
        return ["a connectivity witness array is not an int array"]
    if not comp or any(parent.shape != (len(comp),) for _, parent in trees):
        return ["the connectivity witness does not have one entry per "
                "component node"]
    bad = [f"the {name} witness is not a tree rooted at the first node"
           for name, parent in trees if not _spanning_tree(parent)]
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
    walks = [demo.walk for demo in cert.demos]
    if not walks:
        return bad
    tails = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64)
    heads = np.fromiter(itertools.chain.from_iterable(
        w[1:] + w[:1] for w in walks), dtype=np.int64)
    firsts = np.cumsum([0] + [len(w) for w in walks[:-1]])
    held = np.logical_and.reduceat(steps(tails, heads), firsts).tolist()
    in_E = metric_ball(
        system, system.tracing_coefficient() * cert.radius + 1e-12).accepts
    for demo, steps_held in zip(cert.demos, held):
        failure = (_orbit_failure(system, comp, demo, in_E) if steps_held else
                   f"walk at {show(comp[demo.walk[0]])} takes a step outside "
                   "the chain relation")
        if failure:
            bad.append(failure)
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
    It is a first-in first-out queue's path, the lexicographically least
    shortest one, as rows are sorted and a level's discovery order is that
    of its tree paths. `_bfs_levels` runs from src and, on the reverse,
    from dst (whose own distance 0 is no meeting), on the smaller frontier
    and forward on a tie. The first node both reach fixes the length a + b:
    the path is the tree path to the first node of forward level a at
    distance b from dst (`back`), then each step's first successor nearer."""
    if graph.has_edge(src, dst) and (src == dst or inside[dst]):
        return [src, dst]
    n = graph.node_count
    parent, back = np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    forward = _bfs_levels(graph.indptr, graph.indices, inside, src, parent)
    backward = _bfs_levels(*graph.reversed_csr(), inside, dst,
                           np.full(n, -1, dtype=np.int64))
    front, _, rim, b = next(forward), next(backward), next(backward, None), 1
    if not inside[dst] or rim is None:
        return None
    back[rim] = 1
    while True:  # a one-node forward frontier is tested on its one entry
        if rim is None or len(front) <= len(rim):
            front = next(forward, None)
            if front is None:  # src reaches no node that reaches dst
                return None
            if back[front[0]] if len(front) == 1 else back[front].any():
                break
        elif (rim := next(backward, None)) is not None:
            b += 1
            back[rim] = b
            if (parent[rim] >= 0).any():
                break
    path = [int(front[np.argmax(back[front] == b)])]
    while path[-1] != src:
        path.append(int(parent[path[-1]]))
    path.reverse()
    for level in range(b - 1, 0, -1):
        row = graph.indices[graph.indptr[path[-1]]:graph.indptr[path[-1] + 1]]
        path.append(int(row[np.argmax(back[row] == level)]))
    return path + [dst]


def _closed_walk_through(graph, inside, x, y):
    """A closed walk x -> y -> x inside the component and the position of
    y in it, or (None, None); for x == y it is a shortest closed walk."""
    there = [x] if x == y else _bfs_path(graph, inside, x, y)
    back = there and _bfs_path(graph, inside, y, x)
    if not back:
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
    comp = np.asarray(component, dtype=np.int64)
    position = np.full(graph.node_count, -1, dtype=np.int32)
    position[comp] = np.arange(len(comp), dtype=np.int32)
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
        # one period as a periodic pseudo-orbit: an orbit, at zero defect,
        # is traced to itself, any other to an exactly periodic orbit
        period = walk_idx[:-1]
        walk = [graph.nodes[i] for i in period]
        pseudo = PseudoOrbit.measured(system, walk, PERIODIC)
        demos.append(TracedWalk(tuple(position[period].tolist()), y_pos, (
            walk[0] if pseudo.defect_bound == 0.0
            else _exact_periodic_start(system, walk))))
    # the witness: the out-tree and in-tree from the first of the sorted
    # component nodes, on the graph and on its reverse, as positions
    out_parent, in_parent = (
        position[_bfs_tree(*csr, inside, comp[0])[comp]]
        for csr in ((graph.indptr, graph.indices), graph.reversed_csr()))
    return Certificate(
        kind="transitivity", mode=mode,
        component=tuple(graph.nodes[i] for i in component), demos=tuple(demos),
        radius=radius, witness=ConnectivityWitness(out_parent, in_parent))


# ---------------------------------------------------------------------------
# periodic density certificates


def periodic_density_certificate(graph, nodes, system):
    """Evidence that periodic points are dense in a chain component of
    `graph`, given as the tuple of its nodes in index order that the
    component's transitivity certificate holds (and shares with this one),
    and that the component is invariant. No mode stores demos. On a shift the
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
        kind="periodic-density", mode=mode, component=tuple(nodes),
        demos=(), resolution=graph.n if mode == "lattice-cycle" else None)


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
        mode = self.basic_sets[0].periodic_density.mode
        return _FAMILIES.get(mode) if type(mode) is str else None

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
        one tamper is one failure; a decomposition of another system is one
        failure, before any check."""
        if self.system_name != system.name:
            return [f"the decomposition is of {self.system_name!r}, not of "
                    f"{system.name!r}"]
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
        from the cycles that the witness trees close (`_density_gap`). A
        malformed field, which validate() fails, prints as nan where it
        keeps a value from being read, and counts as not exact."""
        sets = self.basic_sets
        if not (type(sets) is tuple and sets and all(map(_is_basic_set, sets))):
            sets = None
        exact = sets is not None and self.exact
        size = lambda bs: len(bs.nodes) if type(bs.nodes) is tuple else math.nan
        rep = Report(
            operation="spectral-decomposition",
            system=self.system_name,
            family=math.nan if sets is None else self.family,
            resolution=math.nan if sets is None else self.resolution or "exact",
            ladder=" ".join(str(r) for r in self.ladder),
            seed=self.seed,
            basic_sets=math.nan if sets is None else len(sets),
            recurrent_nodes=math.nan if sets is None else sum(map(size, sets)),
            stabilization_index=("none" if self.stabilization_index is None
                                 else self.stabilization_index),
            finite=True,
            exact=exact,
            verdict=(RESOLUTION_LIMITED if not exact
                     and self.stabilization_index is None else PASS),
            note=exact and self.note or NONCOMPACT_NOTE,
        )
        rep.add_table(
            "basic-sets",
            ["id", "size", "walk_demos", "density_max_gap"],
            [[k, size(bs), (len(bs.transitivity.demos)
                           if type(bs.transitivity.demos) is tuple else math.nan),
              _density_gap(bs.transitivity, system)]
             for k, bs in enumerate(sets or ())],
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
    admissible, or when the component is not a non-empty tuple of symbols,
    which validate() fails too. Elsewhere every node is its own periodic
    point, at gap 0.0."""
    if cert.mode != "symbolic":
        return 0.0
    comp = cert.component
    if type(comp) is not tuple or not comp or not all(
            type(v) is int and 0 <= v < system.size for v in comp):
        return math.nan
    gaps = []
    for k, node in enumerate(comp):
        word = cert.tree_cycle(k)
        try:
            point = None if word is None else system.periodic_point(word)
        except ValueError:  # a forbidden step
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
        dens = periodic_density_certificate(graph, trans.component, system)
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
