"""Spectral decomposition of the recurrent set into certified basic sets.

The pipeline partitions chain-recurrent nodes into chain components and
attaches two certificates to each: transitivity (closed chains through
sampled node pairs, traced to periodic points that visit both cross-
sections) and periodic density (every recurrent node receives a verified
periodic point inside its entourage ball). Certificates are self-contained:
they carry the nodes, walks and orbits needed to re-verify from scratch,
with no reference to cached graph state, and store each fact once: the
tracing entourage E is derived from D, density demo k is about node k, and
a lattice record holds its resolution and radius. Each claim has one
evidence format and one check: a connectivity witness (two spanning trees)
proves the strong connectivity of every component, in every mode, in place
of its chain graph; every certified density cycle must lie in the
component, which proves invariance; torus density is a `LatticeCycles`
record checked on lattice integers, so a node off the lattice fails.

Three system families are supported, and each only supplies a ladder of
chain graphs, its radii and its chain entourage D; one pipeline refines
the ladder, cuts it at stabilization and certifies the cells. Shift spaces
give the transition graph of their symbols, where basic sets are the
cycle-containing strongly connected components and the component count is
exact. Finite systems give the graph of the diagonal entourage, exact as
well. Torus automorphisms give an n x n lattice over a shrinking entourage
ladder, and the reported partition is the stabilized one, with the full
ladder history retained. Decompositions on compact spaces are finite by
construction here; unboundedly many basic sets can only arise on
noncompact spaces, which have no grid discretization at desk scale, and
reports say so.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass

import numpy as np

from .chains import (ChainGraph, _array_ball, _bfs_levels, _bfs_tree,
                     _cell_groups, _float_pairs, _lattice_map, _orbit_labels,
                     _pair_array, _refine_ladder, _torus_distances,
                     build_chain_graph, torus_grid_graph)
from .entourage import Entourage, finite_relation, metric_ball
from .report import FAIL, PASS, RESOLUTION_LIMITED, Report
from .shadowing import PERIODIC, PseudoOrbit, trace_linear_hyperbolic
from .systems import (FiniteSystem, LinearSaddle, ShiftOfFiniteType, SymbolicPoint,
                      TorusAutomorphism, sft_metric)

# the family that spectral_decompose reports, by the system's density mode
_FAMILIES = {"symbolic": "symbolic", "exact-orbit": "finite",
             "lattice-cycle": "torus-grid"}

NONCOMPACT_NOTE = (
    "decompositions here are finite because every discretized space is "
    "compact; infinitely many basic sets would need a noncompact space, "
    "which has no desk-scale grid"
)


# ---------------------------------------------------------------------------
# certificate evidence records


@dataclass(frozen=True)
class WalkDemo:
    """A closed chain, with the traced periodic orbit and the measured
    tracing gap; the period is len(walk) - 1. The walk holds its own ends:
    it starts and ends at x = walk[0], and its target is y = walk[y_pos].

    `traced` holds the full orbit, one point per walk step. Symbolic demos
    store a single periodic sequence instead, since it carries its whole
    orbit. Metric demos keep rational coordinates so periodicity is an exact
    statement; re-checks step through the stored orbit rather than iterating
    the float map around the loop, which would amplify rounding by
    rate_u^period. Lattice density evidence (`LatticeCycles`) avoids float
    orbits the same way: its re-check is in integers.
    """

    walk: tuple
    y_pos: int
    traced: object
    gap: float


@dataclass(frozen=True, slots=True)
class CycleDemo:
    """A periodic point certified inside the entourage ball of one node:
    demo k of a density certificate is about node k of its component.
    Shift and finite density certificates hold one per node; a torus
    certificate holds a `LatticeCycles` record, whose entries read back as
    CycleDemos."""

    cycle_length: int
    traced: object
    gap: float


def _freeze_arrays(record, names):
    """Replace the named fields of a frozen record by read-only copies."""
    for name in names:
        values = np.array(getattr(record, name))
        values.flags.writeable = False
        object.__setattr__(record, name, values)


@dataclass(frozen=True, eq=False)
class LatticeCycles:
    """The lattice-cycle density evidence of a whole torus component, at
    resolution n and entourage radius `radius`, as two read-only arrays in
    component order: `indices` holds the lattice index i * n + j of each
    node (i/n, j/n), and `lengths` the size of its orbit under
    x -> A x mod n. The certified periodic point of every node is the node
    itself, at the one gap `gap`.

    len() counts nodes, and an int index or iteration reads entries back as
    CycleDemos. The arrays are copied on construction and cannot be
    written."""

    resolution: int
    radius: float
    indices: np.ndarray
    lengths: np.ndarray
    gap: float = 0.0

    def __post_init__(self):
        _freeze_arrays(self, ("indices", "lengths"))
        if type(self.resolution) is not int or self.resolution < 1:
            raise ValueError("The lattice resolution must be a positive int.")
        if self.indices.ndim != 1 or self.indices.shape != self.lengths.shape:
            raise ValueError("Give one lattice index and one cycle length per node.")

    def _view(self, index, length):
        i, j = divmod(index, self.resolution)
        node = (i / self.resolution, j / self.resolution)
        return CycleDemo(cycle_length=length, traced=node, gap=self.gap)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        k = range(len(self))[operator.index(k)]
        return self._view(self.indices[k].item(), self.lengths[k].item())

    def __iter__(self):
        return map(self._view, self.indices.tolist(), self.lengths.tolist())


@dataclass(frozen=True, eq=False)
class ConnectivityWitness:
    """Evidence that a component C is strongly connected under D: an
    out-tree and an in-tree that span C from one root. Each tree is a
    parent array and a level array of positions into C, with the root at
    position 0, its own parent at level 0; every other position k sits one
    level below its parent. The out-tree edge of k is the D-step
    C[parent[k]] -> C[k], so the root reaches every node, and the in-tree
    edge is C[k] -> C[parent[k]], so every node reaches the root. The
    arrays are copied on construction and cannot be written."""

    out_parent: np.ndarray
    out_level: np.ndarray
    in_parent: np.ndarray
    in_level: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, ("out_parent", "out_level", "in_parent", "in_level"))


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Self-contained evidence for one basic-set property.

    mode picks the re-verification routine, and `_mode_for` fixes the one
    mode of each system family and kind:
      symbolic        walks are symbol sequences checked against transitions
      metric-walk     walks are closed D-chains of points, traced to exact
                      periodic orbits that start in E[x] and visit E[y]; E
                      is not stored but derived, as the ball of the tracing
                      coefficient times D's radius
      exact-orbit     the metric-walk routine on a finite system, whose D is
                      the diagonal, so walks are true orbits and E is D;
                      density demos must first return after cycle_length
                      steps
      lattice-cycle   density on the torus grid, re-proved in integers on
                      arrays: the demos are one `LatticeCycles` record at
                      its own resolution n and radius, whose lattice indices
                      x must be those of the component's nodes (i/n, j/n),
                      in order, and whose cycle length k must be the exact
                      order of x, A^k x = x mod n and A^(k/p) x != x for
                      every prime p dividing k, one power A^e mod n by
                      squaring per distinct k; no float orbit is iterated
    In every transitivity mode strong connectivity is proved by `witness`,
    a `ConnectivityWitness` whose 2(|C| - 1) tree edges are each re-tested
    by the walks' step relation (`_chain_step`): a transition on symbols,
    otherwise D's float predicate, on arrays when D is a torus metric ball.
    In every density mode demo k certifies node k of the component, and
    each certified cycle must lie in the component, so the density
    certificate proves that the component is invariant.
    """

    kind: str
    mode: str
    component: tuple
    demos: tuple
    chain_entourage: object = None
    witness: object = None

    def revalidate(self, system):
        """Re-check every demo from scratch; returns failure strings."""
        routine = _REVALIDATE.get(self.mode)
        if routine is None or self.mode != _mode_for(system, self.kind):
            return [f"certificate mode {self.mode!r} does not fit "
                    f"{self.kind} evidence on {system.name}"]
        failure = self._evidence_failure()
        return [failure] if failure else routine(self, system)

    def _evidence_failure(self):
        """Why the demos are not evidence of the form the routine reads, or
        not about `component`, or None. The routines read fields that only
        the right type has, count with int cycle lengths, compare number
        gaps, read SymbolicPoints, step through tuple orbits and derive E
        from D. Nodes must hash; there must be a walk, each a node tuple that
        starts and aims at members, and demo k must be about member k; the
        lattice-cycle routine binds its arrays and nodes itself."""
        demos, symbolic = self.demos, self.mode == "symbolic"
        D = self.chain_entourage
        try:  # hashes every node
            hash(() if self.mode == "lattice-cycle" else self.component)
        except TypeError:
            return "a component node cannot be hashed"
        if self.kind == "transitivity":
            if not all(isinstance(d, WalkDemo) for d in demos):
                return "a transitivity demo is not a walk"
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
            if not symbolic and not all(type(d.traced) is tuple for d in demos):
                return "a traced orbit is not a tuple of points"
            if not symbolic and not isinstance(D, Entourage):
                return f"the chain entourage {D!r} is not an entourage"
            if self.mode == "metric-walk" and not _is_number(D.radius):
                return f"the chain entourage {D!r} has no radius"
        elif self.mode == "lattice-cycle":
            if not isinstance(demos, LatticeCycles):
                return "lattice density demos are not a LatticeCycles record"
            if not _int_array(demos.lengths):
                return "a density demo's cycle length is not an int"
            if not _int_array(demos.indices):
                return "a density demo's node is not a lattice index"
            if not _is_number(demos.radius):
                return f"the entourage radius {demos.radius!r} is not a number"
            demos = (demos,)  # one gap for the whole record
        elif isinstance(demos, LatticeCycles) or not all(
                isinstance(d, CycleDemo) for d in demos):
            return "a density demo is not a cycle demo"
        elif not all(type(d.cycle_length) is int for d in demos):
            return "a density demo's cycle length is not an int"
        elif len(demos) != len(self.component):
            return "density demos do not cover the component once each"
        if not all(_is_number(d.gap) for d in demos):
            return "a demo's gap is not a number"
        if symbolic and not all(isinstance(d.traced, SymbolicPoint)
                                for d in demos):
            return "a traced point is not a SymbolicPoint"
        return None


def _is_number(value):
    """Whether a recorded gap or radius is a number to compare with: an
    int or a float, not a bool and not NaN."""
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
    """The one certificate mode for evidence of `kind` on `system`, or None
    where no route exists: symbolic on shifts, exact-orbit on finite maps,
    metric-walk transitivity on linear saddles and torus automorphisms,
    whose tracing coefficient derives E, and lattice-cycle density on
    torus automorphisms."""
    if isinstance(system, ShiftOfFiniteType):
        return "symbolic"
    if isinstance(system, FiniteSystem):
        return "exact-orbit"
    if kind == "transitivity":
        walks = isinstance(system, (LinearSaddle, TorusAutomorphism))
        return "metric-walk" if walks else None
    return "lattice-cycle" if isinstance(system, TorusAutomorphism) else None


def _chain_step(cert, system):
    """The step relation of cert's walks and witness trees: a transition of
    the shift on symbols, otherwise (a, b) with f(a) in D[b]."""
    if cert.mode == "symbolic":
        return system.allowed
    D = cert.chain_entourage
    return lambda a, b: D.accepts(system.forward(a), b)


def _walk_failure(walk, step, where):
    """Why `walk` is not a closed walk, ending where it starts, each step
    (a, b) accepted by step(a, b); None when it is one. Its start and its
    target are its own nodes, so no stored end is compared, and
    `Certificate._evidence_failure` has checked its shape."""
    if walk[0] != walk[-1]:
        return f"walk at {where} is not closed"
    if not all(step(a, b) for a, b in zip(walk, walk[1:])):
        return f"walk at {where} takes a step outside the chain relation"
    return None


def _revalidate_symbolic(cert, system):
    """Walks and cycle words on symbols. A cycle length must be the least
    period of its point, len(traced.right), before its word is read. Every
    symbol read must be an int in 0..size - 1 before a transition is looked
    up, as a negative one would index the transition rows from the end;
    each cycle word must stay in the component. A walk's traced point must
    be the periodic point of the closed walk, so it reads both walk ends."""
    walks = cert.kind == "transitivity"
    if not walks:
        lengths = [f"cycle length at {node} is not the least period of its "
                   "point" for node, d in zip(cert.component, cert.demos)
                   if d.cycle_length != len(d.traced.right)]
        if lengths:
            return lengths
    words = [d.walk if walks else tuple(map(d.traced.symbol_at,
                                            range(d.cycle_length)))
             for d in cert.demos]
    off = [s for s in itertools.chain(cert.component, *words)
           if type(s) is not int or not 0 <= s < system.size]
    if off:
        return [f"{len(off)} symbols read are outside the alphabet "
                f"0..{system.size - 1}: the first is {off[0]!r}"]
    bad = _witness_failures(cert, system) if walks else []
    step = _chain_step(cert, system)
    members = set(cert.component)
    nodes = itertools.repeat(None) if walks else cert.component
    for node, demo, block in zip(nodes, cert.demos, words):
        p = demo.traced
        if walks:
            failure = _walk_failure(demo.walk, step, demo.walk[0])
            if failure:
                bad.append(failure)
            elif p != system.periodic_point(demo.walk[:-1]):
                bad.append(f"traced point for {demo.walk[0]} does not match "
                           "its walk")
        else:
            if not members.issuperset(block):
                bad.append(f"cycle word at {node} leaves the component")
            try:
                rebuilt = system.periodic_point(block)
            except ValueError:
                bad.append(f"cycle word at {node} is not admissible")
                continue
            if p != rebuilt:
                bad.append(f"cycle point at {node} is not periodic")
            if p.symbol_at(0) != node:
                bad.append(f"cycle point is outside the cylinder of {node}")
            rep = system.representative_point(node)
            if not sft_metric(p, rep) <= demo.gap + 1e-15:
                bad.append(f"gap at {node} is larger than recorded")
    return bad


def _revalidate_metric(cert, system):
    """Closed D-chains traced to exact periodic orbits within their gap,
    each starting in E[x] and visiting E[y] for x = walk[0] and y =
    walk[y_pos], with E the ball of the tracing coefficient times D's
    radius. A finite system's D is the diagonal, and so is E: its walks
    are orbits, traced to themselves. Its density demos must first return
    after cycle_length steps, by `orbit_period` rather than the graph
    search, and each node's image must be in the component."""
    bad = []
    if cert.kind != "transitivity":
        members = set(cert.component)
        for node, demo in zip(cert.component, cert.demos):
            if node not in system.points:
                bad.append(f"{node} is not a point of the system")
            elif system.orbit_period(node) != demo.cycle_length:
                bad.append(f"{node} does not first return in "
                           f"{demo.cycle_length} steps")
            elif system.forward(node) not in members:
                bad.append(f"image of {node} leaves the component")
            if demo.traced != node:
                bad.append(f"certified point at {node} is not the node itself")
        return bad
    D = cert.chain_entourage
    E = D if cert.mode == "exact-orbit" else metric_ball(
        system, system.tracing_coefficient() * D.radius + 1e-12)
    bad.extend(_witness_failures(cert, system))
    point = _is_point(system)
    if not all(point(x) for demo in cert.demos
               for x in itertools.chain(demo.walk, demo.traced)):
        return bad + ["a walk or traced orbit holds a node that is not a "
                      "point of the system"]
    chained = _chain_step(cert, system)
    for demo in cert.demos:
        walk, orbit = demo.walk, demo.traced
        where = system.point_to_text(walk[0])
        failure = _walk_failure(walk, chained, where)
        period = len(walk) - 1
        if failure:
            bad.append(failure)
        elif len(orbit) != period:
            bad.append(f"orbit at {where} has the wrong length")
        elif any(system.forward(orbit[k]) != orbit[(k + 1) % period]
                 for k in range(period)):
            bad.append(f"stored loop at {where} is not an orbit")
        # a Fraction minus a float is a float, so these are float distances
        elif not all(system.metric(orbit[k], walk[k]) <= demo.gap + 1e-12
                     for k in range(period)):
            bad.append(f"traced orbit at {where} strays past its gap")
        elif not E.accepts(walk[0], orbit[0]):
            bad.append(f"traced point at {where} leaves E[x]")
        elif not E.accepts(walk[demo.y_pos], orbit[demo.y_pos % period]):
            bad.append(f"orbit visit at {where} leaves E[y]")
    return bad


def _spanning_tree(parent, level):
    """Whether parent and level arrays make a tree rooted at position 0:
    the root is its own parent at level 0, and every other position has a
    parent in range exactly one level above it. From any position the
    parents then lead down the levels, so with no cycle, to the root; this
    holds even if a level wraps round, as a cycle would need as many
    positions as the int64 range holds."""
    parent, level = parent.astype(np.int64), level.astype(np.int64)
    up = parent[1:]
    return bool(parent[0] == 0 and level[0] == 0
                and ((up >= 0) & (up < len(parent))).all()
                and (level[1:] == level[up] + 1).all())


def _witness_failures(cert, system):
    """Strong connectivity of the component under D, from its witness: each
    tree must span the component, and each tree edge (a, b) must be a step
    of `_chain_step`, a transition on symbols and otherwise D's float
    predicate on (f(a), b), so the check does not trust the integer offsets
    that built the ladder. When `_array_ball` holds the edges are measured
    on arrays, as `build_chain_graph` measures its pairs. Otherwise every
    node outside the symbolic mode must pass `_is_point` before it is
    stepped, or the check ends with that one failure. A tree with bad
    edges is one failure, with the count and the first bad edge."""
    witness, comp, D = cert.witness, cert.component, cert.chain_entourage
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
    if _array_ball(system, D, comp):
        pts = _pair_array(comp)
        images = system.forward_batch(pts)
        steps = lambda a, b: _torus_distances(
            np.take(images, a, axis=0), np.take(pts, b, axis=0)) < D.radius
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


def _revalidate_lattice(cert, system):
    """Density on the torus lattice, checked on the record's arrays: its
    one gap within its radius, and one entry per component node, in order,
    with that node's lattice index at the record's resolution n. Indices
    that do not bind end the check with that one failure; the members off
    the lattice are one failure, with their count and the first of them.
    Each cycle length must then be the exact order of its index, and the
    certified orbits lie in the component when A x mod n does for every
    member x."""
    record = cert.demos
    n = record.resolution
    bad = []
    if not record.gap <= record.radius:
        bad.append(f"the density gap {record.gap} exceeds the entourage radius")
    members = _lattice_index(cert.component, n)
    member = members >= 0
    if not member.all():
        off = np.flatnonzero(~member)
        bad.append(f"{off.size} nodes of the component are off the lattice: "
                   f"the first, {system.point_to_text(cert.component[off[0]])}"
                   f", is not a lattice node (i/{n}, j/{n})")
    # int64 first: an unsigned value past the int64 range turns negative,
    # and so binds to no member, instead of failing to compare
    if not np.array_equal(record.indices.astype(np.int64), members):
        return bad + ["density demos do not cover the component once each"]
    i, j = np.divmod(members[member], n)
    inside = np.zeros((n, n), dtype=bool)
    inside[i, j] = True
    for k in np.flatnonzero(member)[
            ~inside[_lattice_map(system, n)(i, j)]].tolist():
        bad.append(f"image of {system.point_to_text(cert.component[k])} is "
                   "more than one grid cell from the component")
    # an integer matrix of determinant +-1 permutes the n x n lattice, so no
    # orbit is longer than n * n, and a length outside 1..n * n (read as 0)
    # fails with no arithmetic; the rest take one order test per length
    length = record.lengths.astype(np.int64)
    length = np.where((length >= 1) & (length <= n * n), length, 0)
    closes = ~member
    for k in (np.flatnonzero(np.bincount(length[member])[1:]) + 1).tolist():
        rows = np.flatnonzero(member & (length == k))
        closes[rows] = _first_return_is(system, n, members[rows], k)
    for r in np.flatnonzero(~closes).tolist():
        bad.append(f"lattice orbit of {cert.component[r]} does not close in "
                   f"exactly {record.lengths[r]} steps")
    return bad


_REVALIDATE = {
    "symbolic": _revalidate_symbolic,
    "metric-walk": _revalidate_metric,
    "exact-orbit": _revalidate_metric,
    "lattice-cycle": _revalidate_lattice,
}


# ---------------------------------------------------------------------------
# walk search


def _bfs_path(graph, inside, src, dst):
    """Shortest path src -> dst through nodes whose `inside` mask entry is
    set, as an index list; None when unreachable. src == dst asks for a
    shortest closed walk, and only a self-loop closes one through a node
    outside the mask.

    The path is a first-in first-out queue's path, read from the parents
    of `_bfs_levels`. The level that would reach dst is never expanded:
    dst is settled by the first node of the first frontier that holds one
    of its in-neighbours, read from the reversed graph."""
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


def _sample_pairs(rng, members, count):
    members = list(members)
    if len(members) == 1:
        return [(members[0], members[0])]
    return [tuple(rng.sample(members, 2)) for _ in range(count)]


# ---------------------------------------------------------------------------
# transitivity certificates


def transitivity_certificate(graph, component, system, D=None, seed=0,
                             pairs=8):
    """Evidence that the restriction of f to one chain component is
    topologically transitive: for sampled node pairs (x, y), a closed
    D-chain through x visiting y is traced to a periodic point p with
    p in E[x] and the y-visit in E[y], for the E the check derives from D.

    `component` is a set of node indices of `graph`. Shift systems run the
    symbol route, where walks are words and traced points are exact. In
    every mode the certificate carries the component's connectivity
    witness on `graph`.
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
    mode = _mode_for(system, "transitivity")
    symbolic = mode == "symbolic"
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
        demos.append(WalkDemo(walk, y_pos, traced, gap))
    return Certificate(
        kind="transitivity", mode=mode,
        component=tuple(graph.nodes[i] for i in component), demos=tuple(demos),
        chain_entourage=D,
        witness=_connectivity_witness(graph, inside, component))


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
                                 resolution=None, lattice_index=None):
    """Evidence that periodic points are dense in the recurrent node set:
    every node receives a verified periodic point inside its entourage ball
    at every ladder radius.

    On the torus grid the periodic point is the node itself, proved by
    integer lattice arithmetic (the lattice is f-invariant and f permutes
    it), so the gap is zero at every radius. The lattice index of each node
    is decoded from its floats unless `lattice_index` gives it, as the
    positions of the nodes in `torus_grid(resolution)` do; the check
    decodes the nodes again, so an index that is not the node's fails
    there. Shift and finite systems take the shortest cycle through the
    node in their exact `graph`: an admissible word, or on the diagonal
    graph of a finite map the node's own orbit. Each cycle must lie in the
    node set, so the certificate also proves that the set is invariant.
    """
    mode = _mode_for(system, "periodic-density")
    if mode == "lattice-cycle":
        if resolution is None:
            raise ValueError("The lattice route needs the grid resolution.")
        nodes = tuple(recurrent_nodes)
        if lattice_index is None:
            lattice_index = _lattice_index(nodes, resolution)
            if (lattice_index < 0).any():
                raise ValueError(f"The lattice route needs nodes "
                                 f"(i/{resolution}, j/{resolution}).")
        return Certificate(
            kind="periodic-density", mode=mode, component=nodes,
            demos=_lattice_cycles(system, lattice_index, resolution, min(radii)))
    if mode is not None:
        # the shortest cycle through a node of an exact graph; on the
        # diagonal graph of a finite map it is the node's orbit
        if graph is None:
            raise ValueError("The exact route needs the chain graph.")
        symbolic = mode == "symbolic"
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
            demos.append(CycleDemo(cycle_length=len(block), traced=p, gap=gap))
        return Certificate(kind="periodic-density", mode=mode,
                           component=tuple(recurrent_nodes), demos=tuple(demos))
    raise TypeError(f"No periodic tracing oracle for {system.name!r}.")


def _lattice_cycles(system, index, n, radius):
    """The density record of the lattice nodes with these lattice indices,
    at resolution n and radius: each index and the size of its orbit under
    the lattice permutation x -> A x mod n."""
    fi, fj = _lattice_map(system, n)(*np.divmod(np.arange(n * n), n))
    labels = _orbit_labels(fi * n + fj)
    return LatticeCycles(n, radius, index, np.bincount(labels)[labels][index])


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
    exact: bool
    note: str = ""

    @property
    def component_count(self):
        return len(self.basic_sets)

    def validate(self, system):
        """Partition checks, family and resolution bindings, and
        certificate re-checks, which prove invariance; failure strings."""
        bad = []
        all_nodes = []
        for bs in self.basic_sets:
            all_nodes.extend(bs.nodes)
        try:  # hashes every node
            distinct = set(all_nodes)
            if len(distinct) != len(all_nodes):
                bad.append("basic sets overlap")
            # equal node lists need no set of the recurrent nodes (slow to hash)
            if (all_nodes != list(self.recurrent_nodes)
                    and distinct != set(self.recurrent_nodes)):
                bad.append("basic sets do not cover the recurrent node set")
        except TypeError:
            bad.append("a basic-set or recurrent node cannot be hashed")
        family = _FAMILIES.get(_mode_for(system, "periodic-density"))
        if self.family != family:
            bad.append(f"family {self.family!r} does not fit {system.name}, "
                       f"whose family is {family!r}")
        for bs in self.basic_sets:
            n = getattr(bs.periodic_density.demos, "resolution", None)
            if type(n) is not type(self.resolution) or n != self.resolution:
                bad.append(f"basic set {bs.ident}: resolution "
                           f"{self.resolution!r} is not the density "
                           f"certificate's {n!r}")
            for cert in (bs.transitivity, bs.periodic_density):
                if cert.component != bs.nodes:
                    bad.append(f"basic set {bs.ident} [{cert.kind}]: "
                               "certificate is for another node set")
                for msg in cert.revalidate(system):
                    bad.append(f"basic set {bs.ident} [{cert.kind}]: {msg}")
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
            finite=True,
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
    and its chain entourage D: shift and finite systems one exact graph
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
        graphs, radii, D = [symbol_graph_chain(system)], (1.0,), None
        note = ("basic sets are the cycle-containing SCCs of the symbol graph, "
                "computed exactly; the count is the true number of basic sets")
    elif isinstance(system, TorusAutomorphism):
        n = resolution
        r0 = ladder if ladder is not None else 4.0 * (1.0 / n)
        radii = (r0, r0 / 2.0, r0 / 4.0)
        graphs = [torus_grid_graph(system, n, r) for r in radii]
    elif isinstance(system, FiniteSystem):
        points = tuple(system.points)
        D = finite_relation({(x, x) for x in points}, space_id=system.space_id,
                            points=points)
        radii, walks = (0.5,), 4
        graphs = [build_chain_graph(system, points, D, entourage_id="diagonal")]
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
    rungs = tuple(g.entourage_id for g in graphs) if exact else radii
    groups = _cell_groups(states[step])
    if not exact:
        D = metric_ball(system, radii[step])
        groups.sort(key=len, reverse=True)
    basic = []
    for ident, group in enumerate(groups):
        comp = group.tolist()
        nodes = tuple(graph.nodes[i] for i in comp)
        trans = transitivity_certificate(graph, comp, system, D=D,
                                         seed=seed + ident, pairs=walks)
        dens = periodic_density_certificate(
            system, nodes, radii=radii, graph=graph, resolution=n,
            lattice_index=None if exact else group)
        basic.append(BasicSet(ident=ident, nodes=nodes, transitivity=trans,
                              periodic_density=dens))
    return SpectralDecomposition(
        system_name=system.name,
        family=_FAMILIES[_mode_for(system, "periodic-density")],
        resolution=n,
        ladder=rungs,
        seed=seed,
        basic_sets=tuple(basic),
        recurrent_nodes=tuple(sorted(
            itertools.compress(graph.nodes, states[step][0].tolist()))),
        stabilization_index=stab,
        history=tuple(history),
        exact=exact,
        note=note,
    )


def symbol_graph_chain(system):
    """The transition graph of a shift system packaged as a ChainGraph with
    symbols for nodes."""
    nodes = tuple(range(system.size))
    return ChainGraph.from_successors(
        nodes, (system.successors(a) for a in nodes), "symbol-transitions")
