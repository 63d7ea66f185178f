"""Chains through an entourage: graphs, recurrence, components.

A D-chain is a finite sequence where each step lands inside D's cross
section at the mapped point: (f(x_{i-1}), x_i) in D. On a finite sample set
those steps form a directed graph, and the recurrence notions become graph
questions: chain recurrent nodes lie on directed cycles, chain components
are strongly connected pieces, and refining D down a ladder of entourages
shrinks both until the picture stabilizes.

Everything here is sound per entourage: every reported edge satisfies the
entourage predicate exactly, so reported chains are genuine chains. What a
finite sample set cannot do is witness chains passing between samples;
callers state their grid resolution for that reason.

One spatial hash, `_near_pairs`, finds the candidate pairs wherever a
radius bounds the search: the chain graphs of entourages with a radius,
and the injectivity check of the stability conjugacy in `hyperbolic`.
Each caller then measures its candidates with its own exact test.

On the n x n torus lattice the chain questions have closed forms in the
group (Z/n)^2, on which an integer matrix acts as a bijection: the SCCs
of a grid graph and the nonwandering probe need no graph search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .entourage import GaugeBall, MetricBall
from .report import Report
from .systems import TorusAutomorphism, torus_grid


# ---------------------------------------------------------------------------
# spatial hash

# absolute room between a hash cell and the radius, per unit of the largest
# coordinate; the rounding of coordinate differences and of cell keys stays
# under 2**-48 per unit, so no pair closer than the radius sits two cells
# apart
_CELL_ROOM = 2.0 ** -40
# cells per axis at most, which keeps the flat cell keys in int64
_MAX_CELLS = 1 << 30
# candidate pairs per batch, which bounds the batch arrays
_PAIR_BATCH = 1 << 14


def _concat_ranges(starts, counts):
    """The indices starts[k], ..., starts[k] + counts[k] - 1 for every k, in
    order, as one array."""
    ends = np.cumsum(counts)
    shift = np.repeat(starts - ends + counts, counts)
    return np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) + shift


def _near_pairs(points, queries, radius, wrap):
    """Candidate pairs for every query row and point row closer than radius:
    Euclidean distance of the (N, d) and (M, d) float arrays, d = 1 or 2,
    with every coordinate taken mod 1 when wrap is set (the unit torus).

    Yields (query, point) index arrays in batches of at most `_PAIR_BATCH`
    pairs, queries in order, split between queries except where one query
    alone has more. Rows with a non-finite coordinate are closer than
    nothing and take no part. The points go into one sorted hash of cells
    wider than the radius by `_CELL_ROOM` times (1 + the largest
    coordinate), at most `_MAX_CELLS` per axis, so every pair closer than
    the radius has its point in one of the 3^d cells around its query.
    """
    p_rows = np.flatnonzero(np.isfinite(points).all(axis=1))
    q_rows = np.flatnonzero(np.isfinite(queries).all(axis=1))
    points, queries = points[p_rows], queries[q_rows]
    top = max(np.abs(points).max(initial=0.0), np.abs(queries).max(initial=0.0))
    room = _CELL_ROOM * (1.0 + top)
    if wrap:  # span cells of width 1/span per unit, keys taken mod span
        span = min(_MAX_CELLS, max(1, int(1.0 / (radius + room))))
        width = 1.0 / span
    else:
        width = max(radius + room, top / _MAX_CELLS)
        # every key and its neighbours lie in [-top/width - 2, top/width + 1]
        span = 2 * int(top / width) + 5
    # cell keys, flattened mod span per axis: below span**2 < 2**63
    shape = (span,) * points.shape[1]
    p_keys = np.floor(points / width).astype(np.int64)
    q_keys = np.floor(queries / width).astype(np.int64)
    p_flat = np.ravel_multi_index(tuple(p_keys.T), shape, mode="wrap")
    order = np.argsort(p_flat, kind="stable")
    p_flat = p_flat[order]
    order = p_rows[order]
    steps = sorted({-1 % span, 0, 1 % span})  # no cell twice
    cells = list(itertools.product(steps, repeat=points.shape[1]))
    starts = np.empty((len(q_rows), len(cells)), dtype=np.int64)
    counts = np.empty_like(starts)
    for col, step in enumerate(cells):
        key = np.ravel_multi_index(tuple((q_keys + step).T), shape, mode="wrap")
        starts[:, col] = np.searchsorted(p_flat, key, "left")
        counts[:, col] = np.searchsorted(p_flat, key, "right") - starts[:, col]
    per_query = counts.sum(axis=1)
    reach = np.cumsum(per_query)
    begin = 0
    while begin < len(q_rows):
        done = int(reach[begin - 1]) if begin else 0
        end = int(np.searchsorted(reach, done + _PAIR_BATCH, "right"))
        if end > begin:
            yield (np.repeat(q_rows[begin:end], per_query[begin:end]),
                   order[_concat_ranges(starts[begin:end].ravel(),
                                        counts[begin:end].ravel())])
        else:  # one query with more candidates than a batch holds
            near = order[_concat_ranges(starts[begin], counts[begin])]
            for lo in range(0, len(near), _PAIR_BATCH):
                part = near[lo:lo + _PAIR_BATCH]
                yield np.full(len(part), q_rows[begin]), part
            end = begin + 1
        begin = end


def _torus_distances(p, q):
    """Distances of the unit torus between matching rows (broadcast over
    leading axes), by the float operations of `torus_metric`, so each
    equals the scalar metric's value exactly."""
    t = np.subtract(p, q)
    np.abs(t, out=t)
    t -= np.floor(t)  # t % 1.0 exactly, as t >= 0, and cheaper than np.remainder
    np.minimum(t, 1.0 - t, out=t)
    return np.sqrt(t[..., 0] * t[..., 0] + t[..., 1] * t[..., 1])


# ---------------------------------------------------------------------------
# chain graphs


class GraphTooLargeError(ValueError):
    """The chain graph would have more nodes or edges than int32 CSR holds."""


def _csr(node_count, src, dst):
    """int32 CSR arrays of the edges (src[k], dst[k]), each row sorted: one
    sort of the int64 keys src * node_count + dst, which order the edges by
    source and then by target, and give the targets back mod node_count."""
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    if indptr[-1] > np.iinfo(np.int32).max:
        raise GraphTooLargeError("The chain graph has too many edges for int32 CSR.")
    keys = np.multiply(src, node_count, dtype=np.int64)
    keys += dst
    keys.sort()
    keys %= node_count
    return indptr.astype(np.int32), keys.astype(np.int32)


@dataclass(eq=False)
class ChainGraph:
    """Directed graph of one-step chains on a fixed node set.

    Edges are held in CSR form: the successors of node i are
    indices[indptr[i]:indptr[i + 1]], sorted, in int32 arrays. Edge (i, j)
    exists iff (f(node_i), node_j) lies in the entourage the graph was
    built with. `labels` holds the SCC index of every node: code that
    knows the partition in closed form may give it (the torus grid does),
    and otherwise Tarjan's algorithm computes it once on demand. The list
    of SCCs as frozensets is built only when `scc()` asks for it.
    """

    nodes: tuple
    indptr: np.ndarray
    indices: np.ndarray
    entourage_id: str
    labels: np.ndarray = field(default=None, repr=False)
    _scc: list = field(default=None, repr=False)

    @classmethod
    def from_successors(cls, nodes, successors, entourage_id):
        """The graph with successors[i] (any iterable of node indices) as
        the successors of node i."""
        nodes = tuple(nodes)
        rows = [sorted(set(row)) for row in successors]
        if len(rows) != len(nodes):
            raise ValueError("Give one successor list per node.")
        if any(not 0 <= j < len(nodes) for row in rows for j in row):
            raise ValueError("A successor index is outside the node set.")
        src = np.repeat(np.arange(len(rows), dtype=np.int64),
                        [len(row) for row in rows])
        dst = np.fromiter((j for row in rows for j in row), dtype=np.int64,
                          count=len(src))
        return cls(nodes, *_csr(len(nodes), src, dst), entourage_id)

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return int(self.indptr[-1])

    def successors(self, i):
        return tuple(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist())

    def has_edge(self, i, j):
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        k = int(np.searchsorted(row, j))
        return k < len(row) and int(row[k]) == j

    def _sources(self):
        return np.repeat(np.arange(self.node_count, dtype=np.int32),
                         np.diff(self.indptr))

    def scc(self):
        """The SCCs as frozensets of node indices; SCC k holds the nodes
        labelled k."""
        if self._scc is None:
            if self.labels is None:
                self._scc = strongly_connected_components(
                    self.indptr.tolist(), self.indices.tolist())
                self.labels = np.empty(self.node_count, dtype=np.int32)
                for ci, comp in enumerate(self._scc):
                    self.labels[list(comp)] = ci
            else:
                order = np.argsort(self.labels, kind="stable")
                cuts = np.cumsum(np.bincount(self.labels))[:-1]
                self._scc = [frozenset(p.tolist()) for p in np.split(order, cuts)]
        return self._scc

    def component_labels(self):
        """SCC index of every node, as an int32 array."""
        if self.labels is None:
            self.scc()
        return self.labels

    def recurrent_mask(self):
        """Boolean array of the nodes on a directed cycle: an SCC of size
        >= 2, or a self-loop."""
        labels = self.component_labels()
        mask = np.bincount(labels)[labels] >= 2
        src = self._sources()
        mask[src[self.indices == src]] = True
        return mask

    def recurrent_indices(self):
        """Indices lying on a directed cycle: SCC of size >= 2 or self-loop."""
        return frozenset(np.flatnonzero(self.recurrent_mask()).tolist())

    def is_strongly_connected(self):
        """Whether every node reaches every other: one forward and one
        backward reachability sweep from node 0, without the SCC partition."""
        if not self.nodes:
            return False
        return (_reaches_all(self.indptr, self.indices) and _reaches_all(
            *_csr(self.node_count, self.indices, self._sources())))

    def to_text(self, node_id=None):
        """Adjacency listing, one `node_id: succ_id succ_id ...` line per node."""
        label = node_id or (lambda i: str(i))
        return "\n".join(f"{label(i)}: " + " ".join(map(label, self.successors(i)))
                         for i in range(self.node_count)) + "\n"


def _reaches_all(indptr, indices):
    """Whether a breadth-first sweep from node 0 along the CSR rows reaches
    every node; each level is one batch of array operations."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        reached = indices[_concat_ranges(starts, indptr[frontier + 1] - starts)]
        # sort and drop repeats by hand: a bare np.unique imports numpy.ma
        fresh = np.sort(reached[~seen[reached]])
        frontier = fresh[np.diff(fresh, prepend=-1) != 0]
        seen[frontier] = True
    return bool(seen.all())


def is_chain(system, seq, D):
    """Whether consecutive steps of seq all land inside D's cross-sections."""
    seq = list(seq)
    if len(seq) < 2:
        raise ValueError("A chain needs at least two points.")
    return all(
        D.accepts(system.forward(a), b) for a, b in zip(seq, seq[1:])
    )


def build_chain_graph(system, samples, D, entourage_id=None):
    """Edges exactly {(i, j) : (f(node_i), node_j) in D}.

    When D has a radius in the system's own metric and the system embeds
    its points, `_near_pairs` gives the candidate pairs: a metric ball of a
    torus automorphism (`_array_ball`) measures them on arrays, bit for bit
    as the scalar metric, and any other entourage with D.accepts. Without a
    radius every pair is tested: a gauge ball read at departure through
    `_gauge_steps`, which reads the gauge once per image, and any other
    entourage with D.accepts.
    """
    nodes = tuple(samples)
    if not nodes:
        raise ValueError("Chain graphs need a nonempty sample set.")
    entourage_id = entourage_id or _describe(D)
    radius = D.radius
    if _array_ball(system, D, nodes):
        pts = _pair_array(nodes)
        images = system.forward_batch(pts)
        # np.take gathers rows several times faster than images[q]
        keep = lambda q, p: _torus_distances(
            np.take(images, q, axis=0), np.take(pts, p, axis=0)) < radius
    else:
        fnodes = [system.forward(x) for x in nodes]
        if (radius is None or system.embedding_metric is None
                or D.metric != system.metric):
            if type(D) is GaugeBall and not D.at_arrival:
                src, dst = np.nonzero(_gauge_steps(D.metric, D.gauge, fnodes, nodes))
                return ChainGraph(nodes, *_csr(len(nodes), src, dst), entourage_id)
            rows = ([j for j, y in enumerate(nodes) if D.accepts(fx, y)]
                    for fx in fnodes)
            return ChainGraph.from_successors(nodes, rows, entourage_id)
        pts = np.array([system.embed(x) for x in nodes], dtype=float)
        images = np.array([system.embed(fx) for fx in fnodes], dtype=float)
        keep = lambda q, p: np.fromiter(
            (D.accepts(fnodes[i], nodes[j]) for i, j in zip(q.tolist(), p.tolist())),
            dtype=bool, count=len(q))
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for q, p in _near_pairs(pts, images, radius, system.embedding_metric == "torus"):
        kept = keep(q, p)
        src.append(q[kept])
        dst.append(p[kept])
    # drop the batch lists first: they and the sort keys are never held
    # together, which keeps the memory peak of large graphs down
    src, dst = np.concatenate(src), np.concatenate(dst)
    return ChainGraph(nodes, *_csr(len(nodes), src, dst), entourage_id)


def _describe(D):
    if isinstance(D, MetricBall):
        return f"ball({D.delta!r})"
    if isinstance(D, GaugeBall):
        return "gauge"
    return D.kind


def _float_pairs(points):
    """Whether every point is a tuple of two floats, neither a subclass;
    true for no points. The types are collected into sets at C level, over
    the points and over their coordinates, with no Python loop per point."""
    return (set(map(type, points)) <= {tuple} and set(map(len, points)) <= {2}
            and set(map(type, itertools.chain.from_iterable(points))) <= {float})


def _pair_array(points):
    """The (m, 2) float array of m points that pass `_float_pairs`."""
    return np.fromiter(itertools.chain.from_iterable(points), dtype=float,
                       count=2 * len(points)).reshape(len(points), 2)


def _array_ball(system, D, nodes):
    """True when the array routes of `build_chain_graph` and
    `nonwandering_set` reproduce D on these nodes bit for bit: D is a metric
    ball in the metric of torus automorphisms (one function for every
    instance), the system a plain torus automorphism with int or float
    matrix entries, and the nodes are pairs of floats."""
    return (type(system) is TorusAutomorphism and type(D) is MetricBall
            and getattr(D.metric, "__func__", None) is TorusAutomorphism.metric
            and all(type(v) in (int, float)
                    for row in system.matrix for v in row)
            and _float_pairs(nodes))


def _lattice_map(system, n, exponent=1):
    """The power A^exponent (exponent >= 0) of the integer matrix A as a map
    of lattice coordinate arrays, mod n; the power comes by squaring on
    Python ints, reduced mod n at every product."""
    (p, q), (r, s) = ((v % n for v in row) for row in system.matrix)
    a, b, c, d = 1 % n, 0, 0, 1 % n
    while exponent:
        if exponent & 1:
            a, b, c, d = ((a * p + b * r) % n, (a * q + b * s) % n,
                          (c * p + d * r) % n, (c * q + d * s) % n)
        p, q, r, s = ((p * p + q * r) % n, (p * q + q * s) % n,
                      (r * p + s * r) % n, (r * q + s * s) % n)
        exponent >>= 1
    return lambda i, j: ((a * i + b * j) % n, (c * i + d * j) % n)


def _lattice_offsets(n, delta):
    """The offset table O of the delta-ball on the n x n lattice: the
    offsets (di, dj) mod n whose shortest displacement on the torus is
    shorter than delta in floats, as two int32 arrays in sorted order."""
    reach = min(int(delta * n) + 1, n)  # every residue mod n lies within n
    span = np.arange(-reach, reach + 1)
    w = np.minimum(span % n, -span % n) / n
    i, j = np.nonzero(np.sqrt(w[:, None] * w[:, None] + w * w) < delta)
    table = np.zeros((n, n), dtype=bool)
    table[span[i] % n, span[j] % n] = True
    return tuple(v.astype(np.int32) for v in np.nonzero(table))


def _invariant_subgroup(matrix, n, di, dj):
    """The smallest subgroup S of (Z/n)^2 that holds every offset (di, dj)
    and is invariant under the matrix, as the Hermite normal form (a, b, d):
    the lattice S + nZ^2 is spanned by (a, b) and (0, d), 0 <= b < d.

    A vector (u, v) outside joins through g = gcd(a, u) = s a + t u: the
    first row becomes s (a, b) + t (u, v), and the second takes in the
    combination with first entry 0, (0, (u b - a v) / g). Every change
    queues the images of both rows, so the lattice ends closed under A."""
    (p, q), (r, w) = matrix
    a, b, d = n, 0, n
    todo = list(zip(di.tolist(), dj.tolist()))
    while todo:
        u, v = (x % n for x in todo.pop())
        if u % a == 0 and (v - u // a * b) % d == 0:
            continue
        g = math.gcd(a, u)
        t = pow(u // g, -1, a // g)  # t u = g mod a
        d = math.gcd(d, (u * b - a * v) // g)
        a, b = g, ((g - t * u) // a * b + t * v) % d
        todo += [(p * a + q * b, r * a + w * b), (q * d, w * d)]
    return a, b, d


def _orbit_labels(perm):
    """Dense labels of the cycles of a permutation array, by pointer
    doubling: after k rounds, low[x] is the least of the first 2^k points
    of the orbit of x, so after log2(len) rounds it is the least of the
    cycle."""
    low, step, span = np.arange(len(perm)), np.asarray(perm), 1
    while span < len(perm):
        low = np.minimum(low, low[step])
        step, span = step[step], 2 * span
    return np.unique(low, return_inverse=True)[1].astype(np.int32)


def _lattice_scc_labels(system, n, di, dj):
    """SCC labels of the lattice graph x -> A x + O. With 0 in O, x reaches
    exactly the points A^k x + S, S the smallest A-invariant subgroup
    holding O, so the SCCs are the A-orbits on the cosets of S."""
    if not len(di):  # delta <= 0: no edges, and every node is its own SCC
        return np.arange(n * n, dtype=np.int32)
    a, b, d = _invariant_subgroup(system.matrix, n, di, dj)

    def coset(i, j):  # (i, j) = q (a, b) + (i mod a, c), c mod d indexes
        q, r = np.divmod(i, a)
        return r * d + (j - q * b) % d

    perm = coset(*_lattice_map(system, n)(*np.divmod(np.arange(a * d), d)))
    return _orbit_labels(perm)[coset(*np.divmod(np.arange(n * n), n))]


def torus_grid_graph(system, n, delta, entourage_id=None):
    """Chain graph of a torus automorphism on the n x n lattice, built with
    integer arithmetic only.

    The lattice is invariant under integer matrices, so f(node) is again a
    lattice point and the delta-ball around it is a fixed set of integer
    offsets; the edges are one broadcast of the lattice images against the
    offset table, mod n, and no floating-point distances enter. The SCC
    labels come from the lattice group (`_lattice_scc_labels`), with no
    graph search.
    """
    # each size is tested before the arrays it measures are built
    if n * n > np.iinfo(np.int32).max:
        raise GraphTooLargeError("The lattice has too many nodes for int32 CSR.")
    di, dj = _lattice_offsets(n, delta)
    if n * n * len(di) > np.iinfo(np.int32).max:
        raise GraphTooLargeError("The chain graph has too many edges for int32 CSR.")
    row, col = np.divmod(np.arange(n * n, dtype=np.int64), n)
    fi, fj = (v.astype(np.int32) for v in _lattice_map(system, n)(row, col))
    indices = (fi[:, None] + di) % n * n + (fj[:, None] + dj) % n
    indices.sort(axis=1)
    indptr = np.arange(n * n + 1, dtype=np.int64) * len(di)
    return ChainGraph(torus_grid(n), indptr.astype(np.int32), indices.ravel(),
                      entourage_id or f"ball({delta!r})",
                      labels=_lattice_scc_labels(system, n, di, dj))


# ---------------------------------------------------------------------------
# strongly connected components, iterative


def strongly_connected_components(indptr, indices):
    """Tarjan's algorithm with an explicit stack; safe on graphs whose
    longest path is proportional to the node count. The successors of v are
    indices[indptr[v]:indptr[v + 1]]; pass plain lists, which index far
    faster than numpy arrays."""
    n = len(indptr) - 1
    order = [0] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        work = [(root, indptr[root])]
        while work:
            v, k = work.pop()
            if k == indptr[v]:
                counter += 1
                order[v] = low[v] = counter
                stack.append(v)
                on_stack[v] = 1
            descend = False
            end = indptr[v + 1]
            while k < end:
                w = indices[k]
                k += 1
                if not order[w]:
                    work.append((v, k))
                    work.append((w, indptr[w]))
                    descend = True
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            if descend:
                continue
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


# ---------------------------------------------------------------------------
# recurrence


def chain_recurrent_set(graph):
    """Nodes admitting a chain from themselves back to themselves."""
    return frozenset(graph.nodes[i] for i in graph.recurrent_indices())


@dataclass
class ChainComponentSet:
    """Ladder-refined recurrence data.

    components partition recurrent_nodes; each is strongly connected in the
    chain graph of every ladder entourage. stabilization_index is the first
    ladder position whose partition equals the previous one (None when the
    ladder never settles, a resolution limit the caller must surface).
    """

    recurrent_nodes: frozenset
    components: tuple
    entourage_ladder: tuple
    stabilization_index: object
    history: tuple

    @property
    def component_count(self):
        return len(self.components)


def chain_components(graphs):
    """Intersect SCC partitions over a shrinking ladder of entourages.

    All graphs must share one node set. A node stays recurrent if it lies on
    a cycle at every ladder step; two nodes stay equivalent if every step
    keeps them in one SCC. Components come largest first, then by least
    node index.
    """
    graphs = list(graphs)
    states, history, stabilization = _refine_ladder(graphs)
    nodes = graphs[0].nodes
    groups = sorted(_cell_groups(states[-1]), key=len, reverse=True)
    return ChainComponentSet(
        recurrent_nodes=frozenset(
            nodes[i] for i in np.flatnonzero(states[-1][0]).tolist()),
        components=tuple(frozenset(nodes[i] for i in grp.tolist())
                         for grp in groups),
        entourage_ladder=tuple(g.entourage_id for g in graphs),
        stabilization_index=stabilization,
        history=tuple(history),
    )


def _refine_ladder(graphs):
    """The running (recurrent mask, cell labels) after each ladder step,
    the (recurrent count, cell count) history and the stabilization index.

    Each step refines the running cells with that step's SCC labels:
    `np.unique` on the pair (cell, label) of each recurrent node, packed
    into one int64. Cell labels of nodes no longer recurrent are 0.
    """
    if not graphs:
        raise ValueError("The entourage ladder is empty.")
    nodes = graphs[0].nodes
    for g in graphs[1:]:
        if g.nodes != nodes:
            raise ValueError("Ladder graphs disagree on the node set.")

    recurrent = np.ones(len(nodes), dtype=bool)
    cells = np.zeros(len(nodes), dtype=np.int64)
    states, history = [], []
    stabilization = None
    for step, g in enumerate(graphs):
        kept = recurrent & g.recurrent_mask()
        labels = g.component_labels()
        pairs = cells[kept] * (int(labels.max(initial=0)) + 1) + labels[kept]
        distinct, inverse = np.unique(pairs, return_inverse=True)
        cells = np.zeros(len(nodes), dtype=np.int64)
        cells[kept] = inverse
        count = len(distinct)
        # cells only split from step to step, so on an unchanged recurrent
        # set an unchanged cell count means an unchanged partition
        if (step and stabilization is None and count == history[-1][1]
                and np.array_equal(kept, recurrent)):
            stabilization = step
        recurrent = kept
        states.append((recurrent, cells))
        history.append((int(recurrent.sum()), count))
    return states, history, stabilization


def _cell_groups(state):
    """The cells of a refinement state as ascending arrays of node indices,
    ordered by their least index."""
    recurrent, cells = state
    members = np.flatnonzero(recurrent)
    order = np.argsort(cells[members], kind="stable")
    groups = np.split(members[order],
                      np.flatnonzero(np.diff(cells[members][order])) + 1)
    return sorted((grp for grp in groups if len(grp)), key=lambda grp: int(grp[0]))


# ---------------------------------------------------------------------------
# nonwandering set


def nonwandering_set(system, samples, probe, horizon):
    """Samples x where some sample in probe[x] returns to probe[x] within
    the horizon: a sound inner approximation of the nonwandering set. On
    the samples `torus_grid(n)` with a torus metric ball, the answer is
    exact in integers, with the graph's offset table as the ball."""
    if horizon < 1:
        raise ValueError("Horizon must be at least 1.")
    samples = list(samples)
    n = math.isqrt(len(samples))
    if (n and n * n == len(samples) and _array_ball(system, probe, samples)
            and tuple(samples) == torus_grid(n)):
        found = _nonwandering_lattice(system, n, probe.delta, horizon)
        return frozenset(samples[i] for i in np.flatnonzero(found).tolist())
    return frozenset(x for x in samples if _returns_to(
        system, probe.cross_section(x), samples, horizon))


def _returns_to(system, section, samples, horizon):
    """Whether some sample in the section maps back into it within the
    horizon."""
    for w in samples:
        if section.contains(w):
            for _ in range(horizon):
                w = system.forward(w)
                if section.contains(w):
                    return True
    return False


def _nonwandering_lattice(system, n, delta, horizon):
    """Mask of the lattice nodes x where some z in x + O returns to x + O
    within the horizon, O the offset table: A^k (x + o) = x + o' says
    (A^k - I) x lies in O - A^k O (mod n), one table lookup per k. A^k mod n
    repeats after the order of A mod n, so the search stops there, or once
    every node is found; with 2 |O| > n^2 the table is full at every k."""
    di, dj = (v.astype(np.int64) for v in _lattice_offsets(n, delta))
    row, col = np.divmod(np.arange(n * n, dtype=np.int64), n)
    found = np.full(n * n, 2 * len(di) > n * n)
    step = _lattice_map(system, n)
    pi, pj, ai, aj = row, col, di, dj
    for _ in range(horizon):
        if found.all():
            break
        pi, pj = step(pi, pj)
        ai, aj = step(ai, aj)
        table = np.zeros((n, n), dtype=bool)
        for u, v in zip(ai.tolist(), aj.tolist()):
            table[(di - u) % n, (dj - v) % n] = True
        found |= table[(pi - row) % n, (pj - col) % n]
        if (pi == row).all() and (pj == col).all():
            break
    return found


# ---------------------------------------------------------------------------
# strong (gauge-weighted) chains


def _gauge_steps(metric, gauge, images, nodes):
    """The gauge step relation as a boolean matrix: [i, j] iff
    metric(images[i], nodes[j]) < gauge(images[i]). The gauge is read once
    per image, and every pair is measured by the scalar metric."""
    steps = np.zeros((len(images), len(nodes)), dtype=bool)
    for i, fx in enumerate(images):
        r = gauge(fx)
        steps[i] = [metric(fx, y) < r for y in nodes]
    return steps


def _transitive_closure(reach):
    """Close a square boolean array in place by Warshall's algorithm:
    afterwards reach[i, j] iff a path of one or more steps leads from i to
    j. No SCC is computed, so callers stay independent of Tarjan's route."""
    for k in range(len(reach)):
        reach[reach[:, k]] |= reach[k]
    return reach


def _strong_reach(system, nodes, gauge):
    """reach[i, j] iff a chain of one or more steps d(f(u), v) < gauge(f(u))
    leads from nodes[i] to nodes[j] through the nodes: the transitive
    closure of the step relation."""
    return _transitive_closure(_gauge_steps(
        system.metric, gauge, [system.forward(u) for u in nodes], nodes))


def strong_chain_reachable(system, x, y, gauge, samples):
    """Whether a chain of one or more steps leads from x to y through the
    samples, with each step measured against the gauge at the mapped point:
    d(f(u), v) < gauge(f(u))."""
    nodes = list(dict.fromkeys([*samples, x, y]))
    reach = _strong_reach(system, nodes, gauge)
    return bool(reach[nodes.index(x), nodes.index(y)])


def strong_chain_recurrent_set(system, samples, gauge):
    """Samples that reach themselves through a gauge-weighted chain."""
    nodes = list(dict.fromkeys(samples))
    reach = _strong_reach(system, nodes, gauge)
    return frozenset(itertools.compress(nodes, reach.diagonal()))


# ---------------------------------------------------------------------------
# reporting


def _component_diameter(system, comp, cap=1200):
    pts = sorted(comp, key=repr)
    if len(pts) > cap:
        stride = len(pts) // 512 + 1
        pts = pts[::stride]
    return max(itertools.chain([0.0], (system.metric(p, q) for p, q
                                       in itertools.combinations(pts, 2))))


def component_report(system, ccs):
    """Structured document: one row per component with id, node count, and
    metric diameter (subsampled above 1200 nodes), plus the ladder data."""
    rep = Report(
        system=system.name,
        ladder=" ".join(ccs.entourage_ladder),
        recurrent_nodes=len(ccs.recurrent_nodes),
        component_count=ccs.component_count,
        stabilization_index=(
            "none" if ccs.stabilization_index is None else ccs.stabilization_index
        ),
    )
    rep.add_table("components", ("id", "nodes", "diameter"),
                  [(k, len(comp), repr(_component_diameter(system, comp)))
                   for k, comp in enumerate(ccs.components)])
    return rep
