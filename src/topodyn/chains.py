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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .entourage import GaugeBall, MetricBall
from .report import Report
from .systems import TorusAutomorphism


# ---------------------------------------------------------------------------
# spatial index for candidate lookup


class _CellIndex:
    """Uniform bins over embedded coordinates. Query radius must not exceed
    the cell width, so all candidates sit in the 3^dim neighboring cells."""

    def __init__(self, coords, cell, wrap=None):
        self.wrap = wrap
        if wrap is not None:
            self.ncells = max(1, int(wrap / cell))
            self.cell = wrap / self.ncells
        else:
            self.ncells = None
            self.cell = cell
        self.bins = {}
        for i, c in enumerate(coords):
            self.bins.setdefault(self._key(c), []).append(i)
        self.dim = len(coords[0]) if coords else 0

    def _key(self, c):
        if self.wrap is not None:
            return tuple(int((v % self.wrap) / self.cell) % self.ncells for v in c)
        return tuple(int(math.floor(v / self.cell)) for v in c)

    def near(self, c):
        base = self._key(c)
        out = []
        deltas = [(-1, 0, 1)] * len(base)
        stack = [()]
        for choices in deltas:
            stack = [prefix + (d,) for prefix in stack for d in choices]
        for offs in stack:
            key = tuple(b + o for b, o in zip(base, offs))
            if self.ncells is not None:
                key = tuple(k % self.ncells for k in key)
            out.extend(self.bins.get(key, ()))
        return out


# ---------------------------------------------------------------------------
# chain graphs


def _concat_ranges(starts, counts):
    """The indices starts[k], ..., starts[k] + counts[k] - 1 for every k, in
    order, as one array."""
    ends = np.cumsum(counts)
    shift = np.repeat(starts - ends + counts, counts)
    return np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) + shift


def _csr(node_count, src, dst):
    """int32 CSR arrays of the edges (src[k], dst[k]), each row sorted."""
    order = np.lexsort((dst, src))
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    if indptr[-1] > np.iinfo(np.int32).max:
        raise ValueError("The chain graph has too many edges for int32 CSR.")
    return indptr.astype(np.int32), np.asarray(dst)[order].astype(np.int32)


class _Rows:
    """Successor rows of a CSR graph as plain Python sequences: row v is a
    memoryview slice of the int32 indices, so the pure-Python graph walks
    (Tarjan, the certificate BFS) read ints, never numpy scalars, and no
    list is built per edge."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr, indices):
        self.indptr = indptr.tolist()
        self.indices = memoryview(np.ascontiguousarray(indices))

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


@dataclass(eq=False)
class ChainGraph:
    """Directed graph of one-step chains on a fixed node set.

    Edges are held in CSR form: the successors of node i are
    indices[indptr[i]:indptr[i + 1]], sorted, in int32 arrays. Edge (i, j)
    exists iff (f(node_i), node_j) lies in the entourage the graph was
    built with. The SCC partition is computed once on demand.
    """

    nodes: tuple
    indptr: np.ndarray
    indices: np.ndarray
    entourage_id: str
    _scc: list = field(default=None, repr=False)
    _comp_of: np.ndarray = field(default=None, repr=False)
    _rows: _Rows = field(default=None, repr=False)

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

    def rows(self):
        """Successor rows as plain Python sequences, made once per graph."""
        if self._rows is None:
            self._rows = _Rows(self.indptr, self.indices)
        return self._rows

    def _sources(self):
        return np.repeat(np.arange(self.node_count, dtype=np.int32),
                         np.diff(self.indptr))

    def scc(self):
        if self._scc is None:
            rows = self.rows()
            self._scc = strongly_connected_components(rows.indptr, rows.indices)
            self._comp_of = np.empty(self.node_count, dtype=np.int32)
            for ci, comp in enumerate(self._scc):
                self._comp_of[list(comp)] = ci
        return self._scc

    def component_labels(self):
        """SCC index of every node, as an int32 array."""
        self.scc()
        return self._comp_of

    def recurrent_mask(self):
        """Boolean array of the nodes on a directed cycle: an SCC of size
        >= 2, or a self-loop."""
        labels = self.component_labels()
        mask = np.bincount(labels, minlength=len(self._scc))[labels] >= 2
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
        lines = []
        for i, adj in enumerate(self.rows()):
            lines.append(f"{label(i)}: " + " ".join(label(j) for j in adj))
        return "\n".join(lines) + "\n"


def _reaches_all(indptr, indices):
    """Whether a breadth-first sweep from node 0 along the CSR rows reaches
    every node; each level is one batch of array operations."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        reached = indices[_concat_ranges(starts, indptr[frontier + 1] - starts)]
        frontier = np.unique(reached[~seen[reached]])
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


def _ball_radius(D):
    if isinstance(D, MetricBall):
        return D.delta
    if isinstance(D, GaugeBall) and not D.at_arrival and D.sup_bound is not None:
        return D.sup_bound
    return None


def build_chain_graph(system, samples, D, entourage_id=None):
    """Edges exactly {(i, j) : (f(node_i), node_j) in D}.

    A metric ball in the own metric of a torus automorphism is built on
    arrays (`_ball_edges`). Otherwise a cell index over embedded coordinates
    narrows the candidates when D has a known radius (a metric ball, or a
    bounded gauge read at departure) and the system embeds its points, and
    the full pairwise scan runs when not.
    """
    nodes = tuple(samples)
    if not nodes:
        raise ValueError("Chain graphs need a nonempty sample set.")
    entourage_id = entourage_id or _describe(D)
    edges = _ball_edges(system, nodes, D)
    if edges is not None:
        return ChainGraph(nodes, *_csr(len(nodes), *edges), entourage_id)
    images = [system.forward(x) for x in nodes]
    radius = _ball_radius(D)
    if radius is not None and system.embedding_metric is not None:
        wrap = 1.0 if system.embedding_metric == "torus" else None
        index = _CellIndex([system.embed(x) for x in nodes], radius, wrap=wrap)
        rows = ([j for j in set(index.near(system.embed(fx)))
                 if D.accepts(fx, nodes[j])] for fx in images)
    else:
        rows = ([j for j, y in enumerate(nodes) if D.accepts(fx, y)]
                for fx in images)
    return ChainGraph.from_successors(nodes, rows, entourage_id)


def _describe(D):
    if isinstance(D, MetricBall):
        return f"ball({D.delta!r})"
    if isinstance(D, GaugeBall):
        return "gauge"
    return D.kind


# ---------------------------------------------------------------------------
# metric balls on arrays

# absolute room between a hash cell and the ball radius, per unit of the
# largest node coordinate; the rounding of coordinate differences and of cell
# keys stays under 2**-48 per unit, so no accepted pair sits two cells apart
_CELL_ROOM = 2.0 ** -40
# candidate pairs measured per batch, which bounds the batch arrays
_PAIR_BATCH = 1 << 18


def _array_ball(system, D):
    """True when `_ball_edges` reproduces D on this system bit for bit: D
    is a metric ball in the own metric of a plain torus automorphism with
    int or float matrix entries."""
    return (type(system) is TorusAutomorphism and type(D) is MetricBall
            and getattr(D.metric, "__func__", None) is TorusAutomorphism.metric
            and all(type(v) in (int, float)
                    for row in system.matrix for v in row))


def _torus_images(system, pts):
    """f at every row of pts by the float operations of `forward`: a*x + b*y
    per coordinate, then mod 1."""
    (a, b), (c, d) = system.matrix
    x, y = pts[:, 0], pts[:, 1]
    out = np.stack([float(a) * x + float(b) * y,
                    float(c) * x + float(d) * y], axis=1)
    out %= 1.0
    return out


def _torus_distances(p, q):
    """Row-wise distances by the float operations of `torus_metric`, so each
    equals the scalar metric's value exactly."""
    t = np.abs(p - q)
    t %= 1.0
    t = np.minimum(t, 1.0 - t)
    return np.sqrt(t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1])


def _ball_edges(system, nodes, D):
    """Edge arrays (src, dst) of {(i, j) : D.accepts(f(x_i), x_j)} for a
    metric ball that `_array_ball` accepts, over nodes that are pairs of
    finite floats; None when any of that fails.

    Candidates come from one sorted hash of the nodes' cells, with cells
    wider than the radius by `_CELL_ROOM` times the largest coordinate, so
    every node within the radius of an image sits in one of the 3 x 3 cells
    around it; then every candidate pair is measured with
    `_torus_distances` and kept when closer than delta.
    """
    if not _array_ball(system, D) or not all(
            type(p) is tuple and len(p) == 2
            and type(p[0]) is float and type(p[1]) is float for p in nodes):
        return None
    pts = np.array(nodes, dtype=float)
    images = _torus_images(system, pts)
    if not (np.isfinite(pts).all() and np.isfinite(images).all()):
        return None
    delta = D.delta
    room = _CELL_ROOM * (1.0 + float(np.abs(pts).max()))
    # wider cells only add candidates; the cap keeps the flat keys in int64
    ncells = min(1 << 30, max(1, int(1.0 / (delta + room))))
    width = 1.0 / ncells
    node_keys = (np.floor((pts % 1.0) / width) % ncells).astype(np.int64)
    image_keys = (np.floor(images / width) % ncells).astype(np.int64)
    flat = node_keys[:, 0] * ncells + node_keys[:, 1]
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    steps = np.unique(np.array([-1, 0, 1]) % ncells)
    starts, counts = [], []
    for dx in steps:
        for dy in steps:
            key = ((image_keys[:, 0] + dx) % ncells * ncells
                   + (image_keys[:, 1] + dy) % ncells)
            first = np.searchsorted(flat, key, "left")
            starts.append(first)
            counts.append(np.searchsorted(flat, key, "right") - first)
    starts, counts = np.stack(starts, axis=1), np.stack(counts, axis=1)
    per_image = counts.sum(axis=1)
    reach = np.cumsum(per_image)
    src_parts, dst_parts = [], []
    begin = 0
    while begin < len(nodes):
        done = int(reach[begin - 1]) if begin else 0
        end = max(begin + 1,
                  int(np.searchsorted(reach, done + _PAIR_BATCH, "right")))
        dst = order[_concat_ranges(starts[begin:end].ravel(),
                                   counts[begin:end].ravel())]
        src = np.repeat(np.arange(begin, end), per_image[begin:end])
        keep = _torus_distances(images[src], pts[dst]) < delta
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
        begin = end
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def torus_grid_graph(system, n, delta, entourage_id=None):
    """Chain graph of a torus automorphism on the n x n lattice, built with
    integer arithmetic only.

    The lattice is invariant under integer matrices, so f(node) is again a
    lattice point and the delta-ball around it is a fixed set of integer
    offsets; the edges are one broadcast of the lattice images against the
    offset table, mod n, and no floating-point distances enter.
    """
    (a, b), (c, d) = ((v % n for v in row) for row in system.matrix)
    reach = int(delta * n) + 1
    offsets = set()
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            wi = min(di % n, (-di) % n) / n
            wj = min(dj % n, (-dj) % n) / n
            if math.sqrt(wi * wi + wj * wj) < delta:
                offsets.add((di % n, dj % n))
    if n * n > np.iinfo(np.int32).max:
        raise ValueError("The lattice has too many nodes for int32 CSR.")
    di, dj = np.array(sorted(offsets), dtype=np.int32).reshape(-1, 2).T
    row, col = np.divmod(np.arange(n * n, dtype=np.int64), n)
    fi = ((a * row + b * col) % n).astype(np.int32)
    fj = ((c * row + d * col) % n).astype(np.int32)
    indices = (fi[:, None] + di) % n * n + (fj[:, None] + dj) % n
    indices.sort(axis=1)
    indptr = np.arange(n * n + 1, dtype=np.int64) * len(di)
    if indptr[-1] > np.iinfo(np.int32).max:
        raise ValueError("The chain graph has too many edges for int32 CSR.")
    nodes = tuple((i / n, j / n) for i in range(n) for j in range(n))
    return ChainGraph(nodes, indptr.astype(np.int32), indices.ravel(),
                      entourage_id or f"ball({delta!r})")


# ---------------------------------------------------------------------------
# strongly connected components, iterative


def strongly_connected_components(indptr, indices):
    """Tarjan's algorithm with an explicit stack; safe on graphs whose
    longest path is proportional to the node count. The successors of v are
    indices[indptr[v]:indptr[v + 1]]; pass plain Python sequences (a list,
    a memoryview), which index far faster than numpy arrays."""
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
    keeps them in one SCC. Each step refines the running cells with that
    step's SCC labels: `np.unique` on the pair (cell, label) of each node,
    packed into one int64.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("The entourage ladder is empty.")
    nodes = graphs[0].nodes
    for g in graphs[1:]:
        if g.nodes != nodes:
            raise ValueError("Ladder graphs disagree on the node set.")

    recurrent = np.ones(len(nodes), dtype=bool)
    cells = np.zeros(len(nodes), dtype=np.int64)  # running cell of each node
    history = []
    stabilization = None
    for step, g in enumerate(graphs):
        kept = recurrent & g.recurrent_mask()
        pairs = cells[kept] * len(g.scc()) + g.component_labels()[kept]
        distinct, inverse = np.unique(pairs, return_inverse=True)
        cells[kept] = inverse
        count = len(distinct)
        # cells only split from step to step, so on an unchanged recurrent
        # set an unchanged cell count means an unchanged partition
        if (step and stabilization is None and count == history[-1][1]
                and np.array_equal(kept, recurrent)):
            stabilization = step
        recurrent = kept
        history.append((int(recurrent.sum()), count))

    members = np.flatnonzero(recurrent)
    order = np.argsort(cells[members], kind="stable")
    groups = np.split(members[order],
                      np.flatnonzero(np.diff(cells[members][order])) + 1)
    groups = sorted((grp for grp in groups if len(grp)),
                    key=lambda grp: (-len(grp), int(grp[0])))
    return ChainComponentSet(
        recurrent_nodes=frozenset(nodes[i] for i in members.tolist()),
        components=tuple(frozenset(nodes[i] for i in grp.tolist())
                         for grp in groups),
        entourage_ladder=tuple(g.entourage_id for g in graphs),
        stabilization_index=stabilization,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# nonwandering set


def nonwandering_set(system, samples, probe, horizon):
    """Samples x where some sample in probe[x] returns to probe[x] within
    the horizon: a sound inner approximation of the nonwandering set."""
    if horizon < 1:
        raise ValueError("Horizon must be at least 1.")
    samples = list(samples)
    if isinstance(system, TorusAutomorphism) and isinstance(probe, MetricBall):
        return _nonwandering_torus(system, samples, probe.delta, horizon)
    out = []
    for x in samples:
        section = probe.cross_section(x)
        candidates = [z for z in samples if section.contains(z)]
        found = False
        for z in candidates:
            w = z
            for _ in range(horizon):
                w = system.forward(w)
                if section.contains(w):
                    found = True
                    break
            if found:
                break
        if found:
            out.append(x)
    return frozenset(out)


def _nonwandering_torus(system, samples, radius, horizon):
    pts = np.asarray(samples, dtype=float)
    m = np.asarray(system.matrix, dtype=float).T
    orbits = np.empty((horizon + 1,) + pts.shape)
    orbits[0] = pts
    for k in range(1, horizon + 1):
        orbits[k] = (orbits[k - 1] @ m) % 1.0
    index = _CellIndex([tuple(p) for p in pts], radius, wrap=1.0)
    out = []
    for i, x in enumerate(samples):
        cand = sorted(set(index.near(x)))
        gap = np.abs(pts[cand] - pts[i])
        gap = np.minimum(gap, 1.0 - gap)
        inside = np.sqrt((gap ** 2).sum(axis=1)) < radius
        cand = [c for c, keep in zip(cand, inside) if keep]
        if not cand:
            continue
        tail = orbits[1:, cand, :]
        gap = np.abs(tail - pts[i])
        gap = np.minimum(gap, 1.0 - gap)
        if (np.sqrt((gap ** 2).sum(axis=2)) < radius).any():
            out.append(samples[i])
    return frozenset(out)


# ---------------------------------------------------------------------------
# strong (gauge-weighted) chains


def strong_chain_reachable(system, x, y, gauge, samples):
    """Whether a chain from x to y exists with each step measured against
    the gauge at the mapped point: d(f(u), v) < gauge(f(u))."""
    nodes = list(samples)
    for extra in (x, y):
        if extra not in nodes:
            nodes.append(extra)
    images = {u: system.forward(u) for u in nodes}

    def step_ok(u, v):
        fu = images[u]
        return system.metric(fu, v) < gauge(fu)

    seen = set()
    queue = deque()
    for v in nodes:
        if step_ok(x, v):
            seen.add(v)
            queue.append(v)
    while queue:
        u = queue.popleft()
        for v in nodes:
            if v not in seen and step_ok(u, v):
                seen.add(v)
                queue.append(v)
    return y in seen


def strong_chain_recurrent_set(system, samples, gauge):
    """Samples that reach themselves through a gauge-weighted chain."""
    return frozenset(
        x for x in samples if strong_chain_reachable(system, x, x, gauge, samples)
    )


# ---------------------------------------------------------------------------
# reporting


def _component_diameter(system, comp, cap=1200):
    pts = sorted(comp, key=repr)
    if len(pts) > cap:
        stride = len(pts) // 512 + 1
        pts = pts[::stride]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = system.metric(pts[i], pts[j])
            if d > best:
                best = d
    return best


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
    rows = []
    for k, comp in enumerate(ccs.components):
        rows.append((k, len(comp), repr(_component_diameter(system, comp))))
    rep.add_table("components", ("id", "nodes", "diameter"), rows)
    return rep
