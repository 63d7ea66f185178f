import itertools
import math
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topodyn.chains import (
    ChainGraph,
    build_chain_graph,
    chain_components,
    chain_recurrent_set,
    component_report,
    is_chain,
    nonwandering_set,
    strong_chain_reachable,
    strong_chain_recurrent_set,
    torus_grid_graph,
)
from topodyn import chains
from topodyn.chains import _array_ball, _near_pairs
from topodyn.cli import main
from topodyn.entourage import (
    GaugeBall,
    finite_relation,
    gauge_entourage,
    metric_ball,
)
from topodyn.spectral import spectral_decompose, symbol_graph_chain
from topodyn.systems import (
    catalog,
    harmonic_points,
    linear_hyperbolic,
    permutation_from_cycles,
    sft_shift,
    torus_automorphism,
    torus_grid,
)

CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")


def reach_closure(adjacency):
    """Boolean transitive closure by repeated squaring-free relaxation.

    Deliberately naive; this is the oracle the SCC machinery is checked
    against, so it shares no code with it.
    """
    n = len(adjacency)
    reach = [[bool(v) for v in row] for row in adjacency]
    for _ in range(n):
        for a in range(n):
            for c in range(n):
                if reach[a][c]:
                    for b in range(n):
                        if reach[c][b]:
                            reach[a][b] = True
    return reach


def oracle_partition(adjacency):
    """Cycle-containing mutual-reachability classes, straight from the
    definitions."""
    n = len(adjacency)
    reach = reach_closure(adjacency)
    recurrent = [a for a in range(n) if reach[a][a]]
    classes = set()
    for a in recurrent:
        members = frozenset(
            b for b in recurrent if reach[a][b] and reach[b][a]
        ) | {a}
        classes.add(frozenset(members))
    return frozenset(classes), frozenset(recurrent)


def random_digraph(rng, n):
    return tuple(
        tuple(1 if rng.random() < 0.25 else 0 for _ in range(n))
        for _ in range(n)
    )


def as_successor_lists(matrix):
    return tuple(
        tuple(j for j, v in enumerate(row) if v) for row in matrix
    )


def test_scc_matches_reachability_oracle():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(1, 12)
        matrix = random_digraph(rng, n)
        graph = ChainGraph.from_successors(tuple(range(n)),
                                           as_successor_lists(matrix), "test")
        classes, recurrent = oracle_partition(matrix)
        assert graph.recurrent_indices() == recurrent, trial
        got = frozenset(
            frozenset(c) for c in graph.scc()
            if any(i in recurrent for i in c)
        )
        assert got == classes, trial


def test_scc_handles_long_path_iteratively():
    # a path of 30000 nodes would blow the recursion limit if Tarjan
    # recursed; the iterative form must cope
    n = 30000
    graph = ChainGraph.from_successors(
        tuple(range(n)),
        ((i + 1,) if i < n - 1 else () for i in range(n)),
        "path",
    )
    assert graph.recurrent_indices() == frozenset()
    assert len(graph.scc()) == n


def test_build_chain_graph_matches_definition():
    nodes = torus_grid(6)
    D = metric_ball(CAT, 0.21)
    graph = build_chain_graph(CAT, nodes, D)
    for i, u in enumerate(nodes):
        fu = CAT.forward(u)
        for j, v in enumerate(nodes):
            want = D.accepts(fu, v)
            assert graph.has_edge(i, j) == want, (u, v)


def test_torus_grid_graph_agrees_with_generic_builder():
    # the integer-arithmetic fast path and the float path must produce the
    # same edges when the radius avoids exact grid distances
    n, delta = 8, 0.13
    fast = torus_grid_graph(CAT, n, delta)
    slow = build_chain_graph(CAT, torus_grid(n), metric_ball(CAT, delta))
    assert fast.nodes == slow.nodes
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)


def test_csr_graph_api():
    graph = ChainGraph.from_successors("abcd", [(2, 1, 2), (), (0, 3), (3,)],
                                       "test")
    assert graph.indptr.dtype == np.int32 and graph.indices.dtype == np.int32
    assert graph.indptr.tolist() == [0, 2, 2, 4, 5]
    assert graph.edge_count == 5
    assert graph.successors(0) == (1, 2)
    assert graph.successors(1) == ()
    assert graph.has_edge(2, 3) and not graph.has_edge(3, 2)
    assert [graph.successors(i) for i in range(4)] == [(1, 2), (), (0, 3), (3,)]
    assert graph.recurrent_indices() == frozenset({0, 2, 3})
    assert graph.to_text() == "0: 1 2\n1: \n2: 0 3\n3: 3\n"
    with pytest.raises(ValueError):
        ChainGraph.from_successors("ab", [(1,), (2,)], "test")
    with pytest.raises(ValueError):
        ChainGraph.from_successors("ab", [(1,)], "test")


@pytest.mark.parametrize("rows", [
    [[1.5], [True]], [[1.0], [0]], [[1], [True]], [[True, 1], [0]],
    [[np.float64(1)], [0]], [["1"], [0]], [[np.bool_(True)], [0]]],
    ids=["float-and-bool", "float", "bool", "bool-beside-its-int",
         "numpy-float", "text", "numpy-bool"])
def test_from_successors_refuses_a_successor_that_is_not_an_int(rows):
    """An int64 edge array would truncate 1.5 to node 1 and read True as
    node 1, so any index that is not an int or a numpy integer is refused,
    even beside the int it equals."""
    with pytest.raises(ValueError, match="not an int index"):
        ChainGraph.from_successors("ab", rows, "x")
    graph = ChainGraph.from_successors(
        "ab", [[np.int64(1)], [np.int32(1), 0]], "x")
    assert [graph.successors(i) for i in range(2)] == [(1,), (0, 1)]


def _lexsort_csr(node_count, src, dst):
    """CSR arrays by a stable sort on (source, target) pairs."""
    order = np.lexsort((dst, src))
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, np.asarray(dst)[order]


def test_csr_matches_a_lexsort_reference():
    """Random edge lists with repeated edges, empty lists, node counts 0 and
    1, and int32 ends whose keys src * node_count + dst pass 2^31."""
    rng = np.random.default_rng(41)
    cases = [(0, 0, np.int64), (1, 0, np.int64), (1, 5, np.int64),
             (3, 0, np.int32), (70000, 3000, np.int32)]
    cases += [(int(rng.integers(1, 400)), int(rng.integers(0, 4000)), np.int64)
              for _ in range(40)]
    for node_count, edges, dtype in cases:
        src = rng.integers(0, max(node_count, 1), edges).astype(dtype)
        dst = rng.integers(0, max(node_count, 1), edges).astype(dtype)
        indptr, indices = chains._csr(node_count, src, dst)
        want_ptr, want_indices = _lexsort_csr(node_count, src, dst)
        assert indptr.dtype == np.int32 and indices.dtype == np.int32
        assert indptr.tolist() == want_ptr.tolist()
        assert indices.tolist() == want_indices.tolist()


def _recurrent_by_edges(graph):
    """The recurrent mask by one test per edge: an SCC of size >= 2, or an
    edge from a node to itself."""
    labels = graph.component_labels()
    mask = np.bincount(labels, minlength=1)[labels] >= 2
    for i in range(graph.node_count):
        if i in graph.successors(i):
            mask[i] = True
    return mask


def test_recurrent_mask_matches_a_per_edge_reference():
    """Random CSR graphs whose rows may repeat a self-loop, with self-loops
    on nodes alone in their SCC and on nodes of larger SCCs."""
    rng = random.Random(43)
    loops_seen = set()
    for trial in range(300):
        n = rng.randint(0, 40)
        density = rng.choice((0.02, 0.05, 0.15))
        rows = [[j for j in range(n) if rng.random() < density]
                + [i] * rng.choice((0, 0, 1, 2)) for i in range(n)]
        src = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in rows])
        dst = np.array([j for r in rows for j in r], dtype=np.int64)
        graph = ChainGraph(tuple(range(n)), *chains._csr(n, src, dst), "test")
        assert graph.recurrent_mask().tolist() == (
            _recurrent_by_edges(graph).tolist()), trial
        labels = graph.component_labels()
        sizes = np.bincount(labels, minlength=1)[labels]
        loops_seen |= {int(sizes[i]) == 1 for i in range(n)
                       if i in graph.successors(i)}
    assert loops_seen == {True, False}


def test_strong_connectivity_sweep_matches_scc():
    rng = random.Random(7)
    for trial in range(80):
        n = rng.randint(1, 10)
        matrix = tuple(tuple(1 if rng.random() < 0.3 else 0 for _ in range(n))
                       for _ in range(n))
        graph = ChainGraph.from_successors(range(n),
                                           as_successor_lists(matrix), "test")
        want = len(graph.scc()) == 1
        assert graph.is_strongly_connected() == want, trial


def _edge_set(graph):
    return {(i, j) for i in range(graph.node_count) for j in graph.successors(i)}


def _brute_edges(system, nodes, D):
    return {(i, j) for i, x in enumerate(nodes) for j, y in enumerate(nodes)
            if D.accepts(system.forward(x), y)}


SADDLE = linear_hyperbolic(((2.0, 1.0), (1.0, 1.0)), name="saddle")
PROPERTY = settings(max_examples=60)


UNIMODULAR = [m for m in itertools.product(range(-3, 4), repeat=4)
              if abs(m[0] * m[3] - m[1] * m[2]) == 1]


@st.composite
def _lattice_graphs(draw):
    """A random integer matrix with entries in -3..3 and |det| = 1, which
    permutes every lattice, hyperbolic or not (the identity and the shears
    give many SCCs); a grid size; and a radius from below one cell (O = {0},
    so the SCCs are the periodic orbits) up to 0.5, capped so that Tarjan
    stays quick. The lattice graph reads only the matrix."""
    a, b, c, d = draw(st.sampled_from(UNIMODULAR))
    n = draw(st.integers(1, 130))
    # about pi cells^2 offsets per node, so about 3 * 10^4 edges at most
    cells = min(n / 2, 100 / n)
    radius = draw(st.floats(0.05, cells)) / n
    return SimpleNamespace(matrix=((a, b), (c, d))), n, radius


@PROPERTY
@given(_lattice_graphs())
def test_lattice_scc_labels_match_tarjan(case):
    system, n, radius = case
    graph = torus_grid_graph(system, n, radius)
    oracle = ChainGraph(graph.nodes, graph.indptr, graph.indices, "oracle")
    want = _partition(oracle.component_labels())
    assert _partition(graph.component_labels()) == want
    assert set(graph.scc()) == want
    assert np.array_equal(graph.recurrent_mask(), oracle.recurrent_mask())


@PROPERTY
@given(st.sampled_from(UNIMODULAR), st.integers(1, 60),
       st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=3))
def test_lattice_scc_labels_match_tarjan_on_any_offset_table(matrix, n, extra):
    # a round ball holds either no offset but 0 or the unit offsets, whose
    # invariant subgroup is everything; other tables reach proper subgroups
    # (a lattice basis with b != 0 and 1 < a < n)
    table = sorted({(0, 0)} | {(u % n, v % n) for u, v in extra})
    di, dj = (np.array(c, dtype=np.int32) for c in zip(*table))
    system = SimpleNamespace(matrix=(matrix[:2], matrix[2:]))
    (a, b), (c, d) = system.matrix
    rows = [sorted({((a * i + b * j + u) % n) * n + (c * i + d * j + v) % n
                    for u, v in table}) for i in range(n) for j in range(n)]
    oracle = ChainGraph.from_successors(range(n * n), rows, "oracle")
    assert _partition(chains._lattice_scc_labels(system, n, di, dj)) == (
        _partition(oracle.component_labels()))


def _partition(labels):
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return {frozenset(part.tolist()) for part in np.split(order, cuts)}


def test_torus_graphs_never_reach_tarjan(capsys):
    with mock.patch.object(chains, "strongly_connected_components",
                           side_effect=AssertionError):
        decomposition = spectral_decompose(CAT, resolution=64)
        assert decomposition.validate(CAT) == []
        assert main(["chain-recurrent", "cat-map", "--radius", "0.1",
                     "--resolution", "24"]) == 0
    assert "symmetric_difference: 0" in capsys.readouterr().out


@PROPERTY
@given(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
                min_size=1, max_size=50),
       st.floats(0.005, 0.8))
def test_array_ball_graph_matches_pairwise_predicate_on_torus(points, radius):
    D = metric_ball(CAT, radius)
    assert _array_ball(CAT, D, tuple(points))
    graph = build_chain_graph(CAT, points, D)
    assert _edge_set(graph) == _brute_edges(CAT, points, D)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=50),
       st.floats(0.005, 2.0))
def test_cell_index_ball_graph_matches_pairwise_predicate_on_plane(points, radius):
    # planar balls take the shared hash with the per-pair predicate
    D = metric_ball(SADDLE, radius)
    assert not _array_ball(SADDLE, D, tuple(points))
    graph = build_chain_graph(SADDLE, points, D)
    assert _edge_set(graph) == _brute_edges(SADDLE, points, D)


@pytest.mark.parametrize("delta, lift", [(0.000999999998, 2.0 ** 20),
                                         (0.000999999998, 1e12),
                                         (1e-9, 3.0)])
def test_array_ball_graph_keeps_pairs_at_cell_edges(delta, lift):
    # images just below a cell boundary, and lifted nodes whose distance
    # to them rounds across the radius: the cell hash must still reach every
    # node the float predicate accepts
    nodes = []
    for k in range(1, 6):
        y = (k / 1000.0 - 1e-13, 0.3)
        x = ((y[0] - y[1]) % 1.0, (2 * y[1] - y[0]) % 1.0)  # inverse cat map
        fx = CAT.forward(x)
        nodes.append(x)
        nodes.extend((lift + fx[0] + delta + m * 2.0 ** -34, fx[1])
                     for m in range(-12, 13))
    D = metric_ball(CAT, delta)
    assert _array_ball(CAT, D, tuple(nodes))
    graph = build_chain_graph(CAT, nodes, D)
    assert _edge_set(graph) == _brute_edges(CAT, nodes, D)


def test_ball_graph_keeps_scalar_route_for_other_metrics():
    # a ball in another metric than the system's goes pair by pair: its
    # radius says nothing about distances in the embedding
    plane = catalog()["plane-two-metrics"].build()
    far = [(2.0 ** 20 + k, 0.0) for k in range(5)] + [(0.5 * k, 0.25)
                                                     for k in range(5)]
    double = metric_ball(CAT, 0.2, metric=lambda x, y: CAT.metric(x, y) * 2.0)
    half = metric_ball(CAT, 0.2, metric=lambda x, y: CAT.metric(x, y) * 0.5)
    sphere = metric_ball(plane, 0.1, metric=plane.metrics["sphere"])
    for system, nodes, D in ((CAT, torus_grid(5), double),
                             (CAT, torus_grid(10), half), (plane, far, sphere)):
        assert not _array_ball(system, D, nodes)
        graph = build_chain_graph(system, nodes, D)
        assert _edge_set(graph) == _brute_edges(system, nodes, D)


def test_ball_on_an_equal_torus_map_takes_the_array_route():
    # a ball made on a second, equal cat map measures in the same metric,
    # so it keeps the array route and never calls the per-pair predicate
    D = metric_ball(torus_automorphism(((2, 1), (1, 1)), name="cat-map"), 0.1)
    nodes = torus_grid(12)
    assert _array_ball(CAT, D, nodes)
    with mock.patch.object(D, "accepts", side_effect=AssertionError):
        graph = build_chain_graph(CAT, nodes, D)
    assert _edge_set(graph) == _brute_edges(CAT, nodes, D)


def _gauge_at_arrival(system):
    # radius 0.02 to 0.14 by sample, read at the arrival point
    def gauge(y):
        return 0.02 + 0.12 * abs(math.sin(7.0 * sum(system.embed(y))))
    return GaugeBall(system.metric, gauge, space_id=system.space_id,
                     at_arrival=True, sup_bound=0.14)


@pytest.mark.parametrize("name", ["cat-map", "diag-saddle", "north-south",
                                  "strips-unit"])
def test_at_arrival_gauge_graph_matches_pairwise_predicate(name):
    # a bounded gauge read at arrival has a radius, so its graph is built
    # from the shared hash; it must keep every pair the predicate accepts
    system = catalog()[name].build()
    rng = random.Random(5)
    if name == "north-south":
        nodes = [rng.uniform(-1.0, 1.0) for _ in range(150)]
    elif name == "strips-unit":
        nodes = [(rng.randint(-2, 2), rng.random()) for _ in range(150)]
    else:
        nodes = [(rng.random(), rng.random()) for _ in range(150)]
    D = _gauge_at_arrival(system)
    assert D.radius == 0.14
    graph = build_chain_graph(system, nodes, D)
    assert _edge_set(graph) == _brute_edges(system, nodes, D)
    assert graph.edge_count > len(nodes) // 2


_SEAM = (0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
         math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0))


@st.composite
def _clouds(draw):
    dim = draw(st.sampled_from([1, 2]))
    wrap = draw(st.booleans())
    radius = draw(st.one_of(st.sampled_from([1e-9, 1e-6, 1e-3]),
                            st.floats(1e-9, 0.7)))
    lift = draw(st.sampled_from([0.0, 1.0, -3.0, 2.0 ** 20, 1e12]))
    coord = st.one_of(st.floats(-1.5, 1.5), st.sampled_from(_SEAM))
    points = draw(st.lists(st.tuples(*[coord.map(lambda v: v + lift)] * dim),
                           min_size=1, max_size=25))
    near = st.builds(
        lambda p, s, w: tuple(c + t * radius + w for c, t in zip(p, s)),
        st.sampled_from(points), st.tuples(*[st.floats(-1.5, 1.5)] * dim),
        st.sampled_from([0.0, 1.0, -1.0]))
    queries = draw(st.lists(st.one_of(near, st.tuples(*[coord] * dim)),
                            min_size=1, max_size=25))
    return np.array(points), np.array(queries), radius, wrap


def _embedding_distance(p, q, wrap):
    gaps = [a - b for a, b in zip(p, q)]
    if wrap:
        gaps = [min(t, 1.0 - t) for t in (abs(g) % 1.0 for g in gaps)]
    return math.sqrt(sum(t * t for t in gaps))


@PROPERTY
@given(_clouds(), st.sampled_from([3, 1 << 18]))
def test_near_pairs_cover_every_close_pair(cloud, batch):
    points, queries, radius, wrap = cloud
    with mock.patch.object(chains, "_PAIR_BATCH", batch):
        batches = list(_near_pairs(points, queries, radius, wrap))
    assert all(len(q) == len(p) <= batch for q, p in batches)
    q = np.concatenate([q for q, _ in batches])
    p = np.concatenate([p for _, p in batches])
    assert np.all(np.diff(q) >= 0)  # queries in order
    found = set(zip(q.tolist(), p.tolist()))
    assert len(found) == len(q)  # no pair twice
    want = {(i, j) for i, a in enumerate(queries.tolist())
            for j, b in enumerate(points.tolist())
            if _embedding_distance(a, b, wrap) < radius}
    assert want <= found


def test_near_pairs_split_a_crowded_query():
    # one query with more candidates than a batch holds is split across
    # batches; the other queries stay whole
    points = np.random.default_rng(3).random((40, 2))
    queries = np.array([[0.5, 0.5], [0.2, 0.2]])
    with mock.patch.object(chains, "_PAIR_BATCH", 16):
        batches = list(_near_pairs(points, queries, 0.9, True))
    sizes = [(sorted(set(q.tolist())), len(q)) for q, _ in batches]
    assert sizes == [([0], 16), ([0], 16), ([0], 8), ([1], 16), ([1], 16),
                     ([1], 8)]


def test_ladder_graphs_share_the_lattice_nodes():
    graphs = [torus_grid_graph(CAT, 12, r) for r in (0.3, 0.15)]
    assert graphs[0].nodes is graphs[1].nodes is torus_grid(12)


# the hyperbolic ones, which `torus_automorphism` takes: |trace| > 2 at
# determinant 1, and a nonzero trace at determinant -1
HYPERBOLIC = [m for m in UNIMODULAR if abs(m[0] + m[3]) > 2
              or (m[0] * m[3] - m[1] * m[2] == -1 and m[0] + m[3])]


@PROPERTY
@given(st.integers(3, 40).filter(lambda n: n & (n - 1)),
       st.floats(0.01, 0.6), st.sampled_from(HYPERBOLIC))
def test_torus_grid_graph_matches_generic_builder_off_dyadic_grids(n, delta,
                                                                   matrix):
    # the radius must avoid exact grid distances, where float rounding of
    # the generic builder's images would decide the edge
    gaps = [abs(delta * n - math.hypot(p, q))
            for p in range(n + 1) for q in range(n + 1)]
    assume(min(gaps) > 1e-6)
    system = torus_automorphism((matrix[:2], matrix[2:]))
    fast = torus_grid_graph(system, n, delta)
    slow = build_chain_graph(system, torus_grid(n), metric_ball(system, delta))
    assert fast.nodes == slow.nodes
    # the lattice graph counts its edges before it builds them
    assert fast.edge_count == slow.edge_count
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)


@pytest.mark.parametrize("n, delta", [(1, 0.5), (12, 0.3), (64, 1 / 16),
                                      (64, 1e-3), (30, 0.0)])
def test_lattice_edge_count_needs_no_build(n, delta):
    """edge_count is n^2 |O| before the CSR arrays exist and indptr[-1]
    once they do; the labels and the recurrent mask build no row, and the
    mask equals the one read from the built rows."""
    graph = torus_grid_graph(CAT, n, delta)
    table = len(chains._lattice_offsets(n, delta)[0])
    mask = graph.recurrent_mask()
    assert graph._csr_arrays is None
    assert graph.edge_count == n * n * table
    assert int(graph.indptr[-1]) == graph.edge_count == len(graph.indices)
    assert graph._csr_arrays is not None
    oracle = ChainGraph(graph.nodes, graph.indptr, graph.indices, "oracle",
                        labels=graph.labels)
    assert np.array_equal(oracle.recurrent_mask(), mask)


def test_a_ball_on_a_twin_saddle_takes_the_near_pairs_route(monkeypatch):
    """A ball built on a second, equal instance of a saddle is in the
    saddle's own metric, so its candidate pairs come from `_near_pairs`, as
    for the saddle's own ball, and the two graphs are equal."""
    twin = linear_hyperbolic(((2.0, 1.0), (1.0, 1.0)), name="saddle")
    searches = []
    real = chains._near_pairs
    monkeypatch.setattr(chains, "_near_pairs",
                        lambda *args: searches.append(args) or real(*args))
    samples = [(i / 7, j / 7) for i in range(7) for j in range(7)]
    own = build_chain_graph(SADDLE, samples, metric_ball(SADDLE, 0.3))
    graph = build_chain_graph(SADDLE, samples, metric_ball(twin, 0.3))
    assert len(searches) == 2
    assert np.array_equal(own.indptr, graph.indptr)
    assert np.array_equal(own.indices, graph.indices)


def test_decompose_builds_the_lattice_csr_of_the_walked_rung_only(monkeypatch):
    """Only the stabilization rung of the torus ladder is walked, so its
    graph and its reverse, the lattice graph of the inverse matrix, are the
    two lattice CSRs built; the wider rung 0 builds none."""
    built = []
    real = chains._lattice_csr

    def counted(matrix, n, di, dj):
        built.append((matrix, n, len(di)))
        return real(matrix, n, di, dj)

    monkeypatch.setattr(chains, "_lattice_csr", counted)
    dec = spectral_decompose(CAT, resolution=64)
    step = dec.stabilization_index
    assert step == 1
    walked = len(chains._lattice_offsets(64, dec.ladder[step])[0])
    assert sorted(built) == [(((1, -1), (-1, 2)), 64, walked),
                             (CAT.matrix, 64, walked)]


@PROPERTY
@given(_lattice_graphs())
def test_lattice_reverse_matches_the_generic_reverse(case):
    """The reverse of x -> A x + O is the lattice graph of A^-1 with the
    offsets -A^-1 O, built with no key sort; on random unimodular matrices,
    the hyperbolic ones among them, and random sizes and radii its arrays
    equal the generic reverse's, dtypes included."""
    system, n, radius = case
    graph = torus_grid_graph(system, n, radius)
    generic = ChainGraph(graph.nodes, graph.indptr, graph.indices,
                         "oracle").reversed_csr()
    for got, want in zip(graph.reversed_csr(), generic, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_is_chain():
    D = metric_ball(CAT, 0.05)
    x = (0.2, 0.7)
    seq = [x, CAT.forward(x), CAT.forward(CAT.forward(x))]
    assert is_chain(CAT, seq, D)
    seq[2] = ((seq[2][0] + 0.2) % 1.0, seq[2][1])
    assert not is_chain(CAT, seq, D)


def test_two_block_symbol_recurrence():
    sft = sft_shift(("110001", "110000", "000100", "000010", "001000",
                     "001000"), name="two-block-sft")
    graph = symbol_graph_chain(sft)
    assert chain_recurrent_set(graph) == frozenset({0, 1, 2, 3, 4})


def test_chain_components_ladder_stabilization():
    graphs = [torus_grid_graph(CAT, 16, r) for r in (0.25, 0.125, 0.0625)]
    ccs = chain_components(graphs)
    assert len(ccs.recurrent_nodes) == 256
    assert ccs.stabilization_index == 1
    assert ccs.history[0] == (256, 1)
    assert ccs.history[1] == (256, 1)
    # .components accumulates every ladder step; the partition at the
    # stabilized scale comes from truncating the ladder there
    stabilized = chain_components(graphs[:ccs.stabilization_index + 1])
    assert len(stabilized.components) == 1


def _reference_ladder(graphs):
    """The ladder intersection from its definition: a node's key is the
    tuple of its SCC indices so far, cells group equal keys, and a step
    stabilizes when its cells equal the previous step's."""
    recurrent, labels, history, stabilization, previous = None, {}, [], None, None
    for step, g in enumerate(graphs):
        comp_of = {v: k for k, comp in enumerate(g.scc()) for v in comp}
        rec = g.recurrent_indices()
        recurrent = rec if recurrent is None else recurrent & rec
        labels = {i: labels.get(i, ()) + (comp_of[i],) for i in recurrent}
        cells = {}
        for i, key in labels.items():
            cells.setdefault(key, set()).add(i)
        snapshot = frozenset(frozenset(c) for c in cells.values())
        history.append((len(recurrent), len(snapshot)))
        if previous is not None and snapshot == previous and stabilization is None:
            stabilization = step
        previous = snapshot
    order = sorted(previous, key=lambda c: (-len(c), min(c)))
    return tuple(order), tuple(history), stabilization


def test_chain_components_match_reference_on_random_ladders():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(1, 14)
        edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.35}
        graphs = []
        for _ in range(rng.randint(1, 4)):
            graphs.append(ChainGraph.from_successors(
                range(n), [[j for a, j in edges if a == i] for i in range(n)],
                "test"))
            if rng.random() < 0.6:
                edges = {e for e in edges if rng.random() < 0.8}
        ccs = chain_components(graphs)
        components, history, stabilization = _reference_ladder(graphs)
        assert ccs.components == tuple(frozenset(c) for c in components), trial
        assert ccs.history == history, trial
        assert ccs.stabilization_index == stabilization, trial
        assert ccs.recurrent_nodes == frozenset().union(*components), trial


def test_chain_components_needs_shared_nodes():
    g1 = torus_grid_graph(CAT, 8, 0.2)
    g2 = torus_grid_graph(CAT, 16, 0.2)
    with pytest.raises(ValueError):
        chain_components([g1, g2])


def test_nonwandering_three_cycle():
    perm = permutation_from_cycles([("a", "b", "c")])
    probe = finite_relation({(x, x) for x in perm.points},
                            space_id=perm.space_id, points=perm.points)
    omega = nonwandering_set(perm, perm.points, probe, horizon=4)
    assert omega == frozenset(perm.points)


def _direct_nonwandering(nodes, probe, horizon):
    out = []
    for x in nodes:
        near = [u for u in nodes if probe.accepts(x, u)]
        hit = False
        for u in near:
            z = u
            for _ in range(horizon):
                z = CAT.forward(z)
                if probe.accepts(x, z):
                    hit = True
                    break
            if hit:
                break
        if hit:
            out.append(x)
    return frozenset(out)


def test_nonwandering_torus_fast_path_matches_direct():
    nodes = torus_grid(8)
    probe = metric_ball(CAT, 0.26)
    fast = nonwandering_set(CAT, nodes, probe, horizon=12)
    assert fast == _direct_nonwandering(nodes, probe, 12)


def test_nonwandering_probe_in_another_metric_is_not_a_torus_ball():
    # a ball in half the cat-map metric must not be measured in the torus
    # metric itself: it takes the generic loop
    rng = random.Random(3)
    nodes = [(rng.random(), rng.random()) for _ in range(64)]
    half = metric_ball(CAT, 0.1, metric=lambda x, y: 0.5 * CAT.metric(x, y))
    omega = nonwandering_set(CAT, nodes, half, horizon=4)
    assert omega == _direct_nonwandering(nodes, half, 4)
    assert len(omega) > len(nonwandering_set(CAT, nodes, metric_ball(CAT, 0.1),
                                             horizon=4))


def test_nonwandering_rejects_zero_horizon():
    with pytest.raises(ValueError):
        nonwandering_set(CAT, torus_grid(4), metric_ball(CAT, 0.3), horizon=0)


def _lattice_nonwandering_reference(matrix, n, radius, horizon):
    """The probe from its definition on the lattice, in integers: x is kept
    when some z = x + o, o in the ball, has an orbit point A^k z with
    1 <= k <= horizon back in x's ball. The ball is decided in exact
    rationals: o = (di, dj) with |di|^2 + |dj|^2 < (radius n)^2, each the
    shorter way round."""
    bound = (Fraction(radius) * n) ** 2
    ball = np.zeros((n, n), dtype=bool)
    for di in range(n):
        for dj in range(n):
            ball[di, dj] = min(di, n - di) ** 2 + min(dj, n - dj) ** 2 < bound
    (a, b), (c, d) = matrix
    i, j = np.divmod(np.arange(n * n), n)
    kept = np.zeros(n * n, dtype=bool)
    for oi, oj in zip(*np.nonzero(ball)):
        u, v = (i + oi) % n, (j + oj) % n
        for _ in range(horizon):
            u, v = (a * u + b * v) % n, (c * u + d * v) % n
            kept |= ball[(u - i) % n, (v - j) % n]
    return frozenset(torus_grid(n)[k] for k in np.flatnonzero(kept).tolist())


@pytest.mark.parametrize("n, radius, horizon", [
    (100, 0.005, 128), (90, 0.005, 50), (60, 0.01, 40), (50, 0.03, 4),
    (36, 0.045, 3), (70, 0.02, 6)])
def test_lattice_probe_matches_integer_reference(n, radius, horizon):
    # at non-dyadic n a float orbit is noise after about 35 steps, so the
    # probe must follow lattice orbits in integers; the last three balls
    # hold 5 to 13 offsets and keep 220, 224 and 148 nodes
    got = nonwandering_set(CAT, torus_grid(n), metric_ball(CAT, radius),
                           horizon=horizon)
    assert got == _lattice_nonwandering_reference(CAT.matrix, n, radius,
                                                  horizon)
    if (n, radius, horizon) == (100, 0.005, 128):
        assert len(got) == 2500


def _lattice_order(matrix, n):
    """The least p >= 1 with A^p = I mod n."""
    (a, b), (c, d) = matrix
    p, (w, x, y, z) = 1, (a % n, b % n, c % n, d % n)
    while (w, x, y, z) != (1 % n, 0, 0, 1 % n):
        w, x, y, z = ((a * w + b * y) % n, (a * x + b * z) % n,
                      (c * w + d * y) % n, (c * x + d * z) % n)
        p += 1
    return p


def test_lattice_probe_stops_at_the_order_of_the_matrix():
    n, probe = 64, metric_ball(CAT, 0.01)
    order = _lattice_order(CAT.matrix, n)
    full = nonwandering_set(CAT, torus_grid(n), probe, horizon=order)
    assert nonwandering_set(CAT, torus_grid(n), probe, horizon=10 ** 9) == full
    # below the order, the nodes of longer period are not seen to return
    assert len(nonwandering_set(CAT, torus_grid(n), probe,
                                horizon=order - 1)) < len(full)


# ---------------------------------------------------------------------------
# strong chain recurrence


def test_harmonic_neighbor_jumps_blocked():
    """The identity on the harmonic points is strong chain recurrent at
    every point, but no point reaches a different one: each jump must beat
    the local gauge, and the gauge shrinks with the gaps."""
    h = harmonic_points()
    samples = h.points(30)
    gauge = lambda x: 0.4 * h.gap_after(h.index_of(x))
    assert strong_chain_recurrent_set(h, samples, gauge) == frozenset(samples)
    assert not strong_chain_reachable(h, samples[0], samples[1], gauge,
                                      samples)
    assert strong_chain_reachable(h, samples[3], samples[3], gauge, samples)


def test_strong_chains_cross_when_gauge_is_generous():
    h = harmonic_points()
    samples = h.points(10)
    gauge = lambda x: 1.5  # larger than every gap in the sample range
    assert strong_chain_reachable(h, samples[0], samples[5], gauge, samples)


def _reachable_by_search(system, x, y, gauge, samples):
    """Reference for strong chains: a breadth-first search from x over the
    samples, x and y, reading the gauge afresh for every pair it tests."""
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


NORTH_SOUTH = catalog()["north-south"].build()
HARMONIC = harmonic_points()


@st.composite
def _strong_chain_cases(draw):
    """A system, samples with repeats, x and y that may lie outside the
    samples, and a gauge that varies from point to point."""
    if draw(st.booleans()):
        system, point = NORTH_SOUTH, st.floats(-1.0, 1.0)
    else:
        system, point = HARMONIC, st.integers(1, 40).map(HARMONIC.point)
    samples = draw(st.lists(point, min_size=1, max_size=16))
    samples += draw(st.lists(st.sampled_from(samples), max_size=4))
    x, y = (draw(st.one_of(st.sampled_from(samples), point)) for _ in range(2))
    base, swing, freq = (draw(st.floats(lo, hi)) for lo, hi in
                         ((0.0, 0.15), (0.0, 0.3), (0.5, 30.0)))
    gauge = lambda p: base + swing * abs(math.sin(freq * p))
    return system, samples, x, y, gauge


@PROPERTY
@given(_strong_chain_cases())
def test_strong_chains_match_a_per_pair_search(case):
    system, samples, x, y, gauge = case
    assert (strong_chain_reachable(system, x, y, gauge, samples)
            == _reachable_by_search(system, x, y, gauge, samples))
    assert strong_chain_recurrent_set(system, samples, gauge) == frozenset(
        u for u in samples if _reachable_by_search(system, u, u, gauge, samples))


def test_gauge_is_read_once_per_image():
    rng = random.Random(8)
    samples = [rng.uniform(-1.0, 1.0) for _ in range(30)]
    samples += samples[:5]
    calls = []

    def gauge(p):
        calls.append(p)
        return 0.02 + 0.1 * abs(math.sin(20.0 * p))

    # strong chains: once per distinct node, and no SCC
    with mock.patch.object(chains, "strongly_connected_components",
                           side_effect=AssertionError):
        strong_chain_recurrent_set(NORTH_SOUTH, samples, gauge)
        assert len(calls) == 30
        calls.clear()
        strong_chain_reachable(NORTH_SOUTH, samples[0], 1.5, gauge, samples)
        assert len(calls) == 31
    # a gauge ball read at departure with no bound: once per graph node
    calls.clear()
    D = gauge_entourage(NORTH_SOUTH, gauge)
    assert D.radius is None
    graph = build_chain_graph(NORTH_SOUTH, samples, D)
    assert len(calls) == len(samples)
    assert _edge_set(graph) == _brute_edges(NORTH_SOUTH, samples, D)
    # read at arrival, the same gauge gives other edges, pair by pair
    arrival = D.transpose()
    assert (_edge_set(build_chain_graph(NORTH_SOUTH, samples, arrival))
            == _brute_edges(NORTH_SOUTH, samples, arrival) != _edge_set(graph))


def test_strong_connectivity_sweep_leaves_numpy_ma_unloaded():
    # a bare np.unique imports numpy.ma on first use (numpy 2.4)
    code = ("import sys\n"
            "from topodyn.chains import ChainGraph\n"
            "g = ChainGraph.from_successors(range(5), "
            "[[1, 2], [2, 3], [3, 1], [4, 2], [0]], 'test')\n"
            "assert g.is_strongly_connected()\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(chains.__file__))
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_gauge_graph_equals_strong_chains_on_a_seeded_mix():
    # two implementations of the same definition: edge iff the jump lands
    # within the gauge read at the arrival image
    ns = catalog()["north-south"].build()
    rng = random.Random(13)
    samples = tuple(sorted(rng.uniform(-1.0, 1.0) for _ in range(40)))
    gauge = lambda x: 0.04 + 0.03 * abs(x)
    D = gauge_entourage(ns, gauge)
    graph = build_chain_graph(ns, samples, D)
    via_graph = chain_recurrent_set(graph)
    direct = strong_chain_recurrent_set(ns, samples, gauge)
    assert via_graph == direct


def test_component_report_renders():
    graphs = [torus_grid_graph(CAT, 8, r) for r in (0.25, 0.125)]
    ccs = chain_components(graphs)
    rep = component_report(CAT, ccs)
    text = rep.to_text()
    assert "recurrent" in text and "[table" in text
