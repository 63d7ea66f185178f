"""Decomposition into basic sets, and the certificates that back it."""

import dataclasses
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import (
    Certificate,
    Report,
    parse_report,
    periodic_density_certificate,
    permutation_from_cycles,
    sft_shift,
    spectral_decompose,
    symbol_graph_chain,
    torus_automorphism,
    transitivity_certificate,
)
from topodyn.entourage import metric_ball
from topodyn.chains import ChainGraph, torus_grid_graph
from topodyn.spectral import CertificateError, CycleDemo, WalkDemo, _bfs_path
from topodyn.spectral import LatticeCycles, _lattice_index
from topodyn.systems import _north_south, torus_grid

GOLDEN = sft_shift(("11", "10"), name="golden-mean")
TWO_BLOCK = sft_shift(
    ("110001", "110000", "000100", "000010", "001000", "001000"),
    name="two-block-sft",
)
CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")


# ---------------------------------------------------------------------------
# the brute-force oracle: reachability by boolean closure, nothing shared
# with the library's SCC route


def _closure(size, allowed):
    reach = [[allowed(a, b) for b in range(size)] for a in range(size)]
    for _ in range(size):
        for a in range(size):
            row = reach[a]
            for b in range(size):
                if row[b]:
                    other = reach[b]
                    for c in range(size):
                        if other[c]:
                            row[c] = True
    return reach


def _oracle_basic_sets(system):
    reach = _closure(system.size, system.allowed)
    recurrent = {a for a in range(system.size) if reach[a][a]}
    seen, parts = set(), []
    for a in sorted(recurrent):
        if a in seen:
            continue
        part = {b for b in recurrent if reach[a][b] and reach[b][a]} | {a}
        seen |= part
        parts.append(frozenset(part))
    return recurrent, set(parts)


# ---------------------------------------------------------------------------
# exact symbolic decompositions


def test_two_block_decomposition_frozen():
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    assert dec.exact and dec.finite_flag
    assert dec.component_count == 2
    assert {frozenset(bs.nodes) for bs in dec.basic_sets} == {
        frozenset({0, 1}), frozenset({2, 3, 4})
    }
    assert dec.recurrent_nodes == (0, 1, 2, 3, 4)  # symbol 5 is transient
    assert dec.validate(TWO_BLOCK) == []
    assert dec.to_report().exit_code == 0


def test_walk_demos_visit_their_targets():
    dec = spectral_decompose(TWO_BLOCK, seed=3)
    for bs in dec.basic_sets:
        assert bs.transitivity.kind == "transitivity"
        for demo in bs.transitivity.demos:
            assert demo.walk[0] == demo.x and demo.walk[-1] == demo.x
            assert demo.walk[demo.y_pos] == demo.y
            assert demo.traced.symbol_at(0) == demo.x
            assert demo.traced.symbol_at(demo.y_pos) == demo.y
        for demo in bs.periodic_density.demos:
            assert demo.traced.symbol_at(0) == demo.node


def test_random_sfts_match_bruteforce_oracle():
    rng = random.Random(99)
    for trial in range(12):
        size = rng.randint(2, 6)
        rows = [[rng.random() < 0.4 for _ in range(size)] for _ in range(size)]
        for i in range(size):  # every symbol needs an exit and an entry
            if not any(rows[i]):
                rows[i][rng.randrange(size)] = True
        for j in range(size):
            if not any(rows[i][j] for i in range(size)):
                rows[rng.randrange(size)][j] = True
        spec = tuple("".join("1" if v else "0" for v in row) for row in rows)
        system = sft_shift(spec, name=f"random-{trial}")
        recurrent, parts = _oracle_basic_sets(system)

        dec = spectral_decompose(system, seed=trial)
        assert set(dec.recurrent_nodes) == recurrent
        assert {frozenset(bs.nodes) for bs in dec.basic_sets} == parts
        assert dec.validate(system) == []


def test_decomposition_report_roundtrip():
    dec = spectral_decompose(GOLDEN, seed=1)
    text = dec.to_report().to_text()
    rep = parse_report(text)
    assert rep.header["basic_sets"] == "1"
    assert rep.header["exact"] == "True"
    assert "ladder-history" in rep.tables


# ---------------------------------------------------------------------------
# corrupted certificates must fail revalidation


def test_corrupted_walk_is_rejected():
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    bs = dec.basic_sets[0]
    cert = bs.transitivity
    demo = cert.demos[0]
    wrong_walk = demo.walk[:-1] + (demo.walk[0] ^ 1,)
    broken = dataclasses.replace(demo, walk=wrong_walk)
    bad_cert = dataclasses.replace(cert, demos=(broken,) + cert.demos[1:])
    assert any("not closed" in msg for msg in bad_cert.revalidate(TWO_BLOCK))


def test_corrupted_traced_point_is_rejected():
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    by_nodes = {frozenset(bs.nodes): bs for bs in dec.basic_sets}
    cert = by_nodes[frozenset({2, 3, 4})].transitivity
    demo = cert.demos[0]
    impostor = TWO_BLOCK.periodic_point(
        tuple(reversed(demo.walk[:-1]))
    ) if _admissible(TWO_BLOCK, tuple(reversed(demo.walk[:-1]))) else \
        TWO_BLOCK.periodic_point((2, 3, 4))
    if impostor == demo.traced:
        impostor = TWO_BLOCK.periodic_point((3, 4, 2))
    broken = dataclasses.replace(demo, traced=impostor)
    bad_cert = dataclasses.replace(cert, demos=(broken,) + cert.demos[1:])
    assert bad_cert.revalidate(TWO_BLOCK)


def _admissible(system, block):
    pairs = list(zip(block, block[1:])) + [(block[-1], block[0])]
    return all(system.allowed(a, b) for a, b in pairs)


def test_uncovered_node_is_rejected():
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    slim = dec.basic_sets[0]
    pruned = dataclasses.replace(
        dec,
        basic_sets=(slim,),  # drop the other component entirely
    )
    failures = pruned.validate(TWO_BLOCK)
    assert any("cover" in msg for msg in failures)


def _swap_nodes(bs, other):
    return dataclasses.replace(bs, nodes=other.nodes)


def _foreign_walks(bs, other):
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=other.transitivity.demos))


def _foreign_density(bs, other):
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, demos=other.periodic_density.demos))


def _no_walks(bs, other):
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=()))


def _no_density(bs, other):
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, demos=()))


def _density_as_walks(bs, other):
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=bs.periodic_density.demos))


def _walks_as_density(bs, other):
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, demos=bs.transitivity.demos))


def _open_walks(bs, other):
    """Each walk cut after its first step: it still starts at x and visits
    its new target, but does not come back."""
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=tuple(
            dataclasses.replace(d, walk=d.walk[:2], y=d.walk[1], y_pos=1)
            for d in bs.transitivity.demos)))


def _zero_cycles(bs, other):
    """Every node returns after zero steps, which proves nothing."""
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, demos=tuple(
            dataclasses.replace(d, cycle_length=0)
            for d in bs.periodic_density.demos)))


def _non_point(bs, other):
    """The first density demo names a point the system does not have."""
    demos = bs.periodic_density.demos
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density,
        demos=(dataclasses.replace(demos[0], node="z"),) + demos[1:]))


def _cycles_as(convert, first_where=None):
    """Every density demo's cycle length passed through `convert`, or only
    the first demo's for which first_where(demo) holds."""
    def tamper(bs, other):
        demos = list(bs.periodic_density.demos)
        picked = range(len(demos)) if first_where is None else [
            next(k for k, d in enumerate(demos) if first_where(d))]
        for k in picked:
            demos[k] = dataclasses.replace(
                demos[k], cycle_length=convert(demos[k].cycle_length))
        return dataclasses.replace(bs, periodic_density=dataclasses.replace(
            bs.periodic_density, demos=tuple(demos)))
    return tamper


_float_cycles = _cycles_as(float)
_text_cycle = _cycles_as(lambda k: "x", first_where=lambda d: True)
# at n = 20 most lattice orbits have 30 points, and one node is fixed
_one_float_cycle = _cycles_as(float, first_where=lambda d: d.cycle_length == 30)
_bool_fixed_point = _cycles_as(lambda k: True,
                               first_where=lambda d: d.cycle_length == 1)

THREE_CYCLE = permutation_from_cycles([("a", "b", "c")], name="three-cycle")


@pytest.mark.parametrize("tamper, system, kwargs", [
    (_swap_nodes, TWO_BLOCK, {}),
    (_foreign_walks, TWO_BLOCK, {}),
    (_foreign_density, TWO_BLOCK, {}),
    (_no_walks, TWO_BLOCK, {}),
    (_no_walks, THREE_CYCLE, {}),
    (_no_walks, CAT, {"resolution": 16}),
    (_no_density, TWO_BLOCK, {}),
    (_no_density, THREE_CYCLE, {}),
    (_density_as_walks, TWO_BLOCK, {}),
    (_walks_as_density, TWO_BLOCK, {"pairs": 2}),  # as many walks as nodes
    (_density_as_walks, CAT, {"resolution": 16}),
    (_walks_as_density, CAT, {"resolution": 16}),
    (_density_as_walks, THREE_CYCLE, {}),
    (_walks_as_density, THREE_CYCLE, {}),
    (_open_walks, THREE_CYCLE, {}),
    (_zero_cycles, THREE_CYCLE, {}),
    (_non_point, THREE_CYCLE, {}),
    (_float_cycles, TWO_BLOCK, {}),
    (_text_cycle, TWO_BLOCK, {}),
    (_float_cycles, THREE_CYCLE, {}),
    (_one_float_cycle, CAT, {"resolution": 20}),
    (_float_cycles, CAT, {"resolution": 20}),
    (_bool_fixed_point, CAT, {"resolution": 20}),
], ids=["swap-nodes", "foreign-walks", "foreign-density", "no-walks-symbolic",
        "no-walks-exact-orbit", "no-walks-metric-walk", "no-density-symbolic",
        "no-density-exact-orbit", "density-as-walks", "walks-as-density",
        "density-as-walks-metric-walk", "walks-as-density-lattice-cycle",
        "density-as-walks-exact-orbit", "walks-as-density-exact-orbit",
        "open-walks-exact-orbit", "zero-cycles-exact-orbit",
        "non-point-exact-orbit", "float-cycles-symbolic", "text-cycle-symbolic",
        "float-cycles-exact-orbit", "one-float-cycle-lattice-cycle",
        "float-cycles-lattice-cycle", "bool-fixed-point-lattice-cycle"])
def test_certificates_are_bound_to_their_basic_set(tamper, system, kwargs):
    """Evidence taken from another basic set, evidence of the wrong type or
    that proves nothing, or no evidence at all, must not validate; every
    untampered decomposition here validates clean."""
    dec = spectral_decompose(system, seed=0, **kwargs)
    assert dec.validate(system) == []
    sets = dec.basic_sets
    other = sets[1] if len(sets) > 1 else sets[0]
    tampered = [tamper(sets[0], other)] + [
        tamper(bs, sets[0]) if tamper is _swap_nodes else bs for bs in sets[1:]]
    assert dataclasses.replace(dec, basic_sets=tuple(tampered)).validate(system)


@pytest.mark.parametrize("tamper, system, kwargs", [
    (_float_cycles, TWO_BLOCK, {}), (_text_cycle, TWO_BLOCK, {}),
    (_float_cycles, THREE_CYCLE, {}), (_one_float_cycle, CAT, {"resolution": 20}),
    (_bool_fixed_point, CAT, {"resolution": 20})],
    ids=["float-symbolic", "text-symbolic", "float-exact-orbit",
         "one-float-lattice-cycle", "bool-lattice-cycle"])
def test_a_cycle_length_that_is_not_an_int_is_one_failure(tamper, system, kwargs):
    """Every mode reads cycle lengths as ints, so any other value ends the
    density check with one failure, before a routine counts with it."""
    bs = spectral_decompose(system, seed=0, **kwargs).basic_sets[0]
    cert = tamper(bs, bs).periodic_density
    assert cert.revalidate(system) == [
        "a density demo's cycle length is not an int"]


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (CAT, {"resolution": 16})], ids=["symbolic", "torus"])
def test_closed_walk_with_a_forbidden_step_is_rejected(system, kwargs):
    """A walk x -> y -> x that is closed and visits its target, but whose
    first step is not in the chain relation."""
    dec = spectral_decompose(system, seed=0, **kwargs)
    if system is TWO_BLOCK:  # 2 -> 4 is a forbidden transition
        bs = next(b for b in dec.basic_sets if set(b.nodes) == {2, 3, 4})
        x, y = 2, 4
    else:  # the node farthest from f(x) is no D-step from x
        bs = dec.basic_sets[0]
        x = bs.nodes[0]
        y = max(bs.nodes, key=lambda p: CAT.metric(CAT.forward(x), p))
    cert = bs.transitivity
    demo = dataclasses.replace(cert.demos[0], x=x, y=y, walk=(x, y, x),
                               y_pos=1, period=2)
    failures = dataclasses.replace(cert, demos=(demo,)).revalidate(system)
    assert any("takes a step outside the chain relation" in msg
               for msg in failures)


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (CAT, {"resolution": 16}), (THREE_CYCLE, {})],
    ids=["symbolic", "torus", "finite"])
def test_decompose_needs_a_walk_pair(system, kwargs):
    with pytest.raises(ValueError, match="pairs"):
        spectral_decompose(system, pairs=0, **kwargs)


def test_corrupted_lattice_cycle_is_rejected():
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    cert = dec.basic_sets[0].periodic_density
    demo = next(d for d in cert.demos if d.cycle_length > 1)
    broken = dataclasses.replace(demo, cycle_length=demo.cycle_length + 1)
    bad_cert = dataclasses.replace(cert, demos=(broken,))
    failures = bad_cert.revalidate(CAT)
    assert any("does not close" in msg for msg in failures)


# the torus route: every failure kind must survive the array re-checks


def _torus_dec(n=20):
    return spectral_decompose(CAT, resolution=n, seed=1, pairs=4)


def _with_density_demo(dec, k, **changes):
    """dec with density demo k of basic set 0 altered."""
    bs = dec.basic_sets[0]
    cert = bs.periodic_density
    demos = list(cert.demos)
    demos[k] = dataclasses.replace(demos[k], **changes)
    bs = dataclasses.replace(
        bs, periodic_density=dataclasses.replace(cert, demos=tuple(demos)))
    return dataclasses.replace(dec, basic_sets=(bs,))


def test_lattice_node_moved_by_one_ulp_is_rejected():
    dec = _torus_dec()
    x, y = dec.basic_sets[0].periodic_density.demos[7].node
    moved = (math.nextafter(x, 2.0), y)
    failures = _with_density_demo(dec, 7, node=moved, traced=moved).validate(CAT)
    assert any("is not a lattice node" in msg for msg in failures)


def test_wrong_cycle_length_is_rejected():
    dec = _torus_dec()
    demo = next(d for d in dec.basic_sets[0].periodic_density.demos
                if d.cycle_length > 1)
    k = dec.basic_sets[0].periodic_density.demos.index(demo)
    for wrong in (demo.cycle_length - 1, 2 * demo.cycle_length, 0):
        failures = _with_density_demo(dec, k, cycle_length=wrong).validate(CAT)
        assert any(f"does not close in exactly {wrong} steps" in msg
                   for msg in failures), wrong


# the lattice order test against a step-by-step first-return loop


def _first_returns_by_steps(matrix, n):
    """The first return time of every lattice index i * n + j under
    x -> A x mod n: all points step together, each until it is home."""
    (a, b), (c, d) = matrix
    i0, j0 = np.divmod(np.arange(n * n), n)
    i, j = i0, j0
    first = np.zeros(n * n, dtype=np.int64)
    k = 0
    while not first.all():
        k += 1
        i, j = (a * i + b * j) % n, (c * i + d * j) % n
        first[(first == 0) & (i == i0) & (j == j0)] = k
    return first


def _lattice_density(nodes, lengths, n):
    return Certificate(
        kind="periodic-density", mode="lattice-cycle", component=tuple(nodes),
        demos=tuple(CycleDemo(node=x, cycle_length=k, traced=x, gap=0.0)
                    for x, k in zip(nodes, lengths)),
        params={"resolution": n, "radius": 0.0})


HYPERBOLIC = [m for m in itertools.product(range(-3, 4), repeat=4)
              if abs(m[0] * m[3] - m[1] * m[2]) == 1
              and (abs(m[0] + m[3]) > 2 if m[0] * m[3] - m[1] * m[2] == 1
                   else m[0] + m[3] != 0)]


@settings(max_examples=40)
@given(st.sampled_from(HYPERBOLIC),
       st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 60)),
       st.data())
def test_lattice_order_test_matches_the_first_return_loop(matrix, n, data):
    """Every true first return validates; at one drawn node, every other
    length fails: one step more or less, twice the order, the order over
    each prime factor, 0, -1 and n^2 + 1."""
    system = torus_automorphism((matrix[:2], matrix[2:]), name="drawn")
    nodes = torus_grid(n)
    first = _first_returns_by_steps(system.matrix, n).tolist()
    assert _lattice_density(nodes, first, n).revalidate(system) == []
    t = data.draw(st.integers(0, n * n - 1))
    k = first[t]
    primes = [p for p in range(2, k + 1)
              if k % p == 0 and all(p % q for q in range(2, p))]
    wrong = {k - 1, k + 1, 2 * k, 0, -1, n * n + 1} | {k // p for p in primes}
    for w in sorted(wrong - {k}):
        assert _lattice_density([nodes[t]], [w], n).revalidate(system) == [
            f"lattice orbit of {nodes[t]} does not close in exactly {w} steps"]


def test_gap_above_radius_is_rejected():
    dec = _torus_dec()
    radius = dec.basic_sets[0].periodic_density.params["radius"]
    failures = _with_density_demo(dec, 3, gap=2.0 * radius).validate(CAT)
    assert any("exceeds the entourage radius" in msg for msg in failures)


def test_basic_set_missing_an_image_fails_invariance():
    n = 20
    dec = _torus_dec(n)
    # drop the image of lattice node (3, 5); the cat map sends (3, 5) to (11, 8)
    gone = (11 / n, 8 / n)
    bs = dec.basic_sets[0]
    bs = dataclasses.replace(bs, nodes=tuple(x for x in bs.nodes if x != gone))
    failures = dataclasses.replace(dec, basic_sets=(bs,)).validate(CAT)
    assert any(msg.startswith(f"image of {CAT.point_to_text((3 / n, 5 / n))} ")
               for msg in failures)
    assert sum(msg.startswith("image of ") for msg in failures) == 1


def test_too_small_chain_entourage_breaks_transitivity():
    n = 20
    dec = _torus_dec(n)
    bs = dec.basic_sets[0]
    tight = dataclasses.replace(bs.transitivity,
                                chain_entourage=metric_ball(CAT, 0.5 / n))
    bs = dataclasses.replace(bs, transitivity=tight)
    failures = dataclasses.replace(dec, basic_sets=(bs,)).validate(CAT)
    assert any("not strongly connected under D" in msg for msg in failures)


@pytest.mark.parametrize("n", [10, 20, 50])
def test_cat_grid_validates_clean_off_dyadic_resolutions(n):
    dec = spectral_decompose(CAT, resolution=n, seed=n)
    assert dec.component_count == 1
    assert len(dec.recurrent_nodes) == n * n
    assert dec.validate(CAT) == []


# ---------------------------------------------------------------------------
# finite systems


def test_three_cycle_decomposition():
    perm = permutation_from_cycles([("a", "b", "c")], name="three-cycle")
    dec = spectral_decompose(perm, seed=0)
    assert dec.exact
    assert dec.component_count == 1
    assert set(dec.basic_sets[0].nodes) == {"a", "b", "c"}
    assert dec.validate(perm) == []
    dens = dec.basic_sets[0].periodic_density
    assert all(d.cycle_length == 3 and d.gap == 0.0 for d in dens.demos)


def test_two_fixed_points_make_two_basic_sets():
    perm = permutation_from_cycles([("a",), ("b",)], name="two-fixed")
    dec = spectral_decompose(perm)
    assert dec.component_count == 2
    assert dec.validate(perm) == []


# ---------------------------------------------------------------------------
# torus grids


def test_cat_grid_decomposition_stabilizes():
    dec = spectral_decompose(CAT, resolution=32, seed=0)
    assert dec.component_count == 1
    assert len(dec.recurrent_nodes) == 32 * 32
    assert dec.stabilization_index is not None
    assert dec.stabilization_index <= 1
    assert dec.history[0] == (1024, 1)
    assert dec.history[1] == (1024, 1)
    assert dec.to_report().exit_code == 0


def test_cat_grid_certificates_revalidate():
    dec = spectral_decompose(CAT, resolution=16, seed=2, pairs=4)
    assert dec.validate(CAT) == []
    dens = dec.basic_sets[0].periodic_density
    assert dens.mode == "lattice-cycle"
    assert dens.params["resolution"] == 16
    assert all(d.gap == 0.0 for d in dens.demos)
    trans = dec.basic_sets[0].transitivity
    assert trans.mode == "metric-walk"
    for demo in trans.demos:
        assert len(demo.traced) == demo.period
        # stored loops are exact rational orbits
        for k in range(demo.period):
            z = CAT.forward(demo.traced[k])
            assert z == demo.traced[(k + 1) % demo.period]


# ---------------------------------------------------------------------------
# guards


def test_unsupported_system_raises():
    with pytest.raises(TypeError):
        spectral_decompose(_north_south())


def test_transitivity_needs_a_whole_scc():
    graph = symbol_graph_chain(GOLDEN)
    with pytest.raises(ValueError):
        transitivity_certificate(graph, [0], GOLDEN, E=None)
    with pytest.raises(ValueError):
        transitivity_certificate(graph, [], GOLDEN, E=None)


def test_symbol_graph_chain_mirrors_transitions():
    graph = symbol_graph_chain(TWO_BLOCK)
    assert graph.nodes == (0, 1, 2, 3, 4, 5)
    assert graph.successors(0) == (0, 1, 5)
    assert graph.successors(5) == (2,)


def test_density_certificate_needs_resolution_on_torus():
    with pytest.raises(ValueError):
        periodic_density_certificate(CAT, ((0.0, 0.0),), radii=(0.1,))


# ---------------------------------------------------------------------------
# walk search: the level-synchronous array BFS against a queue BFS


def _queue_bfs_path(adjacency, inside, src, dst):
    """Shortest path src -> dst through the set `inside`, by a first-in
    first-out queue over sorted successor lists; src == dst asks for a
    shortest closed walk, the first shortest one over the successors."""
    if src == dst:
        best = None
        for s in adjacency[src]:
            if s == src:
                return [src, src]
            if s not in inside:
                continue
            tail = _queue_bfs_path(adjacency, inside, s, dst)
            if tail is not None and (best is None or len(tail) + 1 < len(best)):
                best = [src] + tail
        return best
    parent = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in inside or w in parent:
                continue
            parent[w] = u
            if w == dst:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(w)
    return None


def test_array_bfs_returns_the_queue_bfs_paths():
    rng = random.Random(23)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(1, 40)
        density = rng.choice((0.03, 0.08, 0.2, 0.5))
        rows = [[j for j in range(n) if rng.random() < density]
                for _ in range(n)]
        graph = ChainGraph.from_successors(range(n), rows, "test")
        inside = {v for v in range(n) if rng.random() < 0.8}
        mask = np.zeros(n, dtype=bool)
        mask[sorted(inside)] = True
        adjacency = [graph.successors(i) for i in range(n)]
        src = rng.randrange(n)
        dst = src if rng.random() < 0.3 else rng.randrange(n)
        want = _queue_bfs_path(adjacency, inside, src, dst)
        assert _bfs_path(graph, mask, src, dst) == want, trial
        outcomes.add((src == dst, want is None))
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_array_bfs_returns_the_queue_bfs_paths_on_large_graphs():
    """Random sparse graphs of a few thousand nodes, whose searches run
    many levels deep, and torus grid graphs under a partial mask."""
    rng = random.Random(29)
    cases = []
    for _ in range(10):
        n = rng.randint(1000, 4000)
        degree = rng.choice((1, 2, 4))
        rows = [rng.sample(range(n), rng.randint(0, 2 * degree))
                for _ in range(n)]
        cases.append((ChainGraph.from_successors(range(n), rows, "test"), 0.8))
    for cells in (1.5, 3.0):
        cases.append((torus_grid_graph(CAT, 24, cells / 24), 0.6))
    outcomes = set()
    for trial, (graph, density) in enumerate(cases):
        n = graph.node_count
        inside = {v for v in range(n) if rng.random() < density}
        mask = np.zeros(n, dtype=bool)
        mask[sorted(inside)] = True
        adjacency = [graph.successors(i) for i in range(n)]
        for _ in range(6):
            src = rng.randrange(n)
            dst = src if rng.random() < 0.3 else rng.randrange(n)
            want = _queue_bfs_path(adjacency, inside, src, dst)
            assert _bfs_path(graph, mask, src, dst) == want, trial
            outcomes.add((src == dst, want is None, len(want or ()) > 8))
    assert {(False, False, True), (False, True, False),
            (True, False, False)} <= outcomes


def test_array_bfs_matches_the_queue_bfs_outside_the_mask_and_on_loops():
    """Targets outside the mask, which no search reaches, and src == dst,
    the shortest closed walk, on every drawn graph."""
    rng = random.Random(31)
    outcomes = set()
    for trial in range(200):
        n = rng.randint(2, 60)
        density = rng.choice((0.03, 0.08, 0.2))
        rows = [[j for j in range(n) if rng.random() < density]
                for _ in range(n)]
        graph = ChainGraph.from_successors(range(n), rows, "test")
        inside = {v for v in range(n) if rng.random() < 0.7}
        outside = sorted(set(range(n)) - inside)
        mask = np.zeros(n, dtype=bool)
        mask[sorted(inside)] = True
        adjacency = [graph.successors(i) for i in range(n)]
        src = rng.randrange(n)
        targets = [src] + ([rng.choice(outside)] if outside else [])
        for dst in targets:
            want = _queue_bfs_path(adjacency, inside, src, dst)
            assert _bfs_path(graph, mask, src, dst) == want, trial
            outcomes.add((src == dst, dst in inside, want is None))
    assert {(True, True, False), (True, True, True), (False, False, True),
            (True, False, False)} <= outcomes


# ---------------------------------------------------------------------------
# lattice-cycle records against their expansion into CycleDemos


def _lattice_record_tampers(record):
    """Named records that differ from `record` in one way each."""
    n = record.resolution
    lengths = record.lengths.tolist()
    k = next(r for r, v in enumerate(lengths) if v > 1)
    other = next(r for r, v in enumerate(lengths) if v != lengths[k])

    def at(name, r, value):
        values = getattr(record, name).copy()
        values[r] = value
        return dataclasses.replace(record, **{name: values})

    swapped = record.indices.copy()
    swapped[[k, other]] = swapped[[other, k]]
    return {
        "untampered": record,
        "length+1": at("lengths", k, lengths[k] + 1),
        "length-1": at("lengths", k, lengths[k] - 1),
        "float-lengths": dataclasses.replace(
            record, lengths=record.lengths.astype(float)),
        "bool-lengths": dataclasses.replace(record, lengths=record.lengths == 1),
        "index-too-large": at("indices", k, n * n),
        "index-negative": at("indices", k, -1),
        "index-swapped": dataclasses.replace(record, indices=swapped),
        "index-repeated": at("indices", k, int(record.indices[other])),
        "one-short": LatticeCycles(n, record.indices[:-1], record.lengths[:-1]),
    }


@pytest.mark.parametrize("n", [16, 20, 24])
def test_a_lattice_record_and_its_demos_fail_alike(n):
    """A record and the tuple of CycleDemos it expands to are the same
    evidence: identical failure lists, untampered and under every tamper."""
    dec = spectral_decompose(CAT, resolution=n, seed=0, pairs=2)
    assert dec.validate(CAT) == []
    cert = dec.basic_sets[0].periodic_density
    assert isinstance(cert.demos, LatticeCycles)
    seen = {}
    for name, record in _lattice_record_tampers(cert.demos).items():
        as_record = dataclasses.replace(cert, demos=record).revalidate(CAT)
        as_demos = dataclasses.replace(cert, demos=tuple(record)).revalidate(CAT)
        assert as_record == as_demos, name
        seen[name] = as_record
    assert seen["untampered"] == []
    assert all(seen[name] for name in seen if name != "untampered")
    for name in ("float-lengths", "bool-lengths"):
        assert seen[name] == ["a density demo's cycle length is not an int"]
    assert any("does not close in exactly" in msg for msg in seen["length+1"])
    assert any("is not a lattice node" in msg for msg in seen["index-too-large"])
    for name in ("index-repeated", "one-short"):
        assert "density demos do not cover the component once each" in seen[name]


def test_a_lattice_record_reads_as_its_cycle_demos():
    dec = spectral_decompose(CAT, resolution=20, seed=0, pairs=2)
    cert = dec.basic_sets[0].periodic_density
    record, demos = cert.demos, tuple(cert.demos)
    assert len(record) == len(demos) == len(cert.component)
    assert all(type(d) is CycleDemo for d in demos)
    assert [d.node for d in demos] == list(cert.component)
    assert all(d.traced == d.node and d.gap == 0.0 for d in demos)
    assert all(type(d.cycle_length) is int for d in demos)
    assert record[-1] == demos[-1] and record[3] == demos[3]
    assert record[2:9:3] == demos[2:9:3]
    assert record.index(demos[5]) == 5
    assert record == dataclasses.replace(record)
    assert record != dataclasses.replace(record, lengths=record.lengths + 1)
    assert record != demos
    with pytest.raises(IndexError):
        record[len(record)]


def test_a_lattice_record_cannot_be_written():
    indices, lengths = np.arange(4), np.ones(4, dtype=np.int64)
    record = LatticeCycles(2, indices, lengths)
    for values in (record.indices, record.lengths):
        with pytest.raises(ValueError):
            values[0] = 3
    indices[0] = 3  # the record holds its own copies
    assert record.indices[0] == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.gap = 1.0
    with pytest.raises(ValueError):
        LatticeCycles(2, np.arange(4), np.ones(3, dtype=np.int64))


@pytest.mark.parametrize("n, kwargs", [
    (16, {"ladder": 0.03}), (20, {}), (24, {})])
def test_torus_density_records_have_one_entry_per_node(n, kwargs):
    dec = spectral_decompose(CAT, resolution=n, seed=0, pairs=2, **kwargs)
    assert dec.basic_sets
    for bs in dec.basic_sets:
        assert len(bs.periodic_density.demos) == len(bs.nodes)
    assert sum(len(bs.periodic_density.demos) for bs in dec.basic_sets) == len(
        dec.recurrent_nodes)


@settings(max_examples=60)
@given(st.integers(1, 12), st.data())
def test_lattice_index_gate_keeps_the_per_point_answer(n, data):
    """The type gate only picks the route: on any mix of lattice floats, ints,
    numpy floats, float subclasses, lists, triples and points one ulp off,
    the indices of the whole list are those of each point alone."""
    class Real(float):
        pass

    lattice = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    point = st.one_of(
        lattice.map(lambda ij: (ij[0] / n, ij[1] / n)),
        lattice.map(lambda ij: (math.nextafter(ij[0] / n, 1.0), ij[1] / n)),
        lattice.map(lambda ij: (ij[0], ij[1])),
        lattice.map(lambda ij: (np.float64(ij[0] / n), ij[1] / n)),
        lattice.map(lambda ij: (Real(ij[0] / n), ij[1] / n)),
        lattice.map(lambda ij: [ij[0] / n, ij[1] / n]),
        lattice.map(lambda ij: (ij[0] / n, ij[1] / n, 0.0)),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    points = data.draw(st.lists(point, max_size=12))
    alone = [int(_lattice_index([p], n)[0]) for p in points]
    assert _lattice_index(points, n).tolist() == alone
    want = [round(p[0] * n) * n + round(p[1] * n)
            if type(p) is tuple and len(p) == 2
            and all(type(v) is float and 0 <= round(v * n) < n
                    and round(v * n) / n == v for v in p) else -1
            for p in points]
    assert alone == want
