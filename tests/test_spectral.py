"""Decomposition into basic sets, and the certificates that back it."""

import dataclasses
import math
import random
from collections import deque

import numpy as np
import pytest

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
from topodyn.chains import ChainGraph
from topodyn.spectral import CertificateError, WalkDemo, _bfs_path
from topodyn.systems import _north_south

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
], ids=["swap-nodes", "foreign-walks", "foreign-density", "no-walks-symbolic",
        "no-walks-exact-orbit", "no-walks-metric-walk", "no-density-symbolic",
        "no-density-exact-orbit", "density-as-walks", "walks-as-density"])
def test_certificates_are_bound_to_their_basic_set(tamper, system, kwargs):
    """Evidence taken from another basic set, or no evidence at all, must
    not validate; every untampered decomposition here validates clean."""
    dec = spectral_decompose(system, seed=0, **kwargs)
    assert dec.validate(system) == []
    sets = dec.basic_sets
    other = sets[1] if len(sets) > 1 else sets[0]
    tampered = [tamper(sets[0], other)] + [
        tamper(bs, sets[0]) if tamper is _swap_nodes else bs for bs in sets[1:]]
    assert dataclasses.replace(dec, basic_sets=tuple(tampered)).validate(system)


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
