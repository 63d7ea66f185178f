"""Decomposition into basic sets, and the certificates that back it."""

import dataclasses
import hashlib
import itertools
import math
import random
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn import (
    BasicSet,
    Certificate,
    parse_report,
    periodic_density_certificate,
    permutation_from_cycles,
    sft_shift,
    spectral_decompose,
    symbol_graph_chain,
    torus_automorphism,
    transitivity_certificate,
)
from topodyn.entourage import finite_relation, metric_ball
from topodyn.chains import (ChainGraph, _bfs_tree, _csr, _lattice_map,
                            build_chain_graph, torus_grid_graph)
from topodyn.spectral import (_FAMILIES, ConnectivityWitness, TracedWalk,
                              _bfs_path, _lattice_index, _witness_failures)
from topodyn.systems import (FiniteSystem, _north_south, catalog, sft_metric,
                             torus_grid)

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
    assert dec.exact
    assert dec.component_count == 2
    assert {frozenset(bs.nodes) for bs in dec.basic_sets} == {
        frozenset({0, 1}), frozenset({2, 3, 4})
    }
    assert dec.recurrent_nodes == (0, 1, 2, 3, 4)  # symbol 5 is transient
    assert dec.validate(TWO_BLOCK) == []
    assert dec.to_report(TWO_BLOCK).exit_code == 0


def test_walk_demos_visit_their_targets():
    """Only metric walks are demos: a `TracedWalk` stores no end beside its
    walk, so x is walk[0] and the target y is walk[y_pos], both members,
    and its traced orbit, one point per step. Shifts and finite maps are
    proven by their witness trees, and none of their certificates stores a
    demo."""
    assert [f.name for f in dataclasses.fields(TracedWalk)] == [
        "walk", "y_pos", "traced"]
    for bs in spectral_decompose(CAT, resolution=16, seed=3).basic_sets:
        assert bs.transitivity.demos
        for demo in bs.transitivity.demos:
            assert type(demo) is TracedWalk
            x, y = demo.walk[0], demo.walk[demo.y_pos]
            assert demo.walk[-1] == x and {x, y} <= set(bs.nodes)
            assert len(demo.traced) == len(demo.walk) - 1
    for system in (TWO_BLOCK, THREE_CYCLE):
        for bs in spectral_decompose(system, seed=3).basic_sets:
            assert bs.transitivity.demos == bs.periodic_density.demos == ()


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
    text = dec.to_report(GOLDEN).to_text()
    rep = parse_report(text)
    assert rep.header["basic_sets"] == "1"
    assert rep.header["exact"] == "True"
    assert "ladder-history" in rep.tables


# ---------------------------------------------------------------------------
# corrupted certificates must fail revalidation


def test_corrupted_walk_is_rejected():
    """A metric walk whose last node is moved one grid cell is not closed;
    shift walks, which this once tampered with, are no longer stored."""
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    cert = dec.basic_sets[0].transitivity
    demo = cert.demos[0]
    (u, v) = demo.walk[-1]
    wrong_walk = demo.walk[:-1] + (((u + 1 / 16) % 1.0, v),)
    broken = dataclasses.replace(demo, walk=wrong_walk)
    bad_cert = dataclasses.replace(cert, demos=(broken,) + cert.demos[1:])
    assert any("not closed" in msg for msg in bad_cert.revalidate(CAT))


def test_corrupted_traced_point_is_rejected():
    """Only metric walks store a traced orbit; with its first point moved by
    1/1000 it is no orbit, which is the one failure."""
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    cert = dec.basic_sets[0].transitivity
    demo = cert.demos[0]
    (u, v), rest = demo.traced[0], demo.traced[1:]
    broken = dataclasses.replace(demo, traced=((u + Fraction(1, 1000), v),) + rest)
    bad_cert = dataclasses.replace(cert, demos=(broken,) + cert.demos[1:])
    message = f"stored loop at {CAT.point_to_text(demo.walk[0])} is not an orbit"
    assert bad_cert.revalidate(CAT) == [message]
    assert _first_replaced(dec, "transitivity", demos=bad_cert.demos).validate(
        CAT) == [f"basic set 0 [transitivity]: {message}"]


def test_uncovered_node_is_rejected():
    """A basic set's nodes are its transitivity component, and its density
    certificate must be about the same nodes. Basic set {0, 1} given the
    density certificate of {0} alone, which re-checks by itself as 0 -> 0
    is allowed, leaves node 1 uncovered: one failure."""
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    bs = dec.basic_sets[0]
    assert bs.nodes == (0, 1)
    cut = dataclasses.replace(bs.periodic_density, component=(0,),
                              demos=bs.periodic_density.demos[:1])
    assert cut.revalidate(TWO_BLOCK) == []
    tampered = dataclasses.replace(bs, periodic_density=cut)
    assert dataclasses.replace(
        dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(TWO_BLOCK) == [
        "basic set 0 [periodic-density]: certificate is for another node set"]


def _swap_nodes(bs, other):
    """The basic set's nodes, its transitivity component, set to other's."""
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, component=other.nodes))


def _foreign_walks(bs, other):
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=other.transitivity.demos))


def _foreign_density(bs, other):
    return dataclasses.replace(bs, periodic_density=other.periodic_density)


def _no_walks(bs, other):
    """No transitivity evidence: no walks and no witness trees."""
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, demos=(), witness=None))


def _no_density(bs, other):
    """No density evidence: a density certificate about no nodes."""
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, component=()))


def _density_as_walks(bs, other):
    """The density certificate offered as the transitivity evidence."""
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.periodic_density, kind="transitivity"))


def _walks_as_density(bs, other):
    """The transitivity certificate offered as the density evidence."""
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.transitivity, kind="periodic-density"))


def _open_walks(bs, other):
    """Every way back cut open: each walk cut after its first step, so it
    starts at x and aims at its second node but does not come back, and the
    in-tree, whose edges lead back to the root, replaced by the out-tree."""
    cert = bs.transitivity
    w = cert.witness
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        cert, demos=tuple(dataclasses.replace(d, walk=d.walk[:2], y_pos=1)
                          for d in cert.demos),
        witness=ConnectivityWitness(w.out_parent, w.out_level, w.out_parent,
                                    w.out_level)))


def _non_point(bs, other):
    """The first density demo is about a point the system does not have."""
    nodes = bs.periodic_density.component
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        bs.periodic_density, component=("z",) + nodes[1:]))


def _permuted_density(bs, other):
    """The density demos in reverse order, so demo k is about another node
    than node k of the component; a certificate with no demos has its
    component reversed instead, which is then not the transitivity one."""
    cert = bs.periodic_density
    changed = ({"demos": cert.demos[::-1]} if cert.demos
               else {"component": cert.component[::-1]})
    return dataclasses.replace(bs, periodic_density=dataclasses.replace(
        cert, **changed))


THREE_CYCLE = permutation_from_cycles([("a", "b", "c")], name="three-cycle")


@pytest.mark.parametrize("tamper, system, kwargs", [
    (_swap_nodes, TWO_BLOCK, {}),
    (_foreign_walks, CAT, {"resolution": 16, "ladder": 0.03}),
    (_foreign_density, TWO_BLOCK, {}),
    (_no_walks, TWO_BLOCK, {}),
    (_no_walks, THREE_CYCLE, {}),
    (_no_walks, CAT, {"resolution": 16}),
    (_no_density, TWO_BLOCK, {}),
    (_density_as_walks, TWO_BLOCK, {}),
    (_walks_as_density, TWO_BLOCK, {"pairs": 2}),  # as many walks as nodes
    (_density_as_walks, CAT, {"resolution": 16}),
    (_walks_as_density, CAT, {"resolution": 16}),
    (_density_as_walks, THREE_CYCLE, {}),
    (_walks_as_density, THREE_CYCLE, {}),
    (_open_walks, THREE_CYCLE, {}),
    (_non_point, THREE_CYCLE, {}),
    (_permuted_density, TWO_BLOCK, {}),
    (_permuted_density, THREE_CYCLE, {}),
    (_permuted_density, CAT, {"resolution": 16}),
], ids=["swap-nodes", "foreign-walks", "foreign-density", "no-walks-symbolic",
        "no-walks-exact-orbit", "no-walks-metric-walk", "no-density-symbolic",
        "density-as-walks", "walks-as-density",
        "density-as-walks-metric-walk", "walks-as-density-lattice-cycle",
        "density-as-walks-exact-orbit", "walks-as-density-exact-orbit",
        "open-walks-exact-orbit", "non-point-exact-orbit",
        "permuted-density-symbolic", "permuted-density-exact-orbit",
        "permuted-indices-lattice-cycle"])
def test_certificates_are_bound_to_their_basic_set(tamper, system, kwargs):
    """Evidence taken from another basic set, evidence of the wrong type or
    that proves nothing, or no evidence at all, must not validate; every
    untampered decomposition here validates clean. Shifts and finite maps
    store no walks, so walks are taken from another torus basic set, and
    in the exact modes the tampers drop, swap or open the witness trees."""
    dec = spectral_decompose(system, seed=0, **kwargs)
    assert dec.validate(system) == []
    sets = dec.basic_sets
    other = sets[1] if len(sets) > 1 else sets[0]
    tampered = [tamper(sets[0], other)] + [
        tamper(bs, sets[0]) if tamper is _swap_nodes else bs for bs in sets[1:]]
    assert dataclasses.replace(dec, basic_sets=tuple(tampered)).validate(system)


MODES = ("symbolic", "metric-walk", "exact-orbit", "lattice-cycle", "no-such-mode")


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "finite", "torus"])
def test_a_certificate_in_the_wrong_mode_is_one_failure(system, kwargs):
    """Each family and kind has one mode; relabelled to any other, a
    certificate is one failure, and validate() reports it, never raising."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    bs = dec.basic_sets[0]
    for name in ("transitivity", "periodic_density"):
        cert = getattr(bs, name)
        for mode in MODES:
            if mode == cert.mode:
                continue
            wrong = dataclasses.replace(cert, mode=mode)
            assert wrong.revalidate(system) == [
                f"certificate mode {mode!r} does not fit {cert.kind} evidence "
                f"on {system.name}"]
            tampered = dataclasses.replace(bs, **{name: wrong})
            assert dataclasses.replace(
                dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(system)


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "finite", "torus"])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_an_unhashable_node_is_a_failure_not_an_exception(system, kwargs, where):
    """A basic-set node that cannot be hashed, such as the list [0], makes
    revalidate() and validate() return failure strings; validate() reports
    it as the transitivity certificate's failure, and no stored copy of the
    recurrent nodes is left to hold one."""
    dec = spectral_decompose(system, seed=0, **kwargs)
    bs = dec.basic_sets[0]
    nodes = list(bs.nodes)
    nodes[where] = [0]
    nodes = tuple(nodes)
    certs = [dataclasses.replace(c, component=nodes)
             for c in (bs.transitivity, bs.periodic_density)]
    for cert in certs:
        failures = cert.revalidate(system)
        assert failures and all(type(f) is str for f in failures)
    assert certs[0].revalidate(system) == ["a component node cannot be hashed"]
    tampered = dataclasses.replace(bs, transitivity=certs[0],
                                   periodic_density=certs[1])
    failures = dataclasses.replace(
        dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(system)
    assert ("basic set 0 [transitivity]: a component node cannot be hashed"
            in failures)
    assert all(type(f) is str for f in failures)


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_a_hashable_non_point_node_is_one_failure(where):
    """A component node that hashes but is no point, such as None, is one
    failure of the connectivity check, before any node is stepped through
    f, in revalidate() and in validate()."""
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    bs = dec.basic_sets[0]
    nodes = list(bs.nodes)
    nodes[where] = None
    nodes = tuple(nodes)
    certs = [dataclasses.replace(c, component=nodes)
             for c in (bs.transitivity, bs.periodic_density)]
    message = "a component node is not a point of the system"
    assert certs[0].revalidate(CAT) == [message]
    assert all(type(f) is str for f in certs[1].revalidate(CAT))
    tampered = dataclasses.replace(bs, transitivity=certs[0],
                                   periodic_density=certs[1])
    failures = dataclasses.replace(
        dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(CAT)
    assert f"basic set 0 [transitivity]: {message}" in failures
    assert all(type(f) is str for f in failures)
    # a finite system's nodes must be its points, and its walk ends are
    # members, so the connectivity check is asked directly
    fin = spectral_decompose(THREE_CYCLE, seed=0).basic_sets[0].transitivity
    stray = fin.component[:-1] + ("d",)
    assert _witness_failures(dataclasses.replace(fin, component=stray),
                             THREE_CYCLE) == [message]


@pytest.mark.parametrize("system, kwargs, field", [
    (THREE_CYCLE, {}, "walk"), (CAT, {"resolution": 16}, "walk"),
    (CAT, {"resolution": 16}, "traced")],
    ids=["walk-exact-orbit", "walk-metric-walk", "traced-metric-walk"])
def test_a_non_point_inside_a_walk_is_one_failure(system, kwargs, field):
    """A walk node between the two ends, or a metric walk's traced orbit
    entry, that is no point of the system is one failure, before it is
    stepped. A finite map stores no walks: one with a non-point inside,
    stored in its exact-orbit certificate, is refused whole, once."""
    dec = spectral_decompose(system, seed=0, pairs=4, **kwargs)
    bs = dec.basic_sets[0]
    demos = list(bs.transitivity.demos) or [_tree_walk(bs.transitivity)]
    k, demo = next((k, d) for k, d in enumerate(demos)
                   if len(d.walk) >= 3 and (d.y_pos != 1 or system is THREE_CYCLE))
    values = list(getattr(demo, field))
    values[1] = None
    demos[k] = dataclasses.replace(demo, **{field: tuple(values)})
    cert = dataclasses.replace(bs.transitivity, demos=tuple(demos))
    message = (NO_DEMOS.format("exact-orbit") if system is THREE_CYCLE else
               "a walk or traced orbit holds a node that is not a point of "
               "the system")
    assert cert.revalidate(system) == [message]
    tampered = dataclasses.replace(bs, transitivity=cert)
    assert dataclasses.replace(
        dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(system) == [
        f"basic set 0 [transitivity]: {message}"]


@pytest.mark.parametrize("system", [TWO_BLOCK, THREE_CYCLE],
                         ids=["symbolic", "exact-orbit"])
def test_a_lattice_record_is_no_evidence_in_another_mode(system):
    """What a torus density certificate stores beside its nodes, its
    resolution, is read only in the lattice-cycle mode: on a certificate of
    another mode it is one failure, before any routine runs."""
    cert = spectral_decompose(system, seed=0).basic_sets[0].periodic_density
    lattice = spectral_decompose(CAT, resolution=16, seed=0,
                                 pairs=1).basic_sets[0].periodic_density
    assert lattice.demos == () and lattice.resolution == 16
    assert dataclasses.replace(cert, resolution=16).revalidate(system) == [
        f"the {cert.mode} mode reads no resolution, yet 16 is stored"]


WALK_SYSTEMS = pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (CAT, {"resolution": 16}), (THREE_CYCLE, {})],
    ids=["symbolic", "torus", "finite"])


def _tree_walk(cert):
    """The cycle that cert's trees close through the root, as the closed
    walk that a metric certificate would store: the evidence that shift
    and finite certificates no longer store, as their trees prove it."""
    cycle = cert.tree_cycle(0)
    return TracedWalk(cycle + cycle[:1], 1, cycle)


NO_DEMOS = "the {} mode reads no demos, yet a tuple is stored"


def _one_walk_failure(system, kwargs, walk_of, message):
    """The first demo of the first basic set of three or more nodes given
    the walk `walk_of(demo, nodes)` with target position 1: exactly one
    failure, `walk at x {message}`, in revalidate() and in validate(). A
    shift or a finite map stores no walks, so there the walk, built from
    the tree cycle's and stored as the one demo, is refused whole, once."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    k, bs = next((k, b) for k, b in enumerate(dec.basic_sets) if b.size >= 3)
    cert = bs.transitivity
    if cert.demos:
        walk = walk_of(cert.demos[0], bs.nodes)
        forged = _demo_replaced(cert, walk=walk, y_pos=1)
        want = f"walk at {system.point_to_text(walk[0])} {message}"
    else:
        walk = walk_of(_tree_walk(cert), bs.nodes)
        forged = dataclasses.replace(cert, demos=(
            TracedWalk(walk, 1, walk[:-1]),))
        want = NO_DEMOS.format(cert.mode)
    assert forged.revalidate(system) == [want]
    sets = list(dec.basic_sets)
    sets[k] = dataclasses.replace(bs, transitivity=forged)
    assert dataclasses.replace(dec, basic_sets=tuple(sets)).validate(system) == [
        f"basic set {k} [transitivity]: {want}"]


@WALK_SYSTEMS
def test_closed_walk_with_a_forbidden_step_is_rejected(system, kwargs):
    """A walk x -> y -> x that is closed and visits its target, but whose
    first step is not in the chain relation: 2 -> 4 on the shift, a -> c
    where f(a) = b, and on the torus the node farthest from f(x). It is one
    failure; a metric walk's traced orbit is checked only once its walk
    is. The exact modes refuse any stored walk, this one too."""
    def forbidden(demo, nodes):
        x = nodes[0]
        y = {TWO_BLOCK: 4, THREE_CYCLE: "c"}.get(system) or max(
            nodes, key=lambda p: CAT.metric(CAT.forward(x), p))
        return (x, y, x)

    _one_walk_failure(system, kwargs, forbidden,
                      "takes a step outside the chain relation")


@WALK_SYSTEMS
def test_an_unclosed_walk_is_one_failure(system, kwargs):
    """A walk whose last node is another member than its first is one
    failure in every mode: in the exact modes, which read no walks, as a
    stored demo."""
    def unclosed(demo, nodes):
        return demo.walk[:-1] + (next(v for v in nodes if v != demo.walk[0]),)

    _one_walk_failure(system, kwargs, unclosed, "is not closed")


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (CAT, {"resolution": 16}), (THREE_CYCLE, {})],
    ids=["symbolic", "torus", "finite"])
def test_decompose_needs_a_walk_pair(system, kwargs):
    with pytest.raises(ValueError, match="pairs"):
        spectral_decompose(system, pairs=0, **kwargs)


def test_corrupted_lattice_cycle_is_rejected():
    """A node of the lattice cycle through (3/16, 5/16), its image
    (11/16, 8/16), overwritten by another member breaks that cycle: the
    image of (3/16, 5/16) leaves the component, and nothing else does."""
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    cert = dec.basic_sets[0].periodic_density
    nodes = list(cert.component)
    k = nodes.index((11 / 16, 8 / 16))
    nodes[k] = nodes[k - 1]
    failures = dataclasses.replace(cert, component=tuple(nodes)).revalidate(CAT)
    assert failures == [f"image of {CAT.point_to_text((3 / 16, 5 / 16))} is "
                        "more than one grid cell from the component"]


# the torus route: every failure kind must survive the array re-checks


def _torus_dec(n=20):
    return spectral_decompose(CAT, resolution=n, seed=1, pairs=4)


def test_lattice_node_moved_by_one_ulp_is_rejected():
    """Node 7 of basic set 0 moved by one ulp, in the basic set and in the
    component of both its certificates."""
    dec = _torus_dec()
    bs = dec.basic_sets[0]
    x, y = bs.nodes[7]
    nodes = bs.nodes[:7] + ((math.nextafter(x, 2.0), y),) + bs.nodes[8:]
    bs = dataclasses.replace(
        bs, transitivity=dataclasses.replace(bs.transitivity, component=nodes),
        periodic_density=dataclasses.replace(bs.periodic_density,
                                             component=nodes))
    failures = dataclasses.replace(
        dec, basic_sets=(bs,) + dec.basic_sets[1:]).validate(CAT)
    assert any("is not a lattice node" in msg for msg in failures)


# the lattice check's premise: the lattice map is a permutation


HYPERBOLIC = [m for m in itertools.product(range(-3, 4), repeat=4)
              if abs(m[0] * m[3] - m[1] * m[2]) == 1
              and (abs(m[0] + m[3]) > 2 if m[0] * m[3] - m[1] * m[2] == 1
                   else m[0] + m[3] != 0)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(HYPERBOLIC), st.integers(1, 40))
def test_lattice_map_permutes_the_lattice(matrix, n):
    """The lattice density check stores no cycles because of this theorem:
    an integer matrix of determinant +-1 maps the n * n lattice indices
    onto all of them, mod n, so each node is a periodic point. The whole
    grid then certifies itself at resolution n."""
    system = torus_automorphism((matrix[:2], matrix[2:]), name="drawn")
    i, j = np.divmod(np.arange(n * n), n)
    fi, fj = _lattice_map(system.matrix, n)(i, j)
    assert np.array_equal(np.sort(fi * n + fj), np.arange(n * n))
    cert = Certificate(kind="periodic-density", mode="lattice-cycle",
                       component=torus_grid(n), demos=(), resolution=n)
    assert cert.revalidate(system) == []


def test_basic_set_missing_an_image_fails_invariance():
    """The density certificate proves invariance: with one node dropped
    from its component, the one member whose image that node was fails,
    and nothing else does."""
    n = 20
    cert = _torus_dec(n).basic_sets[0].periodic_density
    # drop the image of lattice node (3, 5); the cat map sends (3, 5) to (11, 8)
    gone = (11 / n, 8 / n)
    assert gone in cert.component
    cut = dataclasses.replace(
        cert, component=tuple(x for x in cert.component if x != gone))
    assert cut.revalidate(CAT) == [
        f"image of {CAT.point_to_text((3 / n, 5 / n))} is more than one grid "
        "cell from the component"]


@pytest.mark.parametrize("system, node", [(TWO_BLOCK, 2), (THREE_CYCLE, "a")],
                         ids=["symbolic", "exact-orbit"])
def test_a_density_cycle_that_leaves_its_component_fails(system, node):
    """A density certificate cut to one node of its component: the node's
    cycle (2 3 4 on two-block-sft, a b c on three-cycle) leaves the cut
    component, as its one step does (2 -> 3, a -> b), so it proves no
    invariance, and a one-node component with no loop has no periodic
    point."""
    dec = spectral_decompose(system, seed=0)
    cert = next(bs.periodic_density for bs in dec.basic_sets
                if node in bs.nodes)
    cut = dataclasses.replace(cert, component=(node,))
    assert cut.revalidate(system) == [
        f"1 nodes do not step into the component: the first is {node}"]


def test_too_small_chain_entourage_breaks_transitivity():
    """Under a D of half a grid cell the component is not strongly
    connected, and its certificate fails; in a decomposition that radius is
    not the cut rung, which is the one failure."""
    n = 20
    dec = _torus_dec(n)
    bs = dec.basic_sets[0]
    tight = dataclasses.replace(bs.transitivity, radius=0.5 / n)
    assert any("not strongly connected under D" in msg
               for msg in tight.revalidate(CAT))
    bs = dataclasses.replace(bs, transitivity=tight)
    cut = dec.ladder[dec.stabilization_index]
    assert dataclasses.replace(dec, basic_sets=(bs,)).validate(CAT) == [
        f"basic set 0 [transitivity]: the chain radius {0.5 / n!r} is not "
        f"the cut rung {cut}"]


@pytest.mark.parametrize("n", [10, 20, 50])
def test_cat_grid_validates_clean_off_dyadic_resolutions(n):
    dec = spectral_decompose(CAT, resolution=n, seed=n)
    assert dec.component_count == 1
    assert len(dec.recurrent_nodes) == n * n
    assert dec.validate(CAT) == []


@pytest.mark.parametrize("relabel", [24, 48.0], ids=["24", "48.0"])
def test_a_relabelled_torus_resolution_fails_fast(relabel):
    """Invariance reads nodes as lattice integers only: nodes of the 48-grid
    read at resolution 24 are mostly off that lattice, and 48.0 is no
    resolution. Either, on every density certificate, is one failure per
    basic set, found in well under a second, as no node is measured against
    the members in floats."""
    dec = spectral_decompose(CAT, resolution=48, seed=0, pairs=2)
    assert dec.validate(CAT) == []
    relabelled = dataclasses.replace(dec, basic_sets=tuple(
        dataclasses.replace(bs, periodic_density=dataclasses.replace(
            bs.periodic_density, resolution=relabel))
        for bs in dec.basic_sets))
    assert relabelled.resolution == relabel
    start = time.perf_counter()
    failures = relabelled.validate(CAT)
    assert time.perf_counter() - start < 1.0
    assert len(failures) == len(dec.basic_sets)


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "finite", "torus-grid"])
@pytest.mark.parametrize("label", ["symbolic", "finite", "torus-grid"])
def test_a_relabelled_family_is_one_failure(system, kwargs, label):
    """The family is read off the density certificates' mode, so it is
    relabelled only by relabelling that mode, and a mode that does not fit
    the system is one failure, never an exception."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    assert "family" not in {f.name for f in dataclasses.fields(dec)}
    mode = next(m for m, family in _FAMILIES.items() if family == label)
    relabelled = _first_replaced(dec, "periodic_density", mode=mode)
    assert relabelled.family == label
    failures = relabelled.validate(system)
    if label == dec.family:
        assert failures == []
    else:
        assert failures == [f"basic set 0 [periodic-density]: certificate mode "
                            f"{mode!r} does not fit periodic-density evidence "
                            f"on {system.name}"]


def test_symbols_outside_the_alphabet_are_one_failure():
    """A negative symbol passes `allowed`, which indexes the transition
    rows from the end, and a symbol past the alphabet raises there; the
    symbolic routines read every symbol first, and either is one failure
    per certificate, never an exception."""
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    bs = next(b for b in dec.basic_sets if b.nodes == (2, 3, 4))
    assert TWO_BLOCK.allowed(-1, 2)
    for cert in (bs.periodic_density, bs.transitivity):
        assert dataclasses.replace(cert, component=(2, -3, 4)).revalidate(
            TWO_BLOCK) == [
            "1 symbols read are outside the alphabet 0..5: the first is -3"]
    # on golden-mean, basic set 1's symbols 2, 3, 4 are outside the alphabet
    failures = dec.validate(GOLDEN)
    for kind in ("transitivity", "periodic-density"):
        mine = [m for m in failures if m.startswith(f"basic set 1 [{kind}]: ")]
        assert len(mine) == 1
        assert mine[0].endswith("outside the alphabet 0..1: the first is 2")


MALFORMED_WALKS = {
    "none": lambda walk: {"walk": None},
    "list": lambda walk: {"walk": list(walk)},
    "one-node": lambda walk: {"walk": walk[:1], "y_pos": 0},
    "target-past-end": lambda walk: {"y_pos": len(walk)},
    "bool-target": lambda walk: {"y_pos": True},
    "unhashable-node": lambda walk: {"walk": walk[:1] + ([0.5],) + walk[2:]},
}


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "exact-orbit", "metric-walk"])
@pytest.mark.parametrize("malformed", sorted(MALFORMED_WALKS))
def test_a_malformed_walk_is_one_failure(system, kwargs, malformed):
    """A walk demo's ends are read from its walk, so a walk that is no
    tuple of two or more hashable nodes, or a target position that is no
    int index into it, ends the check with one failure, never an
    exception. The exact modes store no walks and refuse any, malformed or
    not, with one failure."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    bs = dec.basic_sets[0]
    demos = bs.transitivity.demos or (_tree_walk(bs.transitivity),)
    broken = dataclasses.replace(demos[0],
                                 **MALFORMED_WALKS[malformed](demos[0].walk))
    cert = dataclasses.replace(bs.transitivity, demos=(broken,) + demos[1:])
    message = (NO_DEMOS.format(cert.mode) if cert.mode != "metric-walk" else
               "a walk node cannot be hashed" if malformed == "unhashable-node"
               else "a walk is not a node tuple with a target position in it")
    assert cert.revalidate(system) == [message]
    tampered = dataclasses.replace(bs, transitivity=cert)
    assert dataclasses.replace(
        dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(system) == [
        f"basic set 0 [transitivity]: {message}"]


@pytest.mark.parametrize("n", [None, 0, -1, 16.0, True, "16", 46341, 2**40,
                               10**30], ids=repr)
def test_a_hostile_resolution_is_one_failure(n):
    """The lattice resolution must be an int n >= 1 (bools refused) with
    n * n in the int32 range, as `torus_grid_graph` builds, or it is one
    failure before any node is decoded: 10**30 raised an OverflowError in
    the decode, and 2**40 overflowed n * n in int64."""
    dec = spectral_decompose(CAT, resolution=16, seed=0, pairs=1)
    cert = dec.basic_sets[0].periodic_density
    assert cert.revalidate(CAT) == []
    message = (f"the lattice resolution {n!r} is not an int n >= 1 with "
               "n * n in the int32 range")
    forged = dataclasses.replace(cert, resolution=n)
    assert forged.revalidate(CAT) == [message]
    assert _first_replaced(dec, "periodic_density", resolution=n).validate(
        CAT) == [f"basic set 0 [periodic-density]: {message}"]


def test_a_traced_orbit_forged_to_a_fixed_point_leaves_e():
    """Each traced orbit replaced by the fixed point 0: every step of the
    forged orbit is exact, but the check builds E from the radius, and the
    orbit starts outside E[x]."""
    dec = spectral_decompose(CAT, resolution=16, seed=0)
    bs = dec.basic_sets[0]
    zero = (Fraction(0), Fraction(0))
    forged = dataclasses.replace(bs.transitivity, demos=tuple(
        dataclasses.replace(d, traced=(zero,) * (len(d.walk) - 1))
        for d in bs.transitivity.demos))
    failures = forged.revalidate(CAT)
    assert [msg.endswith("leaves E[x]") for msg in failures] == [True] * len(
        forged.demos)
    tampered = dataclasses.replace(bs, transitivity=forged)
    assert dataclasses.replace(dec, basic_sets=(tampered,)).validate(CAT)


@pytest.mark.parametrize("system, kwargs, radius", [
    (CAT, {"resolution": 16}, None), (CAT, {"resolution": 16}, "ball")],
    ids=["none-metric-walk", "no-radius-metric-walk"])
def test_a_walk_certificate_without_a_chain_entourage_is_one_failure(
        system, kwargs, radius):
    """The metric-walk mode builds D and E from its radius, so a radius that
    is no positive number, such as None or the chain entourage D itself,
    ends the check with one failure."""
    cert = spectral_decompose(system, seed=0, pairs=2,
                              **kwargs).basic_sets[0].transitivity
    if radius == "ball":
        radius = metric_ball(system, cert.radius)
    wrong = dataclasses.replace(cert, radius=radius)
    assert wrong.revalidate(system) == [
        f"the chain radius {radius!r} is not a positive number"]


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "exact-orbit", "torus"])
@pytest.mark.parametrize("D", ["anything", "full", "ball"])
def test_a_chain_entourage_that_no_check_reads_is_one_failure(system, kwargs, D):
    """Only the metric-walk mode reads a chain radius: symbolic walks step
    by the transitions, finite walks by f itself, and no density check
    reads one. A radius, or anything else, stored on any other certificate
    is its one failure, in revalidate() and in validate(); so is a density
    certificate that stores a witness."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    D = {"anything": "anything", "ball": 0.5,
         "full": finite_relation({(x, y) for x in "abc" for y in "abc"})}[D]
    bs = dec.basic_sets[0]
    for name in ("transitivity", "periodic_density"):
        cert = getattr(bs, name)
        if cert.mode == "metric-walk":
            continue
        stored = dataclasses.replace(cert, radius=D)
        message = f"the {cert.mode} mode reads no radius, yet {D!r} is stored"
        assert stored.revalidate(system) == [message]
        tampered = dataclasses.replace(bs, **{name: stored})
        assert dataclasses.replace(
            dec, basic_sets=(tampered,) + dec.basic_sets[1:]).validate(system) == [
            f"basic set 0 [{cert.kind}]: {message}"]
    witnessed = dataclasses.replace(bs.periodic_density,
                                    witness=bs.transitivity.witness)
    assert witnessed.revalidate(system) == [
        "density evidence reads no connectivity witness, yet one is stored"]


def _demo_replaced(cert, **changes):
    """cert with its first demo changed."""
    first = dataclasses.replace(cert.demos[0], **changes)
    return dataclasses.replace(cert, demos=(first,) + cert.demos[1:])


@pytest.mark.parametrize("system, kwargs", [
    (TWO_BLOCK, {}), (THREE_CYCLE, {}), (CAT, {"resolution": 16})],
    ids=["symbolic", "finite", "torus"])
@pytest.mark.parametrize("gap", [math.nan, True, "x", None],
                         ids=["nan", "bool", "text", "none"])
def test_a_gap_that_is_not_a_number_is_one_failure(system, kwargs, gap):
    """No certificate stores a gap: the printed density_max_gap is measured
    from the cycles that a shift's trees close, and is 0.0 where every node
    is its own periodic point. A demo that carries a gap, a number or not,
    is one failure of each certificate, and the printed gaps stay."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    bs = dec.basic_sets[0]
    certs = {name: getattr(bs, name) for name in ("transitivity", "periodic_density")}
    assert not any(hasattr(d, "gap") for c in certs.values() for d in c.demos)
    gaps = lambda d: [row[3] for row in d.to_report(system).tables["basic-sets"][1]]
    printed = gaps(dec)
    for name, cert in certs.items():
        forged = dataclasses.replace(cert, demos=cert.demos + ((bs.nodes[:1], gap),))
        assert len(forged.revalidate(system)) == 1
        tampered = dataclasses.replace(dec, basic_sets=(
            dataclasses.replace(bs, **{name: forged}),) + dec.basic_sets[1:])
        assert len(tampered.validate(system)) == 1
        assert gaps(tampered) == printed


@pytest.mark.parametrize("system, kwargs, kind, message", [
    (TWO_BLOCK, {}, "transitivity", NO_DEMOS.format("symbolic")),
    (TWO_BLOCK, {}, "periodic_density", NO_DEMOS.format("symbolic")),
    (CAT, {"resolution": 16}, "transitivity",
     "a traced orbit is not a tuple of points"),
    (THREE_CYCLE, {}, "transitivity", NO_DEMOS.format("exact-orbit"))],
    ids=["symbolic-walk", "symbolic-density", "metric-walk", "exact-orbit"])
def test_a_traced_point_of_the_wrong_type_is_one_failure(system, kwargs, kind,
                                                         message):
    """Only metric walks store a traced orbit, a tuple, and one that is no
    tuple is one failure. A traced walk in the symbolic or exact-orbit
    mode, whose trees are the proof, or as shift density evidence, is one
    failure too."""
    bs = spectral_decompose(system, seed=0, pairs=2, **kwargs).basic_sets[0]
    cert = getattr(bs, kind)
    first = cert.demos[0] if cert.demos else _tree_walk(bs.transitivity)
    forged = dataclasses.replace(first, traced=None)
    assert dataclasses.replace(cert, demos=(forged,) + cert.demos[1:]).revalidate(
        system) == [message]


# shift density evidence was a cycle word and a gap per node; now the gap is
# measured from the tree cycles, and any stored word and gap, sound or
# tampered, is one failure that changes no printed gap
CYCLE_TAMPERS = {
    # (basic set, node, changes)
    "leaves": (0, 0, {"word": (0, 5)}),
    "inadmissible": (1, 2, {"word": (2, 4)}),
    "wrong-start": (1, 2, {"word": (3, 4, 2)}),
    "gap-below": (0, 1, {"gap": 0.25}),
    "gap-above": (0, 1, {"gap": 1.5}),
    "none": (1, 2, {"word": None}),
    "list": (1, 2, {"word": [2, 3, 4]}),
    "empty": (1, 2, {"word": ()}),
    "bool-symbol": (1, 2, {"word": (2, True, 4)}),
    "off-alphabet": (1, 2, {"word": (2, 3, 9)}),
}


@pytest.mark.parametrize("tamper", sorted(CYCLE_TAMPERS))
def test_a_tampered_cycle_word_is_one_failure(tamper):
    """A word that leaves its component, is inadmissible, or starts at
    another symbol than its node, a gap below or above the measured 0.5 of
    node 1, and a word that is no non-empty tuple of alphabet symbols: each,
    stored as a density demo, is one failure, and the report still prints
    the measured gaps 0.5 and 0.0."""
    k, node, changes = CYCLE_TAMPERS[tamper]
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    bs = dec.basic_sets[k]
    record = {"word": bs.transitivity.tree_cycle(bs.nodes.index(node)),
              "gap": 0.0} | changes
    forged = dataclasses.replace(bs.periodic_density,
                                 demos=((record["word"], record["gap"]),))
    message = NO_DEMOS.format("symbolic")
    assert forged.revalidate(TWO_BLOCK) == [message]
    sets = list(dec.basic_sets)
    sets[k] = dataclasses.replace(bs, periodic_density=forged)
    tampered = dataclasses.replace(dec, basic_sets=tuple(sets))
    assert tampered.validate(TWO_BLOCK) == [
        f"basic set {k} [periodic-density]: {message}"]
    assert [row[3] for row in tampered.to_report(
        TWO_BLOCK).tables["basic-sets"][1]] == [0.5, 0.0]


FAMILIES = {"cat-map": {"resolution": 12}, "golden-mean": {}, "full-2": {},
            "two-block-sft": {}, "three-cycle": {}}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_validating_against_any_catalog_system_returns_failures(name):
    """A decomposition checked against a system of another family is a list
    of failures, never an exception; only linear saddles and torus
    automorphisms take metric walks, so a torus decomposition fails on
    every other system."""
    systems = {key: entry.build() for key, entry in catalog().items()}
    dec = spectral_decompose(systems[name], seed=0, pairs=2, **FAMILIES[name])
    for key, system in systems.items():
        failures = dec.validate(system)
        assert isinstance(failures, list)
        assert all(isinstance(msg, str) for msg in failures)
        if key == name:
            assert failures == []
        elif name == "cat-map":
            assert failures, key


# hostile fields: one failure each, never an exception

HOSTILE = [None, math.nan, True, -1, 10**30, 2**40, "text", [], [0], (), (0,),
           0.0, 1.5, ((0,),)]
HOSTILE_SYSTEMS = {"two-block-sft": (TWO_BLOCK, {}), "three-cycle": (THREE_CYCLE, {}),
                   "cat-map": (CAT, {"resolution": 16})}
HOSTILE_TARGETS = ["basic_sets", "transitivity", "periodic_density"] + [
    f"{slot}.{field.name}" for slot in ("transitivity", "periodic_density")
    for field in dataclasses.fields(Certificate)]


@pytest.mark.parametrize("target", HOSTILE_TARGETS)
@pytest.mark.parametrize("name", sorted(HOSTILE_SYSTEMS))
def test_a_hostile_field_is_one_failure(name, target):
    """Each hostile value in one field of the first basic set's
    certificates, in one of its certificate slots, or in the decomposition's
    basic sets, is exactly one failure string; a None where None is stored
    (a radius outside the metric-walk mode, a density witness) stays
    clean."""
    system, kwargs = HOSTILE_SYSTEMS[name]
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    bs = dec.basic_sets[0]
    slot, _, field = target.partition(".")
    for value in HOSTILE:
        if target == "basic_sets":
            forged = dataclasses.replace(dec, basic_sets=value)
        else:
            if field and value is getattr(getattr(bs, slot), field):
                continue
            held = (dataclasses.replace(getattr(bs, slot), **{field: value})
                    if field else value)
            forged = dataclasses.replace(dec, basic_sets=(
                dataclasses.replace(bs, **{slot: held}),) + dec.basic_sets[1:])
        failures = forged.validate(system)
        assert len(failures) == 1 and type(failures[0]) is str, (value, failures)


# forged radii and resolutions: the report prints them, so they bind


def _first_replaced(dec, slot, **changes):
    """dec with one certificate of its first basic set changed."""
    bs = dec.basic_sets[0]
    cert = dataclasses.replace(getattr(bs, slot), **changes)
    return dataclasses.replace(dec, basic_sets=(
        dataclasses.replace(bs, **{slot: cert}),) + dec.basic_sets[1:])


def test_forged_decompositions_are_one_failure_each():
    """Four forgeries that re-check clean certificate by certificate: a
    metric-walk radius raised above the printed cut rung, a radius stored
    where the exact-orbit and symbolic checks read none, and one density
    certificate at resolution 32 in a decomposition at 16, whose nodes are
    lattice nodes at 32 too. The torus ones are checked against a fresh
    instance of the cat map."""
    fresh = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
    cat = spectral_decompose(CAT, resolution=16, seed=0)
    assert cat.ladder == (0.25, 0.125, 0.0625) and cat.stabilization_index == 1
    assert cat.basic_sets[0].transitivity.radius == 0.125
    fine = spectral_decompose(CAT, resolution=16, ladder=0.03, seed=0, pairs=1)
    assert fine.component_count > 1 and fine.resolution == 16
    doubled = dataclasses.replace(fine.basic_sets[0].periodic_density,
                                  resolution=32)
    assert doubled.revalidate(fresh) == []
    three = spectral_decompose(THREE_CYCLE, seed=0)
    forged = [
        (_first_replaced(cat, "transitivity", radius=0.5), fresh,
         "basic set 0 [transitivity]: the chain radius 0.5 is not the cut "
         "rung 0.125"),
        (_first_replaced(three, "transitivity", radius=0.125), THREE_CYCLE,
         "basic set 0 [transitivity]: the exact-orbit mode reads no radius, "
         "yet 0.125 is stored"),
        (_first_replaced(spectral_decompose(TWO_BLOCK, seed=0), "transitivity",
                         radius="anything"), TWO_BLOCK,
         "basic set 0 [transitivity]: the symbolic mode reads no radius, yet "
         "'anything' is stored"),
        (_first_replaced(fine, "periodic_density", resolution=32), fresh,
         "the density certificates are at resolutions [16, 32], not one"),
    ]
    assert cat.validate(fresh) == [] and fine.validate(fresh) == []
    for dec, system, message in forged:
        assert dec.validate(system) == [message]


def test_moving_the_stabilization_index_moves_the_cut_rung():
    """The stabilization index picks the rung the radius is bound to, so on the torus
    moving it, or dropping it for the last rung, is one failure per basic
    set; an index off the ladder is one failure."""
    dec = spectral_decompose(CAT, resolution=16, seed=0, pairs=1)
    assert dec.stabilization_index == 1
    for moved in (0, 2, None):
        failures = dataclasses.replace(dec, stabilization_index=moved).validate(CAT)
        assert len(failures) == len(dec.basic_sets)
        assert all("is not the cut rung" in msg for msg in failures)
    for off in (3, -1, 1.0, True):
        assert dataclasses.replace(dec, stabilization_index=off).validate(CAT) == [
            f"the stabilization index {off!r} is not a step of the ladder "
            f"{dec.ladder!r}"]


# what a decomposition derives from its basic sets, against the values it
# stored before they were derived: sha256 of repr((recurrent_nodes, exact,
# note)) on every catalog system that decompose supports
DERIVED = {
    ("cat-map", 12, None): "f86094e10f3c622d169084c776660fe60e0b73d1d1a6175eb75077422b90c815",
    ("cat-map", 16, 0.03): "8fb691347162b171d37babbf7d67ee790f37b7e655c50b0cd41990226f664dfd",
    ("cat-map", 30, 0.01): "c575547c1e0d540f01d765bc3bff74a71eedb2e9e3dfabf8c7225616134fcb33",
    ("full-2", None, None): "171836510803c2f2a2597cbdb47d7aa2b1f104d9c46e1b35c31118190c7cb020",
    ("golden-mean", None, None): "171836510803c2f2a2597cbdb47d7aa2b1f104d9c46e1b35c31118190c7cb020",
    ("three-cycle", None, None): "f69b4ea8e32c12529fe47e0297c35757b1bf6f7e3b978a324b56c6c0e6022b6c",
    ("two-block-sft", None, None): "9def3f39b9c1e717aad6c844dff02a400ef87dd6dd5cbd2c7b79f48e2685a967",
}


@pytest.mark.parametrize("name, resolution, ladder", sorted(
    DERIVED, key=str), ids=lambda v: str(v))
def test_derived_decomposition_facts_keep_their_values(name, resolution, ladder):
    """recurrent_nodes, family, resolution, exact, note and the ids are
    derived, not stored: the values of the first and the last two are the
    stored ones of before, the ids are positions, the recurrent count is
    the ladder's at the cut step, and the report counts the nodes from the
    basic sets' sizes. Dropping a basic set drops its
    nodes from the derived set and the report, so the printed counts cannot
    disagree with the basic sets."""
    system = catalog()[name].build()
    kwargs = {"resolution": resolution, "ladder": ladder} if resolution else {}
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    assert not any(f.name in ("recurrent_nodes", "family", "resolution",
                              "exact", "note") for f in dataclasses.fields(dec))
    assert [f.name for f in dataclasses.fields(dec.basic_sets[0])] == [
        "transitivity", "periodic_density"]
    text = repr((dec.recurrent_nodes, dec.exact, dec.note))
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVED[
        name, resolution, ladder]
    step = dec.stabilization_index
    assert len(dec.recurrent_nodes) == dec.history[
        step if step is not None else -1][0]
    rep = dec.to_report(system)
    assert rep.header["recurrent_nodes"] == len(dec.recurrent_nodes)
    assert [row[0] for row in rep.tables["basic-sets"][1]] == list(
        range(dec.component_count))
    kept = dataclasses.replace(dec, basic_sets=dec.basic_sets[:1])
    assert kept.recurrent_nodes == tuple(sorted(dec.basic_sets[0].nodes))
    assert kept.to_report(system).header["recurrent_nodes"] == dec.basic_sets[0].size


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
    assert dens.demos == () and dens.resolution is None
    assert all(perm.orbit_period(x) == 3 for x in dens.component)
    trans = dec.basic_sets[0].transitivity
    assert trans.radius is None and trans.demos == ()


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
    assert dec.to_report(CAT).exit_code == 0


def test_cat_grid_certificates_revalidate():
    dec = spectral_decompose(CAT, resolution=16, seed=2, pairs=4)
    assert dec.validate(CAT) == []
    dens = dec.basic_sets[0].periodic_density
    assert dens.mode == "lattice-cycle"
    assert dens.resolution == 16 and dens.demos == ()
    assert dec.to_report(CAT).tables["basic-sets"][1][0][3] == 0.0
    trans = dec.basic_sets[0].transitivity
    assert trans.mode == "metric-walk"
    assert type(trans.radius) is float and trans.radius == dec.ladder[
        dec.stabilization_index]
    for demo in trans.demos:
        assert type(demo) is TracedWalk
        period = len(demo.walk) - 1
        assert len(demo.traced) == period
        # stored loops are exact rational orbits
        for k in range(period):
            z = CAT.forward(demo.traced[k])
            assert z == demo.traced[(k + 1) % period]


# ---------------------------------------------------------------------------
# guards


def test_unsupported_system_raises():
    with pytest.raises(TypeError):
        spectral_decompose(_north_south())


def test_transitivity_needs_a_whole_scc():
    graph = symbol_graph_chain(GOLDEN)
    with pytest.raises(ValueError):
        transitivity_certificate(graph, [0], GOLDEN)
    with pytest.raises(ValueError):
        transitivity_certificate(graph, [], GOLDEN)


def test_symbol_graph_chain_mirrors_transitions():
    graph = symbol_graph_chain(TWO_BLOCK)
    assert graph.nodes == (0, 1, 2, 3, 4, 5)
    assert graph.successors(0) == (0, 1, 5)
    assert graph.successors(5) == (2,)


def test_density_certificate_reads_the_resolution_from_the_grid_graph():
    """A density certificate takes the graph and node indices that a
    transitivity certificate takes; on the torus it keeps the resolution of
    the grid graph and no demos, and on a system with no density route it
    raises."""
    graph = torus_grid_graph(CAT, 12, 4 / 12)
    nodes = range(graph.node_count)
    dens = periodic_density_certificate(graph, nodes, CAT)
    assert dens.component == transitivity_certificate(graph, nodes, CAT).component
    assert (dens.mode, dens.resolution, dens.demos) == ("lattice-cycle", 12, ())
    assert dens.revalidate(CAT) == []
    with pytest.raises(TypeError):
        periodic_density_certificate(graph, nodes, _north_south())


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
# lattice certificates and lattice indices


def _lattice_node_tampers(cert):
    """Named density certificates that differ from `cert`, about a whole
    n x n grid in grid order, in one way each, with the failures each
    must give."""
    n, nodes = cert.resolution, cert.component
    show = CAT.point_to_text
    with_nodes = lambda changed: dataclasses.replace(cert, component=changed)
    k = len(nodes) // 2
    i, j = round(nodes[k][0] * n), round(nodes[k][1] * n)
    pre = nodes[((i - j) % n) * n + (2 * j - i) % n]  # the cat map sends it to k
    image_fails = [f"image of {show(pre)} is more than one grid cell from "
                   "the component"]
    moved = (math.nextafter(nodes[k][0], 2.0), nodes[k][1])
    off = "nodes of the component are off the lattice: the first,"
    return {
        "untampered": (cert, []),
        "dropped": (with_nodes(nodes[:k] + nodes[k + 1:]), image_fails),
        "repeated": (with_nodes(nodes[:k] + nodes[k - 1:k] + nodes[k + 1:]),
                     image_fails),
        "one-ulp": (with_nodes(nodes[:k] + (moved,) + nodes[k + 1:]), [
            f"1 {off} {show(moved)}, is not a lattice node (i/{n}, j/{n})"]),
        # (i/n, j/n) is on the lattice of n/2 when i and j are both even
        "halved": (dataclasses.replace(cert, resolution=n // 2), [
            f"{3 * n * n // 4} {off} {show(nodes[1])}, is not a lattice node "
            f"(i/{n // 2}, j/{n // 2})"]),
    }


@pytest.mark.parametrize("n", [16, 20, 24])
def test_every_lattice_node_tamper_fails(n):
    """A torus density certificate stores its nodes and resolution alone:
    a node dropped or overwritten fails at its preimage's image, a node one
    ulp off the lattice is one failure, and so are the nodes off the
    lattice of half the resolution."""
    dec = spectral_decompose(CAT, resolution=n, seed=0, pairs=2)
    assert dec.validate(CAT) == [] and dec.component_count == 1
    for name, (forged, want) in _lattice_node_tampers(
            dec.basic_sets[0].periodic_density).items():
        assert forged.revalidate(CAT) == want, name


@pytest.mark.parametrize("n, kwargs", [
    (16, {"ladder": 0.03}), (20, {}), (24, {})])
def test_torus_density_records_have_one_entry_per_node(n, kwargs):
    """A torus density certificate's one per-node column is its component:
    one entry per node of its basic set, and one per recurrent node over
    all basic sets. It stores no demo rows."""
    dec = spectral_decompose(CAT, resolution=n, seed=0, pairs=2, **kwargs)
    assert dec.basic_sets
    for bs in dec.basic_sets:
        assert bs.periodic_density.component == bs.nodes
        assert bs.periodic_density.demos == ()
    assert sum(len(bs.periodic_density.component)
               for bs in dec.basic_sets) == len(dec.recurrent_nodes)


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


# ---------------------------------------------------------------------------
# connectivity witnesses: out- and in-trees that prove strong connectivity


def _with_witness(bs, witness):
    return dataclasses.replace(bs, transitivity=dataclasses.replace(
        bs.transitivity, witness=witness))


def _leaf_rewired(system, bs, tree):
    """bs with one leaf of its out- or in-tree hung from a node whose tree
    edge into (or out of) the leaf is no D-step, with its level one below
    its new parent's, so the tree still spans the component."""
    cert = bs.transitivity
    w, comp = cert.witness, cert.component
    parent = getattr(w, f"{tree}_parent").copy()
    level = getattr(w, f"{tree}_level").copy()
    chained = (system.allowed if cert.mode == "symbolic" else
               (lambda a, b: system.forward(a) == b)
               if cert.mode == "exact-orbit" else
               lambda a, b: metric_ball(system, cert.radius).accepts(
                   system.forward(a), b))
    step = ((lambda q, k: chained(comp[q], comp[k])) if tree == "out" else
            (lambda q, k: chained(comp[k], comp[q])))
    leaves = sorted(set(range(1, len(comp))) - set(parent.tolist()))
    k, q = next((k, q) for k in leaves for q in range(len(comp))
                if q != k and not step(q, k))
    parent[k], level[k] = q, level[q] + 1
    return _with_witness(bs, dataclasses.replace(
        w, **{f"{tree}_parent": parent, f"{tree}_level": level}))


def _out_non_edge(system, bs, other):
    return _leaf_rewired(system, bs, "out")


def _in_non_edge(system, bs, other):
    return _leaf_rewired(system, bs, "in")


def _level_raised(system, bs, other):
    w = bs.transitivity.witness
    level = w.out_level.copy()
    level[-1] += 1
    return _with_witness(bs, dataclasses.replace(w, out_level=level))


def _parent_cycle(system, bs, other):
    """Two nodes off the root that are each other's parent, the second one
    level below the first, as a tree edge would put it."""
    w = bs.transitivity.witness
    parent, level = w.out_parent.copy(), w.out_level.copy()
    u, v = len(parent) - 2, len(parent) - 1
    parent[u], parent[v] = v, u
    level[u] = level[v] + 1
    return _with_witness(bs, dataclasses.replace(
        w, out_parent=parent, out_level=level))


def _witness_short(system, bs, other):
    w = bs.transitivity.witness
    return _with_witness(bs, ConnectivityWitness(
        w.out_parent[:-1], w.out_level[:-1], w.in_parent[:-1], w.in_level[:-1]))


def _witness_as(dtype):
    def tamper(system, bs, other):
        w = bs.transitivity.witness
        return _with_witness(bs, ConnectivityWitness(
            *(a.astype(dtype) for a in (w.out_parent, w.out_level,
                                        w.in_parent, w.in_level))))
    return tamper


def _foreign_witness(system, bs, other):
    return _with_witness(bs, other.transitivity.witness)


def _no_witness(system, bs, other):
    return _with_witness(bs, None)


NOT_A_TREE = "witness is not a tree rooted at the first node"
WITNESS_TAMPERS = {
    "out-non-edge": (_out_non_edge,
                     "component is not strongly connected under D along its "
                     "out-tree: 1 of its edges are not D-steps"),
    "in-non-edge": (_in_non_edge,
                    "component is not strongly connected under D along its "
                    "in-tree: 1 of its edges are not D-steps"),
    "level-raised": (_level_raised, f"the out-tree {NOT_A_TREE}"),
    "parent-cycle": (_parent_cycle, f"the out-tree {NOT_A_TREE}"),
    "one-short": (_witness_short, "the connectivity witness does not have "
                                  "one entry per component node"),
    "float-arrays": (_witness_as(float),
                     "a connectivity witness array is not an int array"),
    "bool-arrays": (_witness_as(bool),
                    "a connectivity witness array is not an int array"),
    "no-witness": (_no_witness, "no connectivity witness for the component"),
}
THREE_AND_TWO = permutation_from_cycles([("a", "b", "c"), ("d", "e")],
                                        name="three-and-two")


def _witness_failures_after(tamper, system, kwargs):
    """The id (position) of the first largest basic set of a decomposition, and the
    validate() failures after its witness was tampered with, taking `other`
    from the first basic set of another size. On two-block-sft that is
    {2, 3, 4}, as every step inside {0, 1} is allowed."""
    dec = spectral_decompose(system, seed=0, pairs=2, **kwargs)
    assert dec.validate(system) == []
    first = max(dec.basic_sets, key=lambda bs: bs.size)
    other = next((bs for bs in dec.basic_sets if bs.size != first.size), first)
    tampered = tuple(tamper(system, bs, other) if bs is first else bs
                     for bs in dec.basic_sets)
    return dec.basic_sets.index(first), dataclasses.replace(
        dec, basic_sets=tampered).validate(system)


@pytest.mark.parametrize("system, kwargs", [
    (CAT, {"resolution": 16}), (CAT, {"resolution": 20}), (THREE_CYCLE, {}),
    (TWO_BLOCK, {})], ids=["torus-16", "torus-20", "three-cycle", "two-block-sft"])
@pytest.mark.parametrize("kind", sorted(WITNESS_TAMPERS))
def test_a_tampered_connectivity_witness_is_rejected(kind, system, kwargs):
    tamper, message = WITNESS_TAMPERS[kind]
    _, failures = _witness_failures_after(tamper, system, kwargs)
    assert any(message in msg for msg in failures), failures


@pytest.mark.parametrize("system, kwargs", [
    (CAT, {"resolution": 16, "ladder": 0.03}),
    (CAT, {"resolution": 20, "ladder": 0.04}), (THREE_AND_TWO, {}),
    (TWO_BLOCK, {})],
    ids=["torus-16", "torus-20", "three-and-two", "two-block-sft"])
def test_the_witness_of_another_basic_set_is_rejected(system, kwargs):
    ident, failures = _witness_failures_after(_foreign_witness, system, kwargs)
    assert (f"basic set {ident} [transitivity]: the connectivity witness does "
            "not have one entry per component node") in failures


@pytest.mark.parametrize("system, kwargs", [
    (CAT, {"resolution": 20}), (THREE_CYCLE, {})], ids=["torus", "finite"])
def test_a_witness_with_bad_edges_is_one_failure_per_tree(system, kwargs):
    """A step relation under which most tree edges are no step still gives
    one line per tree, with the count and the first bad edge by its points,
    as the step finds them edge by edge: on the torus a D of exact lattice
    steps, on a finite system the reversed map, whose step is f(a) == b."""
    cert = spectral_decompose(system, seed=0, pairs=2,
                              **kwargs).basic_sets[0].transitivity
    comp = cert.component
    if system is CAT:  # only exact lattice steps stay D-steps
        D = metric_ball(CAT, 1e-9)
        cert = dataclasses.replace(cert, radius=D.radius)
        step = lambda a, b: D.accepts(CAT.forward(a), b)
    else:
        system = FiniteSystem(tuple(system.points), {
            system.forward(x): x for x in system.points}, name="reversed")
        step = lambda a, b: system.forward(a) == b
    w, want = cert.witness, []
    for name, edges in (
            ("out-tree", [(w.out_parent[k], k) for k in range(1, len(comp))]),
            ("in-tree", [(k, w.in_parent[k]) for k in range(1, len(comp))])):
        off = [(comp[a], comp[b]) for a, b in edges if not step(comp[a], comp[b])]
        assert len(off) > len(comp) // 2
        want.append(f"component is not strongly connected under D along its "
                    f"{name}: {len(off)} of its edges are not D-steps, the "
                    f"first from {system.point_to_text(off[0][0])} to "
                    f"{system.point_to_text(off[0][1])}")
    assert _witness_failures(cert, system) == want


def test_a_connectivity_witness_cannot_be_written():
    arrays = [np.zeros(3, dtype=np.int32) for _ in range(4)]
    witness = ConnectivityWitness(*arrays)
    for values in (witness.out_parent, witness.out_level, witness.in_parent,
                   witness.in_level):
        with pytest.raises(ValueError):
            values[0] = 1
    arrays[0][0] = 1  # the witness holds its own copies
    assert witness.out_parent[0] == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        witness.out_parent = arrays[0]
    cert = spectral_decompose(CAT, resolution=16, seed=0, pairs=1).basic_sets[0]
    stored = cert.transitivity.witness
    assert stored.out_parent.dtype == np.int32
    with pytest.raises(ValueError):
        stored.in_level[1] = 0


# the witness check against the fresh float chain graph of the component


def _fresh_witness_passes(system, cert, fresh):
    """Whether a witness built by the library's tree search on the fresh
    graph of cert's D spans the component both ways and passes the check;
    a graph that does not reach every node from node 0, and back, has no
    such witness."""
    m = fresh.node_count
    everywhere = np.ones(m, dtype=bool)
    trees = [_bfs_tree(*csr, everywhere, 0) for csr in (
        (fresh.indptr, fresh.indices), fresh.reversed_csr())]
    if any((level < 0).any() for _, level in trees):
        return False
    (op, ol), (ip, il) = trees
    return _witness_failures(dataclasses.replace(
        cert, witness=ConnectivityWitness(op, ol, ip, il)), system) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 24), st.floats(0.6, 4.5), st.floats(0.05, 1.0),
       st.integers(0, 3))
def test_torus_witness_check_agrees_with_the_fresh_chain_graph(
        n, cells, tighter, seed):
    """On the construction's D the stored witness passes and the fresh
    float graph is strongly connected. On a D tightened at random, a
    passing stored witness still means a strongly connected fresh graph,
    it passes exactly when its tree edges are all fresh-graph edges, and
    a witness built on the fresh graph passes exactly when that graph is
    strongly connected."""
    dec = spectral_decompose(CAT, resolution=n, ladder=cells / n, seed=seed,
                             pairs=1)
    for bs in dec.basic_sets[:3]:
        cert = bs.transitivity
        D = metric_ball(CAT, cert.radius)
        assert _witness_failures(cert, CAT) == []
        assert build_chain_graph(CAT, cert.component, D).is_strongly_connected()
        tight = dataclasses.replace(cert, radius=cert.radius * tighter)
        fresh = build_chain_graph(CAT, cert.component,
                                  metric_ball(CAT, tight.radius))
        stored = _witness_failures(tight, CAT) == []
        w = cert.witness
        edges = [(int(w.out_parent[k]), k) for k in range(1, bs.size)] + [
            (k, int(w.in_parent[k])) for k in range(1, bs.size)]
        assert stored == all(fresh.has_edge(a, b) for a, b in edges)
        assert not stored or fresh.is_strongly_connected()
        assert _fresh_witness_passes(CAT, tight, fresh) == (
            fresh.is_strongly_connected())


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(9)), st.data())
def test_finite_witness_check_agrees_with_the_fresh_chain_graph(perm, data):
    """On random permutations f, checked against f or against f with the
    images of two random points swapped, the stored witness passes exactly
    when the fresh graph of the basic set under the map checked against is
    strongly connected: the two trees of a cycle hold all its steps, and a
    swap splits a cycle, or merges two, so it breaks every cycle it
    touches."""
    system = FiniteSystem(tuple(range(9)), dict(enumerate(perm)), name="perm")
    dec = spectral_decompose(system, seed=0)
    assert dec.validate(system) == []
    images = list(perm)
    u, v = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    images[u], images[v] = images[v], images[u]
    swapped = FiniteSystem(system.points, dict(enumerate(images)), name="swapped")
    diagonal = finite_relation({(x, x) for x in system.points},
                               space_id=swapped.space_id, points=system.points)
    for bs in dec.basic_sets:
        cert = bs.transitivity
        fresh = build_chain_graph(swapped, cert.component, diagonal)
        assert (_witness_failures(cert, swapped) == []) == (
            fresh.is_strongly_connected())
        assert _fresh_witness_passes(swapped, cert, fresh) == (
            fresh.is_strongly_connected())


# the tree search against a first-in first-out queue


def _queue_bfs_tree(adjacency, inside, root):
    """Parent and level of every node a first-in first-out queue reaches
    from root through the set `inside`, over sorted successor lists."""
    parent, level = {root: root}, {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w in inside and w not in parent:
                parent[w], level[w] = u, level[u] + 1
                queue.append(w)
    return parent, level


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_array_bfs_paths_and_trees_match_the_queue_bfs(n, data):
    """On random graphs and masks, `_bfs_path` returns the queue's path and
    `_bfs_tree` the queue's parents and levels, -1 where it never gets.
    Rows may repeat a successor, which the one-node frontier step keeps."""
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6),
                              min_size=n, max_size=n))
    src = np.repeat(np.arange(n), [len(row) for row in rows])
    dst = np.array([j for row in rows for j in row], dtype=np.int64)
    graph = ChainGraph(tuple(range(n)), *_csr(n, src, dst), "test")
    inside = data.draw(st.sets(st.integers(0, n - 1)))
    mask = np.zeros(n, dtype=bool)
    mask[sorted(inside)] = True
    adjacency = [graph.successors(i) for i in range(n)]
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    assert _bfs_path(graph, mask, a, b) == _queue_bfs_path(adjacency, inside, a, b)
    parent, level = _bfs_tree(graph.indptr, graph.indices, mask, a)
    want_parent, want_level = _queue_bfs_tree(adjacency, inside, a)
    assert parent.tolist() == [want_parent.get(v, -1) for v in range(n)]
    assert level.tolist() == [want_level.get(v, -1) for v in range(n)]


# ---------------------------------------------------------------------------
# the exact families are proven by their witness trees


def _largest(dec):
    """The position of the first largest basic set, and that basic set."""
    bs = max(dec.basic_sets, key=lambda b: b.size)
    return dec.basic_sets.index(bs), bs


def _one_node(system, bs):
    """bs as the one-node component of its first node, with the trivial
    trees of one node: its transitivity checks, as no tree has an edge."""
    node, root = bs.nodes[:1], np.zeros(1, dtype=np.int32)
    return BasicSet(
        dataclasses.replace(bs.transitivity, component=node,
                            witness=ConnectivityWitness(root, root, root, root)),
        dataclasses.replace(bs.periodic_density, component=node))


def _dropped(slot):
    def tamper(system, bs):
        cert = getattr(bs, slot)
        return dataclasses.replace(bs, **{slot: dataclasses.replace(
            cert, component=cert.component[:-1])})
    return tamper


def _stored_demo(slot):
    def tamper(system, bs):
        return dataclasses.replace(bs, **{slot: dataclasses.replace(
            getattr(bs, slot), demos=(_tree_walk(bs.transitivity),))})
    return tamper


EXACT_TAMPERS = {
    "rewired-out-edge": lambda system, bs: _leaf_rewired(system, bs, "out"),
    "rewired-in-edge": lambda system, bs: _leaf_rewired(system, bs, "in"),
    "dropped-node-transitivity": _dropped("transitivity"),
    "dropped-node-density": _dropped("periodic_density"),
    "one-node-without-loop": _one_node,
    "walk-demo-transitivity": _stored_demo("transitivity"),
    "walk-demo-density": _stored_demo("periodic_density"),
}


@pytest.mark.parametrize("system", [TWO_BLOCK, THREE_CYCLE],
                         ids=["two-block-sft", "three-cycle"])
@pytest.mark.parametrize("tamper", sorted(EXACT_TAMPERS))
def test_an_exact_tamper_is_one_failure(system, tamper):
    """On a shift and a finite map the trees are the whole proof, so each
    of these, done to the largest basic set, is exactly one failure: a tree
    edge rewired to a node it is no step from, a node dropped from either
    certificate's component, the set cut to its first node, which has no
    loop (2 on two-block-sft, a on three-cycle), and any demo stored on an
    exact certificate."""
    dec = spectral_decompose(system, seed=0)
    assert dec.validate(system) == []
    k, bs = _largest(dec)
    assert bs.transitivity.demos == bs.periodic_density.demos == ()
    sets = list(dec.basic_sets)
    sets[k] = EXACT_TAMPERS[tamper](system, bs)
    failures = dataclasses.replace(dec, basic_sets=tuple(sets)).validate(system)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"basic set {k} ")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.data())
def test_tree_cycles_are_admissible_cycles_and_give_the_printed_gap(n, data):
    """On random shifts, the word that the trees close through each node of
    a basic set starts at that node, stays in the component and is
    admissible read round, so its periodic point is a point of the basic
    set in the node's cylinder; the largest gap of those points to the
    nodes' representative points is the printed density_max_gap."""
    rows = [[data.draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # every symbol needs an exit and an entry
        if not any(rows[i]):
            rows[i][data.draw(st.integers(0, n - 1))] = True
    for j in range(n):
        if not any(row[j] for row in rows):
            rows[data.draw(st.integers(0, n - 1))][j] = True
    system = sft_shift(tuple("".join("1" if v else "0" for v in row)
                             for row in rows), name="drawn")
    dec = spectral_decompose(system, seed=0)
    assert dec.validate(system) == []
    printed = dec.to_report(system).tables["basic-sets"][1]
    for bs, row in zip(dec.basic_sets, printed, strict=True):
        gaps = []
        for k, node in enumerate(bs.nodes):
            word = bs.transitivity.tree_cycle(k)
            assert word[0] == node and set(word) <= set(bs.nodes)
            assert all(system.allowed(a, b)
                       for a, b in zip(word, word[1:] + word[:1]))
            assert len(word) <= max(1, 2 * (bs.size - 1))
            gaps.append(sft_metric(system.periodic_point(word),
                                   system.representative_point(node)))
        assert row[3] == max(gaps)


@pytest.mark.parametrize("tree", ["out", "in"])
def test_tree_cycles_on_cyclic_parents_end_and_print_nan(tree):
    """Two parents of a tree that point at each other never reach the root,
    so the cycles through them are not closed: the walk up the parents
    stops after |C| of them, the report prints NaN for that basic set's
    gap, and validate() fails the tree once."""
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    k, bs = _largest(dec)
    w = bs.transitivity.witness
    parent = getattr(w, f"{tree}_parent").copy()
    parent[1], parent[2] = 2, 1
    forged = _with_witness(bs, dataclasses.replace(
        w, **{f"{tree}_parent": parent}))
    assert all(forged.transitivity.tree_cycle(j) is None for j in range(3))
    sets = list(dec.basic_sets)
    sets[k] = forged
    tampered = dataclasses.replace(dec, basic_sets=tuple(sets))
    gaps = [row[3] for row in tampered.to_report(
        TWO_BLOCK).tables["basic-sets"][1]]
    assert math.isnan(gaps[k]) and gaps[1 - k] == 0.5
    assert tampered.validate(TWO_BLOCK) == [
        f"basic set {k} [transitivity]: the {tree}-tree {NOT_A_TREE}"]


@pytest.mark.parametrize("name, kwargs", [
    ("two-block-sft", {}), ("three-cycle", {}), ("golden-mean", {}),
    ("full-2", {}), ("cat-map", {"resolution": 16, "ladder": 0.03}),
    ("cat-map", {"resolution": 30, "ladder": 0.01}),
    ("cat-map", {"resolution": 32}), ("cat-map", {"resolution": 40}),
    ("cat-map", {"resolution": 5})],
    ids=["two-block-sft", "three-cycle", "golden-mean", "full-2",
         "cat-map-16-ladder-0.03", "cat-map-30-ladder-0.01", "cat-map-32",
         "cat-map-40", "cat-map-5"])
def test_the_history_row_of_the_cut_rung_is_bound(name, kwargs):
    """The history row of the cut rung, the last when the index is none,
    must hold the counts of recurrent nodes and basic sets: it does on
    every decomposition, and a row one off in either count, or a history
    that is not one row per rung, is one failure."""
    system = catalog()[name].build()
    dec = spectral_decompose(system, seed=0, pairs=1, **kwargs)
    assert dec.validate(system) == []
    step = dec.stabilization_index
    at = len(dec.ladder) - 1 if step is None else step
    r, c = dec.history[at]
    assert (r, c) == (len(dec.recurrent_nodes), len(dec.basic_sets))
    message = (f"the ladder history does not read {(r, c)}, the counts of "
               f"recurrent nodes and basic sets, at the cut step {at}")
    for row in ((r + 1, c), (r, c - 1), [r, c]):
        rows = dec.history[:at] + (row,) + dec.history[at + 1:]
        assert dataclasses.replace(dec, history=rows).validate(system) == [message]
    for rows in (dec.history[:-1], list(dec.history), None):
        assert dataclasses.replace(dec, history=rows).validate(system) == [message]


def test_a_dropped_basic_set_fails_at_the_history_row():
    """Two-block-sft with its last basic set dropped re-checks clean set by
    set, but the history row of its cut rung still reads 5 recurrent
    symbols in 2 basic sets: one failure."""
    dec = spectral_decompose(TWO_BLOCK, seed=0)
    assert dec.history == ((5, 2),)
    kept = dataclasses.replace(dec, basic_sets=dec.basic_sets[:1])
    assert kept.validate(TWO_BLOCK) == [
        "the ladder history does not read (2, 1), the counts of recurrent "
        "nodes and basic sets, at the cut step 0"]
