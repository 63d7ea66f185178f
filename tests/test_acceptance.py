"""End-to-end acceptance checks, one per advertised capability.

Each test prints a single verdict line (visible under pytest -s) and
asserts the full set of conditions behind it. Tolerances and sample
counts are part of the contract and are not loosened here: a failure
means the library no longer delivers the advertised bound.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction

from topodyn import (
    FiniteRelation,
    GaugeBall,
    PERIODIC,
    PseudoOrbit,
    build_chain_graph,
    chain_recurrent_set,
    compute_defects,
    linear_hyperbolic,
    local_stable_set,
    local_unstable_set,
    metric_ball,
    nonwandering_set,
    periodic_density_certificate,
    perturbed_pseudo_orbit,
    product_map_t,
    sft_shift,
    smooth_gauge,
    spectral_decompose,
    stability_conjugacy_h,
    strong_chain_recurrent_set,
    symbol_graph_chain,
    torus_automorphism,
    torus_grid_graph,
    trace_linear_hyperbolic,
    trace_sft,
    trig_perturbation,
    unique_tracing_check,
)
from topodyn.cli import main as cli_main
from topodyn.demos import run_demo
from topodyn.systems import FiniteSystem, catalog

DIAG = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle")
CAT = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
GOLDEN = sft_shift(("11", "10"), name="golden-mean")
FULL2 = sft_shift(("11", "11"), name="full-2")
TWO_BLOCK = sft_shift(
    ("110001", "110000", "000100", "000010", "001000", "001000"),
    name="two-block-sft",
)


def _verdict(label, failures):
    print(f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{label}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# reachability oracle, independent of the library's SCC route


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


def _random_sft(rng, trial, max_size=8):
    size = rng.randint(2, max_size)
    rows = [[rng.random() < 0.4 for _ in range(size)] for _ in range(size)]
    for i in range(size):  # every symbol needs an exit and an entry
        if not any(rows[i]):
            rows[i][rng.randrange(size)] = True
    for j in range(size):
        if not any(rows[i][j] for i in range(size)):
            rows[rng.randrange(size)][j] = True
    spec = tuple("".join("1" if v else "0" for v in row) for row in rows)
    return sft_shift(spec, name=f"random-{trial}")


# ---------------------------------------------------------------------------
# 1. symbolic decomposition against the brute-force oracle


def test_symbolic_decomposition_matches_oracle_on_50_sfts():
    failures = []
    rng = random.Random(2024)
    start = time.perf_counter()
    for trial in range(50):
        system = _random_sft(rng, trial)
        recurrent, parts = _oracle_basic_sets(system)
        dec = spectral_decompose(system, seed=trial)
        if set(dec.recurrent_nodes) != recurrent:
            failures.append(f"trial {trial}: recurrent nodes disagree")
        if {frozenset(bs.nodes) for bs in dec.basic_sets} != parts:
            failures.append(f"trial {trial}: partition disagrees with oracle")
        problems = dec.validate(system)  # disjoint, invariant, certified
        if problems:
            failures.append(f"trial {trial}: {problems[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict("symbolic decomposition matches brute-force oracle (50 runs, "
             f"{elapsed:.2f}s)", failures)


# ---------------------------------------------------------------------------
# 2. torus decomposition: one basic set, stable under ladder refinement


def test_torus_decomposition_single_component_across_resolutions():
    failures = []
    elapsed = {}
    for n in (32, 64, 128):
        start = time.perf_counter()
        # top radius 8 cells: every ladder step stays at >= 2 grid cells
        dec = spectral_decompose(CAT, resolution=n, ladder=8.0 / n)
        elapsed[n] = time.perf_counter() - start
        if dec.component_count != 1:
            failures.append(f"n={n}: {dec.component_count} basic sets")
        covered = set(dec.basic_sets[0].nodes) if dec.basic_sets else set()
        if covered != set(dec.recurrent_nodes):
            failures.append(f"n={n}: basic set does not cover recurrence")
        for step, (rec, comps) in enumerate(dec.history):
            if comps != 1 or rec != n * n:
                failures.append(
                    f"n={n}: ladder step {step} gives ({rec}, {comps})")
        if dec.stabilization_index is None or dec.stabilization_index > 1:
            failures.append(
                f"n={n}: stabilized at {dec.stabilization_index}")
        # every certificate is re-checked from scratch at every resolution
        problems = dec.validate(CAT)
        if problems:
            failures.append(f"n={n} validation: {problems[0]}")
    if elapsed[128] >= 60.0:
        failures.append(f"resolution 128 took {elapsed[128]:.1f}s, budget 60s")
    _verdict("torus decomposition: one basic set at 1/32, 1/64, 1/128 "
             f"({elapsed[128]:.1f}s at 1/128)", failures)


# ---------------------------------------------------------------------------
# 3. tracing error against the series bound, with per-index verification


def _check_traced(system, po, result, bound, tag, failures):
    if result.error_bound > bound:
        failures.append(f"{tag}: error {result.error_bound:.3e} > {bound:.3e}")
    if result.guaranteed_bound is not None and \
            result.error_bound > result.guaranteed_bound + 1e-15:
        failures.append(f"{tag}: error above the guaranteed bound")
    orbit = result.traced_orbit
    for k, (y, x) in enumerate(zip(orbit, po.window)):
        if abs(system.metric(y, x) - result.gaps[k]) > 1e-12:
            failures.append(f"{tag}: gap table wrong at index {k}")
            break
        if result.gaps[k] > result.error_bound + 1e-15:
            failures.append(f"{tag}: index {k} exceeds the reported sup")
            break
    for k in range(len(orbit) - 1):
        if system.metric(system.forward(orbit[k]), orbit[k + 1]) > 1e-9:
            failures.append(f"{tag}: traced orbit broken at index {k}")
            break


def test_tracing_error_within_series_bound():
    failures = []
    for delta in (1e-2, 1e-3, 1e-4):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            x0 = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            po = perturbed_pseudo_orbit(DIAG, x0, 40, delta, seed=seed)
            res = trace_linear_hyperbolic(DIAG, po)
            _check_traced(DIAG, po, res, 2.0 * delta,
                          f"diag d={delta} s={seed}", failures)
            x0c = (rng.random(), rng.random())
            poc = perturbed_pseudo_orbit(CAT, x0c, 40, delta, seed=seed)
            resc = trace_linear_hyperbolic(CAT, poc)
            _check_traced(CAT, poc, resc, math.sqrt(5.0) * delta,
                          f"cat d={delta} s={seed}", failures)
            if len(failures) > 8:
                break
        if len(failures) > 8:
            break

    # halving the defect must halve the error: same noise pattern, rescaled
    for system, x0, tag in ((DIAG, (0.31, -0.47), "diag"),
                            (CAT, (0.31, 0.47), "cat")):
        rng = random.Random(77)
        shape = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(21)]
        errors = {}
        for delta in (1e-3, 5e-4):
            w, z = [], x0
            for k in range(21):
                w.append((z[0] + delta * shape[k][0],
                          z[1] + delta * shape[k][1]))
                if system is CAT:
                    w[-1] = (w[-1][0] % 1.0, w[-1][1] % 1.0)
                z = system.forward(z)
            po = PseudoOrbit(tuple(w), "orbit-tail", 0.0)
            po = PseudoOrbit(tuple(w), "orbit-tail",
                             max(compute_defects(system, po)))
            errors[delta] = trace_linear_hyperbolic(system, po).error_bound
        ratio = errors[5e-4] / errors[1e-3]
        if not (0.5 / 1.1 <= ratio <= 0.5 * 1.1):
            failures.append(f"{tag}: halving ratio {ratio:.4f}")
    _verdict("tracing error within 2d (diagonal saddle) and sqrt(5)d "
             "(torus), halving scales linearly", failures)


# ---------------------------------------------------------------------------
# 4. periodic pseudo-orbits trace to periodic points; uniqueness verdicts


def test_periodic_pseudo_orbits_trace_to_periodic_points():
    failures = []

    # linear saddle, rational windows, exact arithmetic at any defect size
    rng = random.Random(5)
    for trial in range(20):
        p = rng.randint(1, 6)
        w = tuple((Fraction(rng.randint(-8, 8), 16),
                   Fraction(rng.randint(-8, 8), 16)) for _ in range(p))
        po = PseudoOrbit(w, PERIODIC, 0.0)
        po = PseudoOrbit(w, PERIODIC, max(compute_defects(DIAG, po)))
        res = trace_linear_hyperbolic(DIAG, po, exact=True)
        if not res.periodic:
            failures.append(f"linear trial {trial}: not flagged periodic")
        z = res.point
        for _ in range(p):
            z = DIAG.forward(z)
        if z != res.point:
            failures.append(f"linear trial {trial}: not exactly periodic")

    # torus, rational windows mod 1, exact arithmetic
    rng = random.Random(6)
    for trial in range(20):
        p = rng.randint(1, 5)
        w = tuple((Fraction(rng.randint(0, 15), 16),
                   Fraction(rng.randint(0, 15), 16)) for _ in range(p))
        po = PseudoOrbit(w, PERIODIC, 0.0)
        po = PseudoOrbit(w, PERIODIC, max(compute_defects(CAT, po)))
        res = trace_linear_hyperbolic(CAT, po, exact=True)
        z = res.point
        for _ in range(p):
            z = CAT.forward(z)
        if z != res.point or not res.periodic:
            failures.append(f"torus trial {trial}: not exactly periodic")

    # float windows: the traced orbit closes up to 1e-9 at every index
    for seed in range(10):
        po = perturbed_pseudo_orbit(CAT, (0.2, 0.7), 24, 1e-3, seed=seed,
                                    extension=PERIODIC)
        res = trace_linear_hyperbolic(CAT, po)
        orbit = res.traced_orbit
        closes = CAT.metric(CAT.forward(orbit[-1]), orbit[0])
        if not res.periodic or closes > 1e-9:
            failures.append(f"float seed {seed}: seam gap {closes:.2e}")
        for k in range(len(orbit) - 1):
            if CAT.metric(CAT.forward(orbit[k]), orbit[k + 1]) > 1e-9:
                failures.append(f"float seed {seed}: broken at {k}")
                break

    # shifts: a periodic core with perturbed tails keeps every defect,
    # the seam included, at 2^-2; the diagonal word must be exactly periodic
    rng = random.Random(7)
    for system in (GOLDEN, FULL2):
        for trial in range(10):
            block = None
            while block is None:
                cand = tuple(rng.randrange(system.size)
                             for _ in range(rng.randint(2, 6)))
                try:
                    z = system.periodic_point(cand)
                    block = cand
                except ValueError:
                    continue
            p = len(block)
            w = tuple(system.window_point(z.shifted(k).window(-2, 2), -2)
                      for k in range(p))
            po = PseudoOrbit(w, PERIODIC, 0.0)
            po = PseudoOrbit(w, PERIODIC, max(compute_defects(system, po)))
            if po.defect_bound > 0.25:
                failures.append(f"{system.name} trial {trial}: defect "
                                f"{po.defect_bound} above 1/4")
                continue
            res = trace_sft(system, po)
            p = res.period
            y = res.point
            if not res.periodic:
                failures.append(f"{system.name} trial {trial}: aperiodic")
            if any(y.symbol_at(i) != y.symbol_at(i + p)
                   for i in range(-3 * p, 3 * p + 1)):
                failures.append(f"{system.name} trial {trial}: word drifts")
            if res.error_bound > res.guaranteed_bound + 1e-15:
                failures.append(f"{system.name} trial {trial}: bound broken")

    # uniqueness: composing the ball with itself stays expansive-small
    po = perturbed_pseudo_orbit(DIAG, (0.2, 0.1), 12, 1e-3, seed=1,
                                extension=PERIODIC)
    res = unique_tracing_check(DIAG, po, metric_ball(DIAG, 0.5), horizon=80)
    if res.verdict != "yes":
        failures.append(f"linear uniqueness verdict {res.verdict!r}")
    zz = FULL2.periodic_point((0, 1, 1, 0))
    ws = tuple(FULL2.window_point(zz.shifted(k).window(-2, 2), -2)
               for k in range(4))
    pos = PseudoOrbit(ws, PERIODIC, 0.0)
    pos = PseudoOrbit(ws, PERIODIC, max(compute_defects(FULL2, pos)))
    ress = unique_tracing_check(FULL2, pos, metric_ball(FULL2, 0.5),
                                horizon=40)
    if ress.verdict != "yes":
        failures.append(f"shift uniqueness verdict {ress.verdict!r}")

    # the identity map traces nothing uniquely: two tracers, with witness
    ident = FiniteSystem(("p", "q"), {"p": "p", "q": "q"}, name="identity")
    poi = PseudoOrbit(("p", "p"), PERIODIC, 0.5)
    resi = unique_tracing_check(ident, poi, metric_ball(ident, 1.5),
                                horizon=10, candidates=("p", "q"))
    if resi.verdict != "no" or resi.witness is None:
        failures.append(f"identity verdict {resi.verdict!r}, no witness")
    _verdict("periodic pseudo-orbits yield verified periodic tracing "
             "points; uniqueness verdicts correct", failures)


# ---------------------------------------------------------------------------
# 5. nonwandering set equals the chain-recurrent set


def test_nonwandering_equals_chain_recurrent():
    failures = []

    # finite permutations: both notions pick up every point, exactly
    rng = random.Random(11)
    for trial in range(10):
        n = rng.randint(3, 9)
        points = tuple(f"p{i}" for i in range(n))
        images = list(points)
        rng.shuffle(images)
        system = FiniteSystem(points, dict(zip(points, images)),
                              name=f"perm-{trial}")
        diag = FiniteRelation({(p, p) for p in points}, points=points)
        omega = nonwandering_set(system, points, diag, horizon=n + 1)
        cr = chain_recurrent_set(build_chain_graph(system, points, diag))
        if omega != cr or omega != frozenset(points):
            failures.append(f"permutation {trial}: {len(omega)} vs {len(cr)}")

    # the 2-block shift: symbol graph vs boolean cycle closure, exactly
    cr = chain_recurrent_set(symbol_graph_chain(TWO_BLOCK))
    reach = _closure(TWO_BLOCK.size, TWO_BLOCK.allowed)
    omega = frozenset(a for a in range(TWO_BLOCK.size) if reach[a][a])
    if cr != omega:
        failures.append(f"2-block: {sorted(cr)} vs {sorted(omega)}")

    # torus grids: same radius feeds both notions; small disagreement is
    # a probe-radius artifact and must stay under 1% of the nodes
    for n, radius in ((16, 0.13), (32, 0.08)):
        graph = torus_grid_graph(CAT, n, radius)
        cr = chain_recurrent_set(graph)
        om = nonwandering_set(CAT, graph.nodes, metric_ball(CAT, radius),
                              horizon=128)
        sym = cr.symmetric_difference(om)
        share = len(sym) / len(graph.nodes)
        print(f"  grid {n}x{n}, radius {radius}: symmetric difference "
              f"{len(sym)} nodes ({100 * share:.2f}%)")
        if share > 0.01:
            failures.append(f"grid {n}: {100 * share:.2f}% disagreement")
    _verdict("nonwandering set equals chain-recurrent set (exact on "
             "finite/symbolic, <=1% on grids)", failures)


# ---------------------------------------------------------------------------
# 6. periodic points are dense in the recurrent part of the torus grid


def test_torus_recurrent_nodes_carry_certified_periodic_points():
    """The certificate stores no cycles, as A permutes the lattice; each
    node's periodic point, the lattice node itself, is confirmed here by
    stepping it home under x -> A x mod n in integers."""
    failures = []
    n = 64
    dec = spectral_decompose(CAT, resolution=n)
    graph = torus_grid_graph(CAT, n, 0.02)
    cert = periodic_density_certificate(graph, dec.recurrent_nodes, CAT)
    problems = cert.revalidate(CAT)
    if problems:
        failures.append(problems[0])
    if cert.component != dec.recurrent_nodes:
        failures.append("the certificate is not about the recurrent nodes")
    (a, b), (c, d) = CAT.matrix
    worst = 0.0
    for x in cert.component:
        home = (round(x[0] * n), round(x[1] * n))
        i, j = home
        for _ in range(n * n):
            i, j = (a * i + b * j) % n, (c * i + d * j) % n
            if (i, j) == home:
                break
        else:
            failures.append(f"{x} does not return under the lattice map")
        worst = max(worst, CAT.metric(x, (home[0] / n, home[1] / n)))
    if worst > 0.02:
        failures.append(f"max gap {worst:.4f} > 0.02")
    print(f"  {len(cert.component)} recurrent nodes at 1/64, max gap to a "
          f"certified periodic point: {worst}")
    _verdict("every recurrent node at 1/64 has a certified periodic point "
             "within radius 0.02", failures)


# ---------------------------------------------------------------------------
# 7. the bracket map in closed form vs the glued-trace construction


def test_product_bracket_closed_form_matches_traced_construction():
    failures = []
    ps = product_map_t(DIAG)
    rng = random.Random(2718)
    pairs = []
    for k in range(1000):
        x = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        if k % 10 == 8:   # same stable coordinate: expect t(x, y) == x
            y = (x[0] + rng.uniform(-0.2, 0.2), x[1])
        elif k % 10 == 9:  # same unstable coordinate: expect t(x, y) == y
            y = (x[0], x[1] + rng.uniform(-0.2, 0.2))
        else:
            y = (x[0] + rng.uniform(-0.2, 0.2),
                 x[1] + rng.uniform(-0.2, 0.2))
        pairs.append((x, y))

    box = metric_ball(DIAG, 0.9)
    for k, (x, y) in enumerate(pairs):
        t = ps.t(x, y)
        if t != (x[0], y[1]):
            failures.append(f"pair {k}: closed form violated")
            break
        tt = ps.t_traced(x, y)
        if max(abs(t[0] - tt[0]), abs(t[1] - tt[1])) > 1e-10:
            failures.append(f"pair {k}: traced construction drifts")
            break
        if ps.t(x, x) != x:
            failures.append(f"pair {k}: t(x, x) != x")
            break
        # fixed-point characterizations, both implications each
        t_is_x = DIAG.metric(t, x) < 1e-14
        in_unstable = local_unstable_set(DIAG, x, box).contains(y)
        if t_is_x != in_unstable:
            failures.append(f"pair {k}: unstable-set characterization")
            break
        t_is_y = DIAG.metric(t, y) < 1e-14
        in_stable = local_stable_set(DIAG, x, box).contains(y)
        if t_is_y != in_stable:
            failures.append(f"pair {k}: stable-set characterization")
            break
    # the constructed subfamilies really exercise the "true" sides
    if not ps.t(pairs[8][0], pairs[8][1]) == pairs[8][0]:
        failures.append("same-stable pair did not pin t to x")
    if not ps.t(pairs[9][0], pairs[9][1]) == pairs[9][1]:
        failures.append("same-unstable pair did not pin t to y")
    _verdict("bracket map: closed form == traced construction on 1000 "
             "pairs, fixed points characterize the local sets", failures)


# ---------------------------------------------------------------------------
# 8. perturbed torus map: conjugacy within the expansivity budget


def test_perturbed_torus_map_admits_close_conjugacy():
    failures = []
    g = trig_perturbation(CAT, 0.002)
    rng = random.Random(31)
    samples = [(rng.random(), rng.random()) for _ in range(10_000)]
    start = time.perf_counter()
    rep = stability_conjugacy_h(CAT, g, metric_ball(CAT, 0.01), samples,
                                window=60)
    elapsed = time.perf_counter() - start
    if rep.semiconjugacy_residual > 1e-9:
        failures.append(f"residual {rep.semiconjugacy_residual:.2e}")
    budget = math.sqrt(5.0) * 0.002
    if rep.closeness > budget:
        failures.append(f"closeness {rep.closeness:.5f} > {budget:.5f}")
    if rep.closeness > rep.guaranteed_closeness + 1e-12:
        failures.append("closeness above the guaranteed budget")
    if not rep.injective_flag or rep.collisions:
        failures.append(f"injectivity failed: {len(rep.collisions)} collisions")
    if not rep.uniqueness_note:
        failures.append("missing uniqueness justification")
    if rep.to_report(CAT).exit_code != 0:
        failures.append("report verdict is not a pass")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict("perturbed torus map: residual <= 1e-9, closeness within "
             f"sqrt(5) x 0.002, injective ({elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# 9. the three scripted counterexamples, with their exit codes


def test_counterexample_demos_deliver_their_verdicts():
    failures = []

    rep = run_demo("ex22")
    h = rep.header
    if h["euclid_outcome"] != "consistent-with-expansive" or \
            h["euclid_proof"] != "closed-form":
        failures.append("plane: euclidean expansivity not certified")
    if h["sphere_outcome"] != "refuted":
        failures.append("plane: bounded metric not refuted")
    plane = catalog()["plane-two-metrics"].build()
    sphere = plane.metrics["sphere"]
    a, b = (float(2 ** 20), 0.0), (float(2 ** 20) + 1.0, 0.0)
    u, v = a, b
    trapped = sphere(u, v) < 0.1
    for _ in range(60):
        u, v = plane.forward(u), plane.forward(v)
        trapped = trapped and sphere(u, v) < 0.1
    u, v = a, b
    for _ in range(60):
        u, v = plane.backward(u), plane.backward(v)
        trapped = trapped and sphere(u, v) < 0.1
    if not trapped:
        failures.append("plane: witness pair escapes the 0.1 ball")
    if rep.exit_code != 0:
        failures.append("plane demo reports failure")

    rep = run_demo("ex23")
    h = rep.header
    if float(h["worst_traced_error"]) > float(h["traced_error_bound"]):
        failures.append("strips: traced error above the fiber-derived bound")
    if float(h["refutation_epsilon"]) != 0.4:
        failures.append("strips: wrong refutation threshold")
    cols, rows = rep.tables["unit-refuted"]
    floor_col = cols.index("best_possible_error")
    if not rows or any(float(r[floor_col]) <= 0.4 for r in rows):
        failures.append("strips: drift pseudo-orbit not refuted at 0.4")
    if rep.exit_code != 0:
        failures.append("strips demo reports failure")

    rep = run_demo("sec5")
    cols, rows = rep.tables["gauge-neighborhoods"]
    width = cols.index("points_within_gauge")
    if any(int(r[width]) != 1 for r in rows):
        failures.append("sequence space: a gauge cell holds more than x")
    cols, rows = rep.tables["metric-escapes"]
    start_col = cols.index("start_n")
    stall = next((r for r in rows if int(r[start_col]) == 11), None)
    if stall is None:
        failures.append("sequence space: no stall walk from index 11")
    else:
        if float(stall[cols.index("defect")]) > 0.1:
            failures.append("sequence space: stall defect above 0.1")
        if float(stall[cols.index("best_possible_error")]) < 1.0:
            failures.append("sequence space: walk does not escape epsilon 1")
    if rep.exit_code != 0:
        failures.append("sequence-space demo reports failure")

    for name in ("ex22", "ex23", "sec5"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["demo", name])
        if code != 0:
            failures.append(f"cli demo {name} exited {code}")
    _verdict("counterexample demos: metric-dependent expansivity, "
             "untraceable drift, orbit-only topological tracing", failures)


# ---------------------------------------------------------------------------
# 10. gauge-smoothed chain recurrence vs strong chain recurrence


def _sampled_cloud(name, system, rng):
    if name == "north-south":
        return [rng.uniform(-1.0, 1.0) for _ in range(60)]
    if name == "diag-saddle":
        return [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(60)]
    if name == "cat-map":
        return [(rng.random(), rng.random()) for _ in range(60)]
    return [(rng.randint(-3, 3), rng.random()) for _ in range(60)]


def test_gauge_smoothed_recurrence_matches_strong_chains():
    failures = []
    systems = catalog()
    names = ("north-south", "diag-saddle", "cat-map", "strips-unit")
    for trial in range(20):
        name = names[trial % len(names)]
        system = systems[name].build()
        rng = random.Random(900 + trial)
        samples = list(dict.fromkeys(_sampled_cloud(name, system, rng)))
        radius = rng.uniform(0.08, 0.3)
        U = metric_ball(system, radius)
        gauge = smooth_gauge(U, samples)

        for x in samples:
            gx = gauge(x)
            if not 0.0 < gx < radius:  # strictly inside the section floor
                failures.append(f"trial {trial}: gauge({x!r}) = {gx}")
                break
        lipschitz_ok = all(
            abs(gauge(x) - gauge(y)) <= system.metric(x, y) + 1e-12
            for x in samples[:20] for y in samples[:20]
        )
        if not lipschitz_ok:
            failures.append(f"trial {trial}: gauge is not 1-Lipschitz")

        ball = GaugeBall(system.metric, gauge, space_id=system.space_id)
        cr = chain_recurrent_set(build_chain_graph(system, samples, ball))
        strong = strong_chain_recurrent_set(system, samples, gauge)
        if cr != strong:
            failures.append(
                f"trial {trial} ({name}): {len(cr)} vs {len(strong)} nodes")
    _verdict("gauge-smoothed chain recurrence agrees with strong chain "
             "recurrence on 20 sampled systems", failures)
