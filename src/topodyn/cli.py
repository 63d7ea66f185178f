"""Command line front end.

Five subcommands cover the pipeline: `decompose` (spectral decomposition
with certificates), `trace` (seeded pseudo-orbit tracing), `chain-recurrent`
(chain recurrence vs. the nonwandering probe), `stability` (perturb a model
system and verify the conjugacy), and `demo` (the scripted demonstrations).
Every command prints a report document (key: value header plus table
blocks) and exits 0 on pass, 1 on fail, 2 when the verdict is limited by
the chosen resolution. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import random
import sys

import numpy as np

from .chains import (GraphTooLargeError, _transitive_closure, chain_recurrent_set,
                     nonwandering_set, torus_grid_graph)
from .entourage import metric_ball
from .demos import DEMOS, run_demo
from .hyperbolic import sft_flip_perturbation, stability_conjugacy_h, trig_perturbation
from .report import FAIL, PASS, RESOLUTION_LIMITED, Report
from .shadowing import PseudoOrbit, tracing_tools
from .spectral import spectral_decompose, symbol_graph_chain
from .systems import (
    FiniteSystem,
    ShiftOfFiniteType,
    TorusAutomorphism,
    catalog,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # resolution-limited verdict; route usage problems to exit 1 instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _build_system(name, parser):
    entries = catalog()
    if name not in entries:
        parser.error(
            f"unknown system {name!r}; available: {', '.join(sorted(entries))}"
        )
    return entries[name].build()


def _emit(report, out):
    text = report.to_text()
    if out:
        report.write(out)
    sys.stdout.write(text)
    return report.exit_code


# ---------------------------------------------------------------------------
# decompose


def _cmd_decompose(args, parser):
    system = _build_system(args.system, parser)
    try:
        dec = spectral_decompose(system, resolution=args.resolution,
                                 ladder=args.ladder, seed=args.seed)
    except (TypeError, GraphTooLargeError) as err:
        parser.error(str(err))
    failures = dec.validate(system)
    rep = dec.to_report(system)
    if failures:
        rep.set("verdict", FAIL)
        rep.add_table("validation-failures", ["message"],
                      [[m] for m in failures])
    else:
        rep.set("validation", "clean")
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# trace


def _cmd_trace(args, parser):
    system = _build_system(args.system, parser)
    try:
        generate, tracer = tracing_tools(system)
    except TypeError:
        tracer = None
    if tracer is None:
        parser.error(f"no tracer for system {system.name!r}; supported: "
                     "linear saddles, torus automorphisms, shifts, and "
                     "shrinking strips")
    window = generate(system, args.delta, args.length, random.Random(args.seed))
    pseudo = PseudoOrbit.measured(system, window)
    defect = pseudo.defect_bound
    # only a window that is a true orbit takes the nominal delta; a NaN
    # defect measured nothing, so it gives no bound either
    if defect == 0:
        pseudo = dataclasses.replace(pseudo, defect_bound=args.delta)
    try:
        result = tracer(system, pseudo)
    except ValueError as err:  # a window the tracer cannot take
        parser.error(str(err))
    ok = result.error_bound <= result.guaranteed_bound + 1e-12
    rep = Report(
        operation="trace",
        system=system.name,
        delta=args.delta,
        length=args.length,
        seed=args.seed,
        defect_measured=defect,
        error=result.error_bound,
        guaranteed=result.guaranteed_bound,
        verdict=PASS if ok else FAIL,
    )
    rows = [[k + pseudo.start_index, system.point_to_text(window[k]),
             result.gaps[k]] for k in range(len(window))]
    rep.add_table("per-index", ["index", "pseudo_point", "gap"], rows[:64])
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# chain-recurrent


def _symbol_cycle_closure(system):
    """Symbols on admissible cycles, by boolean reachability closure."""
    reach = _transitive_closure(np.array(system.transitions, dtype=bool))
    return frozenset(np.flatnonzero(reach.diagonal()).tolist())


def _cmd_chain_recurrent(args, parser):
    system = _build_system(args.system, parser)
    if isinstance(system, TorusAutomorphism):
        try:
            graph = torus_grid_graph(system, args.resolution, args.radius)
        except GraphTooLargeError as err:
            parser.error(str(err))
        cr = chain_recurrent_set(graph)
        omega = nonwandering_set(system, graph.nodes,
                                 metric_ball(system, args.radius),
                                 horizon=args.horizon)
        total = len(graph.nodes)
        mode = f"torus grid {args.resolution}x{args.resolution}"
    elif isinstance(system, ShiftOfFiniteType):
        graph = symbol_graph_chain(system)
        cr = chain_recurrent_set(graph)
        omega = _symbol_cycle_closure(system)
        total = system.size
        mode = "symbol graph"
    elif isinstance(system, FiniteSystem):
        cr = frozenset(system.points)  # every point is exactly periodic
        omega = frozenset(system.points)
        total = len(system.points)
        mode = "exact orbits"
    else:
        parser.error(f"no chain discretization for {system.name!r}")
    sym = cr.symmetric_difference(omega)
    if not sym:
        verdict, note = PASS, "chain-recurrent set equals the nonwandering probe"
    elif len(sym) <= 0.01 * total:
        verdict = RESOLUTION_LIMITED
        note = (f"{len(sym)} of {total} nodes differ; within the 1% "
                "granularity of the probe radius")
    else:
        verdict, note = FAIL, f"{len(sym)} of {total} nodes differ"
    rep = Report(
        operation="chain-recurrent",
        system=system.name,
        mode=mode,
        resolution=args.resolution,
        radius=args.radius,
        chain_recurrent=len(cr),
        nonwandering=len(omega),
        symmetric_difference=len(sym),
        verdict=verdict,
        note=note,
    )
    shown = sorted(sym, key=repr)[:32]
    rep.add_table("disagreements", ["node", "in_chain_recurrent"],
                  [[system.point_to_text(x), x in cr] for x in shown])
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# stability


def _cmd_stability(args, parser):
    system = _build_system(args.system, parser)
    rng = random.Random(args.seed)
    if isinstance(system, TorusAutomorphism):
        try:
            g = trig_perturbation(system, args.epsilon)
        except ValueError as err:
            parser.error(str(err))
        samples = [(rng.random(), rng.random()) for _ in range(args.samples)]
    elif isinstance(system, ShiftOfFiniteType):
        try:
            g = sft_flip_perturbation(system)
        except ValueError as err:
            parser.error(str(err))
        samples = [system.random_point(rng, 8) for _ in range(args.samples)]
    else:
        parser.error(f"no perturbation family for {system.name!r}; "
                     "supported: torus automorphisms and the full 2-shift")
    D = metric_ball(system, 3.0 * args.epsilon)
    try:
        stab = stability_conjugacy_h(system, g, D, samples,
                                     window=args.window)
    except ValueError as err:
        parser.error(str(err))
    rep = stab.to_report(system, max_rows=32)
    rep.set("seed", args.seed)
    rep.set("epsilon", args.epsilon)
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# demo


def _cmd_demo(args, parser):
    try:
        rep = run_demo(args.name, seed=args.seed)
    except ValueError as err:
        parser.error(str(err))
    return _emit(rep, args.out)


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = _Parser(prog="topodyn",
                     description="entourage-based topological dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[], help="spectral decomposition")
    p.add_argument("system")
    p.add_argument("--resolution", type=_positive_int, default=64,
                   help="grid side for torus systems (default 64)")
    p.add_argument("--ladder", type=_positive_float, default=None,
                   help="coarsest entourage radius; halved twice "
                        "(default 4 grid cells)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("trace", help="trace a seeded pseudo-orbit")
    p.add_argument("system")
    p.add_argument("--delta", type=_positive_float, required=True,
                   help="defect bound for the generated pseudo-orbit")
    p.add_argument("--length", type=_positive_int, required=True,
                   help="number of pseudo-orbit steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("chain-recurrent",
                       help="chain recurrence vs the nonwandering probe")
    p.add_argument("system")
    p.add_argument("--resolution", type=_positive_int, default=64)
    p.add_argument("--radius", type=_positive_float, required=True,
                   help="entourage ball radius")
    p.add_argument("--horizon", type=_positive_int, default=128,
                   help="return-time budget for the nonwandering probe")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_chain_recurrent)

    p = sub.add_parser("stability",
                       help="perturb a model system and verify the conjugacy")
    p.add_argument("system")
    p.add_argument("--epsilon", type=_positive_float, required=True,
                   help="perturbation magnitude; the comparison domain is "
                        "the ball of three epsilon")
    p.add_argument("--window", type=_positive_int, default=60)
    p.add_argument("--samples", type=_positive_int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("demo", help="run a scripted demonstration")
    p.add_argument("name", help=f"one of: {', '.join(sorted(DEMOS))}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a bad --out must fail before the work, not after it
    if args.out is not None:
        where = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(where):
            parser.error(f"--out: directory {where} does not exist")
        if os.path.isdir(args.out):
            parser.error(f"--out: {args.out} is a directory")
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
