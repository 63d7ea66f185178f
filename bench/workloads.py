"""The benchmark's workloads: fixed lists of real topodyn operations.

Each workload is a function of the workload seed that returns its
operations. An operation is either a CLI call through `topodyn.cli.main`
or a library-API call sequence, together with the output the benchmark
expects from it. The seed reaches the program only as generated inputs:
`--seed` values for the CLI (certificate pair sampling, stability
samples, trace pseudo-orbits) and the sample clouds of the library
workload.

Two operations fail at the parent code on purpose, because they are
known defects that later changes are meant to fix; each carries the
signature of its defect so that any other failure still counts as
unexpected.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Op:
    """One operation. `run(td)` gets the `topodyn` package and returns the
    output; `check(output)` returns None when the output is the expected
    one and a short description of the difference otherwise. A known
    defect names its ROADMAP item and recognises its own signature."""

    name: str
    run: Callable
    check: Callable
    defect: Optional[str] = None
    defect_seen: Optional[Callable] = None


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str
    header: dict


def _cli(argv):
    def run(td):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = td.cli.main(argv)
        text = out.getvalue()
        header = {}
        for line in text.splitlines():
            if not line.strip():
                break
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
        return CliOutput(code, text, header)
    return run


def _expect(output, **fields):
    for key, want in fields.items():
        got = output.header.get(key)
        if got != str(want):
            return f"{key} is {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# checks


def _check_decompose(basic_sets, recurrent_nodes):
    def check(out):
        return (_expect(out, verdict="pass", validation="clean",
                        basic_sets=basic_sets,
                        recurrent_nodes=recurrent_nodes)
                or (f"exit code {out.code}" if out.code else None))
    return check


def _drift_rows_only(out):
    """ROADMAP item 1: validation rejects the true lattice certificate
    because the float orbit of a non-dyadic grid node drifts."""
    rows = out.text.split("[table validation-failures]\n", 1)
    if len(rows) != 2 or out.header.get("verdict") != "fail":
        return False
    lines = [ln for ln in rows[1].splitlines()[1:] if ln.strip()]
    return bool(lines) and all("drifts past 1e-9" in ln for ln in lines)


def _check_recurrence(out):
    return _expect(out, symmetric_difference=0, verdict="pass")


def _check_stability(out):
    bad = _expect(out, verdict="pass")
    if bad:
        return bad
    residual = float(out.header["semiconjugacy_residual"])
    if not residual <= 1e-8:
        return f"residual {residual} exceeds 1e-8"
    return None


def _check_trace(out):
    if re.search(r"\bnan\b", out.text, re.IGNORECASE):
        return "report contains nan"
    error = float(out.header["error"])
    guaranteed = float(out.header["guaranteed"])
    if not error <= guaranteed:
        return f"error {error} exceeds the guaranteed bound {guaranteed}"
    return _expect(out, verdict="pass")


def _nan_error(out):
    """The float orbit of the diagonal saddle overflows past about 1,000
    steps, and the trace prints `error: nan`."""
    return out.header.get("error") == "nan"


# ---------------------------------------------------------------------------
# workloads


def _seed(rng):
    return str(rng.randrange(1 << 30))


def _decompose(rng):
    """`decompose` on cat-map at n = 256 (validation, certificates and the
    memory peak), at the non-dyadic n = 48 and n = 40 (the all-pairs
    invariance scan, and at 40 a false validation failure), and on
    two-block-sft (the exact symbolic route)."""
    ops = []
    for n in (256, 48, 40):
        argv = ["decompose", "cat-map", "--resolution", str(n),
                "--seed", _seed(rng)]
        defect = dict(defect="ROADMAP open item 1",
                      defect_seen=_drift_rows_only) if n == 40 else {}
        ops.append(Op(" ".join(argv[:4]), _cli(argv),
                      _check_decompose(1, n * n), **defect))
    argv = ["decompose", "two-block-sft", "--seed", _seed(rng)]
    ops.append(Op("decompose two-block-sft", _cli(argv), _check_decompose(2, 5)))
    return ops


def _recurrence(rng):
    """`chain-recurrent`: wide offset tables on cat-map, where the per-node
    nonwandering probe dominates, plus the symbolic and finite routes."""
    cases = (("cat-map", "0.05", "96"), ("cat-map", "0.1", "64"),
             ("two-block-sft", "0.5", "64"), ("three-cycle", "0.5", "64"))
    ops = []
    for system, radius, n in cases:
        argv = ["chain-recurrent", system, "--radius", radius,
                "--resolution", n, "--seed", _seed(rng)]
        ops.append(Op(" ".join(argv[:6]), _cli(argv), _check_recurrence))
    return ops


def _tracing(rng):
    """`stability` (per-sample symbolic tracing on full-2, the vectorised
    eigen-series on cat-map) and `trace` on four systems."""
    ops = []
    for system, eps, samples in (("full-2", "0.1", "300"),
                                 ("cat-map", "0.01", "20000")):
        argv = ["stability", system, "--epsilon", eps, "--samples", samples,
                "--seed", _seed(rng)]
        ops.append(Op(" ".join(argv[:6]), _cli(argv), _check_stability))
    for system, length in (("cat-map", 2000), ("golden-mean", 2000),
                           ("strips-shrinking", 500), ("diag-saddle", 1100)):
        argv = ["trace", system, "--delta", "0.001", "--length", str(length),
                "--seed", _seed(rng)]
        defect = dict(defect="ROADMAP aim 3, no NaN verdicts",
                      defect_seen=_nan_error) if system == "diag-saddle" else {}
        ops.append(Op(" ".join(argv[:6]), _cli(argv), _check_trace, **defect))
    return ops


def _cloud(name, rng):
    if name == "north-south":
        pts = [rng.uniform(-1.0, 1.0) for _ in range(60)]
    elif name == "diag-saddle":
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(60)]
    elif name == "cat-map":
        pts = [(rng.random(), rng.random()) for _ in range(60)]
    else:
        pts = [(rng.randint(-3, 3), rng.random()) for _ in range(60)]
    return list(dict.fromkeys(pts))


# The entourage radius sets how far strong chains reach, and so their cost;
# it is held fixed (the middle of the acceptance test's range 0.08 to 0.3)
# so that the seed moves the clouds but not the size of the problem.
GAUGE_RADIUS = 0.19


def _gauge_chains(name, samples):
    """Demo 04's pipeline: smooth a ball entourage into a gauge, then get
    the recurrent samples both from the gauge-ball chain graph and from
    strong chains."""
    def run(td):
        system = td.catalog()[name].build()
        gauge = td.smooth_gauge(td.metric_ball(system, GAUGE_RADIUS), samples)
        ball = td.GaugeBall(system.metric, gauge, space_id=system.space_id)
        via_graph = td.chain_recurrent_set(
            td.build_chain_graph(system, samples, ball))
        via_chains = td.strong_chain_recurrent_set(system, samples, gauge)
        return via_graph, via_chains
    return run


def _check_agree(out):
    via_graph, via_chains = out
    if via_graph != via_chains:
        return (f"graph route finds {len(via_graph)} recurrent samples, "
                f"strong chains {len(via_chains)}")
    return None


def _gauges(rng):
    """Library API on four seeded 60-sample clouds: the only use of
    entourage gauges and strong chains."""
    ops = []
    for name in ("north-south", "diag-saddle", "cat-map", "strips-unit"):
        samples = _cloud(name, rng)
        ops.append(Op(f"gauge-chains {name}", _gauge_chains(name, samples),
                      _check_agree))
    return ops


def torus_decompose(seed):
    return _decompose(random.Random(seed))


def recurrence_tracing(seed):
    """Everything but `spectral`: a change to spectral decomposition or
    validation should leave this workload unchanged."""
    rng = random.Random(seed)
    return _recurrence(rng) + _tracing(rng) + _gauges(rng)


WORKLOADS = {
    "torus-decompose": torus_decompose,
    "recurrence-tracing": recurrence_tracing,
}

# catalog systems each workload uses; building them is part of set-up
SYSTEMS = {
    "torus-decompose": ("cat-map", "two-block-sft"),
    "recurrence-tracing": ("cat-map", "two-block-sft", "three-cycle", "full-2",
                           "golden-mean", "strips-shrinking", "diag-saddle",
                           "north-south", "strips-unit"),
}


def run_op(op, td):
    """Run one operation; returns (status, detail) with status "ok",
    "defect" (the op's known defect showed) or "error"."""
    try:
        out = op.run(td)
        problem = op.check(out)
    except Exception as err:  # an operation that raises is a failed one
        return "error", f"raised {type(err).__name__}: {err}"
    except SystemExit as err:  # argparse usage errors
        return "error", f"exited with {err.code}"
    if problem is None:
        return "ok", ""
    if op.defect_seen is not None and op.defect_seen(out):
        return "defect", f"known defect ({op.defect}): {problem}"
    return "error", problem

