"""The benchmark's tracer must not change what the program computes.

`bench/tracer.py` wraps every public function of the layer modules in a
span, replaces a few methods (`ChainGraph.scc`, `Certificate.revalidate`,
`SpectralDecomposition.validate`, `Report.to_text`) and counts calls to
`forward`, `metric` and `accepts`. Code that looks a public function up by
identity, or calls a wrapped method with a signature the tracer does not
expect, behaves differently once traced. One subprocess runs a few small
operations untraced, installs the tracer and runs them again; exit codes
and outputs must match byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import topodyn
import topodyn.cli
import tracer

CALLS = [
    ["decompose", "two-block-sft"],
    ["decompose", "cat-map", "--resolution", "16"],
    ["chain-recurrent", "cat-map", "--radius", "0.1", "--resolution", "32"],
    ["chain-recurrent", "three-cycle", "--radius", "0.5"],
    ["stability", "full-2", "--epsilon", "0.1", "--samples", "30",
     "--window", "10"],
    ["stability", "cat-map", "--epsilon", "0.01", "--samples", "50",
     "--window", "10"],
    ["trace", "golden-mean", "--delta", "0.001", "--length", "50"],
    ["trace", "cat-map", "--delta", "0.001", "--length", "50"],
]


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = topodyn.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return [code, out.getvalue()]


def gauge_chains():
    system = topodyn.catalog()["cat-map"].build()
    rng = random.Random(4)
    samples = [(rng.random(), rng.random()) for _ in range(40)]
    gauge = topodyn.smooth_gauge(topodyn.metric_ball(system, 0.19), samples)
    ball = topodyn.GaugeBall(system.metric, gauge, space_id=system.space_id)
    via_graph = topodyn.chain_recurrent_set(
        topodyn.build_chain_graph(system, samples, ball))
    via_chains = topodyn.strong_chain_recurrent_set(system, samples, gauge)
    return [0, repr((sorted(via_graph), sorted(via_chains)))]


def round_():
    return [cli(argv) for argv in CALLS] + [gauge_chains()]


plain = round_()
recorder = tracer.Tracer(count_calls=True)
tracer.install(recorder)
traced = round_()
print(json.dumps({"plain": plain, "traced": traced,
                  "spans": len(recorder.spans)}))
"""


def test_traced_operations_match_untraced_ones():
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rounds = json.loads(done.stdout)
    for k, (plain, traced) in enumerate(zip(rounds["plain"], rounds["traced"])):
        assert traced[0] == plain[0], f"call {k}: exit code changed"
        assert traced[1] == plain[1], f"call {k}: output changed"
    assert len(rounds["plain"]) == len(rounds["traced"]) == 9
    assert rounds["spans"] > 0  # the second round really ran traced
