"""The topodyn benchmark: fixed workloads of real CLI and library calls.

    python3 bench/run.py --workload torus-decompose --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports topodyn from `src/`, so
nothing needs installing. `--workload` takes one name, a comma-separated
list, or `all`. Every pass of a workload runs in its own fresh process
(bench/child.py), and each child reports its own peak resident memory:
the parent's RUSAGE_CHILDREN figure is a maximum over all children so
far, so it cannot tell workloads apart.

With `--trace 0` the run reports, per workload, the end-to-end metrics of
BENCHMARK.json: `wall_s` (the median over passes of the seconds to finish
all operations after set-up), `setup_s` (the median over several fresh
processes of the seconds from launch until ready: interpreter, numpy,
`import topodyn` and the catalog systems the workload uses),
`peak_rss_mb` (median over passes) and `pass_ratio` (operations whose
output is the expected one, over operations attempted). A run makes at
least MIN_PASSES passes, and more while another one still fits in
`--seconds`.

With `--trace 1` the run makes one untraced pass, one pass with spans
and one pass with call counts (bench/tracer.py), and reports the
per-layer metrics of BENCHMARK.json.

Workloads (bench/workloads.py):

  torus-decompose     `decompose` on cat-map at n = 256, 48 and 40, and on
                      two-block-sft: spectral validation and certificates
                      dominate, and memory peaks.
  recurrence-tracing  `chain-recurrent` on cat-map, two-block-sft and
                      three-cycle (the nonwandering probe); `stability` on
                      full-2 and cat-map and `trace` on four systems; and,
                      through the library API, demo 04's gauge pipeline on
                      four 60-sample clouds (smooth gauges, gauge-ball chain
                      graphs, strong chains). No spectral decomposition
                      or validation runs here.

Every output is checked. Two operations fail on the parent code on
purpose, as known defects: `decompose cat-map --resolution 40` (false
"float orbit drifts" failures, ROADMAP item 1) and `trace diag-saddle
--length 1100` (`error: nan`). They count as failed; any other failure
makes the run incorrect. Claims are confirmed on a second seed: measure
on seed 1, confirm on seed 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
# Set-up is sampled before every pass, so that like the passes it spans
# the whole run: this many set-up-only processes, plus the pass itself.
SETUP_ONLY_PER_PASS = 3
# On a shared 2-vCPU virtual machine the host's speed drifted by about a
# fifth over tens of seconds, so every run measures at least two passes
# (about a minute) and reports medians.
MIN_PASSES = 2

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Pass:
    """One fresh child process: its set-up seconds and, unless it only
    set up, the JSON result it printed."""

    def __init__(self, workload, seed, mode, trace_file=None):
        argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
        if trace_file is not None:
            argv.append(str(trace_file))
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env) as proc:
            try:
                line = proc.stdout.readline()
                self.setup_s = time.perf_counter() - start
                rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            code = proc.returncode
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed with exit code {code}")
        self.result = json.loads(rest.splitlines()[-1]) if mode != "setup" else None
        self.seconds = time.perf_counter() - start


def _tally(passes):
    statuses = [op[1] for p in passes for op in p.result["ops"]]
    return len(statuses), sum(s != "ok" for s in statuses), "error" not in statuses


def _show_ops(passes):
    print(f"  {'operation':<52} {'seconds':>9}  status")
    for i, (name, _, _, _) in enumerate(passes[0].result["ops"]):
        runs = [p.result["ops"][i] for p in passes]
        statuses = "/".join(sorted({r[1] for r in runs}))
        details = "; ".join(sorted({r[2] for r in runs if r[2]}))
        seconds = statistics.median(r[3] for r in runs)
        print(f"  {name:<52} {seconds:9.3f}  {statuses}  {details}".rstrip())


def src_lines():
    return sum(len(path.read_text().splitlines())
               for path in sorted((ROOT / "src" / "topodyn").rglob("*.py")))


def untraced(workload, seed, seconds):
    """End-to-end metrics, and a note per metric saying what it is the
    median of."""
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups += [Pass(workload, seed, "setup").setup_s
                   for _ in range(SETUP_ONLY_PER_PASS)]
        p = Pass(workload, seed, "run")
        passes.append(p)
        setups.append(p.setup_s)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + p.seconds > seconds):
            break
    attempted, failed, correct = _tally(passes)
    _show_ops(passes)
    per_pass = f"median of {len(passes)} passes"
    print(f"  not gated: process.cpu_s "
          f"{statistics.median(p.result['cpu_s'] for p in passes):.3f} s ({per_pass}), "
          f"code.src_lines {src_lines()}")
    metrics = {
        "wall_s": statistics.median(p.result["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.result["peak_rss_mb"] for p in passes),
        "pass_ratio": (attempted - failed) / attempted,
    }
    notes = {"wall_s": per_pass, "peak_rss_mb": per_pass,
             "setup_s": f"median of {len(setups)} processes",
             "pass_ratio": f"{attempted - failed} of {attempted} operations passed; "
                           f"fail_ratio {failed / attempted:.4f}"}
    return metrics, notes, attempted, failed, correct


def traced(workload, seed):
    """Per-layer metrics from one untraced, one span and one count pass."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    files = {mode: out / f"{workload}-seed{seed}-{mode}.json"
             for mode in ("spans", "counts")}
    plain = Pass(workload, seed, "run")
    passes = [plain] + [Pass(workload, seed, mode, files[mode]) for mode in files]
    docs = {mode: json.loads(path.read_text()) for mode, path in files.items()}
    metrics = tracer.layer_metrics(docs["spans"], docs["counts"], plain.result)
    metrics["code.src_lines"] = src_lines()
    _show_ops(passes)
    print(f"  traced wall {metrics['trace.wall_s']:.3f} s, untraced "
          f"{plain.result['wall_s']:.3f} s; layer self times cover "
          f"{metrics['trace.layer_share']:.4f} of the traced wall")
    return (metrics, {}, *_tally(passes))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}; a comma-separated list; or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if not (ROOT / "src" / "topodyn" / "__init__.py").is_file():
        sys.exit(f"no topodyn sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        print(f"workload {name}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            values, notes, a, f, c = traced(name, args.seed)
        else:
            values, notes, a, f, c = untraced(name, args.seed, args.seconds)
        if set(values) != set(declared):
            sys.exit(f"measured metrics {sorted(set(values) ^ set(declared))} "
                     "disagree with BENCHMARK.json")
        for key, value in values.items():
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {key:<42} {shown:>16} {declared[key]:<6} {notes.get(key, '')}".rstrip())
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": declared[k]}
                        for k, v in values.items()})
        attempted, failed, correct = attempted + a, failed + f, correct and c
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
