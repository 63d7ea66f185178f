"""One fresh process of a benchmark run; started by run.py, not by hand.

    python3 bench/child.py <workload> <seed> <mode> [trace-file]

mode is `setup` (set up and exit), `run` (untraced pass), `spans` or
`counts` (traced passes, see tracer.py). The process imports topodyn from
the checkout's `src/`, builds the catalog systems the workload uses and
prints `ready`; run.py times set-up up to that line. It then runs every
operation of the workload once and prints one JSON line with the pass's
wall and CPU seconds, its own peak resident memory and each operation's
status.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import topodyn
    import topodyn.cli

    if Path(topodyn.__file__).resolve().parent != SRC / "topodyn":
        sys.exit(f"topodyn was imported from {topodyn.__file__}, not from {SRC}")
    from workloads import SYSTEMS, WORKLOADS, run_op

    entries = topodyn.catalog()
    for name in SYSTEMS[workload]:
        entries[name].build()
    recorder = None
    if mode in ("spans", "counts"):
        import tracer
        recorder = tracer.Tracer(count_calls=mode == "counts")
        tracer.install(recorder)
    ops = WORKLOADS[workload](seed)
    print("ready", flush=True)
    if mode == "setup":
        return

    results = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        status, detail = run_op(op, topodyn)
        results.append([op.name, status, detail, time.perf_counter() - start])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if recorder is not None:
        recorder.write(sys.argv[4], wall)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }), flush=True)


if __name__ == "__main__":
    main()
