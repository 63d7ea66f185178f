"""Outside-in tracing of topodyn, for the benchmark's traced runs.

Nothing under `src/` knows about this module. `install` replaces, in
every loaded `topodyn` module namespace where the name is bound, each
public function of the eight layer modules with a wrapper that records a
span (name, parent span, start, end). Each module binds a name when it
imports it, so `topodyn.spectral.torus_grid_graph` is wrapped as well as
`topodyn.chains.torus_grid_graph`. A few methods are wrapped on their
class: `ChainGraph.scc` (only calls that compute), `Certificate.revalidate`
(one span name per certificate mode), `SpectralDecomposition.validate`
and `Report.to_text`.

With `count_calls`, `forward`/`metric` on every `DynamicalSystem`
subclass, `accepts` on every `Entourage` subclass and
`SampledGauge.__call__` are also counted, each call attributed to the
enclosing span. They are called millions of times, so the counts are
taken in a separate pass from the one whose span times are reported.

Spans and counts stay in memory; `write` saves them once, at exit, and
`layer_metrics` turns a span document and a count document into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "report", "systems", "entourage", "chains", "shadowing",
          "hyperbolic", "spectral")

# Point-level helpers that run inside `forward`/`metric` once per point;
# a span each would cost more than the work it times, so they stay in
# their caller's time.
PRIMITIVES = {
    "systems": {"euclidean", "torus_metric", "sphere_metric",
                "discrete_metric", "sft_metric", "stereographic_preimage",
                "sequences_agree_on", "symbolic_point",
                "periodic_symbolic_point", "splice_symbolic", "rotate_cycle"},
    "entourage": {"region_contains", "region_subset"},
}

OUTSIDE = "bench"  # attribution of calls made outside every span


class Tracer:
    """Spans and call counts of one traced pass."""

    def __init__(self, count_calls):
        self.count_calls = count_calls
        self.spans = []          # [name, parent index or -1, start, end]
        self.stack = [-1]
        self.counts = Counter()  # (enclosing span name, counter) -> value
        self._open = set()       # counted families with a call in progress

    def timed(self, name, fn, after=None):
        """fn inside a span. `name` is a string or a function of the call's
        arguments; `after(counts, name, args, kwargs, result)` adds counts
        once the span has ended."""
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            sid = len(spans)
            spans.append([label, stack[-1], clock(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][3] = clock()
                stack.pop()
            if after is not None:
                after(counts, label, args, kwargs, result)
            return result
        return wrapper

    def counted(self, family, key, fn):
        """fn with each outermost call of its family counted under `key`;
        calls nested in another call of the family (a torus forward calling
        its cover's forward) are not counted again."""
        spans, stack, counts, busy = self.spans, self.stack, self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if family in busy:
                return fn(*args, **kwargs)
            top = stack[-1]
            counts[spans[top][0] if top >= 0 else OUTSIDE, key] += 1
            busy.add(family)
            try:
                return fn(*args, **kwargs)
            finally:
                busy.discard(family)
        return wrapper

    def write(self, path, wall_s):
        doc = {"wall_s": wall_s, "spans": self.spans,
               "counts": [[s, k, v] for (s, k), v in sorted(self.counts.items())]}
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# counts taken when a span ends


def _edges(counts, name, args, kwargs, graph):
    counts[name, "edges"] += graph.edge_count


def _demos(counts, name, args, kwargs, result):
    counts[name, "demos"] += len(args[0].demos)


def _failures(counts, name, args, kwargs, failures):
    counts[name, "failures"] += len(failures)


def _rows(counts, name, args, kwargs, text):
    counts[name, "rows"] += sum(len(rows) for _, rows in args[0].tables.values())


def _exact(counts, name, args, kwargs, result):
    exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
    counts[name, "exact_calls"] += bool(exact)


AFTER = {
    "chains.torus_grid_graph": _edges,
    "chains.build_chain_graph": _edges,
    "shadowing.trace_linear_hyperbolic": _exact,
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer):
    """Wrap topodyn in place; call after `import topodyn.cli` and before
    the first traced operation."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "topodyn" or name.startswith("topodyn.")]
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"topodyn.{layer}"]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in PRIMITIVES.get(layer, ())):
                label = f"{layer}.{name}"
                originals[id(fn)] = (fn, tracer.timed(label, fn, AFTER.get(label)))
    for mod in modules:
        for name, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])

    from topodyn.chains import ChainGraph
    from topodyn.entourage import Entourage, SampledGauge
    from topodyn.report import Report
    from topodyn.spectral import Certificate, SpectralDecomposition
    from topodyn.systems import DynamicalSystem

    scc = ChainGraph.scc
    timed_scc = tracer.timed("chains.scc", scc)
    ChainGraph.scc = lambda self: scc(self) if self._scc is not None else timed_scc(self)
    Certificate.revalidate = tracer.timed(
        lambda cert, system: f"spectral.revalidate.{cert.mode}",
        Certificate.revalidate, _demos)
    SpectralDecomposition.validate = tracer.timed(
        "spectral.validate", SpectralDecomposition.validate, _failures)
    Report.to_text = tracer.timed("report.to_text", Report.to_text, _rows)

    if tracer.count_calls:
        for cls in _subclasses(DynamicalSystem):
            for meth in ("forward", "metric"):
                if meth in vars(cls):
                    setattr(cls, meth, tracer.counted(
                        "systems", f"systems.{meth}_calls", vars(cls)[meth]))
        for cls in _subclasses(Entourage):
            if "accepts" in vars(cls):
                cls.accepts = tracer.counted(
                    "entourage", "entourage.accepts_calls", cls.accepts)
        SampledGauge.__call__ = tracer.counted(
            "gauge", "entourage.gauge_evals", SampledGauge.__call__)


# ---------------------------------------------------------------------------
# per-layer metrics


def _span_times(doc):
    """Inclusive seconds, self seconds and call count per span name, and
    self seconds per layer. Self time is a span's duration minus that of
    its child spans; time outside every span goes to the `bench` layer."""
    spans = doc["spans"]
    inner = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            inner[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    layer_self = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - inner[i]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += end - start - inner[i]
        if parent < 0:
            top += end - start
    layer_self[OUTSIDE] = doc["wall_s"] - top
    return total, own, calls, layer_self


def layer_metrics(span_doc, count_doc, untraced):
    """Per-layer metrics: seconds from the span pass, counts from the
    count pass, and process figures from the untraced pass."""
    total, own, calls, layer_self = _span_times(span_doc)
    counts = Counter()
    per_span = Counter()
    for span, key, value in count_doc["counts"]:
        counts[key] += value
        per_span[span, key] += value

    graph_edges = per_span["chains.build_chain_graph", "edges"]
    pair_tests = per_span["chains.build_chain_graph", "entourage.accepts_calls"]
    wall = span_doc["wall_s"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS + (OUTSIDE,)}
    out.update({
        "trace.wall_s": wall,
        "trace.layer_share": sum(layer_self[layer] for layer in LAYERS) / wall,
        "chains.torus_grid_graph.s": total["chains.torus_grid_graph"],
        "chains.edges": graph_edges + per_span["chains.torus_grid_graph", "edges"],
        "chains.scc.s": total["chains.scc"],
        "chains.chain_components.s": total["chains.chain_components"],
        "chains.build_chain_graph.s": total["chains.build_chain_graph"],
        "chains.build_chain_graph.edges": graph_edges,
        "chains.pair_tests": pair_tests,
        "chains.edge_yield": graph_edges / pair_tests if pair_tests else 0.0,
        "chains.nonwandering_set.s": total["chains.nonwandering_set"],
        "chains.strong_chain_recurrent_set.s": total["chains.strong_chain_recurrent_set"],
        "entourage.smooth_gauge.s": total["entourage.smooth_gauge"],
        "entourage.gauge_evals": counts["entourage.gauge_evals"],
        "entourage.accepts_calls": counts["entourage.accepts_calls"],
        "systems.forward_calls": counts["systems.forward_calls"],
        "systems.metric_calls": counts["systems.metric_calls"],
        "spectral.spectral_decompose.self_s": own["spectral.spectral_decompose"],
        "spectral.transitivity_certificate.s": total["spectral.transitivity_certificate"],
        "spectral.periodic_density_certificate.s": total["spectral.periodic_density_certificate"],
        "spectral.validate.self_s": own["spectral.validate"],
        "spectral.revalidate.lattice-cycle.s": total["spectral.revalidate.lattice-cycle"],
        "spectral.revalidate.metric-walk.s": total["spectral.revalidate.metric-walk"],
        "spectral.demos_checked": counts["demos"],
        "spectral.validation_failures": counts["failures"],
        "report.rows": counts["rows"],
        "report.to_text.s": total["report.to_text"],
        "shadowing.trace_linear_hyperbolic.s": total["shadowing.trace_linear_hyperbolic"],
        "shadowing.trace_exact_calls": counts["exact_calls"],
        "shadowing.trace_sft.s": total["shadowing.trace_sft"],
        "shadowing.trace_sft.calls": calls["shadowing.trace_sft"],
        "shadowing.compute_defects.s": total["shadowing.compute_defects"],
        "hyperbolic.stability_conjugacy_h.self_s": own["hyperbolic.stability_conjugacy_h"],
        "hyperbolic.perturbation.s": (total["hyperbolic.trig_perturbation"]
                                      + total["hyperbolic.sft_flip_perturbation"]),
        "process.cpu_s": untraced["cpu_s"],
        "process.trace_overhead": wall / untraced["wall_s"],
    })
    return out
