"""Traced run: spans and counts around the calls into each jtxinfer layer.

The wrappers are installed where each name is looked up (the modules bind
most functions by name) and removed afterwards, so the program itself is
unchanged.  Spans record name, start, end, parent span and program; they
stay in memory until the run ends.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from time import thread_time

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  Every time metric also has a `_share` metric,
# its share of the traced pass_s.
TIME_METRICS = {
    "parser.s": "compile_ms_p50 on paper-units",
    "classtable.build_s": "setup_s; compile_ms_p50 on paper-units",
    "constraints.generate_s": "pass_s on paper-units (depth) and ambiguity",
    "constraints.flatten_s": "pass_s on paper-units (depth) and ambiguity",
    "unify.s": "pass_s, compile_ms_p90 on long-methods and ambiguity",
    "pipeline.self_s": "compile_ms_p90 on ambiguity; flat on long-methods",
    "generics.fgg_s": "pass_s on paper-units",
    "generics.complete_s": "pass_s on paper-units",
    "generics.conformance_s": "pass_s on paper-units",
    "emit.typed_class_s": "paper-units; surviving family on ambiguity",
    "emit.render_s": "paper-units; surviving family on ambiguity",
    "funtypes.manifest_s": "paper-units; surviving family on ambiguity",
    "cli.self_s": "compile_ms_p50 on paper-units",
}
COUNT_METRICS = {
    "parser.tokens": ("count", "lower", "compile_ms_p50 on paper-units"),
    "classtable.is_subtype_calls": (
        "count", "lower", "pass_s, compile_ms_p90 on ambiguity"),
    "constraints.count": (
        "count", "lower", "pass_s on paper-units (depth) and ambiguity"),
    "constraints.groups": (
        "count", "lower", "pass_s on paper-units (depth) and ambiguity"),
    "constraints.candidates": (
        "count", "lower", "pass_s on paper-units (depth) and ambiguity"),
    "constraints.candidate_ratio": (
        "1", "lower", "pass_s on paper-units (depth) and ambiguity"),
    "unify.calls": (
        "count", "lower", "pass_s, compile_ms_p90 on long-methods and "
        "ambiguity"),
    "unify.solutions": (
        "count", "lower", "pass_s, compile_ms_p90 on long-methods and "
        "ambiguity"),
    "pipeline.kept": (
        "count", "higher", "compile_ms_p90 on ambiguity (must not change)"),
    "pipeline.kept_ratio": ("1", "higher", "compile_ms_p90 on ambiguity"),
    "generics.collapses": ("count", "lower", "pass_s on paper-units"),
    "emit.typings": (
        "count", "higher", "paper-units; surviving family on ambiguity "
        "(must not change)"),
}
OVERHEAD_METRICS = {
    "trace.pass_s": ("s", "lower", "CPU time of a traced pass"),
    "trace.untraced_pass_s": ("s", "lower", "untraced pass, same run"),
    "trace.overhead_s": ("s", "lower", "trace.pass_s - trace.untraced_pass_s"),
}


def per_layer_metrics():
    """[(name, unit, better, what it should move)] in report order."""
    out = []
    for name, moves in TIME_METRICS.items():
        out.append((name, "s", "lower", moves))
        out.append((name + "_share", "1", "lower", "share of trace.pass_s"))
    out += [(n, *spec) for n, spec in COUNT_METRICS.items()]
    out += [(n, *spec) for n, spec in OVERHEAD_METRICS.items()]
    return out


# span name -> time metric it adds to (durations, or self times for the
# two metrics that are defined as what their children leave over)
_SPAN_METRIC = {
    "parse": "parser.s",
    "build_class_table": "classtable.build_s",
    "generate_constraints": "constraints.generate_s",
    "flatten": "constraints.flatten_s",
    "unify": "unify.s",
    "build_fgg": "generics.fgg_s",
    "complete_fgg": "generics.complete_s",
    "enforce_java_conformance": "generics.conformance_s",
    "build_typed_class": "emit.typed_class_s",
    "typed_source": "emit.render_s",
    "signature_lines": "emit.render_s",
    "descriptor_lines": "emit.render_s",
    "funiface_manifest": "funtypes.manifest_s",
}
_SELF_METRIC = {"run_source": "pipeline.self_s", "cli.main": "cli.self_s"}


def _count_generate(counts, result):
    counts["constraints.count"] += len(result.base) + sum(
        len(alt.constraints) for group in result.groups for alt in group)
    counts["constraints.groups"] += len(result.groups)
    counts["constraints.choices"] += math.prod(len(g) for g in result.groups)


def _count_run_source(counts, result):
    for r in result.class_results:
        counts["pipeline.kept"] += len(r.remainings)
        counts["emit.typings"] += sum(len(t) for _, t in r.signatures)


_COUNTERS = {
    "generate_constraints": _count_generate,
    "flatten": lambda c, r: c.update({"constraints.candidates": len(r)}),
    "unify": lambda c, r: c.update({"unify.calls": 1,
                                    "unify.solutions": len(r)}),
    "enforce_java_conformance": lambda c, r: c.update(
        {"generics.collapses": len(r[1])}),
    "run_source": _count_run_source,
}


class Tracer:
    """Records spans and per-program counts while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, program]
        self.counts = defaultdict(Counter)   # program -> counter
        self.program = None
        self.main = None       # cli.main wrapped as the root span
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.program]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = thread_time()
                self._stack.pop()
            if counter is not None:
                counter(self.counts[self.program], result)
            return result
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap each layer's entry points where jtxinfer looks them up."""
        from jtxinfer import classtable, cli, emit, parser, pipeline
        for attr in ("parse", "build_class_table", "generate_constraints",
                     "flatten", "unify", "build_fgg", "complete_fgg",
                     "enforce_java_conformance"):
            self._patch(pipeline, attr, self.wrap(attr,
                                                  getattr(pipeline, attr)))
        for attr in ("run_source", "typed_source", "signature_lines",
                     "descriptor_lines", "funiface_manifest"):
            self._patch(cli, attr, self.wrap(attr, getattr(cli, attr)))
        self._patch(emit, "build_typed_class",
                    self.wrap("build_typed_class", emit.build_typed_class))

        tokenize = parser.tokenize
        is_subtype = classtable.ClassTable.is_subtype

        def counted_tokenize(source):
            tokens = tokenize(source)
            self.counts[self.program]["parser.tokens"] += len(tokens)
            return tokens

        def counted_is_subtype(table, a, b):
            self.counts[self.program]["classtable.is_subtype_calls"] += 1
            return is_subtype(table, a, b)

        self._patch(parser, "tokenize", counted_tokenize)
        self._patch(classtable.ClassTable, "is_subtype", counted_is_subtype)
        self.main = self.wrap("cli.main", cli.main)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def pass_metrics(spans, first, counts, pass_s):
    """Per-layer metrics of one traced pass.

    `spans` are the tracer's spans from index `first` on, `counts` the
    pass's per-program counters and `pass_s` its CPU time."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= first:
            child_time[parent] += end - start
    out = {m: 0.0 for m in TIME_METRICS}
    for i, (name, start, end, _, _) in enumerate(spans, first):
        if name in _SPAN_METRIC:
            out[_SPAN_METRIC[name]] += end - start
        elif name in _SELF_METRIC:
            out[_SELF_METRIC[name]] += end - start - child_time[i]
    for m in TIME_METRICS:
        out[m + "_share"] = out[m] / pass_s
    total = Counter()
    for c in counts.values():
        total.update(c)
    for m in COUNT_METRICS:
        out[m] = total[m]
    out["constraints.candidate_ratio"] = (
        total["constraints.candidates"] / total["constraints.choices"])
    out["pipeline.kept_ratio"] = (
        total["pipeline.kept"] / total["unify.solutions"]
        if total["unify.solutions"] else 0.0)
    return out


def median_metrics(per_pass):
    """Median of each time metric over the passes; counts, which every
    pass repeats exactly, are taken from the first."""
    return {k: statistics.median(p[k] for p in per_pass)
            if k not in COUNT_METRICS else v
            for k, v in per_pass[0].items()}
