"""Spans around chainmix's public functions, recorded from outside the package.

Tracing rebinds, in every loaded ``chainmix`` module, each name that refers to a
traced function, so callers that imported the function by name (``from .sim
import sample_many``) and callers that look it up on its module
(``exact_law.total_variation``) both reach the wrapper. ``installed`` restores
the original bindings when it exits. Nothing under ``src/`` changes.

Each span is ``[name, start, end, parent, pass_id]`` and stays in memory until
the run aggregates it. Counts are computed by hooks that run outside the
traced function's span, inside a ``trace.count`` span of their own, so the time
they take is charged to tracing and not to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "chainmix"
COUNT_SPAN = "trace.count"


class Tracer:
    """In-memory span and counter store; ``pass_id`` tags what is recorded next."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, n: float) -> None:
        self.counts[self.pass_id][name] += n

    def peak(self, name: str, x: float) -> None:
        bucket = self.counts[self.pass_id]
        bucket[name] = max(bucket.get(name, x), x)


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        out.append((end - start) - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


# ---------------------------------------------------------------------------
# Traced layers and the counts taken at their boundaries


@dataclass(frozen=True)
class Layer:
    module: str                     # defining module, e.g. "chainmix.sim"
    function: str
    # count(tracer, bound arguments, result, state) runs after the span;
    # before(bound arguments) runs ahead of it and returns ``state``.
    count: Callable | None = None
    before: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.function}"


def _stream_position(a):
    return a["fh"].tell()


def _bytes_written(tr, a, result, start):
    tr.add("model_io.bytes_written", a["fh"].tell() - start)


def _bytes_read(tr, a, result, _):
    tr.add("model_io.bytes_read", os.path.getsize(a["path"]))


def _law_entries(tr, a, law, _):
    tr.add("model_core.law.table_entries", law.table_size)
    live = len(law.sparse) if law.sparse is not None else int((law.dense != 0).sum())
    tr.add("model_core.law.live_entries", live)


def _sim_steps(tr, a, result, _):
    tr.add("sim.steps", a["length"] * a["count"])


def _successor_entries(tr, a, arr, _):
    tr.add("successors.entries", arr.total_entries())


def _recovered(tr, a, measure, _):
    tr.add("recovery.trajectories", measure.diagnostics.n_trajectories)


def _rows_tested(tr, a, report, _):
    tr.add("recovery.rows_tested", report.tested)


def _permutations(tr, a, result, _):
    tr.add("recovery.permutations", a["permutations"])


def _lemma_instances(tr, a, results, _):
    for r in (results,) if hasattr(results, "checked") else results:
        tr.add("stopping_verifier.instances_checked", len(r.checked))
        tr.add("stopping_verifier.instances_skipped", len(r.skipped))
        tr.peak("stopping_verifier.residual", r.residual)


def _mc_samples(tr, a, results, _):
    tr.add("stopping_verifier.mc_samples", a["samples"])


LAYERS = (
    Layer("chainmix.cli", "main"),       # argument parsing and config loading
    *(Layer("chainmix.cli", f"cmd_{c}") for c in
      ("simulate", "recover", "test_exchangeability", "law", "compare", "verify_lemmas")),
    Layer("chainmix.model_io", "load_model"),
    Layer("chainmix.model_io", "write_trajectories", _bytes_written, _stream_position),
    Layer("chainmix.model_io", "read_trajectories", _bytes_read),
    Layer("chainmix.model_core", "require_valid"),
    Layer("chainmix.model_core", "hmm_law", _law_entries),
    Layer("chainmix.model_core", "markov_mixture_law", _law_entries),
    Layer("chainmix.exact_law", "lift_with_prefix"),
    Layer("chainmix.exact_law", "marginalize_first"),
    Layer("chainmix.exact_law", "total_variation"),
    Layer("chainmix.exact_law", "laws_equal"),
    Layer("chainmix.constructions", "markov_mixture_to_hmm"),
    Layer("chainmix.chain_analysis", "is_recurrent"),
    Layer("chainmix.sim", "sample_many", _sim_steps),
    Layer("chainmix.successors", "extract", _successor_entries),
    Layer("chainmix.recovery", "lln_recover", _recovered),
    Layer("chainmix.recovery", "test_partial_exchangeability", _rows_tested),
    Layer("chainmix.recovery", "test_row_exchangeability", _permutations),
    Layer("chainmix.stopping_verifier", "check_splitting", _lemma_instances),
    Layer("chainmix.stopping_verifier", "check_strong_splitting", _lemma_instances),
    Layer("chainmix.stopping_verifier", "check_hitting_time_lemmas", _lemma_instances),
    Layer("chainmix.stopping_verifier", "check_lemmas_mc", _mc_samples),
)

# Layers whose work belongs to set-up (the `convert` of the laws workload);
# they are reported from the traced set-up under a ``setup.`` prefix.
SETUP_LAYERS = ("constructions.markov_mixture_to_hmm", "chain_analysis.is_recurrent")

# name -> (unit, better) for every count and ratio a traced run reports
COUNTERS = {
    "model_io.bytes_written": ("bytes", "lower"),
    "model_io.bytes_read": ("bytes", "lower"),
    "model_core.law.table_entries": ("count", "lower"),
    "model_core.law.live_entries": ("count", "lower"),
    "model_core.law.live_share": ("ratio", "higher"),
    "sim.steps": ("count", "lower"),
    "sim.steps_per_s": ("1/s", "higher"),
    "successors.entries": ("count", "lower"),
    "recovery.trajectories": ("count", "lower"),
    "recovery.rows_tested": ("count", "lower"),
    "recovery.permutations": ("count", "lower"),
    "stopping_verifier.instances_checked": ("count", "higher"),
    "stopping_verifier.instances_skipped": ("count", "lower"),
    "stopping_verifier.checked_share": ("ratio", "higher"),
    "stopping_verifier.residual": ("prob", "lower"),
    "stopping_verifier.mc_samples": ("count", "lower"),
    "stopping_verifier.mc_samples_per_s": ("1/s", "higher"),
}

TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.count.total_s": ("s", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer.name}.total_s"] = ("s", "lower")
        out[f"{layer.name}.self_s"] = ("s", "lower")
        out[f"{layer.name}.calls"] = ("count", "lower")
    for name in SETUP_LAYERS:
        out[f"setup.{name}.total_s"] = ("s", "lower")
        out[f"setup.{name}.calls"] = ("count", "lower")
    out.update(COUNTERS)
    out.update(TRACE_METRICS)
    return out


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _wrap(tracer: Tracer, layer: Layer, fn):
    """``fn`` inside a span named after the layer, with its count hooks around it."""
    signature = inspect.signature(fn)
    name = layer.name

    def bound(args, kwargs):
        b = signature.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = None
        if layer.before is not None:
            with tracer.span(COUNT_SPAN):
                state = layer.before(bound(args, kwargs))
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if layer.count is not None:
            with tracer.span(COUNT_SPAN):
                layer.count(tracer, bound(args, kwargs), result, state)
        return result

    return traced


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> dict:
    """Rebind every name bound to a traced function; return, keyed by the
    wrapper's id, each ``(wrapper, original)`` pair."""
    originals = {}
    for layer in LAYERS:
        original = getattr(sys.modules[layer.module], layer.function)
        wrapper = _wrap(tracer, layer, original)
        originals[id(wrapper)] = (wrapper, original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return originals


def uninstall(originals: dict) -> None:
    """Put the originals back wherever a wrapper is bound, including in
    modules first imported while tracing was on."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            wrapper, original = originals.get(id(value), (None, None))
            if value is wrapper:
                setattr(mod, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    originals = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(originals)


# ---------------------------------------------------------------------------
# Aggregation


def pass_metrics(tracer: Tracer, pass_id) -> dict:
    """Per-layer totals, self times, calls and counts of one pass."""
    selfs = self_times(tracer.spans)
    intervals = defaultdict(list)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span, s in zip(tracer.spans, selfs):
        name, start, end, _, pid = span
        if pid != pass_id:
            continue
        intervals[name].append((start, end))
        self_s[name] += s
        calls[name] += 1
    out = {}
    for name in intervals:
        out[f"{name}.total_s"] = covered(intervals[name])
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out.update(tracer.counts.get(pass_id, {}))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_ids) -> dict:
    """Median over traced passes of each per-layer metric, zero where absent."""
    names = metric_units()
    per_pass = [pass_metrics(tracer, pid) for pid in pass_ids]
    for m in per_pass:
        m["model_core.law.live_share"] = _ratio(m.get("model_core.law.live_entries", 0),
                                                m.get("model_core.law.table_entries", 0))
        m["sim.steps_per_s"] = _ratio(m.get("sim.steps", 0),
                                      m.get("sim.sample_many.total_s", 0))
        checked = m.get("stopping_verifier.instances_checked", 0)
        m["stopping_verifier.checked_share"] = _ratio(
            checked, checked + m.get("stopping_verifier.instances_skipped", 0))
        m["stopping_verifier.mc_samples_per_s"] = _ratio(
            m.get("stopping_verifier.mc_samples", 0),
            m.get("stopping_verifier.check_lemmas_mc.total_s", 0))
    out = {name: statistics.median(m.get(name, 0) for m in per_pass)
           for name in names if not name.startswith(("setup.", "trace.overhead"))}
    setup = pass_metrics(tracer, "setup")
    for name in SETUP_LAYERS:
        out[f"setup.{name}.total_s"] = setup.get(f"{name}.total_s", 0.0)
        out[f"setup.{name}.calls"] = setup.get(f"{name}.calls", 0)
    return out
