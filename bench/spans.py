"""Spans and counters recorded by the benchmark around calls into the library.

A span is [name, start, end, parent index]; spans are kept in memory and
written out when the run ends. A span's self time is its duration minus the
time its child spans cover.

``instrument`` wraps the public functions of each layer, in place, so that a
traced round runs ``skewbrace.cli.main`` unchanged and every call into a
wrapped function, from the CLI or from inside the library, records a span.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from functools import wraps

clock = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        record = [name, clock(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = clock()
            self.stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k


# The calls a traced round wraps: (module, function, span name or None, counters).
# ``counters`` maps the call's result and positional arguments to the counts
# it adds. A function is wrapped under every name the library binds it to, so
# a from-import such as ``structure.automorphism_group`` records the same span.
# ``structure.all_subgroups`` only counts, so its time stays in the span of
# ``all_ideals``, which calls it.
LAYER_CALLS = [
    ("groups", "automorphism_group", "groups.automorphism_group",
     lambda r, a: {"groups.automorphisms": len(r)}),
    ("groups", "build_holomorph", "groups.build_holomorph",
     lambda r, a: {"groups.holomorph_order": r.group.order}),
    ("groups", "verify_group", "groups.verify_group", None),
    ("groups", "endomorphisms", "groups.endomorphisms",
     lambda r, a: {"rota.candidates": len(r)}),
    ("groups", "group_from_json", "cli.load", None),
    ("braces", "brace_from_json", "cli.load", None),
    ("cli", "_load_json", "cli.load", None),
    ("braces", "regular_subgroups", "braces.regular_subgroups",
     lambda r, a: {"braces.regular_subgroups": len(r)}),
    ("braces", "brace_from_regular_subgroup", "braces.brace_from_regular_subgroup", None),
    ("braces", "classify", "braces.classify", None),
    ("braces", "verify_brace", "braces.verify_brace",
     lambda r, a: {"braces.law_rejects": (not r.left_ok) + (not r.right_ok)}),
    ("structure", "all_subgroups", None, lambda r, a: {"structure.subgroups": len(r)}),
    ("structure", "all_ideals", "structure.all_ideals",
     lambda r, a: {"structure.ideals": len(r)}),
    ("structure", "triviality_step", "structure.triviality_step", None),
    ("structure", "brace_automorphisms", "structure.brace_automorphisms", None),
    ("structure", "naturality_report", "structure.naturality_report", None),
    ("rota", "rb_self_maps", "rota.search",
     lambda r, a: {"rota.operators": len(r), "rota.candidates": a[0].order ** (a[0].order - 1)}),
    ("rota", "rb_endomorphisms", "rota.search", lambda r, a: {"rota.operators": len(r)}),
    ("rota", "rb_symmetry_check", "rota.rb_checks", None),
    ("rota", "rb_lambda_hom_check", "rota.rb_checks", None),
    ("rota", "free_rb_report", "rota.free_rb_report", None),
    ("systems", "build_linear_system", "systems.build_linear_system",
     lambda r, a: {"systems.edges_verified": len(r.verified_edges())}),
    ("words", "sampled_brace_check", "words.sampled_brace_check", None),
    ("words", "verify_cyclic1", "words.verify_cyclic1", None),
    ("words", "verify_t4", "words.verify_t4", None),
    ("words", "SchreierRewriter.rewrite", "words.rewrite", None),
    ("lattice", "lattice_system_check", "lattice.lattice_system_check", None),
    ("cli", "emit", "cli.emit", lambda r, a: {"cli.report_bytes": len(r)}),
]
LAYERS = ("groups", "braces", "structure", "rota", "systems", "words", "lattice", "cli")


def _wrap(tracer, fn, name, counters):
    @wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if counters is not None:
            for key, k in counters(result, args).items():
                tracer.count(key, k)
        return result
    return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every call of LAYER_CALLS, under every name the library binds it to."""
    modules = [importlib.import_module(f"skewbrace.{layer}") for layer in LAYERS]
    for module_name, qualname, name, counters in LAYER_CALLS:
        owner = importlib.import_module(f"skewbrace.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        traced = _wrap(tracer, fn, name, counters)
        setattr(owner, attr, traced)
        if not path:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)


def self_times(spans) -> dict:
    """Per span name, the summed duration minus the time covered by child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def nesting_errors(spans) -> list:
    """Spans that end before they start, leave their parent, or overlap a sibling."""
    errors = []
    last_end = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            errors.append((i, name, "open or reversed"))
            continue
        if parent is not None:
            p = spans[parent]
            if parent >= i or start < p[1] or end > p[2]:
                errors.append((i, name, "outside its parent"))
        if start < last_end.get(parent, float("-inf")):
            errors.append((i, name, "overlaps a sibling"))
        last_end[parent] = end
    return errors
