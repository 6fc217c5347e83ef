"""Spans and counters around the public functions of each homogdirac layer.

The program itself carries no tracing.  ``Tracer.install`` replaces every
public function and method of the layer modules, plus the ``_values`` and
``_derivs`` evaluators of section nodes, with a wrapper that records one
span per call.  Modules such as ``cli``, ``checks`` and ``dirac`` bind
names with ``from .x import y``, so a function wrapper is installed in
every package namespace that holds the original object.
``Tracer.uninstall`` puts every original back.

A span is ``[name, parent_index, start, end, outermost]``.  Spans are kept
in memory in start order; the spans of one operation hang below one root
span and are written out by the caller after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "homogdirac"
LAYERS = ("groups", "reps", "cliffordalg", "sections", "bundles", "geometry", "dirac")
ROOT = "trace.operation"
NODE_EVALUATORS = ("_values", "_derivs")

# the eigensolve has no function of its own in dirac: it is numpy's
# eigvalsh, recorded only when called directly by spectral_block
EIGENSOLVE = ("numpy.linalg", "eigvalsh", "dirac.eigensolve", "dirac.spectral_block")

# (metric, kind, source); kind "s" is the inclusive time of the outermost
# spans of that name, "calls" their number, "count" a counter
PER_LAYER = [
    ("groups.haar_rule.s", "s", "groups.haar_rule"),
    ("groups.haar_rule.nodes", "count", "groups.haar_rule.nodes"),
    ("groups.random_elements.s", "s", "groups.random_elements"),
    ("reps.matrix_stack.s", "s", "reps.matrix_stack"),
    ("reps.matrix_stack.calls", "calls", "reps.matrix_stack"),
    ("reps.matrix.calls", "calls", "reps.matrix"),
    ("cliffordalg.mul.s", "s", "cliffordalg.mul"),
    ("cliffordalg.mul.calls", "calls", "cliffordalg.mul"),
    ("cliffordalg.mul.products", "count", "cliffordalg.mul.products"),
    ("cliffordalg.mul.macs_computed", "count", "cliffordalg.mul.macs_computed"),
    ("sections.node_values.calls", "calls", "sections.node_values"),
    ("sections.node_values.hit_ratio", "hit_ratio", "sections.node_values"),
    ("sections.right_translated.calls", "calls", "sections.right_translated"),
    ("sections.rep_stack.calls", "calls", "sections.rep_stack"),
    ("sections.l2_inner.s", "s", "sections.l2_inner"),
    ("sections.l2_inner.calls", "calls", "sections.l2_inner"),
    ("geometry.apply_connection.s", "s", "geometry.ApplyConnection._values"),
    ("geometry.apply_connection.calls", "calls", "geometry.ApplyConnection._values"),
    ("dirac.spectral_block.s", "s", "dirac.spectral_block"),
    ("dirac.isotypic_basis.s", "s", "dirac.isotypic_basis"),
    ("dirac.eigensolve.s", "s", "dirac.eigensolve"),
    ("dirac.block_closure.s", "s", "dirac.block_closure"),
    ("dirac.block_closure.pairs", "count", "dirac.block_closure.pairs"),
    ("dirac.selfadjoint_defect.s", "s", "dirac.selfadjoint_defect"),
    ("dirac.criterion_check.s", "s", "dirac.criterion_check"),
    ("dirac.hodge_dirac.calls", "calls", "dirac.hodge_dirac"),
] + [(f"{layer}.self_s", "self_s", layer) for layer in LAYERS] + [
    ("trace.remainder_s", "self_s", "trace"),
    ("trace.spans", "spans", None),
]

UNITS = {"s": "s", "self_s": "s", "calls": "count", "count": "count",
         "spans": "count", "hit_ratio": "ratio"}


# -- counters computed from a call's arguments and result -----------------------


def _count_mul(tracer, args, kwargs, result):
    algebra = args[0]
    products = 1
    for d in result.shape[:-1]:
        products *= d
    tracer.counters["cliffordalg.mul.products"] += products
    # the dense sign tensor costs n**3 multiply-adds per product
    tracer.counters["cliffordalg.mul.macs_computed"] += products * algebra.n ** 3


def _count_nodes(tracer, args, kwargs, result):
    tracer.counters["groups.haar_rule.nodes"] += len(result)


def _count_closure_pairs(tracer, args, kwargs, result):
    blocks = args[0] if args else kwargs["blocks"]
    tracer.counters["dirac.block_closure.pairs"] += sum(
        1 for a in blocks if a.sections for b in blocks
        if b.level != a.level and b.dirac_values is not None and b.sections)


def _count_hit(tracer, args, kwargs, result):
    # a hit hands back the very array an earlier call for the same node and
    # batch returned; this holds whatever mechanism the program caches with
    key = (id(args[0]), id(args[1]))
    if tracer.last_values.get(key) is result:
        tracer.counters["sections.node_values.hits"] += 1
    tracer.last_values[key] = result


HOOKS = {
    "cliffordalg.mul": _count_mul,
    "groups.haar_rule": _count_nodes,
    "dirac.block_closure": _count_closure_pairs,
    "sections.node_values": _count_hit,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self.last_values: dict = {}
        self._stack = [-1]
        self._depth: dict = {}
        self._patches: list = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------------

    def run_operation(self, fn, *args):
        """Call ``fn(*args)`` under a root span; returns (result, root span)."""
        first = len(self.spans)
        result = self.wrap(fn, ROOT)(*args)
        return result, self.spans[first]

    def wrap(self, fn, name: str, only_within: str | None = None):
        hook = HOOKS.get(name)
        spans, stack, depth, clock = self.spans, self._stack, self._depth, self.clock

        # kept lean: this runs once per call of every layer function
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if only_within is not None and (parent < 0 or spans[parent][0] != only_within):
                return fn(*args, **kwargs)
            d = depth.get(name, 0)
            depth[name] = d + 1
            rec = [name, parent, 0.0, 0.0, d == 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                depth[name] = d
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- install and restore ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> int:
        """Wrap every layer's public callables; returns the number of patches."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped = self.wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for name, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, name, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        mod_name, attr, span, within = EIGENSOLVE
        owner = sys.modules[mod_name]
        self._patch(owner, attr, self.wrap(getattr(owner, attr), span, only_within=within))
        return len(self._patches)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") or (attr.startswith("_") and attr not in NODE_EVALUATORS):
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{cls.__name__}.{attr}" if attr in NODE_EVALUATORS else f"{layer}.{attr}"
            wrapped = self.wrap(fn, name)
            self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        self.last_values.clear()
        return all(owner.__dict__[attr] is original for owner, attr, original in patches)

    # -- results ------------------------------------------------------------------

    def dump(self, path: str, op_id: str) -> None:
        """Write the spans of the recorded operation; all share ``op_id``."""
        with open(path, "w") as fh:
            json.dump({"op": op_id, "fields": ["name", "parent", "start", "end", "outermost"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def span_stats(spans: list) -> dict:
    """Per-name inclusive time and calls, and per-layer self time.

    A span's self time is its duration minus the durations of its direct
    children; the layer of a span is the first dotted part of its name.
    Inclusive time counts outermost spans only, so a function that recurses
    into itself is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: dict = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i, (name, parent, start, end, outermost) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        if outermost:
            inclusive[name] += dur
        self_s[name.split(".", 1)[0]] += dur - covered[i]
    return {"inclusive": inclusive, "calls": calls, "self_s": self_s}


def layer_metrics(spans: list, counters: Counter) -> dict:
    """The PER_LAYER metrics (except the overhead) of one traced operation."""
    stats = span_stats(spans)
    out = {}
    for metric, kind, source in PER_LAYER:
        if kind == "s":
            out[metric] = stats["inclusive"].get(source, 0.0)
        elif kind == "calls":
            out[metric] = stats["calls"].get(source, 0)
        elif kind == "count":
            out[metric] = counters.get(source, 0)
        elif kind == "hit_ratio":
            calls = stats["calls"].get(source, 0)
            out[metric] = counters.get(source + ".hits", 0) / calls if calls else 0.0
        elif kind == "self_s":
            out[metric] = stats["self_s"].get(source, 0.0)
        elif kind == "spans":
            out[metric] = len(spans)
    return out
