"""Per-layer tracing, installed from outside the package.

Each traced function is wrapped where its callers look it up: every binding
of the function object in the package's modules and classes is replaced,
so ``hlgysin.gysin.signed_permutation_sum`` (bound at import) and
``Polynomial.__rmul__`` (bound apart from ``__mul__``) are both caught.  A
wrapper records a span (layer, parent span, start, end) and a few counts.
Self time is a span's duration minus the spans whose parent it is.  Hot
helpers such as ``sort_desc_with_sign`` are left alone: a wrapper per call
would cost more than the work it measures.

A layer whose function no longer exists is reported as unmeasured, and its
metrics read 0.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# layer -> (module, attribute that defines it, statistics beyond calls and self_s)
LAYERS = {
    "polyring.mul": ("polyring", "Polynomial.__mul__", ("terms_out_max", "term_pairs", "cancel_ratio")),
    "polyring.add": ("polyring", "Polynomial.__add__", ("terms_out_max",)),
    "polyring.div_linear": ("polyring", "Polynomial._div_linear_difference", ("terms_out_max", "failed")),
    "polyring.divide_exact": ("polyring", "Polynomial.divide_exact", ("terms_out_max", "failed")),
    "polyring.permute_vars": ("polyring", "Polynomial.permute_vars", ("terms_out_max",)),
    "polyring.divide_by_vandermonde": ("polyring", "divide_by_vandermonde", ("terms_out_max",)),
    "symgroup.coset_reps": ("symgroup", "coset_reps", ("reps_out",)),
    "antisym.signed_permutation_sum": ("antisym", "signed_permutation_sum", ("terms_out_max", "term_images")),
    "antisym.jacobi_symmetrizer": ("antisym", "jacobi_symmetrizer", ("terms_out_max",)),
    "antisym.block_quotient": ("antisym", "_block_quotient", ("terms_out_max",)),
    "antisym.alternating_vandermonde_quotient": (
        "antisym", "alternating_vandermonde_quotient", ("terms_out_max", "fallback", "failed"),
    ),
    "hallittlewood.t_twisted_vandermonde": ("hallittlewood", "t_twisted_vandermonde", ("terms_out_max",)),
    "hallittlewood.r": ("hallittlewood", "_hall_littlewood_r", ("terms_out_max",)),
    "hallittlewood.p": ("hallittlewood", "_hall_littlewood_p", ("terms_out_max", "undefined")),
    "hallittlewood.r_coset": ("hallittlewood", "hall_littlewood_r_coset", ("terms_out_max", "failed")),
    "hallittlewood.schur_s": ("hallittlewood", "schur_s", ("terms_out_max",)),
    "hallittlewood.schur_p_recursive": ("hallittlewood", "schur_p_recursive", ("terms_out_max",)),
    "hallittlewood.schur_p_coset": ("hallittlewood", "schur_p_coset", ("terms_out_max",)),
    "gysin.partial_flag_pushforward": ("gysin", "partial_flag_pushforward", ("terms_out_max", "terms_in_max")),
    "identities.verify": ("identities", "verify_*", ()),
    "identities.numeric_probe": ("identities", "_numeric_probe", ()),
}

# cache -> (module, lru_cache attribute); its hit ratio comes from cache_info()
CACHES = {
    "polyring.vandermonde": ("polyring", "vandermonde"),
    "symgroup.all_permutations": ("symgroup", "all_permutations"),
    "antisym.signed_images": ("antisym", "_signed_images"),
    "antisym.block_quotient": ("antisym", "_block_quotient"),
    "hallittlewood.t_factorial": ("hallittlewood", "t_factorial"),
    "hallittlewood.t_twisted_vandermonde": ("hallittlewood", "t_twisted_vandermonde"),
    "hallittlewood.r": ("hallittlewood", "_hall_littlewood_r"),
    "hallittlewood.p": ("hallittlewood", "_hall_littlewood_p"),
    "hallittlewood.complete_homogeneous": ("hallittlewood", "complete_homogeneous"),
    "hallittlewood.schur_s": ("hallittlewood", "_schur_s"),
    "hallittlewood.schur_p_coset": ("hallittlewood", "_schur_p_coset"),
    "hallittlewood.schur_p_one_row": ("hallittlewood", "_schur_p_one_row"),
    "hallittlewood.schur_p_two_rows": ("hallittlewood", "_schur_p_two_rows"),
    "hallittlewood.schur_p_rec": ("hallittlewood", "_schur_p_rec"),
}

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "terms_out_max": ("terms", "lower"),
    "terms_in_max": ("terms", "lower"),
    "term_pairs": ("count", "lower"),
    "cancel_ratio": ("ratio", "higher"),
    "term_images": ("count", "lower"),
    "reps_out": ("count", "lower"),
    "failed": ("count", "lower"),
    "undefined": ("count", "lower"),
    "fallback": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
}

# every per-layer metric: (name, unit, better)
PER_LAYER = tuple(
    (f"{layer}.{stat}", *UNITS[stat])
    for layer, (_, _, extra) in LAYERS.items()
    for stat in ("calls", "self_s", *extra)
) + tuple((f"{cache}.hit_ratio", *UNITS["hit_ratio"]) for cache in CACHES) + (
    ("trace_overhead_ratio", "ratio", "lower"),
)


def _observe_mul(stats, args, out):
    if out is NotImplemented:
        return
    a, b = args
    stats["term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else int(bool(b)))
    stats["terms_out"] += len(out.terms)


def _observe_coset_reps(stats, args, out):
    stats["reps_out"] += len(out)


def _observe_signed_sum(stats, args, out):
    stats["term_images"] += len(args[0].terms) * len(args[1])


def _observe_pushforward(stats, args, out):
    stats["terms_in_max"] = max(stats["terms_in_max"], len(args[0].terms))


OBSERVERS = {
    "polyring.mul": _observe_mul,
    "symgroup.coset_reps": _observe_coset_reps,
    "antisym.signed_permutation_sum": _observe_signed_sum,
    "gysin.partial_flag_pushforward": _observe_pushforward,
}


class Tracer:
    """Spans and counts for the layers in LAYERS, for one process."""

    def __init__(self, engine):
        self.engine = engine
        prefix = engine.__name__ + "."
        self.modules = {
            name[len(prefix):]: module
            for name, module in list(sys.modules.items())
            if name.startswith(prefix)
        }
        self.stats = {layer: Counter() for layer in LAYERS}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._undo = []
        self.unmeasured = []
        # resolved before install, while the names still hold the caches
        self.caches = {}
        for cache, (module, attr) in CACHES.items():
            found = getattr(self.modules.get(module), attr, None)
            if hasattr(found, "cache_info"):
                self.caches[cache] = found
            else:
                self.unmeasured.append(f"{cache}.hit_ratio")

    def _originals(self, module, attr):
        owner = self.modules.get(module)
        if owner is None:
            return []
        if attr.endswith("*"):
            return [v for k, v in vars(owner).items() if k.startswith(attr[:-1])]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        return [owner] if owner is not None else []

    def _bindings(self, original):
        """Every (namespace, attribute) that holds ``original``."""
        for module in (self.engine, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            yield value, cattr

    def install(self):
        for layer_id, (layer, (module, attr, _)) in enumerate(LAYERS.items()):
            originals = self._originals(module, attr)
            if not originals:
                self.unmeasured.append(layer)
            for original in originals:
                wrapper = self._wrap(layer_id, self.stats[layer], original, OBSERVERS.get(layer))
                for owner, name in list(self._bindings(original)):
                    self._undo.append((owner, name, original))
                    setattr(owner, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, layer_id, stats, fn, observe):
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        polynomial = self.engine.Polynomial
        not_divisible = self.engine.NotDivisibleError

        def traced(*args, **kwargs):
            stats["calls"] += 1
            idx = len(span_start)
            span_layer.append(layer_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except not_divisible:
                stats["failed"] += 1
                raise
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if type(out) is polynomial and len(out.terms) > stats["terms_out_max"]:
                stats["terms_out_max"] = len(out.terms)
            if observe is not None:
                observe(stats, args, out)
            return out

        return traced

    def self_times(self):
        """Self time per layer name, from the spans and their parents."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        totals = [0.0] * len(LAYERS)
        for layer_id, t in zip(self.span_layer, own):
            totals[layer_id] += t
        return dict(zip(LAYERS, totals))

    def fallbacks(self):
        """Calls of divide_by_vandermonde made directly by the alternating
        quotient: its fallback to plain synthetic division."""
        names = list(LAYERS)
        dbv = names.index("polyring.divide_by_vandermonde")
        avq = names.index("antisym.alternating_vandermonde_quotient")
        layer = self.span_layer
        return sum(
            1 for i, p in enumerate(self.span_parent)
            if layer[i] == dbv and p >= 0 and layer[p] == avq
        )

    def metrics(self):
        """Every per-layer metric except trace_overhead_ratio."""
        own = self.self_times()
        out = {}
        for layer, (_, _, extra) in LAYERS.items():
            stats = self.stats[layer]
            values = {
                "calls": stats["calls"],
                "self_s": own[layer],
                "terms_out_max": stats["terms_out_max"],
                "terms_in_max": stats["terms_in_max"],
                "term_pairs": stats["term_pairs"],
                "cancel_ratio": stats["terms_out"] / stats["term_pairs"] if stats["term_pairs"] else 0.0,
                "term_images": stats["term_images"],
                "reps_out": stats["reps_out"],
                "failed": stats["failed"],
                "undefined": stats["failed"],
                "fallback": self.fallbacks() if "fallback" in extra else 0,
            }
            for stat in ("calls", "self_s", *extra):
                out[f"{layer}.{stat}"] = values[stat]
        for cache in CACHES:
            info = self.caches[cache].cache_info() if cache in self.caches else None
            lookups = info.hits + info.misses if info else 0
            out[f"{cache}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out
