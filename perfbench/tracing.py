"""Per-layer tracing of tensec from outside the package.

`Tracer.install()` replaces selected public functions with timing wrappers
in every `tensec` module that holds them, which is where their callers look
them up (`tensec.cli.framework_in_general_position`,
`tensec.quantization.associated_framing`, ...).  Each wrapped call records a
span (id, name, start, end, parent id, op id) in memory; `uninstall()` puts
the originals back.  Self time is a span's duration minus the durations of
its direct children; spans nest strictly because the benchmark runs one op
at a time on one thread.

Some functions only count calls (`meet`, `join`, `evaluate`): they run
hundreds of thousands of times, and their time stays in the caller's span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "numeric", "framework", "projective", "resolution",
          "quantization", "cycles", "conditions", "sampling")


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _echelon_stats(tracer, args, result):
    rows, ncols = args[0], args[1]
    reduced, pivots = result
    n = len(rows)
    c = tracer.counts
    c["echelon_mults"] += sum(2 * (n - r - 1) * (ncols - col)
                              for r, col in enumerate(pivots))
    m = tracer.maxima
    m["echelon_rows"] = max(m["echelon_rows"], n)
    m["echelon_cols"] = max(m["echelon_cols"], ncols)
    m["echelon_bits"] = max(m["echelon_bits"], _bits(rows), _bits(reduced))


def _cycles(tracer, args, result):
    tracer.counts["cycles"] += len(result)


def _stress_dim(tracer, args, result):
    tracer.maxima["stress_dim"] = max(tracer.maxima["stress_dim"], len(result))


# The two subset enumerations may stop early, so these count the masks a
# call may examine at most (an upper bound from the input size), not those
# it examined.

def _subset_max_masks(tracer, args, result):
    tracer.counts["subset_max_masks"] += (1 << len(args[0])) - 2


def _partial_sum_max_masks(tracer, args, result):
    tracer.counts["partial_sum_max_masks"] += (1 << (len(args[0]) - 1)) - 1


def _framing_key(tracer, args, result):
    scheme, leaf_a, leaf_b = args[:3]
    tracer.framing_keys.add((tracer.op_id, scheme.base.coords,
                             frozenset((leaf_a, leaf_b))))


@functools.lru_cache(maxsize=None)
def _field_names(node_type):
    if not dataclasses.is_dataclass(node_type):
        return None
    return tuple(f.name for f in dataclasses.fields(node_type))


def _ast_nodes(expr):
    """Nodes of a condition expression tree (dataclass instances)."""
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
            continue
        names = _field_names(type(node))
        if names is not None:
            count += 1
            stack.extend(getattr(node, n) for n in names)
    return count


def _system(tracer, args, result):
    tracer.counts["conditions"] += len(result.conditions)
    tracer.counts["ast_nodes"] += sum(_ast_nodes(c.expr) for c in result.conditions)


# (module, function, hook) for spans; hooks derive work counts from the
# arguments and result of a successful call.
SPANS = (
    ("cli", "main", None),
    ("numeric", "nullspace_basis", None),
    ("_kernel", "echelon_int", _echelon_stats),
    ("framework", "framework_from_json", None),
    ("framework", "graph_from_json", None),
    ("framework", "framework_in_general_position", None),
    ("framework", "enumerate_simple_cycles", _cycles),
    ("framework", "self_stress_basis", _stress_dim),
    ("framework", "find_nonparallelizable_stress", None),
    ("framework", "forceload_from_stress", None),
    ("framework", "is_non_parallelizable", None),
    ("projective", "nonvanishing_proper_subsets", _subset_max_masks),
    ("projective", "partial_sum_lines_distinct", _partial_sum_max_masks),
    ("resolution", "is_strongly_generic", None),
    ("resolution", "scheme_hf_surgery", None),
    ("resolution", "associated_framing", _framing_key),
    ("quantization", "default_trees", None),
    ("quantization", "quantization_from_stress", None),
    ("quantization", "is_consistent", None),
    ("quantization", "is_consistent_at", None),
    ("cycles", "monodromy", None),
    ("cycles", "pick_aux_line", None),
    ("conditions", "generate_system", _system),
    ("conditions", "fulfilled_with_witness", None),
    ("conditions", "to_sexpr", None),
    ("sampling", "random_placement", None),
    ("sampling", "desargues_concurrent_placement", None),
    ("sampling", "pascal_conic_placement", None),
)
COUNTERS = (("projective", "meet"), ("projective", "join"),
            ("conditions", "evaluate"))
#: Recursive functions get a span only for their outermost call.
OUTERMOST = {"conditions.to_sexpr"}


def _module(short):
    if short == "_kernel":
        return importlib.import_module("tensec.numeric")._kernel
    return importlib.import_module(f"tensec.{short}")


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.calls_under = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.framing_keys = set()
        self.op_id = None
        self._stack = []
        self._active = Counter()
        self._patched = []

    def _span(self, name, fn, hook):
        tracer = self
        outermost = name in OUTERMOST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer._active[name]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, name, 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                duration = t1 - t0
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                    tracer.calls_under[(name, parent[1])] += 1
                tracer.spans[span_id] = (span_id, name, t0, t1,
                                         parent[0] if parent else None,
                                         tracer.op_id)
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer, args, result)
                if parent is not None:
                    # the hook is tracing work, not the parent's
                    parent[2] += time.perf_counter() - h0
            return result
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, short, attr, wrapper):
        original = getattr(_module(short), attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "tensec" and not name.startswith("tensec."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def install(self):
        for short, attr, hook in SPANS:
            layer = "numeric" if short == "_kernel" else short
            name = f"{layer}.{attr}"
            self._patch(short, attr, self._span(name, getattr(_module(short), attr), hook))
        for short, attr in COUNTERS:
            self._patch(short, attr, self._counter(f"{short}.{attr}",
                                                   getattr(_module(short), attr)))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_self_s(self):
        per_layer = defaultdict(float)
        for name, seconds in self.self_s.items():
            per_layer[name.split(".", 1)[0]] += seconds
        return per_layer
