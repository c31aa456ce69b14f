"""Per-layer spans and counters for the traced in-process run.

Spans are recorded from the benchmark's side: each traced function of the
`vcwidth` package is replaced, for the duration of the traced pass, by a
wrapper that times it and reads its counters. A function imported by name
into another module is a separate binding there, so `install` rebinds every
module attribute (and class attribute) that holds the original function; a
binding left unwrapped would leave its span silently empty. The sites the
layer map below relies on are asserted after rebinding.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import sys
import time

# Layer span name -> (module, attribute, class or None). Names are the
# metric prefixes.
LAYERS = {
    "pathwidth.pathwidth_vc": ("pathwidth", "pathwidth_vc", None),
    "pathwidth.partial_width_table": ("pathwidth", "partial_width_table", None),
    "pathwidth.reconstruct_path": ("pathwidth", "reconstruct_path", None),
    "treewidth.treewidth_vc_4k": ("treewidth", "treewidth_vc_4k", None),
    "treewidth.treewidth_table": ("treewidth", "treewidth_table", None),
    "treewidth.reconstruct_tree": ("treewidth", "reconstruct_tree", None),
    "treewidth_fast.treewidth_vc_3k": ("treewidth_fast", "treewidth_vc_3k", None),
    "treewidth_fast._join_minima": ("treewidth_fast", "_join_minima", None),
    "treewidth_fast._layer_sweep": ("treewidth_fast", "_layer_sweep", None),
    "convolution.convolve": ("convolution", "convolve", None),
    "states.valid_triples": ("states", "valid_triples", "CoverContext"),
    "complement.pathwidth_cvc": ("complement", "pathwidth_cvc", None),
    "complement.rooted_pw_table": ("complement", "rooted_pw_table", None),
    "decomposition.validate": ("decomposition", "validate", None),
    "formats.parse_gr": ("formats", "parse_gr", None),
    "formats.emit_td": ("formats", "emit_td", None),
    "cover.minimum_vertex_cover": ("cover", "minimum_vertex_cover", None),
    "graph.complement": ("graph", "complement", "Graph"),
}

# Import sites that must be rebound (module -> names), besides each
# function's home module.
REQUIRED_SITES = {
    "pathwidth": ["validate"],
    "treewidth": ["validate"],
    "complement": ["validate"],
    "treewidth_fast": ["convolve", "reconstruct_tree"],
    "cli": ["pathwidth_vc", "treewidth_vc_4k", "treewidth_vc_3k",
            "pathwidth_cvc", "parse_gr", "emit_td", "minimum_vertex_cover"],
}

# Arguments that carry the stats dict, by position, for wrapped functions
# that fill one; the wrapper supplies a dict when the caller passed None.
_STATS_ARG = {
    "pathwidth.partial_width_table": 1,
    "treewidth.treewidth_table": 2,
    "treewidth_fast.treewidth_vc_3k": 2,
    "complement.pathwidth_cvc": 2,
}


def ranked_ops(s):
    """Element operations of one ranked-transform subset convolution on a
    universe of size s (computed, not counted): two ranked zeta transforms
    and one ranked Moebius transform of (s+1) x 2^s tables, each
    (s+1) * s * 2^(s-1) additions, plus the (s+1)(s+2)/2 rank products of
    2^s cells."""
    return 3 * (s + 1) * s * (1 << s) // 2 + (s + 1) * (s + 2) // 2 * (1 << s)


class Tracer:
    """Span stack plus per-layer totals: inclusive time, self time, calls,
    and named counters."""

    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.counters = {}
        self._stack = []  # [start, child time] per open span

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def run(self, name, fn, args, kwargs):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[0]
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + dur - frame[1])
            self.calls[name] = self.calls.get(name, 0) + 1


def _counting(name, fn, tracer, convolution):
    """Wrapper for layer `name`: a span plus the layer's counters."""
    stats_pos = _STATS_ARG.get(name)

    def wrapper(*args, **kwargs):
        if stats_pos is not None:
            args, kwargs, stats = _with_stats(args, kwargs, stats_pos)
        if name == "convolution.convolve":
            calls0 = convolution.STATS["convolve_calls"]
            cells0 = convolution.STATS["convolve_cells"]
        result = tracer.run(name, fn, args, kwargs)
        if name == "convolution.convolve":
            tracer.count("convolution.convolve.calls",
                         convolution.STATS["convolve_calls"] - calls0)
            tracer.count("convolution.convolve.cells",
                         convolution.STATS["convolve_cells"] - cells0)
            tracer.count("convolution.convolve.ranked_ops",
                         ranked_ops(args[0].s))
        elif name in ("pathwidth.partial_width_table",
                      "treewidth.treewidth_table"):
            prefix = name.split(".")[0]
            tracer.count(f"{prefix}.states", stats.get("states", 0))
            tracer.count(f"{prefix}.peak_table", stats.get("peak_table", 0))
            tracer.count(f"{prefix}.triples", stats.get("valid_triples", 0))
            tracer.count(f"{prefix}.entries", len(result))
        elif name == "treewidth_fast.treewidth_vc_3k":
            tracer.count("treewidth_fast.layers", stats.get("layers", 0))
            tracer.count("treewidth_fast.join_cells",
                         stats.get("join_cells", 0))
        elif name == "complement.pathwidth_cvc":
            tracer.count("complement.table_entries",
                         stats.get("table_entries", 0))
        elif name == "states.valid_triples":
            tracer.count("states.valid_triples.count", len(result))
        elif name == "decomposition.validate":
            tracer.count("decomposition.validate.bag_cells",
                         sum(len(b) for b in args[1].bags))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _with_stats(args, kwargs, pos):
    if len(args) > pos:
        stats = args[pos]
        if stats is None:
            stats = {}
            args = args[:pos] + (stats,) + args[pos + 1:]
    else:
        stats = kwargs.get("stats")
        if stats is None:
            stats = {}
            kwargs = dict(kwargs, stats=stats)
    return args, kwargs, stats


class TracedRun:
    """Context manager: wrap every layer of an imported `vcwidth` package
    for the duration of the block, then restore every binding. Spans go to
    `tracer`, a fresh Tracer by default."""

    def __init__(self, package, tracer=None):
        self.package = package
        self.tracer = Tracer() if tracer is None else tracer
        self._undo = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        try:
            self._install(modules)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, modules):
        pkg = self.package
        conv = sys.modules[f"{pkg}.convolution"]
        rebound = {}
        for name, (mod_name, attr, cls_name) in LAYERS.items():
            home = sys.modules.get(f"{pkg}.{mod_name}")
            if home is None:
                raise LookupError(f"traced layer {name}: no module "
                                  f"{pkg}.{mod_name}")
            owner = getattr(home, cls_name) if cls_name else home
            original = owner.__dict__.get(attr)
            if original is None:
                raise LookupError(f"traced layer {name}: "
                                  f"{owner.__name__}.{attr} is gone")
            wrapper = _counting(name, original, self.tracer, conv)
            owners = [owner] if cls_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, key, value))
                        setattr(target, key, wrapper)
                        short = target.__name__.rsplit(".", 1)[-1]
                        rebound.setdefault(short, set()).add(key)
        for mod_name, names in REQUIRED_SITES.items():
            missing = set(names) - rebound.get(mod_name, set())
            if missing:
                raise LookupError(f"import sites in {pkg}.{mod_name} not "
                                  f"rebound: {sorted(missing)}")

    def _restore(self):
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)
