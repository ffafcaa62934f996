"""Timing wrappers around polystar's public layer functions.

``Tracer.install`` replaces every module attribute under ``polystar`` that
binds a traced function (``from .chains import dp_chain_partials`` binds it
in ``polylog`` too) with a wrapper that records a span: name, start, end and
parent.  Spans stay in memory; ``dump`` writes them out when the run ends.
Work counters are recorded at the same boundaries.  Worker processes forked
from a traced process (the CLI's ``--jobs`` pool) keep tracing and write
their own dump when they exit.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util

TARGETS = (
    ("kernel", ("best_extrapolant", "_window_limit", "adaptive_quadrature")),
    ("chains", ("dp_chain_partials", "dp_q_coupled", "adaptive_sum")),
    ("exact", ("mhsv_all", "main_rhs", "mean_rhs", "pan_xu_check")),
    ("polylog", ("li", "zeta", "li_star", "li_star_diff", "mean_kernel_infinite",
                 "mean_average_infinite", "li_identity_sides")),
    ("catalog", ("verify",)),
)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS for fn in fns)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def rebind(orig, replacement):
    """Point every ``polystar`` module attribute bound to ``orig`` at
    ``replacement``; returns the ``(module, attr)`` pairs changed."""
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "polystar" or mod_name.startswith("polystar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    def __init__(self):
        self.spans = []          # [name index, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self._undo = []
        self._dump_dir = None

    def install(self, dump_dir=None):
        """Wrap every target; with ``dump_dir``, forked children dump there
        on exit."""
        hooks = {
            "chains.dp_chain_partials": self._chain_points,
            "chains.dp_q_coupled": self._q_cells,
            "chains.adaptive_sum": self._ladder,
            "kernel.adaptive_quadrature": self._quadrature,
        }
        for layer, fns in TARGETS:
            mod = importlib.import_module(f"polystar.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(mod, fn)
                wrapper = self._wrap(SPAN_NAMES.index(name), orig, hooks.get(name))
                self._undo += [(m, a, orig) for m, a in rebind(orig, wrapper)]
        self._dump_dir = dump_dir
        if dump_dir is not None:
            mp_util.register_after_fork(self, Tracer._in_child)
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo = []

    def _wrap(self, index, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # --- work counters -----------------------------------------------------

    def _chain_points(self, fn, args, kwargs):
        spec, n = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "N")
        self.counts["chains.dp_chain_partials.points"] += n * spec.length
        return fn(*args, **kwargs)

    def _q_cells(self, fn, args, kwargs):
        kernel, n = _arg(args, kwargs, 0, "kernel"), _arg(args, kwargs, 1, "N")
        self.counts["chains.dp_q_coupled.cells"] += n * n * kernel.s.weight
        return fn(*args, **kwargs)

    def _quadrature(self, fn, args, kwargs):
        f = _arg(args, kwargs, 0, "f")
        counts = self.counts

        def counted(x):
            counts["kernel.adaptive_quadrature.integrand_evals"] += 1
            return f(x)

        if args:
            return fn(counted, *args[1:], **kwargs)
        return fn(**dict(kwargs, f=counted))

    def _ladder(self, fn, args, kwargs):
        evaluator = _arg(args, kwargs, 0, "evaluator")
        levels = []

        def counted(n):
            levels.append(n)
            return evaluator(n)

        if args:
            result = fn(counted, *args[1:], **kwargs)
        else:
            result = fn(**dict(kwargs, evaluator=counted))
        c = self.counts
        c["chains.adaptive_sum.levels"] += len(levels)
        c["chains.adaptive_sum.level_n_sum"] += sum(levels)
        c["chains.adaptive_sum.final_n_sum"] += result.truncation_level
        c["chains.adaptive_sum.converged"] += bool(result.converged)
        return result

    # --- output --------------------------------------------------------------

    def dump_dict(self):
        return {"pid": os.getpid(), "spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump_dict(), fh)

    def _in_child(self):
        # a forked pool worker: start empty, write its spans when it exits
        del self.spans[:]
        del self.stack[:]
        self.counts.clear()
        path = os.path.join(self._dump_dir, f"trace-{os.getpid()}.json")
        mp_util.Finalize(self, self.dump, args=(path,), exitpriority=10)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_stats(dumps):
    """Aggregate one or more dumps into ``{name: value}`` per-layer figures."""
    out = {}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    for dump in dumps:
        for span, own in zip(dump["spans"], self_times(dump["spans"])):
            calls[span[0]] += 1
            self_s[span[0]] += own
        for key, value in dump["counts"].items():
            counts[key] += value
    for index, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = calls[index]
        out[f"{name}.self_s"] = self_s[index]
    out["self_sum_s"] = sum(self_s.values())
    for key in ("kernel.adaptive_quadrature.integrand_evals",
                "chains.dp_chain_partials.points", "chains.dp_q_coupled.cells",
                "chains.adaptive_sum.levels"):
        out[key] = int(counts[key])
    ladders = calls[SPAN_NAMES.index("chains.adaptive_sum")]
    out["chains.adaptive_sum.converged_ratio"] = (
        counts["chains.adaptive_sum.converged"] / ladders if ladders else 0.0)
    level_n = counts["chains.adaptive_sum.level_n_sum"]
    out["chains.adaptive_sum.useful_ratio"] = (
        counts["chains.adaptive_sum.final_n_sum"] / level_n if level_n else 0.0)
    return out
