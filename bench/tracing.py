"""Span tracer that times stochqg's layers from outside the package.

``Tracer.install`` replaces each function in ``layers.TARGETS`` by a wrapper.
Modules such as ``integrator`` and ``cli`` bind names with
``from .x import y``, so the wrapper is rebound in every ``stochqg`` module
namespace that holds the original, not only in the defining module.  A span
records its name, start, end, parent span and iteration; spans stay in
memory and are written out when the run ends.  ``NoisePath.unit_normal``
(one OU one-step update) is counted, not spanned, because it runs tens of
thousands of times per pullback ensemble.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

from layers import SPAN_NAMES, TARGETS


def _fft_mb(args, kwargs, result):
    return "spectral.fft_mb_computed", (args[1].nbytes + result.nbytes) / 1e6


def _modal_gflop(args, kwargs, result):
    # One real dgemm of the (nz, nz) eigenvector matrix on the float view:
    # 2 * nz^2 * 2 * ny * nkx = 4 * nz * (complex entries of the field).
    ctx, field = args[0], args[1]
    return "operators.modal_gflop_computed", 4.0 * ctx.grid.nz * field.size / 1e9


def _snapshot_mb(args, kwargs, result):
    return "integrator.save_snapshot.mb", os.path.getsize(args[0]) / 1e6


_COUNTERS = {
    "spectral.forward_transform": _fft_mb,
    "spectral.inverse_transform": _fft_mb,
    "operators.to_modes": _modal_gflop,
    "operators.from_modes": _modal_gflop,
    "integrator.save_snapshot": _snapshot_mb,
}


class Tracer:
    """Records spans and counters while ``active``; inert otherwise."""

    def __init__(self):
        self.active = False
        self.iteration = -1
        self.spans = []          # (span_id, name, parent_id, start, end, iteration)
        self.counters = defaultdict(float)   # (iteration, name) -> value
        self.noise_steps = defaultdict(set)  # iteration -> distinct OU steps
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, name, parent, start, end, tracer.iteration)
            if counter is not None:
                key, value = counter(args, kwargs, result)
                tracer.counters[tracer.iteration, key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_unit_normal(self, fn):
        tracer = self

        def unit_normal(path, j_abs):
            if tracer.active:
                tracer.counters[tracer.iteration, "forcing.ou_updates"] += 1
                tracer.noise_steps[tracer.iteration].add(j_abs)
            return fn(path, j_abs)

        unit_normal.__wrapped__ = fn
        return unit_normal

    def _rebind(self, orig, wrapper, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self):
        for module, _ in TARGETS:
            importlib.import_module(f"stochqg.{module}")
        modules = [m for n, m in sys.modules.items()
                   if n == "stochqg" or n.startswith("stochqg.")]
        for module, function in TARGETS:
            orig = getattr(sys.modules[f"stochqg.{module}"], function)
            self._rebind(orig, self._wrap(f"{module}.{function}", orig), modules)
        noise_path = sys.modules["stochqg.forcing"].NoisePath
        orig = noise_path.unit_normal
        self._patched.append((noise_path, "unit_normal", orig))
        noise_path.unit_normal = self._wrap_unit_normal(orig)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def iteration_metrics(self, iteration: int, root: str, wall_s: float) -> dict:
        """Per-layer numbers of one traced iteration.

        ``self_s`` is a span's duration minus the durations of its direct
        children.  ``root`` names the span of the timed call, whose wall
        time the caller measured as ``wall_s``.  ``trace.child_span_frac``
        is the share of ``wall_s`` spent in the root's child spans, that is
        in wrapped layer functions rather than in the root's own code or
        untraced callees.
        """
        spans = [s for s in self.spans if s is not None and s[5] == iteration]
        child = defaultdict(float)
        child_by_name = defaultdict(float)
        names = {}
        for sid, name, parent, start, end, _ in spans:
            names[sid] = name
            if parent >= 0:
                child[parent] += end - start
                child_by_name[parent, name] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        diag_s = 0.0
        member_runs = 0
        root_sid = None
        for sid, name, parent, start, end, _ in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
            if name == "integrator.simulate":
                diag_s += ((end - start) - child_by_name[sid, "integrator.step"]
                           - child_by_name[sid, "integrator.initial_state"])
                if parent >= 0 and names[parent] == "attractor.pullback_run":
                    member_runs += 1
            if name == root and parent < 0:
                root_sid = sid

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]

        def counter(key):
            return self.counters.get((iteration, key), 0.0)

        ou_updates = counter("forcing.ou_updates")
        out["spectral.fft_mb_computed"] = counter("spectral.fft_mb_computed")
        out["operators.modal_gflop_computed"] = counter("operators.modal_gflop_computed")
        out["forcing.ou_updates"] = ou_updates
        out["forcing.ou_useful_ratio"] = (
            len(self.noise_steps[iteration]) / ou_updates if ou_updates else 0.0)
        out["integrator.diag_s"] = diag_s
        out["integrator.save_snapshot.mb"] = counter("integrator.save_snapshot.mb")
        out["attractor.member_runs"] = member_runs
        out["trace.wall_s"] = wall_s
        out["trace.child_span_frac"] = child[root_sid] / wall_s
        return out

    def write(self, fname) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][3] if spans else 0.0
        with gzip.open(fname, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span_id", "name", "parent_id", "start_s", "end_s", "iteration"])
            for sid, name, parent, start, end, it in spans:
                w.writerow([sid, name, parent, f"{start - t0:.9f}",
                            f"{end - t0:.9f}", it])
