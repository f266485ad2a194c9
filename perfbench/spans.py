"""Span tracing of m3lab from outside the package.

`Tracer.install()` wraps every public module-level function of the m3lab
layers and rebinds the name in every loaded m3lab module that holds it, so
calls made through `from .fields import ddx` are seen too.  numpy.fft entry
points are wrapped to count calls and transformed points (no span: their
time stays in the self time of the caller, e.g. fields.ddx).

Spans (name, start, end, parent) are kept in memory; `take()` turns the
spans since the last call into self time, inclusive time and call counts
per name; the worker calls it after every command.
"""

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fields", "spin", "nls", "frames", "invariants", "lax", "equivalence",
          "convergence", "cli")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _cells(args, kwargs, result):
    grid = args[0]
    return grid.nx * grid.ny


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _masked(args, kwargs, result):
    return int(np.count_nonzero(result.mask))


# counters attached to a span: span name -> (counter name, amount function)
COUNTERS = {
    "spin.step_rk4_spin": ("spin.cells", _cells),
    "nls.step_rk4_nls": ("nls.cells", _cells),
    "fields.write_mfld1": ("fields.mfld1_write.bytes", _file_bytes),
    "fields.read_mfld1": ("fields.mfld1_read.bytes", _file_bytes),
    "frames.frame_from_spin": ("frames.masked_points", _masked),
}


def span_name(layer, fname):
    if layer == "cli" and fname.startswith("cmd_"):
        return "cli." + fname[4:].replace("_", "-")
    return f"{layer}.{fname}"


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index)
        self.stack = []
        self.counts = defaultdict(int)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, time.perf_counter(), parent)
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result
        return traced

    def _wrap_fft(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts["fields.fft.calls"] += 1
            counts["fields.fft.points"] += int(np.size(a))
            return fn(a, *args, **kwargs)
        return counted

    def install(self):
        mods = {k: m for k, m in sys.modules.items() if k.startswith("m3lab")}
        swap = {}
        for layer in LAYERS:
            mod = mods[f"m3lab.{layer}"]
            for fname, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type) and not fname.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and fname != "main"):
                    swap[id(obj)] = self._wrap(span_name(layer, fname), obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])
        for fname in FFT_NAMES:
            setattr(np.fft, fname, self._wrap_fft(getattr(np.fft, fname)))

    def take(self):
        """Per-name self/inclusive seconds and calls, plus counters; resets."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, t0, t1, _), kids in zip(self.spans, child):
            a = agg[name]
            a[0] += t1 - t0 - kids
            a[1] += t1 - t0
            a[2] += 1
        out = {"spans": {k: {"self_s": v[0], "incl_s": v[1], "calls": v[2]}
                         for k, v in agg.items()},
               "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out
