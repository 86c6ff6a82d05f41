"""Spans around calls into satkit's layers, installed from outside the package.

`install()` wraps every public function of the layer modules, and the
constructor and arithmetic operators of their classes, then rebinds each
wrapper wherever a satkit module holds the original: modules import functions
by name, so patching `symfunc.hall_littlewood` alone would miss the copy that
`hecke` calls.  Each call appends one span (function, parent span, start,
end) to flat arrays kept in memory; `dump()` writes them when the run ends
and `summarize()` turns them into per-layer metrics.

Methods other than the constructor, the operators and `exact_div` (for
example `is_zero` or `shift`) are not wrapped, so their time counts toward
the module that called them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("laurent", "rootdata", "symfunc", "repring", "hecke", "trace_k", "tate", "plattice")
# modules that hold bindings of layer functions without being a layer
HOLDERS = ("checks", "cli")
METHODS = (
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "exact_div",
)
# functions whose distinct first arguments are counted
DISTINCT = ("symfunc.hall_littlewood",)
# functions whose integer results are summed
SUMMED = ("plattice.convolution_oracle",)


class Tracer:
    """Flat span storage: index i is one call, parent -1 marks a root."""

    def __init__(self):
        self.names = []
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.distinct = {name: set() for name in DISTINCT}
        self.summed = {name: 0 for name in SUMMED}
        self.limit = None

    def stop(self):
        """Spans recorded after this call are left out of dump and summary."""
        self.limit = len(self.fn)

    def _count(self):
        return len(self.fn) if self.limit is None else self.limit

    def wrap(self, name, func):
        fid = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        seen = self.distinct.get(name)
        summed = self.summed if name in self.summed else None

        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if seen is not None:
                seen.add(args[0])
            if summed is not None:
                summed[name] += out
            return out

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def dump(self, path):
        """Write every span, gzipped: one JSON header line, then the arrays.

        The header names the functions and gives the span count and each
        array's typecode; the arrays follow as raw native-endian bytes in
        the order fn, parent, start, end.
        """
        count = self._count()
        arrays = {"fn": self.fn, "parent": self.parent, "start": self.start, "end": self.end}
        header = {
            "names": self.names,
            "spans": count,
            "arrays": {key: a.typecode for key, a in arrays.items()},
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for a in arrays.values():
                fh.write(a[:count].tobytes())

    def summarize(self):
        """Per-function and per-module totals; every value is additive.

        `<fn>.s` is inclusive time, not counted again inside a recursive call
        of the same function; `<module>.self_s` is span time minus the time
        of child spans, summed over the module's spans; `<a>><b>.calls`
        counts calls of b made directly from a.
        """
        count = self._count()
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        dur = [ends[i] - starts[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        nf = len(self.names)
        calls, own, incl = [0] * nf, [0.0] * nf, [0.0] * nf
        open_until = [float("-inf")] * nf
        edges = {}
        root = 0.0
        for i in range(count):
            f = fns[i]
            calls[f] += 1
            own[f] += dur[i] - child[i]
            # spans come in start order, so a nested call of f starts
            # before the enclosing call of f has ended
            if starts[i] >= open_until[f]:
                incl[f] += dur[i]
                open_until[f] = ends[i]
            p = parents[i]
            if p >= 0:
                key = fns[p] * nf + f
                edges[key] = edges.get(key, 0) + 1
            else:
                root += dur[i]
        out = {"root.s": root}
        for f, name in enumerate(self.names):
            if calls[f]:
                out[name + ".calls"] = calls[f]
                out[name + ".s"] = incl[f]
                module = name.split(".", 1)[0] + ".self_s"
                out[module] = out.get(module, 0.0) + own[f]
        for key, n in edges.items():
            out[f"{self.names[key // nf]}>{self.names[key % nf]}.calls"] = n
        for name, seen in self.distinct.items():
            out[name + ".distinct"] = len(seen)
        for name, total in self.summed.items():
            out[name + ".result_sum"] = total
        return out


def _bindings(module, original):
    return [attr for attr, value in vars(module).items() if value is original]


def install(tracer):
    """Wrap the layers' public callables and rebind them in every satkit module."""
    modules = {name: importlib.import_module("satkit." + name) for name in LAYERS + HOLDERS}
    for layer in LAYERS:
        module = modules[layer]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                traced = tracer.wrap(f"{layer}.{attr}", value)
                for holder in modules.values():
                    for bound in _bindings(holder, value):
                        setattr(holder, bound, traced)
            elif inspect.isclass(value):
                done = {}
                for meth in METHODS:
                    func = value.__dict__.get(meth)
                    if not inspect.isfunction(func):
                        continue
                    if id(func) not in done:
                        done[id(func)] = tracer.wrap(f"{layer}.{attr}.{func.__name__}", func)
                    setattr(value, meth, done[id(func)])
    return tracer
