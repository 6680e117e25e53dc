"""In-memory span recorder and kernel counters for the traced benchmark run.

Spans are recorded from outside the package: while a ``Tracer`` is
installed, every public function of the layer modules is replaced, at each
name a caller looks it up by (module attributes and module-level dispatch
dicts), by a wrapper that records one span per call.  The numerical
kernels (FFTs, spline sampling, direct Fourier sums, SVD and linear
solves) are wrapped by counters instead of spans, so their time stays in
the self time of the layer that called them.

A span is (name, start, end, parent span, repetition id).  Spans stay in
memory until the run ends; ``save`` writes them out.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.ndimage

PACKAGE = "sqglab"
LAYER_MODULES = ("euler_arnold", "flow", "spectral", "group_ops", "jacobi",
                 "sphere", "morse", "cli")

# checkpoint writers are reported as one I/O layer, not under their modules
ALIASES = {"spectral.save_field": "io.checkpoint",
           "flow.save_flowmap": "io.checkpoint"}

COUNTERS = ("spectral.interpolate.calls", "spectral.interpolate_many.calls",
            "kernel.fft.calls", "kernel.fft.points", "kernel.fft.bytes",
            "kernel.map_coordinates.calls", "kernel.map_coordinates.points",
            "kernel.fourier_eval.terms", "kernel.linalg.svd.calls",
            "kernel.linalg.solve.calls", "io.checkpoint.bytes")


def _checkpoint_bytes(name, args):
    """File size written by save_field / save_flowmap, from array sizes."""
    if name == "spectral.save_field":
        return 4 + 8 + args[1].coeff.size * 16
    n = args[1].grid.n
    return 5 + 8 + 2 * n * n * 16


class Tracer:
    """Span store plus per-repetition kernel counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("i")
        self.counts: dict[int, Counter] = {}
        self._stack = [-1]
        self._rep_id = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n=1):
        self.counts[self._rep_id][key] += n

    def _span(self, name_id, fn):
        start, end = self.start, self.end
        stack, parent, rep, ids = self._stack, self.parent, self.rep, self.name_id

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(start)
            ids.append(name_id)
            parent.append(stack[-1])
            rep.append(self._rep_id)
            end.append(math.nan)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapped

    def _kernel(self, fn, size_of):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            for k, n in size_of(args, kwargs):
                self.count(k, n)
            return fn(*args, **kwargs)

        return wrapped

    # -- installation ------------------------------------------------------

    def _wrappers(self):
        """Map id(original) -> wrapper for every traced function.

        Ids are safe keys: each original stays alive in its wrapper.
        """
        out = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                # the evaluation kernels are counted, never spanned
                if name == "spectral.interpolate":
                    out[id(obj)] = self._kernel(obj, _interp_terms)
                elif name == "spectral.interpolate_many":
                    out[id(obj)] = self._kernel(obj, _interp_many_terms)
                elif name in ALIASES:
                    out[id(obj)] = self._checkpoint(name, obj)
                else:
                    out[id(obj)] = self._span(self._id(name), obj)
        return out

    def _checkpoint(self, name, fn):
        inner = self._span(self._id(ALIASES[name]), fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.count("io.checkpoint.bytes", _checkpoint_bytes(name, args))
            return inner(*args, **kwargs)

        return wrapped

    def _set(self, table: dict, key, value):
        self._patches.append((table, key, table[key]))
        table[key] = value

    def install(self):
        """Patch every lookup site of the traced functions and the kernels.

        The sites are the attributes of every package module and the values
        of its module-level dicts (such as the CLI's command table).
        """
        wrappers = self._wrappers()
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(mod)
            tables = [namespace] + [obj for attr, obj in namespace.items()
                                    if isinstance(obj, dict) and not attr.startswith("__")]
            for table in tables:
                for key, value in list(table.items()):
                    if id(value) in wrappers:
                        self._set(table, key, wrappers[id(value)])
        for owner, attr, size_of in (
                (np.fft, "fft2", _fft_sizes), (np.fft, "ifft2", _fft_sizes),
                (scipy.ndimage, "map_coordinates", _map_coord_points),
                (np.linalg, "svd", lambda a, k: (("kernel.linalg.svd.calls", 1),)),
                (np.linalg, "solve", lambda a, k: (("kernel.linalg.solve.calls", 1),))):
            self._set(vars(owner), attr, self._kernel(getattr(owner, attr), size_of))

    def uninstall(self):
        for table, key, old in reversed(self._patches):
            table[key] = old
        self._patches.clear()

    @contextmanager
    def repetition(self, rep_id: int):
        """Record one repetition's spans and counts with every hook installed."""
        self._rep_id = rep_id
        self.counts[rep_id] = Counter()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._stack[:] = [-1]

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int64), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64),
                np.array(self.rep, dtype=np.int64))

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the direct children's durations."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - child

    def per_rep(self, rep_id: int) -> dict[str, float]:
        """Layer and kernel metrics of one repetition."""
        names, _, _, _, rep = self.arrays()
        own = self.self_times()
        sel = rep == rep_id
        k = len(self.names)
        self_s = np.bincount(names[sel], weights=own[sel], minlength=k)
        calls = np.bincount(names[sel], minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.calls"] = float(calls[i])
        for key in COUNTERS:
            out[key] = float(self.counts.get(rep_id, Counter())[key])
        out["trace.covered_s"] = float(own[sel].sum())
        return out

    def save(self, path):
        """Write the spans out (numpy .npz with a name table)."""
        names, start, end, parent, rep = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            start=start, end=end, parent=parent, rep=rep,
                            self_s=self.self_times())


def _fft_sizes(args, kwargs):
    a = np.asarray(args[0])
    return (("kernel.fft.calls", 1), ("kernel.fft.points", a.size),
            ("kernel.fft.bytes", a.nbytes + a.size * 16))


def _map_coord_points(args, kwargs):
    coords = np.asarray(args[1])
    return (("kernel.map_coordinates.calls", 1),
            ("kernel.map_coordinates.points", coords.size // coords.shape[0]))


def _interp_terms(args, kwargs):
    f, points = args[0], np.atleast_2d(np.asarray(args[1]))
    method = args[2] if len(args) > 2 else kwargs.get("method", "fourier")
    terms = f.coeff.size * points.shape[0] if method == "fourier" else 0
    return (("spectral.interpolate.calls", 1), ("kernel.fourier_eval.terms", terms))


def _interp_many_terms(args, kwargs):
    coeffs, x = args[0], np.asarray(args[2])
    return (("spectral.interpolate_many.calls", 1),
            ("kernel.fourier_eval.terms", coeffs.size * x.size))
