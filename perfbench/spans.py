"""In-memory span tracer that wraps the public functions of bfpksort's layers.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each public
module-level function of the layer modules with a timing wrapper, in every
``bfpksort`` module namespace that holds it (``from .rope import rope_apply``
binds a second name in ``simharness``), and :meth:`Tracer.uninstall` puts the
originals back.  While installed, ``concurrent.futures.ProcessPoolExecutor``
is also replaced by a subclass that counts the tasks submitted and the bytes
their arguments pickle to.

A span is ``(name, start, end, parent, op, self_s)``; ``parent`` is the index
of the enclosing span or -1, ``op`` the operation id set by the caller.  Self
time is a span's duration minus the durations of its child spans and minus
the time spent computing its counters.  Spans stay in memory until
:meth:`Tracer.write` is called.

Only calls made in the tracing process are recorded.  Pool workers forked
while the tracer is installed inherit the wrappers, which pass straight
through to the original function there.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import pickle
import sys
import time

import numpy as np

PACKAGE = "bfpksort"
LAYERS = ("bfp", "rope", "ksort", "simharness", "tensorio", "cli")

MIB = float(1 << 20)


def _digest(obj, h) -> None:
    """Feed a content digest of ``obj`` into hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _digest(item, h)
    else:
        h.update(repr(obj).encode())


def input_digest(bound: inspect.BoundArguments) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for name, value in bound.arguments.items():
        h.update(name.encode())
        _digest(value, h)
    return h.digest()


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays reachable from ``obj`` (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(item) for item in obj.values())
    return 0


def _rows(bound) -> dict:
    x = np.asarray(bound.arguments["x"])
    return {"rows": x.size // x.shape[-1] if x.shape and x.shape[-1] else 0}


def _file_bytes(bound) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


#: Counters computed per call, keyed by span name: ``hook(bound, result)``
#: returns increments.  Calls of the ``DIGESTED`` spans also feed a
#: distinct-inputs-over-calls ratio.
COUNTERS = {
    "rope.rope_apply": lambda b, r: _rows(b),
    "simharness.simulate_decode": lambda b, r: {"trace_mib": array_bytes(r) / MIB},
    "bfp.pack": lambda b, r: {"bytes": len(r)},
    "bfp.unpack": lambda b, r: {"bytes": len(b.arguments["buf"])},
    "bfp.quantize_tensor": lambda b, r: {"elements": int(np.asarray(b.arguments["x"]).size)},
    "tensorio.save": lambda b, r: _file_bytes(b),
    "tensorio.load": lambda b, r: _file_bytes(b),
}
DIGESTED = ("rope.rope_apply", "simharness.gen_outlier_head")


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.op = -1
        self.active = True
        self.spans: list[tuple] = []  # (name, start, end, parent, op, self_s)
        self.counters: dict = collections.defaultdict(float)  # (op, key) -> value
        self.digests: dict = collections.defaultdict(set)  # (op, name) -> digests
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple] = []  # (namespace, attribute, original)
        self._pool_base = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        hook = COUNTERS.get(name)
        digested = name in DIGESTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or os.getpid() != self.pid:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stop = time.perf_counter()
                self._close(frame, name, start, stop, stop, parent)
                raise
            stop = time.perf_counter()
            if hook is not None or digested:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if hook is not None:
                    for key, value in hook(bound, result).items():
                        self.counters[(self.op, f"{name}.{key}")] += value
                if digested:
                    self.digests[(self.op, name)].add(input_digest(bound))
            self._close(frame, name, start, stop, time.perf_counter(), parent)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _close(self, frame, name, start, stop, end, parent) -> None:
        """Pop ``frame`` and record its span; counter time is outside self time."""
        self._stack.pop()
        index, child_s = frame
        self.spans[index] = (name, start, end, parent, self.op, (stop - start) - child_s)
        if self._stack:
            self._stack[-1][1] += end - start

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    self._patched.append((module, attr, obj))
        self._pool_base = concurrent.futures.ProcessPoolExecutor
        concurrent.futures.ProcessPoolExecutor = self._counting_pool(self._pool_base)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self._pool_base is not None:
            concurrent.futures.ProcessPoolExecutor = self._pool_base
            self._pool_base = None

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                tracer.counters[(tracer.op, "cli.pool.tasks")] += 1
                tracer.counters[(tracer.op, "cli.pool.task_bytes")] += len(
                    pickle.dumps((fn, args, kwargs))
                )
                return super().submit(fn, *args, **kwargs)

        return CountingPool

    # -- results ----------------------------------------------------------

    def op_totals(self, op: int) -> dict:
        """Per-layer totals of one operation: ``<span>.calls``, ``<span>.self_s``,
        each counter, and ``<span>.unique_ratio`` for the digested spans."""
        totals: dict = collections.defaultdict(float)
        for name, _start, _end, _parent, span_op, self_s in self.spans:
            if span_op == op:
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += self_s
        for (span_op, key), value in self.counters.items():
            if span_op == op:
                totals[key] += value
        for (span_op, name), digests in self.digests.items():
            if span_op == op:
                totals[f"{name}.unique_ratio"] = len(digests) / totals[f"{name}.calls"]
        return totals

    def write(self, path: str) -> None:
        """Write one JSON object per span."""
        keys = ("name", "start", "end", "parent", "op", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
