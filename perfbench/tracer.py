"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each framelab module, and the
``DenseMatrix`` JSON codec, for as long as it is installed.  A wrapper is
bound wherever the original function is bound: in its own module, in the
``framelab`` package namespace, and in every module that took it with
``from .linalg import ...`` and the like.  Without the last step a call such
as ``robustness.submatrix_condition -> condition_number`` would escape the
trace.

Every call records a span (id, parent id, name, start, end).  Spans are kept
in memory and written out by :meth:`Tracer.write_spans` when the run ends.
Self time is a span's duration minus the durations of its children, so the
self times of all layers, the benchmark's own ``bench`` layer included, add
up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# framelab's modules, one layer each, in dependency order.
LAYERS = ("rng", "linalg", "frames", "erasure", "robustness",
          "inequalities", "probing", "cli")
BENCH = "bench"


class Tracer:
    """Records spans and per-layer self time while installed.

    ``hooks`` maps a traced name such as ``"erasure.per_trial_errors"`` to a
    function ``hook(args, kwargs, result) -> {key: count}``.  Each count is
    added to ``counts[key]`` and the call's duration to ``busy[key]``, so a
    rate is ``counts[key] / busy[key]`` measured where the work happens.
    """

    def __init__(self, hooks=None):
        self._hooks = dict(hooks or {})
        self._ids = itertools.count()
        self._stack = []           # open spans: [id, name, layer, job, start, child_s]
        self._patches = []         # (namespace, attribute, original)
        self.spans = []            # (id, parent id, name, start, end, error type or None)
        self.self_s = defaultdict(float)       # layer -> self seconds
        self.name_self_s = defaultdict(float)  # traced name -> self seconds
        self.job_self_s = defaultdict(float)   # (job, layer) -> self seconds
        self.inclusive_s = defaultdict(float)  # traced name -> inclusive seconds
        self.calls = Counter()                 # traced name -> calls
        self.raised = Counter()                # traced name -> calls that raised
        self.errors = Counter()                # layer -> exceptions leaving the layer
        self.counts = Counter()
        self.busy = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _enter(self, name, layer):
        job = self._stack[-1][3] if len(self._stack) > 1 else name
        self._stack.append([next(self._ids), name, layer, job,
                            perf_counter(), 0.0])

    def _exit(self, error=None):
        end = perf_counter()
        span_id, name, layer, job, start, child_s = self._stack.pop()
        duration = end - start
        own = duration - child_s
        self.self_s[layer] += own
        self.name_self_s[name] += own
        self.job_self_s[(job, layer)] += own
        self.inclusive_s[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[5] += duration
        if error is not None:
            self.raised[name] += 1
            if parent is None or parent[2] != layer:
                self.errors[layer] += 1
        self.spans.append((span_id, parent[0] if parent else None, name, start, end,
                           type(error).__name__ if error is not None else None))
        return duration

    @contextmanager
    def span(self, name, layer=BENCH):
        """Open a span around benchmark code, such as one pass or one job."""
        self._enter(name, layer)
        try:
            yield
        except BaseException as exc:
            self._exit(exc)
            raise
        self._exit()

    def _wrap(self, layer, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(exc)
                raise
            duration = self._exit()
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    self.counts[key] += n
                    self.busy[key] += duration
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self, package="framelab"):
        """Wrap framelab's public functions for the duration of the block."""
        pkg = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(layer, f"{layer}.{attr}", fn)
        try:
            for ns in (pkg, *modules.values()):
                for attr, value in list(vars(ns).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(ns, attr, wrappers[value])
            dense = modules["linalg"].DenseMatrix
            encode = vars(dense)["to_json_dict"]
            decode = vars(dense)["from_json_dict"]
            self._patch(dense, "to_json_dict",
                        self._wrap("linalg", "linalg.DenseMatrix.to_json_dict", encode))
            self._patch(dense, "from_json_dict", classmethod(
                self._wrap("linalg", "linalg.DenseMatrix.from_json_dict", decode.__func__)))
            yield self
        finally:
            while self._patches:
                ns, attr, original = self._patches.pop()
                setattr(ns, attr, original)

    def _patch(self, ns, attr, value):
        self._patches.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, value)

    # -- output ------------------------------------------------------------

    def rate(self, key):
        """counts[key] per second of the calls that did that work; 0 if none ran."""
        busy = self.busy.get(key, 0.0)
        return self.counts[key] / busy if busy > 0 else 0.0

    def write_spans(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "error": error}) + "\n")
