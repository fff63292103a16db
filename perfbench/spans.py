"""Outside-in span tracer for the rcsbounds layers.

The tracer wraps every public function (each name in a layer module's
``__all__`` that is a plain function) and rebinds the wrapper under every
name that refers to the original anywhere in the package.  ``bounds``,
``forms``, ``harness`` and ``cli`` bind ``sqrt_psd``, ``form_eval``, the
evaluators and the generators at import time, so wrapping only the
defining module's attribute would miss those calls.

A span is (name, start_ns, end_ns, parent index, attribute).  Spans stay
in memory while tracing is on and are written out by ``dump`` when the
run ends.  Self time is a span's duration minus the durations of its
direct children; calls are strictly nested in one thread, so the children
cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("rng", "matalg", "forms", "bounds", "harness", "jsonio", "cli")

# Every EIG_SAMPLE_STRIDE-th eig_hermitian call keeps a copy of its input
# and eigenvalues for the accuracy check against numpy's eigh.
EIG_SAMPLE_STRIDE = 4


def _span_attribute(name: str, args: tuple):
    """The one argument the per-layer metrics group by, if any."""
    if name == "harness.run_trial" and len(args) > 1:
        return args[1]
    if name == "harness.gen_re_valid_instance" and args:
        return args[0]
    return None


class Tracer:
    """Records spans for the wrapped public functions of every layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.eig_samples: list[tuple[np.ndarray, np.ndarray]] = []
        self._stack: list[int] = []
        self._eig_calls = 0
        self._names: dict = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_eig = name == "matalg.eig_hermitian"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, _span_attribute(name, args)]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_eig:
                self._sample_eig(args[0], result)
            return result

        return wrapper

    def _sample_eig(self, a, result) -> None:
        if self._eig_calls % EIG_SAMPLE_STRIDE == 0:
            self.eig_samples.append(
                (np.array(a, dtype=np.complex128, copy=True), result.eigenvalues.copy())
            )
        self._eig_calls += 1

    @contextmanager
    def installed(self):
        """Rebind every public layer function to its wrapper, then restore."""
        modules = {layer: importlib.import_module(f"rcsbounds.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for public in module.__all__:
                fn = getattr(module, public)
                if inspect.isfunction(fn):
                    self._names[fn] = f"{layer}.{public}"
                    wrappers[fn] = self._wrap(f"{layer}.{public}", fn)
        package = importlib.import_module("rcsbounds")
        rebound = []
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    @contextmanager
    def profiled_calls(self):
        """Count calls of the wrapped functions' own code with sys.setprofile.

        Used inside ``installed``: the profiler sees every call however
        the caller bound the function, so a count above the number of
        spans means some calls escaped the wrappers.
        """
        codes = {fn.__code__: name for fn, name in self._names.items()}
        counts: Counter = Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                counts[codes[frame.f_code]] += 1

        sys.setprofile(hook)
        try:
            yield counts
        finally:
            sys.setprofile(None)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, attribute."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class SpanTable:
    """Column view of a span list with durations, self times and parents."""

    def __init__(self, spans: list[list]) -> None:
        self.names = [s[0] for s in spans]
        self.attrs = [s[4] for s in spans]
        start = np.array([s[1] for s in spans], dtype=np.int64)
        end = np.array([s[2] for s in spans], dtype=np.int64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.duration = (end - start).astype(np.float64)
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=self.duration[child], minlength=len(spans)
        )
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.names)

    def indices(self, predicate) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int64)

    def named(self, name: str) -> np.ndarray:
        return self.indices(lambda n: n == name)

    def layer(self, layer: str) -> np.ndarray:
        return self.indices(lambda n: n.split(".", 1)[0] == layer)

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(len(self))]
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return kids
