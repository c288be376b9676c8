"""Span tracer for the linksched package, installed from outside the package.

The package's modules import each other's functions with ``from .x import
y``, so one function object is bound under several names (``lgs`` lives in
``solvers``, ``policies`` and ``train``; the package ``__init__`` re-exports
nearly everything). :meth:`Tracer.install` rebinds every binding of each
public module-level function to one wrapper, and :meth:`Tracer.uninstall`
puts the originals back. ``linksched.__main__`` is never imported, because
importing it runs the command line and exits.

Spans (name, start, end, parent) are appended to flat arrays in memory and
written out once, at the end. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "linksched"
SKIP_MODULES = frozenset({"linksched.__main__"})
# Methods traced besides the module-level functions: (module, class, method).
EXTRA_METHODS = (("linksched.presets", "GraphConfig", "build"),)


def _package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and name not in SKIP_MODULES
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def find_targets() -> list[tuple[str, object, str, object]]:
    """Every traced callable and each place it is bound.

    Returns ``(label, owner, attribute, function)`` tuples; ``label`` is the
    defining module without the package prefix plus the qualified name, as
    in ``solvers.lgs`` or ``presets.GraphConfig.build``.
    """
    modules = _package_modules()
    labels: dict[int, str] = {}
    functions: dict[int, object] = {}
    for name, mod in modules.items():
        short = name[len(PACKAGE) + 1:]
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == name
                    and not attr.startswith("_")):
                labels[id(value)] = f"{short}.{attr}"
                functions[id(value)] = value
    bindings = []
    for mod in modules.values():
        for attr, value in vars(mod).items():
            if id(value) in labels and value is functions[id(value)]:
                bindings.append((labels[id(value)], mod, attr, value))
    for mod_name, cls_name, method in EXTRA_METHODS:
        cls = getattr(modules[mod_name], cls_name)
        label = f"{mod_name[len(PACKAGE) + 1:]}.{cls_name}.{method}"
        bindings.append((label, cls, method, vars(cls)[method]))
    return bindings


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        # label -> callable(span index, result), called after each traced
        # call returns
        self.observers: dict[str, object] = {}

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def __len__(self) -> int:
        return len(self.name_ids)

    def _open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        """A span around code of the caller's own, such as one benchmark pass."""
        idx = self._open(self.label_id(label))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, label: str, fn):
        nid = self.label_id(label)
        observer = self.observers.get(label)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if observer is not None:
                observer(idx, result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[str, object] = {}
        for label, owner, attr, fn in find_targets():
            if label not in wrappers:
                wrappers[label] = self._wrap(label, fn)
                self._originals[label] = fn
            setattr(owner, attr, wrappers[label])
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def audit(self, run) -> dict[str, tuple[int, int]]:
        """Install the wrappers, call ``run()`` and count, with a profiler,
        the calls that reach each original function.

        Returns the labels whose span count differs from the profiler's
        count as ``{label: (spans, calls)}``; empty means no binding was
        missed.
        """
        reached: Counter = Counter()
        codes: dict = {}

        def profile(frame, event, arg):
            if event == "call":
                label = codes.get(frame.f_code)
                if label is not None:
                    reached[label] += 1

        first = len(self)
        self.install()
        codes.update((fn.__code__, label)
                     for label, fn in self._originals.items())
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
            self.uninstall()
        spans = Counter(self.labels[i] for i in self.name_ids[first:])
        return {label: (spans[label], reached[label])
                for label in codes.values()
                if spans[label] != reached[label]}

    def arrays(self):
        """(name ids, parents, starts, ends, self times) as numpy arrays."""
        ids = np.frombuffer(self.name_ids, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.intc).astype(np.int64)
        starts = np.frombuffer(self.starts, dtype=np.float64).copy()
        ends = np.frombuffer(self.ends, dtype=np.float64).copy()
        dur = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(ids))
        return ids, parents, starts, ends, dur - child

    def write(self, path, header: str = "") -> None:
        """Write every span as gzip-compressed CSV ``name,start,end,parent``
        (seconds on the ``perf_counter`` clock; parent -1 is a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("name,start,end,parent\n")
            labels = self.labels
            fh.writelines(
                f"{labels[n]},{s:.9f},{e:.9f},{p}\n" for n, s, e, p in
                zip(self.name_ids, self.starts, self.ends, self.parents))
