"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the package from the outside: every
module-level binding of a wrapped function (the defining module, the
package namespace, and every module that imported the name) is replaced
by one wrapper, so calls made through any of those names are recorded.
Each call made while a job is active becomes a span ``[name, start, end,
parent, job]`` kept in memory; self time is a span's duration minus the
time its child spans cover.  Nothing inside the package is changed on
disk, and ``restore`` puts every original binding back.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.maxima: dict = {}
        self.job = None
        self._stack: list = []
        self._patched: list = []
        self._observers: dict = {}

    # -- recording ---------------------------------------------------------

    def note_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observer = self._observers.get(name)

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[START] = start
                span[END] = end
            if observer is not None:
                observer(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.job is not None:
                calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self, package: str, functions, counted_methods=(), observers=None) -> None:
        """Wrap ``functions`` (pairs of owning module and function name)
        in every loaded module of ``package`` that binds them, and count
        calls of ``counted_methods`` (triples of module, class, method).

        ``observers`` maps a span name to a callable ``(tracer, result)``
        run after each traced call, for size counters.
        """
        self._observers = dict(observers or {})
        for owner in {owner for owner, _ in functions}:
            importlib.import_module("%s.%s" % (package, owner))
        modules = [m for key, m in sorted(sys.modules.items())
                   if isinstance(m, types.ModuleType)
                   and (key == package or key.startswith(package + "."))]
        for owner, fname in functions:
            mod = sys.modules["%s.%s" % (package, owner)]
            original = getattr(mod, fname)
            wrapper = self._wrap("%s.%s" % (owner, fname), original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, value))
                        setattr(m, attr, wrapper)
        for owner, cls_name, method in counted_methods:
            cls = getattr(sys.modules["%s.%s" % (package, owner)], cls_name)
            original = cls.__dict__[method]
            wrapper = self._count("%s.%s" % (owner, method.strip("_")), original)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._patched.append((cls, attr, value))
                    setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for target, attr, value in reversed(self._patched):
            setattr(target, attr, value)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict = {}
        for i, span in enumerate(self.spans):
            total, n = out.get(span[NAME], (0.0, 0))
            out[span[NAME]] = (total + span[END] - span[START] - child[i], n + 1)
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.spans
        count = 0
        for span in spans:
            if span[NAME] != name:
                continue
            p = span[PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            count += p >= 0
        return count

    def spans_named(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)
