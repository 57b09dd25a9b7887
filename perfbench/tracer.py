"""Spans around calls into linkspectra, recorded from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that refers to it, because a caller looks a function up through its own
module: ``linkspectra.cli.decompose`` and ``linkspectra.spectra.decompose``
are separate attributes and both get the wrapper. Methods are wrapped on
their class. ``uninstall`` puts the originals back.

Each span keeps (id, name, start, end, parent id). Spans stay in memory
until the run ends, which writes them out; a layer's self time is its span durations minus
the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, on_result=None):
        """``name`` is a span name or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def span(self, name):
        """Context manager for a span the benchmark itself opens (one operation)."""
        return _Span(self, name)

    def install(self, targets):
        """``targets``: (owner, attribute, name, on_result) tuples. A class
        owner gets the wrapper on the class; a module owner's function is
        replaced at every linkspectra module attribute that refers to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "linkspectra" or key.startswith("linkspectra."))]
        for owner, attr, name, on_result in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, on_result)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, spans=None) -> dict:
        """Total self time per span name."""
        spans = self.spans if spans is None else spans
        covered = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, label, start, end, _ in spans:
            out[label] += max(0.0, (end - start) - covered[sid])
        return dict(out)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent))
        return False
