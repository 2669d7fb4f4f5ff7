"""Span tracer that wraps twpaopt functions from outside the package.

A span is one call of a wrapped function or one benchmark phase: its name,
start and end (``time.perf_counter``), the span that was open when it began,
and a few counts the caller attaches.  Spans stay in memory and are written
out once, when the traced run ends.

``Tracer.patch`` replaces a function in every ``twpaopt`` module namespace
that holds it, not only where it is defined: ``sweep`` calls
``simulate_linear`` through its own ``from .network import`` binding, so a
patch of ``network.simulate_linear`` alone would miss every stage-1 call.
Code imported after the patch (a script loaded by path) binds the wrapper.
Only the standard library is used, so importing this module costs nothing
that the measured set-up time would see.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": clock(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict):
        span["end"] = clock()
        while self._stack:
            if self._stack.pop() is span:
                break

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        except BaseException as exc:
            s["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            self.close(s)

    def wrap(self, name: str, func, before=None, after=None):
        """``func`` recorded as span ``name``.

        ``before()`` runs ahead of the span; ``after(attrs, args, kwargs,
        result)`` runs once the span has closed, so counting work done there
        is not charged to the layer.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            s = self.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                s["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self.close(s)
            if after is not None:
                after(s["attrs"], args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for n, m in sorted(sys.modules.items())
                if n == "twpaopt" or n.startswith("twpaopt.")]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def patch(self, target: str, before=None, after=None, replace=None):
        """Wrap ``"twpaopt.module:func"`` or ``"twpaopt.module:Class.method"``.

        The span name drops the package prefix (``network.cascade``).  A
        classmethod stays a classmethod.  ``replace(original)`` substitutes a
        function of the caller's own for the plain wrapper.  A target that
        does not exist is recorded in ``missing`` and skipped, so a renamed
        function shows up as a named gap rather than a crash.
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        name = module_name.rpartition(".")[2] + "." + qualname
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(target)
                return
            if isinstance(raw, classmethod):
                wrapper = self.wrap(name, raw.__func__, before, after)
                self._set(cls, attr, classmethod(wrapper))
            else:
                self._set(cls, attr, self.wrap(name, raw, before, after))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(target)
            return
        wrapper = (replace(original) if replace is not None
                   else self.wrap(name, original, before, after))
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, wrapper)

    def restore(self):
        """Undo every patch, newest first."""
        for owner, attr, value in reversed(self._undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path, **extra):
        """Write every span (times relative to the first) plus ``extra``."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [[s["id"], s["parent"], s["name"], s["start"] - t0,
                 s["end"] - t0, s["attrs"]] for s in self.spans]
        doc = {"columns": ["id", "parent", "name", "start_s", "end_s", "attrs"],
               "spans": rows, "missing_targets": self.missing, **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class SpanSummary:
    """Per-name totals over a finished span list."""

    def __init__(self, spans: list[dict]):
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)
        self.by_name: dict[str, list[dict]] = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float:
        """Total time inside ``name``, children included."""
        return sum(duration(s) for s in self.by_name.get(name, ()))

    def self_time_of(self, span: dict) -> float:
        return duration(span) - sum(
            duration(c) for c in self.children.get(span["id"], ()))

    def self_time(self, name: str) -> float:
        """Time inside ``name`` not covered by any wrapped child."""
        return sum(self.self_time_of(s) for s in self.by_name.get(name, ()))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.by_name.get(name, ()))

    def failed(self, name: str) -> int:
        return sum(1 for s in self.by_name.get(name, ()) if "error" in s["attrs"])

    def coverage(self, span: dict) -> float:
        """Share of a span's duration covered by its direct children."""
        total = duration(span)
        if total <= 0:
            return 1.0
        return 1.0 - self.self_time_of(span) / total

    def top_self(self, span: dict) -> tuple[str, float]:
        """Name with the largest self time among ``span``'s descendants."""
        totals: dict[str, float] = {}
        pending = list(self.children.get(span["id"], ()))
        while pending:
            s = pending.pop()
            totals[s["name"]] = totals.get(s["name"], 0.0) + self.self_time_of(s)
            pending.extend(self.children.get(s["id"], ()))
        if not totals:
            return "", 0.0
        name = max(totals, key=totals.get)
        return name, totals[name]
