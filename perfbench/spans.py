"""Spans around the public functions of qasynth's modules, from outside them.

`Tracer.installed()` replaces every public module-level function of the
layer modules, HttpBackend's two request methods and the
`requests.Session.post` that carries each HTTP attempt, with a wrapper that
records a span. A name that another module imported (the CLI imports most of
its callees with `from .x import y`) is replaced where it is looked up, in
every qasynth module's namespace, so calls through either name are seen.
Leaving the context restores the originals.

A span is (id, name, start, end, parent id, run id), on the system-wide
monotonic clock that the stub also uses. Spans stay in memory. Worker
threads start with no open span; their spans take as parent the innermost
span open on the main thread, which in qasynth is the stage that fanned the
work out.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
import types
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, package, layers: Iterable[str]):
        self.package = package
        self.layers = tuple(layers)
        self.spans: List[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.run))

        return traced

    def _targets(self) -> Dict[int, Tuple[object, str]]:
        """id(original function) -> (original, span name)."""
        targets = {}
        for layer in self.layers:
            module = getattr(self.package, layer)
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(value)] = (value, f"{layer}.{attr}")
        return targets

    @contextlib.contextmanager
    def installed(self):
        targets = self._targets()
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}
        patched = []
        for layer in self.layers:
            module = getattr(self.package, layer)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        http = self.package.backends.HttpBackend
        for method in ("generate", "translate"):
            original = vars(http)[method]
            patched.append((http, method, original))
            setattr(http, method, self.wrap(f"backends.HttpBackend.{method}", original))
        session = self.package.backends.requests.Session
        patched.append((session, "post", vars(session)["post"]))
        setattr(session, "post", self.wrap("backends.Session.post", vars(session)["post"]))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may run in parallel on worker threads, so their intervals are
    merged before they are subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out
