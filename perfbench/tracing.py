"""Spans around the public functions of each layer, recorded from outside.

:class:`Tracer` wraps library functions and methods at run time — the
program's files are never edited — and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

#: Span name -> (module, function) for module-level functions.  Every
#: loaded ``repro`` module that imported the function by name is patched.
FUNCTIONS = {
    "groups.build": ("repro.core.groups", "build_simple_groups"),
    "updates.apply": ("repro.core.updates", "apply_delta_to_repository"),
    "updates.reassign": ("repro.core.updates", "reassign_groups"),
    "updates.rebuild": ("repro.core.updates", "rebuild_instance"),
    "columnar.build": ("repro.core.columnar", "build_columnar_instance"),
    "greedy.index": ("repro.core.greedy", "select_from_index"),
    "greedy.select": ("repro.core.greedy", "greedy_select"),
    "custom": ("repro.core.customization", "custom_select"),
    "constraints.select": ("repro.constraints.select", "constrained_select"),
    "constraints.fair": ("repro.constraints.fair", "fair_select_rows"),
    "constraints.clustered": ("repro.constraints.clustered", "clustered_select_rows"),
    "constraints.partition": ("repro.constraints.clustered", "partition_rows"),
    "explain": ("repro.core.explanations", "explain_selection"),
    "viz.payload": ("repro.service.viz", "explanation_payload"),
}

#: Span name -> (module, class, method).
METHODS = {
    "service.select": ("repro.service.app", "PodiumService", "select"),
    "service.delta": ("repro.service.app", "PodiumService", "apply_profile_delta"),
    "lock.read_wait": ("repro.service.concurrency", "ReadWriteLock", "acquire_read"),
    "lock.write_wait": ("repro.service.concurrency", "ReadWriteLock", "acquire_write"),
    "wal.append": ("repro.storage.store", "DurableRepositoryStore", "log_delta"),
    "store.adopt": ("repro.storage.store", "DurableRepositoryStore", "adopt"),
    "index.build": ("repro.core.index", "InstanceIndex", "build"),
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    request_id: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; disabled wrappers pass straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        """Record one span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        if request_id is not None:
            self._local.request_id = request_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append(
                Span(span_id, parent, name, start, end,
                     getattr(self._local, "request_id", None))
            )
            if not stack:
                self._local.request_id = None

    def _wrap(self, name: str, function):
        tracer = self

        @wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            with tracer.span(name):
                return function(*args, **kwargs)

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function in :data:`FUNCTIONS` and :data:`METHODS`."""
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            traced = self._wrap(name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# -- analysis -----------------------------------------------------------------


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run on their parent's thread, one after another, so their
    intervals do not overlap and their durations add up.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.seconds
    return {s.span_id: s.seconds - child_time[s.span_id] for s in spans}


def window(spans: list[Span], start: float, end: float) -> list[Span]:
    """Spans that started inside ``[start, end)``."""
    return [s for s in spans if start <= s.start < end]
