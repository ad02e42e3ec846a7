"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: the tracer replaces module
and class attributes that the package looks up at call time (for example
``valuefn.JCurve`` or ``np.random.default_rng``) with timing wrappers, and puts
the originals back afterwards.  Nothing inside the package is edited.  An
attribute the package no longer has is skipped, so its metrics are absent
rather than the run failing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# Span record layout: [name, start, end, parent index (-1 for a root), note].
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, note=None):
        """Return fn timed as span `name`; `note(result)` is kept on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[NOTE] = note(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self.wrap(original, name, note))
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "note": note}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
