"""In-memory span recording around the package's public functions.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: ``(name, start, end, parent, run)``.  ``parent`` is the index
of the enclosing recorded span (-1 at the top) and ``run`` identifies the
benchmark run the spans belong to.  Patching is done on the attribute that
callers look up, so a function imported by name into another module
(``cli.load_dataset``, ``mixture.validate_dataset``) is patched there too.
Nothing is patched at import time; :meth:`Tracer.install` does it and
:meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, targets) -> None:
        """Patch every ``(module, attribute, span name)`` in ``targets``."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        """The recorded spans as parallel arrays (names as indices into ``labels``)."""
        labels = sorted(set(self.names))
        code = {label: i for i, label in enumerate(labels)}
        return {
            "labels": np.array(labels),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "run": np.full(len(self.names), self.run_id, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose ``parent`` is the span's index; their
    intervals are clipped to the parent's and merged before subtracting, so
    overlapping or out-of-range children are never counted twice.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    out = ends - starts
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda i: starts[i]):
            a, b = max(starts[k], lo), min(ends[k], hi)
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
        out[p] -= covered
    return out


def summarize_spans(names, starts, ends, parents) -> dict:
    """Per-name ``calls``, total ``s`` and ``self_s`` from a span list."""
    selfs = self_times(starts, ends, parents)
    totals: dict[str, dict] = {}
    for name, start, end, own in zip(names, starts, ends, selfs):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
    return totals
