"""Outside-in span tracer, the untraced skip counter, and span arithmetic.

Nothing here edits the program.  A wrapper is installed at every import site
of a hooked function: the tracer scans the given modules for attributes that
*are* the original object and replaces each one, because several memtrack
modules import functions by name.  ``remove`` puts every original back.

Spans (name, start, end, parent) are kept in flat typed arrays while the
program runs and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def package_modules(package: str) -> list:
    """Every loaded module of ``package``, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def patch_sites(modules, original, replacement) -> list:
    """Replace ``original`` wherever a module attribute is that object.

    Returns the (owner, attribute, original) triples needed to undo it.
    """
    patches = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def resolve(module, qualname: str):
    """(owner, attribute, object) for ``func`` or ``Class.method``; None if gone."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(obj):
        return None
    return owner, attr, obj


class SkipCounter:
    """Counts calls of a per-sequence gradient function and its skips.

    A skipped sequence returns a NaN loss as the first element of its
    result.  This is the only hook the untraced run installs.
    """

    def __init__(self):
        self.calls = 0
        self.skipped = 0
        self._patches: list = []

    def install(self, modules, module, qualname: str) -> bool:
        found = resolve(module, qualname)
        if found is None:
            return False
        _, _, original = found

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.calls += 1
            if math.isnan(result[0]):
                self.skipped += 1
            return result

        self._patches = patch_sites(modules, original, counted)
        return bool(self._patches)

    def remove(self) -> None:
        restore(self._patches)
        self._patches = []


class Tracer:
    """Records one span per call of every hooked function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches: list = []
        self.ranges: list[tuple[str, int, int]] = []
        self.phase = ""
        self.counts: dict[str, dict[str, float]] = {}   # phase -> counter -> value
        self.unavailable: dict[str, str] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter of the current phase (used by observers)."""
        counts = self.counts.setdefault(self.phase, {})
        counts[key] = counts.get(key, 0.0) + amount

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        """A span around a block of the benchmark's own code.

        Its descendants occupy the contiguous index range recorded in
        ``ranges``; ``phase``, if given, keys the observers' counters
        inside it.
        """
        previous = self.phase
        if phase is not None:
            self.phase = phase
        first = self._open(self.name_id(name))
        try:
            yield first
        finally:
            self._close(first)
            self.ranges.append((name, first, len(self.starts)))
            self.phase = previous

    def _open(self, nid: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, namer=None, observe=None):
        """A traced stand-in for ``fn``.

        ``namer(args, kwargs)`` may pick another span name per call;
        ``observe(tracer, args, kwargs, result)`` runs after a call returns.
        """
        nid = self.name_id(name)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack, clock = self._stack, self.clock
        name_id = self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid if namer is None else name_id(namer(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules, hooks) -> None:
        """Wrap every hook at all of its import sites.

        ``hooks`` holds (module, qualname, span name, namer, observe).  A
        hook whose function is gone is recorded in ``unavailable``.
        """
        for module, qualname, name, namer, observe in hooks:
            found = resolve(module, qualname)
            if found is None:
                self.unavailable[name] = f"{module.__name__}.{qualname} not found"
                continue
            owner, attr, original = found
            traced = self.wrap(original, name, namer, observe)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                self._patches.append((owner, attr, original))
            else:
                self._patches.extend(patch_sites(modules, original, traced))

    def remove(self) -> None:
        restore(self._patches)
        self._patches = []

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span once, with the name table, as an .npz file."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    covered = [0.0] * len(start)
    order = np.lexsort((start, parent))
    par, lo_all, hi_all = parent.tolist(), start.tolist(), end.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p < 0:
            continue
        if p != current:
            current, reach = p, lo_all[p]
        lo = max(lo_all[i], reach)
        hi = min(hi_all[i], hi_all[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)


def range_mask(size: int, keep, drop=()) -> np.ndarray:
    """Boolean mask of span indices inside any ``keep`` range and no ``drop`` range."""
    mask = np.zeros(size, dtype=bool)
    for first, last in keep:
        mask[first:last] = True
    for first, last in drop:
        mask[first:last] = False
    return mask


def aggregate(names, name_id, start, end, own, mask) -> dict:
    """Per span name: {"calls", "total_s", "self_s"} over the masked spans.

    ``own`` is ``self_times`` of the whole tree, so a span's children are
    always found even when the mask selects only part of it.
    """
    ids = np.asarray(name_id)[mask]
    dur = (np.asarray(end) - np.asarray(start))[mask]
    calls = np.bincount(ids, minlength=len(names))
    total = np.bincount(ids, weights=dur, minlength=len(names))
    selfs = np.bincount(ids, weights=np.asarray(own)[mask], minlength=len(names))
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(names) if calls[i] > 0}
