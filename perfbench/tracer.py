"""Out-of-tree span tracer for the madlab benchmark's traced run.

The tracer wraps public madlab functions from outside the package. Several
modules import with ``from madlab.x import f``, so a function is reachable
through more than one module attribute; ``Tracer.install`` patches every
``madlab.*`` module attribute that holds the original function object, and
patches methods on their class. Spans are kept in flat in-memory arrays
(name id, start, end, parent id, amount) and written once, at the end, with
``Tracer.dump``. ``aggregate`` turns a dump into per-name counts and times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable

import numpy as np

# amount(args, kwargs, result) -> a number recorded on the span, such as
# records read or bytes written.
Amount = Callable[[tuple, dict, object], float]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.amount = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, amount: Amount | None = None) -> Callable:
        """Return fn wrapped so that every call records a span named name."""
        nid = self._intern(name)
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, amounts = self.parent, self.amount
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            amounts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = float(amount(args, kwargs, result))
            return result

        return traced

    def install(self, name: str, module: str, qualname: str,
                amount: Amount | None = None) -> int:
        """Wrap module.qualname everywhere madlab can reach it; returns bindings patched.

        qualname is ``func`` or ``Class.method``. A method is patched on its
        class; a function on every loaded madlab module that holds it.
        """
        owner = importlib.import_module(module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = self.wrap(name, original, amount)
        if outer:
            self._patch(owner, attr, original, wrapped)
            return 1
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "madlab" or mod_name.startswith("madlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapped)
                    patched += 1
        return patched

    def _patch(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write all spans to one .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            amount=np.frombuffer(self.amount, dtype=np.float64),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another: their summed durations are the part of the
    parent's interval that they cover.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


class SpanTable:
    """A loaded span dump with per-name lookups."""

    def __init__(self, names, name_id, start, end, parent, amount) -> None:
        self.names = [str(n) for n in names]
        self.name_id = np.asarray(name_id)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.amount = np.asarray(amount, dtype=np.float64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path) as data:
            return cls(**{key: data[key] for key in data.files})

    def mask(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans whose name is one of names."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def parent_mask(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans whose direct parent is named one of names."""
        in_names = self.mask(*names)
        has_parent = self.parent >= 0
        out = np.zeros(len(self.parent), dtype=bool)
        out[has_parent] = in_names[self.parent[has_parent]]
        return out
