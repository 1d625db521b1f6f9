"""Span recording for the traced benchmark run.

Calls into caralloc are timed from outside the package: while a traced
trial runs, every module attribute that holds one of the traced functions
is rebound to a timing wrapper, and the original is put back afterwards.
A module looks its callees up by name at call time, so a call made inside
the package (``sgpa.solve`` -> ``update_beta``) goes through the wrapper as
well. Spans live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import types
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np


class SpanRecorder:
    """Spans as parallel arrays: name id, start, end, parent index, trial.

    A span's parent is the span that was open when it started (-1 for a
    call made by the benchmark itself); spans of one trial share its index.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.current_trial = -1
        self._open: List[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self.name_index(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.trial.append(self.current_trial)
            self.end.append(0.0)
            open_spans.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                open_spans.pop()

        return traced

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int32),
            np.array(self.trial, dtype=np.int32),
        )

    def self_time_by_name(self) -> Dict[str, Tuple[int, float]]:
        """{name: (calls, total self seconds)} over every recorded span."""
        name_id, start, end, parent, _ = self.arrays()
        own = self_times(start, end, parent)
        calls = np.bincount(name_id, minlength=len(self.names))
        seconds = np.bincount(name_id, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save every span as a compressed ``.npz`` (``names[name_id]`` is a span's name)."""
        name_id, start, end, parent, trial = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            trial=trial,
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct child spans.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other: the covered time is the sum of their durations.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = duration.copy()
    parent = np.asarray(parent)
    nested = parent >= 0
    np.subtract.at(own, parent[nested], duration[nested])
    return own


def span_name(fn: Callable) -> str:
    """``caralloc.core.evaluate_wsu`` -> ``core.evaluate_wsu``."""
    module = fn.__module__.split(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


class Rebinder:
    """Swaps traced functions for wrappers in every module that names them.

    ``functions`` maps each original function to the callable to time in
    its place (usually the function itself). Bindings are found once, by
    identity, so a function re-exported under several names in several
    modules is wrapped everywhere it can be looked up.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        modules: Iterable[types.ModuleType],
        functions: Dict[Callable, Callable],
    ):
        wrappers = {id(fn): recorder.wrap(span_name(fn), body) for fn, body in functions.items()}
        self.bindings = []
        for module in modules:
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.bindings.append((module, attr, value, wrapper))

    @contextmanager
    def active(self):
        """Wrappers in place inside the block, originals restored on exit."""
        try:
            for module, attr, _, wrapper in self.bindings:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original, _ in self.bindings:
                setattr(module, attr, original)
