"""In-memory span tracer for the library's public functions.

The tracer replaces every public function of the traced modules at its
module attribute, including names a module re-imports from another (for
example ``calibration.rotation_to_matrix``), with a wrapper that records one
span per call: name, start, end and the index of the enclosing span. Spans
are named after the defining module, so a call through any alias lands under
one name. Private helpers are not wrapped; their time counts toward the
public caller's self time.

Spans live in flat arrays until the run ends, then go to one ``.npz`` file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("core", "distortion", "undistortion", "calibration", "dataio", "cli")


class Tracer:
    """Wraps the public functions of ``LAYERS`` and records spans."""

    package = "radialcal"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        # Counts read from return values at a span boundary.
        self.counts: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.name_id)

    def _observe_refine(self, result) -> None:
        c = self.counts
        c["refine_evaluations"] = c.get("refine_evaluations", 0) + result.evaluations
        c["refine_iterations"] = c.get("refine_iterations", 0) + result.iterations

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, ids, st, en, par = (
            self._stack, self.name_id, self.start, self.end, self.parent
        )
        observe = self._observe_refine if name == "calibration.refine" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            par.append(stack[-1] if stack else -1)
            en.append(0.0)
            stack.append(idx)
            st.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                en[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def install(self) -> None:
        prefix = self.package + "."
        for layer in LAYERS:
            mod = importlib.import_module(prefix + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith(prefix) or home[len(prefix):] not in LAYERS:
                    continue
                if obj not in self._wrappers:
                    name = f"{home[len(prefix):]}.{obj.__name__}"
                    self._wrappers[obj] = self._wrap(name, obj)
                setattr(mod, attr, self._wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        if not len(self):
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32),
            weights=dur - child,
            minlength=len(self.names),
        )
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32), minlength=len(self.names)
        )
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
