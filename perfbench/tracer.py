"""Outside-in span tracer for thermoscale.

``Tracer.install`` replaces every public function of the package's modules by
a wrapper that records a span, in every module that holds the function as an
attribute, because that attribute is how its callers look it up. It also
wraps each step of ``RngStream.generators``, where a trial's random stream is
positioned. Nothing under ``src/`` changes, and ``uninstall`` restores every
attribute.

Spans stay in memory. Per-name aggregates (calls, inclusive time, self time)
cover every span; the full span list (id, name, parent id, start, end) is kept
only while ``keep_spans`` is set, because one thermal-sweep campaign makes
about 3e5 spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter_ns

MODULES = ("thermal", "rng", "estimators", "interferometry", "sweep", "oracle", "cli")


class Tracer:
    def __init__(self) -> None:
        self.keep_spans = False
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, name index, parent id, start, end
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._calls: list[int] = []
        self._total_ns: list[int] = []
        self._self_ns: list[int] = []
        self._stack: list[list[int]] = []  # open spans: [id, start, time covered by children]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._total_ns.append(0)
            self._self_ns.append(0)
        return self._index[name]

    def _enter(self) -> list[int]:
        frame = [self._next_id, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, idx: int, frame: list[int]) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        self._calls[idx] += 1
        self._total_ns[idx] += duration
        self._self_ns[idx] += duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans:
            self.spans.append((frame[0], idx, parent[0] if parent else 0, frame[1], end))

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._name(name)
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(idx, frame)

    def _wrap(self, fn, name: str):
        idx, enter, exit_ = self._name(name), self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, frame)

        return wrapper

    def _wrap_generators(self, method):
        idx, enter, exit_, stack = self._name("rng.generators"), self._enter, self._exit, self._stack

        @functools.wraps(method)
        def generators(stream, count):
            inner = method(stream, count)
            while True:
                frame = enter()
                try:
                    gen = next(inner)
                except StopIteration:
                    stack.pop()  # the exhausting step positions no stream
                    return
                except BaseException:
                    exit_(idx, frame)
                    raise
                exit_(idx, frame)
                yield gen

        return generators

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every loaded thermoscale module, and stream positioning."""
        from thermoscale.rng import RngStream

        package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "thermoscale"]
        for short in MODULES:
            module = sys.modules.get(f"thermoscale.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if (short, attr) == ("cli", "main"):
                    continue  # the caller times main under the subcommand's name
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for holder in package:
                    if vars(holder).get(attr) is fn:
                        self._patch(holder, attr, wrapper)
        self._patch(RngStream, "generators", self._wrap_generators(RngStream.generators))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero the aggregates; kept spans stay."""
        for values in (self._calls, self._total_ns, self._self_ns):
            values[:] = [0] * len(values)

    def totals(self) -> dict[str, list[float]]:
        """``name -> [calls, inclusive seconds, self seconds]`` for every name seen since ``reset``."""
        return {
            name: [self._calls[i], self._total_ns[i] * 1e-9, self._self_ns[i] * 1e-9]
            for i, name in enumerate(self.names)
            if self._calls[i]
        }

    def span_rows(self) -> list[list]:
        return [[sid, self.names[idx], parent, start, end] for sid, idx, parent, start, end in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"totals": self.totals(), "spans": self.span_rows()}, handle)


def write_spans(rows, path: str) -> None:
    """Write span rows as CSV: id, name, parent id (0 for a root), start and end in ns."""
    with open(path, "w") as handle:
        handle.write("id,name,parent,start_ns,end_ns\n")
        for row in rows:
            handle.write(",".join(str(x) for x in row) + "\n")
