"""In-memory span tracer for the benchmark's traced repetitions.

The tracer wraps fetsim functions from outside the package.  A function
is wrapped once, and the wrapper replaces every module attribute that is
bound to the original: the defining module and each module that took it
with ``from ... import``.  So every call path into the function is seen.

Each call records a span (name, parent span, start, end) in flat arrays
that stay in memory until ``save`` writes them out.  Per span name the
tracer also sums calls, total time and self time, where self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        # One [span index, time covered by child spans] frame per open span.
        self._stack: list[list[int]] = []

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = self.total_ns[name] = self.self_ns[name] = 0
        return name_id

    def wrap(self, fn, name, counter=None):
        """Return ``fn`` recording one span per call.

        ``name`` is the span name, or a callable that maps the call's
        arguments to one.  ``counter`` is an optional pair
        ``(counter_name, amount_fn)``; ``amount_fn`` maps the call's
        arguments to an amount added to that counter.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if counter is not None:
                key, amount = counter
                self.counters[key] = self.counters.get(key, 0) + amount(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(self._name_id(label))
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[index] = end
                if stack:
                    stack[-1][1] += duration
                self.calls[label] += 1
                self.total_ns[label] += duration
                self.self_ns[label] += duration - frame[1]

        return traced

    def instrument(self, package: str, targets) -> list[str]:
        """Wrap each ``(module, attr, name, counter)`` target of ``package``.

        Returns the ``module.attr`` targets that do not exist, so a
        caller can report them instead of failing.
        """
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        missing = []
        for module_name, attr, name, counter in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    def save(self, path) -> None:
        """Write every span and the name table to a compressed ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
