"""In-memory span tracer that wraps functions where their callers look them up.

A span is (name, parent, start, end).  Spans are kept in memory and only
summarised or written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; in one thread spans
nest, so the children of a span cover disjoint parts of it.  The first dotted
component of a span name is its layer ("kernels.kernel_matrix" belongs to
"kernels").

Hooks that collect counts run in spans of their own named "trace.hook", so
their cost shows up as tracing overhead instead of inflating the self time of
the layer that called the traced function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        #: patch points ("module.attr") that were not found
        self.absent: list[str] = []
        #: span names with at least one installed patch point
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, before=None, after=None):
        """Traced version of fn.

        before(args, kwargs) -> (args, kwargs) may replace the arguments and
        runs outside every span; keep it cheap.  after(args, kwargs, result,
        exc) runs in a hook span once the call has returned or raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                if after is not None:
                    with tracer.span(HOOK_SPAN):
                        after(args, kwargs, None, exc)
                raise
            tracer.end(idx)
            if after is not None:
                with tracer.span(HOOK_SPAN):
                    after(args, kwargs, result, None)
            return result

        return traced

    # ---------------------------------------------------------- patching

    def patch(self, module_name: str, attr: str, name: str, before=None, after=None) -> bool:
        """Replace module.attr by a traced wrapper.  A module or attribute
        that does not exist is recorded as absent, never raised."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return False
        setattr(module, attr, self.wrap(original, name, before, after))
        self._patched.append((module, attr, original))
        self.present.add(name)
        return True

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # ---------------------------------------------------------- summary

    def summary(self) -> dict[str, list]:
        """span name -> [calls, total seconds, self seconds]."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write_csv(self, path) -> None:
        """All spans, one line each: index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")


def layer_self_times(summary: dict[str, list]) -> dict[str, float]:
    """Self seconds summed per layer (first dotted component of the name)."""
    out: dict[str, float] = {}
    for name, (_, _, self_s) in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out
