"""In-memory spans around calls into anibound's layers, recorded from outside.

The tracer replaces a public function by a timing wrapper in every anibound
module that holds it, because callers import names directly (cli imports
solve, write_gridfn and read_gridfn; minimize and inequalities each import
energy), and patching only the defining module would miss those calls. A
name that no longer exists is skipped, so its metrics go absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Spans as [name, start, end, parent index, problem], kept in memory."""

    def __init__(self):
        self.spans = []
        self.problem = None  # set by the caller before each command
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.problem]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, layers, package="anibound") -> set:
        """Wrap each (span name, module, function) in every module of the package
        that holds it; return the span names that were wrapped."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        wrapped = set()
        for name, module, attr in layers:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, traced)
            wrapped.add(name)
        return wrapped

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def summary(self) -> dict:
        """name -> [calls, total seconds, self seconds]; self time is the
        duration minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child
        return out

    def dump(self, path, meta) -> None:
        keys = ("name", "start", "end", "parent", "problem")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
