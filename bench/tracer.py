"""Outside-in tracer for exactla: spans and counters recorded by wrapping the
package's functions from the benchmark's side, without editing the package.

Every public function defined in an exactla submodule is wrapped in a span
named `<module>.<function>`, and every binding of it is patched, aliases
included (`rank._charpoly` is `charpoly.charpoly`, `cli.solve` is
`rank.solve`, ...).  Modules are taken from sys.modules, because the package
re-exports `rank` and `charpoly`, which shadow the submodules of those names.
`numpy.convolve` is wrapped as the span `rank.np_convolve`.  A few hot
methods get counters instead of spans, so the trace stays small.

Spans live in memory as flat arrays (parent id, query id, name id, start and
end in ns) and are written once, by `save`; `uninstall` restores every
original binding.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, class, method, span name): methods wrapped in spans
SPAN_METHODS = (("exactla.matrix", "Matrix", "mul", "matrix.matmul"),)

# (module, class, method, counter name): methods only counted
COUNT_METHODS = (
    ("exactla.field", "Rationals", "mul", "field.mul"),
    ("exactla.field", "PrimeField", "mul", "field.mul"),
) + tuple(("exactla.ratfunc", "RationalFunctionField", op, "ratfunc.field_ops")
          for op in ("add", "neg", "mul", "inv"))

ROOT_SPAN = "bench.query"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "exactla" or name.startswith("exactla."))]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.query = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = {}
        self.query_id = -1
        self._stack = [-1]
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, fn, name):
        nid = self._name_id(name)
        parent, query, names = self.parent, self.query, self.name
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            query.append(tracer.query_id)
            names.append(nid)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_query(self, query_id, call):
        """Run one query under a root span that its spans share an id with."""
        self.query_id = query_id
        try:
            return self.span_wrapper(call, ROOT_SPAN)()
        finally:
            self.query_id = -1

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = _package_modules()
        wrapped = {}
        for mod in modules:
            if mod.__name__ == "exactla":
                continue
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self.span_wrapper(obj, f"{layer}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for modname, cls, meth, name in SPAN_METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._patch(owner, meth, self.span_wrapper(vars(owner)[meth], name))
        for modname, cls, meth, name in COUNT_METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._patch(owner, meth, self._count_wrapper(vars(owner)[meth], name))
        self._patch(np, "convolve", self.span_wrapper(np.convolve, "rank.np_convolve"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def _columns(self):
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64)
                for key in ("parent", "query", "name", "start", "end")}

    def summary(self):
        """{span name: (calls, self ms)} and {counter name: calls}.  Self time
        is a span's duration minus the durations of its child spans."""
        col = self._columns()
        dur = (col["end"] - col["start"]).astype(np.float64)
        inner = col["parent"] >= 0
        child = np.bincount(col["parent"][inner], weights=dur[inner], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(col["name"], minlength=k)
        self_ns = np.bincount(col["name"], weights=dur - child, minlength=k)
        spans = {n: (int(calls[i]), float(self_ns[i]) / 1e6) for i, n in enumerate(self.names)}
        return spans, {n: cell[0] for n, cell in self.counts.items()}

    def save(self, path):
        """Write every span, with the span-name table and the counters."""
        _, counters = self.summary()
        np.savez_compressed(path, names=np.array(self.names),
                            counter_names=np.array(sorted(counters)),
                            counter_calls=np.array([counters[n] for n in sorted(counters)]),
                            **self._columns())
