"""Span tracing of the diffchar package from outside its source.

`install` wraps the public functions and methods of every traced module and
rebinds every reference to them in every loaded ``diffchar.*`` module (module
globals, module-level tables and class attributes), then checks that no
reference to an unwrapped original is left.  Each call of a wrapped function
records one span: name, start, end, parent span and operation id.  Spans are
kept in flat arrays in memory and written out once, when the run ends.

A span's duration excludes time the tracer spends on its own statistics
(the SNF shape and coefficient scan), so those scans do not inflate any
layer.  Self time is duration minus the durations of the direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

# Traced modules; the short module name is the layer name.
LAYERS = (
    "exact_linalg",
    "simplicial",
    "cochain",
    "characters",
    "products",
    "fiber_integration",
    "relative",
    "holonomy",
    "fixtures",
    "io",
    "cli",
)

# O(1) lookups called inside inner loops.  Tracing them would only measure
# the tracer; their time stays with the calling span.
SKIP = frozenset(
    {
        "exact_linalg.IntMatrix.entry",
        "simplicial.Complex.simplices",
        "simplicial.Complex.has_simplex",
        "simplicial.Complex.index_of",
        "simplicial.ProductComplex.encode",
        "simplicial.ProductComplex.decode",
        "simplicial.SimplicialMap.push_simplex",
        "cochain.Cochain.value",
    }
)

# Special methods that do real work and are traced like public methods.
DUNDERS = frozenset({"__init__", "__eq__", "__add__", "__sub__", "__neg__", "__mul__"})

_ARRAYS = (("name", "i"), ("start", "d"), ("end", "d"), ("excluded", "d"),
           ("parent", "i"), ("op", "i"))


class CoverageError(RuntimeError):
    """Some loaded module still refers to an unwrapped original."""


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        for field, code in _ARRAYS:
            setattr(self, field, array(code))
        self.stack = [-1]
        self.op_id = -1
        self.enabled = False
        self.excluded_total = 0.0
        # One (cells, nonzeros, max entry bits) triple per SNF call.
        self.snf = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, stat=None):
        nid = self.name_id(name)
        t = self
        names, starts, ends, excl, parents, ops = (
            self.name, self.start, self.end, self.excluded, self.parent, self.op
        )
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not t.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(t.op_id)
            starts.append(0.0)
            ends.append(0.0)
            excl.append(t.excluded_total)
            stack.append(idx)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish = perf_counter()
                stack.pop()
                starts[idx] = begin
                ends[idx] = finish
                excl[idx] = t.excluded_total - excl[idx]
            if stat is not None:
                s0 = perf_counter()
                stat(t, args, result)
                t.excluded_total += perf_counter() - s0
            return result

        return traced

    # -- persistence -----------------------------------------------------

    def dump(self, path, header=None):
        """Write all spans: a JSON header line, then the raw arrays."""
        head = dict(header or {})
        head.update(names=self.names, snf=self.snf, count=len(self))
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for field, _ in _ARRAYS:
                fh.write(getattr(self, field).tobytes())

    def merge_file(self, path, op_id):
        """Append the spans of a dump (a child process) under one op id."""
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as fh:
            head = json.loads(fh.readline())
            count = head["count"]
            cols = {}
            for field, code in _ARRAYS:
                arr = array(code)
                arr.frombytes(fh.read(count * arr.itemsize))
                cols[field] = arr
        remap = [self.name_id(n) for n in head["names"]]
        base = len(self)
        for i in range(count):
            self.name.append(remap[cols["name"][i]])
            self.start.append(cols["start"][i])
            self.end.append(cols["end"][i])
            self.excluded.append(cols["excluded"][i])
            p = cols["parent"][i]
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(op_id)
        self.snf.extend(tuple(r) for r in head["snf"])
        return head

    # -- analysis --------------------------------------------------------

    def analyse(self, groups):
        """Per-span totals and outermost time per group of span names.

        Returns a dict with, per name: calls, time (sum of durations), self;
        per group: time of spans not nested in another span of the group,
        and the number of spans that had no child span.
        """
        n = len(self)
        dur = [self.end[i] - self.start[i] - self.excluded[i] for i in range(n)]
        child = [0.0] * n
        has_child = bytearray(n)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                has_child[p] = 1
        bits_of_name = [0] * len(self.names)
        for g, members in enumerate(groups.values()):
            for name in members:
                nid = self._ids.get(name)
                if nid is not None:
                    bits_of_name[nid] |= 1 << g
        ancestors = [0] * n
        keys = list(groups)
        group_time = [0.0] * len(keys)
        group_leaf = [0] * len(keys)
        group_calls = [0] * len(keys)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        selft = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            nid = name[i]
            p = parent[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | bits_of_name[name[p]]
            calls[nid] += 1
            total[nid] += dur[i]
            selft[nid] += dur[i] - child[i]
            bits = bits_of_name[nid]
            if bits:
                outer = bits & ~ancestors[i]
                g = 0
                while bits >> g:
                    if (bits >> g) & 1:
                        group_calls[g] += 1
                        if not has_child[i]:
                            group_leaf[g] += 1
                        if (outer >> g) & 1:
                            group_time[g] += dur[i]
                    g += 1
        return {
            "names": {
                self.names[k]: {"calls": calls[k], "time": total[k], "self": selft[k]}
                for k in range(len(self.names))
                if calls[k]
            },
            "groups": {
                key: {"time": group_time[g], "calls": group_calls[g], "leaf": group_leaf[g]}
                for g, key in enumerate(keys)
            },
        }


def _snf_stat(tracer, args, result):
    A = args[0]
    nnz = sum(1 for row in A.data for x in row if x)
    bits = 0
    for M in (result.D, result.U, result.V, result.u_inv, result.v_inv):
        for row in M.data:
            for x in row:
                if x:
                    b = (x if x > 0 else -x).bit_length()
                    if b > bits:
                        bits = b
    tracer.snf.append((A.rows * A.cols, nnz, bits))


STATS = {"exact_linalg.smith_normal_form": _snf_stat}


def _diffchar_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "diffchar" or name.startswith("diffchar."))
    ]


def _is_plain_function(obj, module_name):
    return (
        (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
        and getattr(obj, "__module__", None) == module_name
        and not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj))
    )


def _targets(module):
    """(owner, attribute, callable, span name, kind) for each traced callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    seen = set()
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or id(obj) in seen:
            continue
        if inspect.isclass(obj):
            if obj.__module__ != module.__name__ or issubclass(obj, BaseException):
                continue
            seen.add(id(obj))
            for member_name, member in list(vars(obj).items()):
                if member_name.startswith("_") and member_name not in DUNDERS:
                    continue
                kind = "method"
                func = member
                if isinstance(member, (classmethod, staticmethod)):
                    kind = type(member).__name__
                    func = member.__func__
                if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                    continue
                span = f"{layer}.{obj.__qualname__}.{member_name}"
                if span not in SKIP:
                    yield obj, member_name, func, span, kind
        elif _is_plain_function(obj, module.__name__):
            seen.add(id(obj))
            span = f"{layer}.{obj.__name__}"
            if span not in SKIP:
                yield module, attr, obj, span, "function"


def install(tracer):
    """Wrap every traced callable and rebind every reference to it.

    Raises CoverageError when a reference to an original survives in any
    loaded diffchar module.
    """
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _diffchar_modules()}
    replacement = {}
    for layer in LAYERS:
        module = modules.get(layer)
        if module is None:
            continue
        for owner, attr, func, span, kind in list(_targets(module)):
            if id(func) in replacement:
                continue
            wrapped = tracer.wrap(func, span, STATS.get(span))
            replacement[id(func)] = wrapped
            if kind == "classmethod":
                setattr(owner, attr, classmethod(wrapped))
            elif kind == "staticmethod":
                setattr(owner, attr, staticmethod(wrapped))
            else:
                setattr(owner, attr, wrapped)
    for _, container, key, value in list(_references()):
        if id(value) in replacement and isinstance(container, (dict, list)):
            container[key] = replacement[id(value)]
    leftovers = sorted({where for where, _, _, value in _references()
                        if id(value) in replacement})
    if leftovers:
        raise CoverageError("unwrapped references remain: " + ", ".join(leftovers))


def _references():
    """(where, container, key, value) for each reference a diffchar module holds.

    Covers module globals, the items of module-level dicts, lists and tuples,
    class attributes and default argument values; `container` is None where
    the reference cannot be rebound by item assignment.
    """
    for module in _diffchar_modules():
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            where = f"{module.__name__}.{attr}"
            yield where, namespace, attr, value
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    yield f"{where}[{key!r}]", value, key, item
            elif isinstance(value, (list, tuple)):
                for k, item in enumerate(value):
                    yield f"{where}[{k}]", value, k, item
            elif inspect.isclass(value) and value.__module__.startswith("diffchar"):
                for member_name, member in vars(value).items():
                    yield (f"{where}.{member_name}", None, member_name,
                           getattr(member, "__func__", member))
            if inspect.isfunction(value):
                for default in value.__defaults__ or ():
                    yield f"{where} default", None, None, default
