"""Spans around every call into the package's public functions and methods.

``install`` wraps each public function of the eight layer modules, the
public methods and arithmetic operators of their classes, and every
``from .x import f`` copy of a wrapped function in another module, so a
call is recorded whichever name it goes through.  A span is (name, start,
end, parent span, query); the first spans of a run, up to a cap, are kept
in memory and written out when the run ends.  Call counts and self time
(span duration minus the time covered by child spans) are accumulated for
every span, kept or not.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("nadic", "sequences", "multiplier", "ktheory", "classify", "oracle", "codec", "cli")

#: Operators wrapped alongside public methods.
OPERATORS = frozenset(
    ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__", "__pow__", "__eq__", "__call__")
)


class Tracer:
    """Keeps the first ``span_cap`` spans; later spans only feed the totals."""

    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.active = False
        self.names = []
        self.calls = []
        self.self_ns = []
        self.stack = []  # frames [span id, ns covered by child spans]
        self.next_span = 0
        self.query = -1
        self.spans = []

    def name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def wrap(self, name, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += took - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += took
                    parent = stack[-1][0]
                if sid < tracer.span_cap:
                    tracer.spans.append((sid, parent, tracer.query, nid, start, end))

        return traced

    def totals(self):
        """{name: [calls, self ns]} for every name that was called."""
        out = {}
        for name, calls, self_ns in zip(self.names, self.calls, self.self_ns):
            if calls:
                got = out.setdefault(name, [0, 0])
                got[0] += calls
                got[1] += self_ns
        return out

    def span_lines(self):
        for sid, parent, query, nid, start, end in self.spans:
            yield "%d\t%d\t%d\t%s\t%d\t%d\n" % (sid, parent, query, self.names[nid], start, end)


def _methods(cls):
    for attr, member in vars(cls).items():
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        if isinstance(member, (classmethod, staticmethod)):
            yield attr, member, type(member), member.__func__
        elif inspect.isfunction(member):
            yield attr, member, None, member


def install(tracer):
    """Wrap the layers of ncsolenoid in place.

    Returns the patches as (owner, attribute, original, wrapped), so that
    ``bind`` can put either binding back.
    """
    root = importlib.import_module("ncsolenoid")
    modules = {layer: importlib.import_module("ncsolenoid." + layer) for layer in LAYERS}
    patches, replaced = [], {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = (obj, tracer.wrap("%s.%s" % (layer, attr), obj))
            elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                for name, member, kind, fn in list(_methods(obj)):
                    wrapped = tracer.wrap("%s.%s.%s" % (layer, obj.__name__, name), fn)
                    patches.append((obj, name, member, kind(wrapped) if kind else wrapped))
    for module in (root, *modules.values()):
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((module, attr, obj, hit[1]))
    bind(patches, True)
    return patches


def bind(patches, wrapped):
    """Put the wrapped bindings in place, or the original ones."""
    for owner, attr, original, new in patches:
        setattr(owner, attr, new if wrapped else original)
