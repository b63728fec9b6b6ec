"""Span tracer that wraps hrrkit's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules,
and every public method of their public classes, with a wrapper that
records a span (id, parent, request, name, start, end) and a call count.
A function is patched under every name that refers to it in any loaded
`hrrkit` module, so calls made through `from .vsa import vsa_bind` and
through `core.bind` are both seen. `uninstall()` puts the original objects
back. Spans stay in memory; the caller writes them out when it is done.

Span names are `<module>.<function>`, and `<module>.<method>` for methods
(`labels.class_vectors` for `LabelSpace.class_vectors`). A request is one
top-level call (one `cli.main` invocation); its span id is the request id
of every span under it.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

Span = collections.namedtuple("Span", "id parent request name start end")


def self_times(spans):
    """Seconds per span name: each span's duration minus what its children cover.

    Children are the spans whose parent is the span. Their intervals are
    clipped to the parent's and merged first, so overlapping children are
    not subtracted twice.
    """
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals = collections.defaultdict(float)
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


class Tracer:
    """Records spans and counts for the public functions of `modules`.

    modules maps a short layer name to a module object. counters maps a
    span name to `fn(tracer, arguments, result, request) -> {key: amount}`,
    called after the span closes with the call's bound arguments; the
    amounts are added to `counts`. Counters may also add values to
    `distinct[key]`, a set per key, to count distinct items.
    """

    def __init__(self, modules, counters=None):
        self.modules = dict(modules)
        self.counters = dict(counters or {})
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self.distinct = collections.defaultdict(set)
        self._next_id = 0

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        functions, names = {}, set()

        def claim(name):
            if name in names:
                raise ValueError(f"two traced callables share the span name {name!r}")
            names.add(name)
            return name

        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = (obj, self._wrap(claim(f"{short}.{attr}"), obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (
                            not meth.startswith("_")
                            and inspect.isfunction(fn)
                            and not inspect.isgeneratorfunction(fn)
                        ):
                            self._patch(obj, meth, self._wrap(claim(f"{short}.{meth}"), fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hrrkit" or mod_name.startswith("hrrkit.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        counter = self.counters.get(name)
        signature = inspect.signature(fn) if counter else None
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent, request = self._stack[-1] if self._stack else (None, span_id)
            self._stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, request, name, start, end))
                self.counts[calls_key] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                self.counts.update(counter(self, bound.arguments, result, request))
            return result

        return traced
