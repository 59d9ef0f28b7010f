"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each public function of the layers below at
every module binding it is reached through (``compose`` is bound both as
``families.compose`` and ``verify.compose``; ``Poset.down_set`` is a
method), and ``uninstall`` puts the original objects back.  A wrapper
records calls and self time, the span's duration minus the part of it
covered by timed child spans, aggregated per span name in memory.  Raw
spans (operation id, name, parent span, start, end) are kept only on
request, because ``verify-all`` makes about 10^7 layer calls.
"""

from __future__ import annotations

import inspect
import sys
import time

#: Module -> traced functions; ``Class.method`` names a method.
LAYERS = {
    "poset": ("Poset.down_set", "Poset.up_set", "Poset.is_chain"),
    "tuples": ("prune_upward", "prune_downward", "prune_to_threads",
               "prune_to_threads_direct", "collapse", "canonical"),
    "families": ("threads", "thread_sets", "minimize", "compose",
                 "chains_meeting"),
    "classify": ("normal_form", "shape_of", "classify_dim1", "classify_dim2",
                 "form_instances"),
    "serialize": ("tuple_to_lists", "poset_to_dict", "load_poset",
                  "tuple_from_lists", "dumps"),
    "cli": ("main", "build_parser"),
    "catalog": ("catalog",),
    # spans that only delimit verify's own time and the associativity check
    "verify": ("run_suite", "_associativity"),
}

ASSOCIATIVITY = "verify._associativity"


def span_names() -> list[str]:
    return [f"{module}.{qual.rsplit('.', 1)[-1]}"
            for module, quals in LAYERS.items() for qual in quals]


class Tracer:
    SPAN_CAP = 200_000  # raw spans kept at most; the rest are counted

    def __init__(self, package: str = "threadsets", keep_spans: bool = False):
        self.package = package
        self.stats = {name: [0, 0.0] for name in span_names()}
        self.threads_yielded = 0
        self.minimize_offered = 0
        self.minimize_kept = 0
        self.compose_in_associativity = 0
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.op: int | None = None  # id of the operation being run
        self._stack: list[list] = []  # [name, child seconds, span index]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation

    def targets(self) -> list[tuple[str, object, str]]:
        """(span name, owner, attribute) of every traced definition."""
        out = []
        for module, quals in LAYERS.items():
            mod = sys.modules[f"{self.package}.{module}"]
            for qual in quals:
                owner, attr = mod, qual
                if "." in qual:
                    cls, attr = qual.split(".")
                    owner = getattr(mod, cls)
                out.append((f"{module}.{attr}", owner, attr))
        return out

    def bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every binding a wrapper replaces."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        out = []
        for _, owner, attr in self.targets():
            original = vars(owner)[attr]
            if isinstance(owner, type):
                out.append((owner, attr, original))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        out.append((mod, name, original))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span, owner, attr in self.targets():
            original = vars(owner)[attr]
            wrappers[id(original)] = self._wrap(span, original)
        for owner, attr, original in self.bindings():
            setattr(owner, attr, wrappers[id(original)])
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def absorb(self, seconds: float) -> None:
        """Count time spent outside the program, e.g. a kernel sample taken
        from a signal handler, as a child of the open span."""
        if self._stack:
            self._stack[-1][1] += seconds

    # -- wrappers

    def _open(self, name: str, start: float) -> list:
        index = None
        if self.keep_spans:
            if len(self.spans) < self.SPAN_CAP:
                parent = self._stack[-1][2] if self._stack else None
                index = len(self.spans)
                self.spans.append([self.op, name, parent, start, start])
            else:
                self.spans_dropped += 1
        entry = [name, 0.0, index]
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, stat: list, start: float,
               count: bool = True) -> None:
        end = time.perf_counter()
        duration = end - start
        self._stack.pop()
        stat[0] += count
        stat[1] += duration - entry[1]
        if self._stack:
            self._stack[-1][1] += duration
        if entry[2] is not None:
            self.spans[entry[2]][4] = end

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stat = self.stats[name]
        clock = time.perf_counter
        tracer = self
        is_compose = name == "families.compose"
        is_minimize = name == "families.minimize"

        def traced(*args, **kwargs):
            if is_compose and tracer._stack \
                    and tracer._stack[-1][0] == ASSOCIATIVITY:
                tracer.compose_in_associativity += 1
            if is_minimize:
                args = (set(args[0]),) + args[1:]
                tracer.minimize_offered += len(args[0])
            start = clock()
            entry = tracer._open(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(entry, stat, start)
            if is_minimize:
                tracer.minimize_kept += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        """Time each resumption of the generator; count the items it yields.

        One call is one enumeration.  Its raw span runs from the first
        resumption to the end of the last; its self time is the sum over
        the resumptions, so the consumer's work in between is not counted.
        """
        stat = self.stats[name]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            stat[0] += 1
            index = None
            first = True
            while True:
                start = clock()
                if first:
                    entry = tracer._open(name, start)
                    index, first = entry[2], False
                else:
                    entry = [name, 0.0, index]
                    tracer._stack.append(entry)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(entry, stat, start, count=False)
                tracer.threads_yielded += 1
                yield item

        traced.__wrapped__ = fn
        return traced
