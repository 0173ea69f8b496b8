"""Span tracing of rosterstat's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module with
a wrapper, at every name that binds it: the defining module, the package
namespace, and each rosterstat module that imported it by name (for example
``frequentist.hypergeom_tail`` and ``report.hypergeom_tail`` as well as
``distributions.hypergeom_tail``). ``uninstall`` puts the originals back.

A span is opened when a call enters a layer from outside it. A call made
from inside the same layer (``hypergeom_tail`` calling ``hypergeom_pmf``)
runs straight through, so a layer's ``calls`` count entries into it. Spans
are kept in memory as tuples and written out once, when the run ends.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

LAYERS = ("distributions", "frequentist", "poisson_model", "bayes", "risk_sim",
          "case", "report", "cli")

# span tuple fields
SPAN_FIELDS = ("id", "parent", "op", "layer", "name", "start", "end")


def _support_points(name: str, args: tuple, kwargs: dict) -> int:
    """Support points a distributions call sums over, from its arguments."""
    a = list(args) + list(kwargs.values())
    if name == "hypergeom_tail":
        n, r, k, x_min = a[:4]
        lo, hi = max(0, k - (n - r)), min(r, k)
        return hi - x_min + 1 if lo < x_min <= hi else 0
    if name == "hypergeom_dist":
        n, r, k = a[:3]
        return min(r, k) - max(0, k - (n - r)) + 1
    if name == "binomial_tail":
        trials, p, x_min = a[:3]
        return trials - x_min + 1 if 0 < x_min <= trials and 0.0 < p < 1.0 else 0
    if name == "chi2_survival_even":
        return a[1] // 2
    if name == "convolve_tail":
        return len(a[0].probabilities) + len(a[1].probabilities)
    if name == "log_binomial":
        n, k = a[:2]
        return min(k, n - k) if 0 <= k <= n else 0
    return 1  # hypergeom_pmf, poisson_pmf: one point


def _work(layer: str, name: str, args: tuple, kwargs: dict) -> tuple[str, int] | None:
    """The work counter a call adds to, computed from its arguments."""
    if layer == "distributions":
        return "distributions.support_points", _support_points(name, args, kwargs)
    if layer == "risk_sim" and name == "simulate_max_rr":
        cfg = args[0] if args else kwargs["cfg"]
        return "risk_sim.draws", cfg.replicates * cfg.nurse_count
    if layer == "case" and name == "parse_case":
        text = args[0] if args else kwargs["text"]
        size = len(text) if isinstance(text, bytes) else len(text.encode("utf-8"))
        return "case.parse_bytes", size
    return None


class Tracer:
    """Records spans for calls that cross into a rosterstat layer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []  # (span id, layer)
        self._next_id = 0
        self._thread = threading.get_ident()
        self._bindings: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, layer: str, name: str) -> tuple:
        """Start a span; pass the returned token to ``close``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, layer))
        return span_id, parent, layer, name, perf_counter()

    def close(self, token: tuple) -> None:
        end = perf_counter()
        span_id, parent, layer, name, start = token
        self._stack.pop()
        self.spans.append((span_id, parent, self.op_id, layer, name, start, end))

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def adopt_file(self, path: str) -> None:
        """Attach a child process's dumped spans under the open span.

        ``perf_counter`` reads the system-wide monotonic clock, so a child's
        span times nest inside the parent span that waited for it.
        """
        spans, counters = load(path)
        offset = self._next_id
        self._next_id += len(spans)
        parent = self._stack[-1][0] if self._stack else None
        for span_id, span_parent, _, layer, name, start, end in spans:
            self.spans.append((span_id + offset,
                               parent if span_parent is None else span_parent + offset,
                               self.op_id, layer, name, start, end))
        for counter, amount in counters.items():
            self.add(counter, amount)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, layer: str):
        name = fn.__name__
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if (stack and stack[-1][1] == layer) or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            work = _work(layer, name, args, kwargs)
            if work is not None:
                tracer.add(*work)
            token = tracer.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(token)

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def install(self) -> None:
        """Wrap each layer's public functions at every binding in rosterstat."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rosterstat.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer)
        modules = [m for key, m in sys.modules.items()
                   if key == "rosterstat" or key.startswith("rosterstat.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def dump(self, path: str) -> None:
        """Write spans (one JSON object per line) and counters to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def load(path: str) -> tuple[list[tuple], dict[str, int]]:
    """Read back what ``Tracer.dump`` wrote."""
    with open(path, encoding="utf-8") as src:
        counters = json.loads(src.readline())["counters"]
        spans = [tuple(json.loads(line)[f] for f in SPAN_FIELDS) for line in src]
    return spans, counters


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[5], span[6]))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span[5]
        for start, end in sorted(children.get(span[0], ())):
            start = max(start, reach)
            end = min(end, span[6])
            if end > start:
                covered += end - start
                reach = end
        result[span[0]] = (span[6] - span[5]) - covered
    return result
