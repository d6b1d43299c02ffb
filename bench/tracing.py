"""Per-layer tracing from outside the program.

The tracer replaces module-level names inside the zqforce modules with timing
wrappers, and puts the originals back afterwards. Each (module, name) binding
gets its own wrapper, so a call is attributed to the namespace it was looked
up in, and the identity test ``closure is ccr_closure`` inside
``zqforce.game`` still holds because both names resolve to the same wrapper
in that namespace.

Two kinds of wrapper:

* ``leaf``: hot kernels called up to millions of times per solve. Only a call
  count and total nanoseconds are kept; no span.
* ``span``: operation-level calls (solves, report rows, certificates, CLI
  runs). Each call also records a span with its parent span, kept in memory
  and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (defining module, function name) -> wrapper kind
TRACED = {
    ("graphs", "ccr_closure"): "leaf",
    ("graphs", "uncoloured_components"): "leaf",
    ("game", "psd_closure"): "leaf",
    ("game", "zq_number"): "span",
    ("game", "z_number"): "span",
    ("game", "z0_number"): "span",
    ("game", "zq_chain"): "span",
    ("families", "reproduce_report"): "span",
    ("threshold", "certificate_matrix"): "span",
    ("spectral", "inertia"): "span",
    ("spectral", "in_Sq"): "span",
    ("spectral", "book_certificate"): "span",
    ("spectral", "kneser_certificate"): "span",
    ("spectral", "bipartite_prism_certificate"): "span",
    ("spectral", "srg_certificate"): "span",
    ("contraction", "bipartite_contraction"): "span",
    ("cli", "run"): "span",
}


class Tracer:
    def __init__(self):
        # name -> [calls, total ns, ns spent in wrapped callees]
        self.stats: dict[str, list[int]] = {f"{mod}.{fn}": [0, 0, 0] for mod, fn in TRACED}
        self.frames = [0]  # callee-time accumulator per open span
        self.span_stack: list[int | None] = [None]
        self.spans: list[dict] = []
        self.states = 0
        self.memo_hits = 0

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, fn, stat):
        frames = self.frames
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t = clock()
            out = fn(*args, **kwargs)
            d = clock() - t
            stat[0] += 1
            stat[1] += d
            frames[-1] += d
            return out

        return wrapper

    def _span(self, fn, stat, name, caller):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open_span(name, caller=caller)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                child = tracer.close_span(span)
                stat[0] += 1
                stat[1] += span["end_ns"] - span["start_ns"]
                stat[2] += child
            stats = getattr(out, "cache_stats", None)
            if stats is not None:
                tracer.states += stats.states
                tracer.memo_hits += stats.hits
                span["states"] = stats.states
            return out

        return wrapper

    # -- spans ------------------------------------------------------------

    def open_span(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans) + 1, "parent": self.span_stack[-1], "name": name, **attrs}
        self.spans.append(span)
        self.span_stack.append(span["id"])
        self.frames.append(0)
        span["start_ns"] = time.perf_counter_ns()
        return span

    def close_span(self, span: dict) -> int:
        """End ``span``; return the time its wrapped callees took."""
        span["end_ns"] = time.perf_counter_ns()
        self.span_stack.pop()
        child = self.frames.pop()
        self.frames[-1] += span["end_ns"] - span["start_ns"]
        return child

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding of a traced function in the loaded zqforce modules."""
        originals = {}
        for mod, fn in TRACED:
            module = sys.modules.get(f"zqforce.{mod}")
            if module is not None:
                originals[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "zqforce" or name.startswith("zqforce."))]
        replaced = []
        for module in modules:
            caller = module.__name__.removeprefix("zqforce.")
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, fn = hit
                kind = TRACED[tuple(name.split("."))]
                stat = self.stats[name]
                if kind == "leaf":
                    wrapper = self._leaf(fn, stat)
                else:
                    wrapper = self._span(fn, stat, name, caller)
                setattr(module, attr, wrapper)
                replaced.append((module, attr, fn))
        try:
            yield self
        finally:
            for module, attr, fn in replaced:
                setattr(module, attr, fn)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
