"""In-memory span tracing of lzwmetrics layers, from outside the package.

A :class:`Tracer` replaces functions at the module attribute their caller
looks up (``lzwmetrics.metrics.encode`` is what ``analyze`` calls), so the
package itself is unchanged.  Each call records a span (layer, start, end,
parent span, run id) and optional counts; spans stay in memory until the
benchmark ends.  A layer's self time is its span's duration minus the
durations of its child spans.

``_load_csv_series`` and ``_load_symbol_file`` are private names of
``lzwmetrics.cli``: their spans exist only while those names do.  A hook
whose target is missing is skipped and listed in :attr:`Tracer.missing`,
and its time then shows up as ``cli`` self time.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int


def _count_parse(counts, args, result):
    counts["parse.symbols"] += len(args[0])
    counts["parse.phrases"] += result.phrase_count


def _count_generate(counts, args, result):
    counts["generate.symbols"] += len(result)


def _count_csv(counts, args, result):
    counts["ingest.csv.rows"] += len(result)


def _count_symbols(counts, args, result):
    counts["ingest.symbols.symbols"] += len(result)


# (module, attribute, layer, count hook)
HOOKS = [
    ("lzwmetrics.cli", "main", "cli", None),
    ("lzwmetrics.cli", "analyze", "analyze", None),
    ("lzwmetrics.cli", "generate", "generate", _count_generate),
    ("lzwmetrics.cli", "binarize_median", "digitize", None),
    ("lzwmetrics.cli", "digitize_quantiles", "digitize", None),
    ("lzwmetrics.cli", "_load_csv_series", "ingest.csv", _count_csv),
    ("lzwmetrics.cli", "_load_symbol_file", "ingest.symbols", _count_symbols),
    ("lzwmetrics.cli", "emit_report", "serialize", None),
    ("lzwmetrics.metrics", "encode", "parse", _count_parse),
    ("lzwmetrics.metrics", "shuffle", "shuffle", None),
    ("lzwmetrics.metrics", "entropy_profile", "entropy", None),
]

LAYERS = sorted({layer for _, _, layer, _ in HOOKS})


class Tracer:
    """Records spans and counts for calls made while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[int, defaultdict[str, int]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = -1

    def _wrap(self, original, layer, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(layer, start, end, parent, self._run)
            if count is not None:
                count(self.counts[self._run], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace one run: wrap every hook, restore the originals on exit."""
        self._run += 1
        self.counts[self._run] = defaultdict(int)
        restore = []
        self.missing = []
        try:
            for module_name, attr, layer, count in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, layer, count))
                restore.append((module, attr, original))
            yield self._run
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def summary(self, run: int) -> dict:
        """Per-layer self time, call count and counts for one run."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run == run]
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, span in spans:
            self_s[span.layer] += span.end - span.start - child_time[i]
            calls[span.layer] += 1
        return {
            "self_s": {layer: self_s[layer] for layer in LAYERS},
            "calls": {layer: calls[layer] for layer in LAYERS},
            "counts": dict(self.counts[run]),
        }
