"""Span tracing of qkad's layers from outside the package.

A :class:`Tracer` replaces public functions at the module binding their
caller looks up (``qkad.kernel.apply_local`` rather than
``qkad.statevec.apply_local``, because ``kernel`` imported the name) with a
wrapper that records a span: name, start, end and the enclosing span.
Spans stay in memory; :meth:`Tracer.restore` puts every original back.

Per-layer numbers come from spans by self time: a span's duration minus the
part of it that its child spans cover.  Counters read the wrapped calls'
arguments and results (shots drawn, kernel evaluations, solver iterations).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute, span name).  The module is the one whose globals the
# caller resolves the name in; several bindings may share one span name.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("qkad.cli", "run_experiment", "cli.run_experiment"),
    ("qkad.data", "load_fraud_csv", "data.load_fraud_csv"),
    ("qkad.data", "make_split", "data.split"),
    ("qkad.data", "generate_synthetic", "data.split"),
    ("qkad.pipeline", "fit_preprocess", "pipeline.preprocess"),
    ("qkad.pipeline", "apply_preprocess", "pipeline.preprocess"),
    ("qkad.kernel", "encode_iqp", "statevec.encode"),
    ("qkad.kernel", "apply_local", "statevec.rotate"),
    ("qkad.kernel", "born_counts", "statevec.sample"),
    ("qkad.kernel", "collect_signature", "kernel.signature"),
    ("qkad.kernel", "rm_purity", "kernel.purity"),
    ("qkad.cli", "build_gram_train", "kernel.gram_train"),
    ("qkad.ensemble", "build_gram_train", "kernel.gram_train"),
    ("qkad.cli", "build_gram_cross", "kernel.gram_cross"),
    ("qkad.ensemble", "build_gram_cross", "kernel.gram_cross"),
    ("qkad.ocsvm", "fit", "ocsvm.fit"),
    ("qkad.ocsvm", "decision_scores", "ocsvm.score"),
    ("qkad.cli", "fit_vs", "ensemble.fit"),
    ("qkad.cli", "score_vs", "ensemble.score"),
    ("qkad.cli", "confusion", "metrics"),
    ("qkad.cli", "precision_recall", "metrics"),
    ("qkad.cli", "f1", "metrics"),
    ("qkad.cli", "average_precision", "metrics"),
)


def _shots(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"statevec.shots": int(kwargs.get("shots", args[1] if len(args) > 1 else 0))}


def _gram_evals(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    gram = result[0] if isinstance(result, tuple) else result
    return {"kernel.evals": int(gram.eval_count)}


def _solver(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {
        "ocsvm.iterations": int(result.iterations),
        "ocsvm.unconverged": int(not result.converged),
    }


def _components(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"ensemble.components": len(result.components)}


COUNTERS: dict[str, Callable[[tuple, dict, Any], dict[str, int]]] = {
    "statevec.sample": _shots,
    "kernel.gram_train": _gram_evals,
    "kernel.gram_cross": _gram_evals,
    "ocsvm.fit": _solver,
    "ensemble.fit": _components,
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Records spans around the functions named in :data:`BINDINGS`."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _originals: list[tuple[Any, str, Any]] = field(default_factory=list)
    _installed: bool = False

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._originals.clear()
        for module_name, attr, span_name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        self._installed = True

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._installed = False

    def is_restored(self) -> bool:
        """True when every wrapped binding holds its original function again."""
        return not self._installed and all(
            getattr(module, attr) is original for module, attr, original in self._originals
        )

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else -1, time.perf_counter()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return table
