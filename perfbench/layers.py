"""Outside-in layer timing for the traced benchmark run.

The program has a tracer of its own (``repro.obs``); this module does not
use it. It times calls into each layer's public functions from outside:
for the traced phase it replaces module and class attributes with timing
wrappers, and puts the originals back afterwards. Spans stay in memory
and are reduced when the run ends.

Every span knows the time its nested spans covered, so a layer's *self*
time is its duration minus its children. The benchmark opens a root span
around each operation (a model step or a request); the root's own self
time is the residual that no wrapped layer accounts for, so per operation

    sum(layer self times) + residual == operation wall-clock

holds by construction. What can go wrong is attribution: a wrapped call
made outside every root (on another thread, whose span stack is its own,
or between operations) is timed but belongs to no operation, and the
operation's share of it hides in the residual.
:meth:`LayerTracer.unattributed` lists such spans.

Wrappers only record in the process that installed them: process-rank
workers forked while wrappers are installed call straight through to the
originals, because their spans could not reach the main process.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

_MISSING = object()


@dataclass
class Span:
    layer: str
    start: float
    end: float
    #: Seconds covered by directly nested spans.
    child: float = 0.0
    #: Index of the enclosing root span (-1 outside any root).
    root: int = -1
    counts: dict[str, float] = field(default_factory=dict)
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.attr`` is timed as ``layer``.

    ``counts(args, kwargs, result)`` returns work counts for the call.
    """

    owner: Any
    attr: str
    layer: str
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None


class LayerTracer:
    """Collects spans for wrapped layer calls and benchmark roots."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for target in self.targets:
            owner, attr = target.owner, target.attr
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), target))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, target: Target) -> Callable:
        tracer = self

        def timed(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = tracer._open(target.layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                tracer._close(span)
                raise
            tracer._close(span)
            if target.counts is not None:
                span.counts = target.counts(args, kwargs, result)
            return result

        timed.__name__ = getattr(original, "__name__", target.attr)
        timed.__doc__ = getattr(original, "__doc__", None)
        timed.__wrapped__ = original
        return timed

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str) -> Span:
        stack = self._stack()
        root = stack[0].root if stack else -1
        span = Span(layer, perf_counter(), 0.0, root=root)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        self.spans.append(span)

    @contextmanager
    def root(self, kind: str) -> Iterator[Span]:
        """Time one benchmark operation as a root span."""
        stack = self._stack()
        if stack:
            raise RuntimeError("root spans do not nest")
        span = Span(kind, perf_counter(), 0.0, root=len(self.roots))
        self.roots.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = perf_counter()
            stack.pop()

    # -- reduction ------------------------------------------------------------

    def roots_of(self, kind: str) -> list[int]:
        return [i for i, r in enumerate(self.roots) if r.layer == kind]

    def layer_totals(self, root_ids: list[int]) -> dict[str, dict[str, float]]:
        """Per layer: summed self/inclusive seconds, calls and counts."""
        wanted = set(root_ids)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            if span.root not in wanted:
                continue
            agg = out[span.layer]
            agg["self_s"] += span.self_time
            agg["incl_s"] += span.duration
            agg["calls"] += 1
            for key, value in span.counts.items():
                agg[key] += value
        return out

    def calls(self, layer: str) -> list[Span]:
        """Every recorded span of one layer, inside roots or not."""
        return [s for s in self.spans if s.layer == layer]

    def unattributed(self, since: float) -> list[Span]:
        """Wrapped spans opened at or after ``since`` outside every root."""
        return [s for s in self.spans if s.root == -1 and s.start >= since]

    def breakdown(self, root_ids: list[int]) -> dict[str, float]:
        """Root wall-clock, summed layer self times and residual [s]."""
        wanted = set(root_ids)
        return {
            "wall_s": sum(self.roots[i].duration for i in wanted),
            "layered_s": sum(s.self_time for s in self.spans if s.root in wanted),
            "residual_s": sum(self.roots[i].self_time for i in wanted),
        }
