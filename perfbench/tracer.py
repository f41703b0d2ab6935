"""Per-layer tracing from outside the program.

The tracer replaces public layer functions (class methods and module
functions) with timing wrappers, and ``close`` puts the originals back.
Every call records its duration; a stack of open calls charges each
duration to the enclosing wrapped call, so a layer's self time is its
time minus the time of the wrapped calls nested in it.  Nothing inside the program changes, and results are the
same with or without the wrappers.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class LayerStats:
    """Everything one wrapped layer recorded."""

    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """Wraps layer functions while active; aggregates calls per layer name."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        #: Exact counts observed on calls (epochs run, variants measured)
        #: and per-key time sums (seconds per explored app).
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open wrapped call
        self._patches: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Callable[[tuple, object, float], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under layer ``name``.

        ``observe(args, result, seconds)`` runs after each call, for
        layers that also count something about the call (epochs of a
        run, the app an exploration was for).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stats = self.layer(name)
        open_calls = self._open

        def traced(*args, **kwargs):
            open_calls.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                children = open_calls.pop()
                if open_calls:
                    open_calls[-1] += seconds
                stats.durations.append(seconds)
                stats.self_s += seconds - children
            if observe is not None:
                observe(args, result, seconds)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_family(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that defines it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if callable(cls.__dict__.get(attr)):
                self.wrap(cls, attr, name)

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
