"""Approximation knobs (Section 3 of the paper).

Three families, matching the paper's design-space exploration:

* :class:`LoopPerforation` — execute only a fraction of a loop's iterations.
  Values are *keep fractions* in (0, 1]; 1.0 is precise.  The paper
  describes several perforation shapes (chunk, stride, skip-every-pth);
  :func:`perforated_indices` implements the stride shape, which subsumes the
  others for our kernels.
* :class:`SyncElision` — elide locks/barriers; values are False (precise) or
  True (elided).  Kernels model elision as skipping synchronization traffic
  and computing on slightly stale shared state.
* :class:`PrecisionReduction` — drop from float64 to float32/float16.
  Values are dtype names (strings, for hashability and JSON round-trips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

_DTYPE_BYTES = {"float64": 8, "float32": 4, "float16": 2}


@dataclass(frozen=True)
class Knob:
    """One approximable site in an application.

    ``candidates`` holds the approximate settings only; ``precise_value`` is
    implied for every knob and is never listed as a candidate.
    """

    name: str
    precise_value: Any
    candidates: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("knob name must be non-empty")
        if self.precise_value in self.candidates:
            raise ValueError("candidates must not include the precise value")

    def all_values(self) -> tuple[Any, ...]:
        """Precise value first, then candidates."""
        return (self.precise_value, *self.candidates)


class LoopPerforation(Knob):
    """Keep-fraction knob for one loop."""

    def __init__(self, name: str, candidates: tuple[float, ...]) -> None:
        for fraction in candidates:
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"perforation keep fraction must lie in (0, 1): {fraction}"
                )
        super().__init__(name=name, precise_value=1.0, candidates=candidates)


class SyncElision(Knob):
    """Boolean knob: elide the synchronization at this site."""

    def __init__(self, name: str) -> None:
        super().__init__(name=name, precise_value=False, candidates=(True,))


class PrecisionReduction(Knob):
    """Dtype knob: run this site's arithmetic at reduced precision."""

    def __init__(
        self, name: str, candidates: tuple[str, ...] = ("float32", "float16")
    ) -> None:
        for dtype_name in candidates:
            if dtype_name not in _DTYPE_BYTES:
                raise ValueError(f"unsupported dtype {dtype_name!r}")
        super().__init__(name=name, precise_value="float64", candidates=candidates)

    @staticmethod
    def dtype(value: str) -> np.dtype:
        return np.dtype(value)

    @staticmethod
    def bytes_per_element(value: str) -> int:
        return _DTYPE_BYTES[value]

    @staticmethod
    def traffic_ratio(value: str) -> float:
        """Memory-traffic scale relative to float64."""
        return _DTYPE_BYTES[value] / _DTYPE_BYTES["float64"]


def perforated_count(n: int, keep_fraction: float) -> int:
    """Number of iterations executed when perforating an ``n``-trip loop."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    if n == 0:
        return 0
    return max(1, int(round(n * keep_fraction)))


def perforated_indices(n: int, keep_fraction: float) -> np.ndarray:
    """Evenly spaced indices of the iterations that *do* execute.

    Deterministic (no RNG): perforation in the paper is a static code
    transformation, so the kept iterations must not vary run to run.
    """
    kept = perforated_count(n, keep_fraction)
    if kept == 0:
        return np.empty(0, dtype=np.int64)
    # The rounded linspace is already sorted, so dropping each repeat of
    # its left neighbour deduplicates it without np.unique's sort.
    indices = np.linspace(0, n - 1, kept).round().astype(np.int64)
    first = np.empty(kept, dtype=bool)
    first[0] = True
    np.not_equal(indices[1:], indices[:-1], out=first[1:])
    return indices[first]
