"""Queryable, serializable sweep results.

A :class:`ResultSet` wraps the grid-ordered
:class:`~repro.sweep.engine.SweepOutcome` list a sweep produces and
gives every figure driver the same select-and-reshape vocabulary —
``filter`` / ``lookup`` / ``group_by`` / ``aggregate`` — plus tabular
export (``to_records`` / ``to_json`` / ``to_csv``) and full-fidelity
persistence (``save`` / ``load``, bit-identical round trip).

Metrics are named projections of a
:class:`~repro.core.runtime.ColocationResult`; :data:`METRICS` holds the
standard set and :func:`register_metric` opens it to callers.
"""

from __future__ import annotations

import csv
import io
import json
import pickle
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cas import atomic_write_bytes
from repro.core.runtime import ColocationResult
from repro.sweep.engine import SweepOutcome, results_identical
from repro.sweep.grid import Scenario, _jsonify, scenario_field_names

#: Bump when the pickled save() layout changes; old files fail loudly.
#: Format 2: results pickle as columnar payloads and the interval and
#: app records are slotted, so a format-1 file no longer unpickles.
RESULTSET_FORMAT = 2


def _mean_inaccuracy(result: ColocationResult) -> float:
    return float(np.mean([a.inaccuracy_pct for a in result.apps]))


def _max_finish_time(result: ColocationResult) -> float | None:
    finishes = [a.finish_time for a in result.apps if a.finish_time is not None]
    return max(finishes) if finishes else None


#: Named projections from a result to one scalar (the table columns).
METRICS: dict[str, Callable[[ColocationResult], object]] = {
    "qos": lambda r: r.qos,
    "aggregate_p99": lambda r: r.aggregate_p99,
    "mean_epoch_p99": lambda r: r.mean_epoch_p99,
    "qos_ratio": lambda r: r.qos_ratio,
    "qos_met": lambda r: r.qos_met,
    "qos_met_fraction": lambda r: r.qos_met_fraction(),
    "offered_qps": lambda r: r.offered_qps,
    "max_cores_reclaimed": lambda r: r.max_cores_reclaimed(),
    "sustained_cores_reclaimed": lambda r: r.sustained_cores_reclaimed(),
    "mean_inaccuracy_pct": _mean_inaccuracy,
    "max_inaccuracy_pct": lambda r: max(a.inaccuracy_pct for a in r.apps),
    "max_finish_time": _max_finish_time,
}


def register_metric(
    name: str,
    projection: Callable[[ColocationResult], object],
    overwrite: bool = False,
) -> Callable[[ColocationResult], object]:
    """Add a named metric usable in ``aggregate``/``to_records`` calls."""
    if not callable(projection):
        raise TypeError(f"metric {name!r} must be callable")
    if not overwrite and name in METRICS:
        raise ValueError(
            f"metric {name!r} is already registered; pass overwrite=True"
        )
    METRICS[name] = projection
    return projection


def resolve_metric(metric) -> Callable[[ColocationResult], object]:
    """A metric name or callable, resolved to the projection function."""
    if callable(metric):
        return metric
    try:
        return METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {metric!r} (known: {known})") from None


_REDUCERS: dict[str, Callable] = {
    "mean": lambda v: float(np.mean(v)),
    "median": lambda v: float(np.median(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "sum": lambda v: float(np.sum(v)),
    "count": len,
}


def _axis_value(scenario: Scenario, name: str):
    # Field-name check, not getattr: a bare getattr would happily return
    # a bound method for names like "label", making a typo'd filter
    # silently match nothing instead of raising.
    if name not in scenario_field_names():
        raise ValueError(
            f"unknown scenario axis {name!r} "
            f"(axes: {', '.join(sorted(scenario_field_names()))})"
        )
    return getattr(scenario, name)


def _normalize_match(name: str, value):
    if name == "apps":
        return (value,) if isinstance(value, str) else tuple(value)
    return value


class ResultSet:
    """Grid-ordered sweep outcomes with a query/export surface."""

    def __init__(
        self,
        outcomes: Sequence[SweepOutcome],
        spec=None,
    ) -> None:
        self._outcomes = list(outcomes)
        self.spec = spec

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self):
        return iter(self._outcomes)

    def __getitem__(self, index: int) -> SweepOutcome:
        return self._outcomes[index]

    @property
    def outcomes(self) -> list[SweepOutcome]:
        return list(self._outcomes)

    @property
    def scenarios(self) -> list[Scenario]:
        return [o.scenario for o in self._outcomes]

    @property
    def results(self) -> list[ColocationResult]:
        return [o.result for o in self._outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self._outcomes if o.from_cache)

    @property
    def compute_seconds(self) -> float:
        return sum(o.duration for o in self._outcomes)

    # -- querying --------------------------------------------------------

    def filter(self, predicate=None, **axes) -> "ResultSet":
        """Outcomes whose scenario matches every ``axis=value`` (and the
        optional ``predicate(outcome)``), keeping grid order."""
        matches = {k: _normalize_match(k, v) for k, v in axes.items()}
        kept = []
        for outcome in self._outcomes:
            if any(
                _axis_value(outcome.scenario, k) != v for k, v in matches.items()
            ):
                continue
            if predicate is not None and not predicate(outcome):
                continue
            kept.append(outcome)
        return ResultSet(kept, spec=self.spec)

    def lookup(self, **axes) -> ColocationResult:
        """The single result matching ``axes`` exactly; raises otherwise."""
        found = self.filter(**axes)
        if len(found) != 1:
            raise LookupError(
                f"expected exactly one outcome for {axes}, "
                f"found {len(found)}"
            )
        return found[0].result

    def group_by(self, *names: str) -> dict:
        """Split into sub-sets keyed by axis value(s), grid order kept.

        One name keys by its bare value; several key by tuples.
        """
        if not names:
            raise ValueError("group_by needs at least one axis name")
        groups: dict = {}
        for outcome in self._outcomes:
            values = tuple(_axis_value(outcome.scenario, n) for n in names)
            key = values[0] if len(names) == 1 else values
            groups.setdefault(key, []).append(outcome)
        return {
            key: ResultSet(outcomes, spec=self.spec)
            for key, outcomes in groups.items()
        }

    def values(self, metric) -> list:
        """The metric column, in grid order."""
        projection = resolve_metric(metric)
        return [projection(o.result) for o in self._outcomes]

    def aggregate(self, metric, by=None, reduce: str = "mean"):
        """Reduce a metric over the whole set, or per group of ``by``.

        ``by`` is an axis name or tuple of names; ``reduce`` one of
        mean / median / min / max / sum / count.  Returns a scalar, or a
        dict keyed like :meth:`group_by`.
        """
        try:
            reducer = _REDUCERS[reduce]
        except KeyError:
            raise ValueError(
                f"unknown reducer {reduce!r} "
                f"(known: {', '.join(sorted(_REDUCERS))})"
            ) from None
        if by is None:
            return reducer(self.values(metric))
        names = (by,) if isinstance(by, str) else tuple(by)
        return {
            key: reducer(subset.values(metric))
            for key, subset in self.group_by(*names).items()
        }

    # -- tabular export --------------------------------------------------

    def to_records(self, metrics: Iterable | None = None) -> list[dict]:
        """Flat dicts: every scenario axis, provenance, and the metrics.

        Compound fields flatten CSV-friendly: ``apps`` joins with ``+``,
        pair fields (``policy_kwargs``, ``loadgen_params``) become JSON
        strings when non-empty.
        """
        chosen = list(METRICS) if metrics is None else list(metrics)
        projections = [
            (getattr(m, "__name__", "metric"), m)
            if callable(m)
            else (str(m), resolve_metric(m))
            for m in chosen
        ]
        records = []
        for outcome in self._outcomes:
            scenario = outcome.scenario
            record: dict = {}
            for field in sorted(scenario_field_names()):
                value = getattr(scenario, field)
                if field == "apps":
                    value = "+".join(value)
                elif field in ("policy_kwargs", "loadgen_params"):
                    value = json.dumps(_jsonify(value)) if value else ""
                record[field] = value
            record["from_cache"] = outcome.from_cache
            record["duration"] = outcome.duration
            for name, projection in projections:
                record[name] = projection(outcome.result)
            records.append(record)
        return records

    def to_json(
        self, path: Path | str | None = None, metrics: Iterable | None = None
    ) -> str:
        """Records as a JSON array; also written to ``path`` when given."""
        text = json.dumps(self.to_records(metrics), indent=2, default=str)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def to_csv(
        self, path: Path | str | None = None, metrics: Iterable | None = None
    ) -> str:
        """Records as CSV text; also written to ``path`` when given."""
        records = self.to_records(metrics)
        buffer = io.StringIO()
        if records:
            writer = csv.DictWriter(
                buffer, fieldnames=list(records[0]), lineterminator="\n"
            )
            writer.writeheader()
            writer.writerows(records)
        if path is not None:
            Path(path).write_text(buffer.getvalue())
        return buffer.getvalue()

    # -- persistence -----------------------------------------------------

    def save(self, path: Path | str) -> Path:
        """Pickle the full set (results included) for lossless reload."""
        from repro.experiment.spec import ExperimentSpec

        envelope = {
            "format": RESULTSET_FORMAT,
            "spec": (
                self.spec.to_dict()
                if isinstance(self.spec, ExperimentSpec)
                else None
            ),
            "outcomes": self._outcomes,
        }
        path = Path(path)
        atomic_write_bytes(
            path, pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return path

    @classmethod
    def load(cls, path: Path | str) -> "ResultSet":
        from repro.experiment.spec import ExperimentSpec

        data = Path(path).read_bytes()
        try:
            envelope = pickle.loads(data)
        except Exception as exc:
            # An older format's records do not rebuild in this build's
            # classes; the envelope's format number is lost with them.
            raise ValueError(
                f"unsupported result-set format: {path} does not unpickle "
                f"({type(exc).__name__}: {exc}; this build reads format "
                f"{RESULTSET_FORMAT})"
            ) from exc
        version = envelope.get("format") if isinstance(envelope, dict) else None
        if version != RESULTSET_FORMAT:
            raise ValueError(
                f"unsupported result-set format {version!r} "
                f"(this build reads format {RESULTSET_FORMAT})"
            )
        spec = envelope.get("spec")
        return cls(
            envelope["outcomes"],
            spec=ExperimentSpec.from_dict(spec) if spec else None,
        )

    # -- comparison ------------------------------------------------------

    def identical(self, other: "ResultSet") -> bool:
        """Bit-level equality: same scenarios, bit-identical results.

        The cross-backend contract: a spec run on the serial, process,
        or distributed backend must produce identical() result sets.
        """
        if len(self) != len(other):
            return False
        for a, b in zip(self._outcomes, other._outcomes):
            if a.scenario != b.scenario:
                return False
            if not results_identical(a.result, b.result):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f", spec={self.spec.name!r}" if getattr(self.spec, "name", "") else ""
        return (
            f"ResultSet(n={len(self)}, cache_hits={self.cache_hits}{label})"
        )
