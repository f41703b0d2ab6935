"""On-disk content-addressed result cache.

Sweep results are memoized under a key derived from a stable hash of the
scenario's canonical config payload, so any change to the scenario —
load, seed, policy, app mix, horizon — lands in a different entry, while
re-running the identical sweep is a pure disk read.

Layout: ``<root>/<key[:2]>/<key>.pkl`` — pickled
:class:`~repro.core.runtime.ColocationResult` payloads, written
atomically (tmp file + rename) so a crashed worker never leaves a
half-written entry behind.  Reads treat *any* failure to load (truncated
file, foreign pickle, version skew) as a miss: the corrupted entry is
deleted and the scenario recomputed.

The cache is shared: every local sweep, every distributed worker, and
every submitting host memoizes through the same directory (point
``REPRO_SWEEP_CACHE`` at shared storage to pool results across hosts).
Because it grows without bound, :meth:`SweepCache.stats` and
:meth:`SweepCache.prune` expose bookkeeping and LRU eviction — reads
touch the entry mtime, so recently-used results survive a prune.
"""

from __future__ import annotations

import fcntl
import json
import os
import pickle
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.cas import atomic_write_bytes, source_digest, stable_hash

__all__ = [
    "FORMAT_VERSION",
    "CacheStats",
    "PruneResult",
    "SweepCache",
    "atomic_write_bytes",
    "default_sweep_cache_dir",
    "stable_hash",
]

#: Bump when the pickled payload layout changes; old entries become misses.
FORMAT_VERSION = 1

_CACHE_ENV = "REPRO_SWEEP_CACHE"


def default_sweep_cache_dir() -> Path:
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pliant" / "sweeps"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file.

    Folded into cache keys so a simulator code change can never serve
    stale pre-change results — the memoization contract is "same config
    *and* same code".  Computed once per process (~100 small files).
    """
    import repro

    return source_digest(Path(repro.__file__).parent)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time view of one cache directory."""

    entries: int
    total_bytes: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_payload(self) -> dict:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class PruneResult:
    """What one :meth:`SweepCache.prune` pass removed."""

    removed: int
    freed_bytes: int
    remaining: int
    remaining_bytes: int

    def to_payload(self) -> dict:
        return {
            "removed": self.removed,
            "freed_bytes": self.freed_bytes,
            "remaining": self.remaining,
            "remaining_bytes": self.remaining_bytes,
        }


class SweepCache:
    """Content-addressed store of completed scenario results."""

    #: Pending lookup records to accumulate before an on-disk counter flush.
    STATS_FLUSH_EVERY = 64

    def __init__(self, root: Path | str | None = None) -> None:
        self._root = Path(root) if root is not None else default_sweep_cache_dir()
        self.hits = 0
        self.misses = 0
        self._pending_hits = 0
        self._pending_misses = 0
        self._atexit_registered = False

    @property
    def root(self) -> Path:
        return self._root

    def key(self, scenario) -> str:
        """Content address of one scenario's result."""
        return stable_hash(
            {
                "format": FORMAT_VERSION,
                "code": code_fingerprint(),
                "scenario": scenario.key_payload(),
            }
        )

    def path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    def get(self, key: str, record: bool = True):
        """Return the cached result or ``None``; corrupt entries self-heal.

        ``record=False`` skips the hit/miss accounting — for internal
        transport reads (e.g. the distributed submitter collecting a
        result a worker just published) that are not cache *lookups* in
        any meaningful sense.
        """
        path = self.path(key)
        try:
            data = path.read_bytes()
            envelope = pickle.loads(data)
            if envelope["format"] != FORMAT_VERSION:
                raise ValueError("cache format version mismatch")
            result = envelope["result"]
        except FileNotFoundError:
            if record:
                self._record(hit=False)
            return None
        except Exception:
            # Truncated write, foreign payload, version skew: drop and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            if record:
                self._record(hit=False)
            return None
        if record:
            self._record(hit=True)
        try:
            os.utime(path)  # refresh recency so LRU pruning spares hot entries
        except OSError:
            pass
        return result

    def put(self, key: str, result) -> None:
        envelope = {"format": FORMAT_VERSION, "result": result}
        atomic_write_bytes(
            self.path(key), pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def entry_count(self) -> int:
        if not self._root.exists():
            return 0
        return sum(1 for _ in self._root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self._root.exists():
            return 0
        for entry in self._root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- bookkeeping -----------------------------------------------------

    @property
    def _stats_path(self) -> Path:
        return self._root / "stats.json"

    def _record(self, hit: bool) -> None:
        """Count one lookup, in this process and (batched) on disk.

        The on-disk counters are what ``python -m repro.sweep cache stats``
        reports — a fresh CLI process has no in-memory history, and
        distributed workers each run in their own process, so the lifetime
        hit rate only exists on disk.  The locked read-modify-write is
        deliberately *not* per-lookup: deltas accumulate in memory and
        flush every :data:`STATS_FLUSH_EVERY` records, on :meth:`stats`,
        and at process exit, so the warm hot path stays a bare disk read.
        """
        if hit:
            self.hits += 1
            self._pending_hits += 1
        else:
            self.misses += 1
            self._pending_misses += 1
        if not self._atexit_registered:
            import atexit

            atexit.register(self.flush_stats)
            self._atexit_registered = True
        if self._pending_hits + self._pending_misses >= self.STATS_FLUSH_EVERY:
            self.flush_stats()

    def flush_stats(self) -> None:
        """Fold pending lookup counts into the shared counter file."""
        if not (self._pending_hits or self._pending_misses):
            return
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            with open(self._root / "stats.lock", "w") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                counters = self._read_counters()
                counters["hits"] += self._pending_hits
                counters["misses"] += self._pending_misses
                atomic_write_bytes(
                    self._stats_path, json.dumps(counters).encode()
                )
            self._pending_hits = 0
            self._pending_misses = 0
        except OSError:
            pass  # stats are best-effort; never fail a lookup over them

    def _read_counters(self) -> dict:
        try:
            loaded = json.loads(self._stats_path.read_text())
            return {
                "hits": int(loaded.get("hits", 0)),
                "misses": int(loaded.get("misses", 0)),
            }
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        if not self._root.exists():
            return []
        out = []
        for entry in self._root.glob("*/*.pkl"):
            try:
                out.append((entry, entry.stat()))
            except OSError:
                pass  # pruned concurrently
        return out

    def stats(self) -> CacheStats:
        """Entry count, on-disk bytes, and lifetime hit/miss counters."""
        self.flush_stats()
        entries = self._entries()
        counters = self._read_counters()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(st.st_size for _, st in entries),
            hits=counters["hits"],
            misses=counters["misses"],
        )

    def prune(
        self,
        older_than: float | None = None,
        max_bytes: int | None = None,
    ) -> PruneResult:
        """Evict entries by age and/or total size (LRU by mtime).

        ``older_than`` removes entries not read or written for that many
        seconds; ``max_bytes`` then evicts least-recently-used entries
        until the cache fits.  Reads touch mtime (:meth:`get`), so "used"
        means used, not just written.
        """
        entries = sorted(self._entries(), key=lambda item: item[1].st_mtime)
        removed = 0
        freed = 0
        survivors: list[tuple[Path, os.stat_result]] = []
        # Entry ages are wall-clock minus on-disk mtime by necessity: prune
        # runs in a fresh process, so the only shared recency clock is the
        # filesystem's.  That is fine here — eviction is advisory
        # housekeeping, skew merely shifts *when* an entry is evicted, and
        # results never depend on it (a pruned entry is just a recompute).
        # repro-lint: ignore[no-wallclock] -- advisory LRU ages over on-disk mtimes; results never depend on them
        now = time.time()
        for path, st in entries:
            if older_than is not None and now - st.st_mtime > older_than:
                removed += 1
                freed += st.st_size
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                survivors.append((path, st))
        if max_bytes is not None:
            total = sum(st.st_size for _, st in survivors)
            while survivors and total > max_bytes:
                path, st = survivors.pop(0)  # oldest mtime first
                removed += 1
                freed += st.st_size
                total -= st.st_size
                try:
                    path.unlink()
                except OSError:
                    pass
        return PruneResult(
            removed=removed,
            freed_bytes=freed,
            remaining=len(survivors),
            remaining_bytes=sum(st.st_size for _, st in survivors),
        )
