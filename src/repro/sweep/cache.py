"""On-disk content-addressed result cache.

Sweep results are memoized under a key derived from a stable hash of the
scenario's wire payload (:meth:`~repro.sweep.grid.Scenario.to_payload`,
every field), the code and the numeric environment, so any change to the
scenario — load, seed, policy, app mix, horizon — or to the code lands
in a different entry, while re-running the identical sweep is a pure
disk read.  The key is the scenario's one content address: a spool job
is named by it too.

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

import os
import pickle
import re
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from repro.cas import atomic_write_bytes, numeric_environment, source_digest, stable_hash

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
#: Format 2: a result pickles as one columnar payload
#: (:meth:`~repro.core.runtime.ColocationResult.__reduce__`).
FORMAT_VERSION = 2

_CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Lifetime lookup counters under the cache root: one ``"<hits> <misses>"``
#: line per flush, appended by every process that looks entries up.
STATS_LOG = "stats.log"
_STATS_RECORD = re.compile(rb"(\d+) (\d+)\n")
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT  # read: is the last record whole?


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
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


@dataclass(frozen=True)
class PruneResult:
    """What one :meth:`SweepCache.prune` pass removed."""

    removed: int
    freed_bytes: int
    remaining: int
    remaining_bytes: int

    def to_payload(self) -> dict:
        return asdict(self)


class SweepCache:
    """Content-addressed store of completed scenario results."""

    #: Pending lookup records to accumulate before an on-disk counter flush.
    STATS_FLUSH_EVERY = 64

    def __init__(self, root: Path | str | None = None) -> None:
        self._root = Path(root) if root is not None else default_sweep_cache_dir()
        self._dir = os.fspath(self._root)
        self._stats_log = os.path.join(self._dir, STATS_LOG)
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
                "env": numeric_environment(),
                "scenario": scenario.to_payload(),
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
        # The str form of path(key): a hit is one read and one unpickle,
        # and pathlib joins would cost a tenth of it.
        path = f"{self._dir}/{key[:2]}/{key}.pkl"
        try:
            with open(path, "rb", buffering=0) as handle:
                data = handle.readall()
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
                os.unlink(path)
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

    def _record(self, hit: bool) -> None:
        """Count one lookup, in this process and (batched) on disk.

        The on-disk counters are what ``python -m repro.sweep cache stats``
        reports — a fresh CLI process has no in-memory history, and
        distributed workers each run in their own process, so the lifetime
        hit rate only exists on disk.  Deltas accumulate in memory and
        are appended every :data:`STATS_FLUSH_EVERY` records, on
        :meth:`stats`, and at process exit, so the warm hot path stays a
        bare disk read.
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
        """Append pending lookup counts to the shared counter log.

        One ``"<hits> <misses>\\n"`` record per flush, written with one
        ``O_APPEND`` write: appends from any number of processes land
        whole and in some order, so no lock and no read-modify-write is
        needed, and :meth:`stats` sums the records.  A log that does not
        end in a newline holds a torn record (a write cut short by a full
        disk, say); the append first closes it with ``"!\\n"``, so it
        reads as malformed instead of running into this record.
        """
        hits, misses = self._pending_hits, self._pending_misses
        if not (hits or misses):
            return
        record = f"{hits} {misses}\n".encode()
        try:
            try:
                fd = os.open(self._stats_log, _APPEND, 0o644)
            except FileNotFoundError:
                os.makedirs(self._dir, exist_ok=True)
                fd = os.open(self._stats_log, _APPEND, 0o644)
            try:
                end = os.fstat(fd).st_size
                if end and os.pread(fd, 1, end - 1) != b"\n":
                    record = b"!\n" + record
                os.write(fd, record)
            finally:
                os.close(fd)
        except OSError:
            return  # stats are best-effort; never fail a lookup over them
        self._pending_hits = 0
        self._pending_misses = 0

    def _read_counters(self) -> tuple[int, int]:
        """Summed ``(hits, misses)`` over the counter log's records.

        A line that is not two counts and a newline (a torn record) is
        skipped.
        """
        hits = misses = 0
        try:
            with open(self._stats_log, "rb") as log:
                for line in log:
                    match = _STATS_RECORD.fullmatch(line)
                    if match:
                        hits += int(match[1])
                        misses += int(match[2])
        except OSError:
            pass
        return hits, misses

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
        hits, misses = self._read_counters()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(st.st_size for _, st in entries),
            hits=hits,
            misses=misses,
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
