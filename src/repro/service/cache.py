"""Artifact cache: in-memory LRU over :class:`PreprocessArtifact`, plus disk tier.

The paper's amortization story — expensive preprocessing, cheap queries — only
materialises when the preprocessed structures survive between queries.  The
cache is where they survive:

* a bounded in-memory LRU (``capacity`` artifacts, least-recently-*used*
  evicted first), sized for the working set of hot expanders;
* an optional on-disk pickle store (one ``<fingerprint>.pkl`` per artifact)
  that outlives the process; memory misses fall through to disk and promote
  back into memory on a hit.  The disk tier is bounded too when
  ``disk_capacity`` is set: oldest files (by modification time) are evicted
  first, counted in :attr:`CacheStats.evictions_disk`.

When a :class:`~repro.metrics.MetricsRegistry` is attached, every lookup,
store, and eviction is also recorded as ``repro_cache_*`` metrics, so the
cluster tier's per-shard caches show up in the shared exposition.

Entries are keyed by the canonical fingerprint of
:func:`repro.service.fingerprint.graph_fingerprint`, so invalidation is
structural: a changed graph or parameter set simply hashes to a new key, and
stale artifacts age out of the LRU (or sit inert on disk) instead of ever
being served for the wrong graph.  Disk entries additionally re-check the
stored fingerprint and format version at load time; anything inconsistent or
unreadable is treated as a miss and deleted.

All public methods are thread-safe — the serving layer resolves artifacts from
worker threads.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.router import PreprocessArtifact
from repro.metrics import MetricsRegistry

__all__ = ["CacheStats", "ArtifactCache"]


@dataclass
class CacheStats:
    """Counters the cache accumulates across its lifetime.

    Attributes:
        hits: memory hits.
        disk_hits: misses in memory that were served from the disk tier.
        misses: lookups nothing could serve (caller must preprocess).
        evictions: artifacts dropped from the LRU because of capacity.
        evictions_disk: disk files dropped because of ``disk_capacity``.
        stores: artifacts written via :meth:`ArtifactCache.put`.
        disk_rejects: disk entries discarded as corrupt, stale, or mismatched.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    evictions_disk: int = 0
    stores: int = 0
    disk_rejects: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without preprocessing (memory or disk)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evictions_disk": self.evictions_disk,
            "stores": self.stores,
            "disk_rejects": self.disk_rejects,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ArtifactCache:
    """Bounded LRU of preprocessed artifacts with an optional disk tier.

    Attributes:
        capacity: maximum number of artifacts held in memory (>= 1).
        disk_dir: directory for the pickle tier; ``None`` disables it.
        disk_capacity: maximum number of pickles kept on disk (``None`` =
            unbounded); oldest files are evicted first when exceeded.
        stats: lifetime :class:`CacheStats`.
        metrics: optional registry the cache also records ``repro_cache_*``
            metrics into (``None`` keeps the cache metrics-silent).
    """

    capacity: int = 8
    disk_dir: str | os.PathLike | None = None
    disk_capacity: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if self.disk_capacity is not None and self.disk_capacity < 1:
            raise ValueError("disk capacity must be at least 1 (or None for unbounded)")
        self._entries: OrderedDict[str, PreprocessArtifact] = OrderedDict()
        self._lock = threading.RLock()
        self._disk_lock = threading.Lock()
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        if self.metrics is not None:
            self._m_lookups = self.metrics.counter(
                "repro_cache_lookups_total", "Artifact cache lookups by result.", labels=("result",)
            )
            self._m_stores = self.metrics.counter(
                "repro_cache_stores_total", "Artifacts stored in the cache."
            )
            self._m_evictions = self.metrics.counter(
                "repro_cache_evictions_total", "Artifacts evicted, by tier.", labels=("tier",)
            )
        else:
            self._m_lookups = self._m_stores = self._m_evictions = None

    def _record_lookup(self, result: str) -> None:
        if self._m_lookups is not None:
            self._m_lookups.labels(result=result).inc()

    # -- lookups -------------------------------------------------------------

    def get(self, fingerprint: str) -> PreprocessArtifact | None:
        """The cached artifact for ``fingerprint``, or ``None`` (a miss)."""
        with self._lock:
            artifact = self._entries.get(fingerprint)
            if artifact is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                self._record_lookup("hit")
                return artifact
        # Pickle I/O happens outside the lock so concurrent workers are not
        # serialized behind it; worst case two workers both read the same disk
        # entry, which is harmless.
        artifact = self._load_from_disk(fingerprint)
        with self._lock:
            if artifact is not None:
                self.stats.disk_hits += 1
                self._record_lookup("disk_hit")
                self._insert(fingerprint, artifact)
                return artifact
            self.stats.misses += 1
            self._record_lookup("miss")
            return None

    def peek(self, fingerprint: str) -> PreprocessArtifact | None:
        """The in-memory entry without stats, LRU, or disk side effects.

        The cluster's warm-key handoff uses this to export artifacts during
        rebalances — an administrative read that should not distort the
        hit-rate the operators watch.
        """
        with self._lock:
            return self._entries.get(fingerprint)

    def fingerprints(self) -> list[str]:
        """Every in-memory fingerprint, coldest first (LRU order)."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
            path = self._disk_path(fingerprint)
            return path is not None and path.exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- stores --------------------------------------------------------------

    def put(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        """Cache ``artifact`` under ``fingerprint`` (memory, and disk if enabled)."""
        artifact.fingerprint = fingerprint
        with self._lock:
            self.stats.stores += 1
            if self._m_stores is not None:
                self._m_stores.inc()
            self._insert(fingerprint, artifact)
        # Disk write outside the lock: the atomic tmp-file rename keeps
        # concurrent writers of the same fingerprint consistent.
        self._store_to_disk(fingerprint, artifact)

    def adopt(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        """Insert an artifact handed off from another cache, memory tier only.

        Unlike :meth:`put` this neither counts as a store nor writes the disk
        tier: adopted artifacts arrive by warm handoff during cluster
        rebalances and are not new builds, so they cost the adopting shard
        no disk write.
        """
        artifact.fingerprint = fingerprint
        with self._lock:
            self._insert(fingerprint, artifact)

    def clear(self, *, disk: bool = False) -> None:
        """Drop every in-memory entry (and the disk tier too if ``disk``)."""
        with self._lock:
            self._entries.clear()
            if disk and self.disk_dir is not None:
                for path in Path(self.disk_dir).glob("*.pkl"):
                    path.unlink(missing_ok=True)

    # -- internals -----------------------------------------------------------

    def _insert(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        self._entries[fingerprint] = artifact
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.labels(tier="memory").inc()

    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return Path(self.disk_dir) / f"{fingerprint}.pkl"

    def _store_to_disk(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        path = self._disk_path(fingerprint)
        if path is None:
            return
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._enforce_disk_capacity()

    def _enforce_disk_capacity(self) -> None:
        """Evict the oldest disk pickles until the tier fits ``disk_capacity``."""
        if self.disk_capacity is None or self.disk_dir is None:
            return
        # One enforcement pass at a time; concurrent writers would otherwise
        # race the directory scan and double-count evictions.
        with self._disk_lock:
            entries = []
            for path in Path(self.disk_dir).glob("*.pkl"):
                try:
                    entries.append((path.stat().st_mtime_ns, path.name, path))
                except OSError:
                    continue  # concurrently evicted or cleared
            entries.sort()
            evicted = 0
            for _, _, path in entries[: max(0, len(entries) - self.disk_capacity)]:
                path.unlink(missing_ok=True)
                evicted += 1
            if evicted:
                with self._lock:
                    self.stats.evictions_disk += evicted
                if self._m_evictions is not None:
                    self._m_evictions.labels(tier="disk").inc(evicted)

    def _load_from_disk(self, fingerprint: str) -> PreprocessArtifact | None:
        path = self._disk_path(fingerprint)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except Exception:
            self.stats.disk_rejects += 1
            path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(artifact, PreprocessArtifact)
            or artifact.format_version != PreprocessArtifact.FORMAT_VERSION
            or artifact.fingerprint != fingerprint
        ):
            self.stats.disk_rejects += 1
            path.unlink(missing_ok=True)
            return None
        return artifact
