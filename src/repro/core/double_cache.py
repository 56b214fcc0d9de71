"""HiDeStore's double-hash fingerprint cache (paper §4.1, Figure 5).

Two hash tables: ``T1`` holds the chunks of the *previous* backup version,
``T2`` collects the chunks of the *current* one.  Deduplication searches only
these tables — never a full on-disk index — because the §3 observation says
chunks absent from the previous version have negligible probability of
recurring.  The three classification cases:

* miss both → **unique**: caller stores the chunk and inserts it into T2;
* hit T1 → **duplicate & hot**: the entry migrates T1 → T2;
* hit T2 → **duplicate**: nothing to do.

After a version completes, the residue of T1 is exactly the **cold** set
(chunks whose last appearance was the previous version); T2 becomes the next
version's T1.

For workloads like macos where chunks skip one version before recurring
(Figure 3d), ``history_depth`` keeps more than one previous table; a chunk is
cold only after missing ``history_depth`` consecutive versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..errors import IndexError_
from ..units import RECIPE_ENTRY_SIZE

#: :meth:`DoubleHashCache.lookup_many` marker for a fingerprint whose
#: *earlier occurrence in the same batch* was unique: by the time a
#: sequential scan would classify this occurrence, the caller has stored
#: the chunk and inserted it into T2, so it is a duplicate — but its entry
#: (the assigned container ID) only exists after the caller's insert.
#: Resolve with :meth:`DoubleHashCache.current_entry` post-insert.
BATCH_DUPLICATE = object()


@dataclass
class CacheEntry:
    """Metadata held per fingerprint: chunk size + active container ID (CID)."""

    size: int
    cid: int


class DoubleHashCache:
    """The T1/T2 fingerprint cache.

    Args:
        history_depth: number of previous versions deduplicated against
            (1 per the paper; 2 for macos-like skip-a-version workloads).
    """

    def __init__(self, history_depth: int = 1) -> None:
        if history_depth < 1:
            raise IndexError_("history_depth must be >= 1")
        self.history_depth = history_depth
        # Oldest table first; at most history_depth previous tables.
        self._previous: List[Dict[bytes, CacheEntry]] = []
        self._current: Dict[bytes, CacheEntry] = {}
        self.lookups = 0
        self.hits = 0
        #: Checkpoint tracking: the head entry of the stored tables part,
        #: and whether the tables changed since it was written.  The tables
        #: export only with T2 empty, and T2 empties only in
        #: :meth:`end_version`, so the per-chunk mutators need no mark: the
        #: four that can change what a boundary exports set ``dirty``
        #: (:meth:`end_version`, :meth:`drain`, :meth:`apply_relocations`,
        #: :meth:`restore_tables`); only :mod:`repro.core.checkpoint` clears it.
        self.persisted: Optional[Dict] = None
        self.dirty = True

    # ------------------------------------------------------------------
    # Classification (Figure 5's three cases)
    # ------------------------------------------------------------------
    def classify(self, fingerprint: bytes) -> Optional[CacheEntry]:
        """Classify an incoming fingerprint.

        Returns the cache entry if the chunk is a **duplicate** (migrating a
        T1 hit into T2 as a side effect), or ``None`` for a **unique** chunk
        (the caller must store it and call :meth:`insert`).
        """
        self.lookups += 1
        entry = self._current.get(fingerprint)
        if entry is not None:  # Case three: already hot this version.
            self.hits += 1
            return entry
        # Case two: hit a previous version's table; promote to current.
        # Newest previous table first — the most likely to match.
        for table in reversed(self._previous):
            entry = table.pop(fingerprint, None)
            if entry is not None:
                self._current[fingerprint] = entry
                self.hits += 1
                return entry
        return None  # Case one: unique.

    def lookup_many(self, fingerprints: List[bytes]) -> List[object]:
        """Classify a whole dedup batch in one call.

        Amortises the per-chunk call (and the caller's lock round-trip)
        over the batch while preserving the *sequential* classification
        semantics exactly — counters included.  Per input fingerprint the
        result is one of:

        * a :class:`CacheEntry` — duplicate (T1 hits migrate to T2, as in
          :meth:`classify`);
        * ``None`` — unique: the caller stores the chunk and
          :meth:`insert`\\ s it;
        * :data:`BATCH_DUPLICATE` — duplicate *of a unique earlier in this
          batch*; resolve via :meth:`current_entry` after the inserts.
        """
        results: List[object] = []
        current = self._current
        seen_unique = set()
        for fp in fingerprints:
            self.lookups += 1
            entry = current.get(fp)
            if entry is not None:
                self.hits += 1
                results.append(entry)
                continue
            for table in reversed(self._previous):
                entry = table.pop(fp, None)
                if entry is not None:
                    current[fp] = entry
                    self.hits += 1
                    results.append(entry)
                    break
            else:
                if fp in seen_unique:
                    # Sequentially this occurrence lands after the caller
                    # inserted the first one into T2: a hit.
                    self.hits += 1
                    results.append(BATCH_DUPLICATE)
                else:
                    seen_unique.add(fp)
                    results.append(None)
        return results

    def current_entry(self, fingerprint: bytes) -> Optional[CacheEntry]:
        """The T2 entry for ``fingerprint`` (resolves BATCH_DUPLICATE)."""
        return self._current.get(fingerprint)

    def insert(self, fingerprint: bytes, size: int, cid: int) -> None:
        """Register a just-stored unique chunk in T2."""
        self._current[fingerprint] = CacheEntry(size, cid)

    # ------------------------------------------------------------------
    # Version lifecycle
    # ------------------------------------------------------------------
    def end_version(self) -> Dict[bytes, CacheEntry]:
        """Close the current version; returns the **cold** residue.

        The oldest previous table (chunks that have now missed
        ``history_depth`` consecutive versions) is evicted and returned; the
        current table becomes the newest previous table.
        """
        cold: Dict[bytes, CacheEntry] = {}
        self.dirty = True
        self._previous.append(self._current)
        self._current = {}
        if len(self._previous) > self.history_depth:
            cold = self._previous.pop(0)
        return cold

    def drain(self) -> Dict[bytes, CacheEntry]:
        """Evict *all* remaining previous tables (system shutdown/retire)."""
        drained: Dict[bytes, CacheEntry] = {}
        for table in self._previous:
            drained.update(table)
        self._previous = []
        self.dirty = True
        return drained

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply_relocations(self, relocations: Mapping[bytes, int]) -> int:
        """Update CIDs after active-container compaction moved chunks."""
        updated = 0
        self.dirty = True
        for table in self._previous + [self._current]:
            for fp, new_cid in relocations.items():
                entry = table.get(fp)
                if entry is not None:
                    entry.cid = new_cid
                    updated += 1
        return updated

    def location_of(self, fingerprint: bytes) -> Optional[int]:
        """Active CID of a hot chunk, if cached (newest tables win)."""
        entry = self._current.get(fingerprint)
        if entry is not None:
            return entry.cid
        for table in reversed(self._previous):
            entry = table.get(fingerprint)
            if entry is not None:
                return entry.cid
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_tables(self) -> List[Dict[bytes, CacheEntry]]:
        """Snapshot the previous tables (oldest first) for checkpointing.

        Only legal between versions (T2 must be empty): checkpoints are
        version boundaries, matching the paper's per-version lifecycle.
        """
        if self._current:
            raise IndexError_("cannot export mid-version (T2 is not empty)")
        return [dict(table) for table in self._previous]

    def restore_tables(self, tables: List[Dict[bytes, CacheEntry]]) -> None:
        """Reinstate previously exported tables (oldest first)."""
        if self._previous or self._current:
            raise IndexError_("restore_tables requires an empty cache")
        if len(tables) > self.history_depth:
            raise IndexError_(
                f"{len(tables)} tables exceed history depth {self.history_depth}"
            )
        self._previous = [dict(table) for table in tables]
        self.dirty = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_size(self) -> int:
        return len(self._current)

    @property
    def previous_size(self) -> int:
        return sum(len(t) for t in self._previous)

    @property
    def transient_bytes(self) -> int:
        """Scratch memory: 28 bytes per cached entry (paper's §4.1 estimate)."""
        return (self.current_size + self.previous_size) * RECIPE_ENTRY_SIZE

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __contains__(self, fingerprint: bytes) -> bool:
        if fingerprint in self._current:
            return True
        return any(fingerprint in table for table in self._previous)
