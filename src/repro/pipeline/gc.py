"""Traditional expired-version deletion: mark, sweep, copy (the §5.5 foil).

A traditional deduplication store cannot simply drop an expired version's
chunks — other versions may reference them, and live/dead chunks are
interleaved inside containers (paper Fig. 2).  Deletion therefore costs:

1. **Mark**: scan *every retained recipe* to find which of the victim's
   chunks are still referenced.
2. **Sweep**: containers whose chunks are all dead are deleted outright.
3. **Copy GC**: containers mixing live and dead chunks are rewritten —
   live chunks copied into fresh containers — and **every retained recipe**
   referencing a moved chunk must be updated.

This module implements that machinery faithfully for
:class:`~repro.pipeline.system.BackupSystem`, so the §5.5 benchmark can
compare real costs instead of hand-waving: HiDeStore's deletion is O(dead
containers); this is O(retained recipes + rewritten containers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Set

from ..errors import DeletionError
from ..storage.container import Container
from .system import BackupSystem


@dataclass
class GCStats:
    """Costs of one traditional deletion."""

    recipes_scanned: int = 0
    chunks_marked_dead: int = 0
    containers_deleted: int = 0
    containers_rewritten: int = 0
    bytes_copied: int = 0
    bytes_reclaimed: int = 0
    recipes_rewritten: int = 0
    mark_seconds: float = 0.0
    sweep_seconds: float = 0.0


class GCDeletionManager:
    """Mark-sweep-copy deletion for the traditional pipeline.

    Args:
        system: the backup system whose stores are garbage-collected.
        utilization_threshold: containers whose *live* utilisation falls
            below this after marking are rewritten (copy GC); above it the
            dead bytes are left in place as permanent fragmentation (what
            real systems do to bound GC cost — 1.0 rewrites any container
            with any dead byte).
    """

    def __init__(self, system: BackupSystem, utilization_threshold: float = 1.0) -> None:
        if not (0.0 <= utilization_threshold <= 1.0):
            raise DeletionError("utilization_threshold must be in [0, 1]")
        self.system = system
        self.utilization_threshold = utilization_threshold

    # ------------------------------------------------------------------
    def delete_version(self, version_id: int) -> GCStats:
        """Expire ``version_id`` the traditional way; returns the cost bill."""
        recipes = self.system.recipes
        containers = self.system.containers
        if version_id not in recipes:
            raise DeletionError(f"version {version_id} is not retained")
        stats = GCStats()

        # ---- Mark: victim chunks still referenced elsewhere stay live.
        started = time.perf_counter()
        victim = recipes.peek(version_id)
        victim_fps: Set[bytes] = {e.fingerprint for e in victim.entries}
        retained = [v for v in recipes.version_ids() if v != version_id]
        live: Set[bytes] = set()
        for other in retained:
            recipe = recipes.peek(other)
            stats.recipes_scanned += 1
            for entry in recipe.entries:
                if entry.fingerprint in victim_fps:
                    live.add(entry.fingerprint)
        dead = victim_fps - live
        stats.chunks_marked_dead = len(dead)
        stats.mark_seconds = time.perf_counter() - started

        # ---- Sweep + copy: walk containers referenced by the victim.
        started = time.perf_counter()
        victim_cids = {e.cid for e in victim.entries if e.cid > 0}
        relocations: Dict[bytes, int] = {}
        target: Container = None
        new_cids: List[int] = []
        for cid in sorted(victim_cids):
            if cid not in containers:
                continue  # already collected via an earlier deletion
            container = containers.peek(cid)
            held = set(container.fingerprints())
            dead_here = held & dead
            if not dead_here:
                continue  # fully live: untouched
            live_here = held - dead_here
            dead_bytes = sum(container.index[fp][1] for fp in dead_here)
            live_bytes = container.used - dead_bytes
            if not live_here:
                # Fully dead: reclaim the container outright.
                stats.bytes_reclaimed += container.used
                containers.delete(cid)
                stats.containers_deleted += 1
                continue
            if live_bytes / container.capacity >= self.utilization_threshold:
                continue  # live-dense enough: tolerate the dead bytes
            # Copy GC: move live chunks to fresh containers.
            for fp in sorted(live_here):
                chunk = container.get_chunk(fp)
                if target is None or not target.fits(chunk.size):
                    if target is not None:
                        containers.write(target)
                    target = containers.allocate()
                    new_cids.append(target.container_id)
                target.add(chunk)
                relocations[fp] = target.container_id
                stats.bytes_copied += chunk.size
            stats.bytes_reclaimed += dead_bytes
            containers.delete(cid)
            stats.containers_rewritten += 1
        if target is not None and not target.is_empty:
            containers.write(target)

        # ---- Fix-up: every retained recipe referencing a moved chunk.
        if relocations:
            for other in retained:
                recipe = recipes.peek(other)
                changed = False
                for entry in recipe.entries:
                    new_cid = relocations.get(entry.fingerprint)
                    if new_cid is not None and entry.cid != new_cid:
                        entry.cid = new_cid
                        changed = True
                if changed:  # the rewrite HiDeStore's §4.5 expiry never pays
                    recipes.delete(other)
                    recipes.write(recipe)
                    stats.recipes_rewritten += 1
            # The index must also learn the new locations.
            for fp, cid in relocations.items():
                from ..chunking.stream import Chunk

                size = 1  # size is irrelevant for location updates
                self.system.index.record(Chunk(fp, size), cid)

        recipes.delete(version_id)
        stats.sweep_seconds = time.perf_counter() - started
        return stats
