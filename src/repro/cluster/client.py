"""The client-side cluster router: tenant → daemon, with replica failover.

:class:`ClusterClient` is what ``--cluster HOST:PORT,...`` turns the CLI
into.  It bootstraps a :class:`~repro.cluster.map.ClusterMap` from any
reachable seed daemon (adopting the highest epoch it sees — epoch-based
invalidation, never a downgrade), keeps **one shared connection pool per
daemon address** regardless of how many tenants route there, and hands out
:class:`RoutedRepository` objects that keep the
:class:`~repro.repository.Repository` contract like a
:class:`~repro.client.remote.RemoteRepository` but resolve their daemon
through the ring:

* **mutating operations** (``backup_*``, ``delete_oldest``) go to the
  tenant's ring *primary* and never blindly fail over — a write landing
  on a replica would fork the tenant's history.  When the primary is
  *dead* (transport failure) or answers :class:`~repro.errors.NotPrimaryError`,
  the router enters a bounded retry loop: re-``refresh()`` the map until
  a **newer epoch names a different primary** (the health-probe promotion
  made by the dead node's ring successor), then retry exactly once on
  that new primary — never on the node that failed, never on a replica;
* **idempotent reads** (``versions``, ``stats``, ``verify``, opening a
  restore) walk the tenant's placement list — primary first, then ring
  successors — on *transport* failure only.  A typed domain error from a
  live daemon (say :class:`~repro.errors.VersionNotFoundError`) is an
  authoritative answer, not a reason to ask a replica;
* a **restore that dies mid-stream** is resumed on the next placement
  node: the router counts the bytes it already yielded, reopens the same
  version on the replica (replicas are byte-level mirrors, so the stream
  is identical), discards exactly that many bytes, and continues — the
  caller sees one uninterrupted, byte-identical stream.  This is the
  client half of the paper's restore-path argument: replica containers
  preserve the same physical locality, so a failover restore costs one
  reopen, not a re-chunk.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple

from ..client.remote import ConnectionPool, RemoteRepository, parse_address
from ..client.retry import retry, transport_failure
from ..errors import ClusterError, NotPrimaryError, ReproError
from ..observability import EventLogger, MetricsRegistry, get_registry
from ..repository import FilePlan, Repository, restore_workers
from .map import ClusterMap, NodeSpec, newer_map

#: Seconds between map re-polls while a failed write waits for a promotion.
WRITE_RETRY_INTERVAL = 0.25


def _write_failed_over(exc: BaseException) -> bool:
    """Should a failed write wait for a new primary?  On transport trouble
    (the node is dead) or the node's own fence (its map moved on)."""
    return transport_failure(exc) or isinstance(exc, NotPrimaryError)


class _NoNewPrimary(Exception):
    """The polled map names no new primary yet (or no seed served one)."""


class ClusterClient:
    """Router + map cache over one sharded cluster.

    Args:
        seeds: daemon addresses (``"host:port"``) to bootstrap the map
            from; any one reachable seed is enough.
        cluster_map: optionally start from a known map (e.g. the spec
            file) instead of — not in place of — seed discovery; the
            freshest epoch still wins.
        timeout / retries / pool_size / retry_budget_seconds:
            forwarded to every underlying :class:`RemoteRepository`
            (``retry_budget_seconds`` bounds one operation's total retry
            wall-clock *per node*; exhaustion is a transport failure, so the
            router moves on instead of waiting out a flapping daemon).
        write_retry_timeout: how long (seconds) a failed *write* may wait
            for a failover promotion to surface a new primary before
            giving up (0 disables write retries entirely — the original
            failure propagates); the map is re-polled every
            :data:`WRITE_RETRY_INTERVAL` seconds inside that window.
    """

    def __init__(
        self,
        seeds: Iterable[str],
        cluster_map: Optional[ClusterMap] = None,
        timeout: float = 30.0,
        retries: int = 3,
        pool_size: int = 2,
        event_log: Optional[EventLogger] = None,
        metrics: Optional[MetricsRegistry] = None,
        write_retry_timeout: float = 15.0,
        retry_budget_seconds: float = 0.0,
    ) -> None:
        self.seeds = [s.strip() for s in seeds if s and s.strip()]
        if not self.seeds and cluster_map is None:
            raise ClusterError("a cluster client needs seed addresses or a map")
        self.map = cluster_map
        self.timeout = timeout
        self.retries = retries
        self.retry_budget_seconds = retry_budget_seconds
        self.pool_size = pool_size
        self.events = event_log if event_log is not None else EventLogger()
        self.metrics = metrics if metrics is not None else get_registry()
        self.write_retry_timeout = write_retry_timeout
        #: True when the last :meth:`refresh` could not reach ANY node and
        #: is serving a possibly stale cached map (``cluster status`` shows
        #: this so an operator knows the routing picture may be old).
        self.map_stale = False
        self._pools: Dict[str, ConnectionPool] = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def pool_for(self, address: str) -> ConnectionPool:
        """The shared per-address pool (created on first use)."""
        pool = self._pools.get(address)
        if pool is None:
            pool = ConnectionPool(
                parse_address(address), self.timeout, self.pool_size,
                metrics=self.metrics, events=self.events,
            )
            self._pools[address] = pool
        return pool

    def remote(self, address: str, tenant: str) -> RemoteRepository:
        """A :class:`RemoteRepository` for ``tenant`` on one daemon,
        borrowing the shared pool for that address."""
        return RemoteRepository(
            address, tenant, timeout=self.timeout, retries=self.retries,
            event_log=self.events, metrics=self.metrics,
            pool=self.pool_for(address),
            retry_budget_seconds=self.retry_budget_seconds,
        )

    def close(self) -> None:
        pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Map discovery
    # ------------------------------------------------------------------
    def refresh(self) -> ClusterMap:
        """Adopt the freshest cluster map any seed or known node serves.

        Every address is asked; the highest epoch wins (a router must
        never *downgrade* — a stale daemon rejoining after a rebalance
        still serves the old epoch).  Raises :class:`ClusterError` only
        when no address yields a map at all.
        """
        addresses = list(dict.fromkeys(
            self.seeds + ([n.address for n in self.map.nodes] if self.map else [])
        ))
        freshest = self.map
        errors: List[str] = []
        served = 0
        for address in addresses:
            try:
                reply = self.remote(address, "-").cluster_map()
            except (ReproError, OSError) as exc:
                errors.append(f"{address}: {type(exc).__name__}: {exc}")
                continue
            doc = reply.get("map")
            if doc is None:
                errors.append(f"{address}: daemon is not part of a cluster")
                continue
            served += 1
            freshest = newer_map(freshest, ClusterMap.from_doc(doc))
        self.map_stale = served == 0
        if self.map_stale:
            # Whatever we return below is at best the cached picture; say
            # so loudly rather than silently routing on old placement.
            self.metrics.inc("cluster.map_refresh_errors")
            self.events.log(
                "cluster_map_refresh_failed",
                epoch=freshest.epoch if freshest is not None else None,
                errors=errors[:8],
            )
        if freshest is None:
            raise ClusterError(
                "no seed served a cluster map: " + "; ".join(errors)
            )
        if self.map is None or freshest.epoch != self.map.epoch:
            self.events.log(
                "cluster_map_adopted",
                epoch=freshest.epoch,
                nodes=[n.name for n in freshest.nodes],
                down=freshest.down_names(),
            )
        self.map = freshest
        self._prune_pools(freshest)
        return freshest

    def _prune_pools(self, cmap: ClusterMap) -> None:
        """Close pools for addresses the adopted map no longer lists.

        Membership changes (and failover address swaps) would otherwise
        leak one pool — a few idle sockets plus their buffers — per
        departed daemon for the life of the router.
        """
        keep = {node.address for node in cmap.nodes}
        stale = [address for address in self._pools if address not in keep]
        for address in stale:
            self._pools.pop(address).close()
        if stale:
            self.metrics.inc("cluster.pools_pruned", len(stale))
            self.events.log("cluster_pools_pruned", addresses=sorted(stale))

    def require_map(self) -> ClusterMap:
        if self.map is None:
            self.refresh()
        assert self.map is not None
        return self.map

    def placement(self, tenant: str) -> List[NodeSpec]:
        """The tenant's copy holders under the current map, primary first."""
        return self.require_map().placement(tenant)

    def repo(self, tenant: str) -> "RoutedRepository":
        """The routed façade for one tenant."""
        return RoutedRepository(self, tenant)

    # ------------------------------------------------------------------
    # Operator views
    # ------------------------------------------------------------------
    def status(self, with_metrics: bool = False) -> Dict:
        """Per-node liveness + stats for ``hidestore cluster status``.

        One remote (one shared-pool borrow) per node serves both probes.
        A node that answers ``CLUSTER_MAP`` but fails ``STATS`` is
        reported alive with a ``stats_error`` — reachable-but-degraded is
        operationally very different from dead.
        """
        try:
            # Operators read status after incidents: show the freshest
            # epoch (promotions, down markers), not the spec-file view.
            self.refresh()
        except ClusterError:
            pass  # no map from anywhere; require_map raises if none cached
        cmap = self.require_map()
        nodes = []
        for node in cmap.nodes:
            row: Dict = {"name": node.name, "address": node.address}
            if node.down:
                row["marked_down"] = True
            remote = self.remote(node.address, "-")
            try:
                view = remote.cluster_map()
            except (ReproError, OSError) as exc:
                row.update(alive=False, error=f"{type(exc).__name__}: {exc}")
                nodes.append(row)
                continue
            doc = view.get("map") or {}
            row.update(
                alive=True,
                draining=bool(view.get("draining")),
                epoch=doc.get("epoch"),
                node=view.get("node"),
            )
            try:
                stats = remote.server_stats()
            except (ReproError, OSError) as exc:
                row["stats_error"] = f"{type(exc).__name__}: {exc}"
                nodes.append(row)
                continue
            server = stats.get("server", {})
            row.update(
                tenants=sorted(stats.get("repos", {})),
                uptime_seconds=round(float(server.get("uptime_seconds", 0.0)), 1),
                active_connections=server.get("active_connections"),
            )
            if with_metrics:
                snapshot = stats.get("metrics", {})
                counters = snapshot.get("counters", snapshot) or {}
                row["cluster_metrics"] = {
                    key: value for key, value in sorted(counters.items())
                    if key.startswith("cluster.")
                }
            nodes.append(row)
        return {
            "epoch": cmap.epoch,
            "replicas": cmap.replicas,
            "stale": self.map_stale,
            "down": cmap.down_names(),
            "nodes": nodes,
        }

    def sync_all(self) -> List[Dict]:
        """Ask every live node to replicate its owned tenants (``cluster sync``)."""
        reports = []
        for node in self.require_map().nodes:
            try:
                reports.append(self.remote(node.address, "-").cluster_sync())
            except (ReproError, OSError) as exc:
                reports.append({
                    "node": node.name,
                    "error": f"{type(exc).__name__}: {exc}",
                })
        return reports


class RoutedRepository(Repository):
    """One tenant, addressed by placement instead of by daemon.

    Keeps the :class:`~repro.repository.Repository` contract, so
    ``--cluster`` slots in wherever ``--remote`` did.
    """

    def __init__(self, client: ClusterClient, tenant: str) -> None:
        self.client = client
        self.repo = tenant

    def close(self) -> None:
        """Close the router's idle connections; it reconnects on next use."""
        self.client.close()

    # ------------------------------------------------------------------
    def _primary_remote(self) -> RemoteRepository:
        primary = self.client.placement(self.repo)[0]
        self.client.metrics.inc("cluster.client_requests_routed")
        return self.client.remote(primary.address, self.repo)

    def _over_placement(self, op_name: str, operation):
        """Run an idempotent operation against the placement list.

        ``operation`` receives a :class:`RemoteRepository`; transport
        failures walk to the next copy holder, anything typed propagates.
        """
        nodes = self.client.placement(self.repo)
        self.client.metrics.inc("cluster.client_requests_routed")
        return self._walk(op_name, nodes, 0, operation)[1]

    def _walk(self, op_name: str, nodes: List[NodeSpec], start: int, operation):
        """The one placement walk: ``operation`` on each of ``nodes[start:]``
        in turn until one answers; returns ``(index, answer)``.  A
        :func:`~repro.client.retry.transport_failure` moves on (a
        ``cluster_failover``), anything else propagates."""
        errors: List[str] = []
        for index in range(start, len(nodes)):
            node = nodes[index]
            try:
                return index, operation(self.client.remote(node.address, self.repo))
            except BaseException as exc:
                if not transport_failure(exc):
                    raise
                errors.append(f"{node.name} ({node.address}): {type(exc).__name__}: {exc}")
                if index + 1 < len(nodes):
                    self._note_failover(op_name, node, nodes[index + 1], exc)
        raise ClusterError(
            f"all {len(nodes)} copy holders of {self.repo!r} failed for "
            f"{op_name}: " + "; ".join(errors)
        )

    # ------------------------------------------------------------------
    # Mutating operations: current primary only, retried ONLY onto a
    # newer map's new primary (failover promotion) — never onto a replica
    # ------------------------------------------------------------------
    def _write_with_failover(self, op_name: str, attempt):
        """Run a mutating ``attempt`` with the bounded failover retry.

        ``attempt`` receives a :class:`RemoteRepository` bound to the
        tenant's current primary.  On a transport failure (dead daemon) or
        a :class:`NotPrimaryError` (the daemon's own fence says the map
        moved on), the router polls :meth:`ClusterClient.refresh` every
        :data:`WRITE_RETRY_INTERVAL` for up to ``write_retry_timeout``
        seconds (the one :func:`~repro.client.retry.retry` loop) waiting
        for a map whose primary is a *different node* — the promotion
        minted by the dead node's ring successor — and retries there.  The
        failed node is never re-sent the write, and a replica is never
        written to directly: the only retry target the loop accepts is
        whatever a newer map names as primary.
        """
        client = self.client
        primary = client.placement(self.repo)[0]
        client.metrics.inc("cluster.client_requests_routed")
        try:
            return attempt(client.remote(primary.address, self.repo))
        except BaseException as exc:
            if client.write_retry_timeout <= 0 or not _write_failed_over(exc):
                raise
            failed, error = primary.name, exc  # the node the write last failed on, and why

        def on_new_primary():
            nonlocal failed, error
            try:
                fresh = client.refresh()
            except ClusterError as exc:
                error = exc
                raise _NoNewPrimary() from None
            node = fresh.placement(self.repo)[0]
            if node.name == failed:
                raise _NoNewPrimary()
            client.metrics.inc("cluster.write_retries")
            client.events.log(
                "cluster_write_failover",
                repo=self.repo,
                op=op_name,
                failed_node=failed,
                new_node=node.name,
                epoch=fresh.epoch,
                error=type(error).__name__,
            )
            try:
                return attempt(client.remote(node.address, self.repo))
            except BaseException as exc:
                if not _write_failed_over(exc):
                    raise
                # The new primary died too (or is still verify-fenced);
                # keep polling for yet another epoch until the deadline.
                failed, error = node.name, exc
                raise _NoNewPrimary() from None

        def gave_up(_last: Optional[BaseException]) -> NoReturn:
            raise ClusterError(
                f"{op_name} on {self.repo!r} failed on primary "
                f"{failed!r} and no failover promotion surfaced a new "
                f"primary within {client.write_retry_timeout:.1f}s: "
                f"{type(error).__name__}: {error}"
            ) from error

        try:
            return retry(
                on_new_primary,
                itertools.repeat(WRITE_RETRY_INTERVAL),
                retryable=lambda exc: isinstance(exc, _NoNewPrimary),
                timeout=client.write_retry_timeout,
                expired=gave_up,
            )
        finally:
            error = None  # its traceback holds this frame (see ``retry``)

    def backup_tree(self, entries: List[Tuple[str, str]], tag: str = "") -> Dict:
        # Entries are re-read from disk on each attempt, so the retry is
        # always safe to replay.
        return self._write_with_failover(
            "backup", lambda r: r.backup_tree(entries, tag)
        )

    def backup_blocks(self, blocks: Iterable[bytes], plan: FilePlan, tag: str = "") -> Dict:
        if isinstance(blocks, (list, tuple)):
            # Re-iterable payload: safe to replay on a promoted primary.
            return self._write_with_failover(
                "backup", lambda r: r.backup_blocks(iter(blocks), plan, tag)
            )
        # A one-shot iterator may be partially consumed by a failed
        # attempt; replaying it would upload a torn stream.  Single shot.
        return self._primary_remote().backup_blocks(blocks, plan, tag)

    def delete_oldest(self) -> Dict:
        return self._write_with_failover("delete_oldest", lambda r: r.delete_oldest())

    # ------------------------------------------------------------------
    # Idempotent operations: placement walk on transport failure
    # ------------------------------------------------------------------
    def versions(self) -> List[Dict]:
        return self._over_placement("versions", lambda r: r.versions())

    def stats(self) -> Dict:
        return self._over_placement("stats", lambda r: r.stats())

    def verify(self, deep: bool = False) -> Dict:
        return self._over_placement("verify", lambda r: r.verify(deep=deep))

    # ------------------------------------------------------------------
    # Restore: resumable replica failover
    # ------------------------------------------------------------------
    def restore(
        self,
        version_id: int,
        *,
        workers: Optional[int] = None,
        verify: bool = False,
        file: Optional[str] = None,
    ) -> Tuple[FilePlan, Iterator[bytes]]:
        """Open the restore on the first live copy holder; if the stream
        dies mid-flight, resume byte-exact on the next one."""
        restore_workers(workers)
        nodes = self.client.placement(self.repo)
        self.client.metrics.inc("cluster.client_requests_routed")
        kwargs = dict(workers=workers, verify=verify, file=file)

        def open_on(start: int, skip: int) -> Tuple[int, Tuple[FilePlan, Iterator[bytes]]]:
            """Open on nodes[start:], discarding ``skip`` already-yielded bytes."""

            def open_one(remote: RemoteRepository) -> Tuple[FilePlan, Iterator[bytes]]:
                plan, data = remote.restore(version_id, **kwargs)
                return plan, _skip_bytes(data, skip) if skip else data

            return self._walk("restore_open", nodes, start, open_one)

        index, (plan, data) = open_on(0, 0)

        def stream() -> Iterator[bytes]:
            at, current = index, data
            yielded = 0
            started = time.perf_counter()
            while True:
                try:
                    for block in current:
                        yielded += len(block)
                        yield block
                    return
                except BaseException as exc:
                    if not transport_failure(exc) or at + 1 >= len(nodes):
                        raise
                    self._note_failover(
                        "restore_stream", nodes[at], nodes[at + 1], exc, bytes_done=yielded
                    )
                    at, (_plan, current) = open_on(at + 1, yielded)
                    self.client.metrics.observe(
                        "cluster.failover_resume_seconds",
                        time.perf_counter() - started,
                    )

        return plan, stream()

    def _note_failover(
        self, op: str, failed: NodeSpec, next_node: NodeSpec, exc: BaseException,
        **extra,
    ) -> None:
        self.client.metrics.inc("cluster.client_failovers")
        self.client.events.log(
            "cluster_failover",
            repo=self.repo,
            op=op,
            failed_node=failed.name,
            next_node=next_node.name,
            error=type(exc).__name__,
            **extra,
        )


def _skip_bytes(blocks: Iterator[bytes], skip: int) -> Iterator[bytes]:
    """Drop exactly ``skip`` leading bytes from a block stream (resume)."""
    remaining = skip
    for block in blocks:
        if remaining >= len(block):
            remaining -= len(block)
            continue
        if remaining:
            yield block[remaining:]
            remaining = 0
        else:
            yield block
