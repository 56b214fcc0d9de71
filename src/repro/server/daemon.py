"""The asyncio backup daemon: the listener over hosted repositories.

It binds the socket, hands every connection to a
:class:`~repro.server.session._Session` (the frame conversation), paces the
background loops and *executes* the cluster control plane: the failover
policy is the pure, tick-driven :class:`~repro.cluster.controller.
FailoverController`; :meth:`BackupDaemon._run` performs the I/O its actions
name (a probe, a deep verify, a map offer, a resync) and feeds each outcome
back.

Shutdown is a graceful drain: the listener closes, new connections and
backups are refused (``ServerDrainingError``), in-flight sessions get
``drain_timeout`` seconds to finish, stragglers are cancelled into the
rollback path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, Optional, Set, Tuple

from ..client.remote import RemoteRepository
from ..cluster.controller import FailoverController, Note, Offer, Probe, Resync, Verify
from ..cluster.failover import pull_tenant
from ..cluster.map import ClusterMap
from ..errors import ClusterError, RepositoryNotFoundError, ReproError
from ..observability import EventLogger, MetricsRegistry, get_registry
from ..replication.session import ReplicationSession, SyncReport
from ..replication.targets import RemoteMirror
from .registry import RepositoryRegistry
from .session import _Session


class BackupDaemon:
    """The multi-tenant asyncio backup service.

    Every backup or restore stream runs on one engine thread that owns the
    connection for the stream's length (:mod:`repro.server.session`), so
    TCP's window paces the client and a stream holds one frame of server
    memory however fast the client sends.  There is no window to size.

    Args:
        root: directory holding one repository subdirectory per tenant.
        host / port: listen address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        restore_workers: server-side cap on the restore container-reader
            pool a client may ask for with ``RESTORE_BEGIN``'s ``workers``;
            a request that names none is served serially.
        history_depth / compress: forwarded to newly created repositories
            (``history_depth >= 1``, checked here).
        drain_timeout: seconds in-flight sessions get to finish on
            :meth:`shutdown` before being cancelled into rollback.
        metrics: the :class:`MetricsRegistry` to record into (defaults to
            the process registry, so engine-layer timings land beside the
            daemon's own request histograms).
        event_log: structured event sink; defaults to the no-op logger.
        metrics_interval: seconds between periodic ``metrics_report``
            events in the event log (0 disables the reporter).
        cluster_map: the cluster this daemon belongs to — a
            :class:`~repro.cluster.map.ClusterMap` or its document form.
            A clustered daemon serves the map over ``CLUSTER_MAP``, counts
            routed traffic and failover-served restores, and can replicate
            its primary-owned tenants to their ring successors.
        node_name: this daemon's node name within ``cluster_map``.
        replicate_interval: seconds between automatic replica syncs of
            primary-owned tenants to their ring successors (0 disables;
            requires ``cluster_map`` + ``node_name``).
        probe_interval: seconds between health probes of this node's ring
            predecessor (0 disables; requires ``cluster_map`` +
            ``node_name``) — the tick of the
            :class:`~repro.cluster.controller.FailoverController`.
        probe_failures: consecutive probe failures before a predecessor is
            declared dead (>= 1).
        probe_timeout: per-probe connect/read deadline in seconds — kept
            short so a dead peer is detected in roughly
            ``probe_failures * (probe_interval + probe_timeout)``.
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        history_depth: int = 1,
        compress: bool = False,
        drain_timeout: float = 10.0,
        restore_workers: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        event_log: Optional[EventLogger] = None,
        metrics_interval: float = 0.0,
        cluster_map: Optional[object] = None,
        node_name: Optional[str] = None,
        replicate_interval: float = 0.0,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_timeout: float = 2.0,
    ) -> None:
        if restore_workers < 1:
            raise ReproError("restore_workers must be at least 1")
        if history_depth < 1:
            raise ReproError("history_depth must be at least 1")
        if cluster_map is not None and not isinstance(cluster_map, ClusterMap):
            cluster_map = ClusterMap.from_doc(cluster_map)
        self.node_name = node_name
        if cluster_map is not None and node_name and not cluster_map.has_node(node_name):
            raise ClusterError(
                f"node {node_name!r} is not in cluster map epoch {cluster_map.epoch}"
            )
        if replicate_interval > 0 and (cluster_map is None or not node_name):
            raise ClusterError("replicate_interval needs a cluster map and a node name")
        if probe_interval > 0 and (cluster_map is None or not node_name):
            raise ClusterError("probe_interval needs a cluster map and a node name")
        if probe_failures < 1:
            raise ClusterError(f"probe_failures must be >= 1, got {probe_failures}")
        #: The failover policy and every bit of its state (the adopted map
        #: included); ``None`` on an unclustered daemon.
        self.controller = (
            FailoverController(node_name, cluster_map, probe_failures)
            if cluster_map is not None else None
        )
        self.replicate_interval = replicate_interval
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.metrics = metrics if metrics is not None else get_registry()
        # Hosted repositories record their stage timings (chunking, dedup,
        # container I/O) into the daemon's registry, so STATS metrics tell
        # one consistent story per daemon.
        self.registry = RepositoryRegistry(root, history_depth, compress, self.metrics)
        self.host = host
        self.port = port
        self.restore_workers = restore_workers
        self.drain_timeout = drain_timeout
        self.events = event_log if event_log is not None else EventLogger()
        self.metrics_interval = metrics_interval
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Set[asyncio.Task] = set()
        #: Pacemaker loops and control-plane work in flight; the loop only
        #: holds tasks weakly, and shutdown cancels whatever is left.
        self._background: Set[asyncio.Task] = set()
        self._started = time.monotonic()
        self._session_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolves the real port for ``port=0``)."""
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        self._started = time.monotonic()
        self.port = self._server.sockets[0].getsockname()[1]
        self.events.log("daemon_start", address=self.address)
        if self.metrics_interval > 0:
            self._spawn(self._report_metrics())
        if self.replicate_interval > 0:
            self._spawn(self._replica_sync_loop())
        if self.probe_interval > 0:
            self._spawn(self._health_loop())

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _report_metrics(self) -> None:
        while True:
            await asyncio.sleep(self.metrics_interval)
            self.events.log(
                "metrics_report", metrics=self.metrics.snapshot(), server=self.server_stats()
            )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def cluster(self) -> Optional[ClusterMap]:
        """The cluster map this daemon currently holds (``None``: unclustered)."""
        return self.controller.cluster if self.controller is not None else None

    def is_primary(self, tenant: str) -> Optional[bool]:
        """Whether the map makes this node ``tenant``'s acting primary
        (``None`` when this daemon is not a node of a cluster)."""
        cluster, node = self.cluster, self.node_name
        if cluster is None or not node or not cluster.has_node(node):
            return None
        return cluster.is_primary(node, tenant)

    # ------------------------------------------------------------------
    # Listener partition
    # ------------------------------------------------------------------
    async def pause_accepting(self) -> None:
        """Close the listener without draining: a network partition.

        In-flight sessions keep running; *new* connections are refused
        until :meth:`resume_accepting` re-binds the same port.  The
        repository model (``tests/repository_machine.py``) partitions its
        mirror daemon this way — the daemon process
        stays healthy, only its front door disappears.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.events.log("daemon_pause_accepting", address=self.address)

    async def resume_accepting(self) -> None:
        """Heal a :meth:`pause_accepting` partition (re-bind the port)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port
            )
            self.events.log("daemon_resume_accepting", address=self.address)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def _accept(self, reader, writer) -> None:
        session = _Session(self, reader, writer)
        if self.draining:
            # Refused unregistered: shutdown has already taken the sessions
            # it drains, so it would neither await nor cancel this one.
            await session.refuse()
            return
        task = asyncio.current_task()
        self._sessions.add(task)
        try:
            await session.run()
        except asyncio.CancelledError:
            # Shutdown cancelled this session; the connection teardown in
            # session.run's finally already ran.  Finish quietly so asyncio's
            # stream machinery does not log the cancellation as a crash.
            pass
        finally:
            self._sessions.discard(task)

    # ------------------------------------------------------------------
    def note_session(self, kind: str) -> None:
        self._session_counts[kind] = self._session_counts.get(kind, 0) + 1

    def server_stats(self) -> Dict:
        return {
            "address": self.address,
            "uptime_seconds": time.monotonic() - self._started,
            "active_connections": len(self._sessions),
            "draining": self.draining,
            "requests": dict(self._session_counts),
        }

    # ------------------------------------------------------------------
    async def replicate_tenant(self, name: str, target) -> SyncReport:
        """Mirror one hosted tenant to ``target`` under its reader lock.

        The reader lock gives the sync a consistent snapshot — backups and
        ``delete_oldest`` (writers) wait until the sync finishes, while
        concurrent restores (readers) proceed.  A deletion landing after
        the sync propagates to the mirror on the *next* sync (§4.5 expiry
        tags make that an O(1) container-unlink on the mirror).
        """
        handle = self.registry.get(name)
        async with handle.reading():
            session = ReplicationSession(
                handle.repository.storage, target, metrics=self.metrics
            )
            report = await asyncio.to_thread(session.run)
        self.note_session("replicate")
        self.events.log("replicate_tenant", repo=name, **report.as_dict())
        return report

    # ------------------------------------------------------------------
    async def sync_owned(self, repo: Optional[str] = None) -> Dict:
        """Replicate this node's primary-owned tenants to their successors.

        The cluster's durability loop: each tenant whose ring primary is
        this node is shipped (O(delta), via :class:`ReplicationSession`) to
        every ring successor.  Tenants this node merely replicates are
        skipped — only primaries push, so replica state never forks.
        Per-successor failures are collected rather than fatal: one dead
        replica must not stop the others from staying fresh.
        """
        if self.cluster is None or not self.node_name:
            raise ClusterError("this daemon is not part of a cluster")
        if repo is not None:
            names = [self.registry.validate_name(repo)]
        else:
            names = await asyncio.to_thread(self.registry.repo_names)
        doc: Dict = {
            "node": self.node_name,
            "epoch": self.cluster.epoch,
            "synced": {},
            "skipped": [],
            "errors": {},
        }
        for name in names:
            if not self.is_primary(name):
                doc["skipped"].append(name)
                continue
            per_successor: Dict[str, Dict] = {}
            for succ in self.cluster.successors(name):
                mirror = RemoteMirror(succ.address, name)
                try:
                    report = await self.replicate_tenant(name, mirror)
                    per_successor[succ.name] = report.as_dict()
                    self.metrics.inc("cluster.replica_syncs")
                except (ReproError, OSError) as exc:
                    error = doc["errors"][f"{name}->{succ.name}"] = f"{type(exc).__name__}: {exc}"
                    self.metrics.inc("cluster.replica_sync_failures")
                    self.events.log(
                        "cluster_replica_sync_failed", repo=name, successor=succ.name, error=error
                    )
                finally:
                    await asyncio.to_thread(mirror.close)
            doc["synced"][name] = per_successor
        return doc

    async def _replica_sync_loop(self) -> None:
        """Background ``sync_owned`` pacemaker (``--replicate-interval``)."""
        while True:
            await asyncio.sleep(self.replicate_interval)
            if self.draining:
                return
            try:
                await self.sync_owned()
            except (ReproError, OSError) as exc:  # pragma: no cover - timing
                error = f"{type(exc).__name__}: {exc}"
                self.events.log("cluster_replica_sync_failed", repo="*", successor="*", error=error)

    # ------------------------------------------------------------------
    # Cluster control plane: execute what the FailoverController decides.
    # ------------------------------------------------------------------
    def _emit(self, outputs: list) -> list:
        """Log a controller step's notes; return the actions left to run."""
        actions = []
        for out in outputs:
            if isinstance(out, Note):
                if out.counter:
                    self.metrics.inc(out.counter)
                self.events.log(out.event, **out.fields)
            else:
                actions.append(out)
        return actions

    def adopt_cluster_map(self, doc: object, source: str = "peer") -> None:
        """Offer ``doc`` to the controller (adopted only if strictly newer)."""
        if self.controller is not None:
            for action in self._emit(self.controller.map_offered(doc, source)):
                self._spawn(self._run(action))

    async def ensure_write_primary(self, name: Optional[str]) -> None:
        """The write fence (:meth:`FailoverController.write_gate`): raises
        :class:`NotPrimaryError` unless this node may mutate ``name``,
        deep-verifying a promoted replica first.  Unclustered daemons are
        unaffected."""
        while self.controller is not None and name:
            verify = self.controller.write_gate(name)
            if verify is None:
                return
            await self._run(verify)

    async def _health_loop(self) -> None:
        """The controller's clock: one tick per probe interval."""
        while True:
            await asyncio.sleep(self.probe_interval)
            if self.draining:
                return
            for action in self._emit(self.controller.tick()):
                await self._run(action)

    async def _run(self, action) -> None:
        """Perform one action's I/O, feed the outcome back, run what follows."""
        controller = self.controller
        if isinstance(action, Resync):
            # Seconds of pulling: its own task, so probing and serving go on.
            self._spawn(self._resync())
            return
        follow: list = []
        if isinstance(action, Probe):
            try:
                peer_doc = await asyncio.to_thread(
                    self._probe_once, action.address, action.offer
                )
                follow = controller.probe_result(action.target, True, peer_doc)
            except (ReproError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                try:
                    hosted = await asyncio.to_thread(self.registry.repo_names)
                except (ReproError, OSError):
                    hosted = []  # unknown: the write gate verifies lazily instead
                follow = controller.probe_result(action.target, False, hosted=hosted, error=error)
        elif isinstance(action, Verify):
            ok, detail = await self._deep_verify(action.tenant)
            follow = controller.verify_result(action.tenant, action.epoch, ok, detail)
        elif isinstance(action, Offer):
            try:
                await asyncio.to_thread(self._probe_once, action.address, action.doc)
            except (ReproError, OSError):  # pragma: no cover - peer down
                pass  # best effort: the peer's own probes are the backstop
        for step in self._emit(follow):
            await self._run(step)

    def _probe_once(self, address: str, offer: Dict) -> Optional[Dict]:
        """One blocking ``CLUSTER_MAP`` round-trip (runs in a worker thread)
        with ``offer`` attached; returns the peer's map.  Short timeout, no
        retries — the controller owns the consecutive-failure counting."""
        remote = RemoteRepository(address, "-", timeout=self.probe_timeout, retries=1, backoff=0.0)
        try:
            return remote.cluster_map(offer=offer).get("map")
        finally:
            remote.close()

    async def _deep_verify(self, name: str) -> Tuple[bool, Dict]:
        """Re-hash every chunk of the local replica of ``name`` — the
        verify-before-drop check repurposed as verify-before-serve.
        Returns the verdict and the fields its event carries."""
        try:
            handle = self.registry.get(name)
        except RepositoryNotFoundError:
            return False, {"error": "no local replica"}
        try:
            async with handle.reading():
                report = await asyncio.to_thread(handle.repository.verify, True)
        except (ReproError, OSError) as exc:
            return False, {"error": f"{type(exc).__name__}: {exc}"}
        if report.get("ok"):
            return True, {
                "entries": report.get("entries_checked"),
                "verify_seconds": report.get("seconds"),
            }
        return False, {
            "error": report.get("summary", "verify failed"),
            "verify_seconds": report.get("seconds"),
        }

    async def _resync(self) -> None:
        """Pull every hosted tenant back in sync from its acting primary.

        Runs on a daemon that discovered (via map adoption) it was marked
        down while it was away: whatever it missed lives on the promoted
        primaries now.  Each pull is the O(delta) planner diff plus the
        revive gate's deep verify (:func:`~repro.cluster.failover.
        pull_tenant`) under the tenant's write lock, so a concurrent
        restore never sees a torn copy.
        """
        cluster = self.cluster
        clean = False  # cancelled or broken is never a licence to revive
        try:
            dirty = 0
            for name in await asyncio.to_thread(self.registry.repo_names):
                acting = cluster.primary(name)
                if acting.name == self.node_name or acting.down:
                    continue
                remote = RemoteRepository(
                    acting.address, name, timeout=max(self.probe_timeout, 10.0),
                    retries=1, backoff=0.0,
                )
                try:
                    handle = self.registry.get(name)
                    async with handle.lock.write_locked():
                        pulled = await asyncio.to_thread(
                            pull_tenant, remote, handle.repository
                        )
                    dirty += not pulled["verified"]
                    self.metrics.inc("cluster.resyncs")
                    self.events.log(
                        "cluster_resync", repo=name, source=acting.name, **pulled
                    )
                except (ReproError, OSError) as exc:
                    dirty += 1
                    self.metrics.inc("cluster.resync_failures")
                    self.events.log(
                        "cluster_resync_failed", repo=name, source=acting.name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                finally:
                    await asyncio.to_thread(remote.close)
            clean = not dirty
        finally:
            self._emit(self.controller.resync_result(cluster.epoch, clean))

    # ------------------------------------------------------------------
    async def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: stop accepting, let sessions finish, then cancel.

        In-flight backups either complete within the drain window or are
        cancelled — cancellation aborts the engine thread, which rolls the
        repository back before the session task finishes, so this method
        only returns once every repository is in a clean state.
        """
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        self.draining = True
        for task in list(self._background):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in self._sessions if not t.done()]
        if tasks and timeout > 0:
            _done, pending = await asyncio.wait(tasks, timeout=timeout)
            tasks = list(pending)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=max(5.0, timeout))
        self.events.log("daemon_stop", address=self.address)


class DaemonThread:
    """Run a :class:`BackupDaemon` on a background event-loop thread.

    The harness the tests, benchmarks and examples use::

        with DaemonThread(root) as address:
            RemoteRepository(address, "tenant").backup_tree(...)

    ``kill()`` models an operator SIGTERM with no drain patience: in-flight
    backups are cancelled and rolled back before it returns.
    """

    def __init__(self, root: str, **daemon_kwargs) -> None:
        self.daemon = BackupDaemon(root, **daemon_kwargs)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name="backup-daemon", daemon=True)
        self._stopped = False
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.daemon.start())
        except BaseException as exc:
            # Stash the failure (port already bound, bad address, ...) for
            # start() to re-raise immediately instead of timing out.
            self._startup_error = exc
        self._ready.set()
        if self._startup_error is None:
            self._loop.run_forever()
        # End what is left while the loop still runs: a task closed with
        # the loop would run its ``finally`` (a writer's close) on a dead one.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    def start(self) -> str:
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ReproError("backup daemon failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self.daemon.address

    @property
    def address(self) -> str:
        return self.daemon.address

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Drain gracefully, stop the loop, join the thread."""
        if self._stopped:
            return
        self._stopped = True
        if self._startup_error is not None or not self._thread.is_alive():
            self._thread.join(timeout=10)
            return
        self._call(self.daemon.shutdown(drain_timeout), timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def kill(self) -> None:
        """Shut down with zero drain patience (in-flight work rolls back)."""
        self.stop(drain_timeout=0)

    def _call(self, coro, timeout: float) -> None:
        asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=timeout)

    def pause_accepting(self, timeout: float = 10.0) -> None:
        """Partition this daemon: refuse new connections."""
        self._call(self.daemon.pause_accepting(), timeout)

    def resume_accepting(self, timeout: float = 10.0) -> None:
        """Heal a :meth:`pause_accepting` partition."""
        self._call(self.daemon.resume_accepting(), timeout)

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
