"""The backup daemon: the listener over hosted repositories.

It binds the socket and serves every accepted connection on a thread of
its own (:class:`~repro.server.session._Session`, the frame
conversation), paces the background loops and *executes* the cluster
control plane: the failover policy is the pure, tick-driven
:class:`~repro.cluster.controller.FailoverController`;
:meth:`BackupDaemon._run` performs the I/O its actions name (a probe, a
deep verify, a map offer, a resync) and feeds each outcome back.  Every
controller call goes through one lock, never held across that I/O.

Shutdown is a graceful drain: the listener closes, new connections and
backups are refused (``ServerDrainingError``), sessions parked between
requests are shut down at once, requests in flight get ``drain_timeout``
seconds to finish, and the stragglers' sockets are shut down, which sends
a backup into its rollback.
"""

from __future__ import annotations

import socket
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
    """The multi-tenant backup service: a blocking thread per connection.

    Every backup or restore stream runs inline on its connection's session
    thread (:mod:`repro.server.session`), so TCP's window paces the client
    and a stream holds one frame of server memory however fast the client
    sends.  There is no window to size.

    Args:
        root: directory holding one repository subdirectory per tenant.
        host / port: listen address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        restore_workers: server-side cap on the restore container-reader
            pool a client may ask for with ``RESTORE_BEGIN``'s ``workers``;
            a request that names none is served serially.
        history_depth / compress: forwarded to newly created repositories
            (``history_depth >= 1``, checked here).
        drain_timeout: seconds in-flight requests get to finish on
            :meth:`shutdown` before their sockets are shut down (a backup
            then rolls back).
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
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        #: Live session threads, and the pacemakers and control-plane work
        #: in flight; shutdown joins both.  ``_lock`` guards them, the
        #: request counts and ``draining``'s flip.
        self._sessions: Set[_Session] = set()
        self._background: Set[threading.Thread] = set()
        self._session_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every FailoverController call, one at a time (never across I/O).
        self._control = threading.Lock()
        #: Serialises start, pause/resume and shutdown.
        self._life = threading.Lock()
        #: Set by shutdown: the pacemakers end, no background work starts.
        self._stop = threading.Event()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the listener (resolves the real port for ``port=0``)."""
        with self._life:
            self._listen()
        self._started = time.monotonic()
        self.events.log("daemon_start", address=self.address)
        for interval, work, name in (
            (self.metrics_interval, self._report_metrics, "daemon-metrics"),
            (self.replicate_interval, self._sync_replicas, "daemon-replica-sync"),
            (self.probe_interval, self._tick, "daemon-health"),
        ):
            if interval > 0:
                self._spawn(self._every, interval, work, name=name)

    def _spawn(self, target, *args, name: str = "daemon-control") -> None:
        """Run ``target(*args)`` on a background thread shutdown joins;
        nothing starts once shutdown has begun."""

        def body() -> None:
            try:
                target(*args)
            finally:
                with self._lock:
                    self._background.discard(thread)

        thread = threading.Thread(target=body, name=name, daemon=True)
        with self._lock:
            if self._stop.is_set():
                return
            self._background.add(thread)
            thread.start()

    def _every(self, interval: float, work) -> None:
        """A pacemaker: ``work()`` once per ``interval`` until shutdown."""
        while not self._stop.wait(interval):
            work()

    def _report_metrics(self) -> None:
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
    def pause_accepting(self) -> None:
        """Close the listener without draining: a network partition.

        In-flight sessions keep running; *new* connections are refused
        until :meth:`resume_accepting` re-binds the same port.  The
        repository model (``tests/repository_machine.py``) partitions its
        mirror daemon this way — the daemon process
        stays healthy, only its front door disappears.
        """
        with self._life:
            if self._close_listener():
                self.events.log("daemon_pause_accepting", address=self.address)

    def resume_accepting(self) -> None:
        """Heal a :meth:`pause_accepting` partition (re-bind the port);
        a daemon shut down stays shut."""
        with self._life:
            if self._listener is None and not self._stop.is_set():
                self._listen()
                self.events.log("daemon_resume_accepting", address=self.address)

    def _listen(self) -> None:
        family = socket.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM)[0][0]
        listener = socket.create_server((self.host, self.port), family=family, backlog=100)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(listener,), name="daemon-accept", daemon=True
        )
        self._acceptor.start()

    def _close_listener(self) -> bool:
        """Close the listener and join its acceptor: once this returns no
        session is added.  False when there was none."""
        listener, self._listener = self._listener, None
        if listener is None:
            return False
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept in flight
        except OSError:
            pass
        listener.close()
        self._acceptor.join()
        return True

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                if self._listener is not listener:
                    return  # closed by pause_accepting or shutdown
                self._stop.wait(0.1)  # out of descriptors, say: try again shortly
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                # A connection that arrives while draining is refused at
                # its HELLO; either way shutdown joins its thread.
                session = _Session(self, sock, refuse=self.draining)
                self._sessions.add(session)
            session.start()

    def session_ended(self, session: _Session) -> None:
        with self._lock:
            self._sessions.discard(session)

    # ------------------------------------------------------------------
    def note_session(self, kind: str) -> None:
        with self._lock:
            self._session_counts[kind] = self._session_counts.get(kind, 0) + 1

    def server_stats(self) -> Dict:
        with self._lock:
            active, requests = len(self._sessions), dict(self._session_counts)
        return {
            "address": self.address,
            "uptime_seconds": time.monotonic() - self._started,
            "active_connections": active,
            "draining": self.draining,
            "requests": requests,
        }

    # ------------------------------------------------------------------
    def replicate_tenant(self, name: str, target) -> SyncReport:
        """Mirror one hosted tenant to ``target`` under its reader lock.

        The reader lock gives the sync a consistent snapshot — backups and
        ``delete_oldest`` (writers) wait until the sync finishes, while
        concurrent restores (readers) proceed.  A deletion landing after
        the sync propagates to the mirror on the *next* sync (§4.5 expiry
        tags make that an O(1) container-unlink on the mirror).
        """
        handle = self.registry.get(name)
        with handle.reading():
            session = ReplicationSession(
                handle.repository.storage, target, metrics=self.metrics
            )
            report = session.run()
        self.note_session("replicate")
        self.events.log("replicate_tenant", repo=name, **report.as_dict())
        return report

    # ------------------------------------------------------------------
    def sync_owned(self, repo: Optional[str] = None) -> Dict:
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
            names = self.registry.repo_names()
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
                    report = self.replicate_tenant(name, mirror)
                    per_successor[succ.name] = report.as_dict()
                    self.metrics.inc("cluster.replica_syncs")
                except (ReproError, OSError) as exc:
                    error = doc["errors"][f"{name}->{succ.name}"] = f"{type(exc).__name__}: {exc}"
                    self.metrics.inc("cluster.replica_sync_failures")
                    self.events.log(
                        "cluster_replica_sync_failed", repo=name, successor=succ.name, error=error
                    )
                finally:
                    mirror.close()
            doc["synced"][name] = per_successor
        return doc

    def _sync_replicas(self) -> None:
        """One beat of the ``sync_owned`` pacemaker (``--replicate-interval``)."""
        if self.draining:
            return
        try:
            self.sync_owned()
        except (ReproError, OSError) as exc:  # pragma: no cover - timing
            error = f"{type(exc).__name__}: {exc}"
            self.events.log("cluster_replica_sync_failed", repo="*", successor="*", error=error)

    # ------------------------------------------------------------------
    # Cluster control plane: execute what the FailoverController decides.
    # ------------------------------------------------------------------
    def _step(self, call, *args, **kwargs) -> list:
        """One controller call under the controller lock; logs its notes
        and returns the actions left to run (outside the lock)."""
        actions = []
        with self._control:
            for out in call(*args, **kwargs):
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
            for action in self._step(self.controller.map_offered, doc, source):
                self._spawn(self._run, action)

    def ensure_write_primary(self, name: Optional[str]) -> None:
        """The write fence (:meth:`FailoverController.write_gate`): raises
        :class:`NotPrimaryError` unless this node may mutate ``name``,
        deep-verifying a promoted replica first.  Unclustered daemons are
        unaffected."""
        while self.controller is not None and name:
            with self._control:
                verify = self.controller.write_gate(name)
            if verify is None:
                return
            self._run(verify)

    def _tick(self) -> None:
        """The controller's clock: one tick per probe interval."""
        if self.draining:
            return
        for action in self._step(self.controller.tick):
            self._run(action)

    def _run(self, action) -> None:
        """Perform one action's I/O, feed the outcome back, run what follows."""
        controller = self.controller
        if isinstance(action, Resync):
            # Seconds of pulling: its own thread, so probing and serving go on.
            self._spawn(self._resync, name="daemon-resync")
            return
        follow: list = []
        if isinstance(action, Probe):
            try:
                peer_doc = self._probe_once(action.address, action.offer)
                follow = self._step(controller.probe_result, action.target, True, peer_doc)
            except (ReproError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                try:
                    hosted = self.registry.repo_names()
                except (ReproError, OSError):
                    hosted = []  # unknown: the write gate verifies lazily instead
                follow = self._step(
                    controller.probe_result, action.target, False, hosted=hosted, error=error
                )
        elif isinstance(action, Verify):
            ok, detail = self._deep_verify(action.tenant)
            follow = self._step(controller.verify_result, action.tenant, action.epoch, ok, detail)
        elif isinstance(action, Offer):
            try:
                self._probe_once(action.address, action.doc)
            except (ReproError, OSError):  # pragma: no cover - peer down
                pass  # best effort: the peer's own probes are the backstop
        for step in follow:
            self._run(step)

    def _probe_once(self, address: str, offer: Dict) -> Optional[Dict]:
        """One blocking ``CLUSTER_MAP`` round-trip with ``offer`` attached;
        returns the peer's map.  Short timeout, no retries — the
        controller owns the consecutive-failure counting."""
        remote = RemoteRepository(address, "-", timeout=self.probe_timeout, retries=1)
        try:
            return remote.cluster_map(offer=offer).get("map")
        finally:
            remote.close()

    def _deep_verify(self, name: str) -> Tuple[bool, Dict]:
        """Re-hash every chunk of the local replica of ``name`` — the
        verify-before-drop check repurposed as verify-before-serve.
        Returns the verdict and the fields its event carries."""
        try:
            handle = self.registry.get(name)
        except RepositoryNotFoundError:
            return False, {"error": "no local replica"}
        try:
            with handle.reading():
                report = handle.repository.verify(True)
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

    def _resync(self) -> None:
        """Pull every hosted tenant back in sync from its acting primary.

        Runs on a daemon that discovered (via map adoption) it was marked
        down while it was away: whatever it missed lives on the promoted
        primaries now.  Each pull is the O(delta) planner diff plus the
        revive gate's deep verify (:func:`~repro.cluster.failover.
        pull_tenant`) under the tenant's write lock, so a concurrent
        restore never sees a torn copy.
        """
        cluster = self.cluster
        clean = False  # stopped or broken is never a licence to revive
        try:
            dirty = 0
            for name in self.registry.repo_names():
                if self._stop.is_set():
                    dirty += 1  # shutting down: the rest stays unpulled
                    break
                acting = cluster.primary(name)
                if acting.name == self.node_name or acting.down:
                    continue
                remote = RemoteRepository(
                    acting.address, name, timeout=max(self.probe_timeout, 10.0),
                    retries=1,
                )
                try:
                    handle = self.registry.get(name)
                    with handle.lock.write_locked():
                        pulled = pull_tenant(remote, handle.repository)
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
                    remote.close()
            clean = not dirty
        finally:
            self._step(self.controller.resync_result, cluster.epoch, clean)

    # ------------------------------------------------------------------
    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: stop accepting, let requests finish, then abort.

        A session parked between requests (an idle pooled connection) is
        shut down at once, and one that finishes its request ends instead
        of waiting for the next.  Requests in flight get ``drain_timeout``
        seconds; the sockets of the sessions still serving one are then
        shut down, so a backup's engine fails
        its read and rolls the repository back, and a restore closes its
        stream.  Returns only once every session and background thread has
        ended: every repository is clean, committed or rolled back.  A
        second call returns at once.
        """
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        with self._life:
            if self._stop.is_set():
                return
            with self._lock:
                self.draining = True
                self._stop.set()
            self._close_listener()
            sessions = self._live(self._sessions)
            for session in sessions:
                session.abort(parked_only=True)  # between requests: nothing to drain
            deadline = time.monotonic() + timeout
            for session in sessions:
                session.join(max(0.0, deadline - time.monotonic()))
            stragglers = self._live(self._sessions)
            for session in stragglers:
                session.abort()
            for thread in stragglers + self._live(self._background):
                thread.join()
            self.events.log("daemon_stop", address=self.address)

    @property
    def stopping(self) -> bool:
        """:meth:`shutdown` has begun: sessions take no further request."""
        return self._stop.is_set()

    def _live(self, threads: Set) -> list:
        with self._lock:
            return list(threads)


class DaemonThread:
    """Run a :class:`BackupDaemon` inside this process, on its own threads.

    The harness the tests, benchmarks and examples use::

        with DaemonThread(root) as address:
            RemoteRepository(address, "tenant").backup_tree(...)

    ``kill()`` models an operator SIGTERM with no drain patience: in-flight
    backups are aborted and rolled back before it returns.
    """

    def __init__(self, root: str, **daemon_kwargs) -> None:
        self.daemon = BackupDaemon(root, **daemon_kwargs)
        self._running = False

    def start(self) -> str:
        """Bind and start serving; a bind failure raises here."""
        self.daemon.start()
        self._running = True
        return self.daemon.address

    @property
    def address(self) -> str:
        return self.daemon.address

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Drain gracefully and wait until every daemon thread has ended."""
        if self._running:
            self._running = False
            self.daemon.shutdown(drain_timeout)

    def kill(self) -> None:
        """Shut down with zero drain patience (in-flight work rolls back)."""
        self.stop(drain_timeout=0)

    def pause_accepting(self) -> None:
        """Partition this daemon: refuse new connections."""
        self.daemon.pause_accepting()

    def resume_accepting(self) -> None:
        """Heal a :meth:`pause_accepting` partition."""
        self.daemon.resume_accepting()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
