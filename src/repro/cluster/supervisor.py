"""Spawn and supervise the daemons a cluster spec describes.

Two harnesses, one spec format:

* :class:`ClusterSupervisor` — ``hidestore cluster serve SPEC``: one
  *daemon process per node* (``python -m repro.cli serve``), each with its
  own event loop, GIL and address.  This is the deployment shape the
  benchmarks measure — aggregate throughput only scales when the daemons
  are real processes.
* :class:`ClusterHarness` — the in-process variant for tests: N
  :class:`~repro.server.daemon.DaemonThread` instances sharing this
  interpreter.  Cheap to start, trivially killable mid-operation
  (``kill_node``), but serialised by the GIL — never benchmark with it.

Both allocate ports up front (:func:`free_ports`: one probe socket per
node, all bound at once so no two nodes share a port), because every
daemon must know the *full* address map before it starts: placement is a
pure function of the map, and the map is part of each daemon's
constructor.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import subprocess
import sys
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, NoReturn, Optional

from ..client.retry import retry
from ..errors import ClusterError
from ..observability import MetricsRegistry
from .map import ClusterMap, NodeSpec

if TYPE_CHECKING:  # import cycle guard: server.daemon imports repro.cluster
    from ..server.daemon import DaemonThread


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """``count`` distinct free TCP ports: every probe socket stays bound
    until the last is, so no port is handed out twice (another process may
    still take one before its daemon binds it; fine for tests and
    single-operator clusters)."""
    with contextlib.ExitStack() as stack:
        probes = [stack.enter_context(socket.socket()) for _ in range(count)]
        for probe in probes:
            probe.bind((host, 0))
        return [probe.getsockname()[1] for probe in probes]


def assign_ports(cmap: ClusterMap, host: str = "127.0.0.1") -> ClusterMap:
    """Fill in concrete ports for nodes whose address ends in ``:0``.

    Keeps the epoch (this is materialisation, not a membership change).
    """
    ports = iter(free_ports(sum(n.address.endswith(":0") for n in cmap.nodes), host))
    nodes = []
    for node in cmap.nodes:
        node_host, _, port = node.address.rpartition(":")
        if port == "0":
            nodes.append(NodeSpec(node.name, f"{node_host or host}:{next(ports)}",
                                  node.root, down=node.down))
        else:
            nodes.append(node)
    return ClusterMap(nodes, epoch=cmap.epoch, replicas=cmap.replicas,
                      vnodes=cmap.vnodes, promotions=cmap.promotions)


#: Seconds between connect probes while a daemon comes up.
LISTEN_POLL_INTERVAL = 0.05


def wait_listening(
    address: str, timeout: float = 10.0, check: Callable[[], None] = lambda: None
) -> None:
    """Poll until a TCP connect to ``address`` succeeds (the one
    :func:`~repro.client.retry.retry` loop).  ``check`` runs before each
    connect and may raise to end the wait early."""
    host, _, port = address.rpartition(":")

    def connect() -> None:
        check()
        socket.create_connection((host, int(port)), timeout=1.0).close()

    def gave_up(_last: Optional[BaseException]) -> NoReturn:
        raise ClusterError(
            f"daemon at {address} not accepting connections after {timeout:.0f}s"
        ) from None

    retry(
        connect,
        itertools.chain([0.0], itertools.repeat(LISTEN_POLL_INTERVAL)),
        timeout=timeout,
        expired=gave_up,
    )


@contextlib.contextmanager
def _stopped_on_failure(stop: Callable[[], None]) -> Iterator[None]:
    """Unwind a half-started fleet: when the block raises (a Ctrl-C
    included), ``stop()`` best-effort and re-raise the block's own error —
    a failing cleanup never hides why the start failed."""
    try:
        yield
    except BaseException:
        with contextlib.suppress(Exception):
            stop()
        raise


class DaemonProcess:
    """One ``hidestore serve`` child process for one cluster node."""

    def __init__(
        self,
        node: NodeSpec,
        map_path: str,
        replicate_interval: float = 0.0,
        log_json: Optional[str] = None,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_timeout: float = 2.0,
    ) -> None:
        if not node.root:
            raise ClusterError(f"node {node.name!r} has no root in the cluster spec")
        self.node = node
        argv = [
            sys.executable, "-m", "repro.cli", "serve", node.address,
            "--root", node.root,
            "--cluster-map", map_path,
            "--node", node.name,
        ]
        if replicate_interval > 0:
            argv += ["--replicate-interval", str(replicate_interval)]
        if probe_interval > 0:
            argv += [
                "--probe-interval", str(probe_interval),
                "--probe-failures", str(probe_failures),
                "--probe-timeout", str(probe_timeout),
            ]
        if log_json:
            argv += ["--log-json", log_json]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(argv, env=env)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def wait_ready(self, timeout: float = 15.0) -> None:
        def running() -> None:
            if not self.alive:
                raise ClusterError(
                    f"daemon {self.node.name} exited with "
                    f"{self.process.returncode} before accepting connections"
                )

        wait_listening(self.node.address, timeout, check=running)

    def stop(self, timeout: float = 15.0) -> int:
        """Graceful SIGTERM drain; escalates to SIGKILL on overrun."""
        if self.alive:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - drain hang
                self.process.kill()
                self.process.wait(timeout=5)
        return self.process.returncode

    def kill(self) -> None:
        """Immediate SIGKILL — the failure tests' "node dies" primitive."""
        if self.alive:
            self.process.kill()
            self.process.wait(timeout=5)


class ClusterSupervisor:
    """Spawn every node in a spec as its own daemon process."""

    def __init__(
        self,
        cmap: ClusterMap,
        map_path: str,
        replicate_interval: float = 0.0,
        log_dir: Optional[str] = None,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_timeout: float = 2.0,
    ) -> None:
        self.map = cmap
        self.map_path = map_path
        self.replicate_interval = replicate_interval
        self.log_dir = log_dir
        self.probe_interval = probe_interval
        self.probe_failures = probe_failures
        self.probe_timeout = probe_timeout
        self.daemons: Dict[str, DaemonProcess] = {}

    def start(self, timeout: float = 20.0) -> None:
        """Spawn every node, then wait until each accepts connections.
        With a ``log_dir``, each daemon logs to ``<log_dir>/<node>.jsonl``."""
        if self.log_dir:
            os.makedirs(self.log_dir, exist_ok=True)
        with _stopped_on_failure(self.stop):
            for node in self.map.nodes:
                self.daemons[node.name] = DaemonProcess(
                    node, self.map_path,
                    replicate_interval=self.replicate_interval,
                    log_json=(
                        os.path.join(self.log_dir, f"{node.name}.jsonl")
                        if self.log_dir else None
                    ),
                    probe_interval=self.probe_interval,
                    probe_failures=self.probe_failures,
                    probe_timeout=self.probe_timeout,
                )
            for daemon in self.daemons.values():
                daemon.wait_ready(timeout)

    def stop(self) -> None:
        for daemon in self.daemons.values():
            daemon.stop()
        self.daemons.clear()

    def kill_node(self, name: str) -> None:
        try:
            self.daemons[name].kill()
        except KeyError:
            raise ClusterError(f"no running daemon named {name!r}") from None

    def alive_nodes(self) -> List[str]:
        return sorted(n for n, d in self.daemons.items() if d.alive)

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ClusterHarness:
    """In-process cluster of :class:`DaemonThread` instances (tests only).

    Builds its own map: node ``n<i>`` gets ``<root>/n<i>`` as repository
    root and a pre-probed localhost port.
    """

    def __init__(
        self,
        root: str,
        nodes: int = 3,
        replicas: int = 2,
        vnodes: int = 64,
        replicate_interval: float = 0.0,
        **daemon_kwargs,
    ) -> None:
        specs = [
            NodeSpec(f"n{index}", f"127.0.0.1:{port}", os.path.join(root, f"n{index}"))
            for index, port in enumerate(free_ports(nodes), 1)
        ]
        self.map = ClusterMap(specs, replicas=replicas, vnodes=vnodes)
        self.replicate_interval = replicate_interval
        self.daemon_kwargs = daemon_kwargs
        self.threads: Dict[str, "DaemonThread"] = {}

    def start(self) -> ClusterMap:
        with _stopped_on_failure(self.stop):
            for node in self.map.nodes:
                self._start_node(node)
        return self.map

    def _start_node(self, node: NodeSpec) -> None:
        from ..server.daemon import DaemonThread

        host, _, port = node.address.rpartition(":")
        kwargs = dict(self.daemon_kwargs)
        # Each in-process node gets its own registry, or every
        # node's STATS would show the same global counters.
        kwargs.setdefault("metrics", MetricsRegistry())
        thread = DaemonThread(
            node.root,
            host=host,
            port=int(port),
            cluster_map=self.map,
            node_name=node.name,
            replicate_interval=self.replicate_interval,
            **kwargs,
        )
        thread.start()
        self.threads[node.name] = thread

    def stop(self) -> None:
        for thread in self.threads.values():
            thread.stop()
        self.threads.clear()

    def kill_node(self, name: str) -> None:
        """Abrupt stop: cancels in-flight sessions without draining."""
        try:
            self.threads[name].kill()
        except KeyError:
            raise ClusterError(f"no running daemon named {name!r}") from None

    def restart_node(self, name: str) -> None:
        """Bring a (killed or running) node back on its original address.

        The repository model kills a primary mid-backup and revives it
        here; the node resumes from its on-disk state — exactly the
        operator "replace the crashed daemon" move.
        """
        node = next((n for n in self.map.nodes if n.name == name), None)
        if node is None:
            raise ClusterError(f"no node named {name!r} in the cluster map")
        old = self.threads.pop(name, None)
        if old is not None:
            old.kill()
        self._start_node(node)

    def addresses(self) -> List[str]:
        return [node.address for node in self.map.nodes]

    def __enter__(self) -> ClusterMap:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
