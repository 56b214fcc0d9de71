"""The networked backup service: an asyncio daemon over HiDeStore repos.

The paper positions HiDeStore as *middleware between backup clients and
storage* (§4, Fig. 1); this package is that deployment shape.
:class:`BackupDaemon` serves the length-prefixed frame protocol defined in
:mod:`repro.client.protocol` over TCP, hosting multiple named repositories
(:class:`RepositoryRegistry`) with per-repo writer locks, graceful drain
on shutdown and one flow-control rule for every data stream: the engine
thread owns the socket for the stream and TCP's window is the
backpressure.
"""

from .daemon import BackupDaemon, DaemonThread
from .registry import ReadWriteLock, RepositoryRegistry

__all__ = ["BackupDaemon", "DaemonThread", "ReadWriteLock", "RepositoryRegistry"]
