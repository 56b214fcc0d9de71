"""The networked backup service: a threaded daemon over HiDeStore repos.

The paper positions HiDeStore as *middleware between backup clients and
storage* (§4, Fig. 1); this package is that deployment shape.
:class:`BackupDaemon` serves the length-prefixed frame protocol defined in
:mod:`repro.client.protocol` over TCP, one blocking thread per
connection, hosting multiple named repositories
(:class:`RepositoryRegistry`) with per-repo writer locks, graceful drain
on shutdown and one flow-control rule for every data stream: the
session's thread reads or writes the stream itself and TCP's window is
the backpressure.
"""

from .daemon import BackupDaemon, DaemonThread
from .registry import ReadWriteLock, RepositoryRegistry

__all__ = ["BackupDaemon", "DaemonThread", "ReadWriteLock", "RepositoryRegistry"]
