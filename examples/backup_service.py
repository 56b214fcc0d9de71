#!/usr/bin/env python3
"""A multi-client backup service: one daemon, one repository per tenant.

Models the paper's motivating deployment — an archival service keeping
"all versions of the software and the system snapshots for users".  Two
tenants back up evolving byte streams into one in-process daemon through
:class:`~repro.client.RemoteRepository`; each backup chunks on its own
engine thread, each tenant's versions restore independently, and one tenant's
retention window expires GC-free without touching the other.

Usage::

    python examples/backup_service.py
"""

import random
import tempfile

from repro.client import RemoteRepository
from repro.server import DaemonThread
from repro.units import format_bytes

TENANTS = {"build-server": 1, "ci-runner": 2}  # tenant -> workload seed


def versions(seed: int, count: int = 4, size: int = 600_000):
    """``count`` generations of one byte stream, ~10 % rewritten each time."""
    rng = random.Random(seed)
    data = bytearray(rng.randbytes(size))
    for _ in range(count):
        yield bytes(data)
        at = rng.randrange(size - size // 10)
        data[at:at + size // 10] = rng.randbytes(size // 10)


def main() -> None:
    with tempfile.TemporaryDirectory() as root, \
            DaemonThread(root) as address:
        repos = {name: RemoteRepository(address, name) for name in TENANTS}
        originals = {}
        for name, seed in TENANTS.items():
            for n, data in enumerate(versions(seed), start=1):
                repos[name].backup_blocks([data], [("disk.img", len(data))], tag=f"v{n}")
                originals[name, n] = data
        for name, repo in repos.items():
            stats = repo.stats()
            print(f"{name:<13s} {stats['versions']} versions, "
                  f"{format_bytes(stats['logical_bytes'])} logical -> "
                  f"{format_bytes(stats['stored_bytes'])} stored "
                  f"({stats['dedup_ratio']:.1%} dedup)")

        expired = repos["build-server"].delete_oldest()
        print(f"build-server expired v{expired['version_id']} GC-free: "
              f"{expired['containers_deleted']} containers deleted")
        for name, repo in repos.items():
            for row in repo.versions():
                _plan, blocks = repo.restore(row["version_id"])
                assert b"".join(blocks) == originals[name, row["version_id"]]
            repo.close()
        print("every retained version of both tenants restores byte-identical")


if __name__ == "__main__":
    main()
