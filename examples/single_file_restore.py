#!/usr/bin/env python3
"""File-level snapshots and partial restore over a local repository.

Backs up several generations of a source tree into a
:class:`~repro.repository.LocalRepository` in a temporary directory, then
restores a single file out of an old snapshot and compares the container
reads against a full restore of that snapshot — a partial restore reads
only the containers the file's chunks live in.

Usage::

    python examples/single_file_restore.py
"""

import tempfile

from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.units import KiB, format_bytes
from repro.workloads import FileTreeGenerator, FileTreeSpec


def containers_read(repo: LocalRepository, version_id: int, **kwargs):
    """Restore ``version_id`` (or one ``file=`` of it); returns the bytes
    and the containers the restore read."""
    before = repo.stats()["containers_read"]
    _plan, data = repo.restore(version_id, **kwargs)
    payload = b"".join(data)
    return payload, repo.stats()["containers_read"] - before


def main() -> None:
    generator = FileTreeGenerator(
        FileTreeSpec(files=24, mean_file_size=160 * KiB, versions=5, seed=33)
    )
    trees = list(generator.versions())
    with tempfile.TemporaryDirectory() as root:
        repo = LocalRepository(root, metrics=MetricsRegistry())

        print(f"== snapshotting {len(trees)} generations of a {len(trees[0])}-file tree ==")
        for k, tree in enumerate(trees, start=1):
            names = sorted(tree)
            report = repo.backup_blocks(
                [tree[name] for name in names],
                [(name, len(tree[name])) for name in names],
                tag=f"gen-{k}",
            )
            print(
                f"  gen-{k}: {len(tree)} files, "
                f"{format_bytes(report['logical_bytes']):>10s} logical, "
                f"{format_bytes(report['stored_bytes']):>10s} stored"
            )
        print(f"\ndedup ratio: {repo.stats()['dedup_ratio']:.2%}")

        victim_version = 2
        victim_file = sorted(trees[victim_version - 1])[5]
        print(f"\n== restoring only {victim_file!r} from snapshot {victim_version} ==")
        data, partial_reads = containers_read(repo, victim_version, file=victim_file)
        assert data == trees[victim_version - 1][victim_file]
        print(f"  partial restore: {format_bytes(len(data))} in {partial_reads} container reads")

        tree = trees[victim_version - 1]
        full, full_reads = containers_read(repo, victim_version)
        assert full == b"".join(tree[name] for name in sorted(tree))
        print(f"  full restore:    {format_bytes(len(full))} in {full_reads} container reads")
        assert partial_reads < full_reads

    print(
        f"\nThe single-file restore touched {partial_reads}/{full_reads} of the "
        "containers — the manifest maps the file onto its recipe-entry span, "
        "so only those containers are read."
    )


if __name__ == "__main__":
    main()
