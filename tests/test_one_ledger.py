"""One count per event: the engine's ledger is what the service registry says.

Every container write, container read and recipe write a store bills goes
to the engine's :class:`~repro.storage.io_model.IOStats`, which records the
same event in the repository's registry (``store.*``).  A second recorder
anywhere would double a registry count against the ledger's; a read the
active pool serves from memory bills the ledger only.
"""

import random

import pytest

from repro.observability import MetricsRegistry
from repro.repository import LocalRepository

VERSIONS = 4


def version_bytes(version):
    """All-new bytes per version: each version goes archival-only once the
    next one is backed up."""
    return random.Random(7000 + version).randbytes(96 * 1024)


def histogram_count(registry, name):
    return registry.snapshot()["histograms"].get(name, {}).get("count", 0)


@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_every_store_event_is_counted_once(tmp_path, kind):
    spec = str(tmp_path / "repo") if kind == "directory" else f"sqlite://{tmp_path}/repo.db"
    registry = MetricsRegistry()
    repo = LocalRepository(spec, metrics=registry)
    for version in range(1, VERSIONS + 1):
        data = version_bytes(version)
        repo.backup_blocks([data], [("a.bin", len(data))], tag=f"v{version}")
    engine = repo._open()
    ledger = engine.io
    recipe_bytes = sum(
        len(repo.storage.read_object("recipe", f"recipe-{v:08d}.hdsr"))
        for v in range(1, VERSIONS + 1)
    )

    def restore_reads(version):
        """(ledger container reads, registry read observations) of one restore."""
        before = ledger.snapshot()
        observed = histogram_count(registry, "store.container_read_seconds")
        assert b"".join(repo.restore(version)[1]) == version_bytes(version)
        return (
            ledger.delta(before).container_reads,
            histogram_count(registry, "store.container_read_seconds") - observed,
        )

    billed, recorded = restore_reads(1)  # archival-only: every read is a store read
    assert billed == recorded > 0
    billed, recorded = restore_reads(VERSIONS)  # newest: the pool serves it from memory
    assert billed > 0 and recorded == 0

    repo.delete_oldest()
    assert repo._open() is engine  # one engine, one ledger throughout
    counters = registry.snapshot()["counters"]
    assert histogram_count(registry, "store.container_write_seconds") == ledger.container_writes
    assert ledger.container_writes > 0
    assert ledger.recipe_writes == VERSIONS
    assert counters["store.recipe_write_bytes"] == recipe_bytes
    repo.close()
