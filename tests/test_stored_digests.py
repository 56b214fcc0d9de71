"""The writer's bytes, pinned: every stored object of three seeded workloads.

Each workload is rebuilt from its seed and the SHA-256 of every object it
leaves behind is compared with ``fixtures/stored_digests.json``:

* ``file`` — a directory repository (real bytes, :class:`LocalRepository`):
  three versions, one ``delete_oldest``.  Containers, recipes, manifests,
  the checkpoint head and its parts.
* ``fingerprints`` — ``HiDeStore()`` over its in-memory backends with
  metadata-only chunks (the streams every paper figure uses), checkpointed
  once at the end: active containers carry the holes demotion left.
* ``bytes`` — the same engine and schedule with real payloads.

A refactor of the container, recipe or checkpoint code must leave these
digests as they are.  Only a deliberate format change regenerates them::

    PYTHONPATH=src python -m tests.test_stored_digests > tests/fixtures/stored_digests.json
"""

import hashlib
import json
import os
import random
import sys
import tempfile

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint
from repro.core import save_checkpoint
from repro.core.hidestore import HiDeStore
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.storage.repo import SECTIONS, RepoStorage
from repro.units import KiB

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "stored_digests.json")


def sha(blob) -> str:
    return hashlib.sha256(blob).hexdigest()


def version_bytes(index: int) -> bytes:
    """Version ``index`` of an evolving 600 KiB file: each version rewrites
    two 64 KiB windows, so the previous version's chunks there go cold."""
    data = bytearray(random.Random(61).randbytes(600 * KiB))
    for k in range(1, index + 1):
        for window in range(2):
            offset = ((2 * k + window) * 128 * KiB) % (512 * KiB)
            data[offset : offset + 64 * KiB] = random.Random(90 * k + window).randbytes(64 * KiB)
    return bytes(data)


def file_digests(root: str) -> dict:
    repo = LocalRepository(root, metrics=MetricsRegistry())
    for index in range(3):
        data = version_bytes(index)
        half = len(data) // 2
        repo.backup_blocks([data], [("a.bin", half), ("b.bin", len(data) - half)])
    repo.delete_oldest()
    repo.close()
    storage = RepoStorage(root)
    try:
        state = storage.state()
        return {
            name: sha(storage.read_object(kind, name))
            for kind, section in SECTIONS.items() for name in state[section]
        }
    finally:
        storage.close()


#: Token windows of the engine workloads: each version keeps most of the
#: last one, so demotion leaves holes in the containers that stay active.
TOKENS = [range(0, 300), [*range(40, 260), *range(300, 380)], [*range(0, 40), *range(60, 340)]]


def engine_digests(directory: str, with_data: bool) -> dict:
    system = HiDeStore(container_size=64 * KiB)
    for k, tokens in enumerate(TOKENS, start=1):
        chunks = []
        for t in tokens:
            size = 700 + (t * 37) % 900
            data = random.Random(t).randbytes(size) if with_data else None
            chunks.append(Chunk(synthetic_fingerprint(t), size, data))
        system.backup(BackupStream(chunks, tag=f"v{k}"))
    system.delete_oldest()
    save_checkpoint(system, os.path.join(directory, "checkpoint.json"))
    digests = {}
    for store in (system.containers, system.recipes):
        backend = store.backend
        for name in backend.list(""):
            digests[name] = sha(backend.get(name))
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = sha(handle.read())
    return digests


def all_digests() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        os.mkdir(os.path.join(workdir, "fingerprints"))
        os.mkdir(os.path.join(workdir, "bytes"))
        return {
            "file": file_digests(os.path.join(workdir, "repo")),
            "fingerprints": engine_digests(os.path.join(workdir, "fingerprints"), False),
            "bytes": engine_digests(os.path.join(workdir, "bytes"), True),
        }


def test_every_stored_object_is_the_pinned_bytes():
    with open(FIXTURE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    rebuilt = all_digests()
    for workload in pinned:
        assert rebuilt[workload] == pinned[workload], workload
    assert rebuilt.keys() == pinned.keys()


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
