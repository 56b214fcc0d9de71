"""Property-based tests (hypothesis) on the core invariants.

The invariants checked here are the load-bearing ones:

* **Losslessness**: whatever the version history, every version of every
  scheme restores to the exact original chunk sequence.
* **Exactness**: HiDeStore's dedup ratio equals exact deduplication for
  adjacent-similar histories (skip-free), and never exceeds it otherwise.
* **Chunker safety**: arbitrary bytes split losslessly within size bounds.
* **Container conservation**: bytes in == bytes held + bytes removed.
* **Recipe chain**: flatten never changes what a recipe resolves to, and a
  restore resolves every row as Algorithm 1 would without running it.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.chunking import FastCDCChunker, FixedChunker, TTTDChunker
from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint as fp
from repro.core.hidestore import HiDeStore
from repro.index import ExactFullIndex
from repro.metrics import exact_dedup_ratio
from repro.pipeline.system import BackupSystem
from repro.storage.container import Container
from repro.storage.container_store import pack_container, unpack_container
from tests.conftest import algorithm_1_rows, resolved_rows

KB = 1024


# ---------------------------------------------------------------------------
# Strategy: a version history as edit operations over a chunk-token list.
# ---------------------------------------------------------------------------
@st.composite
def version_histories(draw):
    """A list of versions, each derived from the previous by random edits."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_versions = draw(st.integers(1, 6))
    size = draw(st.integers(5, 60))
    next_token = size
    current = list(range(size))
    versions = [list(current)]
    for _ in range(n_versions - 1):
        evolved = []
        for token in current:
            op = rng.random()
            if op < 0.1:
                evolved.append(next_token)
                next_token += 1
            elif op < 0.18:
                pass  # delete
            else:
                evolved.append(token)
            if rng.random() < 0.06:
                evolved.append(next_token)
                next_token += 1
        if not evolved:
            evolved = [next_token]
            next_token += 1
        # Occasional intra-version duplicate.
        if evolved and rng.random() < 0.3:
            evolved.insert(rng.randrange(len(evolved)), rng.choice(evolved))
        current = evolved
        versions.append(list(current))
    return versions


def to_streams(token_versions):
    return [
        BackupStream([Chunk(fp(t), 512 + (t % 7) * 64) for t in tokens], tag=f"v{k}")
        for k, tokens in enumerate(token_versions, start=1)
    ]


class TestBackupRestoreProperty:
    @given(version_histories())
    @settings(max_examples=40, deadline=None)
    def test_hidestore_round_trips_every_version(self, history):
        streams = to_streams(history)
        system = HiDeStore(container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        for version_id, stream in enumerate(streams, start=1):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()
            assert [c.size for c in restored] == [c.size for c in stream]

    @given(version_histories())
    @settings(max_examples=30, deadline=None)
    def test_traditional_system_round_trips_every_version(self, history):
        streams = to_streams(history)
        system = BackupSystem(ExactFullIndex(), container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        for version_id, stream in enumerate(streams, start=1):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()

    @given(version_histories())
    @settings(max_examples=30, deadline=None)
    def test_hidestore_never_beats_exact_dedup(self, history):
        streams = to_streams(history)
        system = HiDeStore(container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        exact = exact_dedup_ratio(streams)
        assert system.dedup_ratio <= exact + 1e-9

    @given(version_histories())
    @settings(max_examples=30, deadline=None)
    def test_hidestore_matches_exact_dedup_without_skips(self, history):
        """Adjacent-derived histories (no reappearance) are deduped exactly."""
        streams = to_streams(history)
        # The strategy derives each version from its predecessor, so a chunk
        # absent from version k never reappears — HiDeStore's sweet spot.
        system = HiDeStore(container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        assert abs(system.dedup_ratio - exact_dedup_ratio(streams)) < 1e-9

    @given(version_histories())
    @settings(max_examples=20, deadline=None)
    def test_flatten_preserves_restores(self, history):
        streams = to_streams(history)
        system = HiDeStore(container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        system.chain.flatten()
        system.chain.flatten()  # idempotence under repetition
        for version_id, stream in enumerate(streams, start=1):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()

    @given(version_histories(), st.sampled_from([1, 2]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_restores_resolve_as_algorithm_1_would(self, history, depth, expire):
        ours, twin = (HiDeStore(container_size=8 * KB, history_depth=depth) for _ in range(2))
        for streams in zip(to_streams(history), to_streams(history)):
            for system, stream in zip((ours, twin), streams):
                system.backup(stream)
                if expire and len(system.version_ids()) >= depth + 2:
                    system.delete_oldest()
            assert resolved_rows(ours) == algorithm_1_rows(twin)
        assert ours.io.recipe_writes == len(history)  # one write-once recipe per version

    @given(version_histories(), st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_retire_preserves_restores(self, history, depth):
        streams = to_streams(history)
        system = HiDeStore(container_size=8 * KB, history_depth=depth)
        for stream in streams:
            system.backup(stream)
        system.retire()
        for version_id, stream in enumerate(streams, start=1):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()

    @given(version_histories())
    @settings(max_examples=20, deadline=None)
    def test_deleting_oldest_preserves_the_rest(self, history):
        streams = to_streams(history)
        system = HiDeStore(container_size=8 * KB)
        for stream in streams:
            system.backup(stream)
        system.retire()
        while len(system.version_ids()) > 1:
            system.delete_oldest()
            for version_id in system.version_ids():
                restored = list(system.restore_chunks(version_id))
                assert [c.fingerprint for c in restored] == streams[
                    version_id - 1
                ].fingerprints()


class TestChunkerProperties:
    @given(st.binary(min_size=0, max_size=30_000))
    @settings(max_examples=50, deadline=None)
    def test_fastcdc_lossless_and_bounded(self, data):
        chunker = FastCDCChunker(min_size=64, avg_size=256, max_size=1024)
        pieces = chunker.split(data)
        assert b"".join(pieces) == data
        for piece in pieces[:-1]:
            assert 64 <= len(piece) <= 1024

    @given(st.binary(min_size=0, max_size=20_000))
    @settings(max_examples=30, deadline=None)
    def test_tttd_lossless_and_bounded(self, data):
        chunker = TTTDChunker(min_size=128, avg_size=256, max_size=1024)
        pieces = chunker.split(data)
        assert b"".join(pieces) == data
        for piece in pieces[:-1]:
            assert len(piece) <= 1024

    @given(st.binary(min_size=0, max_size=10_000), st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_fixed_lossless(self, data, size):
        pieces = FixedChunker(size).split(data)
        assert b"".join(pieces) == data


class TestContainerProperties:
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_byte_conservation_under_remove_and_compact(self, sizes, data):
        container = Container(1, capacity=500 * 50)
        added = 0
        for i, size in enumerate(sizes):
            container.add(Chunk(fp(i), size))
            added += size
        removable = data.draw(
            st.lists(st.integers(0, len(sizes) - 1), unique=True, max_size=len(sizes))
        )
        removed = sum(sizes[i] for i in removable)
        for i in removable:
            container.remove(fp(i))
        assert container.used == added - removed
        container = unpack_container(pack_container(container))  # a reload compacts
        assert container.used == added - removed
        assert container.written == container.used
        survivors = [i for i in range(len(sizes)) if i not in removable]
        for i in survivors:
            assert container.get_chunk(fp(i)).size == sizes[i]
