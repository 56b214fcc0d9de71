"""Extended property-based tests: file trees, GC, checkpoint, pack round-trips."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint as fp
from repro.core import HiDeStore, load_checkpoint, save_checkpoint, verify_system
from repro.errors import StorageError
from repro.index import ExactFullIndex
from repro.observability import MetricsRegistry
from repro.pipeline import GCDeletionManager
from repro.pipeline.system import BackupSystem
from repro.repository import LocalRepository, materialize
from repro.storage.container import Container
from repro.storage.container_store import pack_container, unpack_container
from repro.storage.recipe import Recipe, RecipeEntry, pack_recipe, unpack_recipe

KB = 1024


@st.composite
def trees(draw):
    """A random file tree: names -> bytes (possibly empty files)."""
    n_files = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = {}
    for i in range(n_files):
        size = draw(st.sampled_from([0, 1, 100, 1000, 5000, 20000]))
        tree[f"f{i:02d}.bin"] = bytes(rng.getrandbits(8) for _ in range(size))
    return tree


@st.composite
def histories(draw):
    """Short version histories of token lists (adjacent-derived)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    versions = draw(st.integers(2, 5))
    size = draw(st.integers(8, 40))
    next_token = size
    current = list(range(size))
    out = [list(current)]
    for _ in range(versions - 1):
        evolved = []
        for token in current:
            roll = rng.random()
            if roll < 0.12:
                evolved.append(next_token)
                next_token += 1
            elif roll < 0.2:
                continue
            else:
                evolved.append(token)
        if not evolved:
            evolved = [next_token]
            next_token += 1
        current = evolved
        out.append(list(current))
    return out


def to_streams(history):
    return [
        BackupStream([Chunk(fp(t), 256 + (t % 5) * 64) for t in tokens], tag=f"v{k}")
        for k, tokens in enumerate(history, start=1)
    ]


class TestArchiveProperties:
    @given(trees())
    @settings(max_examples=25, deadline=None)
    def test_any_tree_round_trips(self, tree):
        """Any tree backed up through ``LocalRepository`` restores whole and
        file by file, empty files and files straddling chunk boundaries
        included."""
        names = sorted(tree)
        plan = [(name, len(tree[name])) for name in names]
        with tempfile.TemporaryDirectory() as root:
            repo = LocalRepository(os.path.join(root, "repo"), metrics=MetricsRegistry())
            repo.backup_blocks([tree[name] for name in names], plan)
            whole_plan, data = repo.restore(1)
            assert whole_plan == plan
            out = os.path.join(root, "out")
            assert materialize(whole_plan, data, out) == len(names)
            for name in names:
                with open(os.path.join(out, name), "rb") as handle:
                    assert handle.read() == tree[name]
                _plan, data = repo.restore(1, file=name)
                assert b"".join(data) == tree[name]


class TestGCProperties:
    @given(histories(), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_gc_deletion_never_breaks_survivors(self, history, threshold):
        streams = to_streams(history)
        system = BackupSystem(ExactFullIndex(), container_size=4 * KB)
        for stream in streams:
            system.backup(stream)
        gc = GCDeletionManager(system, utilization_threshold=threshold)
        while len(system.version_ids()) > 1:
            gc.delete_version(system.version_ids()[0])
            for version_id in system.version_ids():
                restored = list(system.restore_chunks(version_id))
                assert [c.fingerprint for c in restored] == streams[
                    version_id - 1
                ].fingerprints()
        assert verify_system(system).ok


class TestCheckpointProperties:
    @given(histories(), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_at_any_boundary_resumes_exactly(self, history, cut_at):
        streams = to_streams(history)
        cut = min(cut_at, len(streams) - 1)
        with tempfile.TemporaryDirectory() as root:
            first = HiDeStore(container_size=4 * KB)
            for stream in streams[:cut]:
                first.backup(stream)
            path = os.path.join(root, "ckpt.json")
            save_checkpoint(first, path)
            # In-memory stores are not shared: the resumed system gets the
            # original's, which hold its archival and active containers.
            resumed = load_checkpoint(path, first.containers, first.recipes)
            for stream in streams[cut:]:
                resumed.backup(stream)

            reference = HiDeStore(container_size=4 * KB)
            for stream in streams:
                reference.backup(stream)
            assert abs(resumed.dedup_ratio - reference.dedup_ratio) < 1e-12
            for version_id, stream in enumerate(streams, start=1):
                restored = list(resumed.restore_chunks(version_id))
                assert [c.fingerprint for c in restored] == stream.fingerprints()


class TestSerialisationProperties:
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 400),
                              st.booleans()),
                    min_size=0, max_size=30, unique_by=lambda t: t[0]))
    @settings(max_examples=50, deadline=None)
    def test_container_pack_round_trip(self, specs):
        container = Container(1, capacity=30 * 400)
        first = specs[0][2] if specs else None
        for token, size, with_data in specs:
            chunk = Chunk(fp(token), size, bytes(size) if with_data else None)
            if with_data != first:  # a container's chunks all carry data or none do
                with pytest.raises(StorageError):
                    container.add(chunk)
                continue
            container.add(chunk)
        kept = [spec for spec in specs if spec[2] == first]
        loaded = unpack_container(pack_container(container))
        assert loaded.container_id == 1
        assert loaded.chunk_count == container.chunk_count == len(kept)
        assert loaded.used == container.used
        for token, size, with_data in kept:
            chunk = loaded.get_chunk(fp(token))
            assert chunk.size == size
            assert (chunk.data is not None) == with_data

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 10_000),
                              st.integers(-1000, 1000)),
                    min_size=0, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_recipe_pack_round_trip(self, entries):
        recipe = Recipe(7, "prop")
        for token, size, cid in entries:
            recipe.append(fp(token), size, cid)
        loaded = unpack_recipe(pack_recipe(recipe))
        assert loaded.version_id == 7
        assert [(e.fingerprint, e.size, e.cid) for e in loaded] == [
            (fp(t), s, c) for t, s, c in entries
        ]
