"""Tests for the delimited fingerprint-dump importer."""

import pytest

from repro.core import HiDeStore
from repro.errors import WorkloadError
from repro.units import KiB
from repro.workloads import import_delimited


class TestImportDelimited:
    def test_basic_two_versions(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text(
            "#version snap-a\n"
            "aabb 1000\n"
            "ccdd 2000\n"
            "#version snap-b\n"
            "aabb 1000\n"
            "eeff 3000\n"
        )
        streams = import_delimited(str(path))
        assert [s.tag for s in streams] == ["snap-a", "snap-b"]
        assert streams[0][0].size == 1000
        assert streams[0][0].fingerprint == bytes.fromhex("aabb").ljust(20, b"\x00")
        assert streams[0][0].fingerprint == streams[1][0].fingerprint

    def test_custom_columns_and_delimiter(self, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text("#version v1\n4096,cafe\n8192,beef\n")
        streams = import_delimited(
            str(path), fingerprint_field=1, size_field=0, delimiter=","
        )
        assert [c.size for c in streams[0]] == [4096, 8192]

    def test_no_size_column_uses_default(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("#version v1\nabcd\n")
        streams = import_delimited(str(path), size_field=-1, default_size=4096)
        assert streams[0][0].size == 4096

    def test_implicit_first_version_and_comments(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("# a comment\naabb 100\n")
        streams = import_delimited(str(path))
        assert len(streams) == 1
        assert streams[0].tag == "v1"

    def test_long_digests_truncated_to_sha1_width(self, tmp_path):
        path = tmp_path / "dump.txt"
        digest = "ab" * 32  # 64 hex chars = SHA-256 width
        path.write_text(f"#version v1\n{digest} 128\n")
        streams = import_delimited(str(path))
        assert len(streams[0][0].fingerprint) == 20

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("#version v1\nzzzz notanumber\n")
        with pytest.raises(WorkloadError, match="dump.txt:2"):
            import_delimited(str(path))

    def test_imported_trace_backs_up(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text(
            "#version v1\naa11 1000\nbb22 1000\n"
            "#version v2\naa11 1000\ncc33 1000\n"
        )
        system = HiDeStore(container_size=16 * KiB)
        for stream in import_delimited(str(path)):
            system.backup(stream)
        report = system.report
        assert report.versions == 2
        assert report.stored_bytes == 3000  # aa11 deduplicated
