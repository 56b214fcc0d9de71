"""Seeded input generation for the waterfall benchmark.

Every byte the program sees comes from ``random.Random`` seeded with the
run's ``--seed`` and a stream label, so one seed always yields the same
versions, digests and tenant names.  The data is incompressible, which keeps
the dedup ratio a property of the edit pattern alone.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

MiB = 1 << 20


@dataclass(frozen=True)
class GenParams:
    """Shape of one backup version and of the edit step between versions."""

    version_mib: int = 8
    files: int = 8
    block_bytes: int = MiB
    overwrite_share: float = 0.05
    overwrite_regions: int = 32
    insert_bytes: int = 256 * 1024

    @property
    def version_bytes(self) -> int:
        return self.version_mib * MiB

    def as_dict(self) -> Dict:
        return asdict(self)


@dataclass(frozen=True)
class Version:
    """One generated version and the digests its restores are checked against."""

    blocks: Tuple[bytes, ...]
    plan: Tuple[Tuple[str, int], ...]
    digest: str
    file_digests: Tuple[str, ...]
    size: int


def evolve(rng: random.Random, data: bytes, params: GenParams) -> bytes:
    """One edit step: scattered overwrites, one insert, tail truncated.

    Overwrites model in-place edits (dedup sees a few changed chunks per
    region); the insert shifts every later byte, which is what separates
    content-defined from fixed-size chunking.
    """
    size = len(data)
    out = bytearray(data)
    per_region = max(1, int(size * params.overwrite_share) // params.overwrite_regions)
    for _ in range(params.overwrite_regions):
        offset = rng.randrange(0, size - per_region)
        out[offset : offset + per_region] = rng.randbytes(per_region)
    at = rng.randrange(0, size)
    out[at:at] = rng.randbytes(params.insert_bytes)
    del out[size:]
    return bytes(out)


class VersionStream:
    """The deterministic sequence of versions one tenant backs up.

    ``fresh`` streams draw entirely new bytes for every version; evolving
    streams apply :func:`evolve` to the previous version.
    """

    def __init__(self, seed: int, label: str, params: GenParams, fresh: bool) -> None:
        self.params = params
        self.fresh = fresh
        self._rng = random.Random(f"{seed}/{label}")
        self._data = b""

    def next(self) -> Version:
        params = self.params
        if self.fresh or not self._data:
            self._data = self._rng.randbytes(params.version_bytes)
        else:
            self._data = evolve(self._rng, self._data, params)
        return describe(self._data, params)


def describe(data: bytes, params: GenParams) -> Version:
    """Split ``data`` into blocks and the equal-file plan; record digests."""
    size = len(data)
    file_size = size // params.files
    plan: List[Tuple[str, int]] = []
    digests: List[str] = []
    offset = 0
    for i in range(params.files):
        length = file_size if i < params.files - 1 else size - offset
        plan.append((f"file-{i:02d}.bin", length))
        digests.append(hashlib.sha256(data[offset : offset + length]).hexdigest())
        offset += length
    blocks = tuple(
        data[i : i + params.block_bytes] for i in range(0, size, params.block_bytes)
    )
    return Version(
        blocks=blocks,
        plan=tuple(plan),
        digest=hashlib.sha256(data).hexdigest(),
        file_digests=tuple(digests),
        size=size,
    )


def names_on_distinct_primaries(prefix: str, primary_of, count: int) -> List[str]:
    """``count`` names ``<prefix><i>`` whose primaries all differ.

    ``primary_of(name)`` is the ring's placement function; candidates are
    tried in a fixed order, so the choice is a pure function of the prefix
    and the node names.
    """
    names: List[str] = []
    taken = set()
    for i in range(10_000):
        name = f"{prefix}{i}"
        home = primary_of(name)
        if home not in taken:
            taken.add(home)
            names.append(name)
            if len(names) == count:
                return names
    raise RuntimeError("could not place names on distinct primaries")
