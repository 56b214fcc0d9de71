"""Chunking substrate: content-defined chunkers and fingerprinting.

The paper's pipeline starts by splitting the backup stream into variable-size
chunks (4-8 KiB average) and hashing each with SHA-1.  This subpackage
provides the chunkers referenced in the paper — TTTD (used by the prototype),
Rabin CDC, FastCDC and AE — plus SeqCDC (the rolling-hash-free rule new
repositories cut with), fixed-size chunking as a baseline, and the
:class:`~repro.chunking.stream.Chunk` / :class:`~repro.chunking.stream.BackupStream`
types every other layer consumes.

A repository records the chunker its versions were cut with as a
:func:`chunker_spec` in its checkpoint head, and rebuilds it with
:func:`chunker_from_spec`.
"""

from typing import Dict

from .ae import AEChunker
from .base import BaseChunker
from .fastcdc import DEFAULT_NORMALIZATION, DEFAULT_SEED, FastCDCChunker
from .fingerprint import DEFAULT_FINGERPRINTER, Fingerprinter, sha1_fingerprint
from .fixed import FixedChunker
from .rabin import RabinChunker
from .seqcdc import SeqCDCChunker
from .stream import BackupStream, Chunk, concat_stream_bytes, synthetic_fingerprint
from .tttd import TTTDChunker

__all__ = [
    "AEChunker",
    "BackupStream",
    "BaseChunker",
    "Chunk",
    "DEFAULT_FINGERPRINTER",
    "FastCDCChunker",
    "Fingerprinter",
    "FixedChunker",
    "RabinChunker",
    "SeqCDCChunker",
    "TTTDChunker",
    "chunker_from_spec",
    "chunker_spec",
    "concat_stream_bytes",
    "sha1_fingerprint",
    "synthetic_fingerprint",
    "make_chunker",
]

_CHUNKERS = {
    "fixed": FixedChunker,
    "rabin": RabinChunker,
    "tttd": TTTDChunker,
    "fastcdc": FastCDCChunker,
    "ae": AEChunker,
    "seqcdc": SeqCDCChunker,
}

#: The names in ``_CHUNKERS`` a repository's head may record.
_RECORDED = {"fastcdc", "seqcdc"}


def make_chunker(name: str, **kwargs) -> BaseChunker:
    """Construct a chunker by name (``fixed``/``rabin``/``tttd``/``fastcdc``/``ae``/``seqcdc``)."""
    try:
        cls = _CHUNKERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown chunker {name!r}; choose from {sorted(_CHUNKERS)}"
        ) from None
    return cls(**kwargs)


def chunker_spec(chunker: BaseChunker) -> Dict:
    """``{name, min_size, avg_size, max_size}``: all it takes to rebuild
    ``chunker`` with :func:`chunker_from_spec`.

    Raises:
        ValueError: for a chunker the spec cannot name exactly — another
            kind, a subclass, or FastCDC off its default gear seed or
            normalization.
    """
    name = next((n for n in _RECORDED if type(chunker) is _CHUNKERS[n]), None)
    if name is None or (name == "fastcdc" and (chunker.normalization, chunker.seed)
                        != (DEFAULT_NORMALIZATION, DEFAULT_SEED)):
        raise ValueError(f"{chunker!r} has no chunker spec")
    return {
        "name": name,
        "min_size": chunker.min_size,
        "avg_size": chunker.avg_size,
        "max_size": chunker.max_size,
    }


def chunker_from_spec(spec: Dict) -> BaseChunker:
    """The chunker a :func:`chunker_spec` names."""
    if spec["name"] not in _RECORDED:
        raise ValueError(f"unknown chunker spec {spec!r}")
    return _CHUNKERS[spec["name"]](spec["min_size"], spec["avg_size"], spec["max_size"])
