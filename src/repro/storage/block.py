"""Data blocks: the atomic unit of EBS I/O.

§2.2: "all data is split into atomic units — data blocks whose size is 4K
bytes to be consistent with SSD's sector size — and all operations in SA
are in a per-block manner."  SOLAR then makes each block exactly one
packet (§4.4).

A block may carry real payload bytes (integrity experiments) or just a
declared size (performance experiments); CRC is computed over real bytes
when present, otherwise derived deterministically from the block identity
so protocol plumbing can still be exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..profiles import BLOCK_SIZE
from .crc import crc32


@dataclass
class DataBlock:
    """One 4KB (by default) block of a virtual disk."""

    vd_id: str
    lba: int  # logical block address, in units of blocks
    size_bytes: int = BLOCK_SIZE
    data: Optional[bytes] = None
    _crc: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError(f"negative LBA: {self.lba}")
        if self.size_bytes <= 0 or self.size_bytes > BLOCK_SIZE:
            raise ValueError(
                f"block size must be in (0, {BLOCK_SIZE}], got {self.size_bytes}"
            )
        if self.data is not None and len(self.data) != self.size_bytes:
            raise ValueError(
                f"payload length {len(self.data)} != declared size {self.size_bytes}"
            )

    @property
    def crc(self) -> int:
        """CRC32 of the payload (cached), or a synthetic stand-in."""
        if self._crc is None:
            if self.data is not None:
                self._crc = crc32(self.data)
            else:
                key = f"{self.vd_id}/{self.lba}/{self.size_bytes}".encode()
                self._crc = crc32(key)
        return self._crc

    def with_data(self, data: bytes) -> "DataBlock":
        """Return a copy of this block carrying the given payload."""
        return DataBlock(self.vd_id, self.lba, len(data), data)

    @classmethod
    def random(
        cls, vd_id: str, lba: int, rng: random.Random, size_bytes: int = BLOCK_SIZE
    ) -> "DataBlock":
        """A block with reproducible random payload bytes."""
        data = rng.randbytes(size_bytes)
        return cls(vd_id, lba, size_bytes, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        has_data = "data" if self.data is not None else "size-only"
        return f"<DataBlock {self.vd_id}@{self.lba} {self.size_bytes}B {has_data}>"


def split_into_blocks(
    vd_id: str, offset_bytes: int, length_bytes: int, block_size: int = BLOCK_SIZE
) -> list[DataBlock]:
    """Split a byte-addressed I/O into its covering block list.

    Offsets are block-aligned in EBS guests (the guest OS issues 4KB-aligned
    requests); misaligned requests are rejected loudly rather than silently
    rounded, because silent rounding corrupts LBA arithmetic downstream.
    """
    if offset_bytes % block_size:
        raise ValueError(f"offset {offset_bytes} not {block_size}-aligned")
    if length_bytes <= 0:
        raise ValueError(f"non-positive I/O length: {length_bytes}")
    first = offset_bytes // block_size
    count = (length_bytes + block_size - 1) // block_size
    blocks = []
    remaining = length_bytes
    for i in range(count):
        size = min(block_size, remaining)
        blocks.append(DataBlock(vd_id, first + i, size))
        remaining -= size
    return blocks
