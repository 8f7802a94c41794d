"""Storage substrate: blocks, CRC algebra, crypto, SSDs, chunk/block
servers, segment and QoS tables, and the backend network."""

from .block import DataBlock, split_into_blocks
from .block_server import BlockServer
from .bn import BackendNetwork
from .chunk_server import ChunkReply, ChunkRequest, ChunkServer
from .crc import (
    crc32,
    crc32_combine,
    crc32_of_concat,
    crc32_raw,
    crc32_xor_identity_offset,
    xor_bytes,
)
from .crypto import BlockCipher
from .qos import QosSpec, QosTable, TokenBucket
from .segment_table import (
    BLOCKS_PER_SEGMENT,
    Extent,
    SEGMENT_BYTES,
    Segment,
    SegmentTable,
    UnmappedAddressError,
)
from .ssd import SsdDevice, lognormal_around

__all__ = [
    "DataBlock",
    "split_into_blocks",
    "crc32",
    "crc32_raw",
    "crc32_combine",
    "crc32_of_concat",
    "crc32_xor_identity_offset",
    "xor_bytes",
    "BlockCipher",
    "SsdDevice",
    "lognormal_around",
    "ChunkServer",
    "ChunkRequest",
    "ChunkReply",
    "BlockServer",
    "BackendNetwork",
    "Segment",
    "Extent",
    "SegmentTable",
    "UnmappedAddressError",
    "SEGMENT_BYTES",
    "BLOCKS_PER_SEGMENT",
    "QosTable",
    "QosSpec",
    "TokenBucket",
]
