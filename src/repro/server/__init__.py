"""Wire-protocol serving: the network face of the :class:`~repro.api.GraphDB` facade.

* :class:`GraphCatalog` — the multi-tenant registry of named databases;
* :class:`GraphServer` — the asyncio TCP server speaking the
  length-prefixed frame protocol of :mod:`repro.server.protocol`;
* the protocol module's frame codec and error mapping, shared with the
  synchronous :class:`~repro.client.GraphClient`.
"""

from repro.server.catalog import GraphCatalog
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    decode_error,
    encode_error,
    encode_frame,
    read_frame,
    read_frame_sync,
)
from repro.server.server import GraphServer

__all__ = [
    "GraphCatalog",
    "GraphServer",
    "MAX_FRAME_BYTES",
    "decode_error",
    "encode_error",
    "encode_frame",
    "read_frame",
    "read_frame_sync",
]
