"""Length-prefixed frame codec shared by the wire protocol and the WAL.

One *frame* is a 4-byte big-endian length and a body of that many bytes.
The body's first byte is its *kind*::

    JSON kind   { ... }                      a compact UTF-8 JSON object
    rows kind   0x01 | >I n | header | tail  header: n bytes of compact JSON,
                                             tail: packed row blocks

A payload that holds no :class:`Rows` encodes to the JSON kind — the only
kind requests, the write-ahead log (:mod:`repro.wal`) and replication ever
produce, so a journal can be inspected with the same tooling as a network
capture.  Match rows are fixed-arity int tuples, and spelling them as
JSON cost more than computing them; a sender wraps them in :class:`Rows`
(packed when built) and :func:`encode_frame` moves every block it meets,
at any depth, into the tail, leaving ``{"$rows":[count,arity,width]}`` in
the header where the rows were.  A block is ``count * arity`` little-endian
ints of one width, the narrowest of 2 (unsigned), 4 or 8 (signed) bytes
that holds every value.  Blocks lie in the tail in header order, nothing
between or after them.

:func:`decode_body` checks each descriptor against the bytes the tail
still has before it unpacks anything and puts a tuple of int tuples back
in place of the descriptor.  A frame holds at most as many rows as it has
bytes, counted over all its blocks (rows without columns claim no bytes,
so nothing else bounds them); both ends refuse one that claims more.  The
decoder is the only producer of tuples — JSON arrays decode to lists —
which is how :func:`rows_from_wire` tells rows that were validated from
whatever else a peer put in that field.  In a JSON-kind body
``{"$rows": ...}`` is an ordinary dict.

This module deliberately depends on nothing but :mod:`repro.exceptions` —
it sits *below* both consumers.
"""

from __future__ import annotations

import json
import struct
from itertools import starmap
from typing import Dict, Sequence, Tuple

from repro.exceptions import ProtocolError

#: Hard cap on one frame's body; anything larger is a framing error (a
#: desynchronised stream reads garbage lengths long before this bound).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Bytes of the length prefix.
HEADER_BYTES = _HEADER.size

#: First body byte of the rows kind.  Not printable, so never the start of
#: JSON text; a JSON-kind body starts with ``{``.
ROWS_KIND = b"\x01"

#: Key of the descriptor a row block leaves behind in the header.
ROWS_KEY = "$rows"

_ROWS_KEY_JSON = b'"%s":' % ROWS_KEY.encode()

#: Block width in bytes -> struct code, narrowest first.  Node ids are
#: non-negative, so the 2-byte width is unsigned (ids up to 65 535).
_WIDTH_CODES = {2: "H", 4: "i", 8: "q"}

_ROWS_PREFIX = HEADER_BYTES + len(ROWS_KIND)

#: One decoded block: a tuple of equal-length int tuples.
RowTuples = Tuple[Tuple[int, ...], ...]


class Rows:
    """Fixed-arity int rows, packed once, for the tail of a rows-kind frame.

    Building one is the packing: ragged rows, a non-int value or one
    outside 64 bits raise :class:`~repro.exceptions.ProtocolError` here,
    on the thread that produced the rows, not later inside a send.
    """

    __slots__ = ("count", "arity", "width", "data")

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        try:
            self.count = len(rows)
            self.arity = len(rows[0]) if self.count else 0
            for width, code in _WIDTH_CODES.items():
                pack = struct.Struct(f"<{self.arity}{code}").pack
                try:
                    # One pack per row: a row of another length or a non-int
                    # is a struct.error, like a value too wide for this code.
                    self.data = b"".join(starmap(pack, rows))
                except struct.error:
                    continue
                self.width = width
                return
        except TypeError as exc:
            raise ProtocolError(f"rows must be a sequence of int tuples: {exc}") from exc
        raise ProtocolError(
            f"rows must be {self.count} tuples of {self.arity} ints that fit 64 bits"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rows({self.count} x {self.arity}, {self.width}-byte)"


def _unpack(count: int, arity: int, width: int, data) -> RowTuples:
    if not arity:
        return ((),) * count
    return tuple(struct.iter_unpack(f"<{arity}{_WIDTH_CODES[width]}", data))


def rows_from_wire(value, what: str) -> RowTuples:
    """The rows of one decoded field, or :class:`ProtocolError`.

    Accepts what :func:`decode_body` put there (a tuple: ints by
    construction) and the empty list of a report shipped without its
    occurrences.  Anything else — JSON arrays of whatever a peer chose —
    is refused, so no caller ever sees a row that is not a tuple of ints.
    """
    if type(value) is tuple:
        return value
    if value == []:
        return ()
    raise ProtocolError(f"{what} must be a packed list of rows, got {value!r:.80}")


def encode_frame(payload: Dict[str, object]) -> bytes:
    """One frame: 4-byte big-endian length + body (kinds: module docstring).

    Without a :class:`Rows` in ``payload`` the body is exactly
    ``json.dumps(payload, separators=(",", ":"))``.
    """
    blocks = []
    rows = 0

    def describe(value):
        nonlocal rows
        if isinstance(value, Rows):
            blocks.append(value.data)
            rows += value.count
            return {ROWS_KEY: (value.count, value.arity, value.width)}
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    header = json.dumps(payload, separators=(",", ":"), default=describe).encode("utf-8")
    if not blocks:
        parts = (header,)
    elif header.count(_ROWS_KEY_JSON) != len(blocks):
        # The decoder reads every such key of a rows-kind header as a
        # descriptor; refuse here what it would refuse there.
        raise ProtocolError(f"{ROWS_KEY!r} is reserved in a frame that carries rows")
    else:
        parts = (ROWS_KIND, _HEADER.pack(len(header)), header, *blocks)
    size = sum(map(len, parts))
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {size} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    if rows > size:
        # Only rows without columns can get here; the decoder's bound.
        raise ProtocolError(f"{rows} rows in a frame body of {size} bytes")
    return b"".join((_HEADER.pack(size), *parts))


def _loads(data, **hooks):
    try:
        payload = json.loads(str(data, "utf-8"), **hooks)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_body(body: bytes) -> Dict[str, object]:
    """Decode one frame body of either kind; the payload must be an object.

    Every failure is a :class:`~repro.exceptions.ProtocolError`, and what
    decoding allocates is linear in ``len(body)``: a block is unpacked only
    once its ``count * arity * width`` bytes are known to be there, and
    all the blocks together hold at most ``len(body)`` rows.
    """
    if body[:1] != ROWS_KIND:
        return _loads(body)
    view = memoryview(body)
    if len(view) < _ROWS_PREFIX:
        raise ProtocolError("rows frame is shorter than its own prefix")
    (header_bytes,) = _HEADER.unpack(view[len(ROWS_KIND) : _ROWS_PREFIX])
    offset = _ROWS_PREFIX + header_bytes
    if offset > len(view):
        raise ProtocolError(
            f"rows frame header of {header_bytes} bytes overruns a {len(view)}-byte body"
        )

    # A frame never carries more rows than it has bytes: every row with a
    # column claims tail bytes, and rows without one (arity 0) claim none,
    # so only this budget, shared by all the blocks, bounds them.
    rows_left = len(view)

    def restore(obj):
        nonlocal offset, rows_left
        if ROWS_KEY not in obj:
            return obj
        descriptor = obj[ROWS_KEY]
        if (
            len(obj) != 1
            or type(descriptor) is not list
            or len(descriptor) != 3
            or any(type(field) is not int for field in descriptor)
        ):
            raise ProtocolError(f"malformed row block descriptor {obj!r:.80}")
        count, arity, width = descriptor
        if width not in _WIDTH_CODES or not (
            0 <= count <= rows_left and 0 <= arity <= len(view)
        ):
            raise ProtocolError(f"row block descriptor out of range: {descriptor}")
        rows_left -= count
        end = offset + count * arity * width
        if end > len(view):
            raise ProtocolError(
                f"row block {descriptor} overruns the frame by {end - len(view)} bytes"
            )
        rows = _unpack(count, arity, width, view[offset:end])
        offset = end
        return rows

    payload = _loads(view[_ROWS_PREFIX:offset], object_hook=restore)
    if offset != len(view):
        raise ProtocolError(
            f"rows frame has {len(view) - offset} trailing bytes no block claims"
        )
    return payload


def check_length(length: int) -> int:
    """Validate a decoded length prefix against the frame cap."""
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES} cap "
            "(desynchronised or malicious stream)"
        )
    return length


def decode_length(header: bytes) -> int:
    """Decode and validate a frame's 4-byte length prefix."""
    (length,) = _HEADER.unpack(header)
    return check_length(length)
