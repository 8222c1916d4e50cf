"""DeltaLog: an append-only, fsync'd log of length-prefixed JSON frames.

The log reuses the wire protocol's frame codec
(:func:`~repro.framing.encode_frame` / :func:`~repro.framing.decode_body`,
the same codec :mod:`repro.server.protocol` speaks on sockets): one frame
per journaled delta, so the on-disk format and the on-wire format are the
same thing — a replica tailing the log over the network reads identical
bytes.  Only the codec's JSON kind ever reaches a journal: a delta holds
no :class:`~repro.framing.Rows`.

Crash anatomy
-------------
Appends are sequential and the process dies at most once, so the only
damage a crash can inflict is a *torn tail*: the final frame's header or
body is short.  :func:`scan_log` stops at the first short read and
reports the torn byte count; :meth:`DeltaLog.repair` truncates the file
back to the last complete frame so appends resume at a frame boundary.
A frame that is complete but *garbage* — an absurd length prefix, a
non-JSON body — cannot be produced by a crash and raises
:class:`~repro.exceptions.WalError` instead of being dropped silently.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ProtocolError, WalError
from repro.framing import HEADER_BYTES, decode_body, decode_length, encode_frame


def scan_log(path: str) -> Tuple[List[Dict[str, object]], int, int]:
    """Read every complete frame of the log at ``path``.

    Returns ``(entries, valid_bytes, torn_bytes)``: the decoded frame
    payloads, the byte offset of the last complete frame boundary, and how
    many trailing bytes belong to a torn (crash-interrupted) final frame.
    A missing file is an empty log.  Complete-but-corrupt frames raise
    :class:`~repro.exceptions.WalError`.
    """
    entries: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return entries, 0, 0
    size = os.path.getsize(path)
    valid = 0
    with open(path, "rb") as handle:
        while True:
            header = handle.read(HEADER_BYTES)
            if len(header) < HEADER_BYTES:
                break  # clean EOF (empty read) or torn header
            try:
                length = decode_length(header)
            except ProtocolError as exc:
                raise WalError(f"{path}: corrupt frame length at byte {valid}: {exc}") from exc
            body = handle.read(length)
            if len(body) < length:
                break  # torn body
            try:
                entries.append(decode_body(body))
            except ProtocolError as exc:
                raise WalError(f"{path}: corrupt frame body at byte {valid}: {exc}") from exc
            valid = handle.tell()
    return entries, valid, size - valid


def log_identity(path: str) -> Optional[Tuple[int, int]]:
    """Identity ``(st_dev, st_ino)`` of the file currently at ``path``.

    :meth:`DeltaLog.truncate` rotates a new inode into place rather than
    shrinking the old one, so a tailer that remembers the identity it
    opened can tell "the log I am reading was checkpointed away" (identity
    changed — finish the old file, reopen) from "no new frames yet"
    (identity unchanged).  Returns ``None`` while no log file exists.
    """
    try:
        info = os.stat(path)
    except OSError:
        return None
    return (info.st_dev, info.st_ino)


class DeltaLog:
    """One tenant's append-only delta journal.

    Parameters
    ----------
    path:
        The log file.  Created on first append.
    fsync:
        When True (the default, and what durability means), every append
        is flushed *and* fsync'd before it returns — the write-ahead
        contract is that a delta is on stable storage before its fold is
        acknowledged.  ``fsync=False`` trades that guarantee for speed
        (useful for benchmarking the fsync cost itself).
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self._handle = None
        self._lock = threading.Lock()
        self.entries_appended = 0
        self.bytes_appended = 0
        self.truncations = 0

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #

    def _ensure_open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, payload: Dict[str, object]) -> int:
        """Append one frame; durable (fsync'd) before returning.

        Returns the number of bytes written.
        """
        frame = encode_frame(payload)
        with self._lock:
            handle = self._ensure_open()
            handle.write(frame)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self.entries_appended += 1
            self.bytes_appended += len(frame)
        return len(frame)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def truncate(self) -> None:
        """Drop every entry (after a checkpoint made them redundant).

        Rotation, not in-place truncation: a fresh empty file replaces the
        log atomically (``os.replace``), so a concurrent tailer holding the
        old inode open keeps reading *stable* bytes to a clean EOF instead
        of watching the file shrink mid-frame and then refill with frames
        from a later generation — the torn/garbage reads an in-place
        ``truncate(0)`` hands a reader positioned past the new EOF.  The
        tailer detects the rotation by comparing its handle's inode with
        the path's (see :func:`log_identity`) and reopens.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if not os.path.exists(self.path):
                return
            directory = os.path.dirname(os.path.abspath(self.path)) or "."
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
            )
            try:
                if self.fsync:
                    os.fsync(fd)
                os.close(fd)
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self.truncations += 1

    def repair(self, valid_bytes: int) -> int:
        """Truncate a torn tail back to the last complete frame boundary.

        ``valid_bytes`` is the boundary :func:`scan_log` reported; returns
        the number of bytes dropped.  Must be called before the first
        append after a crash, so new frames don't land mid-garbage.
        """
        with self._lock:
            if self._handle is not None:
                raise WalError(f"{self.path}: repair must precede appends")
            if not os.path.exists(self.path):
                return 0
            size = os.path.getsize(self.path)
            if size <= valid_bytes:
                return 0
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            return size - valid_bytes

    @property
    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaLog(path={self.path!r}, appended={self.entries_appended}, "
            f"bytes={self.size_bytes})"
        )
