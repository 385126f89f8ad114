"""Byte-level encoding of snapshot segments and journal records.

Everything in this module is pure ``bytes -> objects`` (and back): no
file handles, no fsync, no fault hooks -- those live in
:mod:`repro.store.store`.  Keeping the codec side-effect free makes the
corruption tests trivial (flip a bit in the encoded bytes, decode, get
:class:`~repro.exceptions.CorruptSnapshotError`) and keeps the decoder
honest: every code path out of :func:`decode_segment` either returns a
fully verified payload or raises the typed error.

Segment layout (all integers big-endian)::

    offset 0   magic            b"RPROSEG1"
    offset 8   header length    u32
    offset 12  header JSON      schema version, snapshot id, content
                                hash, ranking descriptor, structure
                                framing, per-column (dtype, byte
                                length, crc32)
    ...        structure JSON   canonical JSON of the database_to_dict()
                                payload (sorted keys, no whitespace)
    ...        column bytes     the ranked view's canonical arrays,
                                raw, concatenated in header order
    tail       SHA-256 digest   over every preceding byte (32 bytes)

The writer assembles those same structure bytes from per-x-tuple
fragments cached on each x-tuple
(:func:`repro.db.io.database_structure_json`), so persisting a cleaning
outcome encodes only the x-tuples the cleaning changed.  The decoder
still parses, and the store still verifies, the whole structure.

Two layers of verification are deliberate: the per-column CRCs localize
*which* column a flipped bit landed in (diagnostics), while the
whole-file digest catches anything the CRCs structurally cannot --
header tampering, spliced files, truncation landing on a frame
boundary.

Journal records are framed ``u32 length | u32 crc32 | JSON payload``.
A record is only as durable as its frame: the reader accepts the
longest clean prefix of frames and reports where (and why) it stopped,
which is exactly the truncate-the-torn-tail semantics the write-ahead
log needs.

Journal record kinds (the ``"kind"`` field of the JSON payload):

``"clean"``
    An executed cleaning outcome -- base snapshot, full spec, outcome
    id and content hash -- appended *before* the outcome segment is
    written (the write-ahead contract).
``"tombstone"``
    Phase one of the two-phase segment delete: the named segment is
    logically dead (retention/GC chose it) but its file may still be
    on disk.  Recovery skips loading tombstoned segments; the unlink
    happens only after the *next* successful journal checkpoint has
    made the tombstone durable, so a crash anywhere in between leaves
    either a durable tombstone (file ignored, swept later) or the
    pre-GC state -- never a half-deleted store.

**Lock records** are the single JSON line inside ``store.lock``:
holder PID, the host's boot nonce, the mode, plus a CRC over the
payload so a torn write is detected, not misread.  The record is
advisory bookkeeping *about* the flock holder -- the kernel lock
itself, not this record, is the mutual exclusion -- which is why
:func:`decode_lock_record` returns ``None`` on any damage instead of
raising: a broken record only costs diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import CorruptSnapshotError

#: First eight bytes of every segment file.
MAGIC = b"RPROSEG1"

#: Bumped on any incompatible layout change; the decoder refuses
#: versions it does not know rather than guessing.
SCHEMA_VERSION = 1

_U32 = struct.Struct(">I")
_DIGEST_BYTES = 32


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _canonical_json(payload: Mapping[str, Any]) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


def encode_segment(
    snapshot_id: str,
    content_hash: str,
    name: str,
    ranking: Mapping[str, Any],
    structure_json: bytes,
    columns: Mapping[str, Tuple[str, bytes]],
) -> bytes:
    """Encode one snapshot segment.

    ``structure_json`` is the database's canonical structure JSON
    (:func:`repro.db.io.database_structure_json`), framed verbatim.
    ``columns`` maps column name to ``(dtype_str, raw_bytes)``; the
    header records their order, dtypes, lengths and CRCs so the decoder
    can slice and verify them without trusting anything but the magic.
    """
    column_meta: List[Dict[str, Any]] = []
    column_blobs: List[bytes] = []
    for column_name, (dtype, blob) in columns.items():
        column_meta.append(
            {
                "name": column_name,
                "dtype": dtype,
                "length": len(blob),
                "crc32": _crc(blob),
            }
        )
        column_blobs.append(blob)
    header = {
        "schema": SCHEMA_VERSION,
        "snapshot_id": snapshot_id,
        "content_hash": content_hash,
        "name": name,
        "ranking": dict(ranking),
        "structure_length": len(structure_json),
        "structure_crc32": _crc(structure_json),
        "columns": column_meta,
    }
    header_json = _canonical_json(header)
    body = b"".join(
        [MAGIC, _U32.pack(len(header_json)), header_json, structure_json]
        + column_blobs
    )
    return body + hashlib.sha256(body).digest()


def decode_segment(
    data: bytes,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, bytes]]:
    """Decode and fully verify one segment's bytes.

    Returns ``(header, structure, columns)`` where ``columns`` maps
    column name to its raw bytes.  Raises
    :class:`~repro.exceptions.CorruptSnapshotError` on *any*
    verification failure -- bad magic, unknown schema, truncation,
    column CRC mismatch, whole-file digest mismatch -- never a partial
    or guessed payload.
    """

    def corrupt(reason: str) -> CorruptSnapshotError:
        return CorruptSnapshotError(f"segment corrupt: {reason}")

    if len(data) < len(MAGIC) + _U32.size + _DIGEST_BYTES:
        raise corrupt(f"file too short ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise corrupt(f"bad magic {data[: len(MAGIC)]!r}")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise corrupt("whole-file digest mismatch")

    offset = len(MAGIC)
    (header_length,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    if offset + header_length > len(body):
        raise corrupt("header frame overruns file")
    try:
        header = json.loads(body[offset : offset + header_length])
    except json.JSONDecodeError as exc:
        raise corrupt(f"header is not valid JSON ({exc})") from None
    offset += header_length
    if not isinstance(header, dict):
        raise corrupt("header is not an object")
    if header.get("schema") != SCHEMA_VERSION:
        raise corrupt(
            f"unknown schema version {header.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )

    structure_length = header.get("structure_length")
    if not isinstance(structure_length, int) or structure_length < 0:
        raise corrupt(f"bad structure length {structure_length!r}")
    if offset + structure_length > len(body):
        raise corrupt("structure frame overruns file")
    structure_json = body[offset : offset + structure_length]
    offset += structure_length
    if _crc(structure_json) != header.get("structure_crc32"):
        raise corrupt("structure CRC mismatch")
    try:
        structure = json.loads(structure_json)
    except json.JSONDecodeError as exc:
        raise corrupt(f"structure is not valid JSON ({exc})") from None

    column_meta = header.get("columns")
    if not isinstance(column_meta, list):
        raise corrupt("header lacks a column table")
    columns: Dict[str, bytes] = {}
    for meta in column_meta:
        if not isinstance(meta, dict) or not isinstance(
            meta.get("length"), int
        ):
            raise corrupt(f"bad column entry {meta!r}")
        length = meta["length"]
        if length < 0 or offset + length > len(body):
            raise corrupt(
                f"column {meta.get('name')!r} overruns file"
            )
        blob = body[offset : offset + length]
        offset += length
        if _crc(blob) != meta.get("crc32"):
            raise corrupt(f"column {meta.get('name')!r} CRC mismatch")
        columns[meta.get("name")] = blob
    if offset != len(body):
        raise corrupt(f"{len(body) - offset} trailing bytes after columns")
    return header, structure, columns


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def encode_journal_record(payload: Mapping[str, Any]) -> bytes:
    """Frame one journal record: ``u32 length | u32 crc | JSON``."""
    blob = _canonical_json(payload)
    return _U32.pack(len(blob)) + _U32.pack(_crc(blob)) + blob


def encode_journal(records: Sequence[Mapping[str, Any]]) -> bytes:
    """Encode a whole journal: the concatenated frames of ``records``.

    The checkpoint/compaction path rewrites the journal through this
    (encode the surviving records fully in memory, write to a temp
    sibling, fsync, rename) so the same atomic-replacement discipline
    that protects segments protects the compacted journal: a crash at
    any point leaves the complete old journal or the complete new one.
    """
    return b"".join(encode_journal_record(record) for record in records)


def decode_journal(
    data: bytes,
) -> Tuple[List[Dict[str, Any]], int, str]:
    """Parse the longest clean prefix of journal frames.

    Returns ``(records, clean_length, stop_reason)``:
    ``clean_length`` is the byte offset up to which every frame
    verified (the length recovery truncates the file back to) and
    ``stop_reason`` is ``""`` when the whole file parsed, else a
    human-readable description of the first bad frame.  A torn or
    bit-flipped tail therefore costs exactly the broken record and
    nothing before it.
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    frame_header = _U32.size * 2
    while offset < len(data):
        if offset + frame_header > len(data):
            return records, offset, "torn frame header"
        (length,) = _U32.unpack_from(data, offset)
        (crc,) = _U32.unpack_from(data, offset + _U32.size)
        start = offset + frame_header
        if start + length > len(data):
            return records, offset, "torn record payload"
        blob = data[start : start + length]
        if _crc(blob) != crc:
            return records, offset, "record CRC mismatch"
        try:
            record = json.loads(blob)
        except json.JSONDecodeError:
            return records, offset, "record is not valid JSON"
        if not isinstance(record, dict):
            return records, offset, "record is not an object"
        records.append(record)
        offset = start + length
    return records, offset, ""


# ---------------------------------------------------------------------------
# Lock records
# ---------------------------------------------------------------------------

#: Lock-record schema version (inside the JSON payload).
LOCK_SCHEMA = 1


def encode_lock_record(payload: Mapping[str, Any]) -> bytes:
    """Encode the lock file's holder record: ``u32 crc | JSON | \\n``.

    ``payload`` carries the holder's identity (pid, boot nonce, mode);
    the schema version is stamped here so decoders can refuse layouts
    they do not know.
    """
    body = dict(payload)
    body["schema"] = LOCK_SCHEMA
    blob = _canonical_json(body)
    return _U32.pack(_crc(blob)) + blob + b"\n"


def decode_lock_record(data: bytes) -> Optional[Dict[str, Any]]:
    """Decode a lock file's bytes; ``None`` on any damage.

    Unlike segments and journal frames, a broken lock record is
    *benign* -- the flock, not the record, is the mutual exclusion --
    so damage degrades to "holder unknown" rather than an error.
    """
    if len(data) < _U32.size + 1 or not data.endswith(b"\n"):
        return None
    (crc,) = _U32.unpack_from(data, 0)
    blob = data[_U32.size : -1]
    if _crc(blob) != crc:
        return None
    try:
        record = json.loads(blob)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or record.get("schema") != LOCK_SCHEMA:
        return None
    return record
