"""Byte-level encoding of snapshot segments and journal records.

Everything in this module is pure ``bytes -> objects`` (and back): no
file handles, no fsync, no fault hooks -- those live in
:mod:`repro.store.store`.  Keeping the codec side-effect free makes the
corruption tests trivial (flip a bit in the encoded bytes, decode, get
:class:`~repro.exceptions.CorruptSnapshotError`) and keeps the decoder
honest: every code path out of :func:`decode_segment` either returns a
fully verified payload or raises the typed error.

Full-segment layout, schema 4 (integers big-endian, column data as
its dtype says)::

    offset 0   magic            b"RPROSEG1"
    offset 8   header length    u32
    offset 12  header JSON      schema version, snapshot id, content
                                hash, name, ranking descriptor,
                                per-column (name, dtype, byte length,
                                crc32)
    ...        column bytes     raw, concatenated in header order
    tail       SHA-256 digest   over every preceding byte (32 bytes)

The columns are :data:`SEGMENT_COLUMNS`, in order: the database's own
structure columns in x-tuple order (:func:`repro.db.io.encode_structure`)
-- ``xids`` and ``tids`` as canonical JSON arrays (dtype ``"json"``),
``sizes`` as u32, ``values`` and ``probabilities`` as float64 or, when
an entry is not a Python ``float``, as a JSON array -- then the ranked
view's canonical arrays.  :func:`decode_segment` checks that the
column table is exactly that, with a dtype each column may carry and
whole items, and returns the bytes unparsed: a rebuild parses and
checks them, and the database it builds holds them as its columns
(:func:`repro.db.io.database_from_columns`), parsing no JSON beyond
the two id tables.

**Schemas 1 and 2** (read only) hold the structure as the canonical
JSON of the ``database_to_dict()`` payload between the header and the
ranked columns, with ``structure_length`` and ``structure_crc32`` in
the header.  Schema 2 adds a frame table after it -- a u32 byte length
per x-tuple entry, ``frames`` and ``frames_crc32`` in the header --
laid out as :func:`repro.db.io.structure_head` of the header's name,
the entries joined by ``,``, then ``]}``.  :func:`decode_segment`
checks the table's CRC and that the frames tile the structure exactly
-- no gap, no overlap, no trailing byte, and a head that is byte for
byte the database header with an empty ``xtuples`` -- and then ignores
it: both schemas return the structure JSON unparsed, and a rebuild
parses it whole, through ingest's checks
(:func:`repro.db.io.database_from_dict`).  Segments are never
rewritten, so every store written before schema 4 keeps opening.  Any
other version is refused.

**Delta segments** (schema :data:`DELTA_SCHEMA`, 3) store a cleaning
outcome as its base plus a change set::

    offset 0   magic            b"RPROSEG1"
    offset 8   header length    u32
    offset 12  header JSON      schema version, snapshot id, content
                                hash, base snapshot id, depth (links
                                down to the nearest full segment) and
                                the change set {xid: revealed tid, or
                                null for a removal}
    tail       SHA-256 digest   over every preceding byte (32 bytes)

There is no structure, frame table or column: the name and the ranking
are the base's, and the store rebuilds the view from the base.  The
``"base"`` key marks a header as a delta's; each layout reads only its
own schema versions, so a full layout labelled 3 is refused as an
unknown schema.  :func:`read_header` reads a header alone, without the
digest, for bookkeeping such as which base a delta names.

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
    An executed cleaning outcome, appended *before* the outcome segment
    is written (the write-ahead contract): the base snapshot, the
    outcome's change set against it (journal schema 2; schema-1
    records have none and replay by re-executing the spec), and the
    outcome id, content hash and spec as provenance.
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
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.db.database import CANONICAL_COLUMNS
from repro.db.io import COLUMN_DTYPES, JSON_COLUMN, STRUCTURE_COLUMNS, structure_head
from repro.exceptions import CorruptSnapshotError

#: First eight bytes of every segment file.
MAGIC = b"RPROSEG1"

#: The schema :func:`encode_segment` writes for a full segment: its
#: structure as typed columns.  Bumped on any incompatible layout
#: change; the decoder refuses versions it does not know rather than
#: guessing.
SCHEMA_VERSION = 4

#: Every full-segment schema :func:`decode_segment` reads.
READABLE_SCHEMAS = (1, 2, 4)

#: The columns of a schema-4 segment, in order: the structure, then
#: the ranked view's canonical arrays.
SEGMENT_COLUMNS = STRUCTURE_COLUMNS + CANONICAL_COLUMNS

#: The schema of a delta segment: a header that names its base (the
#: ``"base"`` key marks the layout) and carries its change set, and
#: nothing else.
DELTA_SCHEMA = 3

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


class DeltaLink(NamedTuple):
    """What a delta segment stores besides its id and content hash."""

    #: The snapshot id of the segment the change set applies to.
    base: str
    #: Links down to the nearest full segment (1 on a full base).
    depth: int
    #: x-tuple id -> revealed tuple id, or ``None`` for a removal.
    changes: Dict[str, Optional[str]]


class Segment(NamedTuple):
    """One segment's verified parts, as :func:`decode_segment` returns
    them; nothing in the structure has been parsed yet."""

    header: Dict[str, Any]
    #: The canonical structure JSON, as framed (schemas 1 and 2; empty
    #: for a schema-4 segment, whose structure is columns, and for a
    #: delta).
    structure_json: bytes
    #: Column name -> raw bytes (empty for a delta).
    columns: Dict[str, bytes]

    def typed_columns(self, names: Sequence[str]) -> Dict[str, Tuple[str, bytes]]:
        """``name -> (dtype, bytes)`` for the named columns, with each
        dtype as the header records it."""
        dtypes = {meta["name"]: meta["dtype"] for meta in self.header["columns"]}
        return {name: (dtypes[name], self.columns[name]) for name in names}

    @property
    def link(self) -> Optional[DeltaLink]:
        """The base and change set of a delta segment; ``None`` for a
        full one."""
        return header_link(self.header)


def header_link(header: Mapping[str, Any]) -> Optional[DeltaLink]:
    """The :class:`DeltaLink` a decoded header carries, or ``None``
    when it is a full segment's."""
    if "base" not in header:
        return None
    return DeltaLink(header["base"], header["depth"], header["changes"])


def encode_segment(
    snapshot_id: str,
    content_hash: str,
    columns: Mapping[str, Tuple[str, bytes]],
    name: Optional[str] = None,
    ranking: Optional[Mapping[str, Any]] = None,
    delta: Optional[DeltaLink] = None,
) -> bytes:
    """Encode one snapshot segment: full, or a delta when ``delta`` is
    given.

    A full segment (schema :data:`SCHEMA_VERSION`) holds everything a
    snapshot needs: ``columns`` maps each of :data:`SEGMENT_COLUMNS`,
    in that order, to ``(dtype_str, raw_bytes)`` -- the database's
    structure columns (:func:`repro.db.io.encode_structure`), then the
    ranked view's arrays.  The header records their order, dtypes, lengths and CRCs,
    so the decoder can slice and verify them without trusting anything
    but the magic.

    A delta segment (schema :data:`DELTA_SCHEMA`) is a header alone --
    id, content hash, base, depth and change set -- so ``columns``
    must be empty and no name or ranking may be given: the store
    rebuilds the snapshot from its base.
    """
    if delta is not None:
        if columns or name is not None or ranking is not None:
            raise ValueError("a delta segment holds a header and nothing else")
        header: Dict[str, Any] = {
            "schema": DELTA_SCHEMA,
            "snapshot_id": snapshot_id,
            "content_hash": content_hash,
            "base": delta.base,
            "depth": delta.depth,
            "changes": dict(delta.changes),
        }
        header_json = _canonical_json(header)
        body = MAGIC + _U32.pack(len(header_json)) + header_json
        return body + hashlib.sha256(body).digest()
    if name is None or ranking is None:
        raise ValueError("a full segment needs its name and ranking")
    if tuple(columns) != SEGMENT_COLUMNS:
        raise ValueError(f"a full segment holds the columns {SEGMENT_COLUMNS}")
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
        "columns": column_meta,
    }
    header_json = _canonical_json(header)
    body = b"".join(
        [MAGIC, _U32.pack(len(header_json)), header_json] + column_blobs
    )
    return body + hashlib.sha256(body).digest()


def _corrupt(reason: str) -> CorruptSnapshotError:
    return CorruptSnapshotError(f"segment corrupt: {reason}")


def _parse_header(header_json: bytes) -> Dict[str, Any]:
    """Parse a header JSON and check its schema, and a delta's link."""
    try:
        header = json.loads(header_json)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise _corrupt(f"header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise _corrupt("header is not an object")
    schema = header.get("schema")
    delta = "base" in header
    readable = (DELTA_SCHEMA,) if delta else READABLE_SCHEMAS
    if type(schema) is not int or schema not in readable:
        raise _corrupt(
            f"unknown schema version {schema!r} (expected one of {readable})"
        )
    if delta:
        base, depth = header.get("base"), header.get("depth")
        if not isinstance(base, str) or not base:
            raise _corrupt(f"bad delta base {base!r}")
        if type(depth) is not int or depth < 1:
            raise _corrupt(f"bad delta depth {depth!r}")
        if not isinstance(header.get("changes"), dict):
            raise _corrupt("delta header lacks a change set")
    return header


def read_header(read: Callable[[int], bytes]) -> Dict[str, Any]:
    """A segment's header, read from the start of the file through
    ``read(size)`` (e.g. an open file's ``read``).

    Only the header is read, so the whole-file digest is *not*
    checked: this serves bookkeeping that must not pay for a full
    segment's bytes (which base a delta names), never a load.
    """
    prefix = read(len(MAGIC) + _U32.size)
    if len(prefix) < len(MAGIC) + _U32.size or prefix[: len(MAGIC)] != MAGIC:
        raise _corrupt("no segment header")
    (length,) = _U32.unpack_from(prefix, len(MAGIC))
    header_json = read(length)
    if len(header_json) < length:
        raise _corrupt("header frame overruns file")
    return _parse_header(header_json)


def decode_segment(data: bytes) -> Segment:
    """Decode and fully verify one segment's bytes.

    Raises :class:`~repro.exceptions.CorruptSnapshotError` on *any*
    verification failure -- bad magic, unknown schema, truncation, CRC
    mismatch, whole-file digest mismatch, a malformed header, frames
    that do not tile the structure, a column table that is not the
    schema's -- never a partial or guessed payload.  The structure
    comes back unparsed: as raw columns (schema 4; see
    :func:`repro.db.io.database_from_columns`) or as its JSON
    (schemas 1 and 2).  A delta (schema 3) comes back as its header
    alone; see :attr:`Segment.link`.
    """
    if len(data) < len(MAGIC) + _U32.size + _DIGEST_BYTES:
        raise _corrupt(f"file too short ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise _corrupt(f"bad magic {data[: len(MAGIC)]!r}")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise _corrupt("whole-file digest mismatch")

    offset = len(MAGIC)
    (header_length,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    if offset + header_length > len(body):
        raise _corrupt("header frame overruns file")
    header = _parse_header(body[offset : offset + header_length])
    offset += header_length
    schema = header["schema"]
    if "base" in header:
        if offset != len(body):
            raise _corrupt(f"{len(body) - offset} trailing bytes after a delta header")
        return Segment(header, b"", {})

    structure_json = b""
    if schema != SCHEMA_VERSION:
        structure_json, offset = _decode_structure(header, body, offset)
    columns = _decode_columns(header, body, offset)
    if schema == SCHEMA_VERSION:
        _check_column_table(header["columns"])
    return Segment(header, structure_json, columns)


def _decode_structure(
    header: Mapping[str, Any], body: bytes, offset: int
) -> Tuple[bytes, int]:
    """A schema-1 or schema-2 segment's structure JSON, and the offset
    after it and, for schema 2, after its checked frame table."""
    structure_length = header.get("structure_length")
    if not isinstance(structure_length, int) or structure_length < 0:
        raise _corrupt(f"bad structure length {structure_length!r}")
    if offset + structure_length > len(body):
        raise _corrupt("structure frame overruns file")
    structure_json = body[offset : offset + structure_length]
    offset += structure_length
    if _crc(structure_json) != header.get("structure_crc32"):
        raise _corrupt("structure CRC mismatch")

    if header["schema"] == 2:
        count = header.get("frames")
        if type(count) is not int or count < 0:
            raise _corrupt(f"bad frame count {count!r}")
        end = offset + count * _U32.size
        if end > len(body):
            raise _corrupt("frame table overruns file")
        frames = body[offset:end]
        offset = end
        if _crc(frames) != header.get("frames_crc32"):
            raise _corrupt("frame table CRC mismatch")
        _check_frames(
            structure_json, struct.unpack(f">{count}I", frames), header.get("name")
        )
    return structure_json, offset


def _decode_columns(
    header: Mapping[str, Any], body: bytes, offset: int
) -> Dict[str, bytes]:
    """The columns the header's table frames from ``offset`` to the
    end of the body, each checked against its CRC."""
    column_meta = header.get("columns")
    if not isinstance(column_meta, list):
        raise _corrupt("header lacks a column table")
    columns: Dict[str, bytes] = {}
    for meta in column_meta:
        if (
            not isinstance(meta, dict)
            or not isinstance(meta.get("name"), str)
            or meta["name"] in columns
            or not isinstance(meta.get("length"), int)
        ):
            raise _corrupt(f"bad column entry {meta!r}")
        name, length = meta["name"], meta["length"]
        if length < 0 or offset + length > len(body):
            raise _corrupt(f"column {name!r} overruns file")
        blob = body[offset : offset + length]
        offset += length
        if _crc(blob) != meta.get("crc32"):
            raise _corrupt(f"column {name!r} CRC mismatch")
        columns[name] = blob
    if offset != len(body):
        raise _corrupt(f"{len(body) - offset} trailing bytes after columns")
    return columns


def _check_column_table(column_meta: Sequence[Mapping[str, Any]]) -> None:
    """A schema-4 column table names :data:`SEGMENT_COLUMNS` in order,
    each structure column with a dtype it may carry and a length that
    holds whole items."""
    names = tuple(meta["name"] for meta in column_meta)
    if names != SEGMENT_COLUMNS:
        raise _corrupt(f"columns {names} are not {SEGMENT_COLUMNS}")
    for meta in column_meta[: len(STRUCTURE_COLUMNS)]:
        name, dtype = meta["name"], meta.get("dtype")
        if dtype not in COLUMN_DTYPES[name]:
            raise _corrupt(f"column {name!r} has dtype {dtype!r}")
        if dtype != JSON_COLUMN and meta["length"] % np.dtype(dtype).itemsize:
            raise _corrupt(f"column {name!r} does not hold whole {dtype} items")


def _check_frames(structure_json: bytes, lengths: Sequence[int], name: Any) -> None:
    """Check that a schema-2 frame table tiles its structure exactly:
    the header of a database named ``name`` with an empty ``xtuples``
    (:func:`~repro.db.io.structure_head`), then each frame with one
    ``,`` between neighbours, then ``]}`` -- nothing missing, nothing
    left over."""
    head = structure_head(name)
    if not structure_json.startswith(head):
        raise _corrupt("structure does not start with the database header")
    framed = len(head) + sum(lengths) + max(len(lengths) - 1, 0) + 2
    if framed != len(structure_json):
        raise _corrupt(
            f"x-tuple frames cover {framed} of {len(structure_json)} "
            f"structure bytes"
        )
    offset = len(head)
    for index, length in enumerate(lengths):
        if index:
            if structure_json[offset : offset + 1] != b",":
                raise _corrupt(f"no separator before x-tuple frame #{index}")
            offset += 1
        offset += length
    if structure_json[offset:] != b"]}":
        raise _corrupt("structure does not end after its last x-tuple frame")


def check_json(segment: Segment) -> None:
    """Parse a full segment's JSON -- a schema-1 or -2 structure, or a
    schema-4 segment's JSON columns (the id tables, and values or
    probabilities stored as JSON) -- raising
    :class:`~repro.exceptions.CorruptSnapshotError` unless the
    structure is a JSON object and each column a JSON array.  A light
    check; the whole check is a rebuild."""
    if segment.header["schema"] == SCHEMA_VERSION:
        parts = [
            (f"column {name!r}", blob, list, "a JSON array")
            for name, (dtype, blob) in segment.typed_columns(STRUCTURE_COLUMNS).items()
            if dtype == JSON_COLUMN
        ]
    else:
        parts = [("structure", segment.structure_json, dict, "an object")]
    for label, blob, kind, noun in parts:
        try:
            parsed = json.loads(blob)
        except ValueError as exc:
            raise _corrupt(f"{label} is not valid JSON ({exc})") from None
        if not isinstance(parsed, kind):
            raise _corrupt(f"{label} is not {noun}")


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
