"""Reference encoders and inputs for the byte-identity tests.

A database's content hash names its snapshot, and its structure JSON
is framed into every segment the store writes.  Both are cached per
x-tuple (:meth:`repro.db.tuples.XTuple.encoded`); the functions here
are the plain whole-database encoders those caches must reproduce byte
for byte: one ``json.dumps`` per x-tuple streamed into SHA-256, and
one ``json.dumps`` of the whole :func:`repro.db.io.database_to_dict`
payload.  Stores, journals and snapshot ids written before the caches
existed stay valid only while the two agree.

:func:`reference_columns` lays a payload out as the typed columns a
schema-4 segment holds, entry by entry with :mod:`struct` and one
``json.dumps`` per table, and :func:`reference_v4_segment` writes that
layout.  :func:`reference_frames` frames a payload the way a schema-2
segment does, one ``json.dumps`` per x-tuple entry;
:func:`reference_v2_segment` writes the schema-2 layout and
:func:`reference_v1_segment` the schema-1 layout every store held
before schema 2 -- the committed replay fixtures included.  So the
tests build segments of every schema without the store's own encoder.

:data:`ENCODING_CASES` names the databases every identity test runs
on: the paper's two examples, complete and incomplete synthetic data,
MOV (mapping values), and non-ASCII identifiers, values and names.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.datasets.mov import generate_mov, mov_ranking
from repro.datasets.paper import udb1, udb2
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import ProbabilisticDatabase
from repro.db.io import database_to_dict
from repro.db.ranking import RankingFunction, by_key, by_value
from repro.db.tuples import make_xtuple


def reference_content_hash(db: ProbabilisticDatabase) -> str:
    """The content hash, one ``json.dumps`` per x-tuple, nothing cached."""
    hasher = hashlib.sha256()
    for xt in db.xtuples:
        record = [
            xt.xid,
            [[t.tid, t.value, t.probability] for t in xt.alternatives],
        ]
        hasher.update(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _dumps(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def reference_structure_json(db: ProbabilisticDatabase) -> bytes:
    """A segment's structure JSON, dumped from the whole payload."""
    return _dumps(database_to_dict(db))


def reference_frames(payload: Mapping[str, Any]) -> Tuple[bytes, List[int]]:
    """A structure JSON built from a :func:`database_to_dict`-shaped
    payload one x-tuple entry at a time, and each entry's byte length:
    the head (the payload with an empty ``xtuples``, minus its ``]}``),
    the entries joined by ``,``, then ``]}``."""
    fragments = [_dumps(entry) for entry in payload["xtuples"]]
    head = _dumps({**payload, "xtuples": []})[:-2]
    return head + b",".join(fragments) + b"]}", [len(f) for f in fragments]


def reference_columns(payload: Mapping[str, Any]) -> Dict[str, Tuple[str, bytes]]:
    """A :func:`database_to_dict`-shaped payload as a schema-4 segment's
    structure columns, ``name -> (dtype, bytes)``: the id tables as
    JSON arrays, the sizes as little-endian u32, and values and
    probabilities as little-endian float64 when every one is a
    ``float``, else as a JSON array."""
    entries = payload["xtuples"]
    alternatives = [alt for entry in entries for alt in entry["alternatives"]]

    def numbers(items: List[Any]) -> Tuple[str, bytes]:
        if all(type(item) is float for item in items):
            return "<f8", struct.pack(f"<{len(items)}d", *items)
        return "json", _dumps(items)

    sizes = [len(entry["alternatives"]) for entry in entries]
    return {
        "xids": ("json", _dumps([entry["xid"] for entry in entries])),
        "tids": ("json", _dumps([alt["tid"] for alt in alternatives])),
        "sizes": ("<u4", struct.pack(f"<{len(sizes)}I", *sizes)),
        "values": numbers([alt["value"] for alt in alternatives]),
        "probabilities": numbers([alt["probability"] for alt in alternatives]),
    }


def _segment(
    header: Dict[str, Any],
    columns: Mapping[str, Tuple[str, bytes]],
    structure: bytes = b"",
) -> bytes:
    """Magic, u32 header length, the header JSON with its column table,
    ``structure``, the column bytes, then a SHA-256 of all of it."""
    header = {
        **header,
        "columns": [
            {
                "name": column,
                "dtype": dtype,
                "length": len(blob),
                "crc32": zlib.crc32(blob),
            }
            for column, (dtype, blob) in columns.items()
        ],
    }
    header_json = _dumps(header)
    body = b"".join(
        [b"RPROSEG1", struct.pack(">I", len(header_json)), header_json, structure]
        + [blob for _, blob in columns.values()]
    )
    return body + hashlib.sha256(body).digest()


def reference_v1_segment(
    snapshot_id: str,
    content_hash: str,
    name: str,
    ranking: Mapping[str, Any],
    structure_json: bytes,
    columns: Mapping[str, Tuple[str, bytes]],
) -> bytes:
    """A schema-1 segment: the header, the structure JSON, the ranked
    columns, the digest."""
    header = {
        "schema": 1,
        "snapshot_id": snapshot_id,
        "content_hash": content_hash,
        "name": name,
        "ranking": dict(ranking),
        "structure_length": len(structure_json),
        "structure_crc32": zlib.crc32(structure_json),
    }
    return _segment(header, columns, structure_json)


def reference_v2_segment(
    snapshot_id: str,
    content_hash: str,
    name: str,
    ranking: Mapping[str, Any],
    structure_json: bytes,
    fragment_lengths: List[int],
    columns: Mapping[str, Tuple[str, bytes]],
) -> bytes:
    """A schema-2 segment: the header, the structure JSON, its frame
    table of u32 fragment lengths, the ranked columns, the digest."""
    frames = struct.pack(f">{len(fragment_lengths)}I", *fragment_lengths)
    header = {
        "schema": 2,
        "snapshot_id": snapshot_id,
        "content_hash": content_hash,
        "name": name,
        "ranking": dict(ranking),
        "structure_length": len(structure_json),
        "structure_crc32": zlib.crc32(structure_json),
        "frames": len(fragment_lengths),
        "frames_crc32": zlib.crc32(frames),
    }
    return _segment(header, columns, structure_json + frames)


def reference_v4_segment(
    snapshot_id: str,
    content_hash: str,
    name: str,
    ranking: Mapping[str, Any],
    columns: Mapping[str, Tuple[str, bytes]],
) -> bytes:
    """A schema-4 segment: the header, then ``columns`` -- the
    structure columns (:func:`reference_columns`) followed by the
    ranked ones -- then the digest."""
    header = {
        "schema": 4,
        "snapshot_id": snapshot_id,
        "content_hash": content_hash,
        "name": name,
        "ranking": dict(ranking),
    }
    return _segment(header, columns)


def _non_ascii() -> ProbabilisticDatabase:
    return ProbabilisticDatabase(
        [
            make_xtuple(
                "Straße-1",
                [
                    ("tü1", {"größe": 2.5, "名前": "Ünïcødé ☃"}, 0.5),
                    ("tü2", {"größe": 1.0, "名前": "日本"}, 0.25),
                ],
            ),
            make_xtuple("Ωmega", [("t☃", {"größe": 3.0, "名前": ""}, 1.0)]),
        ],
        name="naïve ☃",
    )


#: name -> (database factory, ranking factory).
ENCODING_CASES: Dict[
    str, Tuple[Callable[[], ProbabilisticDatabase], Callable[[], RankingFunction]]
] = {
    "udb1": (udb1, by_value),
    "udb2": (udb2, by_value),
    "synthetic_complete": (
        lambda: generate_synthetic(num_xtuples=40, seed=3),
        by_value,
    ),
    "synthetic_incomplete": (
        lambda: generate_synthetic(num_xtuples=40, seed=3, completion=0.85),
        by_value,
    ),
    "mov": (
        lambda: generate_mov(num_xtuples=40, seed=5, incomplete_fraction=0.3),
        mov_ranking,
    ),
    "non_ascii": (_non_ascii, lambda: by_key("größe")),
}
