"""Reference encoders and inputs for the byte-identity tests.

A database's content hash names its snapshot, and its structure JSON
is framed into every segment the store writes.  Both are cached per
x-tuple (:meth:`repro.db.tuples.XTuple.encoded`); the functions here
are the plain whole-database encoders those caches must reproduce byte
for byte: one ``json.dumps`` per x-tuple streamed into SHA-256, and
one ``json.dumps`` of the whole :func:`repro.db.io.database_to_dict`
payload.  Stores, journals and snapshot ids written before the caches
existed stay valid only while the two agree.

:func:`reference_frames` frames a payload the way a schema-2 segment
does, one ``json.dumps`` per x-tuple entry, and
:func:`reference_v1_segment` writes the schema-1 layout every store
held before schema 2 -- the committed replay fixtures included -- so
the tests can build segments of either schema without the store's
own encoder.

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


def reference_v1_segment(
    snapshot_id: str,
    content_hash: str,
    name: str,
    ranking: Mapping[str, Any],
    structure_json: bytes,
    columns: Mapping[str, Tuple[str, bytes]],
) -> bytes:
    """A schema-1 segment: magic, u32 header length, header JSON, the
    structure JSON, the column bytes, then a SHA-256 of all of it."""
    header = {
        "schema": 1,
        "snapshot_id": snapshot_id,
        "content_hash": content_hash,
        "name": name,
        "ranking": dict(ranking),
        "structure_length": len(structure_json),
        "structure_crc32": zlib.crc32(structure_json),
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
        [b"RPROSEG1", struct.pack(">I", len(header_json)), header_json, structure_json]
        + [blob for _, blob in columns.values()]
    )
    return body + hashlib.sha256(body).digest()


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
