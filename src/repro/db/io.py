"""Serialization of probabilistic databases (JSON and CSV).

The JSON format keeps the x-tuple grouping explicit; the CSV format is
one row per tuple with the x-tuple id as a column, which matches how
Table I of the paper is laid out (sensor id, tuple id, value,
probability).  Both formats round-trip exactly.

A snapshot segment holds a database's structure as its content-hash
records, the bytes its content hash is taken over, and
:func:`database_from_records` parses them into the database's columns,
checks them over whole columns and builds the database on them,
without building a tuple object or formatting a number.  Older
segments stay readable: schema-4 segments hold typed columns, which
:func:`database_from_columns` checks the same way, and segments
before those the canonical form of the JSON payload
(:func:`database_to_dict` dumped with sorted keys and no whitespace),
which the store reads back whole through :func:`database_from_dict`,
the same validation ingest runs.

Ingest is the trust boundary: external payloads are validated *before*
any tuple object is constructed, and violations raise
:class:`~repro.exceptions.InvalidDataError` naming the offending row
or x-tuple -- a NaN probability in row 1234 of a CSV reports row 1234,
not a bare ``InvalidDatabaseError`` three layers later.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.db.database import (
    ProbabilisticDatabase,
    column_array,
    hash_records,
    object_array,
)
from repro.db.tuples import PROBABILITY_SUM_TOLERANCE, ProbabilisticTuple, XTuple
from repro.exceptions import InvalidDataError

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _check_probability(value: Any, where: str) -> float:
    """Validate one ingested existential probability.

    Rejects non-numbers, booleans, NaN, infinities, non-positive
    values and values above one -- each with the ingest location in
    the message, so malformed input is attributable to its source row.
    """
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise InvalidDataError(
            f"{where}: probability must be a finite number, got {value!r}"
        )
    if not 0.0 < value <= 1.0:
        raise InvalidDataError(
            f"{where}: probability must lie in (0, 1], got {value!r}"
        )
    return float(value)


def _check_new_id(value: Any, seen: Set[str], label: str, where: str) -> str:
    """Validate one ingested identifier and record it as seen."""
    if not isinstance(value, str) or not value:
        raise InvalidDataError(
            f"{where}: {label} must be a non-empty string, got {value!r}"
        )
    if value in seen:
        raise InvalidDataError(f"{where}: duplicate {label} {value!r}")
    seen.add(value)
    return value


def _header(name: str) -> Dict[str, Any]:
    return {
        "format": "repro.probabilistic_database",
        "version": _FORMAT_VERSION,
        "name": name,
    }


def _canonical_json(payload: Any) -> bytes:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def database_to_dict(db: ProbabilisticDatabase) -> Dict[str, Any]:
    """Encode a database as a plain JSON-serializable dictionary."""
    tids, values, probabilities = (
        db.tids.tolist(), db.values.tolist(), db.probabilities.tolist()
    )
    offsets = db.offsets.tolist()
    payload = _header(db.name)
    payload["xtuples"] = [
        {
            "xid": xid,
            "alternatives": [
                {"tid": tids[i], "value": values[i], "probability": probabilities[i]}
                for i in range(lo, hi)
            ],
        }
        for xid, lo, hi in zip(db.xids, offsets, offsets[1:])
    ]
    return payload


def structure_head(name: str) -> bytes:
    """The canonical JSON of a database named ``name`` up to its first
    x-tuple entry: everything but the entries, their ``,`` separators
    and the closing ``]}`` (a schema-2 segment's frames tile the rest)."""
    # Sorted keys put "xtuples" last; cut its empty list's "]}".
    return _canonical_json({**_header(name), "xtuples": []})[:-2]


def xtuple_from_entry(
    entry: Any, position: int, seen_xids: Set[str], seen_tids: Set[str]
) -> XTuple:
    """Validate one :func:`database_to_dict` x-tuple entry and build it.

    ``position`` is the entry's index in the payload, used to name an
    entry whose id is unusable.  ``seen_xids`` / ``seen_tids`` collect
    the ids of the whole payload, so that a duplicate across entries
    is reported here.  Raises
    :class:`~repro.exceptions.InvalidDataError` (see
    :func:`database_from_dict`).
    """
    if not isinstance(entry, dict):
        raise InvalidDataError(
            f"x-tuple #{position}: must be an object, got {entry!r}"
        )
    xid = _check_new_id(
        entry.get("xid"), seen_xids, "x-tuple id", f"x-tuple #{position}"
    )
    alternatives = entry.get("alternatives")
    if not isinstance(alternatives, (list, tuple)):
        raise InvalidDataError(
            f"x-tuple {xid!r}: alternatives must be a list, "
            f"got {alternatives!r}"
        )
    if not alternatives:
        raise InvalidDataError(
            f"x-tuple {xid!r}: has no alternatives; every x-tuple "
            f"must hold at least one tuple"
        )
    members: List[ProbabilisticTuple] = []
    total = 0.0
    for index, alt in enumerate(alternatives):
        where = f"x-tuple {xid!r}, alternative #{index}"
        if not isinstance(alt, dict):
            raise InvalidDataError(f"{where}: must be an object, got {alt!r}")
        tid = _check_new_id(alt.get("tid"), seen_tids, "tuple id", where)
        if "value" not in alt:
            raise InvalidDataError(
                f"tuple {tid!r} of x-tuple {xid!r}: has no value"
            )
        probability = _check_probability(
            alt.get("probability"), f"tuple {tid!r} of x-tuple {xid!r}"
        )
        members.append(
            ProbabilisticTuple(
                tid=tid,
                xtuple_id=xid,
                value=alt["value"],
                probability=probability,
            )
        )
        # Summed in XTuple.__post_init__'s order, so this check and
        # the model's agree on every float.
        total += probability
    if total > 1.0 + PROBABILITY_SUM_TOLERANCE:
        raise InvalidDataError(
            f"x-tuple {xid!r}: existential probabilities sum to "
            f"{total!r} > 1"
        )
    return XTuple(xid=xid, alternatives=tuple(members))


#: The structure columns of a schema-4 segment, in order.  Read only:
#: a segment written now holds :data:`RECORDS_COLUMN` instead.
STRUCTURE_COLUMNS = ("xids", "tids", "sizes", "values", "probabilities")

#: The dtype label of a column stored as one canonical JSON array.
JSON_COLUMN = "json"

#: The dtype of the ``sizes`` column, and of a ``values`` or
#: ``probabilities`` column whose every entry is a Python ``float``.
SIZES_DTYPE = "<u4"
FLOAT_DTYPE = "<f8"

#: The dtypes each schema-4 structure column may carry.
COLUMN_DTYPES: Dict[str, Tuple[str, ...]] = {
    "xids": (JSON_COLUMN,),
    "tids": (JSON_COLUMN,),
    "sizes": (SIZES_DTYPE,),
    "values": (FLOAT_DTYPE, JSON_COLUMN),
    "probabilities": (FLOAT_DTYPE, JSON_COLUMN),
}

#: The structure column of a schema-5 segment, and its dtype label: the
#: database's content-hash records
#: (:meth:`~repro.db.database.ProbabilisticDatabase.content_records`),
#: each NUL-terminated, joined -- the very bytes the content hash is
#: taken over.
RECORDS_COLUMN = "records"
RECORDS_DTYPE = "records"

#: The bytes the float parse of records accepts: printable ASCII but
#: the backslash, so that no string holds an escape, and the NUL that
#: ends each record.
_PLAIN_BYTES = bytes(c for c in range(0x20, 0x7F) if c != 0x5C) + b"\0"

#: The bytes a JSON number is spelled with.
_NUMBER_BYTES = b"0123456789.eE+-"

#: A record's structure bytes, as spaces: what is left splits into its
#: numbers.
_STRUCTURE_TO_SPACES = bytes.maketrans(b'[]",\0', b"     ")

#: A number token that is a JSON float, not an int: it has a fraction
#: or an exponent.
_FLOAT_TOKEN = re.compile(rb"[.eE]").search

#: The byte codes of "," and "]".
_COMMA, _CLOSE = b",]"

#: A values or probabilities column as it is read: a float64 array, or
#: a list of what JSON holds.
_Numbers = Union[List[Any], np.ndarray]

#: A database's columns as records parse into them: x-tuple ids, tuple
#: ids, sizes, values, probabilities.
_Parsed = Tuple[List[Any], List[Any], np.ndarray, _Numbers, _Numbers]


def _json_list(blob: bytes, column: str) -> List[Any]:
    try:
        items = json.loads(blob)
    except ValueError as exc:
        raise InvalidDataError(f"column {column!r} is not valid JSON ({exc})") from None
    if not isinstance(items, list):
        raise InvalidDataError(f"column {column!r} is not a JSON array")
    return items


def _check_ids(table: List[Any], label: str) -> None:
    if not set(map(type, table)) <= {str} or not all(table):
        bad = next(s for s in table if type(s) is not str or not s)
        raise InvalidDataError(f"{label} must be a non-empty string, got {bad!r}")


def _string_table(blob: bytes, column: str, label: str) -> List[str]:
    table = _json_list(blob, column)
    _check_ids(table, label)
    return table


def _first_duplicate(items: List[str], label: str) -> None:
    if len(set(items)) < len(items):
        seen: Set[str] = set()
        for item in items:
            if item in seen:
                raise InvalidDataError(f"duplicate {label} {item!r}")
            seen.add(item)


def _checked_probabilities(probabilities: _Numbers, tids: List[str]) -> np.ndarray:
    """The probabilities as float64, once every entry is a number, not
    a ``bool``, finite and in ``(0, 1]``; ``probabilities`` is a float64
    array, or a list of what JSON held."""
    if isinstance(probabilities, np.ndarray):
        array = probabilities
    else:
        for tid, p in zip(tids, probabilities):
            if type(p) not in (int, float):  # bool, and every non-number
                raise InvalidDataError(
                    f"tuple {tid!r}: probability must be a finite number, got {p!r}"
                )
        # An int too large for a float is out of range either way.
        array = np.array([min(p, 2.0) for p in probabilities], dtype=np.float64)
    bad = np.flatnonzero(~((array > 0.0) & (array <= 1.0)))
    if bad.size:
        row = int(bad[0])
        p = probabilities[row]
        if isinstance(probabilities, np.ndarray):
            p = float(p)
        finite = not isinstance(p, float) or math.isfinite(p)
        raise InvalidDataError(
            f"tuple {tids[row]!r}: probability must "
            f"{'lie in (0, 1]' if finite else 'be a finite number'}, got {p!r}"
        )
    return array


def _checked_columns(
    xids: List[str],
    tids: List[str],
    sizes: np.ndarray,
    values: _Numbers,
    probabilities: _Numbers,
) -> np.ndarray:
    """Check a structure held as columns -- ids already checked to be
    non-empty strings -- as :func:`database_from_columns` describes,
    and return its row offsets (int64, one past each x-tuple's last
    row)."""
    m = len(xids)
    if len(sizes) != m:
        raise InvalidDataError(f"{len(sizes)} x-tuple sizes for {m} x-tuple ids")
    empty = np.flatnonzero(sizes < 1)
    if empty.size:
        raise InvalidDataError(
            f"x-tuple {xids[int(empty[0])]!r}: has no alternatives; every "
            f"x-tuple must hold at least one tuple"
        )
    n = int(sizes.sum())
    if not n == len(tids) == len(values) == len(probabilities):
        raise InvalidDataError(
            f"x-tuple sizes sum to {n} tuples, but the columns hold "
            f"{len(tids)} tuple ids, {len(values)} values and "
            f"{len(probabilities)} probabilities"
        )
    _first_duplicate(xids, "x-tuple id")
    _first_duplicate(tids, "tuple id")
    array = _checked_probabilities(probabilities, tids)
    bounds = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    # XTuple.__post_init__ sums left to right from 0.0: add each
    # x-tuple's j-th alternative in turn.
    mass = np.zeros(m)
    for j in range(int(sizes.max(initial=0))):
        open_rows = np.flatnonzero(sizes > j)
        mass[open_rows] += array[bounds[open_rows] + j]
    over = np.flatnonzero(mass > 1.0 + PROBABILITY_SUM_TOLERANCE)
    if over.size:
        l = int(over[0])
        raise InvalidDataError(
            f"x-tuple {xids[l]!r}: existential probabilities sum to "
            f"{float(mass[l])!r} > 1"
        )
    return bounds


def _as_list(column: _Numbers) -> List[Any]:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _as_column(column: _Numbers) -> np.ndarray:
    return column if isinstance(column, np.ndarray) else column_array(column)


def database_from_columns(
    name: str, columns: Mapping[str, Tuple[str, bytes]]
) -> ProbabilisticDatabase:
    """Check a schema-4 segment's structure columns and build its
    database.

    ``columns`` maps each of :data:`STRUCTURE_COLUMNS` to ``(dtype,
    bytes)``: ``xids`` and ``tids`` as canonical JSON arrays, ``sizes``
    as u32, ``values`` and ``probabilities`` as float64 or, when an
    entry is not a Python ``float``, as a JSON array.  Over whole
    columns, this checks what :func:`xtuple_from_entry`,
    :class:`~repro.db.tuples.XTuple` and
    :class:`~repro.db.database.ProbabilisticDatabase` check one object
    at a time (:func:`database_from_records` runs the same checks):

    * ids are non-empty strings, x-tuple ids are unique, and tuple ids
      are unique across the database;
    * every size is at least 1, and the sizes sum to the tuple count;
    * probabilities are numbers, not ``bool``, finite and in
      ``(0, 1]``;
    * each x-tuple's mass is at most ``1 +``
      :data:`~repro.db.tuples.PROBABILITY_SUM_TOLERANCE`, summed in
      ``XTuple.__post_init__``'s order.

    A failure raises :class:`~repro.exceptions.InvalidDataError` naming
    the check and its first offender.  The database then holds the
    checked columns themselves, with their content-hash records
    (:func:`~repro.db.database.hash_records`, which formats every
    number) and a float64 column's array, and builds no tuple object:
    its objects are built on demand, from the columns, if a caller asks
    for them.
    """
    xids = _string_table(columns["xids"][1], "xids", "x-tuple id")
    tids = _string_table(columns["tids"][1], "tids", "tuple id")
    sizes = np.frombuffer(columns["sizes"][1], dtype=SIZES_DTYPE).astype(np.int64)
    numbers: List[_Numbers] = []
    for column in ("values", "probabilities"):
        dtype, blob = columns[column]
        numbers.append(
            _json_list(blob, column)
            if dtype == JSON_COLUMN
            else np.frombuffer(blob, dtype=FLOAT_DTYPE)
        )
    values, probabilities = numbers
    bounds = _checked_columns(xids, tids, sizes, values, probabilities)
    records = hash_records(
        xids, tids, _as_list(values), _as_list(probabilities), bounds.tolist()
    )
    return ProbabilisticDatabase._from_columns(
        name,
        xids,
        object_array(tids),
        _as_column(values),
        _as_column(probabilities),
        bounds,
        records,
    )


def _skeleton(size: int) -> bytes:
    """A canonical record of ``size`` rows with its strings emptied and
    its numbers left out."""
    return b'["",[' + b",".join([b'["",,]'] * size) + b"]]\0"


def _float_records(blob: bytes, pieces: List[bytes]) -> Optional[_Parsed]:
    """The columns the records ``blob`` hold -- ``pieces`` are the
    records without their NULs -- parsed without a JSON decoder, or
    ``None`` when the records are not plain: a string holds a
    backslash, a byte is not printable ASCII, a number is not a float
    literal (an ``int``, ``NaN``, a mapping's entry), or a record is
    not ``[xid, [[tid, value, probability], ...]]`` exactly as
    canonical JSON lays it out.

    Every step is one C-speed pass: the records split on ``"`` into
    strings and the structure between them, which must be each
    record's skeleton (:func:`_skeleton`) once its numbers are left
    out and must leave no number slot empty, and each number is one
    ``float`` call, as :func:`json.loads` reads a float.  A plain
    record that JSON reads therefore parses to the same columns either
    way.  ``float`` also reads spellings JSON's grammar refuses -- a
    leading ``+`` or ``.``, a ``.`` with no digit after it, leading
    zeros (``+1.0``, ``.5``, ``2.``, ``01.5``) -- and they read as the
    number they spell (see :func:`database_from_records`).
    """
    if blob.translate(None, _PLAIN_BYTES):
        return None
    quotes = np.fromiter(
        map(bytes.count, pieces, repeat(b'"')), dtype=np.int64, count=len(pieces)
    )
    # A record whose quotes do not pair, or that holds no string, has no
    # skeleton of this size: the comparison below refuses it.
    sizes = quotes // 2 - 1
    parts = blob.split(b'"')
    strings, structure = parts[1::2], b'""'.join(parts[::2])
    size_list = sizes.tolist()
    skeletons = {size: _skeleton(size) for size in set(size_list)}
    if structure.translate(None, _NUMBER_BYTES) != b"".join(
        map(skeletons.__getitem__, size_list)
    ):
        return None
    # Outside the strings a comma is followed by "," or "]" only where
    # a number slot is empty: one pass over the bytes finds it.
    codes = np.frombuffer(structure, dtype=np.uint8)
    after = codes[1:]
    if ((codes[:-1] == _COMMA) & ((after == _COMMA) | (after == _CLOSE))).any():
        return None
    n = len(strings) - len(size_list)
    # float() reads a number's bytes as they are.
    tokens = structure.translate(_STRUCTURE_TO_SPACES).split()
    # No row at all: the JSON parse gives the checks their reason.
    if not n or len(tokens) != 2 * n:
        return None
    # float() rejects a second ".", so 2n of them put one in each.
    if structure.count(b".") != 2 * n and not all(map(_FLOAT_TOKEN, tokens)):
        return None
    try:
        values, probabilities = (
            np.fromiter(map(float, column), dtype=np.float64, count=n)
            for column in (tokens[0::2], tokens[1::2])
        )
    except ValueError:
        return None
    first = np.zeros(len(strings), dtype=bool)
    first[np.cumsum(sizes + 1) - (sizes + 1)] = True
    texts = object_array(strings)
    xids, tids = (
        b'"'.join(texts[mask].tolist()).decode("ascii").split('"')
        for mask in (first, ~first)
    )
    return xids, tids, sizes, values, probabilities


def _json_records(pieces: List[bytes]) -> _Parsed:
    """The columns the records ``pieces`` (without their NULs) hold,
    each parsed by :func:`json.loads`; raises
    :class:`~repro.exceptions.InvalidDataError` on a record that is not
    JSON or not ``[xid, [[tid, value, probability], ...]]``."""
    xids: List[Any] = []
    sizes: List[int] = []
    rows: List[Any] = []
    for index, piece in enumerate(pieces):
        try:
            record = json.loads(piece)
        except ValueError as exc:
            raise InvalidDataError(f"record #{index} is not valid JSON ({exc})") from None
        if not (
            type(record) is list
            and len(record) == 2
            and type(record[1]) is list
            and all(type(row) is list and len(row) == 3 for row in record[1])
        ):
            raise InvalidDataError(
                f"record #{index} is not [xid, [[tid, value, probability], ...]]"
            )
        xids.append(record[0])
        sizes.append(len(record[1]))
        rows += record[1]
    tids, values, probabilities = (
        [[row[field] for row in rows] for field in range(3)]
    )
    return xids, tids, np.array(sizes, dtype=np.int64), values, probabilities


def database_from_records(
    name: str, blob: bytes, content_hash: str
) -> ProbabilisticDatabase:
    """Parse a schema-5 segment's records, check them and build its
    database.

    ``blob`` is the :data:`RECORDS_COLUMN`: each x-tuple's content-hash
    record, canonical JSON of ``[xid, [[tid, value, probability],
    ...]]`` plus a NUL, joined.  ``content_hash`` is its SHA-256, which
    the caller has checked against the snapshot's.  The records parse
    into the database's columns by a float parse
    (:func:`_float_records`) when they are plain -- no escape in a
    string, every number a float literal -- and otherwise one
    :func:`json.loads` per record; either way the columns then pass
    every check :func:`database_from_columns` makes, with its reasons.
    A failure raises :class:`~repro.exceptions.InvalidDataError`.

    The database keeps ``blob``'s records, sliced, as its content-hash
    records, and ``content_hash`` as its content hash, so no number is
    formatted and nothing is hashed again.  The columns are what the
    hashed bytes spell: a number spelled other than as ``repr`` spells
    it, which only a writer that re-hashes the column can store, reads
    as the number it spells -- ``0.50`` either way, and in plain
    records also the spellings only ``float`` takes (``+1.0``, ``.5``,
    ``2.``, ``01.5``; see :func:`_float_records`), which are not
    checked for, since a check would cost about what the float parse
    saves over :func:`json.loads`.
    """
    pieces = blob.split(b"\0")
    if pieces.pop():
        raise InvalidDataError("the records do not end with a NUL")
    parsed = _float_records(blob, pieces) if pieces else None
    xids, tids, sizes, values, probabilities = (
        _json_records(pieces) if parsed is None else parsed
    )
    _check_ids(xids, "x-tuple id")
    _check_ids(tids, "tuple id")
    bounds = _checked_columns(xids, tids, sizes, values, probabilities)
    return ProbabilisticDatabase._from_columns(
        name,
        xids,
        object_array(tids),
        _as_column(values),
        _as_column(probabilities),
        bounds,
        list(map(operator.add, pieces, repeat(b"\0"))),
        content_hash=content_hash,
    )


def database_from_dict(payload: Dict[str, Any]) -> ProbabilisticDatabase:
    """Decode a database from :func:`database_to_dict` output.

    Malformed input -- a missing or non-list ``xtuples``, entries or
    alternatives that are not objects, invalid or duplicate
    identifiers, empty x-tuples, alternatives without a value,
    probabilities that are NaN, infinite, non-positive or above one,
    or that sum above one within an x-tuple -- raises
    :class:`~repro.exceptions.InvalidDataError` naming the offending
    x-tuple / tuple, before any database object is built.  A payload
    that is not a repro database at all raises ``ValueError``.
    """
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "repro.probabilistic_database"
    ):
        raise ValueError("payload is not a repro probabilistic database")
    entries = payload.get("xtuples")
    if not isinstance(entries, (list, tuple)):
        raise InvalidDataError(
            f"payload: xtuples must be a list of x-tuples, got {entries!r}"
        )
    seen_xids: Set[str] = set()
    seen_tids: Set[str] = set()
    xtuples = [
        xtuple_from_entry(entry, position, seen_xids, seen_tids)
        for position, entry in enumerate(entries)
    ]
    return ProbabilisticDatabase(xtuples, name=payload.get("name", ""))


def save_json(db: ProbabilisticDatabase, path: PathLike) -> None:
    """Write ``db`` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(database_to_dict(db), f, indent=2, sort_keys=False)


def load_json(path: PathLike) -> ProbabilisticDatabase:
    """Read a database previously written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as f:
        return database_from_dict(json.load(f))


def save_csv(db: ProbabilisticDatabase, path: PathLike) -> None:
    """Write ``db`` to ``path`` as CSV (one row per tuple).

    Non-scalar values (e.g. the MOV ``{date, rating}`` mappings) are
    JSON-encoded inside the ``value`` column.
    """
    tids, values, probabilities = (
        db.tids.tolist(), db.values.tolist(), db.probabilities.tolist()
    )
    offsets = db.offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["xtuple_id", "tid", "value", "probability"])
        for xid, lo, hi in zip(db.xids, offsets, offsets[1:]):
            for i in range(lo, hi):
                writer.writerow(
                    [xid, tids[i], json.dumps(values[i]), repr(probabilities[i])]
                )


def load_csv(path: PathLike, name: str = "") -> ProbabilisticDatabase:
    """Read a database previously written by :func:`save_csv`.

    Rows sharing an ``xtuple_id`` are grouped into one x-tuple in file
    order; x-tuples appear in order of their first row.  Malformed
    rows -- missing / duplicate identifiers, probabilities that do not
    parse or that are NaN, infinite, non-positive or above one --
    raise :class:`~repro.exceptions.InvalidDataError` naming the
    offending row number (header = row 1).
    """
    grouped: Dict[str, List[ProbabilisticTuple]] = {}
    order: List[str] = []
    seen_tids: Set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for number, row in enumerate(reader, start=2):
            where = f"row {number}"
            xid = row.get("xtuple_id")
            if not xid:
                raise InvalidDataError(
                    f"{where}: xtuple_id must be a non-empty string, "
                    f"got {xid!r}"
                )
            tid = _check_new_id(row.get("tid"), seen_tids, "tuple id", where)
            raw = row.get("probability")
            try:
                probability = float(raw) if raw is not None else None
            except ValueError:
                probability = None
            if probability is None:
                raise InvalidDataError(
                    f"{where}: probability must be a finite number, "
                    f"got {raw!r}"
                )
            if xid not in grouped:
                grouped[xid] = []
                order.append(xid)
            grouped[xid].append(
                ProbabilisticTuple(
                    tid=tid,
                    xtuple_id=xid,
                    value=json.loads(row["value"]),
                    probability=_check_probability(probability, where),
                )
            )
    xtuples = [XTuple(xid=xid, alternatives=tuple(grouped[xid])) for xid in order]
    return ProbabilisticDatabase(xtuples, name=name)
