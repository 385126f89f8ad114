"""Serialization of probabilistic databases (JSON and CSV).

The JSON format keeps the x-tuple grouping explicit; the CSV format is
one row per tuple with the x-tuple id as a column, which matches how
Table I of the paper is laid out (sensor id, tuple id, value,
probability).  Both formats round-trip exactly.

Snapshot segments hold a database's structure as typed columns in
x-tuple order (:func:`database_columns`, read back and checked over
whole columns by :func:`database_from_columns`).  Segments written
before the columns hold the canonical form of the JSON payload instead:
:func:`database_to_dict` dumped with sorted keys and no whitespace.
The store reads one back whole through :func:`database_from_dict`, the
same validation ingest runs.

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
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.db.database import ProbabilisticDatabase, hash_records
from repro.db.tuples import (
    PROBABILITY_SUM_TOLERANCE,
    ProbabilisticTuple,
    XTuple,
    checked_xtuple,
)
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


def _xtuple_to_dict(xt: XTuple) -> Dict[str, Any]:
    return {
        "xid": xt.xid,
        "alternatives": [
            {"tid": t.tid, "value": t.value, "probability": t.probability}
            for t in xt.alternatives
        ],
    }


def _canonical_json(payload: Any) -> bytes:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def database_to_dict(db: ProbabilisticDatabase) -> Dict[str, Any]:
    """Encode a database as a plain JSON-serializable dictionary."""
    payload = _header(db.name)
    payload["xtuples"] = [_xtuple_to_dict(xt) for xt in db.xtuples]
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


#: The structure columns of a columnar (schema-4) segment, in order.
STRUCTURE_COLUMNS = ("xids", "tids", "sizes", "values", "probabilities")

#: The dtype label of a column stored as one canonical JSON array.
JSON_COLUMN = "json"

#: The dtype of the ``sizes`` column, and of a ``values`` or
#: ``probabilities`` column whose every entry is a Python ``float``.
SIZES_DTYPE = "<u4"
FLOAT_DTYPE = "<f8"

#: The dtypes each structure column may carry.
COLUMN_DTYPES: Dict[str, Tuple[str, ...]] = {
    "xids": (JSON_COLUMN,),
    "tids": (JSON_COLUMN,),
    "sizes": (SIZES_DTYPE,),
    "values": (FLOAT_DTYPE, JSON_COLUMN),
    "probabilities": (FLOAT_DTYPE, JSON_COLUMN),
}


def _number_column(items: List[Any]) -> Tuple[str, bytes]:
    """float64 bytes when every entry is exactly a Python ``float``,
    else one canonical JSON array: MOV's mapping values, and an ``int``
    probability, whose content-hash record ``1`` differs from
    ``1.0``'s."""
    if set(map(type, items)) <= {float}:
        return FLOAT_DTYPE, np.array(items, dtype=FLOAT_DTYPE).tobytes()
    return JSON_COLUMN, _canonical_json(items)


def database_columns(db: ProbabilisticDatabase) -> Dict[str, Tuple[str, bytes]]:
    """The database's structure as typed columns in x-tuple order, as
    a columnar segment holds them: ``name -> (dtype, bytes)`` for each
    of :data:`STRUCTURE_COLUMNS`.

    ``xids`` and ``tids`` are string tables, one canonical JSON array
    each; ``sizes`` counts each x-tuple's alternatives; ``values`` and
    ``probabilities`` are float64 or JSON (see :func:`_number_column`).
    Built from the x-tuples' ``tids`` / ``values`` / ``probabilities``
    memos: a database whose x-tuples have been written or ranked once
    costs a few C-speed joins, not a walk of its tuples.
    """
    xtuples = db.xtuples
    values = list(chain.from_iterable([xt.values for xt in xtuples]))
    probabilities = list(chain.from_iterable([xt.probabilities for xt in xtuples]))
    return {
        "xids": (JSON_COLUMN, _canonical_json([xt.xid for xt in xtuples])),
        "tids": (
            JSON_COLUMN,
            _canonical_json(list(chain.from_iterable([xt.tids for xt in xtuples]))),
        ),
        "sizes": (
            SIZES_DTYPE,
            np.fromiter(
                [len(xt.alternatives) for xt in xtuples],
                dtype=SIZES_DTYPE,
                count=len(xtuples),
            ).tobytes(),
        ),
        "values": _number_column(values),
        "probabilities": _number_column(probabilities),
    }


def _json_list(blob: bytes, column: str) -> List[Any]:
    try:
        items = json.loads(blob)
    except ValueError as exc:
        raise InvalidDataError(f"column {column!r} is not valid JSON ({exc})") from None
    if not isinstance(items, list):
        raise InvalidDataError(f"column {column!r} is not a JSON array")
    return items


def _string_table(blob: bytes, column: str, label: str) -> List[str]:
    table = _json_list(blob, column)
    if not set(map(type, table)) <= {str} or not all(table):
        bad = next(s for s in table if type(s) is not str or not s)
        raise InvalidDataError(f"{label} must be a non-empty string, got {bad!r}")
    return table


def _first_duplicate(items: List[str], label: str) -> None:
    if len(set(items)) < len(items):
        seen: Set[str] = set()
        for item in items:
            if item in seen:
                raise InvalidDataError(f"duplicate {label} {item!r}")
            seen.add(item)


def _checked_probabilities(
    items: List[Any], array: Optional[np.ndarray], tids: List[str]
) -> np.ndarray:
    """The probabilities as float64, once every entry is a number, not
    a ``bool``, finite and in ``(0, 1]``; ``array`` is ``None`` when the
    column was stored as JSON."""
    if array is None:
        for tid, p in zip(tids, items):
            if type(p) not in (int, float):  # bool, and every non-number
                raise InvalidDataError(
                    f"tuple {tid!r}: probability must be a finite number, got {p!r}"
                )
        # An int too large for a float is out of range either way.
        array = np.array([min(p, 2.0) for p in items], dtype=np.float64)
    bad = np.flatnonzero(~((array > 0.0) & (array <= 1.0)))
    if bad.size:
        row = int(bad[0])
        p = items[row]
        finite = not isinstance(p, float) or math.isfinite(p)
        raise InvalidDataError(
            f"tuple {tids[row]!r}: probability must "
            f"{'lie in (0, 1]' if finite else 'be a finite number'}, got {p!r}"
        )
    return array


def database_from_columns(
    name: str,
    columns: Mapping[str, Tuple[str, bytes]],
    interned: Optional[Dict[bytes, XTuple]] = None,
) -> ProbabilisticDatabase:
    """Check a columnar segment's structure and build its database.

    ``columns`` maps each of :data:`STRUCTURE_COLUMNS` to ``(dtype,
    bytes)`` as :func:`database_columns` wrote them.  Over whole
    columns, this checks what :func:`xtuple_from_entry`,
    :class:`~repro.db.tuples.XTuple` and
    :class:`~repro.db.database.ProbabilisticDatabase` check one object
    at a time:

    * ids are non-empty strings, x-tuple ids are unique, and tuple ids
      are unique across the database;
    * every size is at least 1, and the sizes sum to the tuple count;
    * probabilities are numbers, not ``bool``, finite and in
      ``(0, 1]``;
    * each x-tuple's mass is at most ``1 +``
      :data:`~repro.db.tuples.PROBABILITY_SUM_TOLERANCE`, summed in
      ``XTuple.__post_init__``'s order.

    A failure raises :class:`~repro.exceptions.InvalidDataError` naming
    the check and its first offender.  The objects are then built
    without re-running their validation
    (:func:`~repro.db.tuples.checked_xtuple`), each with its
    content-hash record.  ``interned`` maps records already built in
    this pass to their x-tuple, so a chain's segments share one object
    per distinct x-tuple; only checked x-tuples enter it.
    """
    xids = _string_table(columns["xids"][1], "xids", "x-tuple id")
    tids = _string_table(columns["tids"][1], "tids", "tuple id")
    sizes = np.frombuffer(columns["sizes"][1], dtype=SIZES_DTYPE).astype(np.int64)
    values_dtype, values_blob = columns["values"]
    values = (
        _json_list(values_blob, "values")
        if values_dtype == JSON_COLUMN
        else np.frombuffer(values_blob, dtype=FLOAT_DTYPE).tolist()
    )
    probabilities_dtype, probabilities_blob = columns["probabilities"]
    array: Optional[np.ndarray] = None
    if probabilities_dtype == JSON_COLUMN:
        probabilities = _json_list(probabilities_blob, "probabilities")
    else:
        array = np.frombuffer(probabilities_blob, dtype=FLOAT_DTYPE)
        probabilities = array.tolist()
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
    array = _checked_probabilities(probabilities, array, tids)
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

    if interned is None:
        interned = {}
    starts = bounds.tolist()
    records = hash_records(xids, tids, values, probabilities, starts)
    xtuples: List[XTuple] = []
    for xid, lo, hi, record in zip(xids, starts, starts[1:], records):
        xt = interned.get(record)
        if xt is None:
            xt = interned[record] = checked_xtuple(
                xid,
                tuple(tids[lo:hi]),
                tuple(values[lo:hi]),
                tuple(probabilities[lo:hi]),
            )
        xtuples.append(xt)
    return ProbabilisticDatabase._checked(xtuples, name, n, records)


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
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["xtuple_id", "tid", "value", "probability"])
        for xt in db.xtuples:
            for t in xt.alternatives:
                writer.writerow(
                    [xt.xid, t.tid, json.dumps(t.value), repr(t.probability)]
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
