"""Serialization of probabilistic databases (JSON and CSV).

The JSON format keeps the x-tuple grouping explicit; the CSV format is
one row per tuple with the x-tuple id as a column, which matches how
Table I of the paper is laid out (sensor id, tuple id, value,
probability).  Both formats round-trip exactly.

Snapshot segments hold the canonical form of the JSON payload:
:func:`database_to_dict` dumped with sorted keys and no whitespace.
:func:`database_structure_frames` produces those bytes from per-x-tuple
fragments cached on each x-tuple, so re-encoding a cleaning outcome
costs only the x-tuples the cleaning changed, and reports each
fragment's length so a segment can frame its x-tuples.  The store's
loader reads such a framed segment back one x-tuple at a time through
:func:`xtuple_from_entry`, the same validation ingest runs.

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
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.db.database import ProbabilisticDatabase
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


#: Memo key of an x-tuple's structure-JSON fragment (see
#: :meth:`XTuple.encoded`).
_STRUCTURE_FRAGMENT = "_structure_fragment"


def _structure_fragment(xt: XTuple) -> bytes:
    return _canonical_json(_xtuple_to_dict(xt))


def database_to_dict(db: ProbabilisticDatabase) -> Dict[str, Any]:
    """Encode a database as a plain JSON-serializable dictionary."""
    payload = _header(db.name)
    payload["xtuples"] = [_xtuple_to_dict(xt) for xt in db.xtuples]
    return payload


def structure_head(name: str) -> bytes:
    """The canonical structure JSON of a database named ``name`` up to
    its first x-tuple fragment: everything but the fragments, their
    ``,`` separators and the closing ``]}``."""
    # Sorted keys put "xtuples" last; cut its empty list's "]}".
    return _canonical_json({**_header(name), "xtuples": []})[:-2]


def database_structure_frames(db: ProbabilisticDatabase) -> Tuple[bytes, List[int]]:
    """Canonical JSON of :func:`database_to_dict` -- sorted keys, no
    whitespace, UTF-8 -- as the snapshot store's segments hold it, and
    the byte length of each x-tuple's fragment inside it.

    The bytes equal ``json.dumps(database_to_dict(db), sort_keys=True,
    separators=(",", ":")).encode("utf-8")``: :func:`structure_head`,
    then the fragments joined by ``,``, then ``]}``.  Each fragment is
    cached on its :class:`~repro.db.tuples.XTuple`, so a cleaning
    outcome (which shares every unchanged ``XTuple`` with its base)
    encodes only the x-tuples the cleaning changed, plus one join.
    """
    fragments = [
        xt.encoded(_STRUCTURE_FRAGMENT, _structure_fragment) for xt in db.xtuples
    ]
    structure = structure_head(db.name) + b",".join(fragments) + b"]}"
    return structure, [len(fragment) for fragment in fragments]


def database_structure_json(db: ProbabilisticDatabase) -> bytes:
    """The structure bytes of :func:`database_structure_frames` alone."""
    return database_structure_frames(db)[0]


def xtuple_from_entry(
    entry: Any,
    position: int,
    seen_xids: Optional[Set[str]] = None,
    seen_tids: Optional[Set[str]] = None,
) -> XTuple:
    """Validate one :func:`database_to_dict` x-tuple entry and build it.

    ``position`` is the entry's index in the payload, used to name an
    entry whose id is unusable.  ``seen_xids`` / ``seen_tids`` collect
    the ids of a whole payload, so that a duplicate across entries is
    reported here; without them only duplicates inside this entry are,
    and the :class:`~repro.db.database.ProbabilisticDatabase`
    constructor rejects the rest.  Everything else this checks depends
    on the entry alone, so equal entries pass or fail alike.  Raises
    :class:`~repro.exceptions.InvalidDataError` (see
    :func:`database_from_dict`).
    """
    if seen_xids is None:
        seen_xids = set()
    if seen_tids is None:
        seen_tids = set()
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
