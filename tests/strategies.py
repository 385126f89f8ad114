"""Shared hypothesis strategies for the test suite.

Importable as a plain module (``from strategies import databases``), so
test modules never depend on which ``conftest`` module pytest put on
the import path.

The central strategy, :func:`databases`, generates small random x-tuple
databases -- optionally complete (every x-tuple's probabilities sum to
one), with controllable size -- used to cross-validate every efficient
algorithm against the exponential possible-world oracles.

:data:`BLOCK_BOUNDARY_CASES` are fixed databases shaped around the
numpy kernel's row blocks (``BLOCK_ROWS`` = 64 rows), shared
by the cross-backend suites.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import ProbabilisticTuple, XTuple, make_xtuple


def _partition_probabilities(
    draw, num_parts: int, complete: bool
) -> List[float]:
    """Random probabilities for one x-tuple.

    Built from integer weights over a common denominator, so complete
    x-tuples sum to one within strict float tolerance and incomplete
    ones always leave genuine null mass.
    """
    weights = draw(
        st.lists(st.integers(1, 8), min_size=num_parts, max_size=num_parts)
    )
    total = sum(weights)
    if not complete:
        total += draw(st.integers(1, 8))
    return [w / total for w in weights]


def _value(draw, value: int, kind: str) -> Any:
    if kind == "int":
        return value
    if kind == "mapping":
        return {"a": float(value), "b": float(draw(st.integers(0, 12)))}
    return float(value)


@st.composite
def databases(
    draw,
    max_xtuples: int = 4,
    max_alternatives: int = 3,
    complete: Optional[bool] = None,
    min_xtuples: int = 1,
    values: str = "float",
) -> ProbabilisticDatabase:
    """A small random probabilistic database.

    Parameters
    ----------
    complete:
        ``True`` -> every x-tuple sums to one; ``False`` -> every
        x-tuple leaves null mass; ``None`` -> mixed per x-tuple.
    values:
        ``"float"`` -> a float in 0..12; ``"int"`` -> the same as an
        ``int``; ``"mapping"`` -> ``{"a": float, "b": float}``, each in
        0..12, for the key rankings.
    """
    num_xtuples = draw(st.integers(min_xtuples, max_xtuples))
    xtuples = []
    tid_counter = 0
    for l in range(num_xtuples):
        count = draw(st.integers(1, max_alternatives))
        if complete is None:
            is_complete = draw(st.booleans())
        else:
            is_complete = complete
        probabilities = _partition_probabilities(draw, count, is_complete)
        members = []
        for p in probabilities:
            # Integer values with a small range force rank ties, which
            # exercises the deterministic tie-breaking.
            value = draw(st.integers(0, 12))
            members.append(
                ProbabilisticTuple(
                    tid=f"t{tid_counter}",
                    xtuple_id=f"x{l}",
                    value=_value(draw, value, values),
                    probability=p,
                )
            )
            tid_counter += 1
        xtuples.append(XTuple(xid=f"x{l}", alternatives=tuple(members)))
    return ProbabilisticDatabase(xtuples, name="random")


@st.composite
def databases_with_k(draw, **kwargs):
    """A random database paired with a valid k (1..n+1, exercising
    over-sized k as well)."""
    db = draw(databases(**kwargs))
    k = draw(st.integers(1, min(db.num_tuples + 1, 6)))
    return db, k


@st.composite
def cleaning_problems(
    draw,
    max_xtuples: int = 4,
    max_budget: int = 25,
    complete: Optional[bool] = True,
):
    """A random cleaning problem over a random database.

    Returns ``(db, problem)``; the problem's quality inputs come from a
    real TP run on the database, so Theorem 2's preconditions hold.
    """
    from repro.cleaning.model import build_cleaning_problem
    from repro.core.tp import compute_quality_tp

    db = draw(databases(max_xtuples=max_xtuples, complete=complete, min_xtuples=2))
    k = draw(st.integers(1, min(db.num_xtuples, 3)))
    quality = compute_quality_tp(db.ranked(), k)
    costs = {
        xt.xid: draw(st.integers(1, 5)) for xt in db.xtuples
    }
    sc = {
        xt.xid: draw(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
        )
        for xt in db.xtuples
    }
    budget = draw(st.integers(0, max_budget))
    problem = build_cleaning_problem(quality, costs, sc, budget)
    return db, problem


# ---------------------------------------------------------------------------
# Block-boundary shapes
# ---------------------------------------------------------------------------


def ranked_rows_db(rows: Sequence[Tuple[str, float]]) -> ProbabilisticDatabase:
    """A database whose ranked order is exactly ``rows``.

    Row ``i`` is a member of x-tuple ``rows[i][0]`` with probability
    ``rows[i][1]``; scores fall with the row, so no tie reorders them.
    """
    members: Dict[str, list] = {}
    for i, (xid, probability) in enumerate(rows):
        members.setdefault(xid, []).append(
            (f"{xid}.{i}", float(len(rows) - i), probability)
        )
    return ProbabilisticDatabase(
        [make_xtuple(xid, alts) for xid, alts in members.items()],
        name="rows",
    )


def _singletons(prefix: str, count: int, probability: float = 0.3):
    return [(f"{prefix}{i}", probability) for i in range(count)]


def _interleaved(num_xtuples: int, members: int, probability: float):
    """Member ``m`` of x-tuple ``j`` at row ``m·num_xtuples + j``."""
    return [
        (f"x{j}", probability)
        for _ in range(members)
        for j in range(num_xtuples)
    ]


def _saturate_and_close_in_block():
    # "s" saturates at row 72 and closes at row 75, all in rows 64..127.
    rows = _singletons("f", 70)
    rows += [("s", 0.5), ("g0", 0.3), ("s", 0.5), ("g1", 0.3), ("g2", 0.3)]
    rows += [("s", 1e-13)] + _singletons("h", 60)
    return rows


def _spans_four_blocks():
    # "w" has one member in each of blocks 0..4 and saturates in the last.
    rows = _singletons("f", 320)
    for row in (10, 100, 200, 300):
        rows[row] = ("w", 0.25)
    return rows


#: name -> (ranked rows, k values to check)
BLOCK_BOUNDARY_CASES: Dict[str, Tuple[List[Tuple[str, float]], Tuple[int, ...]]] = {
    # n < 64: a single partial block.
    "n_below_block": (_interleaved(8, 5, 0.15), (1, 3, 10)),
    # n = 203: the last block is partial; every x-tuple spans all blocks.
    "n_not_block_multiple": (_interleaved(7, 29, 0.03), (1, 4, 20)),
    # Ten certain rows from row 100: with k = 5 Lemma 2 fires at row
    # 105, inside the second block.
    "lemma2_mid_block": (
        _singletons("f", 100) + _singletons("c", 10, 1.0) + _singletons("g", 30),
        (5, 8),
    ),
    "saturate_and_close_in_block": (_saturate_and_close_in_block(), (2, 6, 30)),
    "spans_four_blocks": (_spans_four_blocks(), (3, 12)),
    # At most 64 live factors per block, far below k = 100.
    "k_above_live_factors": (_singletons("f", 150, 0.4), (100,)),
    # The certified tail stop at k = 3 (mass above the row > 77.16)
    # falls on row 256, a block boundary, ...
    "tail_stop_on_block_boundary": (_singletons("f", 320, 0.302), (3,)),
    # ... and at k = 1 (mass > 71.06) on row 237, mid-block.
    "tail_stop_mid_block": (_singletons("f", 320, 0.3), (1,)),
}
