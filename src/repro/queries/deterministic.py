"""Deterministic top-k over one possible world.

The possible-world semantics (paper Fig. 1(a), Step 2) conceptually
evaluates an ordinary deterministic top-k query inside every possible
world; the result in one world is called a *pw-result*: the world's real
tuples, ordered by rank, truncated to the k best.  Null outcomes rank
below every real tuple, so a world holding fewer than k real tuples
yields a *short* result.
"""

from __future__ import annotations

from typing import Tuple

from repro.db.database import RankedDatabase
from repro.db.possible_worlds import PossibleWorld
from repro.exceptions import InvalidQueryError

#: A pw-result: tuple ids in descending rank order, length <= k.
PWResult = Tuple[str, ...]


def require_valid_k(k: int) -> None:
    """Validate the top-k parameter (must be a positive integer)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidQueryError(f"k must be a positive integer, got {k!r}")


def require_unit_interval(name: str, value: float) -> None:
    """Validate a number in ``[0, 1]`` (a PT-k threshold, a tail
    stop's ``ε``); NaN and booleans are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidQueryError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise InvalidQueryError(f"{name} must lie in [0, 1], got {value!r}")


def topk_of_world(
    ranked: RankedDatabase, world: PossibleWorld, k: int
) -> PWResult:
    """The deterministic top-k result of one possible world.

    Parameters
    ----------
    ranked:
        The pre-sorted database the world was drawn from; supplies the
        total rank order (ranking score descending, insertion-order
        tie-break).
    world:
        The possible world to evaluate.
    k:
        Result size.  Worlds with fewer than ``k`` real tuples produce a
        shorter result (never padded with nulls).

    Returns
    -------
    The ids of the world's best (at most) ``k`` tuples, highest rank
    first.
    """
    require_valid_k(k)
    present = {t.tid for t in world.real_tuples}
    result = []
    for t in ranked.order:
        if t.tid in present:
            result.append(t.tid)
            if len(result) == k:
                break
    return tuple(result)
