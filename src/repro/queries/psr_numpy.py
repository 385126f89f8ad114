"""Columnar NumPy kernel for the PSR scan: division-free row blocks.

This is the production PSR kernel: every full pass and every delta
window runs it.  The scalar oracle in :mod:`repro.queries.psr`, reached
only through ``backend="python"``, keeps one running Poisson-binomial
product and divides each row's own factor out of it -- O(k)
interpreted work per row, plus rebuilds wherever the division is
unstable.  This kernel never divides.  It cuts the ranked
rows into blocks of :data:`~repro.queries.psr.CHECKPOINT_INTERVAL` rows,
aligned to multiples of the interval, and splits each row's exclusion
product in two:

* the block's **closed product** -- the capped product over factors of
  x-tuples whose last member lies above the block.  It is exactly the
  ``closed_dp`` of a :class:`~repro.queries.psr.ScanCheckpoint` at the
  block's first row;
* the block's **live factors** -- every other non-saturated x-tuple
  open at the block's start or appearing in it.  A live x-tuple's mass
  before each row is its block-start mass plus an exclusive cumulative
  sum of its members inside the block.  The row's own factor and
  saturated factors are set to 1.

The product of a row's ``(1-q+q·z)`` live factors is built with array
operations vectorized across every row of a group of up to
:data:`GROUP_BLOCKS` blocks, in two levels: a factor with no member in
the row's sub-block of :data:`SUB_ROWS` rows is constant over that
sub-block and multiplied once for all of it; only the others, at most
``SUB_ROWS``, are multiplied per row.  A row's top-k probability is
then one dot product of its polynomial with the prefix sums of its
block's closed product.  The full ρ rows cost one batched Toeplitz
matmul per group against each block's closed product; they are
deferred until a query asks for them (:class:`BlockRho`).

Per-row work is O((L/SUB_ROWS + SUB_ROWS)·min(L, k)) array element
operations for ``L`` live factors, so it still grows with the number of
x-tuples open at once; the interpreter runs per group, never per row.
Groups start at two blocks and double, so a scan that Lemma 2 stops
early touches at most about twice the rows it keeps.  The certified
tail stop (:func:`~repro.queries.psr.tail_stop`) arrives as
:func:`scan_blocks`'s ``stop`` row and clips the last group exactly.
The full pass and delta windows (:func:`_delta_window_numpy`) both run
:func:`scan_blocks`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.db.database import SATURATION_EPSILON, RankDelta, RankedDatabase
from repro.queries.deterministic import require_valid_k
from repro.queries.psr import (
    CHECKPOINT_INTERVAL,
    RankProbabilities,
    ScanCheckpoint,
    nearest_checkpoint,
    tail_stop,
)

#: Most blocks one group vectorizes over.  Larger groups amortize the
#: per-operation overhead over more rows, but the padded factor count
#: of a group is the maximum over its blocks.
GROUP_BLOCKS = 16

#: Rows per sub-block.  A live factor with no member in a sub-block is
#: constant over it and multiplied once for the whole sub-block.
SUB_ROWS = 4

#: Accumulated mass at which an x-tuple counts as saturated.
_SATURATED = 1.0 - SATURATION_EPSILON


class ScanState:
    """Scan state at the top of row ``row``.

    ``shift``, ``open_masses`` and ``closed_dp`` are a
    :class:`~repro.queries.psr.ScanCheckpoint`'s fields; ``remaining``
    counts each x-tuple's members at or below ``row``.
    """

    __slots__ = ("row", "shift", "open_masses", "closed_dp", "remaining")

    def __init__(
        self,
        xtuple_indices: np.ndarray,
        num_xtuples: int,
        k: int,
        checkpoint: Optional[ScanCheckpoint] = None,
    ) -> None:
        if checkpoint is None:
            self.row, self.shift = 0, 0
            self.open_masses: Dict[int, float] = {}
            self.closed_dp = np.zeros(k)
            self.closed_dp[0] = 1.0
        else:
            self.row, self.shift = checkpoint.row, checkpoint.shift
            self.open_masses = checkpoint.open_masses
            self.closed_dp = checkpoint.closed_dp
        self.remaining = np.bincount(
            xtuple_indices[self.row :], minlength=num_xtuples
        )


class _Group:
    """The deferred ρ rows of one scanned group.

    ``poly[:, slot]`` is the live-factor polynomial of a padded row slot
    (block ``slot // CHECKPOINT_INTERVAL``), ``closed[b]`` block ``b``'s
    closed product, and ``slots`` / ``shifts`` / ``weights`` the slot,
    saturation shift and ``e_i`` (0 for saturated rows) of each emitted
    row.
    """

    __slots__ = ("poly", "closed", "slots", "shifts", "weights")

    def __init__(
        self,
        poly: np.ndarray,
        closed: np.ndarray,
        slots: np.ndarray,
        shifts: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.poly = poly
        self.closed = closed
        self.slots = slots
        self.shifts = shifts
        self.weights = weights

    def emit(self, out: np.ndarray) -> None:
        """Write the group's ρ rows into ``out``."""
        blocks, k = self.closed.shape
        width = self.poly.shape[0]
        # toeplitz[b, j, s] = closed[b, s - j]: row j of block b's
        # product matrix is its closed product shifted right by j.
        buffer = np.zeros((blocks, width - 1 + k))
        buffer[:, width - 1 :] = self.closed
        step = buffer.strides[1]
        toeplitz = np.lib.stride_tricks.as_strided(
            buffer[:, width - 1 :],
            shape=(blocks, width, k),
            strides=(buffer.strides[0], -step, step),
        )
        rows = self.poly.T.reshape(blocks, CHECKPOINT_INTERVAL, width)
        exclusion = np.matmul(rows, toeplitz).reshape(-1, k)
        if self.slots.size < exclusion.shape[0]:
            exclusion = exclusion[self.slots]
        weights = self.weights[:, None]
        low, high = int(self.shifts.min()), int(self.shifts.max())
        if low == high:
            out[:, :low] = 0.0
            np.multiply(exclusion[:, : k - low], weights, out=out[:, low:])
            return
        # ρ(h) = e_i · exclusion[h - 1 - shift], gathered through a
        # leading zero column for ranks above the shift.
        padded = np.concatenate(
            (np.zeros((exclusion.shape[0], 1)), exclusion), axis=1
        )
        index = np.arange(1, k + 1)[None, :] - self.shifts[:, None]
        gathered = np.take_along_axis(padded, np.maximum(index, 0), axis=1)
        np.multiply(gathered, weights, out=out)


class BlockRho:
    """Deferred ρ rows of one block scan (see ``_PendingRho`` in
    :mod:`repro.queries.psr`); ``skip`` leading rows are dropped."""

    __slots__ = ("groups", "k", "skip")

    def __init__(self, groups: List[_Group], k: int, skip: int = 0) -> None:
        self.groups = groups
        self.k = k
        self.skip = skip

    def materialize(self) -> np.ndarray:
        """The ``(rows, k)`` ρ matrix of the scanned rows."""
        rows = sum(group.slots.size for group in self.groups)
        rho = np.empty((rows, self.k))
        low = 0
        for group in self.groups:
            high = low + group.slots.size
            group.emit(rho[low:high])
            low = high
        return rho[self.skip :]


def _factor_product(
    masses: np.ndarray, width: int, poly: Optional[np.ndarray] = None
) -> np.ndarray:
    """``poly · Π_j (1-q_j+q_j·z)`` per column, capped at ``width``.

    ``masses`` is ``(factors, columns)``; ``poly`` (``(width,
    columns)``, default 1) is updated in place and returned, lowest
    degree first.  Each step is the scalar kernel's update ``new[s] =
    old[s]·(1-q) + old[s-1]·q``, operation for operation.
    """
    degree = width - 1
    if poly is None:
        poly = np.zeros((width, masses.shape[1]))
        poly[0] = 1.0
        degree = 0
    rest = 1.0 - masses
    for j, q in enumerate(masses):
        top = min(j + 1 + degree, width - 1)
        carried = poly[:top] * q
        poly[: top + 1] *= rest[j]
        poly[1 : top + 1] += carried
    return poly


def _scan_group(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    k: int,
    state: ScanState,
    end: int,
    checkpoints: Optional[List[ScanCheckpoint]],
    record_first: bool,
) -> Tuple[_Group, np.ndarray]:
    """Scan rows ``[state.row, end)`` as one group and advance ``state``.

    Stops early where Lemma 2 fires (``state.shift`` then reaches
    ``k``).  Returns the group's deferred ρ rows and its top-k vector.
    """
    B = CHECKPOINT_INTERVAL
    row0 = state.row
    size = end - row0
    members = xtuple_indices[row0:end]
    e = probabilities[row0:end]

    # Block layout: boundaries at multiples of B, the first block may
    # be partial.  Each row has a block and a slot inside it.
    bstart = np.concatenate(
        ([0], np.arange((row0 // B + 1) * B, end, B) - row0)
    ).astype(np.int64)
    G = bstart.size
    lengths = np.diff(np.append(bstart, size))
    block = np.repeat(np.arange(G), lengths)
    slot = np.arange(size) - bstart[block]

    # Columns: the x-tuples open at the group's start or appearing in it.
    n_open = len(state.open_masses)
    open_ids = np.fromiter(state.open_masses.keys(), np.int64, n_open)
    open_mass = np.fromiter(state.open_masses.values(), np.float64, n_open)
    ids, first_at, inverse = np.unique(
        np.concatenate((open_ids, members)),
        return_index=True,
        return_inverse=True,
    )
    J = ids.size
    col = inverse[n_open:]
    first_row = first_at - n_open  # negative: open at the group's start
    counts = np.bincount(col, minlength=J)
    closes = counts == state.remaining[ids]
    by_column = np.argsort(col, kind="stable")
    last_row = np.where(counts > 0, by_column[np.cumsum(counts) - 1], -1)

    # Masses at every block boundary: mass[b] before block b, mass[G]
    # after the group.  Saturated x-tuples count in the shift.
    mass = np.zeros((G + 1, J))
    mass[0, inverse[:n_open]] = open_mass
    mass[1:] = np.bincount(
        block * J + col, weights=e, minlength=G * J
    ).reshape(G, J)
    np.cumsum(mass, axis=0, out=mass)
    saturated = mass >= _SATURATED
    block_shift = state.shift + saturated.sum(axis=1) - saturated[0].sum()
    opened = first_row[None, :] < bstart[:, None]
    closed_above = closes[None, :] & (last_row[None, :] < bstart[:, None])

    # Live factors of each block, at local positions 0..L-1; position L
    # is an always-zero column for rows whose x-tuple is not live.
    live = (
        (first_row[None, :] < (bstart + lengths)[:, None])
        & ~closed_above
        & ~saturated[:G]
    )
    L = int(live.sum(axis=1).max())
    local = np.cumsum(live, axis=1) - 1
    own_live = live[block, col]
    own = np.where(own_live, local[block, col], L)
    cube = np.zeros((G, B + 1, L + 1))
    live_b, live_c = np.nonzero(live)
    cube[live_b, 0, local[live_b, live_c]] = mass[live_b, live_c]
    cube[block, slot + 1, own] = np.where(own_live, e, 0.0)
    np.cumsum(cube, axis=1, out=cube)  # cube[b, s] = masses before slot s
    sat = cube >= _SATURATED
    row_shift = block_shift[block] + sat.sum(axis=2)[block, slot]
    dead = ~own_live | sat[block, slot, own]

    # Lemma 2: stop at the first row whose shift reaches k.
    stops = np.flatnonzero(row_shift >= k)
    count = int(stops[0]) if stops.size else size
    used = int(block[count - 1]) + 1

    # Closed product of every block: fold the non-saturated x-tuples
    # closing in block b into closed[b + 1].
    folding = np.flatnonzero(closes & ~saturated[G])
    fold_block = block[last_row[folding]]
    per_block = np.bincount(fold_block, minlength=G)
    by_block = np.argsort(fold_block, kind="stable")
    folding, fold_block = folding[by_block], fold_block[by_block]
    rank = np.arange(folding.size) - (np.cumsum(per_block) - per_block)[
        fold_block
    ]
    fold_mass = np.zeros((int(per_block.max(initial=0)), G))
    fold_mass[rank, fold_block] = mass[G, folding]
    folds = _factor_product(fold_mass, min(fold_mass.shape[0] + 1, k))
    closed = np.empty((G + 1, k))
    closed[0] = state.closed_dp
    for b in range(G):
        if per_block[b]:
            closed[b + 1] = np.convolve(closed[b], folds[:, b])[:k]
        else:
            closed[b + 1] = closed[b]

    # Each row's live-factor polynomial (own and saturated factors = 1),
    # in two levels.  A factor without a member in the row's sub-block
    # of SUB_ROWS rows is constant over it, so it is multiplied once per
    # sub-block; only the others (at most SUB_ROWS) are multiplied per
    # row.
    factors = np.where(sat[:used, :B], 0.0, cube[:used, :B])
    factors[block[:count], slot[:count], own[:count]] = 0.0
    width = min(L + 1, k)
    subs = -(-B // SUB_ROWS)
    sub = np.arange(B) // SUB_ROWS  # sub-block of each slot
    member = np.zeros((used, subs, L + 1), dtype=bool)
    member[block[:count], sub[slot[:count]], own[:count]] = True
    member = member[:, :, :L]
    constant = np.where(member, 0.0, factors[:, ::SUB_ROWS, :L])
    per_sub = _factor_product(
        np.ascontiguousarray(constant.reshape(used * subs, L).T), width
    )
    poly = per_sub.reshape(width, used, subs)[:, :, sub].reshape(width, -1)
    varying = member.sum(axis=2)
    D = int(varying.max())
    columns = np.argsort(~member, axis=2, kind="stable")[:, :, :D]
    columns[np.arange(D) >= varying[:, :, None]] = L  # the zero column
    per_row = np.take_along_axis(factors, columns[:, sub], axis=2)
    poly = _factor_product(
        np.ascontiguousarray(per_row.reshape(used * B, D).T), width, poly
    )

    # Top-k: Σ_{s < k - shift} (closed ⊛ poly)[s] is poly dotted with
    # the closed product's prefix sums.
    emitted = slice(0, count)
    slots = block[emitted] * B + slot[emitted]
    shifts = row_shift[emitted]
    weights = np.where(dead[emitted], 0.0, e[emitted])
    prefix = np.zeros((used, k + 1))
    np.cumsum(closed[:used], axis=1, out=prefix[:, 1:])
    reach = np.maximum((k - shifts)[None, :] - np.arange(width)[:, None], 0)
    topk = weights * np.einsum(
        "ij,ij->j", poly[:, slots], prefix[block[emitted][None, :], reach]
    )

    if checkpoints is not None:
        for b in range(0 if record_first else 1, used):
            if bstart[b] >= count or (row0 + bstart[b]) % B:
                continue
            keep = opened[b] & ~closed_above[b]
            checkpoints.append(
                ScanCheckpoint(
                    row=row0 + int(bstart[b]),
                    shift=int(block_shift[b]),
                    closed_dp=closed[b],
                    open_masses=_masses(ids, mass[b], saturated[b], keep),
                )
            )

    if count < size:
        state.row = row0 + count
        state.shift = int(row_shift[count])
    else:
        state.row = end
        state.shift = int(block_shift[G])
        state.open_masses = _masses(ids, mass[G], saturated[G], ~closes)
        state.closed_dp = closed[G]
        state.remaining[ids] -= counts
    group = _Group(poly, closed[:used], slots, shifts, weights)
    return group, topk


def _masses(
    ids: np.ndarray, mass: np.ndarray, saturated: np.ndarray, keep: np.ndarray
) -> Dict[int, float]:
    """Open-mass dict of the kept columns (saturated masses pinned to 1)."""
    values = np.where(saturated, 1.0, mass)[keep]
    return dict(zip(ids[keep].tolist(), values.tolist()))


def scan_blocks(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    k: int,
    state: ScanState,
    stop: int,
    checkpoints: Optional[List[ScanCheckpoint]],
) -> Tuple[BlockRho, np.ndarray, int]:
    """Scan rows ``[state.row, stop)`` and emit every one of them.

    Returns the deferred ρ rows, the top-k vector and the row where the
    scan ended: ``stop`` (the tail stop, or the end of a delta window),
    or where Lemma 2's early stop fired.  Appends a checkpoint at every
    block boundary after the first row to ``checkpoints`` when given.
    """
    first = state.row
    groups: List[_Group] = []
    topk: List[np.ndarray] = []
    blocks = 2
    while state.row < stop and state.shift < k:
        end = min(
            (state.row // CHECKPOINT_INTERVAL + blocks) * CHECKPOINT_INTERVAL,
            stop,
        )
        group, group_topk = _scan_group(
            probabilities, xtuple_indices, k, state, end, checkpoints,
            record_first=state.row != first,
        )
        groups.append(group)
        topk.append(group_topk)
        blocks = min(2 * blocks, GROUP_BLOCKS)
    topk_rows = np.concatenate(topk) if topk else np.zeros(0)
    return BlockRho(groups, k), topk_rows, state.row


def compute_rank_probabilities_numpy(
    ranked: RankedDatabase, k: int, tail_epsilon: float
) -> RankProbabilities:
    """Vectorized PSR over a pre-sorted database (the production kernel)."""
    require_valid_k(k)
    probabilities, xtuple_indices = ranked.psr_columns()
    state = ScanState(xtuple_indices, ranked.num_xtuples, k)
    checkpoints: List[ScanCheckpoint] = []
    rho, topk, cutoff = scan_blocks(
        probabilities, xtuple_indices, k, state,
        tail_stop(ranked, k, tail_epsilon), checkpoints,
    )
    return RankProbabilities(
        k=k,
        ranked=ranked,
        cutoff=cutoff,
        rho_prefix=rho,
        topk_prefix=topk,
        backend="numpy",
        checkpoints=checkpoints,
        tail_epsilon=tail_epsilon,
    )


def _delta_window_numpy(
    old_rp: RankProbabilities,
    delta: RankDelta,
    start: int,
    stop: int,
    checkpoints: List[ScanCheckpoint],
) -> Tuple[BlockRho, np.ndarray, int, List[ScanCheckpoint]]:
    """Re-emit rows ``[start, stop)`` of the patched view (columnar).

    Restores the nearest checkpoint at or above ``start`` (row 0 when
    ``checkpoints`` has none there) and scans from there; the rows
    between the checkpoint and ``start`` are unchanged and dropped from
    the output.
    """
    new_ranked = delta.new_ranked
    k = old_rp.k
    probabilities, xtuple_indices = new_ranked.psr_columns()
    state = ScanState(
        xtuple_indices, new_ranked.num_xtuples, k,
        nearest_checkpoint(checkpoints, start),
    )
    skip = start - state.row
    fresh: List[ScanCheckpoint] = []
    rho, topk, end = scan_blocks(
        probabilities, xtuple_indices, k, state, stop, fresh
    )
    return BlockRho(rho.groups, k, skip), topk[skip:], end, fresh
