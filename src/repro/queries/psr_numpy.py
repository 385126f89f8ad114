"""Columnar NumPy kernel for the PSR scan: division-free row blocks.

This is the production PSR kernel: every pass runs it.  The scalar
oracle in :mod:`repro.queries.psr`, reached only through
``backend="python"``, keeps one running Poisson-binomial product and
divides each row's own factor out of it -- O(k) interpreted work per
row, plus rebuilds wherever the division is unstable.  This kernel
never divides.  It cuts the ranked rows into blocks of
:data:`BLOCK_ROWS` rows, aligned to multiples of it, and splits each
row's exclusion product in two:

* the block's **closed product** -- the capped product over factors of
  x-tuples whose last member lies above the block (the scalar oracle's
  ``closed_dp`` at the block's first row);
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

A group costs a fixed amount of interpreted work before its first row,
so a pass runs as few groups as the rows it reads allow.  It plans them
from the row where it will end, known before the first group runs: the
certified tail stop (:func:`~repro.queries.psr.tail_stop`, the first
row where a Chernoff bound over the x-tuples' masses above it certifies
the rows left), which arrives as :func:`scan_blocks`'s ``stop`` row,
or, when that comes sooner, the row by which Lemma 2 has fired, which
:func:`forecast_lemma2` reads off the probability column: one past the
``k``-th x-tuple's last member, among those whose mass saturates.
Groups of up to :data:`GROUP_BLOCKS` blocks cover the rows up to it, so
a tail-stopped pass runs ``⌈stop / (GROUP_BLOCKS · BLOCK_ROWS)⌉``
groups and reads at most ``SUB_ROWS - 1`` rows past ``stop`` (the rest
of its sub-block, which it does not emit), and a pass whose x-tuples
saturate at their last members reads fewer than :data:`BLOCK_ROWS`
rows past its Lemma 2 cutoff.  The forecast only sizes groups: the
in-group Lemma 2 check alone ends a pass, and full groups carry it on
to ``stop`` if the forecast came too early.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.db.database import SATURATION_EPSILON, RankedDatabase
from repro.queries.deterministic import require_valid_k
from repro.queries.psr import RankProbabilities, tail_stop

#: Rows per block.  Blocks start at multiples of this row count; every
#: row of a block shares the block's closed product.
BLOCK_ROWS = 64

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
    """Scan state at the top of row ``row`` (a scan starts at row 0).

    ``shift`` counts the saturated x-tuples above ``row``;
    ``open_masses`` maps each partially scanned x-tuple's dense index
    to its mass so far (1.0 once saturated); ``closed_dp`` is the
    capped product over the closed, non-saturated x-tuples' factors;
    ``remaining`` counts each x-tuple's members at or below ``row``,
    starting from a copy of ``sizes``, each x-tuple's member count (the
    database's own column, so a pass pays O(x-tuples) here, not a count
    over every row).
    """

    __slots__ = ("row", "shift", "open_masses", "closed_dp", "remaining")

    def __init__(self, sizes: np.ndarray, k: int) -> None:
        self.row, self.shift = 0, 0
        self.open_masses: Dict[int, float] = {}
        self.closed_dp = np.zeros(k)
        self.closed_dp[0] = 1.0
        self.remaining = sizes.copy()


class _Group:
    """The deferred ρ rows of one scanned group.

    ``poly[:, slot]`` is the live-factor polynomial of a padded row slot
    (block ``slot // BLOCK_ROWS``), ``closed[b]`` block ``b``'s
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
        rows = self.poly.T.reshape(blocks, BLOCK_ROWS, width)
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
    """Deferred ρ rows of one block scan (a
    :class:`~repro.queries.psr.DeferredRho`)."""

    __slots__ = ("groups", "k")

    def __init__(self, groups: List[_Group], k: int) -> None:
        self.groups = groups
        self.k = k

    def materialize(self) -> np.ndarray:
        """The ``(rows, k)`` ρ matrix of the scanned rows."""
        rows = sum(group.slots.size for group in self.groups)
        rho = np.empty((rows, self.k))
        low = 0
        for group in self.groups:
            high = low + group.slots.size
            group.emit(rho[low:high])
            low = high
        return rho


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
) -> Tuple[_Group, np.ndarray]:
    """Scan rows ``[state.row, end)`` as one group and advance ``state``.

    Stops early where Lemma 2 fires (``state.shift`` then reaches
    ``k``).  Returns the group's deferred ρ rows and its top-k vector.
    """
    B = BLOCK_ROWS
    row0 = state.row
    size = end - row0
    members = xtuple_indices[row0:end]
    e = probabilities[row0:end]

    # Block layout: every group starts on a block boundary (a multiple
    # of B), so only its last block may be short.  Each row has a block
    # and a slot inside it.
    bstart = np.arange(0, size, B)
    G = bstart.size
    lengths = np.diff(np.append(bstart, size))
    block, slot = np.divmod(np.arange(size), B)

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


def forecast_lemma2(
    probabilities: np.ndarray, xtuple_indices: np.ndarray, k: int, stop: int
) -> int:
    """A row at or past the one where Lemma 2 will end a scan of rows
    ``[0, stop)``, or ``stop`` if it fires no sooner.

    An x-tuple whose mass reaches the saturation mass has saturated by
    its last member, so Lemma 2 has fired one row past the ``k``-th
    earliest such last member.  The sums run in another order than
    :func:`_scan_group`'s, so the row can be off where a mass lands
    within rounding of that mass: it only sizes groups.
    """
    # Lemma 2 fires inside a window only if k x-tuples reach the
    # saturation mass in it.  The window grows from two blocks' rows to
    # one group's and on, so a pass that stops early pays for the rows
    # above its stop.
    size = 2 * BLOCK_ROWS
    while True:
        end = min(size, stop)
        members = xtuple_indices[:end]
        total = np.bincount(members, weights=probabilities[:end])
        if np.count_nonzero(total >= _SATURATED) >= k:
            break
        if end == stop:
            return stop
        size = max(4 * size, GROUP_BLOCKS * BLOCK_ROWS)
    # Each x-tuple's last row in the window is its first one in reverse.
    ids, first = np.unique(members[::-1], return_index=True)
    last = members.size - 1 - first[total[ids] >= _SATURATED]
    return int(np.partition(last, k - 1)[k - 1]) + 1


def scan_blocks(
    probabilities: np.ndarray,
    xtuple_indices: np.ndarray,
    k: int,
    state: ScanState,
    stop: int,
) -> Tuple[BlockRho, np.ndarray, int]:
    """Scan rows ``[state.row, stop)`` and emit every one of them.

    Returns the deferred ρ rows, the top-k vector and the row where the
    scan ended: ``stop`` (the tail stop), or where Lemma 2's early stop
    fired.  Groups of up to :data:`GROUP_BLOCKS` blocks run to the row
    :func:`forecast_lemma2` returns, rounded up to a block, then on to
    ``stop``.  The last group reads on to the end of ``stop``'s
    sub-block and drops the rows past ``stop``: which of a sub-block's
    rows a group holds decides whether a factor is multiplied once for
    the sub-block or per row, so a pass's rows then take the same
    products as those of a pass that stops later.
    """
    groups: List[_Group] = []
    topk: List[np.ndarray] = []
    forecast = forecast_lemma2(probabilities, xtuple_indices, k, stop)
    planned = min(-(-forecast // BLOCK_ROWS) * BLOCK_ROWS, stop)
    while state.row < stop and state.shift < k:
        limit = planned if state.row < planned else stop
        end = min(state.row + GROUP_BLOCKS * BLOCK_ROWS, limit)
        if end == stop:
            end = min(-(-stop // SUB_ROWS) * SUB_ROWS, probabilities.size)
        group, group_topk = _scan_group(
            probabilities, xtuple_indices, k, state, end
        )
        groups.append(group)
        topk.append(group_topk)
    past = state.row - stop
    if past > 0:
        last = groups[-1]
        keep = last.slots.size - past
        groups[-1] = _Group(
            last.poly, last.closed, last.slots[:keep], last.shifts[:keep],
            last.weights[:keep],
        )
        topk[-1] = topk[-1][:keep]
    topk_rows = np.concatenate(topk) if topk else np.zeros(0)
    return BlockRho(groups, k), topk_rows, min(state.row, stop)


def compute_rank_probabilities_numpy(
    ranked: RankedDatabase, k: int, tail_epsilon: float
) -> RankProbabilities:
    """Vectorized PSR over a pre-sorted database (the production kernel)."""
    require_valid_k(k)
    probabilities, xtuple_indices = ranked.psr_columns()
    state = ScanState(ranked.db.sizes, k)
    rho, topk, cutoff = scan_blocks(
        probabilities, xtuple_indices, k, state,
        tail_stop(ranked, k, tail_epsilon),
    )
    return RankProbabilities(
        k=k,
        ranked=ranked,
        cutoff=cutoff,
        rho_prefix=rho,
        topk_prefix=topk,
        backend="numpy",
        tail_epsilon=tail_epsilon,
    )

