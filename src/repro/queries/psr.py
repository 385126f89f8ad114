"""PSR: rank-h and top-k probabilities for every tuple in one scan.

The paper evaluates U-kRanks, PT-k and Global-topk -- and the TP quality
algorithm -- from *rank probability information*: for each tuple ``t_i``
the probability ``ρ_i(h)`` that it occupies rank ``h`` in a pw-result,
and the top-k probability ``p_i = Σ_{h<=k} ρ_i(h)``.  The PSR algorithm
(Bernecker et al., TKDE 2010; adopted in Section IV-B) computes all of
them in one scan of the rank-sorted tuples.

The recurrence
--------------
Scan tuples in descending rank.  When tuple ``t_i`` of x-tuple ``τ_l``
is reached, each *other* x-tuple ``τ_j`` contributes a tuple ranked
above ``t_i`` independently with probability ``B_j = Σ_{t∈τ_j, t>t_i} e_t``
(mutual exclusion collapses each x-tuple to at most one contribution).
Then

    ρ_i(h) = e_i · Pr[exactly h-1 of the B_j fire],   j ≠ l,

a Poisson-binomial evaluated lazily: we maintain the distribution over
*all* x-tuples seen so far (capped at ``k`` -- only the first ``k``
entries are ever needed, and they stay exact under capping) and divide
out the current x-tuple's own factor.

Backends
--------
Three kernels implement the scan behind a common entry point
(:func:`compute_rank_probabilities`):

* the **python** kernel below -- the scalar reference implementation,
  kept for cross-validation;
* the **numpy** kernel (:mod:`repro.queries.psr_numpy`) -- a
  division-free block kernel: per block of :data:`CHECKPOINT_INTERVAL`
  rows, each row's exclusion product is the block's closed product
  times the row's live factors, built with array operations vectorized
  across a group of blocks;
* the **parallel** kernel (:mod:`repro.core.parallel`) -- the ranked
  rows sharded into contiguous shards that a process pool scans with
  the numpy block kernel over shared-memory column views, shard
  boundary states derived by a truncated-convolution prefix scan at
  the coordinator.

All produce a :class:`RankProbabilities` whose canonical storage is a
``(cutoff, k)`` float64 ``rho_prefix`` matrix plus a ``topk_prefix``
vector -- the columnar shape every downstream consumer (query
answering, TP quality, cleaning) reads directly.

Numerical notes
---------------
* Removing a factor ``q`` by the forward deconvolution amplifies error
  by ``q/(1-q)`` per entry, so for ``q > 0.5`` the scalar kernel
  rebuilds the vector from scratch over the active factors instead.
  The numpy kernel never divides.
* A factor that saturates (``q >= 1-ε``) guarantees one higher-ranked
  tuple; we drop it from the vector and count it in an integer
  ``shift``.  Once ``k`` factors have saturated, every remaining tuple
  has zero top-k probability -- exactly Lemma 2's early stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.core.backend import resolve_backend
from repro.db.database import SATURATION_EPSILON, RankDelta, RankedDatabase
from repro.db.tuples import ProbabilisticTuple
from repro.queries.deterministic import require_valid_k

#: Threshold above which factor removal falls back to a from-scratch
#: rebuild (forward deconvolution is stable only for q <= 1/2).
DECONVOLUTION_LIMIT = 0.5

#: Both kernels snapshot their scan state every this many rows, and the
#: numpy kernel's blocks are this many rows long.  A delta
#: re-evaluation restores the nearest checkpoint at or above the
#: affected window and replays at most this many rows to reach it,
#: instead of rescanning from the top.  Storage is O(n/interval · k);
#: the interval trades that against the per-delta replay length.
CHECKPOINT_INTERVAL = 64


def _fast_forward(
    probabilities: List[float],
    xtuple_indices: List[int],
    k: int,
    open_masses: Dict[int, float],
    closed_dp: List[float],
    shift: int,
    remaining: List[int],
    stop: int,
    row: int,
    base: int,
) -> int:
    """Advance only the factor state from ``row`` to ``stop``.

    The replay from a checkpoint to a delta window never emits rows,
    so it does not need the running Poisson-binomial product at all --
    just the open-mass dict, the closed product and the saturation
    shift.  The caller rebuilds its running product from
    ``open_masses`` once at ``stop``.  Returns the new ``shift``.
    """
    for i in range(row, stop):
        l = xtuple_indices[i - base]
        q = open_masses.get(l, 0.0)
        if q >= 1.0 - SATURATION_EPSILON:
            remaining[l] -= 1
            if remaining[l] == 0:
                del open_masses[l]
            continue
        new_mass = q + probabilities[i - base]
        if new_mass > 1.0:
            new_mass = 1.0
        saturating = new_mass >= 1.0 - SATURATION_EPSILON
        remaining[l] -= 1
        closing = remaining[l] == 0
        if saturating:
            shift += 1
            if shift >= k:
                # Lemma 2 fired inside the replay range: the caller's
                # window starts at or below the new cutoff, nothing
                # will be emitted anyway.
                return shift
        elif closing:
            _add_factor(closed_dp, new_mass)
        if closing:
            open_masses.pop(l, None)
        else:
            open_masses[l] = 1.0 if saturating else new_mass
    return shift


@dataclass(frozen=True)
class ScanCheckpoint:
    """PSR scan state at the top of row ``row`` (before processing it).

    ``closed_dp`` is the capped product over factors of closed,
    non-saturated x-tuples; ``open_masses`` maps dense x-tuple indices
    of partially scanned x-tuples to their accumulated mass (saturated
    entries hold exactly 1.0 and are accounted for by ``shift``).  The
    remaining per-x-tuple member counts are *not* stored -- they are an
    O(n) ``bincount`` over the suffix at restore time.  Checkpoints are
    value objects shared across patched :class:`RankProbabilities`
    instances; never mutate their arrays.
    """

    row: int
    shift: int
    closed_dp: np.ndarray
    open_masses: Dict[int, float]


def _add_factor(dp: List[float], q: float) -> None:
    """Multiply the capped Poisson-binomial vector by a factor ``q``.

    In place; entries ``0..k-1`` remain exact under capping because the
    update only looks at equal-or-lower indices.
    """
    one_minus = 1.0 - q
    for s in range(len(dp) - 1, 0, -1):
        dp[s] = dp[s] * one_minus + dp[s - 1] * q
    dp[0] *= one_minus


def _remove_factor_forward(dp: List[float], q: float) -> List[float]:
    """Divide a factor ``q`` out of the capped vector (stable for q<=1/2)."""
    one_minus = 1.0 - q
    out = [0.0] * len(dp)
    prev = dp[0] / one_minus
    out[0] = prev
    for s in range(1, len(dp)):
        prev = (dp[s] - q * prev) / one_minus
        if prev < 0.0:  # round-off guard; true probabilities are >= 0
            prev = 0.0
        out[s] = prev
    return out


def _rebuild_without(
    active: Dict[int, float], skip: int, k: int
) -> List[float]:
    """Poisson-binomial over all active factors except ``skip``."""
    dp = [0.0] * k
    dp[0] = 1.0
    for l, q in active.items():
        if l != skip:
            _add_factor(dp, q)
    return dp


class DeferredRho(Protocol):
    """A deferred ρ matrix: anything that materializes to one.

    The numpy kernel's ``BlockRho`` and :class:`_PendingRho` satisfy
    this without psr.py importing :mod:`repro.queries.psr_numpy`
    (which imports this module).
    """

    def materialize(self) -> np.ndarray:
        """The ``(rows, k)`` ρ matrix."""
        ...


class _PendingRho:
    """A deferred splice of a ρ matrix after a rank delta.

    Nothing on the cleaning hot path reads full ρ rows -- quality and
    the cleaning inputs consume ``topk_prefix`` -- so a patched
    :class:`RankProbabilities` records *how* its matrix derives from
    its parent's (prefix rows, re-scanned window rows, reused tail
    rows) and materializes only when a query answer actually asks.
    Holds the parent's ρ state (an ndarray, another pending splice, or
    a kernel's deferred rows), never the parent object, so intermediate
    snapshots stay collectable.
    """

    __slots__ = ("parent", "prefix_end", "window", "tail")

    def __init__(
        self,
        parent: Union[np.ndarray, DeferredRho],
        prefix_end: int,
        window: Union[np.ndarray, DeferredRho],
        tail: Optional[Tuple[int, int]],
    ) -> None:
        self.parent = parent
        self.prefix_end = prefix_end
        self.window = window
        #: ``(start, end)`` rows of the parent matrix, or ``None``.
        self.tail = tail

    def materialize(self) -> np.ndarray:
        chain = [self]
        parent = self.parent
        while isinstance(parent, _PendingRho):
            chain.append(parent)
            parent = parent.parent
        rho = _materialized(parent)
        for pending in reversed(chain):
            parts = [rho[: pending.prefix_end], _materialized(pending.window)]
            if pending.tail is not None:
                parts.append(rho[pending.tail[0] : pending.tail[1]])
            rho = np.vstack(parts)
        return rho


def _materialized(rho: Union[np.ndarray, DeferredRho]) -> np.ndarray:
    """``rho`` as a matrix (materializing a deferred one)."""
    return rho if isinstance(rho, np.ndarray) else rho.materialize()


class RankProbabilities:
    """Rank-probability information for one (database, ranking, k).

    Canonical storage is columnar: ``rho_prefix`` is a ``(cutoff, k)``
    float64 matrix with ``rho_prefix[i, h-1] = ρ(h)`` of the ``i``-th
    ranked tuple, and ``topk_prefix`` the matching top-k probability
    vector.  Tuples at or beyond ``cutoff`` are exactly zero everywhere
    (Lemma 2 fired) and carry no rows.  The matrix may be deferred --
    a numpy-kernel pass emits only ``topk_prefix`` eagerly, and a delta
    derivation records a :class:`_PendingRho` splice; it materializes
    transparently on first access.
    """

    def __init__(
        self,
        k: int,
        ranked: RankedDatabase,
        cutoff: int,
        rho_prefix: Union[np.ndarray, DeferredRho],
        topk_prefix: np.ndarray,
        backend: str = "python",
        checkpoints: Optional[List[ScanCheckpoint]] = None,
    ) -> None:
        self.k = k
        self.ranked = ranked
        self.cutoff = cutoff
        self._rho_state = rho_prefix
        self.topk_prefix = topk_prefix
        self.backend = backend
        #: Scan-state snapshots enabling O(window) delta re-evaluation
        #: (see :func:`apply_rank_delta`); ``None`` on legacy
        #: construction.
        self.checkpoints = checkpoints
        #: Execution report of the parallel backend (worker count,
        #: block count, pool-vs-serial mode, fallback reason); ``None``
        #: for results the serial kernels produced.
        self.parallel_info: Optional[Dict[str, object]] = None

    @property
    def rho_prefix(self) -> np.ndarray:
        """The ``(cutoff, k)`` ρ matrix (materialized lazily)."""
        rho = self._rho_state = _materialized(self._rho_state)
        return rho

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RankProbabilities k={self.k} cutoff={self.cutoff} "
            f"backend={self.backend!r}>"
        )

    def __eq__(self, other: object) -> bool:
        # Array fields need elementwise comparison; the dataclass
        # default would raise on them.
        if not isinstance(other, RankProbabilities):
            return NotImplemented
        return (
            self.k == other.k
            and self.ranked is other.ranked
            and self.cutoff == other.cutoff
            and np.array_equal(self.rho_prefix, other.rho_prefix)
            and np.array_equal(self.topk_prefix, other.topk_prefix)
        )

    def restricted_to(self, k: int) -> "RankProbabilities":
        """This PSR result viewed at a smaller ``k`` -- no new pass.

        ``ρ_i(h)`` does not depend on the query's ``k`` (it is the
        probability that exactly ``h - 1`` higher-ranked real tuples
        precede ``t_i``); ``k`` only decides how many columns the scan
        emits and where Lemma 2 truncates it.  A pass at ``k_max``
        therefore contains every smaller-``k`` result as a column
        prefix: slice the first ``k`` columns of ``rho_prefix`` and
        re-sum the top-k vector.  This is what lets a batch of queries
        at mixed ``k`` share **one** PSR pass at the maximum ``k``
        (:meth:`repro.queries.engine.QuerySession.prefill`).

        The restricted result keeps this result's ``cutoff``; rows a
        direct ``k``-pass would have truncated earlier are all-zero in
        the sliced columns, so every derived answer is identical.
        Scan checkpoints are not carried over (they snapshot ``k_max``
        column state), so delta-patching a restricted result falls back
        to a window re-scan from the top.
        """
        if k == self.k:
            return self
        if not 1 <= k < self.k:
            raise ValueError(
                f"can only restrict to 1 <= k < {self.k}, got {k}"
            )
        rho = np.ascontiguousarray(self.rho_prefix[:, :k])
        return RankProbabilities(
            k=k,
            ranked=self.ranked,
            cutoff=self.cutoff,
            rho_prefix=rho,
            topk_prefix=rho.sum(axis=1),
            backend=self.backend,
            checkpoints=None,
        )

    def rank_probability(self, tid: str, h: int) -> float:
        """``ρ_i(h)``: probability tuple ``tid`` takes rank ``h`` (1-based)."""
        if not 1 <= h <= self.k:
            raise ValueError(f"rank h must lie in 1..{self.k}, got {h}")
        i = self.ranked.rank_of(tid)
        if i >= self.cutoff:
            return 0.0
        return float(self.rho_prefix[i, h - 1])

    def rho(self, tid: str) -> List[float]:
        """The full vector ``[ρ(1), ..., ρ(k)]`` for tuple ``tid``."""
        i = self.ranked.rank_of(tid)
        if i >= self.cutoff:
            return [0.0] * self.k
        return self.rho_prefix[i].tolist()

    def topk_probability(self, tid: str) -> float:
        """``p_i``: probability tuple ``tid`` appears in a pw-result."""
        i = self.ranked.rank_of(tid)
        if i >= self.cutoff:
            return 0.0
        return float(self.topk_prefix[i])

    def topk_array(self) -> np.ndarray:
        """Top-k probabilities for all ``n`` tuples as a float64 array."""
        full = np.zeros(self.ranked.num_tuples)
        full[: self.cutoff] = self.topk_prefix
        return full

    def topk_probabilities(self) -> List[float]:
        """Top-k probabilities for all tuples, in ranked order."""
        return self.topk_array().tolist()

    def nonzero_tuples(
        self, tolerance: float = 0.0
    ) -> Iterator[Tuple[ProbabilisticTuple, float]]:
        """Yield ``(tuple, p_i)`` for tuples with ``p_i > tolerance``,
        highest rank first."""
        order = self.ranked.order
        for i in np.nonzero(self.topk_prefix > tolerance)[0]:
            yield order[i], float(self.topk_prefix[i])

    def topk_mass_by_xtuple_array(self) -> np.ndarray:
        """``Σ_{t_i∈τ_l} p_i`` per x-tuple as a float64 array."""
        return np.bincount(
            self.ranked.xtuple_indices_array[: self.cutoff],
            weights=self.topk_prefix,
            minlength=self.ranked.num_xtuples,
        )

    def topk_probability_by_xtuple(self) -> List[float]:
        """``Σ_{t_i∈τ_l} p_i`` per x-tuple (database order).

        These per-entity masses drive the RandP cleaning heuristic and,
        combined with the TP weights, the ``g(l, D)`` values of
        Theorem 2.
        """
        return self.topk_mass_by_xtuple_array().tolist()


def _rebuild_from_base(
    base: List[float], open_masses: Dict[int, float], skip: int
) -> List[float]:
    """Closed-product base times all open factors except ``skip``.

    Saturated open factors are excluded -- they are accounted for by
    the integer ``shift``, never by the vector.
    """
    dp = list(base)
    for l, q in open_masses.items():
        if l != skip and q < 1.0 - SATURATION_EPSILON:
            _add_factor(dp, q)
    return dp


class _PythonScanState:
    """Mutable scan state of the scalar kernel (resumable mid-stream)."""

    __slots__ = ("row", "shift", "open_masses", "closed_dp", "dp", "remaining")

    def __init__(
        self,
        row: int,
        shift: int,
        open_masses: Dict[int, float],
        closed_dp: List[float],
        dp: Optional[List[float]],
        remaining: List[int],
    ) -> None:
        self.row = row
        self.shift = shift
        self.open_masses = open_masses
        self.closed_dp = closed_dp
        self.dp = dp
        self.remaining = remaining


def _python_state(
    ranked: RankedDatabase,
    k: int,
    checkpoint: Optional[ScanCheckpoint],
    defer_product: bool = False,
) -> _PythonScanState:
    """Scan state at a checkpoint (or the initial state for ``None``).

    ``defer_product`` skips building the running product ``dp`` -- the
    fast-forward path maintains only the factor state and rebuilds the
    product once it reaches the window.
    """
    if checkpoint is None:
        row, shift = 0, 0
        closed_dp = [0.0] * k
        closed_dp[0] = 1.0
        open_masses: Dict[int, float] = {}
    else:
        row, shift = checkpoint.row, checkpoint.shift
        closed_dp = checkpoint.closed_dp.tolist()
        open_masses = dict(checkpoint.open_masses)
    remaining = np.bincount(
        ranked.xtuple_indices_array[row:], minlength=ranked.num_xtuples
    ).tolist()
    dp = (
        None
        if defer_product
        else _rebuild_from_base(closed_dp, open_masses, -1)
    )
    return _PythonScanState(row, shift, open_masses, closed_dp, dp, remaining)


def _scan_python(
    probabilities: List[float],
    xtuple_indices: List[int],
    k: int,
    st: _PythonScanState,
    stop: int,
    rho_out: Optional[List[List[float]]],
    topk_out: Optional[List[float]],
    checkpoints: Optional[List[ScanCheckpoint]],
    base: int = 0,
) -> int:
    """Advance the scalar scan from ``st.row`` to ``stop``.

    Emits ρ rows / top-k values when the output lists are given
    (``None`` = state-transition-only replay).  Returns the row where
    Lemma 2's early stop fired, or ``stop``.  The input lists hold rows
    ``base ..`` (delta windows pass a slice instead of materializing
    the whole column).
    """
    open_masses = st.open_masses
    remaining = st.remaining
    shift = st.shift
    closed_dp = st.closed_dp
    dp = st.dp
    i = st.row
    next_ck = max(
        CHECKPOINT_INTERVAL,
        ((i + CHECKPOINT_INTERVAL - 1) // CHECKPOINT_INTERVAL)
        * CHECKPOINT_INTERVAL,
    )
    while i < stop:
        if shift >= k:
            break
        if checkpoints is not None and i == next_ck:
            checkpoints.append(
                ScanCheckpoint(
                    row=i,
                    shift=shift,
                    closed_dp=np.array(closed_dp, dtype=np.float64),
                    open_masses=dict(open_masses),
                )
            )
        if i >= next_ck:
            next_ck += CHECKPOINT_INTERVAL
        e_i = probabilities[i - base]
        l = xtuple_indices[i - base]
        q = open_masses.get(l, 0.0)

        if q >= 1.0 - SATURATION_EPSILON:
            # Siblings already exhaust the probability mass: t_i exists
            # with (numerically) zero probability.
            if rho_out is not None:
                rho_out.append([0.0] * k)
                topk_out.append(0.0)
            remaining[l] -= 1
            if remaining[l] == 0:
                del open_masses[l]  # saturated: lives in `shift`
            i += 1
            continue

        if q <= 0.0:
            dp_excl = dp
        elif q <= DECONVOLUTION_LIMIT:
            dp_excl = _remove_factor_forward(dp, q)
        else:
            dp_excl = _rebuild_from_base(closed_dp, open_masses, l)

        if rho_out is not None:
            # ρ_i(h) = e_i * Pr[h-1 higher tuples] ; `shift` saturated
            # x-tuples always contribute one higher tuple each.
            rho_i = [0.0] * k
            p_i = 0.0
            for h in range(1, k + 1):
                s = h - 1 - shift
                if 0 <= s < k:
                    value = e_i * dp_excl[s]
                    rho_i[h - 1] = value
                    p_i += value
            rho_out.append(rho_i)
            topk_out.append(p_i)

        # Fold t_i's mass into its x-tuple's factor for later tuples.
        # dp_excl is dead after the ρ computation, so mutating it (even
        # when it aliases dp) is safe.
        new_mass = min(1.0, q + e_i)
        saturated = new_mass >= 1.0 - SATURATION_EPSILON
        if saturated:
            shift += 1
            dp = dp_excl
        else:
            dp = dp_excl
            _add_factor(dp, new_mass)
        remaining[l] -= 1
        if remaining[l] == 0:
            open_masses.pop(l, None)
            if not saturated:
                _add_factor(closed_dp, new_mass)
        else:
            open_masses[l] = 1.0 if saturated else new_mass
        i += 1

    st.row = i
    st.shift = shift
    st.dp = dp
    return i


def nearest_checkpoint(
    checkpoints: List[ScanCheckpoint], row: int
) -> Optional[ScanCheckpoint]:
    """The latest checkpoint at or above ``row`` (``None`` = scan top)."""
    best = None
    for ck in checkpoints:
        if ck.row <= row and (best is None or ck.row > best.row):
            best = ck
    return best


def _compute_rank_probabilities_python(
    ranked: RankedDatabase, k: int
) -> RankProbabilities:
    """The scalar reference kernel (kept for cross-validation)."""
    n = ranked.num_tuples
    st = _python_state(ranked, k, None)
    rho_prefix: List[List[float]] = []
    topk_prefix: List[float] = []
    checkpoints: List[ScanCheckpoint] = []
    cutoff = _scan_python(
        ranked.probabilities,
        ranked.xtuple_indices,
        k,
        st,
        n,
        rho_prefix,
        topk_prefix,
        checkpoints,
    )

    rho_matrix = (
        np.array(rho_prefix, dtype=np.float64)
        if rho_prefix
        else np.zeros((0, k))
    )
    return RankProbabilities(
        k=k,
        ranked=ranked,
        cutoff=cutoff,
        rho_prefix=rho_matrix,
        topk_prefix=np.array(topk_prefix, dtype=np.float64),
        backend="python",
        checkpoints=checkpoints,
    )


def _delta_window_python(
    old_rp: RankProbabilities,
    delta: RankDelta,
    start: int,
    stop: int,
    checkpoints: List[ScanCheckpoint],
) -> Tuple[np.ndarray, np.ndarray, int, List[ScanCheckpoint]]:
    """Re-emit rows ``[start, stop)`` of the patched view (scalar)."""
    new_ranked = delta.new_ranked
    k = old_rp.k
    st = _python_state(
        new_ranked, k, nearest_checkpoint(checkpoints, start),
        defer_product=True,
    )
    # Only the rows from the checkpoint to ``stop`` are touched; the
    # factor state alone replays to ``start``.
    base = st.row
    probabilities = new_ranked.probabilities_array[base:stop].tolist()
    xtuple_indices = new_ranked.xtuple_indices_array[base:stop].tolist()
    st.shift = _fast_forward(
        probabilities, xtuple_indices, k, st.open_masses, st.closed_dp,
        st.shift, st.remaining, start, base, base,
    )
    st.row = start
    st.dp = _rebuild_from_base(st.closed_dp, st.open_masses, -1)
    rho_rows: List[List[float]] = []
    topk_rows: List[float] = []
    fresh: List[ScanCheckpoint] = []
    end = _scan_python(
        probabilities,
        xtuple_indices,
        k,
        st,
        stop,
        rho_rows,
        topk_rows,
        fresh,
        base,
    )
    rho = (
        np.array(rho_rows, dtype=np.float64)
        if rho_rows
        else np.zeros((0, k))
    )
    return rho, np.array(topk_rows, dtype=np.float64), end, fresh


def compute_rank_probabilities(
    ranked: RankedDatabase,
    k: int,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> RankProbabilities:
    """Run PSR over a pre-sorted database.

    Returns a :class:`RankProbabilities` carrying ``ρ_i(h)`` and ``p_i``
    for every tuple from one scan of the ranked rows, which stops early
    as soon as ``k`` x-tuples are guaranteed to contribute a
    higher-ranked tuple (Lemma 2).  The cost per scanned row is not a
    constant ``O(k)``: it grows with ``A``, the number of x-tuples
    partially scanned at that row.  The scalar kernel pays ``O(k)``
    per row plus ``O(A·k)`` rebuilds for heavy siblings; the numpy
    kernel pays array work that grows with ``A`` (see
    :mod:`repro.queries.psr_numpy`) and no interpreted per-row loop.
    The README records measured pass times.

    ``backend`` picks the kernel (``"numpy"``, ``"python"`` or
    ``"parallel"``); when omitted, the process-wide default from
    :mod:`repro.core.backend` applies.  ``workers`` sizes the parallel
    backend's process pool (ignored by the serial kernels); when
    omitted it resolves per :func:`repro.core.parallel.resolve_workers`.
    All backends agree within 1e-9 absolute on every entry.
    """
    require_valid_k(k)
    resolved = resolve_backend(backend)
    if resolved == "parallel":
        from repro.core.parallel import compute_rank_probabilities_parallel

        return compute_rank_probabilities_parallel(ranked, k, workers=workers)
    if resolved == "numpy":
        from repro.queries.psr_numpy import compute_rank_probabilities_numpy

        return compute_rank_probabilities_numpy(ranked, k)
    return _compute_rank_probabilities_python(ranked, k)


def _remap_checkpoint(ck: ScanCheckpoint, delta: RankDelta, row: int) -> ScanCheckpoint:
    """A checkpoint re-expressed in the patched view's coordinates.

    Rows move by the delta's offset below the window; on a removal the
    dense x-tuple indices above the vacated slot shift down by one.
    The ``closed_dp`` array is shared -- checkpoints are immutable.
    """
    if delta.new_index is None:
        masses = {
            delta.map_xtuple_index(l): q for l, q in ck.open_masses.items()
        }
    else:
        masses = ck.open_masses
    if row == ck.row and masses is ck.open_masses:
        return ck
    return ScanCheckpoint(
        row=row, shift=ck.shift, closed_dp=ck.closed_dp, open_masses=masses
    )


def apply_rank_delta(
    old_rp: RankProbabilities,
    delta: RankDelta,
    backend: Optional[str] = None,
) -> RankProbabilities:
    """PSR output for the patched view, from the old output + delta.

    Rows above the delta's window and below its tail are carried over
    verbatim; only the window ``[window_start, tail)`` is re-scanned,
    starting from the nearest stored :class:`ScanCheckpoint` (at most
    ``CHECKPOINT_INTERVAL`` replay rows away) -- O(n) array splicing
    plus O(k·window) kernel work instead of a fresh O(kn) pass.  When
    the swapped x-tuple never saturates (incomplete entities, outright
    removal) there is no tail and the re-scan runs from the window to
    the bottom; the prefix and checkpoint fast-forward still apply.

    Agrees with a from-scratch pass over the patched view within the
    backends' usual 1e-9 (exercised by ``tests/test_delta_engine.py``).
    """
    if delta.old_ranked is not old_rp.ranked:
        raise ValueError(
            "delta was derived from a different ranked view than the "
            "rank probabilities being patched"
        )
    resolved = resolve_backend(backend if backend is not None else old_rp.backend)
    k = old_rp.k
    new_ranked = delta.new_ranked
    start = delta.window_start
    prefix_ckpts = [
        _remap_checkpoint(ck, delta, ck.row)
        for ck in (old_rp.checkpoints or [])
        if ck.row <= min(start, old_rp.cutoff)
    ]

    if old_rp.cutoff <= start:
        # The old scan early-stopped above the affected window; the
        # patched view's scan is bitwise identical up to that point and
        # stops at the same row.
        return RankProbabilities(
            k=k,
            ranked=new_ranked,
            cutoff=old_rp.cutoff,
            rho_prefix=old_rp._rho_state,
            topk_prefix=old_rp.topk_prefix,
            backend=resolved,
            checkpoints=prefix_ckpts,
        )

    tail_old, tail_new = delta.tail_old, delta.tail_new
    if tail_old is not None and old_rp.cutoff < tail_old:
        # The old pass never reached the equalization point; nothing
        # below the window exists to reuse.
        tail_old = tail_new = None
    stop = tail_new if tail_new is not None else new_ranked.num_tuples

    window: Tuple[
        Union[np.ndarray, DeferredRho], np.ndarray, int, List[ScanCheckpoint]
    ]
    if resolved != "python":
        # The numpy window kernel also serves "parallel" results: their
        # checkpoints sit on shard boundaries, so the replay restores
        # the nearest boundary state and re-scans from there through
        # the same block kernel.
        from repro.queries.psr_numpy import _delta_window_numpy

        window = _delta_window_numpy(old_rp, delta, start, stop, prefix_ckpts)
    else:
        window = _delta_window_python(old_rp, delta, start, stop, prefix_ckpts)
    window_rho, window_topk, end, fresh_ckpts = window

    prefix_topk = old_rp.topk_prefix[:start]
    if end < stop or tail_new is None:
        cutoff = end
        rho = _PendingRho(old_rp._rho_state, start, window_rho, None)
        topk = np.concatenate([prefix_topk, window_topk])
        checkpoints = prefix_ckpts + fresh_ckpts
    else:
        offset = delta.row_offset
        cutoff = old_rp.cutoff + offset
        rho = _PendingRho(
            old_rp._rho_state, start, window_rho, (tail_old, old_rp.cutoff)
        )
        topk = np.concatenate(
            [
                prefix_topk,
                window_topk,
                old_rp.topk_prefix[tail_old : old_rp.cutoff],
            ]
        )
        tail_ckpts = [
            _remap_checkpoint(ck, delta, ck.row + offset)
            for ck in (old_rp.checkpoints or [])
            if ck.row >= tail_old
        ]
        checkpoints = prefix_ckpts + fresh_ckpts + tail_ckpts
    return RankProbabilities(
        k=k,
        ranked=new_ranked,
        cutoff=cutoff,
        rho_prefix=rho,
        topk_prefix=topk,
        backend=resolved,
        checkpoints=checkpoints,
    )


def total_topk_mass(rank_probs: RankProbabilities) -> float:
    """``Σ_i p_i`` -- equals ``E[size of a pw-result]``.

    On complete databases (every possible world holds at least ``k``
    real tuples) this is exactly ``k``; the RandP heuristic relies on
    that normalization.
    """
    return math.fsum(rank_probs.topk_prefix.tolist())
