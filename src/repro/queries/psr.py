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

Kernels
-------
The production kernel is the division-free block kernel in
:mod:`repro.queries.psr_numpy`: per block of
:data:`~repro.queries.psr_numpy.BLOCK_ROWS` rows, each row's exclusion
product is the block's closed product times the row's live factors,
built with array operations vectorized across a group of blocks.  It
runs every pass, including the fresh pass of a session derived through
a cleaning round's change set.

The scalar kernel below is its reference oracle, reached only through
an explicit ``backend="python"``.  There is no process-wide switch, so
what a service answers -- and what its journal replays -- does not
depend on the environment.

Both produce a :class:`RankProbabilities` whose only storage is a
``(cutoff, k)`` float64 ``rho_prefix`` matrix plus a ``topk_prefix``
vector -- the columnar shape every downstream consumer (query
answering, TP quality, cleaning) reads directly.  Its whole-database
views are arrays too: ``topk_array`` per ranked tuple and
``topk_mass_by_xtuple_array`` per x-tuple.  The scalar kernel reads
its input rows with one ``tolist()`` of the ranked view's columns.

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

Certified tail stop
-------------------
Lemma 2 needs ``k`` certain x-tuples, which incomplete data never
supplies.  The tail stop ends the scan where the rows left provably
hold at most ``ε`` of top-k probability.  Let ``m_l(i)`` be x-tuple
``τ_l``'s mass above row ``i`` and ``C_i`` the number of x-tuples with
a member above row ``i``: a sum of independent Bernoullis with means
``m_l(i)``.  A tuple at or below row ``i`` that exists has no sibling
above row ``i``, so it can be in the top-k only if ``C_i <= k-1``.  At
most ``k`` tuples are in the top-k at once, so

    Σ_{j>=i} p_j  <=  k · Pr[C_i <= k-1].

For any ``t > 0``, ``C_i <= k-1`` implies ``e^{-t·C_i} >= e^{-t(k-1)}``,
so Markov's inequality on ``e^{-t·C_i}`` and independence give the
Chernoff bound

    Pr[C_i <= k-1]  <=  e^{t(k-1)} · E[e^{-t·C_i}]
                     =  e^{t(k-1)} · Π_l (1 - m_l(i)·c_t),   c_t = 1 - e^{-t}.

:func:`tail_stop` returns the first row ``i`` where ``k`` times the
least of these bounds over the fixed grid :data:`CHERNOFF_T` is below
``ε``.  Every ``t`` gives a valid bound, so the grid trades tightness
for cost, not correctness.  The stop is capped at the first row whose
prefix mass ``μ_i = Σ_l m_l(i)`` exceeds ``μ* = k + L + √(L² + 2kL)``
with ``L = ln(k/ε)``: relaxing each factor to ``e^{-m_l(i)·c_t}`` gives
the quadratic form ``k · exp(-(μ_i-k)² / (2μ_i))``, which is below
``ε`` past ``μ*``, so the cap is a certificate too, and a pass never
reads more rows than that form would let it.  Both kernels scan to
``min(n, stop)``, so cutoffs stay equal across kernels; ``ε = 0``
turns the stop off.

The stop costs the rows it reads, not ``n``.  Row ``i`` changes only
its own x-tuple's factor, from mass ``m`` to ``m + e_i``, so the log of
the product is a running sum of ``log(1-(m+e_i)·c_t) - log(1-m·c_t)``
over the rows read.  And since ``log(1-m·c_t) >= -t·m`` for ``m`` in
``[0, 1]`` (the log is concave in ``m`` and equal at both ends), no
``t <= t_max`` certifies a row with ``μ_i <= k-1 + L/t_max``: the sum
starts at the first row past that, from the x-tuples' masses there.
Each later row of mass ``e`` lowers every ``t``'s log bound by at least
``c_t·e``, so the sum ends by the row whose mass above has grown by
``min_t (log of the bound over ε) / c_t`` since the start, which is
certified by that alone.

Every answer stays exact:

* **U-kRanks.**  A winner needs ``ρ > ukranks.ZERO_TOLERANCE = 1e-12``,
  and a dropped row has ``ρ_j(h) <= p_j < ε < 1e-12``.
* **Global-topk.**  ``Pr[C_stop <= k-1] < ε/k``, so the scanned rows
  hold at least ``k - ε`` of top-k mass and at least ``k`` of them have
  ``p >= (1-ε)/cutoff > ε``: no dropped row can displace them.
* **PT-k** is exact for ``T >= ε``, since a dropped row has
  ``p_j < ε``.  For ``T < ε`` (0 included) ``ptk.evaluate`` and
  ``QuerySession.ptk`` answer from a pass whose stop uses ``ε = T``.
  :class:`RankProbabilities` records its ``tail_epsilon``, and
  ``ptk.answer_from_rank_probabilities`` refuses a pass whose
  ``tail_epsilon`` exceeds ``T``.
* **TP quality.**  Every weight satisfies
  ``ω_i ∈ [log2 e_i - 1/ln 2, 0]``, so the quality and each ``g(l, D)``
  move by at most ``ε·(log2(1/e_min) + 1/ln 2)``, which is below
  ``1.1e-12`` for any positive double ``e_min``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.core.backend import check_backend
from repro.db.database import SATURATION_EPSILON, RankDelta, RankedDatabase
from repro.db.tuples import ProbabilisticTuple
from repro.queries.deterministic import require_unit_interval, require_valid_k

#: Threshold above which factor removal falls back to a from-scratch
#: rebuild (forward deconvolution is stable only for q <= 1/2).
DECONVOLUTION_LIMIT = 0.5

#: Top-k probability mass the certified tail stop may leave unscanned
#: (see the module docstring).  Must stay below
#: ``ukranks.ZERO_TOLERANCE`` for U-kRanks to stay exact.
TAIL_EPSILON = 1e-15

#: The ``t`` at which :func:`tail_stop` evaluates its Chernoff bound,
#: densest where the best ``t`` falls for ``k`` up to 100 on generated
#: data; there the best of them certifies a row within about 1% of the
#: best ``t`` overall.  ``t_max`` is small enough that ``1 - m·c_t``
#: stays positive for any x-tuple mass ``m`` the database admits.
CHERNOFF_T = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0])

#: ``-c_t = e^{-t} - 1`` for each ``t`` of :data:`CHERNOFF_T`, a column.
_NEG_C = np.expm1(-CHERNOFF_T)[:, None]

#: Rows whose prefix sums :func:`tail_stop` takes at first; it doubles
#: them until they reach the rows it needs.
_PREFIX_ROWS = 1024


def tail_stop(ranked: RankedDatabase, k: int, epsilon: float) -> int:
    """The row where the certified tail stop ends a scan at ``k``.

    The first row ``i`` where ``k · min_t e^{t(k-1)} · Π_l (1 -
    m_l(i)·c_t)`` over :data:`CHERNOFF_T` falls below ``epsilon``, or,
    if that comes first, the first row whose mass above exceeds ``μ* =
    k + L + √(L² + 2kL)`` with ``L = ln(k/ε)`` (see the module
    docstring): rows ``i..n`` then hold at most ``epsilon`` of top-k
    probability.  Returns ``n`` when no row qualifies or ``epsilon`` is
    0.  It reads the rows up to a row it has proved certified, so it
    costs what the pass it bounds reads, not ``n``.
    """
    n = ranked.num_tuples
    if epsilon <= 0.0:
        return n
    probabilities, xtuple_indices = ranked.psr_columns()
    budget = math.log(k) - math.log(epsilon)
    quadratic = k + budget + math.sqrt(budget * (budget + 2 * k))
    # No t of the grid certifies a row with at most this mass above.
    mass = np.cumsum(probabilities[:_PREFIX_ROWS])
    start, mass = _row_past(probabilities, k - 1 + budget / CHERNOFF_T[-1], mass)
    if start == n:
        return n
    masses = np.bincount(
        xtuple_indices[:start],
        weights=probabilities[:start],
        minlength=ranked.num_xtuples,
    )
    # level[t] = ln(bound_t / ε) at row `start`.
    level = CHERNOFF_T * (k - 1) + budget
    level += np.log1p(_NEG_C * masses[masses > 0.0]).sum(axis=1)
    if level.min() < 0.0:
        return start
    # A row of mass e lowers each level[t] by at least c_t·e, so the row
    # whose mass above exceeds μ_start + min_t level[t] / c_t is
    # certified: the stop lies at or above it, or at the cap.
    reach = mass[start - 1] - (level / _NEG_C[:, 0]).max()
    end, mass = _row_past(probabilities, min(reach, quadratic), mass)
    order, steps = _log_steps(
        masses, xtuple_indices[start:end], probabilities[start:end]
    )
    # Only a t whose bound ends below ε certifies a row on the way, so
    # only those rows are summed in row order.
    fired = np.flatnonzero(level + steps.sum(axis=1) < 0.0)
    curve = np.empty((fired.size, end - start))
    curve[:, order] = steps[fired]
    curve[:, 0] += level[fired]
    np.cumsum(curve, axis=1, out=curve)
    certified = np.flatnonzero((curve < 0.0).any(axis=0))
    return start + 1 + int(certified[0]) if certified.size else end


def _row_past(
    probabilities: np.ndarray, threshold: float, mass: np.ndarray
) -> Tuple[int, np.ndarray]:
    """The first row whose mass above exceeds ``threshold`` (``n`` if
    none), and prefix sums that reach it.

    ``mass`` holds the prefix sums of the first rows; they are summed on
    over as many rows again, in row order, until they reach past
    ``threshold`` or cover the column.
    """
    n = probabilities.size
    while True:
        past = int(np.searchsorted(mass, threshold, side="right"))
        if past < mass.size or mass.size == n:
            return min(past + 1, n), mass
        more = probabilities[mass.size : 2 * mass.size].copy()
        more[0] += mass[-1]
        mass = np.concatenate((mass, np.cumsum(more, out=more)))


def _log_steps(
    masses: np.ndarray, members: np.ndarray, e: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``log(1 - m'·c_t) - log(1 - m·c_t)`` for each row and ``t``.

    ``m`` and ``m'`` are the row's x-tuple's mass above the row and
    through it, given each x-tuple's mass above the first row in
    ``masses``.  Returns the rows grouped by x-tuple (``order``, a
    stable argsort of ``members``) and a ``(len(CHERNOFF_T), rows)``
    array of their steps in that order.
    """
    order = np.argsort(members, kind="stable")
    ids = members[order]
    e = e[order]
    head = np.empty(ids.size, dtype=bool)
    head[0] = True
    np.not_equal(ids[1:], ids[:-1], out=head[1:])
    # Each x-tuple's running mass: the sums only grow, so the running
    # maximum of the sum before each x-tuple's first row restarts them.
    through = np.cumsum(e)
    through -= np.maximum.accumulate(np.where(head, through - e, 0.0))
    start = masses[ids]
    through += start
    # A row's mass above is the one through its x-tuple's previous row,
    # bit for bit, so an x-tuple's steps telescope.
    before = np.where(head, start, np.concatenate(([0.0], through[:-1])))
    logs = np.log1p(_NEG_C[:, :, None] * np.stack((through, before)))
    return order, logs[:, 0] - logs[:, 1]


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


class DeferredRho(Protocol):
    """A deferred ρ matrix: anything that materializes to one.

    The numpy kernel's ``BlockRho`` satisfies this without psr.py
    importing :mod:`repro.queries.psr_numpy` (which imports this
    module).
    """

    def materialize(self) -> np.ndarray:
        """The ``(rows, k)`` ρ matrix."""
        ...


class RankProbabilities:
    """Rank-probability information for one (database, ranking, k).

    Canonical storage is columnar: ``rho_prefix`` is a ``(cutoff, k)``
    float64 matrix with ``rho_prefix[i, h-1] = ρ(h)`` of the ``i``-th
    ranked tuple, and ``topk_prefix`` the matching top-k probability
    vector.  Tuples at or beyond ``cutoff`` carry no rows and read as
    zero: exactly zero where Lemma 2 fired, and together at most
    ``tail_epsilon`` of top-k mass where the certified tail stop did.
    The matrix may be deferred -- a numpy-kernel pass emits only
    ``topk_prefix`` eagerly -- and materializes transparently on first
    access.
    """

    def __init__(
        self,
        k: int,
        ranked: RankedDatabase,
        cutoff: int,
        rho_prefix: Union[np.ndarray, DeferredRho],
        topk_prefix: np.ndarray,
        backend: str,
        tail_epsilon: float = TAIL_EPSILON,
    ) -> None:
        self.k = k
        self.ranked = ranked
        self.cutoff = cutoff
        self._rho_state = rho_prefix
        self.topk_prefix = topk_prefix
        #: The kernel that produced the rows: ``"numpy"`` for block
        #: passes, ``"python"`` for the scalar oracle's.
        self.backend = backend
        #: The ``ε`` of the tail stop this scan ran under (0 = none).
        self.tail_epsilon = tail_epsilon

    @property
    def rho_prefix(self) -> np.ndarray:
        """The ``(cutoff, k)`` ρ matrix (materialized lazily)."""
        rho = self._rho_state
        if not isinstance(rho, np.ndarray):
            rho = self._rho_state = rho.materialize()
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
        emits and where Lemma 2 and the tail stop truncate it.  A pass
        at ``k_max`` therefore contains every smaller-``k`` result as a
        column prefix: slice the first ``k`` columns of ``rho_prefix``
        and re-sum the top-k vector.  This is what lets a batch of
        queries at mixed ``k`` share **one** PSR pass at the maximum
        ``k`` (:meth:`repro.queries.engine.QuerySession.prefill`).

        The restricted result keeps this result's ``cutoff``.  Rows a
        direct ``k``-pass would have stopped at Lemma 2 are all-zero in
        the sliced columns; rows it would have left to its earlier tail
        stop hold less than ``tail_epsilon`` of top-k mass at ``k``
        (the bound at ``k`` is at most the one at ``k_max``), so every
        derived answer is identical.
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
            tail_epsilon=self.tail_epsilon,
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

    def nonzero_tuples(
        self, tolerance: float = 0.0
    ) -> Iterator[Tuple[ProbabilisticTuple, float]]:
        """Yield ``(tuple, p_i)`` for tuples with ``p_i > tolerance``,
        highest rank first."""
        order = self.ranked.order
        for i in np.nonzero(self.topk_prefix > tolerance)[0]:
            yield order[i], float(self.topk_prefix[i])

    def topk_mass_by_xtuple_array(self) -> np.ndarray:
        """``Σ_{t_i∈τ_l} p_i`` per x-tuple as a float64 array (database
        order).

        These per-entity masses drive the RandP cleaning heuristic and,
        combined with the TP weights, the ``g(l, D)`` values of
        Theorem 2.
        """
        return np.bincount(
            self.ranked.xtuple_indices_array[: self.cutoff],
            weights=self.topk_prefix,
            minlength=self.ranked.num_xtuples,
        )


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


def _compute_rank_probabilities_python(
    ranked: RankedDatabase, k: int, tail_epsilon: float
) -> RankProbabilities:
    """The scalar reference kernel: one cold pass, for cross-validation.

    Keeps one running Poisson-binomial product over the non-saturated
    x-tuples seen so far and divides each row's own factor out of it,
    or rebuilds it without that factor where the division is unstable.
    """
    stop = tail_stop(ranked, k, tail_epsilon)
    probabilities = ranked.probabilities_array[:stop].tolist()
    xtuple_indices = ranked.xtuple_indices_array[:stop].tolist()
    remaining = ranked.db.sizes.tolist()
    open_masses: Dict[int, float] = {}
    closed_dp = [1.0] + [0.0] * (k - 1)
    dp = list(closed_dp)
    shift = 0
    rho_rows: List[List[float]] = []
    topk_rows: List[float] = []
    for i in range(stop):
        if shift >= k:
            break  # Lemma 2
        e_i = probabilities[i]
        l = xtuple_indices[i]
        q = open_masses.get(l, 0.0)
        remaining[l] -= 1

        if q >= 1.0 - SATURATION_EPSILON:
            # Siblings already exhaust the probability mass: t_i exists
            # with (numerically) zero probability.
            rho_rows.append([0.0] * k)
            topk_rows.append(0.0)
            if remaining[l] == 0:
                del open_masses[l]  # saturated: lives in `shift`
            continue

        if q <= 0.0:
            dp_excl = dp
        elif q <= DECONVOLUTION_LIMIT:
            dp_excl = _remove_factor_forward(dp, q)
        else:
            dp_excl = _rebuild_from_base(closed_dp, open_masses, l)

        # ρ_i(h) = e_i * Pr[h-1 higher tuples] ; `shift` saturated
        # x-tuples always contribute one higher tuple each.
        rho_i = [0.0] * k
        p_i = 0.0
        for h in range(shift, k):
            value = e_i * dp_excl[h - shift]
            rho_i[h] = value
            p_i += value
        rho_rows.append(rho_i)
        topk_rows.append(p_i)

        # Fold t_i's mass into its x-tuple's factor for later tuples.
        # dp_excl is dead after the ρ computation, so mutating it (even
        # when it aliases dp) is safe.
        new_mass = min(1.0, q + e_i)
        saturated = new_mass >= 1.0 - SATURATION_EPSILON
        dp = dp_excl
        if saturated:
            shift += 1
        else:
            _add_factor(dp, new_mass)
        if remaining[l] == 0:
            open_masses.pop(l, None)
            if not saturated:
                _add_factor(closed_dp, new_mass)
        else:
            open_masses[l] = 1.0 if saturated else new_mass

    cutoff = len(topk_rows)
    return RankProbabilities(
        k=k,
        ranked=ranked,
        cutoff=cutoff,
        rho_prefix=np.array(rho_rows, dtype=np.float64).reshape(cutoff, k),
        topk_prefix=np.array(topk_rows, dtype=np.float64),
        backend="python",
        tail_epsilon=tail_epsilon,
    )


def compute_rank_probabilities(
    ranked: RankedDatabase,
    k: int,
    backend: str = "numpy",
    tail_epsilon: float = TAIL_EPSILON,
) -> RankProbabilities:
    """Run PSR over a pre-sorted database.

    Returns a :class:`RankProbabilities` carrying ``ρ_i(h)`` and ``p_i``
    for every tuple from one scan of the ranked rows.  The scan stops
    early as soon as ``k`` x-tuples are guaranteed to contribute a
    higher-ranked tuple (Lemma 2), or at the certified tail stop, where
    the rows left hold at most ``tail_epsilon`` of top-k probability
    (:func:`tail_stop`; 0 scans to Lemma 2 or the last row).  The cost
    per scanned row is not a constant ``O(k)``: it grows with ``A``,
    the number of x-tuples partially scanned at that row.  The block
    kernel pays array work that grows with ``A`` (see
    :mod:`repro.queries.psr_numpy`) and no interpreted per-row loop;
    the scalar oracle pays ``O(k)`` per row plus ``O(A·k)`` rebuilds for
    heavy siblings.  The README records measured pass times.

    ``backend="python"`` runs the scalar oracle instead of the block
    kernel.  Both stop at the same row and agree within 1e-9 absolute
    on every entry.  A ``k`` that is not a positive integer, or a
    ``tail_epsilon`` outside ``[0, 1]``, raises
    :class:`~repro.exceptions.InvalidQueryError`.
    """
    require_valid_k(k)
    require_unit_interval("tail_epsilon", tail_epsilon)
    if check_backend(backend) == "numpy":
        from repro.queries.psr_numpy import compute_rank_probabilities_numpy

        return compute_rank_probabilities_numpy(ranked, k, tail_epsilon)
    return _compute_rank_probabilities_python(ranked, k, tail_epsilon)


def apply_rank_delta(
    old_rp: RankProbabilities, delta: RankDelta
) -> Optional[RankProbabilities]:
    """``old_rp`` carried over to the patched view, if it still holds.

    A scan that ended at or above the delta's first changed row
    (``old_rp.cutoff <= delta.window_start``) kept only rows the change
    set left bitwise unchanged, and those rows also place the patched
    view's Lemma 2 row and tail stop.  So the pass is the patched
    view's pass: the same rows, rebound to ``delta.new_ranked``, with
    their ``backend`` label.  (The block kernel also reads the rest of
    its cutoff's sub-block; rows there change only the order in which
    the kept rows' products are formed, not their values beyond
    rounding.)  A restricted result keeps its cutoff, as
    :meth:`RankProbabilities.restricted_to` does.  Any other pass
    returns ``None``; the caller runs a fresh one when it is read.
    """
    if delta.old_ranked is not old_rp.ranked:
        raise ValueError(
            "delta was derived from a different ranked view than the "
            "rank probabilities being carried"
        )
    if old_rp.cutoff > delta.window_start:
        return None
    return RankProbabilities(
        k=old_rp.k,
        ranked=delta.new_ranked,
        cutoff=old_rp.cutoff,
        rho_prefix=old_rp._rho_state,
        topk_prefix=old_rp.topk_prefix,
        backend=old_rp.backend,
        tail_epsilon=old_rp.tail_epsilon,
    )


def total_topk_mass(rank_probs: RankProbabilities) -> float:
    """``Σ_i p_i`` -- equals ``E[size of a pw-result]``.

    On complete databases (every possible world holds at least ``k``
    real tuples) this is exactly ``k``; the RandP heuristic relies on
    that normalization.
    """
    return math.fsum(rank_probs.topk_prefix.tolist())
