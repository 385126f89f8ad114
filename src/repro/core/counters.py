"""The single registry of session/operational counter names.

Every cost / cache counter a
:class:`~repro.queries.engine.QuerySession` accumulates -- and that the
service façade surfaces as per-request deltas in
:class:`~repro.api.results.ServiceResult` envelopes -- is declared
here, once.  The static analyzer (:mod:`repro.tooling.lint`, rule
REP007) rejects any ``psr_*`` attribute introduced elsewhere in the
package that is not declared in this registry, so a new counter cannot
ship half-wired (accumulated in the engine but invisible in result
envelopes, or vice versa).

To add a counter: declare it in :data:`SESSION_COUNTERS` (ordering is
the envelope's reporting order), initialize it in
``QuerySession.__init__``, carry it in ``QuerySession._adopt_counters``
-- REP007 plus the engine's own tests keep the three spots in sync.
"""

from __future__ import annotations

from typing import Tuple

#: Cumulative counters of one :class:`~repro.queries.engine.QuerySession`,
#: in envelope reporting order.
SESSION_COUNTERS: Tuple[str, ...] = (
    "psr_hits",
    "psr_misses",
    "psr_patches",
    "psr_prefills",
    "cold_derives",
    "delta_derives",
)

#: Cumulative counters of one :class:`~repro.store.SnapshotStore`, in
#: envelope reporting order.  Unlike the session counters these live on
#: the *store* (one per store directory, shared by every session served
#: over it): segments durably committed, journal records replayed at
#: open, and files quarantined by verification failures.  The service
#: façade surfaces them as per-request deltas next to the session
#: counters whenever the pool is store-backed, so replays and
#: quarantines are visible in result envelopes (and the CLI's JSON
#: output) without log access.  The multi-writer counters follow:
#: journal checkpoints performed, segment files reclaimed by two-phase
#: GC, and contended cross-process lock acquisitions (a first
#: non-blocking attempt failed and the bounded wait ran).
STORE_COUNTERS: Tuple[str, ...] = (
    "psr_store_writes",
    "psr_store_replays",
    "psr_store_quarantined",
    "psr_store_compactions",
    "psr_store_gc_unlinks",
    "psr_store_lock_waits",
)

#: Counter names with the ``psr_`` prefix REP007 polices.
PSR_COUNTERS: Tuple[str, ...] = tuple(
    name
    for name in SESSION_COUNTERS + STORE_COUNTERS
    if name.startswith("psr_")
)
