"""The certified tail stop against unstopped scans.

On incomplete data Lemma 2 never fires, so the PSR scan ends at the
tail stop instead: the first row where the x-tuples' masses above it
prove that the rows left hold at most ``TAIL_EPSILON`` of top-k
probability.  These tests run the same pass without the stop
(``tail_epsilon=0``) and check the certificate and its consequences:
the mass below the cutoff lies within the Chernoff bound at the cutoff,
which the row above it does not meet; the cutoff is never later than
the row the quadratic Chernoff form gives; the three query answers are
the same; and quality and ``g(l, D)`` agree within 1e-9.  Every check
runs on both kernels: the production block kernel and, through
``backend="python"``, the scalar oracle.
"""

import math

import numpy as np
import pytest

from repro.core.backend import BACKENDS
from repro.core.tp import compute_quality_tp
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import InvalidQueryError
from repro.queries import global_topk, ptk, ukranks
from repro.queries.engine import QuerySession
from repro.queries.psr import (
    CHERNOFF_T,
    TAIL_EPSILON,
    compute_rank_probabilities,
)

ABS = 1e-9

CASES = [
    (completion, k)
    for completion in (0.5, 0.85, 0.99)
    for k in (15, 50, 100)
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"c{c[0]}-k{c[1]}")
def passes(request):
    """``(ranked, k, [(backend, stopped pass, unstopped pass)])`` for one
    case, one triple per kernel."""
    completion, k = request.param
    ranked = generate_synthetic(
        num_xtuples=400, completion=completion, seed=k
    ).ranked()
    triples = []
    for backend in BACKENDS:
        stopped = compute_rank_probabilities(ranked, k, backend=backend)
        unstopped = compute_rank_probabilities(
            ranked, k, backend=backend, tail_epsilon=0.0
        )
        assert unstopped.cutoff == ranked.num_tuples
        triples.append((backend, stopped, unstopped))
    return ranked, k, triples


def test_epsilon_is_below_the_ukranks_tolerance():
    assert TAIL_EPSILON < ukranks.ZERO_TOLERANCE


@pytest.mark.parametrize("backend", BACKENDS)
def test_epsilon_outside_the_unit_interval_is_refused(backend):
    # Refused before tail_stop runs: 50.0 makes its square root's
    # argument negative, and NaN or -1.0 would turn the stop off and be
    # recorded as the pass's ε.
    ranked = generate_synthetic(
        num_xtuples=200, completion=0.85, seed=1
    ).ranked()
    for epsilon in (50.0, 1.5, -1.0, float("nan"), float("inf"), "0.1", None, True):
        with pytest.raises(InvalidQueryError, match="tail_epsilon"):
            compute_rank_probabilities(
                ranked, 10, backend=backend, tail_epsilon=epsilon
            )
    assert compute_rank_probabilities(
        ranked, 10, backend=backend, tail_epsilon=0
    ).cutoff == ranked.num_tuples
    assert compute_rank_probabilities(
        ranked, 10, backend=backend, tail_epsilon=1
    ).tail_epsilon == 1


def chernoff_bound(ranked, k, row):
    """``k · min_t e^{t(k-1)} · Π_l (1 - m_l·c_t)`` over ``CHERNOFF_T``,
    from the x-tuples' masses above ``row``."""
    masses = np.bincount(
        ranked.xtuple_indices_array[:row],
        weights=ranked.probabilities_array[:row],
    )
    c = -np.expm1(-CHERNOFF_T)
    logs = CHERNOFF_T * (k - 1) + np.log1p(-np.outer(c, masses)).sum(axis=1)
    return k * math.exp(logs.min())


def quadratic_row(ranked, k):
    """The first row whose mass above exceeds ``μ*``, where the
    quadratic form ``k·exp(-(μ-k)²/(2μ))`` falls below ``TAIL_EPSILON``."""
    log_term = math.log(k / TAIL_EPSILON)
    threshold = k + log_term + math.sqrt(log_term * (log_term + 2 * k))
    mass = np.cumsum(ranked.probabilities_array)
    return min(
        ranked.num_tuples, int(np.searchsorted(mass, threshold, side="right")) + 1
    )


def test_tail_mass_within_the_bound(passes):
    ranked, k, triples = passes
    capped = quadratic_row(ranked, k)
    for _, stopped, unstopped in triples:
        cutoff = stopped.cutoff
        tail = math.fsum(unstopped.topk_prefix[cutoff:].tolist())
        # No pass reads more rows than the quadratic form lets it.
        assert cutoff <= capped
        if cutoff < capped:
            # The first row the Chernoff bound certifies: the row above
            # it is not certified.
            assert chernoff_bound(ranked, k, cutoff - 1) >= TAIL_EPSILON * (
                1 - 1e-9
            )
        if cutoff == ranked.num_tuples:
            continue
        bound = chernoff_bound(ranked, k, cutoff)
        if cutoff == capped:
            mu = math.fsum(ranked.probabilities_array[:cutoff].tolist())
            bound = min(bound, k * math.exp(-((mu - k) ** 2) / (2 * mu)))
        assert tail <= bound <= TAIL_EPSILON
        # The kept rows agree with the unstopped scan.
        assert stopped.topk_prefix == pytest.approx(
            unstopped.topk_prefix[:cutoff], abs=ABS
        )


def test_answers_are_identical(passes):
    ranked, k, triples = passes
    for backend, stopped, unstopped in triples:
        mine = ukranks.answer_from_rank_probabilities(stopped)
        theirs = ukranks.answer_from_rank_probabilities(unstopped)
        assert [(w.rank, w.tid) for w in mine.winners] == [
            (w.rank, w.tid) for w in theirs.winners
        ]
        assert [w.probability for w in mine.winners] == pytest.approx(
            [w.probability for w in theirs.winners], abs=ABS
        )
        mine = global_topk.answer_from_rank_probabilities(stopped)
        theirs = global_topk.answer_from_rank_probabilities(unstopped)
        assert mine.tids == theirs.tids
        session = QuerySession(ranked, backend=backend)
        for threshold in (0.0, 0.01, 0.1):
            expected = ptk.answer_from_rank_probabilities(unstopped, threshold)
            answers = [session.ptk(k, threshold)]
            if backend == "numpy":
                # ptk.evaluate runs the production kernel; at T = 0 the
                # kernels may order rows of vanishing mass differently.
                answers.append(ptk.evaluate(ranked, k, threshold))
            for answer in answers:
                assert answer.tids == expected.tids
                assert [p for _, p in answer.members] == pytest.approx(
                    [p for _, p in expected.members], abs=ABS
                )


def test_quality_and_g_agree(passes):
    ranked, k, triples = passes
    for backend, stopped, unstopped in triples:
        mine = compute_quality_tp(
            ranked, k, rank_probabilities=stopped, backend=backend
        )
        theirs = compute_quality_tp(
            ranked, k, rank_probabilities=unstopped, backend=backend
        )
        assert mine.quality == pytest.approx(theirs.quality, abs=ABS)
        assert mine.g_by_xtuple() == pytest.approx(
            theirs.g_by_xtuple(), abs=ABS
        )
