"""Reference cold rank for the ranked-view identity tests.

:class:`repro.db.database.RankedDatabase` builds its canonical columns
from its database's columns (the by-value rule's scores read off the
value column, the probabilities, sizes and completion).
:func:`reference_rank` is the plain per-tuple construction those must
reproduce bit for bit: every tuple scored through the ranking in
insertion order, one ``lexsort`` on ``(-score, insertion index)``, and
each column gathered tuple by tuple from the sorted order.  Snapshot
segments store these columns, and an open compares them bytewise, so
stores written before the columnar rank stay readable only while the
two agree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.db.database import ProbabilisticDatabase
from repro.db.ranking import RankingFunction
from repro.db.tuples import ProbabilisticTuple


def reference_rank(
    db: ProbabilisticDatabase, ranking: RankingFunction
) -> Tuple[Dict[str, np.ndarray], List[ProbabilisticTuple]]:
    """The five canonical columns, by name, and the ranked tuples."""
    tuples = list(db)
    raw_scores = np.fromiter(
        (ranking(t) for t in tuples), dtype=np.float64, count=len(tuples)
    )
    insertion = np.arange(len(tuples), dtype=np.int64)
    perm = np.lexsort((insertion, -raw_scores))
    order = [tuples[i] for i in perm]
    xid_to_index = {xt.xid: l for l, xt in enumerate(db.xtuples)}
    columns = {
        "scores_array": np.ascontiguousarray(raw_scores[perm]),
        "insertion_array": np.ascontiguousarray(perm),
        "xtuple_indices_array": np.array(
            [xid_to_index[t.xtuple_id] for t in order], dtype=np.int64
        ),
        "probabilities_array": np.array(
            [t.probability for t in order], dtype=np.float64
        ),
        "completion_array": np.array(
            [
                min(1.0, math.fsum(t.probability for t in xt.alternatives))
                for xt in db.xtuples
            ],
            dtype=np.float64,
        ),
    }
    return columns, order
