"""Synthetic workload generator (paper Section VI).

The paper's default synthetic dataset: 5K x-tuples with a 1-D attribute
``y`` over the domain ``[0, 10000]``.  Each x-tuple has an *uncertainty
interval* ``y.L`` of width uniform in ``[60, 100]`` centered at a mean
``μ`` uniform over the domain, and an *uncertainty pdf* ``y.U`` --
Gaussian ``N(μ, σ²)`` with ``σ = 100`` by default, or uniform.  The pdf
is discretized into 10 equal-width histogram bars over the interval:
bar masses (normalized to sum to one) become existential probabilities,
bar midpoints become tuple values.  The result: 5K x-tuples × 10 tuples
= 50K tuples whose ranking is by value, larger first.

Also provides the experiment knobs of Section VI's cleaning setup:
integer probing costs uniform in ``[1, 10]`` and sc-probabilities drawn
from a configurable *sc-pdf* (uniform ``[0,1]`` by default; truncated
normals with mean 0.5 and σ ∈ {0.13, 0.167, 0.3}; uniform ``[x, 1]``
for the average-sc sweep).
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.db.database import ProbabilisticDatabase
from repro.db.tuples import ProbabilisticTuple, XTuple

#: Bar masses below this are dropped (they would violate the e > 0
#: invariant); the remaining masses are renormalized.
MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the Section VI generator (defaults = the paper's)."""

    num_xtuples: int = 5000
    bars_per_xtuple: int = 10
    domain: Tuple[float, float] = (0.0, 10000.0)
    interval_width: Tuple[float, float] = (60.0, 100.0)
    #: Gaussian standard deviation of the uncertainty pdf; the paper's
    #: GX datasets use X ∈ {10, 30, 50, 100}.  Ignored when
    #: ``uncertainty="uniform"``.
    sigma: float = 100.0
    #: ``"gaussian"`` or ``"uniform"``.
    uncertainty: str = "gaussian"
    #: Probability that an x-tuple produces a real reading at all; bar
    #: masses are normalized to this total, so values < 1 leave genuine
    #: null mass (a sensor that may miss its reading).  Incomplete
    #: databases never trigger Lemma 2's early stop; PSR stops them at
    #: the certified tail stop instead, a row that depends on ``k`` and
    #: the completion but not on the database size.
    completion: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_xtuples < 1:
            raise ValueError("num_xtuples must be positive")
        if self.bars_per_xtuple < 1:
            raise ValueError("bars_per_xtuple must be positive")
        if self.uncertainty not in ("gaussian", "uniform"):
            raise ValueError(
                f"uncertainty must be 'gaussian' or 'uniform', "
                f"got {self.uncertainty!r}"
            )
        if self.uncertainty == "gaussian" and self.sigma <= 0.0:
            raise ValueError("sigma must be positive for gaussian uncertainty")
        if not 0.0 < self.completion <= 1.0:
            raise ValueError("completion must lie in (0, 1]")


def _gaussian_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def _bar_masses(
    config: SyntheticConfig, mu: float, low: float, high: float
) -> Tuple[Tuple[float, float], ...]:
    """``(midpoint, normalized mass)`` per histogram bar."""
    bars = config.bars_per_xtuple
    width = (high - low) / bars
    raw = []
    for b in range(bars):
        left = low + b * width
        right = left + width
        if config.uncertainty == "uniform":
            mass = 1.0 / bars
        else:
            mass = _gaussian_cdf(right, mu, config.sigma) - _gaussian_cdf(
                left, mu, config.sigma
            )
        raw.append(((left + right) / 2.0, max(0.0, mass)))
    total = math.fsum(mass for _, mass in raw)
    if total <= 0.0:
        # Degenerate σ (all mass outside float resolution): fall back
        # to a point mass on the bar containing μ.
        closest = min(raw, key=lambda bar: abs(bar[0] - mu))
        return ((closest[0], config.completion),)
    kept = [
        (mid, mass / total) for mid, mass in raw if mass / total > MASS_FLOOR
    ]
    renorm = math.fsum(mass for _, mass in kept) / config.completion
    return tuple((mid, mass / renorm) for mid, mass in kept)


def generate_synthetic(
    config: Optional[SyntheticConfig] = None, **overrides
) -> ProbabilisticDatabase:
    """Generate a Section VI synthetic database.

    Accepts either a prebuilt :class:`SyntheticConfig` or keyword
    overrides of its fields, e.g.
    ``generate_synthetic(num_xtuples=100, sigma=30.0, seed=7)``.
    """
    if config is None:
        config = SyntheticConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides")
    rng = random.Random(config.seed)
    lo, hi = config.domain
    xtuples = []
    digits = len(str(config.num_xtuples - 1))
    for idx in range(config.num_xtuples):
        mu = rng.uniform(lo, hi)
        width = rng.uniform(*config.interval_width)
        low, high = mu - width / 2.0, mu + width / 2.0
        xid = f"X{idx:0{digits}d}"
        members = tuple(
            ProbabilisticTuple(
                tid=f"{xid}.b{b}",
                xtuple_id=xid,
                value=mid,
                probability=mass,
            )
            for b, (mid, mass) in enumerate(_bar_masses(config, mu, low, high))
        )
        xtuples.append(XTuple(xid=xid, alternatives=members))
    label = (
        f"synthetic(m={config.num_xtuples}, "
        f"{config.uncertainty}"
        + (f", sigma={config.sigma:g}" if config.uncertainty == "gaussian" else "")
        + (f", completion={config.completion:g}" if config.completion < 1.0 else "")
        + ")"
    )
    return ProbabilisticDatabase(xtuples, name=label)


# ----------------------------------------------------------------------
# Cleaning-experiment knobs (Section VI, "Cleaning Problem")
# ----------------------------------------------------------------------
#: One numpy Mersenne Twister per thread, reused by every draw: its
#: constructor seeds through a ``SeedSequence`` (about 0.2 ms, several
#: times the 3,000 draws a clean needs).  Each draw overwrites the whole
#: state before reading any, so no draw sees another's state, and no
#: thread shares one.
_GENERATORS = threading.local()


def _mersenne_twister(seed: int) -> np.random.MT19937:
    """A numpy Mersenne Twister in ``random.Random(seed)``'s exact state.

    Its raw 32-bit outputs (``random_raw``) are the words
    ``random.Random(seed)`` would draw from, in the same order.  The
    generator is this thread's, so use it before the next call.
    """
    state = random.Random(seed).getstate()[1]
    generator: Optional[np.random.MT19937] = getattr(_GENERATORS, "mt", None)
    if generator is None:
        generator = _GENERATORS.mt = np.random.MT19937(0)
    generator.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(state[:-1], dtype=np.uint32),
            "pos": state[-1],
        },
    }
    return generator


def draw_costs(
    num_xtuples: int, low: int = 1, high: int = 10, seed: int = 0
) -> np.ndarray:
    """Integer probing costs uniform in ``[low, high]``, as an int64 array.

    Bit for bit ``[random.Random(seed).randint(low, high) for _ in
    range(num_xtuples)]``, drawn as one vector: ``randint`` takes the
    top ``(high - low + 1).bit_length()`` bits of one 32-bit output and
    rejects a value past the range, and so does this, over a block of
    raw outputs.  A range of ``2**32`` values or more would take more
    than one output per draw and raises ``ValueError``.
    """
    if low < 1 or high < low:
        raise ValueError("need 1 <= low <= high")
    width = high - low + 1
    bits = width.bit_length()
    if bits > 32:
        raise ValueError(
            f"a cost range of {width} values needs more than 32 random bits"
        )
    generator = _mersenne_twister(seed)
    accepted = [np.zeros(0, dtype=np.uint64)]
    count = 0
    while count < num_xtuples:
        # The expected number of outputs for the draws still owed, plus
        # slack; a short block just draws another.
        wanted = ((num_xtuples - count) << bits) // width + 16
        candidates = generator.random_raw(wanted) >> (32 - bits)
        accepted.append(candidates[candidates < width])
        count += accepted[-1].size
    return np.concatenate(accepted)[:num_xtuples].astype(np.int64) + low


def draw_sc_probabilities(
    num_xtuples: int, low: float = 0.0, high: float = 1.0, seed: int = 0
) -> np.ndarray:
    """sc-probabilities uniform in ``[low, high]``, as a float64 array.

    Bit for bit ``[random.Random(seed).uniform(low, high) for _ in
    range(num_xtuples)]``: each draw is ``low + (high - low) * r`` with
    ``random()``'s 53-bit ``r = (a * 2**26 + b) / 2**53``, where ``a``
    and ``b`` are the top 27 and 26 bits of two consecutive outputs.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    words = _mersenne_twister(seed).random_raw(2 * num_xtuples)
    r = ((words[0::2] >> 5) * 67108864 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )
    return low + (high - low) * r


def generate_costs(
    db: ProbabilisticDatabase,
    low: int = 1,
    high: int = 10,
    seed: int = 0,
) -> Dict[str, int]:
    """Integer probing costs, uniform in ``[low, high]`` (paper default
    ``[1, 10]``), keyed by x-tuple id: :func:`draw_costs` in the
    database's x-tuple order."""
    costs = draw_costs(db.num_xtuples, low, high, seed)
    return dict(zip(db.xids, costs.tolist()))


def generate_sc_probabilities(
    db: ProbabilisticDatabase,
    distribution: str = "uniform",
    seed: int = 0,
    low: float = 0.0,
    high: float = 1.0,
    mean: float = 0.5,
    sigma: float = 0.167,
) -> Dict[str, float]:
    """sc-probabilities from a configurable sc-pdf, keyed by x-tuple id.

    Parameters
    ----------
    distribution:
        ``"uniform"`` draws from ``U[low, high]`` (paper default
        ``[0, 1]``; the average-sc sweep of Figure 6(c) uses
        ``[x, 1]``) through :func:`draw_sc_probabilities`.
        ``"normal"`` draws from ``N(mean, sigma²)`` clipped to
        ``[0, 1]`` (Figure 6(b) uses mean 0.5 and σ ∈ {0.13, 0.167,
        0.3}), one ``random.Random(seed).gauss`` call per x-tuple.
    """
    xids = db.xids
    if distribution == "uniform":
        sc = draw_sc_probabilities(len(xids), low, high, seed)
        return dict(zip(xids, sc.tolist()))
    if distribution == "normal":
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        rng = random.Random(seed)
        return {
            xid: min(1.0, max(0.0, rng.gauss(mean, sigma))) for xid in xids
        }
    raise ValueError(
        f"distribution must be 'uniform' or 'normal', got {distribution!r}"
    )
