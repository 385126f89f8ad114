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
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
def generate_costs(
    db: ProbabilisticDatabase,
    low: int = 1,
    high: int = 10,
    seed: int = 0,
) -> Dict[str, int]:
    """Integer probing costs, uniform in ``[low, high]`` (paper default
    ``[1, 10]``), keyed by x-tuple id."""
    if low < 1 or high < low:
        raise ValueError("need 1 <= low <= high")
    rng = random.Random(seed)
    return {xt.xid: rng.randint(low, high) for xt in db.xtuples}


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
        ``[x, 1]``).  ``"normal"`` draws from ``N(mean, sigma²)``
        clipped to ``[0, 1]`` (Figure 6(b) uses mean 0.5 and
        σ ∈ {0.13, 0.167, 0.3}).
    """
    rng = random.Random(seed)
    if distribution == "uniform":
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        return {xt.xid: rng.uniform(low, high) for xt in db.xtuples}
    if distribution == "normal":
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        return {
            xt.xid: min(1.0, max(0.0, rng.gauss(mean, sigma)))
            for xt in db.xtuples
        }
    raise ValueError(
        f"distribution must be 'uniform' or 'normal', got {distribution!r}"
    )
