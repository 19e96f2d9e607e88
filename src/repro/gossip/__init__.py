"""Gossip-model substrate: synchronous engine, dynamics, md(c).

Gossip dynamics run through :func:`repro.simulate` like population
protocols: ``simulate(GossipUSD(k=3), initial, max_parallel_time=T)``
plays ``round(T)`` synchronous rounds on :class:`GossipEngine` and
returns a :class:`~repro.core.run.RunResult` (with ``rounds`` and
``stabilization_rounds``).
"""

from .dynamics import (
    GossipThreeMajority,
    GossipUSD,
    GossipVoter,
    three_majority_distribution,
)
from .engine import GossipDynamics, GossipEngine
from .monochromatic import md_time_bound, monochromatic_distance

__all__ = [
    "GossipDynamics",
    "GossipEngine",
    "GossipThreeMajority",
    "GossipUSD",
    "GossipVoter",
    "md_time_bound",
    "monochromatic_distance",
    "three_majority_distribution",
]
